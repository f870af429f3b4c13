//! Shared core of the inter-committee phase (§IV-D): one Algorithm 3
//! instance per committee per side.
//!
//! A committee certifies, in **one** instance, the *vector* of its outbound
//! lists — leaves `(dest, count, H(tx ids))` under a Merkle root the quorum
//! certificate commits to — and, in one more, the vector of its per-source
//! results after voting once over every list it admitted. A leg carries its
//! list, an `O(log m)` proof and the committee's one certificate. Every leg
//! and every vote is an envelope on a network under the round's fault plan:
//! one task per source committee (its instance, then the forwards and any
//! relays), one per destination committee (the one vote, its instance, the
//! replies).

use std::collections::BTreeMap;

use cycledger_consensus::envelope::CommitteeMessage;
use cycledger_consensus::messages::{payload_digest, ConsensusId};
use cycledger_consensus::quorum::QuorumCertificate;
use cycledger_consensus::sigcache::{SigCache, Verdicts};
use cycledger_consensus::transition;
use cycledger_consensus::votes::{Tally, Vote, VoteList};
use cycledger_consensus::witness::EquivocationEvidence;
use cycledger_crypto::merkle::MerkleTree;
use cycledger_crypto::sha256::Sha256;
use cycledger_ledger::transaction::{Transaction, TxId};
use cycledger_ledger::utxo::UtxoSet;
use cycledger_ledger::workload::GeneratedTx;
use cycledger_net::latency::LinkClass;
use cycledger_net::network::{NetEvent, SimNetwork};
use cycledger_net::time::SimDuration;
use cycledger_net::topology::NodeId;

use crate::adversary::Behavior;
use crate::committee::{run_inside_consensus, Committee};
use crate::engine::env::{Books, RoundEnv, Task};
use crate::engine::ShardExecutor;
use crate::node::NodeRegistry;
use crate::phases::inter::{list_deadline, CensorshipReport, InterOutcome};
use crate::phases::intra::{collect_votes_under_deadline, member_votes};

/// The network one committee's task runs on.
pub type Net = SimNetwork<CommitteeMessage>;

/// Timer keys: the destination leaders' `4Γ` list-forward deadline, and the
/// destination partial sets' `2Γ` relay watch.
const LIST_TIMER: u64 = 2;
const RELAY_TIMER: u64 = 4;

/// `TXList_{source,dest}`: the cross-shard transactions spending from
/// `source` into `dest`.
pub struct PairList<'a> {
    pub source: usize,
    pub dest: usize,
    pub txs: Vec<&'a GeneratedTx>,
}

impl PairList<'_> {
    pub fn ids(&self) -> impl ExactSizeIterator<Item = TxId> + '_ {
        self.txs.iter().map(|g| g.tx.id())
    }

    pub fn wire_bytes(&self) -> u64 {
        self.txs.iter().map(|g| g.tx.wire_size()).sum()
    }

    /// The envelope carrying this list — from its source, or relayed.
    pub fn forward(&self) -> CommitteeMessage {
        let (input, output, count) = (self.source as u32, self.dest as u32, self.txs.len() as u32);
        CommitteeMessage::ListForward {
            input,
            output,
            count,
        }
    }
}

/// The sub-list of one source's transactions a destination accepted.
pub type Accepted = (usize, Vec<Transaction>);

/// Groups cross-shard transactions into outbound vectors by source, each in
/// ascending destination order.
pub fn group_outbound(txs: &[GeneratedTx], m: usize) -> BTreeMap<usize, Vec<PairList<'_>>> {
    let mut by_pair: BTreeMap<(usize, usize), Vec<&GeneratedTx>> = BTreeMap::new();
    for gen in txs {
        let outputs = gen.tx.output_shards(m);
        let i = gen.tx.input_shards(m).first().copied().unwrap_or(0);
        let other = outputs.iter().copied().find(|&s| s != i);
        let j = other.unwrap_or_else(|| outputs.first().copied().unwrap_or(0));
        by_pair.entry((i, j)).or_default().push(gen);
    }
    let mut outbound: BTreeMap<usize, Vec<PairList<'_>>> = BTreeMap::new();
    for ((source, dest), txs) in by_pair {
        let list = PairList { source, dest, txs };
        outbound.entry(source).or_default().push(list);
    }
    outbound
}

/// One leaf of a certified vector: `be32(peer) ‖ be32(count) ‖ H(tx ids)`,
/// recomputed by the receiver from its own index and the list it was handed.
pub fn vector_leaf(peer: usize, ids: impl ExactSizeIterator<Item = TxId>) -> [u8; 40] {
    let mut leaf = [0u8; 40];
    leaf[..4].copy_from_slice(&(peer as u32).to_be_bytes());
    leaf[4..8].copy_from_slice(&(ids.len() as u32).to_be_bytes());
    let mut hasher = Sha256::new();
    for id in ids {
        hasher.update(id.as_bytes());
    }
    leaf[8..].copy_from_slice(hasher.finalize().as_bytes());
    leaf
}

fn list_leaf(list: &PairList<'_>) -> [u8; 40] {
    vector_leaf(list.dest, list.ids())
}

fn accepted_leaf((source, txs): &Accepted) -> [u8; 40] {
    vector_leaf(*source, txs.iter().map(|t| t.id()))
}

/// What one instance certified: the tree over the committee's leaves, the
/// certificate committing to its root, and the instance's verdict memo for
/// whoever checks that certificate.
pub struct CertifiedVector {
    tree: MerkleTree,
    pub certificate: QuorumCertificate,
    memo: Verdicts,
    /// Wire size of what every leg carries beside its list: the root, a
    /// proof (each leaf has the tree's depth in siblings), the certificate.
    leg_overhead: u64,
}

impl CertifiedVector {
    /// The receiver's check of leg `index`: against the instance it expects,
    /// the leaf it recomputed, and the round's verdict on the certificate.
    pub fn admits(&self, index: usize, expected: ConsensusId, leaf: &[u8], valid: bool) -> bool {
        let (root, proof) = (self.tree.root(), self.tree.prove(index));
        transition::certified_leaf_admissible(
            self.certificate.id == expected,
            self.certificate.digest == payload_digest(root.as_bytes()),
            proof.is_some_and(|proof| proof.verify(&root, leaf)),
            valid,
        )
    }

    fn new(tree: MerkleTree, certificate: QuorumCertificate, memo: Verdicts) -> Self {
        let depth = tree.prove(0).map_or(0, |proof| proof.siblings.len());
        let leg_overhead = 48 + 32 * depth as u64 + certificate.wire_size();
        CertifiedVector {
            tree,
            certificate,
            memo,
            leg_overhead,
        }
    }
}

/// What one task adds to the phase outcome beside accepted transactions.
#[derive(Default)]
pub struct Ledger {
    pub equivocation: Vec<EquivocationEvidence>,
    pub censorship: Option<CensorshipReport>,
    pub timeout_delays: u64,
    /// Destinations whose leader never got this source's certified list.
    pub missed: Vec<usize>,
}

/// One committee's side of the phase: its legs (outbound lists, or accepted
/// sub-lists to return) and the vector certifying them — `None` when the
/// instance failed, which defers every leg to a later round.
pub struct SideResult<L> {
    pub committee: usize,
    pub legs: Vec<L>,
    pub vector: Option<CertifiedVector>,
    pub ledger: Ledger,
    pub books: Books,
}

impl<L> SideResult<L> {
    /// Closes the task's network into the result's books, beside what the
    /// task already counted there.
    fn close(mut self, net: Net) -> Self {
        let closed = Books::close(net);
        self.books.metrics = closed.metrics;
        self.books.counters += closed.counters;
        self.books.counters.list_timeouts = self.ledger.missed.len();
        self
    }
}

/// Runs `members`' one instance for `task` over `leaves`. The proposal
/// carries only the root; the leader announces the `content_bytes` of ids
/// the members rebuild it from beside it.
fn certify_vector<L>(
    net: &mut Net,
    env: &RoundEnv<'_>,
    task: Task,
    members: &Committee,
    legs: Vec<L>,
    leaves: &[[u8; 40]],
    content_bytes: u64,
) -> SideResult<L> {
    let tree = MerkleTree::build(leaves);
    let root = tree.root().as_bytes().to_vec();
    let leader = members.leader;
    let fault = env.registry.node(leader).behavior.leader_fault(&root);
    let id = env.instance(task);
    let outcome = run_inside_consensus(net, members, env.registry, id, root, fault, true);
    if outcome.messages > 0 {
        for &member in members.members.iter().filter(|&&n| n != leader) {
            net.account_message(leader, member, content_bytes);
        }
    }
    SideResult {
        committee: members.index,
        legs,
        vector: outcome
            .certificate
            .map(|cert| CertifiedVector::new(tree, cert, outcome.memo)),
        ledger: Ledger {
            equivocation: outcome.equivocation,
            ..Ledger::default()
        },
        books: Books::default(),
    }
}

/// Source committee: certify the outbound vector and forward
/// every list, with its proof and the certificate, to the destination's
/// leader and partial set.
///
/// A censoring leader withholds them all; one honest partial-set member
/// notices after `2Γ`, takes over every forward at once (Lemma 6) and reports
/// the leader — one report and one `2Γ` per leader. With the whole partial
/// set colluding (the w.h.p. argument failed at this scale) nobody forwards
/// or reports.
///
/// A list has arrived when the destination *leader* holds it by `4Γ`. If its
/// copy is lost or late, every member of the destination's partial set
/// holding the list at `2Γ` relays it over `IntraCommittee` — the watch that
/// makes a missing list the leader's fault alone (Lemma 7). The leader's
/// acknowledgement is no message: its state is read directly, the way vote
/// ground truth is.
pub fn run_source<'a>(
    env: &RoundEnv<'_>,
    committees: &[Committee],
    committee: usize,
    lists: Vec<PairList<'a>>,
) -> SideResult<PairList<'a>> {
    let (task, source) = (Task::Source(committee), &committees[committee]);
    let mut net: Net = env.open(task);
    let leaves: Vec<_> = lists.iter().map(list_leaf).collect();
    let withheld: usize = lists.iter().map(|l| l.txs.len()).sum();
    let bytes = 32 * withheld as u64;
    let mut result = certify_vector(&mut net, env, task, source, lists, &leaves, bytes);
    let lists = &result.legs;
    let Some(vector) = &result.vector else {
        return result.close(net);
    };
    let two_gamma = env.config.latency.gamma.times(2);
    let (leader, mut forwarder, mut takeover) = (source.leader, source.leader, SimDuration::ZERO);
    if env.registry.node(leader).behavior == Behavior::CensoringLeader {
        let honest = |n: &NodeId| env.registry.node(*n).is_honest();
        let Some(reporter) = source.partial_set.iter().copied().find(honest) else {
            result.ledger.missed = lists.iter().map(|list| list.dest).collect();
            return result.close(net);
        };
        (forwarder, takeover) = (reporter, two_gamma);
        result.ledger.timeout_delays = takeover.as_micros();
        result.ledger.censorship = Some(CensorshipReport {
            committee,
            leader,
            reporter,
            withheld,
        });
    }
    let leader_of = |list: &PairList<'_>| committees[list.dest].leader;
    let leg_bytes = |list: &PairList<'_>| list.wire_bytes() + vector.leg_overhead;
    for list in lists {
        let partial_set = committees[list.dest].partial_set.iter().copied();
        let (class, bytes) = (LinkClass::KeyMemberMesh, leg_bytes(list));
        for to in std::iter::once(leader_of(list)).chain(partial_set) {
            net.send_after(forwarder, to, class, list.forward(), bytes, takeover);
        }
    }
    net.schedule_timer(two_gamma, RELAY_TIMER);
    net.schedule_timer(list_deadline(&env.config.latency), LIST_TIMER);
    let mut holders: Vec<Vec<NodeId>> = vec![Vec::new(); lists.len()];
    let mut arrived = vec![false; lists.len()];
    while arrived.contains(&false) {
        match net.next_event() {
            Some(NetEvent::Message(envelope)) => {
                let CommitteeMessage::ListForward { output, .. } = envelope.payload else {
                    continue;
                };
                let index = lists.iter().position(|l| l.dest == output as usize);
                let index = index.expect("forwards name one of this source's lists");
                if envelope.to == leader_of(&lists[index]) {
                    arrived[index] = true;
                } else if !holders[index].contains(&envelope.to) {
                    holders[index].push(envelope.to);
                }
            }
            Some(NetEvent::Timer { key, .. }) if key == RELAY_TIMER => {
                let pending = lists.iter().zip(&holders).zip(&arrived);
                for ((list, holders), _) in pending.filter(|(_, &arrived)| !arrived) {
                    let (class, bytes) = (LinkClass::IntraCommittee, leg_bytes(list));
                    for &holder in holders {
                        net.send(holder, leader_of(list), class, list.forward(), bytes);
                    }
                }
            }
            Some(NetEvent::Timer { key, .. }) if key != LIST_TIMER => {}
            _ => break,
        }
    }
    let missed = lists.iter().zip(arrived).filter(|(_, arrived)| !arrived);
    result.ledger.missed = missed.map(|(list, _)| list.dest).collect();
    result.close(net)
}

/// Ground-truth validity of every inbound transaction, list by list, each
/// against its *source* shard's state (the authentication function runs
/// once per transaction, not once per member).
fn inbound_validity(utxo_sets: &[UtxoSet], inbound: &[&PairList<'_>]) -> Vec<Vec<bool>> {
    let valid = |list: &PairList<'_>, g: &GeneratedTx| utxo_sets[list.source].validate(&g.tx);
    let table = |list: &&PairList<'_>| list.txs.iter().map(|g| valid(list, g).is_ok()).collect();
    inbound.iter().map(table).collect()
}

/// One member's single vote over all inbound lists, written into one vector
/// (its compute budget applies per list, as it did when every list was voted
/// on separately).
fn inbound_votes(registry: &NodeRegistry, member: NodeId, validity: &[Vec<bool>]) -> Vec<Vote> {
    let node = registry.node(member);
    let mut votes = Vec::with_capacity(validity.iter().map(Vec::len).sum());
    for list in validity {
        votes.extend(member_votes(node, list));
    }
    votes
}

/// Destination committee `j`: the leader announces every admitted list at
/// once and members vote once under the single `4Δ` deadline (missing votes
/// become all-`Unknown` rows — the same collection loop as the intra phase,
/// minus its storage accounting); then tally, agreement and replies.
pub fn run_dest(
    env: &RoundEnv<'_>,
    committees: &[Committee],
    utxo_sets: &[UtxoSet],
    j: usize,
    inbound: &[&PairList<'_>],
) -> SideResult<Accepted> {
    let mut net: Net = env.open(Task::Destination(j));
    let validity = inbound_validity(utxo_sets, inbound);
    let votes_of = |member| inbound_votes(env.registry, member, &validity);
    let vote_list = VoteList::new(inbound.iter().flat_map(|list| list.ids()).collect());
    let announce_bytes = inbound.iter().map(|list| list.wire_bytes()).sum::<u64>() + 96;
    let (collected, votes) = collect_votes_under_deadline(
        &mut net,
        env,
        &committees[j],
        &votes_of,
        announce_bytes,
        false,
        vote_list,
    );
    let mut result = certify_and_reply(&mut net, env, committees, j, inbound, &collected.tally);
    result.books.counters = votes;
    result.close(net)
}

/// Certifies the vector of per-source accepted sub-lists (in vote order) the
/// destination's one tallied vote decided, and returns each source its own.
fn certify_and_reply(
    net: &mut Net,
    env: &RoundEnv<'_>,
    committees: &[Committee],
    committee: usize,
    inbound: &[&PairList<'_>],
    tally: &Tally,
) -> SideResult<Accepted> {
    let mut decision = tally.decision.iter();
    let mut accepted = |list: &&PairList<'_>| -> Accepted {
        let decided = list.txs.iter().zip(&mut decision).filter(|(_, &d)| d > 0);
        (list.source, decided.map(|(g, _)| g.tx.clone()).collect())
    };
    let legs: Vec<Accepted> = inbound.iter().map(&mut accepted).collect();
    let leaves: Vec<_> = legs.iter().map(accepted_leaf).collect();
    let bytes = 32 * tally.accepted_indices.len() as u64;
    let (task, members) = (Task::Destination(committee), &committees[committee]);
    let result = certify_vector(net, env, task, members, legs, &leaves, bytes);
    if let Some(vector) = &result.vector {
        let from = members.leader;
        for (source, txs) in &result.legs {
            let (input, output, accepted) = (*source as u32, committee as u32, txs.len() as u32);
            let reply = CommitteeMessage::ListReply {
                input,
                output,
                accepted,
            };
            let (to, class) = (committees[*source].leader, LinkClass::KeyMemberMesh);
            let bytes = 32 * txs.len() as u64 + vector.leg_overhead;
            net.send(from, to, class, reply, bytes);
        }
    }
    result
}

/// Checks every certificate of one side (`Task::Source` or
/// `Task::Destination`) once and says, per result and leg, whether the
/// receiver admits it. The check runs against the verdict memo of the
/// instance that formed the certificate, so what that instance's leader
/// verified costs the receiver lookups (the memo is taken out of the result:
/// it is spent here).
fn admitted<L>(
    env: &RoundEnv<'_>,
    committees: &[Committee],
    side: fn(usize) -> Task,
    results: &mut [SideResult<L>],
    leaf_of: impl Fn(&L) -> [u8; 40],
) -> Vec<Vec<bool>> {
    let mut flags = Vec::with_capacity(results.len());
    for result in results {
        let Some(vector) = &mut result.vector else {
            flags.push(vec![false; result.legs.len()]);
            continue;
        };
        let (committee, certificate) = (&committees[result.committee], &vector.certificate);
        let memo = SigCache::from(std::mem::take(&mut vector.memo));
        let verdict = certificate.verify_memoized(&committee.keys, committee.majority(), &memo);
        let valid = verdict.is_ok();
        let expected = env.instance(side(result.committee));
        let admit = |(index, leg)| vector.admits(index, expected, &leaf_of(leg), valid);
        flags.push(result.legs.iter().enumerate().map(admit).collect());
    }
    flags
}

impl InterOutcome {
    fn absorb(&mut self, ledger: Ledger) {
        self.alg3_instances += 1;
        self.equivocation.extend(ledger.equivocation);
        self.censorship_reports.extend(ledger.censorship);
        self.timeout_delays += ledger.timeout_delays;
    }
}

/// The phase over the cross-shard portion of the workload: sources as one
/// executor batch; a barrier where each list that arrived is admitted against
/// its source's certificate; destinations as a second batch; each source
/// admits its returned sub-list the same way; a fold in committee order,
/// identical for any worker count, of every task's books into `books`.
pub fn run_phase(
    env: &RoundEnv<'_>,
    committees: &[Committee],
    utxo_sets: &[UtxoSet],
    cross_shard: &[GeneratedTx],
    executor: &ShardExecutor,
    books: &mut Books,
) -> InterOutcome {
    let m = committees.len();
    let mut outcome = InterOutcome::default();
    outcome.accepted.resize(m, Vec::new());

    let outbound = group_outbound(cross_shard, m).into_iter();
    let tasks = outbound.map(|(i, lists)| move || run_source(env, committees, i, lists));
    let mut sources = executor.execute(tasks.collect());

    let flags = admitted(env, committees, Task::Source, &mut sources, list_leaf);
    let mut inbound: BTreeMap<usize, Vec<&PairList<'_>>> = BTreeMap::new();
    for (source, flags) in sources.iter().zip(flags) {
        for (list, ok) in source.legs.iter().zip(flags) {
            if ok && !source.ledger.missed.contains(&list.dest) {
                inbound.entry(list.dest).or_default().push(list);
            }
        }
    }
    let tasks = inbound
        .iter()
        .map(|(&j, l)| move || run_dest(env, committees, utxo_sets, j, l));
    let mut dests = executor.execute(tasks.collect());

    for source in sources {
        books.absorb(&source.books);
        outcome.absorb(source.ledger);
    }
    let flags = admitted(
        env,
        committees,
        Task::Destination,
        &mut dests,
        accepted_leaf,
    );
    for (dest, flags) in dests.into_iter().zip(flags) {
        for ((source, txs), _) in dest.legs.into_iter().zip(flags).filter(|(_, ok)| *ok) {
            outcome.accepted[source].extend(txs);
        }
        books.absorb(&dest.books);
        outcome.absorb(dest.ledger);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryConfig;
    use crate::config::ProtocolConfig;
    use crate::sortition::{assign_round, AssignmentParams};
    use cycledger_crypto::sha256::{sha256, Digest};
    use cycledger_ledger::workload::{Workload, WorkloadConfig};
    use cycledger_net::faults::FaultPlan;
    use cycledger_net::latency::LatencyConfig;
    use cycledger_net::metrics::{MetricsSink, Phase};
    use cycledger_net::time::SimTime;
    use cycledger_reputation::ReputationTable;
    use std::collections::BTreeSet;

    const PHASE: Phase = Phase::InterCommitteeConsensus;

    struct Fixture {
        config: ProtocolConfig,
        registry: NodeRegistry,
        referee: Committee,
        committees: Vec<Committee>,
        utxo_sets: Vec<UtxoSet>,
        cross: Vec<GeneratedTx>,
        no_faults: FaultPlan,
    }

    /// `m` committees of about `c` members and `txs` generated transactions,
    /// all cross-shard, a tenth of them invalid.
    fn fixture(m: usize, c: usize, txs: usize, seed: u64) -> Fixture {
        let registry =
            NodeRegistry::generate(m * c + 5, &AdversaryConfig::default(), 10_000, 0, seed);
        let assignment = assign_round(
            &registry,
            &registry.ids(),
            AssignmentParams {
                committees: m,
                partial_set_size: 2,
                referee_size: 5,
            },
            1,
            sha256(b"xshard"),
            &ReputationTable::with_members(registry.ids()),
        );
        let committees = assignment
            .committees
            .iter()
            .map(|c| Committee::from_assignment(c, &registry))
            .collect();
        let mut workload = Workload::new(WorkloadConfig {
            num_shards: m,
            accounts_per_shard: txs,
            genesis_amount: 1_000,
            cross_shard_ratio: 1.0,
            invalid_ratio: 0.1,
            seed,
        });
        let utxo_sets = workload.build_genesis_utxo_sets();
        let cross = workload
            .generate_batch(txs)
            .into_iter()
            .filter(|g| !g.tx.is_intra_shard(m))
            .collect();
        Fixture {
            config: ProtocolConfig {
                seed,
                ..ProtocolConfig::default()
            },
            referee: Committee::referee(&assignment.referee, &registry),
            registry,
            committees,
            utxo_sets,
            cross,
            no_faults: FaultPlan::default(),
        }
    }

    impl Fixture {
        fn env(&self) -> RoundEnv<'_> {
            RoundEnv {
                config: &self.config,
                registry: &self.registry,
                referee: &self.referee,
                plan: &self.no_faults,
                round: 1,
            }
        }

        /// The whole phase under `plan`.
        fn run(&self, plan: &FaultPlan, workers: usize) -> (InterOutcome, Books) {
            let env = RoundEnv { plan, ..self.env() };
            let (executor, mut books) = (ShardExecutor::new(workers), Books::default());
            let (committees, utxo_sets) = (&self.committees, &self.utxo_sets);
            let outcome = run_phase(
                &env,
                committees,
                utxo_sets,
                &self.cross,
                &executor,
                &mut books,
            );
            (outcome, books)
        }

        /// Ids of the valid offered transactions per `(source, dest)` pair.
        fn offered_valid(&self) -> BTreeMap<(usize, usize), BTreeSet<TxId>> {
            let mut offered = BTreeMap::new();
            for list in group_outbound(&self.cross, self.committees.len())
                .into_values()
                .flatten()
            {
                let valid = list
                    .txs
                    .iter()
                    .filter(|g| self.utxo_sets[list.source].validate(&g.tx).is_ok())
                    .map(|g| g.tx.id())
                    .collect();
                offered.insert((list.source, list.dest), valid);
            }
            offered
        }

        /// Valid offered ids per source, over the pairs `keep` selects.
        fn expected(&self, keep: impl Fn(usize, usize) -> bool) -> Vec<BTreeSet<TxId>> {
            let mut expected = vec![BTreeSet::new(); self.committees.len()];
            for ((source, dest), ids) in self.offered_valid() {
                if keep(source, dest) {
                    expected[source].extend(ids);
                }
            }
            expected
        }
    }

    fn accepted_ids(outcome: &InterOutcome) -> Vec<BTreeSet<TxId>> {
        outcome
            .accepted
            .iter()
            .map(|txs| txs.iter().map(|t| t.id()).collect())
            .collect()
    }

    fn digest(outcome: &InterOutcome, metrics: &MetricsSink) -> Digest {
        let mut bytes = Vec::new();
        for txs in &outcome.accepted {
            bytes.extend_from_slice(&(txs.len() as u64).to_be_bytes());
            for tx in txs {
                bytes.extend_from_slice(tx.id().as_bytes());
            }
        }
        metrics.write_canonical_bytes(&mut bytes);
        sha256(&bytes)
    }

    #[test]
    fn fault_free_rounds_accept_the_offered_valid_set_in_at_most_2m_instances() {
        for (m, c, txs) in [(2, 8, 24), (3, 12, 60), (8, 16, 160)] {
            for seed in 0..16 {
                let fx = fixture(m, c, txs, 1_000 * m as u64 + seed);
                let (outcome, books) = fx.run(&fx.no_faults, 1);
                assert_eq!(
                    accepted_ids(&outcome),
                    fx.expected(|_, _| true),
                    "{m}x{c}/{seed}"
                );
                assert!(outcome.alg3_instances <= 2 * m, "{m}x{c}/{seed}");
                assert!(outcome.alg3_instances < 2 * fx.offered_valid().len() || m == 2);
                assert!(outcome.censorship_reports.is_empty() && outcome.equivocation.is_empty());
                assert_eq!(
                    (outcome.timeout_delays, books.counters.list_timeouts),
                    (0, 0)
                );
                assert!(books.metrics.phase_total(PHASE).msgs_sent > 0);
            }
        }
    }

    #[test]
    fn tampered_legs_are_rejected() {
        let fx = fixture(3, 8, 60, 21);
        let env = fx.env();
        let source = 0;
        let lists = group_outbound(&fx.cross, 3).remove(&source).unwrap();
        assert_eq!(lists.len(), 2, "source 0 feeds both other committees");
        let mut results = [run_source(&env, &fx.committees, source, lists)];
        assert!(results[0].ledger.missed.is_empty());
        let warm = results[0].vector.as_ref().map(|v| v.memo.clone());
        let warm = warm.expect("honest instance certifies");
        assert_eq!(
            admitted(&env, &fx.committees, Task::Source, &mut results, list_leaf),
            [[true, true]]
        );

        let vector = results[0]
            .vector
            .as_ref()
            .expect("honest instance certifies");
        let (list, other) = (&results[0].legs[0], &results[0].legs[1]);
        let expected = Task::Source(source).instance(env.round);
        let leaf = list_leaf(list);
        assert!(vector.admits(0, expected, &leaf, true));
        // One id swapped for another list's transaction.
        let mut ids: Vec<TxId> = list.ids().collect();
        ids[0] = other.txs[0].tx.id();
        assert!(!vector.admits(0, expected, &vector_leaf(list.dest, ids.into_iter()), true));
        // The proof for the other destination's leaf, or the same list
        // claimed under the other destination's index.
        assert!(!vector.admits(1, expected, &leaf, true));
        assert!(!vector.admits(0, expected, &vector_leaf(other.dest, list.ids()), true));
        // A certificate from another round, or from the other side's instance.
        assert!(!vector.admits(0, Task::Source(source).instance(env.round + 1), &leaf, true));
        let other_side = Task::Destination(source).instance(env.round);
        assert!(!vector.admits(0, other_side, &leaf, true));
        // A certificate over some other vector.
        let (tree, certificate) = (MerkleTree::build(&[leaf]), vector.certificate.clone());
        let forged = CertifiedVector::new(tree, certificate, warm.clone());
        assert!(!forged.admits(0, expected, &leaf, true));
        // A certificate below quorum — with its instance's memo (which knows
        // every signature left on it) as without one.
        let thin = fx.committees[source].majority() - 1;
        let vector = results[0].vector.as_mut().unwrap();
        vector.certificate.signatures.truncate(thin);
        for memo in [warm, Verdicts::default()] {
            results[0].vector.as_mut().unwrap().memo = memo;
            let verdicts = admitted(&env, &fx.committees, Task::Source, &mut results, list_leaf);
            assert_eq!(verdicts, [[false, false]]);
        }
    }

    /// What admission costs at the source→destination barrier: the memo each
    /// honest source hands over knows every signature on its certificate, so
    /// the receivers verify nothing — and a memo is spent by the check that
    /// took it, so admitting the same results again pays what a receiver
    /// without one pays: a batch per certificate.
    #[cfg(feature = "opcount")]
    #[test]
    fn admitting_honest_results_costs_one_memo_lookup_per_certificate_signature() {
        use cycledger_crypto::opcount::scope;
        let fx = fixture(3, 8, 60, 21);
        let env = fx.env();
        let outbound = group_outbound(&fx.cross, 3).into_iter();
        let mut sources: Vec<_> = outbound
            .map(|(source, lists)| run_source(&env, &fx.committees, source, lists))
            .collect();
        let certificates = sources.iter().flat_map(|s| &s.vector);
        let signatures: usize = certificates.map(|v| v.certificate.signer_count()).sum();
        let signatures = signatures as u64;
        let mut check = |expected| {
            let mut flags = Vec::new();
            let tally = scope(|| {
                flags = admitted(&env, &fx.committees, Task::Source, &mut sources, list_leaf)
            });
            assert!(flags.iter().flatten().all(|&ok| ok));
            let verified = (tally.sig_batches, tally.sigs_batched, tally.sigs_single);
            assert_eq!((verified, tally.memo_lookups), expected);
        };
        check(((0, 0, 0), signatures));
        check(((3, signatures, 0), 2 * signatures));
    }

    #[test]
    fn a_failed_leader_stalls_only_its_own_vector() {
        for behavior in [Behavior::SilentLeader, Behavior::EquivocatingLeader] {
            // As a source, committee 0 loses its outbound vector and nothing else.
            let mut fx = fixture(3, 8, 60, 22);
            let leader = fx.committees[0].leader;
            fx.registry.set_behavior(leader, behavior);
            let (outcome, _) = fx.run(&fx.no_faults, 1);
            // Committee 0 also fails as a destination: its leader runs that
            // instance too.
            assert_eq!(accepted_ids(&outcome), fx.expected(|s, d| s != 0 && d != 0));
            assert!(fx
                .expected(|s, d| s != 0 && d != 0)
                .iter()
                .any(|ids| !ids.is_empty()));
            assert_eq!(
                outcome.equivocation.is_empty(),
                behavior == Behavior::SilentLeader
            );
        }
        // A destination leader that fails only on the destination side: make
        // committee 2 receive but send nothing, then silence its leader.
        let mut fx = fixture(3, 8, 60, 23);
        fx.cross
            .retain(|g| g.tx.input_shards(3).first() != Some(&2));
        let leader = fx.committees[2].leader;
        fx.registry.set_behavior(leader, Behavior::SilentLeader);
        let (outcome, _) = fx.run(&fx.no_faults, 1);
        assert_eq!(accepted_ids(&outcome), fx.expected(|_, d| d != 2));
        assert!(fx.offered_valid().keys().any(|&(_, d)| d == 2));
    }

    #[test]
    fn a_censoring_leader_costs_one_report_and_one_timeout() {
        let mut fx = fixture(3, 8, 60, 24);
        let leader = fx.committees[0].leader;
        fx.registry.set_behavior(leader, Behavior::CensoringLeader);
        let withheld: usize = group_outbound(&fx.cross, 3)[&0]
            .iter()
            .map(|l| l.txs.len())
            .sum();
        let (outcome, books) = fx.run(&fx.no_faults, 1);
        let [report] = &outcome.censorship_reports[..] else {
            panic!(
                "one report per censoring leader, got {:?}",
                outcome.censorship_reports
            );
        };
        assert_eq!(
            (report.committee, report.leader, report.withheld),
            (0, leader, withheld)
        );
        assert!(fx.registry.node(report.reporter).is_honest());
        assert_eq!(
            outcome.timeout_delays,
            2 * LatencyConfig::default().gamma.as_micros()
        );
        // Lemma 6: the partial set forwards the lists, so transactions still land.
        assert_eq!(accepted_ids(&outcome), fx.expected(|_, _| true));
        assert_eq!(books.counters.list_timeouts, 0);
        // With the whole partial set colluding nobody forwards or reports.
        for pm in fx.committees[0].partial_set.clone() {
            fx.registry.set_behavior(pm, Behavior::WrongVoter);
        }
        let (outcome, books) = fx.run(&fx.no_faults, 1);
        assert!(outcome.censorship_reports.is_empty());
        assert_eq!(books.counters.list_timeouts, 2);
        assert!(outcome.accepted[0].is_empty() && !outcome.accepted[1].is_empty());
    }

    #[test]
    fn a_timed_out_forward_does_not_block_the_destination_for_other_sources() {
        // Every link of committee 0's leader is held 5Γ: its two lists miss the
        // 4Γ deadline at both destinations — which still serve each other —
        // and so do the two lists addressed to it, relays included.
        let fx = fixture(3, 8, 60, 25);
        let slow = fx.committees[0].leader;
        let plan = FaultPlan::default().with_delay(slow, LatencyConfig::default().gamma.times(5));
        let (outcome, books) = fx.run(&plan, 1);
        assert_eq!(books.counters.list_timeouts, 4);
        assert_eq!(accepted_ids(&outcome), fx.expected(|s, d| s != 0 && d != 0));
        assert!(!outcome.accepted[1].is_empty() && !outcome.accepted[2].is_empty());
        assert_eq!(
            outcome.alg3_instances,
            3 + 2,
            "committee 0 admitted nothing to vote on"
        );
    }

    #[test]
    fn the_destination_partial_set_relays_a_list_its_leader_never_got() {
        // Committee 1's leader is unreachable while the forwards go out (the
        // forwarder→leader copies are as good as delayed past 4Γ) but its
        // partial set is not; the fault is on the forward leg only.
        let fx = fixture(3, 8, 60, 26);
        let env = fx.env();
        let gamma = env.config.latency.gamma;
        let leader = fx.committees[1].leader;
        let cut = FaultPlan::default().with_partition(
            vec![leader],
            SimTime::ZERO,
            Some(SimTime::ZERO.after(gamma.times(2))),
        );
        let forward_leg = RoundEnv { plan: &cut, ..env };
        let outbound = group_outbound(&fx.cross, 3).into_iter();
        let sources: Vec<_> = outbound
            .filter(|(source, _)| *source != 1)
            .map(|(source, lists)| run_source(&forward_leg, &fx.committees, source, lists))
            .collect();
        let lost: u64 = sources.iter().map(|s| s.books.counters.net_dropped).sum();
        assert!(lost > 0, "the leader's copies were lost");
        assert!(sources.iter().all(|s| s.ledger.missed.is_empty()));
        let relayed = |pm: &NodeId| -> u64 {
            let sent = |s: &SideResult<_>| s.books.metrics.node_phase(*pm, PHASE).msgs_sent;
            sources.iter().map(sent).sum()
        };
        assert!(
            fx.committees[1]
                .partial_set
                .iter()
                .map(relayed)
                .sum::<u64>()
                > 0,
            "partial-set members relayed over IntraCommittee"
        );
        // A relayed list is admitted and voted on like any other.
        let mut sources = sources;
        let flags = admitted(&env, &fx.committees, Task::Source, &mut sources, list_leaf);
        assert!(flags.iter().flatten().all(|&ok| ok));
        let legs = sources.iter().flat_map(|s| &s.legs);
        let inbound: Vec<&PairList<'_>> = legs.filter(|list| list.dest == 1).collect();
        assert_eq!(inbound.len(), 2);
        let dest = run_dest(&env, &fx.committees, &fx.utxo_sets, 1, &inbound);
        assert!(dest.vector.is_some());
        let offered = fx.offered_valid();
        for (source, txs) in &dest.legs {
            let ids: BTreeSet<TxId> = txs.iter().map(|t| t.id()).collect();
            assert_eq!(ids, offered[&(*source, 1)]);
            assert!(!ids.is_empty());
        }
    }

    #[test]
    fn the_phase_is_digest_identical_at_any_worker_count_with_all_pairs_populated() {
        let fx = fixture(4, 8, 160, 27);
        assert_eq!(
            fx.offered_valid().len(),
            4 * 3,
            "all m(m-1) pairs populated"
        );
        let digests: Vec<Digest> = [1, 2, 8]
            .iter()
            .map(|&workers| {
                let (outcome, books) = fx.run(&fx.no_faults, workers);
                assert_eq!(outcome.alg3_instances, 2 * 4);
                assert_eq!(accepted_ids(&outcome), fx.expected(|_, _| true));
                digest(&outcome, &books.metrics)
            })
            .collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:?}");
    }
}
