//! Phase 4 — inter-committee consensus (§IV-D, Lemmas 6 & 7).
//!
//! A cross-shard transaction is voted on by the committee that owns its
//! input: its source. The source's intra vote covers its outbound
//! transactions as the `V List`'s last columns, in outbound-vector order, and
//! its intra instance certifies the vector of what that vote accepted —
//! leaves `(dest, count, H(accepted ids))` in ascending destination order,
//! leaf 0 the `V List` — so the referee's check of that one certificate
//! covers every outbound list. The source forwards each accepted list, with
//! an `O(log m)` proof and the intra certificate, to the destination's leader
//! and partial set; the destination admits it against that certificate and
//! runs no vote and no instance. Every leg is an envelope on a network under
//! the round's fault plan, one task per source committee (the forwards and
//! any relays), under a [`list_deadline`]; a destination's partial set relays
//! a list its leader is still missing at `2Γ`, and a forward that misses the
//! deadline anyway defers that pair's transactions to a later round.
//!
//! Two leader attacks are modelled: a **censoring** source leader withholds
//! the certified lists, and after the `2Γ` timeout an honest member of its
//! partial set forwards them instead (Lemma 6) and the committee accuses the
//! leader; framing is impossible because the destination's partial set also
//! watches its own leader for `2Γ` (Lemma 7) — only the source leader is
//! ever accused, and only when it really withheld.

use std::collections::BTreeMap;

use cycledger_consensus::envelope::CommitteeMessage;
use cycledger_consensus::messages::{payload_digest, ConsensusId};
use cycledger_consensus::quorum::QuorumCertificate;
use cycledger_consensus::transition;
use cycledger_crypto::merkle::MerkleTree;
use cycledger_crypto::sha256::Sha256;
use cycledger_ledger::transaction::{Routing, ShardTable, Transaction, TxId};
use cycledger_ledger::workload::GeneratedTx;
use cycledger_net::latency::{LatencyConfig, LinkClass};
use cycledger_net::network::{NetEvent, SimNetwork};
use cycledger_net::time::SimDuration;
use cycledger_net::topology::NodeId;

use crate::adversary::Behavior;
use crate::committee::Committee;
use crate::engine::env::{Books, RoundEnv, Task};
use crate::engine::ShardExecutor;
use crate::phases::intra::IntraOutcome;
use crate::phases::recovery::Accusation;

/// The network one committee's task runs on.
pub type Net = SimNetwork<CommitteeMessage>;

/// Timer keys: the destination leaders' `4Γ` list-forward deadline, and the
/// destination partial sets' `2Γ` relay watch.
const LIST_TIMER: u64 = 2;
const RELAY_TIMER: u64 = 4;

/// The destination leader's deadline for a forwarded cross-shard list:
/// `4Γ`. Honest forwards arrive within `Γ`; the Lemma 6 takeover (an honest
/// partial-set member forwarding after the `2Γ` censorship timeout) within
/// `3Γ`; a relay by the destination's own partial set at `2Γ` within
/// `2Γ + Δ` — so only genuine network faults miss this deadline.
pub fn list_deadline(latency: &LatencyConfig) -> SimDuration {
    latency.gamma.times(4)
}

/// Outcome of the inter-committee consensus phase.
#[derive(Clone, Debug, Default)]
pub struct InterOutcome {
    /// Cross-shard transactions the input committee accepted and the
    /// destination admitted, per input committee.
    pub accepted: Vec<Vec<Transaction>>,
    /// One timeout accusation per censoring leader, with its committee.
    pub censorship: Vec<(usize, Accusation)>,
    /// Extra latency incurred by `2Γ` timeouts (microseconds of simulated time).
    pub timeout_delays: u64,
}

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

/// The `(source, dest)` pair a cross-shard transaction travels: its least
/// input shard, and its least output shard other than that one (its least
/// output shard if there is none). Allocates nothing.
pub fn pair_of(tx: &Transaction, routes: impl Routing) -> (usize, usize) {
    let shard = |owner| routes.shard_of(owner);
    let i = tx.inputs().iter().map(|input| shard(input.owner)).min();
    let i = i.unwrap_or(0);
    let outputs = || tx.outputs().iter().map(|output| shard(output.owner));
    let j = outputs()
        .filter(|&s| s != i)
        .min()
        .or_else(|| outputs().min());
    (i, j.unwrap_or(0))
}

/// Groups cross-shard transactions into outbound vectors by source, each in
/// ascending destination order.
pub fn group_outbound(
    txs: &[GeneratedTx],
    routes: impl Routing,
) -> BTreeMap<usize, Vec<PairList<'_>>> {
    let mut by_pair: BTreeMap<(usize, usize), Vec<&GeneratedTx>> = BTreeMap::new();
    for gen in txs {
        let pair = pair_of(&gen.tx, routes);
        by_pair.entry(pair).or_default().push(gen);
    }
    let mut outbound: BTreeMap<usize, Vec<PairList<'_>>> = BTreeMap::new();
    for ((source, dest), txs) in by_pair {
        let list = PairList { source, dest, txs };
        outbound.entry(source).or_default().push(list);
    }
    outbound
}

/// The outbound lists cut down to what `decision` — the tally over their
/// transactions, list after list, as the source's `V List` holds them after
/// its offered columns — accepted: the lists the source's vector commits to
/// and forwards.
pub fn accepted_lists<'a>(outbound: &[PairList<'a>], decision: &[i8]) -> Vec<PairList<'a>> {
    let mut decision = decision.iter();
    let cut = |list: &PairList<'a>| {
        let kept = list.txs.iter().zip(&mut decision).filter(|(_, &d)| d > 0);
        let (source, dest) = (list.source, list.dest);
        let txs = kept.map(|(&g, _)| g).collect();
        PairList { source, dest, txs }
    };
    outbound.iter().map(cut).collect()
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

pub(crate) fn list_leaf(list: &PairList<'_>) -> [u8; 40] {
    vector_leaf(list.dest, list.ids())
}

/// The tree a source committee's intra instance certifies: leaf 0 its
/// `V List` payload, then leaf `1 + i` for the accepted part of its outbound
/// list `i` ([`accepted_lists`]). `None` without outbound lists — the
/// one-leaf vector, which the instance certifies as the `V List` payload
/// itself.
pub fn intra_vector(v_list: &[u8], accepted: &[PairList<'_>]) -> Option<MerkleTree> {
    if accepted.is_empty() {
        return None;
    }
    let leaves: Vec<[u8; 40]> = accepted.iter().map(list_leaf).collect();
    let slices = std::iter::once(v_list).chain(leaves.iter().map(|leaf| &leaf[..]));
    Some(MerkleTree::build_from_slices(slices.collect::<Vec<_>>()))
}

/// Whether `certificate` admits leaf `index` of the vector it was formed
/// over — `tree`, or with `None` the one leaf the instance certified as is —
/// at a receiver that expects instance `expected`, recomputed `leaf` and
/// holds `valid` as its verdict on the signatures. The one rule behind the
/// referee's leaves and a forward leg.
pub fn leaf_admitted(
    certificate: &QuorumCertificate,
    tree: Option<&MerkleTree>,
    index: usize,
    expected: ConsensusId,
    leaf: &[u8],
    valid: bool,
) -> bool {
    let (committed, proven) = match tree.map(|tree| (tree.root(), tree.prove(index))) {
        None => (payload_digest(leaf), index == 0),
        Some((root, proof)) => {
            let proven = proof.is_some_and(|proof| proof.verify(&root, leaf));
            (payload_digest(root.as_bytes()), proven)
        }
    };
    let (instance, root) = (certificate.id == expected, certificate.digest == committed);
    transition::certified_leaf_admissible(instance, root, proven, valid)
}

/// Wire size of what a leg carries beside its list and the certificate: the
/// root and a proof (each leaf has the tree's depth in siblings).
pub fn proof_bytes(tree: &MerkleTree) -> u64 {
    let depth = tree.prove(0).map_or(0, |proof| proof.siblings.len());
    48 + 32 * depth as u64
}

/// One source committee's side of the phase: its legs (the accepted part of
/// each outbound list), what it adds to the phase outcome, and its books.
pub struct SourceResult<'a> {
    pub committee: usize,
    pub legs: Vec<PairList<'a>>,
    pub censorship: Option<Accusation>,
    pub timeout_delays: u64,
    /// Destinations whose leader never got this source's certified list.
    pub missed: Vec<usize>,
    pub books: Books,
}

impl SourceResult<'_> {
    /// Closes the task's network into the result's books.
    fn close(mut self, net: Net) -> Self {
        self.books = Books::close(net);
        self.books.counters.list_timeouts = self.missed.len();
        self
    }
}

/// Source committee: forward every accepted list, with its proof and the
/// intra certificate over the committee's vector, to the destination's
/// leader and partial set. `overhead` is what a leg carries beside its list
/// ([`forward_overhead`]).
///
/// A censoring leader withholds them all; the first honest partial-set
/// member notices after `2Γ` and takes over every forward at once (Lemma 6),
/// and the committee accuses the leader of the timeout it observed — one
/// accusation and one `2Γ` per leader. With the whole partial set colluding
/// (the w.h.p. argument failed at this scale) nobody forwards or accuses.
///
/// A list has arrived when the destination *leader* holds it by `4Γ`. If its
/// copy is lost or late, every member of the destination's partial set
/// holding the list at `2Γ` relays it over `IntraCommittee` — the watch that
/// makes a missing list the leader's fault alone (Lemma 7). The leader's
/// acknowledgement is no message: its state is read directly.
pub fn run_source<'a>(
    env: &RoundEnv<'_>,
    committees: &[Committee],
    committee: usize,
    lists: Vec<PairList<'a>>,
    overhead: u64,
) -> SourceResult<'a> {
    let source = &committees[committee];
    let mut net: Net = env.open(Task::Source(committee));
    let mut result = SourceResult {
        committee,
        legs: lists,
        censorship: None,
        timeout_delays: 0,
        missed: Vec::new(),
        books: Books::default(),
    };
    let lists = &result.legs;
    let two_gamma = env.config.latency.gamma.times(2);
    let (leader, mut forwarder, mut takeover) = (source.leader, source.leader, SimDuration::ZERO);
    if env.registry.node(leader).behavior == Behavior::CensoringLeader {
        let Some(watcher) = source.first_honest_partial(env.registry) else {
            result.missed = lists.iter().map(|list| list.dest).collect();
            return result.close(net);
        };
        (forwarder, takeover) = (watcher, two_gamma);
        result.timeout_delays = takeover.as_micros();
        result.censorship = Some(Accusation::Timeout {
            leader,
            committee,
            observed_by_committee: true,
        });
    }
    let leader_of = |list: &PairList<'_>| committees[list.dest].leader;
    let leg_bytes = |list: &PairList<'_>| list.wire_bytes() + overhead;
    for list in lists {
        let partial_set = committees[list.dest].partial_set.iter().copied();
        let (class, bytes) = (LinkClass::KeyMemberMesh, leg_bytes(list));
        let to = std::iter::once(leader_of(list)).chain(partial_set);
        net.multicast_after(forwarder, to, class, list.forward(), bytes, takeover);
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
    result.missed = missed.map(|(list, _)| list.dest).collect();
    result.close(net)
}

/// What a forward leg carries beside its list under `intra`'s certificate:
/// `None` unless the referee admitted that certificate over an outbound
/// vector.
pub fn forward_overhead(intra: &IntraOutcome) -> Option<u64> {
    let (certificate, tree) = (intra.certificate.as_ref()?, intra.vector.as_ref()?);
    Some(proof_bytes(tree) + certificate.wire_size())
}

/// Says, per source result and leg, whether the destination admits the
/// forward: list `i` is leaf `1 + i` of the source's intra vector, under the
/// certificate of the attempt the referee admitted (`intra`, in committee
/// order). The referee's verdict stands for the signatures: admitting a
/// forward verifies and looks up nothing. The destination checks nothing
/// else: the source's vote ran every check of `UtxoSet::validate`, the
/// stateless ones included.
pub(crate) fn forwards_admitted(
    env: &RoundEnv<'_>,
    intra: &[IntraOutcome],
    sources: &[SourceResult<'_>],
) -> Vec<Vec<bool>> {
    let admit = |source: &SourceResult<'_>| {
        let (committee, outcome) = (source.committee, &intra[source.committee]);
        let retry = outcome.retry;
        let expected = env.instance(Task::Intra { committee, retry });
        let (qc, tree) = (outcome.certificate.as_ref(), outcome.vector.as_ref());
        let leg = |(i, list)| {
            qc.is_some_and(|qc| leaf_admitted(qc, tree, 1 + i, expected, &list_leaf(list), true))
        };
        source.legs.iter().enumerate().map(leg).collect()
    };
    sources.iter().map(admit).collect()
}

/// The phase over the cross-shard portion of the workload: the sources the
/// referee admitted an intra certificate for (`intra`, in committee order)
/// forward what their vote accepted as one executor batch; each list that
/// arrived and is admitted against that certificate is accepted, and every
/// task's books fold into `books` in committee order, identically for any
/// worker count. A source without an admitted certificate forwards nothing:
/// its lists wait for a later round.
pub fn run_phase(
    env: &RoundEnv<'_>,
    committees: &[Committee],
    cross_shard: &[GeneratedTx],
    routes: &ShardTable,
    intra: &[IntraOutcome],
    executor: &ShardExecutor,
    books: &mut Books,
) -> InterOutcome {
    let m = committees.len();
    let mut outcome = InterOutcome::default();
    outcome.accepted.resize(m, Vec::new());

    let outbound = group_outbound(cross_shard, routes).into_iter();
    let certified = outbound.filter_map(|(i, lists)| {
        let overhead = forward_overhead(&intra[i])?;
        let decision = intra[i].outbound_decision();
        Some((i, accepted_lists(&lists, decision), overhead))
    });
    let tasks = certified
        .map(|(i, lists, overhead)| move || run_source(env, committees, i, lists, overhead));
    let sources = executor.execute(tasks.collect());

    let flags = forwards_admitted(env, intra, &sources);
    for (source, flags) in sources.into_iter().zip(flags) {
        for (list, ok) in source.legs.iter().zip(flags) {
            if ok && !source.missed.contains(&list.dest) {
                let txs = list.txs.iter().map(|g| g.tx.clone());
                outcome.accepted[source.committee].extend(txs);
            }
        }
        books.absorb(&source.books);
        let accusation = source.censorship.map(|a| (source.committee, a));
        outcome.censorship.extend(accusation);
        outcome.timeout_delays += source.timeout_delays;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryConfig;
    use crate::config::ProtocolConfig;
    use crate::engine::arena::ShardScratch;
    use crate::engine::pipeline::referee_check;
    use crate::node::NodeRegistry;
    use crate::phases::intra::run_intra_consensus;
    use crate::sortition::{assign_round, AssignmentParams};
    use cycledger_consensus::alg3::LeaderFault;
    use cycledger_consensus::sigcache::Verdicts;
    use cycledger_consensus::transition::needs_recovery;
    use cycledger_consensus::votes::VoteList;
    use cycledger_crypto::sha256::{sha256, Digest};
    use cycledger_ledger::transaction::{AccountId, OutPoint, TxInput, TxOutput};
    use cycledger_ledger::utxo::{UtxoSet, ValidationError};
    use cycledger_ledger::workload::{TxKind, Workload, WorkloadConfig};
    use cycledger_net::faults::FaultPlan;
    use cycledger_net::latency::LatencyConfig;
    use cycledger_net::metrics::{MetricsSink, Phase};
    use cycledger_net::time::SimTime;
    use cycledger_reputation::ReputationTable;
    use std::collections::BTreeSet;

    use crate::committee::run_inside_consensus;

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

    /// `invalid` with its payee moved to the shard after its input's: the
    /// generator keeps an invalid transaction inside its shard.
    fn cross_shard(invalid: GeneratedTx, m: usize) -> GeneratedTx {
        let shard = (pair_of(&invalid.tx, m).0 + 1) % m;
        let payee = (0..).map(AccountId).find(|a| a.shard(m) == shard).unwrap();
        let pay = |output: &TxOutput| TxOutput {
            owner: payee,
            ..*output
        };
        let (inputs, nonce) = (invalid.tx.inputs().to_vec(), invalid.tx.nonce());
        let outputs = invalid.tx.outputs().iter().map(pay).collect();
        let tx = Transaction::new(inputs, outputs, nonce);
        GeneratedTx { tx, ..invalid }
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
        let batch = workload.generate_batch(txs).into_iter();
        let batch = batch.map(|g| {
            if g.kind.is_valid() {
                g
            } else {
                cross_shard(g, m)
            }
        });
        let cross = batch.filter(|g| !g.tx.is_intra_shard(m)).collect();
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

        fn outbound(&self) -> BTreeMap<usize, Vec<PairList<'_>>> {
            group_outbound(&self.cross, self.committees.len())
        }

        /// Committee `k`'s fault-free intra attempt over its outbound vector
        /// and no transaction of its own, before the referee's check.
        fn attempt(&self, k: usize, retry: bool) -> IntraOutcome {
            let outbound = self.outbound();
            let lists = outbound.get(&k).map_or(&[][..], Vec::as_slice);
            let (committee, utxo) = (&self.committees[k], &self.utxo_sets[k]);
            let scratch = &mut ShardScratch::default();
            run_intra_consensus(&self.env(), committee, retry, utxo, &[], lists, scratch)
        }

        /// The referee's check of `outcomes` against this fixture's lists.
        fn check(&self, outcomes: &mut [IntraOutcome]) {
            let (round, committees) = (self.env().round, &self.committees);
            referee_check(round, outcomes, committees, &self.outbound());
        }

        /// Every committee's first intra attempt, through the referee's check:
        /// the certificates the phase forwards under.
        fn intra(&self) -> Vec<IntraOutcome> {
            let mut outcomes: Vec<_> = (0..self.committees.len())
                .map(|k| self.attempt(k, false))
                .collect();
            self.check(&mut outcomes);
            outcomes
        }

        /// The whole phase under `plan`, after a fault-free intra phase.
        fn run(&self, plan: &FaultPlan, workers: usize) -> (InterOutcome, Books) {
            let env = RoundEnv { plan, ..self.env() };
            let (executor, mut books) = (ShardExecutor::new(workers), Books::default());
            let intra = self.intra();
            let (committees, routes) = (&self.committees, self.utxo_sets[0].routes());
            let cross = &self.cross;
            let outcome = run_phase(
                &env, committees, cross, routes, &intra, &executor, &mut books,
            );
            (outcome, books)
        }

        /// Source `k`'s forwards of what its vote accepted, under the
        /// certificate of `intra`.
        fn forward<'a>(&'a self, env: &RoundEnv<'_>, intra: &IntraOutcome) -> SourceResult<'a> {
            let k = intra.committee;
            let lists = self.outbound().remove(&k).unwrap();
            let lists = accepted_lists(&lists, intra.outbound_decision());
            let overhead = forward_overhead(intra).expect("the referee admitted the certificate");
            run_source(env, &self.committees, k, lists, overhead)
        }

        /// Ids of the valid offered transactions per `(source, dest)` pair:
        /// ground truth, read off the source shard.
        fn offered_valid(&self) -> BTreeMap<(usize, usize), BTreeSet<TxId>> {
            let mut offered = BTreeMap::new();
            for list in self.outbound().into_values().flatten() {
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
    fn fault_free_rounds_accept_the_offered_valid_set_in_at_most_m_instances() {
        for (m, c, txs) in [(2, 8, 24), (3, 12, 60), (8, 16, 160)] {
            for seed in 0..16 {
                let fx = fixture(m, c, txs, 1_000 * m as u64 + seed);
                let (outcome, books) = fx.run(&fx.no_faults, 1);
                assert_eq!(
                    accepted_ids(&outcome),
                    fx.expected(|_, _| true),
                    "{m}x{c}/{seed}"
                );
                assert!(outcome.censorship.is_empty());
                assert_eq!(
                    (outcome.timeout_delays, books.counters.list_timeouts),
                    (0, 0)
                );
                // The phase runs no instance and no vote: what it sends is
                // one forward per list to the destination's leader and to
                // each member of its partial set, and nothing else.
                let forwards: usize = fx
                    .offered_valid()
                    .keys()
                    .map(|&(_, dest)| 1 + fx.committees[dest].partial_set.len())
                    .sum();
                let sent = books.metrics.phase_total(PHASE).msgs_sent;
                assert_eq!(sent, forwards as u64, "{m}x{c}/{seed}");
            }
        }
    }

    #[test]
    fn a_pair_is_the_first_input_shard_and_the_first_other_output_shard() {
        for (m, seed) in [(2, 41), (3, 42), (8, 43)] {
            let fx = fixture(m, 8, 400, seed);
            assert!(fx.cross.len() > 100);
            for gen in &fx.cross {
                let (inputs, outputs) = (gen.tx.input_shards(m), gen.tx.output_shards(m));
                let i = inputs.first().copied().unwrap_or(0);
                let other = outputs.iter().copied().find(|&s| s != i);
                let j = other.unwrap_or_else(|| outputs.first().copied().unwrap_or(0));
                assert_eq!(pair_of(&gen.tx, m), (i, j));
            }
        }
    }

    #[test]
    fn tampered_legs_are_rejected() {
        let fx = fixture(3, 8, 60, 21);
        let env = fx.env();
        let source = 0;
        let mut intra = fx.intra();
        let results = [fx.forward(&env, &intra[source])];
        assert_eq!(
            results[0].legs.len(),
            2,
            "source 0 feeds both other committees"
        );
        assert!(results[0].missed.is_empty());
        assert_eq!(forwards_admitted(&env, &intra, &results), [[true, true]]);

        let outcome = &intra[source];
        let (tree, certificate) = (outcome.vector.as_ref(), outcome.certificate.as_ref());
        let certificate = certificate.expect("honest instance certifies");
        let attempt = |retry| Task::Intra {
            committee: source,
            retry,
        };
        let expected = attempt(false).instance(env.round);
        let admits = |index, expected, leaf: &[u8]| {
            leaf_admitted(certificate, tree, index, expected, leaf, true)
        };
        let (list, other) = (&results[0].legs[0], &results[0].legs[1]);
        let leaf = list_leaf(list);
        assert!(admits(1, expected, &leaf));
        // One id swapped for another list's transaction.
        let mut ids: Vec<TxId> = list.ids().collect();
        ids[0] = other.txs[0].tx.id();
        assert!(!admits(
            1,
            expected,
            &vector_leaf(list.dest, ids.into_iter())
        ));
        // The proof for the other destination's leaf, or the same list
        // claimed under the other destination's index.
        assert!(!admits(2, expected, &leaf));
        assert!(!admits(1, expected, &vector_leaf(other.dest, list.ids())));
        // The next round's certificate.
        assert!(!admits(1, attempt(false).instance(env.round + 1), &leaf));
        // A certificate over some other vector.
        let forged = MerkleTree::build(&[leaf, leaf]);
        assert!(!leaf_admitted(
            certificate,
            Some(&forged),
            1,
            expected,
            &leaf,
            true
        ));

        // A certificate below quorum is the referee's to refuse — with its
        // instance's memo (which knows every signature left on it) as
        // without one — and a forward under a refused certificate is refused.
        let raw = fx.attempt(source, false);
        let warm = raw.memo.clone();
        for memo in [warm, Verdicts::default()] {
            let mut thin = raw.clone();
            let quorum = fx.committees[source].majority();
            thin.certificate
                .as_mut()
                .unwrap()
                .signatures
                .truncate(quorum - 1);
            thin.memo = memo;
            fx.check(std::slice::from_mut(&mut thin));
            intra[source] = thin;
            assert_eq!(forwards_admitted(&env, &intra, &results), [[false, false]]);
        }
    }

    /// `StaleInputs`: a leader whose vector commits to an outbound
    /// transaction its committee voted No on. The instance certifies
    /// whatever root the leader proposes, so the certificate is sound; the
    /// referee recomputes every outbound leaf from the certified `V List`'s
    /// tally, refuses it, and the committee goes to recovery. Its forwards
    /// are then refused too.
    #[test]
    fn a_leader_forwarding_a_transaction_its_committee_voted_no_on_is_refused() {
        let fx = fixture(3, 8, 60, 21);
        let env = fx.env();
        let outbound = fx.outbound();
        let stale = (0..3).find(|&k| {
            let invalid = |g: &&GeneratedTx| fx.utxo_sets[k].validate(&g.tx).is_err();
            outbound[&k].iter().any(|list| list.txs.iter().any(invalid))
        });
        let k = stale.expect("some source offers an invalid outbound transaction");
        let mut intra = fx.intra();
        let honest = fx.attempt(k, false);
        assert!(honest.outbound_decision().contains(&-1));

        // The leader certifies the lists as offered, rejected inputs and all.
        let mut forged = honest.clone();
        let tree = intra_vector(&honest.vote_list.to_payload(), &outbound[&k]);
        let tree = tree.expect("source k has outbound lists");
        let task = Task::Intra {
            committee: k,
            retry: false,
        };
        let (mut net, id): (Net, _) = (env.open(task), env.instance(task));
        let root = tree.root().as_bytes().to_vec();
        let (committee, fault) = (&fx.committees[k], LeaderFault::None);
        let consensus =
            run_inside_consensus(&mut net, committee, &fx.registry, id, root, fault, true);
        (forged.certificate, forged.memo) = (consensus.certificate, consensus.memo);
        forged.vector = Some(tree);
        assert!(
            forged.certificate.is_some(),
            "the instance certifies the root"
        );

        fx.check(std::slice::from_mut(&mut forged));
        assert!(forged.certificate.is_none() && forged.decided.is_empty());
        assert!(needs_recovery(false, false, false, true));
        // Had the referee admitted it, the destination would have admitted
        // the stale lists; as refused, it admits nothing of source k.
        let lists = outbound[&k].iter().map(|l| PairList {
            txs: l.txs.clone(),
            ..*l
        });
        let full = SourceResult {
            committee: k,
            legs: lists.collect(),
            censorship: None,
            timeout_delays: 0,
            missed: Vec::new(),
            books: Books::default(),
        };
        intra[k] = forged;
        let flags = forwards_admitted(&env, &intra, std::slice::from_ref(&full));
        assert!(flags[0].iter().all(|&ok| !ok));
    }

    /// `PhantomInputs`: a cross-shard transaction spending an outpoint no
    /// shard holds. Its source votes No on it, so it is on no leaf of the
    /// source's vector, in no forward and accepted nowhere.
    #[test]
    fn a_transaction_spending_an_input_no_shard_holds_is_voted_no_and_never_forwarded() {
        let mut fx = fixture(3, 8, 60, 28);
        let valid = |g: &&GeneratedTx| fx.utxo_sets[pair_of(&g.tx, 3).0].validate(&g.tx).is_ok();
        let model = fx
            .cross
            .iter()
            .find(valid)
            .expect("a valid cross-shard transaction");
        let (source, _) = pair_of(&model.tx, 3);
        let spend = |input: &TxInput| TxInput {
            outpoint: OutPoint {
                tx_id: sha256(b"an outpoint no shard holds"),
                index: 0,
            },
            ..*input
        };
        let inputs = model.tx.inputs().iter().map(spend).collect();
        let phantom = Transaction::new(inputs, model.tx.outputs().to_vec(), 7);
        let missing = Err(ValidationError::MissingInput);
        assert_eq!(fx.utxo_sets[source].validate(&phantom), missing);
        let id = phantom.id();
        fx.cross.push(GeneratedTx {
            tx: phantom,
            kind: TxKind::InvalidMissingInput,
        });

        let intra = fx.intra();
        let outcome = &intra[source];
        let column = outcome.vote_list.tx_ids.iter().position(|&t| t == id);
        let column = column.expect("the phantom is one of the source's columns");
        assert_eq!(outcome.decision[column], -1);
        assert!(outcome.certificate.is_some(), "the rest of the vote stands");
        let forwarded = fx.forward(&fx.env(), outcome);
        assert!(forwarded.legs.iter().all(|l| l.ids().all(|t| t != id)));
        let (accepted, _) = fx.run(&fx.no_faults, 1);
        assert!(accepted.accepted.iter().flatten().all(|t| t.id() != id));
        assert_eq!(accepted_ids(&accepted), fx.expected(|_, _| true));
    }

    #[test]
    fn the_v_list_leaf_is_never_admitted_as_a_forward() {
        // Leaf 0 of a source's vector is its V List. One id and no row
        // encode to exactly an outbound leaf's 40 bytes, so only the index
        // offset keeps a forward from claiming it.
        let fx = fixture(3, 8, 60, 21);
        let env = fx.env();
        let lists = group_outbound(&fx.cross, 3).remove(&0).unwrap();
        let v_list = VoteList::new(vec![lists[0].txs[0].tx.id()]).to_payload();
        let v_list: [u8; 40] = v_list.try_into().expect("one id, no row: 40 bytes");
        let tree = intra_vector(&v_list, &lists).expect("source 0 has outbound lists");
        let task = Task::Intra {
            committee: 0,
            retry: false,
        };
        let (mut net, id): (Net, _) = (env.open(task), env.instance(task));
        let root = tree.root().as_bytes().to_vec();
        let committee = &fx.committees[0];
        let fault = LeaderFault::None;
        let consensus =
            run_inside_consensus(&mut net, committee, &fx.registry, id, root, fault, true);
        let certificate = consensus.certificate.expect("honest instance certifies");
        let admits =
            |index, leaf: &[u8]| leaf_admitted(&certificate, Some(&tree), index, id, leaf, true);
        assert!(admits(0, &v_list), "the referee's leaf");
        for (leg, list) in lists.iter().enumerate() {
            assert!(admits(1 + leg, &list_leaf(list)));
            assert!(!admits(1 + leg, &v_list), "leg {leg}");
        }
    }

    #[test]
    fn a_first_attempt_certificate_is_refused_once_a_retry_was_admitted() {
        let fx = fixture(3, 8, 60, 21);
        let env = fx.env();
        let mut intra = fx.intra();
        let first = intra[0].clone();
        let mut retry = [fx.attempt(0, true)];
        fx.check(&mut retry);
        let [retry] = retry;
        assert!(first.certificate.is_some() && retry.certificate.is_some());
        intra[0] = retry.clone();
        let results = [fx.forward(&env, &intra[0])];
        assert_eq!(forwards_admitted(&env, &intra, &results), [[true, true]]);
        // The same vector, under the first attempt's certificate.
        intra[0].certificate = first.certificate;
        assert_eq!(forwards_admitted(&env, &intra, &results), [[false, false]]);
    }

    /// What admitting a forward costs: nothing verified and nothing looked
    /// up, however often — the referee's verdict on the intra certificate
    /// stands for the signatures.
    #[cfg(feature = "opcount")]
    #[test]
    fn admitting_forwards_verifies_and_looks_up_nothing() {
        use cycledger_crypto::opcount::scope;
        let fx = fixture(3, 8, 60, 21);
        let env = fx.env();
        let intra = fx.intra();
        let sources: Vec<_> = (0..3).map(|k| fx.forward(&env, &intra[k])).collect();
        for _ in 0..2 {
            let mut flags = Vec::new();
            let tally = scope(|| flags = forwards_admitted(&env, &intra, &sources));
            assert!(flags.iter().flatten().all(|&ok| ok));
            let verified = (tally.sig_batches, tally.sigs_batched, tally.sigs_single);
            assert_eq!((verified, tally.memo_lookups), ((0, 0, 0), 0));
        }
    }

    #[test]
    fn a_failed_leader_stalls_only_its_own_vector() {
        for behavior in [Behavior::SilentLeader, Behavior::EquivocatingLeader] {
            // Committee 0's intra attempt certifies nothing (this fixture runs
            // no recovery), so as a source it loses its outbound vector and
            // nothing else: as a destination it only admits, which its
            // leader cannot spoil.
            let mut fx = fixture(3, 8, 60, 22);
            let leader = fx.committees[0].leader;
            fx.registry.set_behavior(leader, behavior);
            let (outcome, _) = fx.run(&fx.no_faults, 1);
            assert_eq!(accepted_ids(&outcome), fx.expected(|s, _| s != 0));
            assert!(fx.offered_valid().keys().any(|&(s, d)| s != 0 && d == 0));
        }
        // A destination leader that fails on the destination side alone —
        // committee 2 receives but sends nothing — no longer defers a list.
        let mut fx = fixture(3, 8, 60, 23);
        fx.cross
            .retain(|g| g.tx.input_shards(3).first() != Some(&2));
        let leader = fx.committees[2].leader;
        fx.registry.set_behavior(leader, Behavior::SilentLeader);
        let (outcome, _) = fx.run(&fx.no_faults, 1);
        assert_eq!(accepted_ids(&outcome), fx.expected(|_, _| true));
        assert!(fx.offered_valid().keys().any(|&(_, d)| d == 2));
    }

    #[test]
    fn a_censoring_leader_costs_one_report_and_one_timeout() {
        let mut fx = fixture(3, 8, 60, 24);
        let leader = fx.committees[0].leader;
        fx.registry.set_behavior(leader, Behavior::CensoringLeader);
        let (outcome, books) = fx.run(&fx.no_faults, 1);
        let [(
            k,
            Accusation::Timeout {
                leader: accused,
                committee,
                observed_by_committee: true,
            },
        )] = &outcome.censorship[..]
        else {
            panic!(
                "one observed timeout per censoring leader, got {:?}",
                outcome.censorship
            );
        };
        assert_eq!((*k, *committee, *accused), (0, 0, leader));
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
        assert!(outcome.censorship.is_empty());
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
        let intra = fx.intra();
        let sources: Vec<_> = [0, 2]
            .map(|source| fx.forward(&forward_leg, &intra[source]))
            .into();
        let lost: u64 = sources.iter().map(|s| s.books.counters.net_dropped).sum();
        assert!(lost > 0, "the leader's copies were lost");
        assert!(sources.iter().all(|s| s.missed.is_empty()));
        let relayed = |pm: &NodeId| -> u64 {
            let sent = |s: &SourceResult<'_>| s.books.metrics.node_phase(*pm, PHASE).msgs_sent;
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
        // A relayed list is admitted like any other, and carries what its
        // source accepted.
        let flags = forwards_admitted(&env, &intra, &sources);
        assert!(flags.iter().flatten().all(|&ok| ok));
        let offered = fx.offered_valid();
        let legs = sources.iter().flat_map(|s| &s.legs);
        let inbound: Vec<&PairList<'_>> = legs.filter(|list| list.dest == 1).collect();
        assert_eq!(inbound.len(), 2);
        for list in inbound {
            let ids: BTreeSet<TxId> = list.ids().collect();
            assert_eq!(ids, offered[&(list.source, 1)]);
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
                assert_eq!(accepted_ids(&outcome), fx.expected(|_, _| true));
                digest(&outcome, &books.metrics)
            })
            .collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:?}");
    }
}
