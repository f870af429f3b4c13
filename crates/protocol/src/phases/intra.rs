//! Phase 3 — intra-committee consensus (Algorithm 5).
//!
//! The leader broadcasts the shard's `TXList`; members validate as many
//! transactions as their compute capacity allows and vote Yes/No/Unknown; the
//! leader tallies the strict-majority `TXdecSET`, runs Algorithm 3 over the
//! decision (and the vote list), and forwards the certified result to the
//! referee committee.
//!
//! Every interaction is a typed [`CommitteeMessage`] envelope through the
//! network [`RoundEnv::open`] builds for the task, under the round's fault
//! plan — empty unless the scenario installed faults, in which case the
//! network, not the driver, decides what arrives:
//!
//! * the leader *sends* the `TXList` announcement; members vote only when it
//!   arrives, and their replies ride the network back;
//! * the leader collects votes under a virtual-time deadline
//!   ([`vote_deadline`], `4Δ`: one `Δ` per leg plus equal slack for jitter).
//!   When the deadline fires with votes missing — the **quorum-timeout
//!   fallback** — the missing members are recorded as all-`Unknown`
//!   (§IV-C step 4) and the tally proceeds over what arrived, so a
//!   partitioned minority degrades decisions instead of deadlocking, and
//!   fewer than a majority of votes yields an empty `TXdecSET`;
//! * Algorithm 3 itself runs on the *same* network
//!   ([`run_inside_consensus`] is generic over the envelope), so a partition
//!   can suppress the quorum certificate — which routes the committee
//!   through recovery exactly like a silent leader.
//!
//! Determinism: the committee's network takes its seed from the task table
//! (`config seed, round, committee, attempt`), and every delivery time is a
//! pure function of that seed — delivery order is seeded virtual time, never
//! thread order, so the engine's 1/2/8-worker digest contract holds.

use cycledger_consensus::collect::{member_reply, Collected, VoteCollector};
use cycledger_consensus::envelope::CommitteeMessage;
use cycledger_consensus::quorum::QuorumCertificate;
use cycledger_consensus::sigcache::Verdicts;
use cycledger_consensus::transition::quorum_timed_out;
use cycledger_consensus::votes::{Vote, VoteList};
use cycledger_consensus::witness::EquivocationEvidence;
use cycledger_ledger::transaction::{Transaction, TxId};
use cycledger_ledger::utxo::UtxoSet;
use cycledger_ledger::workload::GeneratedTx;
use cycledger_net::latency::{LatencyConfig, LinkClass};
use cycledger_net::network::{NetEvent, SimNetwork};
use cycledger_net::time::{Deadline, SimDuration};
use cycledger_net::topology::NodeId;

use crate::adversary::Behavior;
use crate::committee::{run_inside_consensus, Committee};
use crate::engine::arena::ShardScratch;
use crate::engine::env::{Books, PlaneCounters, RoundEnv, Task};
use crate::node::{NodeRegistry, SimNode};

/// Timer key: the leader's vote-collection deadline.
const VOTE_TIMER: u64 = 1;

/// The leader's vote-collection deadline: `4Δ` of virtual time. An honest
/// round trip (TXList out, votes back) takes at most `2Δ`, so honest votes
/// always make it with `2Δ` of slack for reorder jitter; a partition or a
/// targeted delay beyond the slack pushes a member onto the timeout path.
pub fn vote_deadline(latency: &LatencyConfig) -> SimDuration {
    latency.delta.times(4)
}

/// Result of one committee's intra-shard consensus.
#[derive(Clone, Debug)]
pub struct IntraOutcome {
    /// Committee / shard index.
    pub committee: usize,
    /// Transactions the committee accepted (its `TXdecSET`).
    pub decided: Vec<Transaction>,
    /// Every member's votes (the `V List` used for reputation scoring).
    pub vote_list: VoteList,
    /// The consensus decision vector (+1 accepted / −1 rejected).
    pub decision: Vec<i8>,
    /// Certificate over the decision, if Algorithm 3 completed.
    pub certificate: Option<QuorumCertificate>,
    /// The verdict memo of the instance that formed `certificate`, for the
    /// referee's check of it (which takes it: empty afterwards).
    pub memo: Verdicts,
    /// Equivocation evidence produced by honest members.
    pub equivocation: Vec<EquivocationEvidence>,
    /// True when the leader never proposed anything (fail-silent leader).
    pub leader_silent: bool,
    /// The task's books. The engine folds them into the round's by
    /// reference, so the committee's own counters stay readable here.
    pub books: Books,
}

/// Evaluates `V` for every offered transaction into `validity` (cleared
/// first). Runs once per committee per round; every member's vote derives
/// from this shared table.
pub fn precompute_validity(utxo: &UtxoSet, txs: &[GeneratedTx], validity: &mut Vec<bool>) {
    validity.clear();
    validity.reserve(txs.len());
    validity.extend(txs.iter().map(|g| utxo.validate(&g.tx).is_ok()));
}

/// Casts one member's votes given the precomputed ground-truth validity of
/// each offered transaction. Behaviour (lazy/wrong voters) and the member's
/// compute budget are applied on top of the shared table.
pub fn votes_from_validity(
    registry: &NodeRegistry,
    member: NodeId,
    validity: &[bool],
) -> Vec<Vote> {
    member_votes(registry.node(member), validity).collect()
}

/// [`votes_from_validity`]'s votes of `node`, one by one.
pub(crate) fn member_votes<'a>(
    node: &'a SimNode,
    validity: &'a [bool],
) -> impl Iterator<Item = Vote> + 'a {
    let capacity = node.compute_capacity as usize;
    validity.iter().enumerate().map(move |(i, &valid)| {
        if node.behavior == Behavior::LazyVoter {
            return Vote::Unknown;
        }
        if i >= capacity {
            // Out of compute budget: an honest node admits it cannot judge.
            return Vote::Unknown;
        }
        let honest_vote = if valid { Vote::Yes } else { Vote::No };
        if node.behavior == Behavior::WrongVoter {
            match honest_vote {
                Vote::Yes => Vote::No,
                Vote::No => Vote::Yes,
                Vote::Unknown => Vote::Unknown,
            }
        } else {
            honest_vote
        }
    })
}

/// Announces a `TXList` to `committee` and collects vote replies under the
/// `4Δ` deadline — the transport of this phase's and of the inter-committee
/// phase's destination side's vote, over the transactions `list` names. It
/// pumps the network and feeds a [`VoteCollector`], which decides what
/// counts (inclusive deadline, seated voters), backfills the rows still
/// missing when the timer fires (§IV-C step 4 — the quorum-timeout fallback)
/// and tallies; members answer through [`member_reply`] when the
/// announcement reaches them. Returns the collection and what it counted
/// missing. Any unexpired deadline timer or late vote reply left in flight is
/// consumed and ignored by the caller's subsequent Algorithm 3 run and the
/// closing drain.
pub(crate) fn collect_votes_under_deadline(
    net: &mut SimNetwork<CommitteeMessage>,
    env: &RoundEnv<'_>,
    committee: &Committee,
    votes_of: &dyn Fn(NodeId) -> Vec<Vote>,
    announce_bytes: u64,
    record_storage: bool,
    list: VoteList,
) -> (Collected, PlaneCounters) {
    let may_vote = |member: NodeId| env.registry.node(member).membership.may_vote();
    let leader = committee.leader;
    let count = list.tx_ids.len();
    let mut counters = PlaneCounters::default();
    let announce = CommitteeMessage::TxList {
        committee: committee.index as u32,
        count: count as u32,
    };
    for &member in &committee.members {
        if member != leader {
            net.send(
                leader,
                member,
                LinkClass::IntraCommittee,
                announce.clone(),
                announce_bytes,
            );
        }
    }
    if record_storage {
        net.record_storage(leader, count as u64);
    }
    let timer = net.schedule_timer(vote_deadline(&env.config.latency), VOTE_TIMER);
    let seats = &committee.members;
    let mut collector: VoteCollector<'_> =
        VoteCollector::open(seats, leader, votes_of(leader), list, Deadline::at(timer));

    while let Some(event) = net.next_event() {
        match event {
            NetEvent::Message(msg) => match msg.payload {
                CommitteeMessage::TxList { .. } if committee.contains(msg.to) => {
                    let Some(vector) = member_reply(msg.to, may_vote(msg.to), || votes_of(msg.to))
                    else {
                        counters.syncing_abstentions += 1;
                        continue;
                    };
                    if record_storage {
                        // Common members only keep their own opinion.
                        net.record_storage(msg.to, count as u64);
                    }
                    let bytes = vector.wire_size() + 96;
                    net.send(
                        msg.to,
                        leader,
                        LinkClass::IntraCommittee,
                        CommitteeMessage::Votes(vector),
                        bytes,
                    );
                }
                CommitteeMessage::Votes(vector) if msg.to == leader => {
                    let voter = vector.voter;
                    if collector.on_vote(vector, msg.delivered_at) && !may_vote(voter) {
                        counters.syncing_votes += 1;
                    }
                }
                _ => {}
            },
            NetEvent::Timer {
                key: VOTE_TIMER, ..
            } => break,
            NetEvent::Timer { .. } => {}
        }
        if collector.complete() {
            // Every vote arrived early; no need to sit out the deadline.
            break;
        }
    }

    let collected = collector.close();
    counters.votes_missing = collected.missing;
    counters.quorum_timeouts = usize::from(quorum_timed_out(collected.missing));
    (collected, counters)
}

/// The bytes Algorithm 3 certifies for a `TXdecSET`: the count, then the ids.
pub fn decision_payload(decided: impl ExactSizeIterator<Item = TxId>) -> Vec<u8> {
    let mut payload = Vec::with_capacity(decided.len() * 32 + 8);
    payload.extend_from_slice(&(decided.len() as u64).to_be_bytes());
    for id in decided {
        payload.extend_from_slice(id.as_bytes());
    }
    payload
}

/// Runs intra-committee consensus for one committee over its shard's
/// transactions — `retry` for the second attempt of the round, under a leader
/// a recovery installed — every message (`TXList` announcement, vote replies,
/// the Algorithm 3 exchange, the certificate forward) travelling through the
/// task's network under the round's plan. Pure — own network, own books — so
/// committees run on worker threads.
pub fn run_intra_consensus(
    env: &RoundEnv<'_>,
    committee: &Committee,
    retry: bool,
    utxo: &UtxoSet,
    offered: &[GeneratedTx],
    scratch: &mut ShardScratch,
) -> IntraOutcome {
    let task = Task::Intra {
        committee: committee.index,
        retry,
    };
    let mut net: SimNetwork<CommitteeMessage> = env.open(task);

    let registry = env.registry;
    let leader = committee.leader;
    let leader_behavior = registry.node(leader).behavior;
    let vote_list = VoteList::new(offered.iter().map(|g| g.tx.id()).collect());

    if leader_behavior == Behavior::SilentLeader {
        // No TXList is ever broadcast; members have nothing to vote on.
        return IntraOutcome {
            committee: committee.index,
            decided: Vec::new(),
            vote_list,
            decision: vec![-1; offered.len()],
            certificate: None,
            memo: Verdicts::default(),
            equivocation: Vec::new(),
            leader_silent: true,
            books: Books::close(net),
        };
    }

    // 1-2. The leader announces the TXList as real envelopes and collects
    //      vote replies under the 4Δ deadline. Ground truth is computed once
    //      per committee; each member derives its votes from the shared
    //      table *when the announcement reaches it*.
    precompute_validity(utxo, offered, &mut scratch.validity);
    let txlist_bytes: u64 = offered.iter().map(|g| g.tx.wire_size()).sum::<u64>() + 96;
    let (collected, votes) = collect_votes_under_deadline(
        &mut net,
        env,
        committee,
        &|member| votes_from_validity(registry, member, &scratch.validity),
        txlist_bytes,
        true,
        vote_list,
    );
    let Collected {
        list: vote_list,
        tally,
        ..
    } = collected;

    // 3. The leader runs Algorithm 3 over the tallied decision, on the same
    //    network.
    let decided: Vec<Transaction> = tally
        .accepted_indices
        .iter()
        .map(|&i| offered[i].tx.clone())
        .collect();
    let payload = decision_payload(decided.iter().map(|tx| tx.id()));
    let fault = leader_behavior.leader_fault(&payload);
    let id = env.instance(task);
    let consensus = run_inside_consensus(&mut net, committee, registry, id, payload, fault, true);

    // 4. The certified TXdecSET travels to the referee committee as
    //    envelopes over the key-member mesh. (The pipeline's referee-side
    //    certificate check reads the outcome, certificate and memo, directly
    //    — losing a forward here costs metrics, not ground truth.)
    if consensus.certificate.is_some() {
        let cert_bytes = consensus
            .certificate
            .as_ref()
            .map(|c| c.wire_size())
            .unwrap_or(0);
        let decided_bytes: u64 = decided.iter().map(|t| t.wire_size()).sum();
        let forward = CommitteeMessage::CertForward {
            committee: committee.index as u32,
            decided: decided.len() as u32,
        };
        for &rm in &env.referee.members {
            net.send(
                leader,
                rm,
                LinkClass::KeyMemberMesh,
                forward.clone(),
                decided_bytes + cert_bytes,
            );
        }
        net.record_storage(leader, cert_bytes + decided_bytes);
        for &pm in &committee.partial_set {
            net.record_storage(pm, cert_bytes);
        }
    }

    let mut books = Books::close(net);
    books.counters += votes;
    IntraOutcome {
        committee: committee.index,
        decided,
        vote_list,
        decision: tally.decision,
        certificate: consensus.certificate,
        memo: consensus.memo,
        equivocation: consensus.equivocation,
        leader_silent: false,
        books,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryConfig;
    use crate::config::ProtocolConfig;
    use crate::sortition::{assign_round, AssignmentParams};
    use cycledger_consensus::transition::expected_votes_missing;
    use cycledger_consensus::votes::VoteVector;
    use cycledger_crypto::sha256::sha256;
    use cycledger_ledger::workload::{Workload, WorkloadConfig};
    use cycledger_net::faults::FaultPlan;
    use cycledger_net::metrics::Phase;
    use cycledger_reputation::ReputationTable;

    struct Fixture {
        registry: NodeRegistry,
        committees: Vec<Committee>,
        referee: Committee,
        utxo_sets: Vec<UtxoSet>,
        offered: Vec<Vec<GeneratedTx>>,
    }

    fn fixture(seed: u64, invalid_ratio: f64) -> Fixture {
        let registry = NodeRegistry::generate(70, &AdversaryConfig::default(), 200, 0, seed);
        let reputation = ReputationTable::with_members(registry.ids());
        let assignment = assign_round(
            &registry,
            &registry.ids(),
            AssignmentParams {
                committees: 3,
                partial_set_size: 3,
                referee_size: 7,
            },
            1,
            sha256(b"intra-phase"),
            &reputation,
        );
        let committees: Vec<Committee> = assignment
            .committees
            .iter()
            .map(|c| Committee::from_assignment(c, &registry))
            .collect();
        let mut workload = Workload::new(WorkloadConfig {
            num_shards: 3,
            accounts_per_shard: 16,
            genesis_amount: 1_000,
            cross_shard_ratio: 0.0,
            invalid_ratio,
            seed,
        });
        let utxo_sets = workload.build_genesis_utxo_sets();
        let batch = workload.generate_batch(90);
        let mut offered: Vec<Vec<GeneratedTx>> = vec![Vec::new(); 3];
        for gen in batch {
            let shard = gen.tx.touched_shards(3)[0];
            offered[shard].push(gen);
        }
        Fixture {
            referee: Committee::referee(&assignment.referee, &registry),
            registry,
            committees,
            utxo_sets,
            offered,
        }
    }

    impl Fixture {
        /// Committee `k` under the default latency profile and no faults.
        fn run(&self, k: usize, seed: u64) -> IntraOutcome {
            self.run_under(k, LatencyConfig::default(), seed, &FaultPlan::default())
        }

        fn run_under(
            &self,
            k: usize,
            latency: LatencyConfig,
            seed: u64,
            plan: &FaultPlan,
        ) -> IntraOutcome {
            let config = ProtocolConfig {
                latency,
                seed,
                ..ProtocolConfig::default()
            };
            let env = RoundEnv {
                config: &config,
                registry: &self.registry,
                referee: &self.referee,
                plan,
                round: 1,
            };
            run_intra_consensus(
                &env,
                &self.committees[k],
                false,
                &self.utxo_sets[k],
                &self.offered[k],
                &mut ShardScratch::default(),
            )
        }

        /// Committee `k`'s members that are neither leader nor partial set.
        fn commons(&self, k: usize) -> Vec<NodeId> {
            let c = &self.committees[k];
            let key = |m: &NodeId| *m == c.leader || c.partial_set.contains(m);
            c.members.iter().copied().filter(|m| !key(m)).collect()
        }

        /// Ground truth: ids of the valid transactions offered to `k`, in
        /// offer order.
        fn valid_ids(&self, k: usize) -> Vec<TxId> {
            let valid = self.offered[k].iter().filter(|g| g.kind.is_valid());
            valid.map(|g| g.tx.id()).collect()
        }
    }

    fn decided_ids(outcome: &IntraOutcome) -> Vec<TxId> {
        outcome.decided.iter().map(|tx| tx.id()).collect()
    }

    /// A microsecond-granular latency profile where every intra-committee leg
    /// samples to exactly 1µs (the only value in `(0, Δ]`), making arrival
    /// instants exact.
    fn unit_latency() -> LatencyConfig {
        LatencyConfig {
            delta: SimDuration::from_micros(1),
            gamma: SimDuration::from_micros(2),
            partial_bound: SimDuration::from_micros(3),
        }
    }

    #[test]
    fn honest_committee_accepts_valid_and_rejects_invalid() {
        let fx = fixture(51, 0.3);
        let outcome = fx.run(0, 1);
        let (metrics, counters) = (&outcome.books.metrics, outcome.books.counters);
        assert!(!outcome.leader_silent);
        assert!(outcome.certificate.is_some());
        assert_eq!(counters, PlaneCounters::default());
        // Ground truth: exactly the valid transactions are decided.
        assert_eq!(decided_ids(&outcome), fx.valid_ids(0));
        assert_eq!(outcome.decision.len(), fx.offered[0].len());
        assert!(
            fx.offered[0].iter().any(|g| !g.kind.is_valid()),
            "fixture has invalid txs"
        );
        // Leader exchanged more bytes than a common member.
        let phase = Phase::IntraCommitteeConsensus;
        let leader = metrics.node_phase(fx.committees[0].leader, phase);
        let common = metrics.node_phase(fx.commons(0)[0], phase);
        assert!(leader.comm_bytes() > common.comm_bytes());
    }

    #[test]
    fn silent_leader_yields_empty_decision() {
        let mut fx = fixture(52, 0.0);
        let leader = fx.committees[1].leader;
        fx.registry.set_behavior(leader, Behavior::SilentLeader);
        let outcome = fx.run(1, 2);
        assert!(outcome.leader_silent);
        assert!(outcome.decided.is_empty());
        assert!(outcome.certificate.is_none());
    }

    #[test]
    fn equivocating_leader_is_reported() {
        let mut fx = fixture(53, 0.0);
        let leader = fx.committees[2].leader;
        fx.registry
            .set_behavior(leader, Behavior::EquivocatingLeader);
        let outcome = fx.run(2, 3);
        assert!(!outcome.equivocation.is_empty());
        for ev in &outcome.equivocation {
            assert!(ev.verify(&fx.registry.node(leader).keypair.public));
        }
    }

    #[test]
    fn wrong_voters_in_minority_do_not_flip_decisions() {
        let mut fx = fixture(54, 0.2);
        // Corrupt a third of committee 0's common members as wrong voters.
        let commons = fx.commons(0);
        for &m in commons.iter().take(commons.len() / 3) {
            fx.registry.set_behavior(m, Behavior::WrongVoter);
        }
        let outcome = fx.run(0, 4);
        assert_eq!(
            decided_ids(&outcome),
            fx.valid_ids(0),
            "honest majority prevails"
        );
    }

    #[test]
    fn limited_compute_produces_unknown_votes() {
        let fx = fixture(55, 0.0);
        let member = fx.committees[0].members[3];
        let mut registry = fx.registry.clone();
        let mut validity = Vec::new();
        precompute_validity(&fx.utxo_sets[0], &fx.offered[0], &mut validity);
        let votes = votes_from_validity(&registry, member, &validity);
        assert_eq!(votes.len(), fx.offered[0].len());
        // All-honest, ample capacity: no Unknown votes.
        assert!(votes.iter().all(|v| *v != Vote::Unknown));
        // A member votes Unknown beyond its compute budget.
        let validity = vec![true; registry.node(member).compute_capacity as usize + 2];
        let votes = votes_from_validity(&registry, member, &validity);
        let (judged, beyond) = votes.split_at(validity.len() - 2);
        assert!(judged.iter().all(|v| *v == Vote::Yes));
        assert_eq!(beyond, [Vote::Unknown, Vote::Unknown]);
        // Lazy voters produce only Unknown.
        registry.set_behavior(member, Behavior::LazyVoter);
        let votes = votes_from_validity(&registry, member, &validity);
        assert!(votes.iter().all(|v| *v == Vote::Unknown));
    }

    #[test]
    fn vote_arriving_exactly_at_the_deadline_counts_toward_quorum() {
        // With 1µs legs the delayed member's announcement lands at 2µs and
        // its reply at 2 + 2·1µs = 4µs — exactly the 4Δ deadline instant.
        // Inclusive deadline + the message-before-timer tie-break: the vote
        // still counts, so nothing is missing and no timeout is recorded.
        let fx = fixture(61, 0.0);
        let slow = fx.commons(0)[0];
        let plan = FaultPlan::default().with_delay(slow, SimDuration::from_micros(1));
        let outcome = fx.run_under(0, unit_latency(), 1, &plan);
        assert_eq!(
            outcome.books.counters.votes_missing, 0,
            "on-deadline vote was dropped"
        );
        assert_eq!(outcome.books.counters.quorum_timeouts, 0);
        assert!(outcome.certificate.is_some());
        let row = outcome.vote_list.votes.iter().find(|v| v.voter == slow);
        let row = row.expect("slow member has a row");
        assert!(
            row.votes.iter().all(|&v| v != Vote::Unknown),
            "the on-deadline vote must be the member's real opinion, not backfill"
        );
    }

    #[test]
    fn vote_arriving_one_microsecond_late_is_backfilled_unknown() {
        // One extra microsecond per leg: the reply lands at 6µs, strictly
        // after the 4µs deadline. The quorum-timeout fallback records the
        // member as missing and backfills an all-`Unknown` row — never a
        // manufactured `Yes`.
        let fx = fixture(61, 0.0);
        let (slow, size) = (fx.commons(0)[0], fx.committees[0].size());
        let plan = FaultPlan::default().with_delay(slow, SimDuration::from_micros(2));
        let outcome = fx.run_under(0, unit_latency(), 1, &plan);
        assert_eq!(outcome.books.counters.votes_missing, 1);
        assert_eq!(outcome.books.counters.quorum_timeouts, 1);
        // Vote accounting reconciles through the shared transition core:
        // missing == expected − received.
        assert_eq!(
            outcome.books.counters.votes_missing,
            expected_votes_missing(size, size - 1)
        );
        let row = outcome.vote_list.votes.iter().find(|v| v.voter == slow);
        let row = row.expect("missed member still has a backfilled row");
        assert!(
            row.votes.iter().all(|&v| v == Vote::Unknown),
            "late voter must be backfilled all-Unknown"
        );
        // The full committee is represented after backfill.
        assert_eq!(outcome.vote_list.voter_count(), size);
    }

    #[test]
    fn fully_missing_committee_reconciles_to_size_minus_one() {
        // Sever every non-leader member: only the leader's own locally
        // recorded vote exists, so missing == C − 1 — the fully-missing end
        // of the vote-accounting identity (the partially-missing end is the
        // one-late-voter test above). A single Yes of C can never reach the
        // strict majority, so every decision collapses to −1 and Algorithm 3
        // has no quorum to certify.
        let fx = fixture(61, 0.0);
        let (committee, size) = (&fx.committees[0], fx.committees[0].size());
        let members = committee.members.iter().copied();
        let severed: Vec<NodeId> = members.filter(|&m| m != committee.leader).collect();
        let plan = FaultPlan::partition(severed);
        let outcome = fx.run_under(0, unit_latency(), 1, &plan);
        assert_eq!(
            outcome.books.counters.votes_missing,
            expected_votes_missing(size, 1)
        );
        assert_eq!(outcome.books.counters.votes_missing, size - 1);
        assert_eq!(outcome.books.counters.quorum_timeouts, 1);
        assert!(outcome.decision.iter().all(|&d| d == -1));
        assert!(outcome.certificate.is_none());
        // Backfill still yields a full V List — one real row, C−1 Unknowns.
        assert_eq!(outcome.vote_list.voter_count(), size);
        let all_unknown = |v: &&VoteVector| v.votes.iter().all(|&b| b == Vote::Unknown);
        let unknown_rows = outcome.vote_list.votes.iter().filter(all_unknown).count();
        assert_eq!(unknown_rows, size - 1);
    }
}
