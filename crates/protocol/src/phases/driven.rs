//! Message-driven phase drivers: consensus over the discrete-event network.
//!
//! The synchronous drivers in [`crate::phases::intra`] and
//! [`crate::phases::inter`] compute ground-truth votes directly and only
//! *account* the traffic, so network asynchrony cannot perturb consensus.
//! The drivers here route every committee interaction as typed
//! [`CommitteeMessage`] envelopes through a
//! [`SimNetwork`] built with the round's [`FaultPlan`]:
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
//! * Algorithm 3 itself runs on the *same* faulted network
//!   ([`run_inside_consensus`] is generic over the envelope), so a partition
//!   can suppress the quorum certificate — which routes the committee
//!   through recovery exactly like a silent leader;
//! * cross-shard list forwards and replies travel the key-member mesh with a
//!   [`list_deadline`] (`4Γ`, sized so the Lemma 6 censorship takeover at
//!   `2Γ` still makes it); a destination's partial set relays a list its
//!   leader is still missing at `2Γ`, and a forward that misses the deadline
//!   anyway defers that pair's transactions to a later round;
//! * recovery accusations and impeachment votes are envelopes too
//!   ([`run_recovery_driven`]): members severed from the prosecutor cannot
//!   approve, so an impeachment under partition can fail for lack of a
//!   majority.
//!
//! Determinism: each committee/recovery network derives its seed from
//! `(config seed, round, instance)`, and every delivery time is a pure
//! function of that seed — so the engine's 1/2/8-worker digest contract
//! holds in message-driven mode too (delivery order is seeded virtual time,
//! never thread order).

use cycledger_consensus::envelope::CommitteeMessage;
use cycledger_consensus::messages::ConsensusId;
use cycledger_consensus::votes::{Vote, VoteList, VoteVector};
use cycledger_ledger::transaction::Transaction;
use cycledger_ledger::utxo::UtxoSet;
use cycledger_ledger::workload::GeneratedTx;
use cycledger_net::faults::FaultPlan;
use cycledger_net::latency::{LatencyConfig, LinkClass};
use cycledger_net::metrics::{MetricsSink, Phase};
use cycledger_net::network::{NetEvent, SimNetwork};
use cycledger_net::time::{Deadline, SimDuration};
use cycledger_net::topology::NodeId;
use cycledger_reputation::ReputationTable;

use crate::adversary::Behavior;
use crate::committee::{run_inside_consensus, Committee, LeaderFault};
use crate::engine::arena::ShardScratch;
use crate::engine::ShardExecutor;
use crate::node::NodeRegistry;
use crate::phases::inter::InterOutcome;
use crate::phases::intra::{precompute_validity, votes_from_validity, IntraOutcome};
use crate::phases::recovery::{Accusation, RecoveryOutcome};
use crate::phases::xshard::{self, close_books, Accepted, InterEnv, PairList, Side, SideResult};

/// Timer key: the leader's vote-collection deadline.
const VOTE_TIMER: u64 = 1;
/// Timer key: the prosecutor's impeachment-vote deadline.
const IMPEACH_TIMER: u64 = 3;

/// The leader's vote-collection deadline: `4Δ` of virtual time. An honest
/// round trip (TXList out, votes back) takes at most `2Δ`, so honest votes
/// always make it with `2Δ` of slack for reorder jitter; a partition or a
/// targeted delay beyond the slack pushes a member onto the timeout path.
pub fn vote_deadline(latency: &LatencyConfig) -> SimDuration {
    latency.delta.times(4)
}

/// The destination leader's deadline for a forwarded cross-shard list:
/// `4Γ`. Honest forwards arrive within `Γ`; the Lemma 6 takeover (an honest
/// partial-set member forwarding after the `2Γ` censorship timeout) within
/// `3Γ`; a relay by the destination's own partial set at `2Γ` within
/// `2Γ + Δ` — so only genuine network faults miss this deadline.
pub fn list_deadline(latency: &LatencyConfig) -> SimDuration {
    latency.gamma.times(4)
}

/// What one vote-collection loop observed.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct VoteCollection {
    /// Votes missing when the deadline fired (backfilled as all-`Unknown`;
    /// includes syncing abstentions).
    pub missing: usize,
    /// `Syncing` members that received the announcement and deliberately
    /// abstained (their rows count `Unknown`, never breaking quorum math).
    pub syncing_abstentions: usize,
    /// Votes actually received from `Syncing` members — must stay zero (the
    /// churn fuzz pins this as the `NoSyncingVotes` invariant).
    pub syncing_votes: usize,
}

/// Announces a `TXList` to `committee` and collects vote replies under the
/// `4Δ` [`Deadline`] — the shared vote-collection loop of the intra driver
/// and the inter driver's destination side, over the transactions
/// `vote_list` was created for. The leader's own votes (`votes_of`) are
/// recorded locally; members vote when the announcement reaches them —
/// except `Syncing` joiners, which abstain; members whose replies miss the
/// deadline are backfilled as all-`Unknown` rows (§IV-C step 4 — the
/// quorum-timeout fallback). Deadline semantics are inclusive (see
/// [`Deadline::includes`]): a vote delivered exactly at the deadline instant
/// still counts. Any unexpired deadline timer or late vote reply left in
/// flight is consumed and ignored by the caller's subsequent Algorithm 3 run
/// and tail drain.
#[allow(clippy::too_many_arguments)]
fn collect_votes_under_deadline(
    net: &mut SimNetwork<CommitteeMessage>,
    registry: &NodeRegistry,
    committee: &Committee,
    votes_of: &dyn Fn(NodeId) -> Vec<Vote>,
    announce_bytes: u64,
    latency: &LatencyConfig,
    record_storage: bool,
    vote_list: &mut VoteList,
) -> VoteCollection {
    let leader = committee.leader;
    let count = vote_list.tx_ids.len();
    let mut collection = VoteCollection::default();
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
    vote_list.record(VoteVector::new(leader, votes_of(leader)));
    if record_storage {
        net.record_storage(leader, count as u64);
    }

    let deadline = Deadline::at(net.schedule_timer(vote_deadline(latency), VOTE_TIMER));
    while let Some(event) = net.next_event() {
        match event {
            NetEvent::Message(env) => match env.payload {
                CommitteeMessage::TxList { .. } if committee.contains(env.to) => {
                    if !registry.node(env.to).membership.may_vote() {
                        // A syncing joiner abstains: its backfilled
                        // all-Unknown row counts against no transaction.
                        collection.syncing_abstentions += 1;
                        continue;
                    }
                    let vector = VoteVector::new(env.to, votes_of(env.to));
                    if record_storage {
                        // Common members only keep their own opinion.
                        net.record_storage(env.to, count as u64);
                    }
                    let bytes = vector.wire_size() + 96;
                    net.send(
                        env.to,
                        leader,
                        LinkClass::IntraCommittee,
                        CommitteeMessage::Votes(vector),
                        bytes,
                    );
                }
                CommitteeMessage::Votes(vector)
                    if env.to == leader && deadline.includes(env.delivered_at) =>
                {
                    if !registry.node(vector.voter).membership.may_vote() {
                        collection.syncing_votes += 1;
                    }
                    vote_list.record(vector);
                }
                _ => {}
            },
            NetEvent::Timer {
                key: VOTE_TIMER, ..
            } => break,
            NetEvent::Timer { .. } => {}
        }
        if vote_list.voter_count() == committee.size() {
            // Every vote arrived early; no need to sit out the deadline.
            break;
        }
    }

    collection.missing = cycledger_consensus::transition::expected_votes_missing(
        committee.size(),
        vote_list.voter_count(),
    );
    for &member in &committee.members {
        if !vote_list.votes.iter().any(|v| v.voter == member) {
            vote_list.record(VoteVector::all_unknown(member, count));
        }
    }
    collection
}

/// Runs one committee's intra-shard consensus with every message — `TXList`
/// announcement, vote replies, the Algorithm 3 exchange, the certificate
/// forward — travelling through a faulted discrete-event network.
///
/// Mirrors [`crate::phases::intra::run_intra_consensus`]'s contract (same
/// inputs plus the fault plan, same outcome/metrics split) so the pipeline
/// can switch drivers per [`crate::config::ProtocolConfig::message_driven`].
#[allow(clippy::too_many_arguments)]
pub fn run_intra_consensus_driven(
    registry: &NodeRegistry,
    committee: &Committee,
    utxo: &UtxoSet,
    offered: &[GeneratedTx],
    referee_members: &[NodeId],
    round: u64,
    latency: LatencyConfig,
    verify_signatures: bool,
    seed: u64,
    scratch: &mut ShardScratch,
    plan: &FaultPlan,
) -> (IntraOutcome, MetricsSink) {
    let phase = Phase::IntraCommitteeConsensus;
    let mut net: SimNetwork<CommitteeMessage> =
        SimNetwork::with_faults(latency, seed, plan.clone());
    net.set_phase(phase);

    let leader = committee.leader;
    let leader_behavior = registry.node(leader).behavior;
    let tx_ids: Vec<_> = offered.iter().map(|g| g.tx.id()).collect();
    let mut vote_list = VoteList::new(tx_ids);

    if leader_behavior == Behavior::SilentLeader {
        // No TXList is ever broadcast; members have nothing to vote on.
        let metrics = net.into_metrics();
        return (
            IntraOutcome {
                committee: committee.index,
                decided: Vec::new(),
                decided_indices: Vec::new(),
                vote_list,
                decision: vec![-1; offered.len()],
                certificate: None,
                equivocation: Vec::new(),
                leader_silent: true,
                quorum_timeout: false,
                votes_missing: 0,
                net_dropped: 0,
                syncing_abstentions: 0,
                syncing_votes: 0,
            },
            metrics,
        );
    }

    // 1-2. The leader announces the TXList as real envelopes and collects
    //      vote replies under the 4Δ deadline. Ground truth is computed once
    //      per committee; each member derives its votes from the shared
    //      table *when the announcement reaches it*.
    precompute_validity(utxo, offered, &mut scratch.validity);
    let txlist_bytes: u64 = offered.iter().map(|g| g.tx.wire_size()).sum::<u64>() + 96;
    let collection = collect_votes_under_deadline(
        &mut net,
        registry,
        committee,
        &|member| votes_from_validity(registry, member, &scratch.validity),
        txlist_bytes,
        &latency,
        true,
        &mut vote_list,
    );
    let votes_missing = collection.missing;
    let quorum_timeout = cycledger_consensus::transition::quorum_timed_out(votes_missing);

    // 3. The leader tallies and runs Algorithm 3 over the decision, on the
    //    same faulted network.
    let tally = vote_list.tally(committee.size());
    let decided_indices = tally.accepted_indices.clone();
    let decided: Vec<Transaction> = decided_indices
        .iter()
        .map(|&i| offered[i].tx.clone())
        .collect();
    let mut payload = Vec::with_capacity(decided.len() * 32 + 8);
    payload.extend_from_slice(&(decided.len() as u64).to_be_bytes());
    for tx in &decided {
        payload.extend_from_slice(tx.id().as_bytes());
    }
    let fault = LeaderFault::from_behavior(leader_behavior, &payload);
    let consensus = run_inside_consensus(
        &mut net,
        committee,
        registry,
        ConsensusId {
            round,
            seq: 1_000 + committee.index as u64,
        },
        payload,
        fault,
        verify_signatures,
    );

    // 4. The certified TXdecSET travels to the referee committee as
    //    envelopes over the key-member mesh. (The pipeline's referee-side
    //    certificate check reads the outcome directly — losing a forward
    //    here costs metrics, not ground truth.)
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
        for &rm in referee_members {
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

    // Drain stragglers (late votes, in-flight forwards, unexpired timers) so
    // the network quiesces before the books close.
    while net.next_event().is_some() {}
    let net_dropped = net.dropped_messages();
    let metrics = net.into_metrics();
    (
        IntraOutcome {
            committee: committee.index,
            decided,
            decided_indices,
            vote_list,
            decision: tally.decision,
            certificate: consensus.certificate,
            equivocation: consensus.equivocation,
            leader_silent: false,
            quorum_timeout,
            votes_missing,
            net_dropped,
            syncing_abstentions: collection.syncing_abstentions,
            syncing_votes: collection.syncing_votes,
        },
        metrics,
    )
}

/// Runs inter-committee consensus with every leg on a network faulted by
/// `env.plan`, so a partition or delay perturbs the outcome: one network per
/// source committee (its Algorithm 3 instance, then the forwards and any
/// relays), one per destination committee (the one vote, its instance, the
/// replies). Same contract as the synchronous `run_inter_consensus`.
pub(crate) fn run_inter_consensus_driven(
    env: &InterEnv<'_>,
    cross_shard: &[GeneratedTx],
    executor: &ShardExecutor,
    metrics: &mut MetricsSink,
) -> InterOutcome {
    let dest = |j, inbound: &[&PairList<'_>]| run_dest_driven(env, j, inbound);
    xshard::run_phase(env, cross_shard, executor, metrics, dest)
}

/// Destination committee `j`: the leader announces every admitted list at
/// once and members vote once under the single `4Δ` deadline (missing votes
/// become all-`Unknown` rows — the same collection loop as the intra driver,
/// minus its storage accounting); tally, agreement and replies are the
/// shared core's.
pub(crate) fn run_dest_driven(
    env: &InterEnv<'_>,
    j: usize,
    inbound: &[&PairList<'_>],
) -> SideResult<Accepted> {
    let mut net = Side::Destination.net(env, j);
    let validity = xshard::inbound_validity(env, inbound);
    let votes_of = |member| xshard::inbound_votes(env, member, &validity);
    let mut vote_list = VoteList::new(inbound.iter().flat_map(|list| list.ids()).collect());
    let announce_bytes = inbound.iter().map(|list| list.wire_bytes()).sum::<u64>() + 96;
    let votes = collect_votes_under_deadline(
        &mut net,
        env.registry,
        &env.committees[j],
        &votes_of,
        announce_bytes,
        &env.latency,
        false,
        &mut vote_list,
    );
    let mut result = xshard::certify_and_reply(&mut net, env, j, inbound, &vote_list);
    result.ledger.votes = votes;
    close_books(net, result)
}

/// Runs the recovery procedure with the accusation broadcast, impeachment
/// votes and referee notifications travelling as envelopes under a `4Δ`
/// approval deadline. Members the fault plan severs from the prosecutor
/// cannot approve, so an impeachment under partition can fail for lack of a
/// majority — the sole behavioural difference from
/// [`crate::phases::recovery::run_recovery`], whose evidence rules are
/// reused verbatim.
#[allow(clippy::too_many_arguments)]
pub fn run_recovery_driven(
    registry: &NodeRegistry,
    committee: &mut Committee,
    referee: &Committee,
    accusation: Accusation,
    prosecutor: NodeId,
    reputation: &mut ReputationTable,
    round: u64,
    verify_signatures: bool,
    latency: LatencyConfig,
    plan: &FaultPlan,
    seed: u64,
    metrics: &mut MetricsSink,
) -> (RecoveryOutcome, u64) {
    let phase = Phase::Recovery;
    let accused = accusation.accused();
    let mut net: SimNetwork<CommitteeMessage> =
        SimNetwork::with_faults(latency, seed, plan.clone());
    net.set_phase(phase);

    // Evidence validity: same rules as the synchronous recovery (see
    // `run_recovery` for the fast-path contract on placeholder signatures).
    let evidence_valid = match &accusation {
        Accusation::Signed(w) => cycledger_consensus::transition::signed_accusation_admissible(
            accused == committee.leader,
            !verify_signatures || w.verify(&registry.node(accused).keypair.public),
        ),
        Accusation::Timeout {
            observed_by_committee,
            ..
        } => cycledger_consensus::transition::timeout_accusation_admissible(
            accused == committee.leader,
            *observed_by_committee,
        ),
    };
    let witness_bytes = match &accusation {
        Accusation::Signed(w) => w.wire_size(),
        Accusation::Timeout { .. } => 64,
    };

    // 1. The prosecutor broadcasts the accusation.
    let envelope = CommitteeMessage::Accusation {
        committee: committee.index as u32,
        accused,
    };
    for &member in &committee.members {
        if member != prosecutor {
            net.send(
                prosecutor,
                member,
                LinkClass::IntraCommittee,
                envelope.clone(),
                witness_bytes,
            );
        }
    }

    // 2. Members vote on the impeachment; approvals must reach the
    //    prosecutor by the 4Δ deadline.
    let member_approves = |member: NodeId| {
        // Malicious members approve anything (worst case for a framed
        // leader) — but they are a minority, so their approvals never
        // carry a vote alone.
        cycledger_consensus::transition::member_approves_impeachment(
            registry.node(member).is_honest(),
            evidence_valid,
        )
    };
    let mut approvals = 0usize;
    if prosecutor != accused && member_approves(prosecutor) {
        approvals += 1;
    }
    net.schedule_timer(vote_deadline(&latency), IMPEACH_TIMER);
    while let Some(event) = net.next_event() {
        match event {
            NetEvent::Message(env) => match env.payload {
                CommitteeMessage::Accusation { .. } => {
                    if env.to == accused || !registry.node(env.to).membership.may_vote() {
                        // The accused never votes on its own impeachment, and
                        // syncing joiners abstain (counted against approval,
                        // same quorum math as their all-Unknown tx votes).
                        continue;
                    }
                    let approve = member_approves(env.to);
                    net.send(
                        env.to,
                        prosecutor,
                        LinkClass::IntraCommittee,
                        CommitteeMessage::ImpeachVote {
                            committee: committee.index as u32,
                            approve,
                        },
                        8,
                    );
                }
                CommitteeMessage::ImpeachVote { approve, .. }
                    if env.to == prosecutor && approve =>
                {
                    approvals += 1;
                }
                _ => {}
            },
            NetEvent::Timer {
                key: IMPEACH_TIMER, ..
            } => break,
            NetEvent::Timer { .. } => {}
        }
    }

    // Close the driven books and return.
    let mut finish = |net: SimNetwork<CommitteeMessage>, outcome: RecoveryOutcome| {
        let mut net = net;
        while net.next_event().is_some() {}
        let dropped = net.dropped_messages();
        metrics.merge(net.metrics());
        (outcome, dropped)
    };

    if !cycledger_consensus::transition::impeachment_passes(approvals, committee.size()) {
        return finish(
            net,
            RecoveryOutcome {
                committee: committee.index,
                evicted: None,
                new_leader: None,
                approvals,
                rejection_reason: Some("impeachment did not reach a committee majority"),
            },
        );
    }

    // 3. The prosecutor forwards accusation + vote certificate to C_R, which
    //    re-verifies the evidence itself (Claim 4).
    for &rm in &referee.members {
        net.send(
            prosecutor,
            rm,
            LinkClass::KeyMemberMesh,
            envelope.clone(),
            witness_bytes + 8 * approvals as u64,
        );
    }
    if !evidence_valid {
        return finish(
            net,
            RecoveryOutcome {
                committee: committee.index,
                evicted: None,
                new_leader: None,
                approvals,
                rejection_reason: Some("referee committee rejected the evidence"),
            },
        );
    }

    // 4. C_R notifies the committee of the new leader, chosen from the
    //    partial set by the same hash lottery as the synchronous recovery.
    for &rm in &referee.members {
        for &member in &committee.members {
            net.send(
                rm,
                member,
                LinkClass::KeyMemberMesh,
                CommitteeMessage::Accusation {
                    committee: committee.index as u32,
                    accused,
                },
                16,
            );
        }
    }
    let candidates: Vec<NodeId> = committee
        .partial_set
        .iter()
        .copied()
        .filter(|&n| n != accused)
        .collect();
    if candidates.is_empty() {
        return finish(
            net,
            RecoveryOutcome {
                committee: committee.index,
                evicted: None,
                new_leader: None,
                approvals,
                rejection_reason: Some("no partial-set member available to take over"),
            },
        );
    }
    let pick = cycledger_crypto::sha256::hash_parts(&[
        b"cycledger/new-leader",
        &round.to_be_bytes(),
        &(committee.index as u64).to_be_bytes(),
        &accused.0.to_be_bytes(),
    ])
    .prefix_u64() as usize
        % candidates.len();
    let new_leader = candidates[pick];
    committee.install_leader(new_leader);
    reputation.punish_leader(accused);

    finish(
        net,
        RecoveryOutcome {
            committee: committee.index,
            evicted: Some(accused),
            new_leader: Some(new_leader),
            approvals,
            rejection_reason: None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryConfig;
    use crate::sortition::{assign_round, AssignmentParams};
    use cycledger_consensus::votes::Vote;
    use cycledger_crypto::sha256::sha256;
    use cycledger_ledger::workload::{Workload, WorkloadConfig};

    struct Fixture {
        registry: NodeRegistry,
        committee: Committee,
        referee: Vec<NodeId>,
        utxo: UtxoSet,
        offered: Vec<GeneratedTx>,
    }

    fn fixture(seed: u64) -> Fixture {
        let registry = NodeRegistry::generate(24, &AdversaryConfig::default(), 200, 0, seed);
        let reputation = ReputationTable::with_members(registry.ids());
        let assignment = assign_round(
            &registry,
            &registry.ids(),
            AssignmentParams {
                committees: 1,
                partial_set_size: 2,
                referee_size: 5,
            },
            1,
            sha256(b"driven-boundary"),
            &reputation,
        );
        let committee = Committee::from_assignment(&assignment.committees[0], &registry);
        let mut workload = Workload::new(WorkloadConfig {
            num_shards: 1,
            accounts_per_shard: 16,
            genesis_amount: 1_000,
            cross_shard_ratio: 0.0,
            invalid_ratio: 0.0,
            seed,
        });
        let utxo = workload.build_genesis_utxo_sets().remove(0);
        let offered = workload.generate_batch(8);
        Fixture {
            registry,
            committee,
            referee: assignment.referee.clone(),
            utxo,
            offered,
        }
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

    fn run(fx: &Fixture, plan: &FaultPlan) -> IntraOutcome {
        let mut scratch = ShardScratch::default();
        let (outcome, _) = run_intra_consensus_driven(
            &fx.registry,
            &fx.committee,
            &fx.utxo,
            &fx.offered,
            &fx.referee,
            1,
            unit_latency(),
            false,
            1,
            &mut scratch,
            plan,
        );
        outcome
    }

    fn a_common_member(fx: &Fixture) -> NodeId {
        *fx.committee
            .members
            .iter()
            .find(|&&m| m != fx.committee.leader && !fx.committee.partial_set.contains(&m))
            .expect("committee has a common member")
    }

    #[test]
    fn vote_arriving_exactly_at_the_deadline_counts_toward_quorum() {
        // With 1µs legs the delayed member's announcement lands at 2µs and
        // its reply at 2 + 2·1µs = 4µs — exactly the 4Δ deadline instant.
        // Inclusive deadline + the message-before-timer tie-break: the vote
        // still counts, so nothing is missing and no timeout is recorded.
        let fx = fixture(61);
        let slow = a_common_member(&fx);
        let plan = FaultPlan::default().with_delay(slow, SimDuration::from_micros(1));
        let outcome = run(&fx, &plan);
        assert_eq!(outcome.votes_missing, 0, "on-deadline vote was dropped");
        assert!(!outcome.quorum_timeout);
        assert!(outcome.certificate.is_some());
        let row = outcome
            .vote_list
            .votes
            .iter()
            .find(|v| v.voter == slow)
            .expect("slow member has a row");
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
        let fx = fixture(61);
        let slow = a_common_member(&fx);
        let plan = FaultPlan::default().with_delay(slow, SimDuration::from_micros(2));
        let outcome = run(&fx, &plan);
        assert_eq!(outcome.votes_missing, 1);
        assert!(outcome.quorum_timeout);
        // Vote accounting reconciles through the shared transition core:
        // missing == expected − received.
        assert_eq!(
            outcome.votes_missing,
            cycledger_consensus::transition::expected_votes_missing(
                fx.committee.size(),
                fx.committee.size() - 1
            )
        );
        let row = outcome
            .vote_list
            .votes
            .iter()
            .find(|v| v.voter == slow)
            .expect("missed member still has a backfilled row");
        assert!(
            row.votes.iter().all(|&v| v == Vote::Unknown),
            "late voter must be backfilled all-Unknown"
        );
        // The full committee is represented after backfill.
        assert_eq!(outcome.vote_list.voter_count(), fx.committee.size());
    }

    #[test]
    fn fully_missing_committee_reconciles_to_size_minus_one() {
        // Sever every non-leader member: only the leader's own locally
        // recorded vote exists, so missing == C − 1 — the fully-missing end
        // of the vote-accounting identity (the partially-missing end is the
        // one-late-voter test above). A single Yes of C can never reach the
        // strict majority, so every decision collapses to −1 and Algorithm 3
        // has no quorum to certify.
        let fx = fixture(61);
        let severed: Vec<NodeId> = fx
            .committee
            .members
            .iter()
            .copied()
            .filter(|&m| m != fx.committee.leader)
            .collect();
        let plan = FaultPlan::partition(severed);
        let outcome = run(&fx, &plan);
        assert_eq!(
            outcome.votes_missing,
            cycledger_consensus::transition::expected_votes_missing(fx.committee.size(), 1)
        );
        assert_eq!(outcome.votes_missing, fx.committee.size() - 1);
        assert!(outcome.quorum_timeout);
        assert!(outcome.decision.iter().all(|&d| d == -1));
        assert!(outcome.certificate.is_none());
        // Backfill still yields a full V List — one real row, C−1 Unknowns.
        assert_eq!(outcome.vote_list.voter_count(), fx.committee.size());
        let unknown_rows = outcome
            .vote_list
            .votes
            .iter()
            .filter(|v| v.votes.iter().all(|&b| b == Vote::Unknown))
            .count();
        assert_eq!(unknown_rows, fx.committee.size() - 1);
    }
}
