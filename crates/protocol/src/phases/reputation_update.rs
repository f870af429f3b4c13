//! Phase 5 — reputation updating (§IV-E).
//!
//! For every committee that completed its consensus, the leader scores each
//! member by the cosine similarity between the member's vote vector and the
//! committee decision (Eq. 1), gets the `ScoreList` certified with Algorithm 3,
//! and forwards it to the referee committee, which adds the scores to the
//! global reputation table and credits the leader bonus.

use cycledger_consensus::messages::ConsensusId;
use cycledger_consensus::votes::VoteList;
use cycledger_net::latency::LatencyConfig;
use cycledger_net::metrics::{MetricsSink, Phase};
use cycledger_net::network::SimNetwork;
use cycledger_net::topology::NodeId;
use cycledger_reputation::{cosine_score, ReputationTable};

use crate::committee::{run_inside_consensus, Committee, LeaderFault};
use crate::engine::ShardExecutor;
use crate::node::NodeRegistry;

/// Scores produced for one committee.
#[derive(Clone, Debug, Default)]
pub struct CommitteeScores {
    /// Committee index.
    pub committee: usize,
    /// `(member, score)` pairs in member order.
    pub scores: Vec<(NodeId, f64)>,
    /// Whether the score list was certified and therefore applied.
    pub certified: bool,
}

/// Computes every member's cosine score from a vote list and decision vector.
pub fn score_committee(vote_list: &VoteList, decision: &[i8]) -> Vec<(NodeId, f64)> {
    // One {+1, −1, 0} buffer refilled per voter.
    let mut votes: Vec<i8> = Vec::with_capacity(decision.len());
    vote_list
        .votes
        .iter()
        .map(|vector| {
            votes.clear();
            votes.extend(vector.votes.iter().map(|v| v.as_i8()));
            (vector.voter, cosine_score(&votes, decision))
        })
        .collect()
}

/// What one committee's task hands to the serial fold.
struct Certified {
    scores: CommitteeScores,
    /// Bytes of the score list and of its certificate, which the leader
    /// forwards to every referee member.
    payload_len: u64,
    cert_bytes: u64,
    /// Traffic of the committee's own Algorithm 3 instance.
    sink: MetricsSink,
}

/// One committee's share of the phase: score the members, have the committee
/// certify the `ScoreList`. Pure — own network, own sink, nothing shared.
#[allow(clippy::too_many_arguments)]
fn certify_scores(
    registry: &NodeRegistry,
    committee: &Committee,
    vote_list: &VoteList,
    decision: &[i8],
    leader_ok: bool,
    round: u64,
    latency: LatencyConfig,
    seed: u64,
) -> Certified {
    let mut certified = Certified {
        scores: CommitteeScores {
            committee: committee.index,
            ..CommitteeScores::default()
        },
        payload_len: 0,
        cert_bytes: 0,
        sink: MetricsSink::new(),
    };
    if !leader_ok || vote_list.tx_ids.is_empty() {
        // A silent/evicted leader produced no decision this round; the
        // committee's members keep their reputation unchanged.
        return certified;
    }
    let scores = score_committee(vote_list, decision);

    // The leader broadcasts ScoreList + V List and the committee certifies it.
    let mut net: SimNetwork<cycledger_consensus::messages::Alg3Message> =
        SimNetwork::new(latency, seed ^ (0xabc0 + committee.index as u64));
    net.set_phase(Phase::ReputationUpdate);
    let mut payload = Vec::with_capacity(scores.len() * 12);
    for (node, score) in &scores {
        payload.extend_from_slice(&node.0.to_be_bytes());
        payload.extend_from_slice(&ReputationTable::to_fixed_point(*score).to_be_bytes());
    }
    certified.payload_len = payload.len() as u64;
    let consensus = run_inside_consensus(
        &mut net,
        committee,
        registry,
        ConsensusId {
            round,
            seq: 4_000 + committee.index as u64,
        },
        payload,
        LeaderFault::None,
        true,
    );
    certified.sink = net.into_metrics();
    certified.scores.scores = scores;
    certified.scores.certified = consensus.certificate.is_some();
    certified.cert_bytes = consensus.certificate.map_or(0, |c| c.wire_size());
    certified
}

/// Runs the reputation-update phase for all committees and applies certified
/// scores (plus leader bonuses) to the reputation table.
///
/// Scoring a committee and certifying its `ScoreList` reads nothing another
/// committee writes, so each committee is one `executor` task. Everything
/// that touches shared state — the round's metrics, the referee forward, the
/// reputation table — is folded serially in `inputs` order afterwards, so
/// every `f64` sum is taken in the same order at any worker count.
#[allow(clippy::too_many_arguments)]
pub fn run_reputation_update(
    executor: &ShardExecutor,
    registry: &NodeRegistry,
    committees: &[Committee],
    referee_members: &[NodeId],
    inputs: &[(usize, &VoteList, &[i8], bool)],
    reputation: &mut ReputationTable,
    leader_bonus: f64,
    round: u64,
    latency: LatencyConfig,
    seed: u64,
    metrics: &mut MetricsSink,
) -> Vec<CommitteeScores> {
    let phase = Phase::ReputationUpdate;
    let tasks: Vec<_> = inputs
        .iter()
        .map(|&(k, vote_list, decision, leader_ok)| {
            move || {
                certify_scores(
                    registry,
                    &committees[k],
                    vote_list,
                    decision,
                    leader_ok,
                    round,
                    latency,
                    seed,
                )
            }
        })
        .collect();

    let mut all_scores = Vec::with_capacity(inputs.len());
    for certified in executor.execute(tasks) {
        metrics.merge(&certified.sink);
        let scores = certified.scores;
        if scores.certified {
            let leader = committees[scores.committee].leader;
            // Leader forwards the certified score list to the referee committee.
            let forwarded = certified.payload_len + certified.cert_bytes;
            for &rm in referee_members {
                metrics.record_message(phase, leader, rm, forwarded);
                metrics.record_storage(phase, rm, certified.payload_len);
            }
            // The referee committee applies the scores and the leader bonus.
            for (node, score) in &scores.scores {
                reputation.add_score(*node, *score);
            }
            reputation.grant_leader_bonus(leader, leader_bonus);
        }
        all_scores.push(scores);
    }
    all_scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryConfig, Behavior};
    use crate::sortition::{assign_round, AssignmentParams};
    use cycledger_consensus::votes::{Vote, VoteVector};
    use cycledger_crypto::sha256::sha256;

    fn fixture(seed: u64) -> (NodeRegistry, Vec<Committee>, Vec<NodeId>) {
        fixture_of(seed, 60, 2)
    }

    fn fixture_of(
        seed: u64,
        nodes: usize,
        committees: usize,
    ) -> (NodeRegistry, Vec<Committee>, Vec<NodeId>) {
        let registry = NodeRegistry::generate(nodes, &AdversaryConfig::default(), 100, 0, seed);
        let reputation = ReputationTable::with_members(registry.ids());
        let assignment = assign_round(
            &registry,
            &registry.ids(),
            AssignmentParams {
                committees,
                partial_set_size: 3,
                referee_size: 5,
            },
            1,
            sha256(b"rep-phase"),
            &reputation,
        );
        let committees: Vec<Committee> = assignment
            .committees
            .iter()
            .map(|c| Committee::from_assignment(c, &registry))
            .collect();
        (registry, committees, assignment.referee)
    }

    fn vote_list_for(
        committee: &Committee,
        right: &[NodeId],
        wrong: &[NodeId],
    ) -> (VoteList, Vec<i8>) {
        let tx_ids: Vec<_> = (0..4u64).map(|i| sha256(&i.to_be_bytes())).collect();
        let mut list = VoteList::new(tx_ids);
        for &member in &committee.members {
            let vote = if wrong.contains(&member) {
                vec![Vote::No; 4]
            } else if right.contains(&member) {
                vec![Vote::Yes; 4]
            } else {
                vec![Vote::Unknown; 4]
            };
            list.record(VoteVector::new(member, vote));
        }
        (list, vec![1, 1, 1, 1])
    }

    #[test]
    fn scores_follow_vote_quality() {
        let (registry, committees, referee) = fixture(71);
        let committee = &committees[0];
        let right: Vec<NodeId> = committee.members[..committee.members.len() / 2].to_vec();
        let wrong = vec![*committee.members.last().unwrap()];
        let (vote_list, decision) = vote_list_for(committee, &right, &wrong);
        let mut reputation = ReputationTable::with_members(registry.ids());
        let mut metrics = MetricsSink::new();
        let outcome = run_reputation_update(
            &ShardExecutor::new(1),
            &registry,
            &committees,
            &referee,
            &[(0, &vote_list, &decision, true)],
            &mut reputation,
            0.1,
            1,
            LatencyConfig::default(),
            1,
            &mut metrics,
        );
        assert_eq!(outcome.len(), 1);
        assert!(outcome[0].certified);
        // Correct voters gained a full point, wrong voters lost one, idle zero.
        for &node in &right {
            let expected = if node == committee.leader { 1.1 } else { 1.0 };
            assert!(
                (reputation.get(node) - expected).abs() < 1e-9,
                "node {node:?}"
            );
        }
        assert!((reputation.get(wrong[0]) + 1.0).abs() < 1e-9);
        // Referee members received and stored the certified score lists.
        assert!(
            metrics
                .node_phase(referee[0], Phase::ReputationUpdate)
                .msgs_received
                > 0
        );
    }

    #[test]
    fn uncertified_committees_leave_reputation_untouched() {
        let (registry, committees, referee) = fixture(72);
        let committee = &committees[1];
        let (vote_list, decision) = vote_list_for(committee, &committee.members, &[]);
        let mut reputation = ReputationTable::with_members(registry.ids());
        let outcome = run_reputation_update(
            &ShardExecutor::new(1),
            &registry,
            &committees,
            &referee,
            &[(1, &vote_list, &decision, false)],
            &mut reputation,
            0.1,
            1,
            LatencyConfig::default(),
            2,
            &mut MetricsSink::new(),
        );
        assert!(!outcome[0].certified);
        assert!(registry.ids().iter().all(|&n| reputation.get(n) == 0.0));
    }

    #[test]
    fn score_committee_matches_cosine() {
        let (_, committees, _) = fixture(73);
        let committee = &committees[0];
        let (vote_list, decision) = vote_list_for(committee, &committee.members, &[]);
        let scores = score_committee(&vote_list, &decision);
        assert_eq!(scores.len(), committee.size());
        assert!(scores.iter().all(|(_, s)| (*s - 1.0).abs() < 1e-9));
        let _ = Behavior::Honest;
    }
    #[test]
    fn results_are_bit_identical_at_every_executor_width() {
        let (mut registry, committees, referee) = fixture_of(74, 110, 5);
        // Committee 2 cannot certify: all but two of its members withhold.
        for &member in committees[2].members.iter().skip(2) {
            registry.set_behavior(member, Behavior::WrongVoter);
        }
        let lists: Vec<(VoteList, Vec<i8>)> = committees
            .iter()
            .map(|c| {
                let half = c.members.len() / 2;
                vote_list_for(c, &c.members[..half], &c.members[half + 1..])
            })
            .collect();
        // Committee 1's leader produced no certificate in the intra phase.
        let inputs: Vec<(usize, &VoteList, &[i8], bool)> = lists
            .iter()
            .enumerate()
            .map(|(k, (list, decision))| (k, list, decision.as_slice(), k != 1))
            .collect();
        let run = |workers: usize| {
            let mut reputation = ReputationTable::with_members(registry.ids());
            let mut metrics = MetricsSink::new();
            let outcome = run_reputation_update(
                &ShardExecutor::new(workers),
                &registry,
                &committees,
                &referee,
                &inputs,
                &mut reputation,
                0.1,
                3,
                LatencyConfig::default(),
                9,
                &mut metrics,
            );
            // (committee, certified, score bits) per committee.
            let scores: Vec<(usize, bool, Vec<u64>)> = outcome
                .iter()
                .map(|c| {
                    let bits = c.scores.iter().map(|(_, s)| s.to_bits()).collect();
                    (c.committee, c.certified, bits)
                })
                .collect();
            let graded: Vec<Vec<NodeId>> = outcome
                .iter()
                .map(|c| c.scores.iter().map(|(n, _)| *n).collect())
                .collect();
            let table: Vec<u64> = registry
                .ids()
                .iter()
                .map(|&n| reputation.get(n).to_bits())
                .collect();
            let mut sink = Vec::new();
            metrics.write_canonical_bytes(&mut sink);
            (scores, graded, table, sink)
        };
        let baseline = run(1);
        let certified: Vec<bool> = baseline.0.iter().map(|c| c.1).collect();
        assert_eq!(certified, [true, false, false, true, true]);
        assert!(baseline.0[1].2.is_empty(), "no decision, nobody graded");
        assert!(!baseline.0[2].2.is_empty(), "scored but never applied");
        for workers in [2, 8] {
            assert_eq!(run(workers), baseline, "{workers} workers");
        }
    }
}
