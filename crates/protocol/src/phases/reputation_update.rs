//! Phase 5 — reputation updating (§IV-E).
//!
//! For every committee that completed its consensus, the leader scores each
//! member by the cosine similarity between the member's vote vector and the
//! committee decision (Eq. 1), gets the `ScoreList` certified with Algorithm 3,
//! and forwards it to the referee committee, which adds the scores to the
//! global reputation table and credits the leader bonus.

use cycledger_consensus::messages::Alg3Message;
use cycledger_consensus::votes::VoteList;
use cycledger_net::metrics::Phase;
use cycledger_net::network::SimNetwork;
use cycledger_net::topology::NodeId;
use cycledger_reputation::{cosine_score, ReputationTable};

use crate::committee::{run_inside_consensus, Committee, LeaderFault};
use crate::engine::env::{Books, RoundEnv, Task};
use crate::engine::ShardExecutor;

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
    /// The books of the committee's own Algorithm 3 instance.
    books: Books,
}

/// One committee's share of the phase: score the members, have the committee
/// certify the `ScoreList`. Pure — own network, own books, nothing shared.
fn certify_scores(
    env: &RoundEnv<'_>,
    committee: &Committee,
    vote_list: &VoteList,
    decision: &[i8],
    leader_ok: bool,
) -> Certified {
    let mut certified = Certified {
        scores: CommitteeScores {
            committee: committee.index,
            ..CommitteeScores::default()
        },
        payload_len: 0,
        cert_bytes: 0,
        books: Books::default(),
    };
    if !leader_ok || vote_list.tx_ids.is_empty() {
        // A silent/evicted leader produced no decision this round; the
        // committee's members keep their reputation unchanged.
        return certified;
    }
    let scores = score_committee(vote_list, decision);

    // The leader broadcasts ScoreList + V List and the committee certifies it.
    let task = Task::Reputation(committee.index);
    let mut net: SimNetwork<Alg3Message> = env.open(task);
    let mut payload = Vec::with_capacity(scores.len() * 12);
    for (node, score) in &scores {
        payload.extend_from_slice(&node.0.to_be_bytes());
        payload.extend_from_slice(&ReputationTable::to_fixed_point(*score).to_be_bytes());
    }
    certified.payload_len = payload.len() as u64;
    let (id, fault) = (env.instance(task), LeaderFault::None);
    let consensus =
        run_inside_consensus(&mut net, committee, env.registry, id, payload, fault, true);
    certified.books = Books::close(net);
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
/// that touches shared state — the round's `books`, the referee forward, the
/// reputation table — is folded serially in `inputs` order afterwards, so
/// every `f64` sum is taken in the same order at any worker count.
pub fn run_reputation_update(
    env: &RoundEnv<'_>,
    executor: &ShardExecutor,
    committees: &[Committee],
    inputs: &[(usize, &VoteList, &[i8], bool)],
    reputation: &mut ReputationTable,
    books: &mut Books,
) -> Vec<CommitteeScores> {
    let phase = Phase::ReputationUpdate;
    let tasks: Vec<_> = inputs
        .iter()
        .map(|&(k, vote_list, decision, leader_ok)| {
            move || certify_scores(env, &committees[k], vote_list, decision, leader_ok)
        })
        .collect();

    let mut all_scores = Vec::with_capacity(inputs.len());
    for certified in executor.execute(tasks) {
        books.absorb(&certified.books);
        let scores = certified.scores;
        if scores.certified {
            let leader = committees[scores.committee].leader;
            // Leader forwards the certified score list to the referee committee.
            let forwarded = certified.payload_len + certified.cert_bytes;
            for &rm in &env.referee.members {
                books.metrics.record_message(phase, leader, rm, forwarded);
                books
                    .metrics
                    .record_storage(phase, rm, certified.payload_len);
            }
            // The referee committee applies the scores and the leader bonus.
            for (node, score) in &scores.scores {
                reputation.add_score(*node, *score);
            }
            reputation.grant_leader_bonus(leader, env.config.leader_bonus);
        }
        all_scores.push(scores);
    }
    all_scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryConfig, Behavior};
    use crate::config::ProtocolConfig;
    use crate::node::NodeRegistry;
    use crate::sortition::{assign_round, AssignmentParams};
    use cycledger_consensus::votes::{Vote, VoteVector};
    use cycledger_crypto::sha256::sha256;
    use cycledger_net::faults::FaultPlan;

    struct Fixture {
        registry: NodeRegistry,
        committees: Vec<Committee>,
        referee: Committee,
    }

    fn fixture(seed: u64) -> Fixture {
        fixture_of(seed, 60, 2)
    }

    fn fixture_of(seed: u64, nodes: usize, committees: usize) -> Fixture {
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
        Fixture {
            referee: Committee::referee(&assignment.referee, &registry),
            registry,
            committees,
        }
    }

    /// The phase at `round` under configuration seed `seed` and a leader
    /// bonus of 0.1, over a fresh reputation table.
    fn update(
        fx: &Fixture,
        inputs: &[(usize, &VoteList, &[i8], bool)],
        workers: usize,
        (round, seed): (u64, u64),
    ) -> (Vec<CommitteeScores>, ReputationTable, Books) {
        let config = ProtocolConfig {
            leader_bonus: 0.1,
            seed,
            ..ProtocolConfig::default()
        };
        let env = RoundEnv {
            config: &config,
            registry: &fx.registry,
            referee: &fx.referee,
            plan: &FaultPlan::default(),
            round,
        };
        let mut reputation = ReputationTable::with_members(fx.registry.ids());
        let mut books = Books::default();
        let outcome = run_reputation_update(
            &env,
            &ShardExecutor::new(workers),
            &fx.committees,
            inputs,
            &mut reputation,
            &mut books,
        );
        (outcome, reputation, books)
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
        let fx = fixture(71);
        let (committee, referee) = (&fx.committees[0], &fx.referee);
        let right: Vec<NodeId> = committee.members[..committee.members.len() / 2].to_vec();
        let wrong = vec![*committee.members.last().unwrap()];
        let (vote_list, decision) = vote_list_for(committee, &right, &wrong);
        let (outcome, reputation, books) =
            update(&fx, &[(0, &vote_list, &decision, true)], 1, (1, 1));
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
            books
                .metrics
                .node_phase(referee.members[0], Phase::ReputationUpdate)
                .msgs_received
                > 0
        );
    }

    #[test]
    fn uncertified_committees_leave_reputation_untouched() {
        let fx = fixture(72);
        let committee = &fx.committees[1];
        let (vote_list, decision) = vote_list_for(committee, &committee.members, &[]);
        let (outcome, reputation, _) = update(&fx, &[(1, &vote_list, &decision, false)], 1, (1, 2));
        assert!(!outcome[0].certified);
        assert!(fx.registry.ids().iter().all(|&n| reputation.get(n) == 0.0));
    }

    #[test]
    fn score_committee_matches_cosine() {
        let fx = fixture(73);
        let committee = &fx.committees[0];
        let (vote_list, decision) = vote_list_for(committee, &committee.members, &[]);
        let scores = score_committee(&vote_list, &decision);
        assert_eq!(scores.len(), committee.size());
        assert!(scores.iter().all(|(_, s)| (*s - 1.0).abs() < 1e-9));
        let _ = Behavior::Honest;
    }
    #[test]
    fn results_are_bit_identical_at_every_executor_width() {
        let mut fx = fixture_of(74, 110, 5);
        // Committee 2 cannot certify: all but two of its members withhold.
        for &member in fx.committees[2].members.iter().skip(2) {
            fx.registry.set_behavior(member, Behavior::WrongVoter);
        }
        let (registry, committees) = (&fx.registry, &fx.committees);
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
            let (outcome, reputation, books) = update(&fx, &inputs, workers, (3, 9));
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
            books.metrics.write_canonical_bytes(&mut sink);
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
