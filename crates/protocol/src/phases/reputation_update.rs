//! Phase 5 — reputation updating (§IV-E).
//!
//! Every committee whose certificate the referee admitted in the intra phase
//! has each member scored by the cosine similarity between the member's vote
//! vector and the committee decision (Eq. 1); the referee committee adds the
//! scores to the global reputation table and credits the leader bonus.
//!
//! The scores are a pure function of the `V List` the committee's intra
//! Algorithm 3 instance certified, and the referee already holds that list
//! from the leader's certificate forward (`phases::intra`). So nothing is
//! sent and nothing certified here: the referee computes the scores itself,
//! one serial fold on the driver in committee order, every `f64` sum taken in
//! the same order at any worker count. The paper has the leader certify and
//! forward a `ScoreList` instead; ARCHITECTURE.md ("A departure from §IV-E")
//! says why this phase does not.

use cycledger_consensus::votes::VoteList;
use cycledger_net::topology::NodeId;
use cycledger_reputation::{cosine_score, ReputationTable};

use crate::committee::Committee;

/// Computes every member's cosine score from a vote list and decision vector,
/// over the list's first `decision.len()` columns.
pub fn score_committee(vote_list: &VoteList, decision: &[i8]) -> Vec<(NodeId, f64)> {
    // One {+1, −1, 0} buffer refilled per voter.
    let mut votes: Vec<i8> = Vec::with_capacity(decision.len());
    let columns = decision.len();
    vote_list
        .votes
        .iter()
        .map(|vector| {
            votes.clear();
            votes.extend(vector.votes.iter().take(columns).map(|v| v.as_i8()));
            (vector.voter, cosine_score(&votes, decision))
        })
        .collect()
}

/// Extra reputation granted to a leader that completes its round (§VII-A).
const LEADER_BONUS: f64 = 0.1;

/// Applies the round's scores to `reputation`: for each committee
/// `(k, V List, decision, admitted)` in the order given whose certificate the
/// referee admitted, every member's score over the columns `decision` covers
/// (the offered ones: a `V List`'s outbound columns are certified but not
/// scored), then `LEADER_BONUS` to `committees[k].leader` — the leader as
/// it stands after the inter-committee phase. A committee offered nothing
/// scores nobody.
pub fn run_reputation_update<'a>(
    inputs: impl IntoIterator<Item = (usize, &'a VoteList, &'a [i8], bool)>,
    committees: &[Committee],
    reputation: &mut ReputationTable,
) {
    for (k, vote_list, decision, admitted) in inputs {
        if !admitted || decision.is_empty() {
            continue;
        }
        for (node, score) in score_committee(vote_list, decision) {
            reputation.add_score(node, score);
        }
        reputation.grant_leader_bonus(committees[k].leader, LEADER_BONUS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryConfig, Behavior};
    use crate::config::ProtocolConfig;
    use crate::node::NodeRegistry;
    use crate::simulation::Simulation;
    use crate::sortition::{assign_round, AssignmentParams};
    use cycledger_consensus::votes::{Vote, VoteVector};
    use cycledger_crypto::sha256::sha256;

    struct Fixture {
        registry: NodeRegistry,
        committees: Vec<Committee>,
    }

    fn fixture(seed: u64) -> Fixture {
        let registry = NodeRegistry::generate(60, &AdversaryConfig::default(), 100, 0, seed);
        let reputation = ReputationTable::with_members(registry.ids());
        let assignment = assign_round(
            &registry,
            &registry.ids(),
            AssignmentParams {
                committees: 2,
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
            registry,
            committees,
        }
    }

    /// The phase over a fresh reputation table.
    fn update(fx: &Fixture, inputs: &[(usize, &VoteList, &[i8], bool)]) -> ReputationTable {
        let mut reputation = ReputationTable::with_members(fx.registry.ids());
        let inputs = inputs.iter().copied();
        run_reputation_update(inputs, &fx.committees, &mut reputation);
        reputation
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
        let committee = &fx.committees[0];
        let right: Vec<NodeId> = committee.members[..committee.members.len() / 2].to_vec();
        let wrong = vec![*committee.members.last().unwrap()];
        let (vote_list, decision) = vote_list_for(committee, &right, &wrong);
        let reputation = update(&fx, &[(0, &vote_list, &decision, true)]);
        // Correct voters gained a full point, wrong voters lost one, idle zero.
        for &node in &right {
            let expected = if node == committee.leader { 1.1 } else { 1.0 };
            assert!(
                (reputation.get(node) - expected).abs() < 1e-9,
                "node {node:?}"
            );
        }
        assert!((reputation.get(wrong[0]) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn uncertified_committees_leave_reputation_untouched() {
        let fx = fixture(72);
        let committee = &fx.committees[1];
        let (vote_list, decision) = vote_list_for(committee, &committee.members, &[]);
        let reputation = update(&fx, &[(1, &vote_list, &decision, false)]);
        assert!(fx.registry.ids().iter().all(|&n| reputation.get(n) == 0.0));
    }

    #[test]
    fn a_committee_offered_nothing_scores_nobody_and_earns_no_bonus() {
        let fx = fixture(72);
        let committee = &fx.committees[1];
        let mut nothing = VoteList::new(Vec::new());
        for &member in &committee.members {
            nothing.record(VoteVector::new(member, Vec::new()));
        }
        let reputation = update(&fx, &[(1, &nothing, &[], true)]);
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
    }

    /// Six rounds at 8×16, seed 4242, with a lazy and a wrong voter in every
    /// committee, an equivocating leader (evicted in intra recovery) and a
    /// censoring one (evicted in the inter-committee phase): the reputation
    /// table, bit for bit, as it stood when each committee certified a
    /// `ScoreList` in a second Algorithm 3 instance (commit 5a841c1).
    #[test]
    fn scores_from_the_certified_v_list_equal_the_certified_score_lists() {
        let config = ProtocolConfig {
            committees: 8,
            committee_size: 16,
            partial_set_size: 4,
            txs_per_round: 400,
            cross_shard_ratio: 0.2,
            invalid_ratio: 0.05,
            pow_difficulty: 2,
            seed: 4242,
            ..ProtocolConfig::default()
        };
        let mut sim = Simulation::new(config).unwrap();
        let committees = sim.assignment().committees.clone();
        let (censor, equivocator) = (committees[0].leader, committees[1].leader);
        let registry = sim.registry_mut();
        registry.set_behavior(censor, Behavior::CensoringLeader);
        registry.set_behavior(equivocator, Behavior::EquivocatingLeader);
        for committee in &committees {
            let commons = committee.common_members();
            registry.set_behavior(commons[0], Behavior::LazyVoter);
            registry.set_behavior(commons[1], Behavior::WrongVoter);
        }
        let first = sim.run_round().clone();
        assert_eq!(first.evicted_leaders, [(1, equivocator), (0, censor)]);
        assert_eq!(first.censorship_reports, 1);
        for _ in 1..6 {
            assert!(sim.run_round().block_produced);
        }

        let ids = sim.registry().ids();
        let bits = |node: NodeId| sim.reputation().get(node).to_bits();
        let mut table = Vec::new();
        for &node in &ids {
            table.extend_from_slice(&node.0.to_be_bytes());
            table.extend_from_slice(&bits(node).to_be_bytes());
        }
        assert_eq!(ids.len(), 135);
        assert_eq!(
            sha256(&table).to_hex(),
            "9189a3d832825846ee866ae71d9364842a835b71a2d188643e1be0b39f047b09"
        );
        let malicious: Vec<(u32, u64)> = ids
            .iter()
            .filter(|&&node| sim.registry().node(node).behavior.is_malicious())
            .map(|&node| (node.0, bits(node)))
            .collect();
        let (lazy, wrong_6, wrong_5) = (0, 0xc018_0000_0000_0000, 0xc014_0000_0000_0000);
        assert_eq!(
            malicious,
            [
                (0, 0x4014_0000_0000_0000),
                (1, 0x4015_0a28_be63_5ca3),
                (14, lazy),
                (16, wrong_6),
                (27, lazy),
                (32, wrong_6),
                (39, lazy),
                (42, lazy),
                (44, lazy),
                (62, wrong_6),
                (73, wrong_6),
                (89, lazy),
                (92, wrong_5),
                (100, wrong_5),
                (109, wrong_6),
                (112, lazy),
                (126, wrong_6),
                (134, lazy),
            ]
        );
    }
}
