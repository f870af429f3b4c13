//! Phase 6 — referee committee, leader and partial-set selection (§IV-F).
//!
//! The referee committee runs the distributed randomness beacon (SCRAPE in the
//! paper, our PVSS substitute here) to produce `R^{r+1}`; nodes that want to
//! participate in the next round solve the PoW participation puzzle; and the
//! next round's referee committee, leaders and partial sets are derived from the
//! new randomness plus the updated reputation table.

use cycledger_crypto::pow::Puzzle;
use cycledger_crypto::pvss;
use cycledger_crypto::sha256::Digest;
use cycledger_net::metrics::{point_set_wire_bytes, MetricsSink, Phase};
use cycledger_net::topology::NodeId;
use cycledger_reputation::ReputationTable;

use crate::engine::env::RoundEnv;
use crate::engine::ShardExecutor;
use crate::sortition::{assign_round_on, RoundAssignment};

/// Outcome of the selection phase.
#[derive(Clone, Debug)]
pub struct SelectionOutcome {
    /// The next round's randomness `R^{r+1}` (None if the beacon failed, which
    /// requires every referee dealer to misbehave).
    pub next_randomness: Option<Digest>,
    /// Referee dealers whose PVSS dealings qualified.
    pub qualified_dealers: Vec<usize>,
    /// Nodes that solved the participation puzzle for the next round.
    pub participants: Vec<NodeId>,
    /// The next round's assignment (None if the beacon failed).
    pub next_assignment: Option<RoundAssignment>,
}

/// Runs the selection phase. The beacon and the PoW admissions run on the
/// caller thread; the next round's VRF sortition — the bulk of the phase —
/// is mapped over `executor` (see [`assign_round_on`]).
pub fn run_selection(
    env: &RoundEnv<'_>,
    executor: &ShardExecutor,
    reputation: &ReputationTable,
    current_randomness: Digest,
    metrics: &mut MetricsSink,
) -> SelectionOutcome {
    let phase = Phase::KeyMemberSelection;
    let (registry, referee, round) = (env.registry, &env.referee.members[..], env.round);

    // 1. Distributed randomness beacon inside C_R.
    let honesty: Vec<bool> = referee
        .iter()
        .map(|&rm| registry.node(rm).is_honest())
        .collect();
    let threshold = referee.len() / 2 + 1;
    let mut round_tag = Vec::with_capacity(40);
    round_tag.extend_from_slice(&round.to_be_bytes());
    round_tag.extend_from_slice(current_randomness.as_bytes());
    let beacon = pvss::run_beacon_transcript(referee.len(), threshold, &honesty, &round_tag);
    // PVSS traffic: every dealer broadcasts its shares plus its commitment
    // vector to every other referee member. Sizes come from the actual
    // published dealings — shares at 4 + 32 bytes each, commitments via the
    // canonical (batch-converted) point-set encoding.
    let (next_randomness, qualified_dealers, dealing_bytes) = match beacon {
        Ok(transcript) => {
            let sizes: Vec<u64> = transcript
                .contributions
                .iter()
                .map(|c| {
                    c.dealing.shares.len() as u64 * (4 + 32)
                        + point_set_wire_bytes(&c.dealing.commitments)
                })
                .collect();
            (Some(transcript.output), transcript.qualified, sizes)
        }
        Err(_) => {
            // Beacon failure (every dealer corrupt): charge the nominal size.
            let nominal = (referee.len() as u64) * (4 + 32) + 8 + (threshold as u64) * 64;
            (None, Vec::new(), vec![nominal; referee.len()])
        }
    };
    for (dealer_idx, &dealer) in referee.iter().enumerate() {
        for &receiver in referee {
            if dealer != receiver {
                metrics.record_message(phase, dealer, receiver, dealing_bytes[dealer_idx]);
            }
        }
    }

    // 2. PoW participation: every node solves the puzzle bound to the *current*
    //    randomness and submits the solution to the referee committee.
    let puzzle = Puzzle::new(round + 1, current_randomness, env.config.pow_difficulty);
    let mut participants = Vec::new();
    for node in registry.iter().filter(|n| n.membership.participates()) {
        let solution = puzzle.solve(&node.keypair.public, 0, 1 << 22);
        if let Some(solution) = solution {
            if puzzle.verify(&node.keypair.public, &solution) {
                participants.push(node.id);
                // Submission to one referee member (who gossips the identity).
                metrics.record_message(phase, node.id, referee[0], 8 + 32 + 64);
            }
        }
    }
    for &rm in referee {
        metrics.record_storage(phase, rm, participants.len() as u64 * 8);
    }

    // 3. Derive the next round's configuration.
    let next_assignment = next_randomness.map(|randomness| {
        assign_round_on(
            executor,
            registry,
            &participants,
            env.config.assignment_params(),
            round + 1,
            randomness,
            reputation,
        )
    });

    SelectionOutcome {
        next_randomness,
        qualified_dealers,
        participants,
        next_assignment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryConfig, Behavior};
    use crate::committee::Committee;
    use crate::config::ProtocolConfig;
    use crate::node::NodeRegistry;
    use cycledger_crypto::sha256::sha256;
    use cycledger_net::faults::FaultPlan;

    /// The phase at `round` over `registry`, its first seven nodes the
    /// referee committee, three committees to draw.
    fn select(
        registry: &NodeRegistry,
        round: u64,
        randomness: &[u8],
        pow_difficulty: u32,
    ) -> (SelectionOutcome, MetricsSink) {
        let config = ProtocolConfig {
            committees: 3,
            partial_set_size: 3,
            referee_size: 7,
            pow_difficulty,
            ..ProtocolConfig::default()
        };
        let env = RoundEnv {
            config: &config,
            registry,
            referee: &Committee::referee(&registry.ids()[..7], registry),
            plan: &FaultPlan::default(),
            round,
        };
        let reputation = ReputationTable::with_members(registry.ids());
        let mut metrics = MetricsSink::new();
        let outcome = run_selection(
            &env,
            &ShardExecutor::new(1),
            &reputation,
            sha256(randomness),
            &mut metrics,
        );
        (outcome, metrics)
    }

    #[test]
    fn honest_referee_produces_randomness_and_assignment() {
        let registry = NodeRegistry::generate(70, &AdversaryConfig::default(), 100, 0, 81);
        let (outcome, metrics) = select(&registry, 1, b"r1", 2);
        assert!(outcome.next_randomness.is_some());
        assert_eq!(outcome.qualified_dealers.len(), 7);
        assert_eq!(
            outcome.participants.len(),
            registry.len(),
            "difficulty 2 is solvable by all"
        );
        let next = outcome.next_assignment.expect("assignment");
        assert_eq!(next.round, 2);
        assert_eq!(next.committees.len(), 3);
        assert!(metrics.phase_total(Phase::KeyMemberSelection).msgs_sent > 0);
    }

    #[test]
    fn corrupt_dealers_are_excluded_but_beacon_survives() {
        let mut registry = NodeRegistry::generate(70, &AdversaryConfig::default(), 100, 0, 82);
        let referee: Vec<NodeId> = registry.ids()[..7].to_vec();
        registry.set_behavior(referee[0], Behavior::WrongVoter);
        registry.set_behavior(referee[3], Behavior::SilentLeader);
        let (outcome, _) = select(&registry, 2, b"r2", 2);
        assert!(outcome.next_randomness.is_some());
        assert_eq!(outcome.qualified_dealers, vec![1, 2, 4, 5, 6]);
    }

    #[test]
    fn randomness_differs_across_rounds() {
        let registry = NodeRegistry::generate(70, &AdversaryConfig::default(), 100, 0, 83);
        let (a, _) = select(&registry, 1, b"seed", 0);
        let (b, _) = select(&registry, 2, b"seed", 0);
        assert_ne!(a.next_randomness, b.next_randomness);
    }
}
