//! Phase 2 — semi-commitment exchanging (Algorithm 4).
//!
//! Each leader hashes its member list (`SEMI_COM = H(S)`), sends the commitment
//! plus the list to every referee member, and the signed list to its partial
//! set. The referee committee agrees on the set of valid commitments with one
//! internal Algorithm 3 instance and relays the set to all key members. Partial
//! set members then cross-check the commitment recorded by `C_R` against the
//! list their leader gave them — any mismatch yields a leader-signed witness
//! (Theorem 2) that feeds the recovery procedure.

use cycledger_consensus::messages::Alg3Message;
use cycledger_consensus::witness::{
    member_list_signing_bytes, semi_commitment, CommitmentMismatchEvidence, Witness,
};
use cycledger_crypto::schnorr::sign;
use cycledger_crypto::sha256::Digest;
use cycledger_net::metrics::Phase;
use cycledger_net::network::SimNetwork;
use cycledger_net::topology::NodeId;

use crate::adversary::Behavior;
use crate::committee::{run_inside_consensus, Committee, LeaderFault};
use crate::engine::env::{Books, RoundEnv, Task};

/// Outcome of the semi-commitment exchange.
#[derive(Clone, Debug)]
pub struct SemiCommitmentOutcome {
    /// The commitment the referee committee recorded for each committee.
    pub recorded_commitments: Vec<Digest>,
    /// Witnesses produced by partial-set members that caught their leader
    /// committing to a forged member list.
    pub witnesses: Vec<Witness>,
    /// Whether the referee committee's internal consensus on the commitment set
    /// completed.
    pub referee_agreement: bool,
}

/// Runs the semi-commitment exchange for all committees, accounting its
/// traffic and the referee instance's into `books`.
pub fn run_semi_commitment_exchange(
    env: &RoundEnv<'_>,
    committees: &[Committee],
    books: &mut Books,
) -> SemiCommitmentOutcome {
    let (registry, referee, round) = (env.registry, env.referee, env.round);
    let phase = Phase::SemiCommitmentExchange;
    let metrics = &mut books.metrics;
    let mut recorded_commitments = Vec::with_capacity(committees.len());
    let mut witnesses = Vec::new();

    // Step 1: every leader commits and distributes.
    for committee in committees {
        let true_list = committee.member_list_bytes(registry);
        let leader = registry.node(committee.leader);
        // A MismatchedCommitment leader commits to a *forged* list towards C_R
        // while handing the true (signed) list to its partial set.
        let mismatched = leader.behavior == Behavior::MismatchedCommitment;
        let committed_list = if mismatched && true_list.len() >= 68 {
            &true_list[..true_list.len() - 68] // silently drop the last member
        } else {
            &true_list[..]
        };
        let commitment = semi_commitment(committed_list);
        recorded_commitments.push(commitment);

        // Leader → every referee member: commitment + member list.
        let msg_bytes = 32 + committed_list.len() as u64 + 96;
        for &rm in &referee.members {
            metrics.record_message(phase, committee.leader, rm, msg_bytes);
        }
        // Leader → partial set: the (signed) member list and certificates.
        let signed_bytes = member_list_signing_bytes(round, committee.index, &true_list);
        let list_signature = sign(&leader.keypair.secret, &signed_bytes);
        for &pm in &committee.partial_set {
            metrics.record_message(phase, committee.leader, pm, msg_bytes + 96);
            metrics.record_storage(phase, pm, true_list.len() as u64);
        }
        // Leader stores all other committees' commitments (O(m)).
        metrics.record_storage(phase, committee.leader, committees.len() as u64 * 32);

        // Step 3 (checked eagerly): honest partial-set members compare the
        // commitment C_R will record with the list they hold.
        let watched = |pm: &NodeId| registry.node(*pm).is_honest();
        if semi_commitment(&true_list) != commitment && committee.partial_set.iter().any(watched) {
            witnesses.push(Witness::CommitmentMismatch(CommitmentMismatchEvidence {
                round,
                committee: committee.index,
                leader: committee.leader,
                member_list: true_list.clone(),
                list_signature,
                recorded_commitment: commitment,
            }));
        }
    }

    // Step 2: the referee committee reaches internal agreement on the set of
    // commitments via Algorithm 3, then relays it to every key member.
    let task = Task::SemiCommitment;
    let mut referee_net: SimNetwork<Alg3Message> = env.open(task);
    let mut payload = Vec::with_capacity(recorded_commitments.len() * 32);
    for c in &recorded_commitments {
        payload.extend_from_slice(c.as_bytes());
    }
    let (id, fault) = (env.instance(task), LeaderFault::None);
    let outcome = run_inside_consensus(
        &mut referee_net,
        referee,
        registry,
        id,
        payload,
        fault,
        true,
    );

    // Relay: every referee member forwards the commitment set to the leaders and
    // partial sets it serves (modelled as every referee member sending to every
    // key member — the O(m²) Table II entry for C_R).
    let set_bytes = recorded_commitments.len() as u64 * 32;
    for &rm in &referee.members {
        for committee in committees {
            metrics.record_message(phase, rm, committee.leader, set_bytes);
            for &pm in &committee.partial_set {
                metrics.record_message(phase, rm, pm, set_bytes);
            }
        }
        metrics.record_storage(phase, rm, set_bytes);
    }
    books.absorb(&Books::close(referee_net));

    SemiCommitmentOutcome {
        recorded_commitments,
        witnesses,
        referee_agreement: outcome.certificate.is_some(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryConfig;
    use crate::config::ProtocolConfig;
    use crate::node::NodeRegistry;
    use crate::sortition::{assign_round, AssignmentParams};
    use cycledger_crypto::sha256::sha256;
    use cycledger_net::faults::FaultPlan;
    use cycledger_reputation::ReputationTable;

    fn setup(seed: u64) -> (NodeRegistry, Vec<Committee>, Committee) {
        let registry = NodeRegistry::generate(70, &AdversaryConfig::default(), 100, 0, seed);
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
            sha256(b"semi-commit"),
            &reputation,
        );
        let committees: Vec<Committee> = assignment
            .committees
            .iter()
            .map(|c| Committee::from_assignment(c, &registry))
            .collect();
        let referee = Committee::referee(&assignment.referee, &registry);
        (registry, committees, referee)
    }

    /// The exchange at `round` under configuration seed `seed`.
    fn exchange(
        registry: &NodeRegistry,
        committees: &[Committee],
        referee: &Committee,
        round: u64,
        seed: u64,
    ) -> (SemiCommitmentOutcome, Books) {
        let config = ProtocolConfig {
            seed,
            ..ProtocolConfig::default()
        };
        let env = RoundEnv {
            config: &config,
            registry,
            referee,
            plan: &FaultPlan::default(),
            round,
        };
        let mut books = Books::default();
        let outcome = run_semi_commitment_exchange(&env, committees, &mut books);
        (outcome, books)
    }

    #[test]
    fn honest_exchange_records_matching_commitments() {
        let (registry, committees, referee) = setup(31);
        let (outcome, books) = exchange(&registry, &committees, &referee, 1, 9);
        assert!(outcome.referee_agreement);
        assert!(outcome.witnesses.is_empty());
        assert_eq!(outcome.recorded_commitments.len(), 3);
        for (committee, recorded) in committees.iter().zip(&outcome.recorded_commitments) {
            assert_eq!(
                *recorded,
                semi_commitment(&committee.member_list_bytes(&registry))
            );
        }
        // Referee members carried the O(m²)-style relay traffic.
        let rm = referee.members[1];
        assert!(
            books
                .metrics
                .node_phase(rm, Phase::SemiCommitmentExchange)
                .msgs_sent
                >= committees.len() as u64
        );
    }

    #[test]
    fn mismatched_commitment_leader_yields_verifiable_witness() {
        let (mut registry, committees, referee) = setup(32);
        let bad_leader = committees[1].leader;
        registry.set_behavior(bad_leader, Behavior::MismatchedCommitment);
        let (outcome, _) = exchange(&registry, &committees, &referee, 2, 10);
        assert_eq!(outcome.witnesses.len(), 1);
        let witness = &outcome.witnesses[0];
        assert_eq!(witness.accused(), bad_leader);
        assert!(
            witness.verify(&registry.node(bad_leader).keypair.public),
            "the witness must verify against the accused leader's key"
        );
        // No witness can be pinned on any *other* (honest) leader.
        for c in &committees {
            if c.leader != bad_leader {
                assert!(!witness.verify(&registry.node(c.leader).keypair.public));
            }
        }
    }
}
