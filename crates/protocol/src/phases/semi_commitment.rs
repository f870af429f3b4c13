//! Phase 2 — semi-commitment exchanging (Algorithm 4).
//!
//! Each leader hashes its member list (`SEMI_COM = H(S)`), sends the commitment
//! plus the list to every referee member, and the signed list to its partial
//! set. The referee committee relays the set of recorded commitments to all
//! key members. Partial set members then cross-check the commitment recorded
//! by `C_R` against the list their leader gave them — any mismatch yields a
//! leader-signed witness (Theorem 2) that feeds the recovery procedure.
//!
//! The referee runs no instance of its own on the set: the block header
//! commits to the recorded commitments, so the block instance certifies
//! them (a departure from Algorithm 4, step 2; see ARCHITECTURE.md).

use cycledger_consensus::witness::{
    member_list_signing_bytes, semi_commitment, CommitmentMismatchEvidence, Witness,
};
use cycledger_crypto::schnorr::sign;
use cycledger_crypto::sha256::Digest;
use cycledger_net::metrics::{MetricsSink, Phase};
use cycledger_net::topology::NodeId;

use crate::adversary::Behavior;
use crate::committee::Committee;
use crate::engine::env::RoundEnv;

/// Outcome of the semi-commitment exchange.
#[derive(Clone, Debug)]
pub struct SemiCommitmentOutcome {
    /// The commitment the referee committee recorded for each committee.
    pub recorded_commitments: Vec<Digest>,
    /// Witnesses produced by partial-set members that caught their leader
    /// committing to a forged member list.
    pub witnesses: Vec<CommitmentMismatchEvidence>,
}

/// Runs the semi-commitment exchange for all committees, accounting its
/// traffic into `metrics`.
pub fn run_semi_commitment_exchange(
    env: &RoundEnv<'_>,
    committees: &[Committee],
    metrics: &mut MetricsSink,
) -> SemiCommitmentOutcome {
    let (registry, referee, round) = (env.registry, env.referee, env.round);
    let phase = Phase::SemiCommitmentExchange;
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
            witnesses.push(CommitmentMismatchEvidence {
                round,
                committee: committee.index,
                leader: committee.leader,
                member_list: true_list.clone(),
                list_signature,
                recorded_commitment: commitment,
            });
        }
    }

    // Step 2: the referee committee relays the set of commitments (the block
    // certificate covers it): every referee member forwards the set to the
    // leaders and partial sets it serves (modelled as every referee member
    // sending to every key member — the O(m²) Table II entry for C_R).
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

    SemiCommitmentOutcome {
        recorded_commitments,
        witnesses,
    }
}

/// What a `FalseAccuser` in `committee`'s partial set brings against the
/// sitting leader: the true member list, claimed to contradict a commitment
/// to the empty list, signed with the accuser's own key. The leader signed
/// none of it, so the witness verifies under no key of the leader's
/// (Claim 4).
pub fn fabricated_witness(env: &RoundEnv<'_>, committee: &Committee, accuser: NodeId) -> Witness {
    let (round, index) = (env.round, committee.index);
    let member_list = committee.member_list_bytes(env.registry);
    let signed = member_list_signing_bytes(round, index, &member_list);
    Witness::CommitmentMismatch(CommitmentMismatchEvidence {
        round,
        committee: index,
        leader: committee.leader,
        list_signature: sign(&env.registry.node(accuser).keypair.secret, &signed),
        member_list,
        recorded_commitment: semi_commitment(&[]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryConfig;
    use crate::config::ProtocolConfig;
    use crate::engine::arena::RoundArena;
    use crate::engine::env::Books;
    use crate::node::NodeRegistry;
    use crate::phases::block_generation::run_block_generation;
    use crate::sortition::{assign_round, AssignmentParams};
    use cycledger_crypto::sha256::sha256;
    use cycledger_ledger::block::{Block, Chain};
    use cycledger_ledger::workload::{Workload, WorkloadConfig};
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

    /// The exchange at `round` then block generation on an empty chain with
    /// no candidate over genesis shards, both under configuration seed `seed`: the exchange's
    /// outcome, the block (if the referee certified one) and the books of
    /// both.
    fn exchange(
        registry: &NodeRegistry,
        committees: &[Committee],
        referee: &Committee,
        round: u64,
        seed: u64,
    ) -> (SemiCommitmentOutcome, Option<Block>, Books) {
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
        let outcome = run_semi_commitment_exchange(&env, committees, &mut books.metrics);
        let reputation = ReputationTable::with_members(registry.ids());
        let utxo_sets = Workload::new(WorkloadConfig {
            num_shards: committees.len(),
            ..WorkloadConfig::default()
        })
        .build_genesis_utxo_sets();
        let block = run_block_generation(
            &env,
            &Chain::new(),
            (None, &outcome.recorded_commitments, &[], &[]),
            &mut RoundArena::new(),
            &utxo_sets,
            &reputation,
            &mut books,
        );
        (outcome, block.block, books)
    }

    #[test]
    fn honest_exchange_records_matching_commitments() {
        let (registry, committees, referee) = setup(31);
        let (outcome, block, books) = exchange(&registry, &committees, &referee, 1, 9);
        assert!(block.is_some());
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
        let (outcome, block, _) = exchange(&registry, &committees, &referee, 2, 10);
        assert_eq!(outcome.witnesses.len(), 1);
        let witness = &outcome.witnesses[0];
        assert_eq!(witness.leader, bad_leader);
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
        // The block certificate covers what the referee recorded, the forged
        // commitment included, and so fixes the commitment the witness is
        // checked against.
        let header = block.expect("the referee certifies the block").header;
        let recorded = &outcome.recorded_commitments;
        assert_eq!(header.commitments_hash, Block::commitments_hash(recorded));
        let honest: Vec<_> = committees
            .iter()
            .map(|c| semi_commitment(&c.member_list_bytes(&registry)))
            .collect();
        assert_ne!(recorded[1], honest[1]);
        assert_ne!(header.commitments_hash, Block::commitments_hash(&honest));
    }
}
