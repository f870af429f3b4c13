//! Phase 7 — block generation and propagation (§IV-G).
//!
//! The referee committee verifies the certified `TXdecSET`s it received,
//! re-validates the transactions against the shard UTXO sets, packs the valid
//! ones together with the next round's configuration into block `B^r`, agrees on
//! it with Algorithm 3, and releases it to the whole network. Every committee
//! then applies the block to the UTXOs it maintains, and transaction fees are
//! distributed proportionally to `g(reputation)`.

use cycledger_consensus::messages::Alg3Message;
use cycledger_crypto::sha256::Digest;
use cycledger_ledger::block::{Block, Chain, NextRoundConfig};
use cycledger_ledger::utxo::UtxoSet;
use cycledger_net::metrics::Phase;
use cycledger_net::network::SimNetwork;
use cycledger_net::topology::NodeId;
use cycledger_reputation::ReputationTable;

use crate::committee::{run_inside_consensus, LeaderFault};
use crate::engine::arena::RoundArena;
use crate::engine::env::{Books, RoundEnv, Task};
use crate::sortition::RoundAssignment;

/// Outcome of block generation.
#[derive(Clone, Debug)]
pub struct BlockOutcome {
    /// The block, if the referee committee reached agreement.
    pub block: Option<Block>,
    /// Transactions the referee committee rejected on re-validation (a nonzero
    /// count indicates a committee certified something invalid — should only
    /// happen when a committee lost its honest majority).
    pub rejected_by_referee: usize,
    /// Fee rewards distributed this round, `(node, amount)`.
    pub rewards: Vec<(NodeId, u64)>,
}

/// Runs block generation over the candidates staged in `arena` (drained
/// here), extending `chain`'s tip, and distributes fees; the phase's traffic
/// and the referee instance's go into `books`. The block carries the `next`
/// round's configuration, and its header commits to the semi-commitments
/// the referee `recorded` this round: the referee's one instance certifies
/// both.
///
/// The returned block is **not** applied to `utxo_sets`: application is
/// per-shard-parallel work the engine's block-generation phase hands to the
/// [`crate::engine::ShardExecutor`] (each shard's set is disjoint), keeping
/// this function a pure map from candidates to a certified block.
pub fn run_block_generation(
    env: &RoundEnv<'_>,
    chain: &Chain,
    (next, recorded): (Option<&RoundAssignment>, &[Digest]),
    arena: &mut RoundArena,
    utxo_sets: &[UtxoSet],
    reputation: &ReputationTable,
    books: &mut Books,
) -> BlockOutcome {
    let phase = Phase::BlockGeneration;
    let (referee, all_nodes) = (env.referee, env.registry.ids());
    let (overlay, height) = (&mut arena.overlay, chain.height() as u64);

    // 1. Re-validate candidate transactions against the current UTXO state,
    //    applying them incrementally so intra-round chains (A→B then B→C) are
    //    honoured and double-spends across committees are caught. The overlay
    //    records only the candidates' deltas over the untouched base sets
    //    (see `UtxoOverlay`).
    overlay.clear();
    let mut accepted = Vec::with_capacity(arena.candidates.len());
    let mut rejected = 0usize;
    for tx in arena.candidates.drain(..) {
        if overlay.validate_across(&tx, utxo_sets).is_ok() {
            overlay.apply(&tx);
            accepted.push(tx);
        } else {
            rejected += 1;
        }
    }

    // 2. Assemble the block with the next round's configuration.
    let next_round = match next {
        Some(next) => NextRoundConfig {
            participants: next.participants().iter().map(|n| n.0).collect(),
            reputations_fp: next
                .participants()
                .iter()
                .map(|n| ReputationTable::to_fixed_point(reputation.get(*n)))
                .collect(),
            referee: next.referee.iter().map(|n| n.0).collect(),
            leaders: next.committees.iter().map(|c| c.leader.0).collect(),
            partial_sets: next
                .committees
                .iter()
                .map(|c| c.partial_set.iter().map(|n| n.0).collect())
                .collect(),
            randomness: next.randomness,
        },
        None => NextRoundConfig::default(),
    };
    let (tip, commitments) = (chain.tip_hash(), Block::commitments_hash(recorded));
    let block = Block::assemble(height, tip, accepted, next_round, commitments);

    // 3. The referee committee agrees on the block via Algorithm 3.
    let mut net: SimNetwork<Alg3Message> = env.open(Task::Block);
    let consensus = run_inside_consensus(
        &mut net,
        referee,
        env.registry,
        Task::Block.instance(height),
        block.header_hash().as_bytes().to_vec(),
        LeaderFault::None,
        true,
    );
    books.absorb(&Books::close(net));
    let metrics = &mut books.metrics;
    if consensus.certificate.is_none() {
        return BlockOutcome {
            block: None,
            rejected_by_referee: rejected,
            rewards: Vec::new(),
        };
    }

    // 4. Propagation: the referee committee releases the block to every node
    //    (each referee member serves a slice of the network), and every node
    //    stores the slice of state it is responsible for.
    let block_bytes = block.wire_size();
    for (i, &node) in all_nodes.iter().enumerate() {
        let server = referee.members[i % referee.members.len()];
        if node != server {
            metrics.record_message(phase, server, node, block_bytes);
        }
    }
    for &rm in &referee.members {
        metrics.record_storage(phase, rm, block_bytes);
    }

    // 5. Fees are distributed proportionally to g(reputation) (§IV-G).
    //    (Step numbering from §IV-G; applying the block to the shard UTXO
    //    sets happens in the engine, one executor task per shard.)
    let rewards = reputation.distribute_fees(&all_nodes, block.total_fees());

    BlockOutcome {
        block: Some(block),
        rejected_by_referee: rejected,
        rewards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryConfig;
    use crate::committee::Committee;
    use crate::config::ProtocolConfig;
    use crate::node::NodeRegistry;
    use crate::sortition::{assign_round, AssignmentParams};
    use cycledger_crypto::sha256::sha256;
    use cycledger_ledger::transaction::Transaction;
    use cycledger_ledger::workload::{Workload, WorkloadConfig};
    use cycledger_net::faults::FaultPlan;

    struct Fixture {
        registry: NodeRegistry,
        referee: Committee,
        all_nodes: Vec<NodeId>,
        utxo_sets: Vec<UtxoSet>,
        valid: Vec<Transaction>,
        invalid: Vec<Transaction>,
        reputation: ReputationTable,
    }

    fn fixture(seed: u64) -> Fixture {
        let registry = NodeRegistry::generate(60, &AdversaryConfig::default(), 100, 0, seed);
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
            sha256(b"block-phase"),
            &reputation,
        );
        let referee = Committee::referee(&assignment.referee, &registry);
        let mut workload = Workload::new(WorkloadConfig {
            num_shards: 3,
            accounts_per_shard: 16,
            genesis_amount: 1_000,
            cross_shard_ratio: 0.3,
            invalid_ratio: 0.0,
            seed,
        });
        let utxo_sets = workload.build_genesis_utxo_sets();
        let valid: Vec<Transaction> = workload
            .generate_batch(40)
            .into_iter()
            .map(|g| g.tx)
            .collect();
        let mut invalid_workload = Workload::new(WorkloadConfig {
            invalid_ratio: 1.0,
            seed: seed + 1,
            ..WorkloadConfig {
                num_shards: 3,
                accounts_per_shard: 16,
                genesis_amount: 1_000,
                cross_shard_ratio: 0.0,
                invalid_ratio: 1.0,
                seed: seed + 1,
            }
        });
        let invalid: Vec<Transaction> = invalid_workload
            .generate_batch(10)
            .into_iter()
            .map(|g| g.tx)
            .collect();
        Fixture {
            all_nodes: registry.ids(),
            registry,
            referee,
            utxo_sets,
            valid,
            invalid,
            reputation,
        }
    }

    impl Fixture {
        /// The first block of a chain over `candidates`, under configuration
        /// seed `seed`.
        fn generate(
            &self,
            next: Option<&RoundAssignment>,
            candidates: Vec<Transaction>,
            seed: u64,
        ) -> (BlockOutcome, Books) {
            let config = ProtocolConfig {
                seed,
                ..ProtocolConfig::default()
            };
            let env = RoundEnv {
                config: &config,
                registry: &self.registry,
                referee: &self.referee,
                plan: &FaultPlan::default(),
                round: 0,
            };
            let mut arena = RoundArena::new();
            arena.candidates = candidates;
            let mut books = Books::default();
            let outcome = run_block_generation(
                &env,
                &Chain::new(),
                (next, &[]),
                &mut arena,
                &self.utxo_sets,
                &self.reputation,
                &mut books,
            );
            assert!(
                arena.candidates.is_empty(),
                "the staged candidates are drained"
            );
            (outcome, books)
        }
    }

    #[test]
    fn block_packs_valid_transactions_and_applies_them() {
        let mut fx = fixture(91);
        let before: u64 = fx.utxo_sets.iter().map(|s| s.total_value()).sum();
        let candidates: Vec<Transaction> = fx
            .valid
            .iter()
            .cloned()
            .chain(fx.invalid.iter().cloned())
            .collect();
        let (outcome, books) = fx.generate(None, candidates, 1);
        let block = outcome.block.expect("block produced");
        assert_eq!(block.tx_count(), fx.valid.len());
        assert_eq!(outcome.rejected_by_referee, fx.invalid.len());
        assert!(block.verify_structure());
        // Applying the block (as the engine does per shard) conserves value
        // up to fees.
        for set in fx.utxo_sets.iter_mut() {
            for tx in &block.transactions {
                set.apply(tx);
            }
        }
        let after: u64 = fx.utxo_sets.iter().map(|s| s.total_value()).sum();
        assert_eq!(before, after + block.total_fees());
        // Rewards sum to the collected fees.
        let reward_sum: u64 = outcome.rewards.iter().map(|(_, r)| r).sum();
        assert_eq!(reward_sum, block.total_fees());
        // Every node received the block.
        let total = books.metrics.phase_total(Phase::BlockGeneration);
        assert!(total.msgs_sent as usize >= fx.all_nodes.len() - fx.referee.members.len());
    }

    #[test]
    fn intra_round_double_spends_are_caught_by_referee() {
        let fx = fixture(92);
        // Submit the same transaction twice: the second copy must be rejected.
        let tx = fx.valid[0].clone();
        let (outcome, _) = fx.generate(None, vec![tx.clone(), tx], 2);
        let block = outcome.block.unwrap();
        assert_eq!(block.tx_count(), 1);
        assert_eq!(outcome.rejected_by_referee, 1);
    }

    #[test]
    fn next_round_config_is_embedded() {
        let fx = fixture(93);
        let next = assign_round(
            &fx.registry,
            &fx.registry.ids(),
            AssignmentParams {
                committees: 3,
                partial_set_size: 3,
                referee_size: 7,
            },
            1,
            sha256(b"next"),
            &fx.reputation,
        );
        let (outcome, _) = fx.generate(Some(&next), fx.valid.clone(), 3);
        let block = outcome.block.unwrap();
        assert_eq!(block.next_round.leaders.len(), 3);
        assert_eq!(block.next_round.referee.len(), 7);
        assert_eq!(block.next_round.randomness, next.randomness);
        assert_eq!(
            block.next_round.participants.len(),
            block.next_round.reputations_fp.len()
        );
    }
}
