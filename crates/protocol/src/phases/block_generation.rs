//! Phase 7 — block generation and propagation (§IV-G).
//!
//! The referee committee verifies the certified `TXdecSET`s it received,
//! re-validates the transactions against the shard UTXO sets, packs the valid
//! ones together with the next round's configuration into block `B^r`, agrees on
//! it with Algorithm 3, and releases it: the header and the configuration to
//! every node, and each shard's slice of the body to that shard's committee
//! (a departure from §IV-G; see [`cycledger_ledger::block`]). Every committee
//! then applies the block to the UTXOs it maintains, and transaction fees are
//! distributed proportionally to `g(reputation)`.

use cycledger_consensus::messages::Alg3Message;
use cycledger_crypto::sha256::Digest;
use cycledger_ledger::block::{Block, BlockHeader, Chain, NextRoundConfig};
use cycledger_ledger::utxo::UtxoSet;
use cycledger_net::metrics::Phase;
use cycledger_net::network::SimNetwork;
use cycledger_net::topology::NodeId;
use cycledger_reputation::ReputationTable;

use crate::committee::{run_inside_consensus, Committee, LeaderFault};
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
/// both. The round's `committees` receive their shards' slices.
///
/// The block's slice index is left in `arena` ([`RoundArena::touched`]) for
/// the per-shard apply.
///
/// The returned block is **not** applied to `utxo_sets`: application is
/// per-shard-parallel work the engine's block-generation phase hands to the
/// [`crate::engine::ShardExecutor`] (each shard's set is disjoint), keeping
/// this function a pure map from candidates to a certified block.
pub fn run_block_generation(
    env: &RoundEnv<'_>,
    chain: &Chain,
    (next, recorded, committees): (Option<&RoundAssignment>, &[Digest], &[Committee]),
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

    // 2. Assemble the block with the next round's configuration, its body
    //    root over the slices of the one touched-shard index this round
    //    builds.
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
    let m = utxo_sets.len();
    let slices = arena.index_by_touched_shard(&accepted, m);
    let block = Block::assemble(height, tip, accepted, slices, next_round, commitments);

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

    // 4. Propagation: the referee committee releases the certified header
    //    and the next round's configuration to every node (each referee
    //    member serves a part of the network), and to a member of committee
    //    k also slice k of the body with its path to the header's body root,
    //    against which the member checks it — one envelope per recipient,
    //    never the whole block. Every node stores what it keeps: the header,
    //    the configuration and its own slice; the referee keeps the whole
    //    block.
    let (header_and_config, path) = (
        BlockHeader::WIRE_BYTES + block.next_round.wire_size(),
        Block::path_bytes(m),
    );
    let mut slice_of = vec![None; all_nodes.len()];
    for committee in committees {
        let positions = slices[committee.index].iter();
        let bytes: u64 = positions.map(|&p| block.transactions[p].wire_size()).sum();
        for member in &committee.members {
            slice_of[member.0 as usize] = Some(bytes);
        }
    }
    for (i, &node) in all_nodes.iter().enumerate() {
        let server = referee.members[i % referee.members.len()];
        let slice = slice_of[node.0 as usize];
        if node != server {
            let sent = header_and_config + slice.map_or(0, |bytes| bytes + path);
            metrics.record_message(phase, server, node, sent);
        }
        if referee.members.contains(&node) {
            metrics.record_storage(phase, node, block.wire_size());
        } else {
            metrics.record_storage(phase, node, header_and_config + slice.unwrap_or(0));
        }
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
        committees: Vec<Committee>,
        all_nodes: Vec<NodeId>,
        utxo_sets: Vec<UtxoSet>,
        valid: Vec<Transaction>,
        invalid: Vec<Transaction>,
        reputation: ReputationTable,
    }

    fn fixture(seed: u64) -> Fixture {
        let registry = NodeRegistry::generate(60, &AdversaryConfig::default(), 100, 0, seed);
        let reputation = ReputationTable::with_members(registry.ids());
        // Ten of the sixty nodes solve no puzzle: they are in no committee.
        let assignment = assign_round(
            &registry,
            &registry.ids()[..50],
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
        let committees = assignment
            .committees
            .iter()
            .map(|c| Committee::from_assignment(c, &registry))
            .collect();
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
            committees,
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
                (next, &[], &self.committees),
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
        // Every node received the header.
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

    #[test]
    fn propagation_sends_each_node_the_header_the_config_and_its_own_slice() {
        let fx = fixture(94);
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
        let (outcome, books) = fx.generate(Some(&next), fx.valid.clone(), 4);
        let block = outcome.block.unwrap();
        let metrics = &books.metrics;
        let header_and_config = BlockHeader::WIRE_BYTES + block.next_round.wire_size();
        // What each node is sent besides the header and the configuration,
        // and what it keeps of that: its committee's slice and path, and the
        // slice alone.
        let own = |node: NodeId| {
            let committee = fx.committees.iter().find(|c| c.members.contains(&node));
            committee.map_or((0, 0), |c| {
                let slice = block.slice(c.index).unwrap();
                assert!(slice.verify(&block.header), "committee {}", c.index);
                (slice.wire_size(), slice.wire_size() - Block::path_bytes(3))
            })
        };
        let referee = &fx.referee.members;
        let (mut outside, mut envelopes, mut bytes) = (0, 0, 0);
        for (i, &node) in fx.all_nodes.iter().enumerate() {
            let (sent, kept) = own(node);
            let counters = metrics.node_phase(node, Phase::BlockGeneration);
            if referee.contains(&node) {
                assert_eq!(counters.storage_bytes, block.wire_size(), "{node:?}");
                assert_eq!((sent, kept), (0, 0), "the referee is in no committee");
                continue;
            }
            // One envelope from the node's server, and no other traffic.
            assert_ne!(referee[i % referee.len()], node);
            assert_eq!(counters.msgs_received, 1, "{node:?}");
            assert_eq!(counters.msgs_sent, 0, "{node:?}");
            assert_eq!(
                counters.bytes_received,
                header_and_config + sent,
                "{node:?}"
            );
            assert_eq!(counters.storage_bytes, header_and_config + kept, "{node:?}");
            outside += usize::from(sent == 0);
            envelopes += counters.msgs_received;
            bytes += counters.bytes_received;
        }
        assert_eq!(
            outside, 10,
            "nodes outside every committee get the header and config only"
        );
        let recipients = fx.all_nodes.len() - referee.len();
        assert_eq!(envelopes as usize, recipients);
        // Far below the whole block to every recipient.
        assert!(bytes * 2 < block.wire_size() * recipients as u64);
    }
}
