//! Phase 7 — block generation and propagation (§IV-G).
//!
//! The referee committee verifies the certified `TXdecSET`s it received,
//! re-validates the transactions against the shard UTXO sets, packs the valid
//! ones together with the next round's configuration into block `B^r`, agrees on
//! it with Algorithm 3, and releases it so that each body crosses the wire
//! once (a departure from §IV-G; see [`cycledger_ledger::block`]): the header
//! to every node with its share of the configuration — the shared leaf, and
//! its own next-round committee's row — and each shard's slice of the body
//! to that shard's committee. A member whose row of its committee's certified
//! `V List` is not all-`Unknown` holds the bodies of the list's columns from
//! the `TXList`, so its slice names those by column; every other member gets
//! the bodies whole. Every committee then applies the block to the UTXOs it
//! maintains, and transaction fees are distributed proportionally to
//! `g(reputation)`.

use cycledger_consensus::messages::Alg3Message;
use cycledger_consensus::votes::{Vote, VoteVector};
use cycledger_crypto::sha256::Digest;
use cycledger_ledger::block::{
    index_slices, Block, BlockHeader, Chain, CommitteeRow, CompactSlice, NextRoundConfig, Seat,
    SharedConfig,
};
use cycledger_ledger::utxo::UtxoSet;
use cycledger_net::metrics::Phase;
use cycledger_net::network::SimNetwork;
use cycledger_net::topology::NodeId;
use cycledger_reputation::ReputationTable;

use crate::committee::{run_inside_consensus, Committee, LeaderFault};
use crate::engine::arena::RoundArena;
use crate::engine::env::{Books, RoundEnv, Task};
use crate::phases::intra::IntraOutcome;
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

/// What propagation sends a node and what it keeps, `(sent, kept)` in
/// bytes, besides the header: of its slice and of its share of the
/// configuration.
#[derive(Clone, Copy, Debug)]
struct Due {
    slice: (u64, u64),
    config: (u64, u64),
}

/// Runs block generation over the candidates staged in `arena` (drained
/// here), extending `chain`'s tip, and distributes fees; the phase's traffic
/// and the referee instance's go into `books`. The block carries the `next`
/// round's configuration, and its header commits to the semi-commitments
/// the referee `recorded` this round: the referee's one instance certifies
/// both. The round's `committees` receive their shards' slices, compact to
/// the members the `intra` outcome the referee admitted shows voting.
///
/// The block's slice index is left in `arena.touched` for
/// the per-shard apply.
///
/// The returned block is **not** applied to `utxo_sets`: application is
/// per-shard-parallel work the engine's block-generation phase hands to the
/// [`crate::engine::ShardExecutor`] (each shard's set is disjoint), keeping
/// this function a pure map from candidates to a certified block.
pub fn run_block_generation(
    env: &RoundEnv<'_>,
    chain: &Chain,
    (next, recorded, committees, intra): (
        Option<&RoundAssignment>,
        &[Digest],
        &[Committee],
        &[IntraOutcome],
    ),
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
    let next_round = next.map_or_else(NextRoundConfig::default, |next| {
        let seats = |nodes: &[NodeId]| {
            let seat = |n: &NodeId| Seat {
                node: n.0,
                reputation_fp: ReputationTable::to_fixed_point(reputation.get(*n)),
            };
            nodes.iter().map(seat).collect()
        };
        NextRoundConfig {
            shared: SharedConfig {
                referee: seats(&next.referee),
                leaders: next.committees.iter().map(|c| c.leader.0).collect(),
                randomness: next.randomness,
            },
            rows: next
                .committees
                .iter()
                .map(|c| CommitteeRow {
                    seats: seats(&c.members),
                    partial_set: c.partial_set.iter().map(|n| n.0).collect(),
                })
                .collect(),
        }
    });
    let (tip, commitments) = (chain.tip_hash(), Block::commitments_hash(recorded));
    let m = utxo_sets.len();
    let slices = &mut arena.touched;
    index_slices(&accepted, utxo_sets[0].routes(), slices);
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
    //    to every node (each referee member serves a part of the network),
    //    one envelope per recipient and never the whole block. With it go
    //    the node's share of the next round's configuration — the shared
    //    leaf and the rows root, and to a member of next-round committee j
    //    also row j with its path — and, to a member of committee k, slice k
    //    with its path to the body root. A member whose row of k's
    //    certified V List is not all-Unknown received and voted on k's
    //    TXList, so its slice names each column body by its index
    //    (`Block::compact_slice`); any other member gets the bodies whole.
    //    Each checks what it gets against the certified header. Every node
    //    stores what it keeps: the header, the shared leaf and its row, and
    //    its slice's bodies; the referee keeps the whole block.
    let config = &block.next_round;
    let outside = Due {
        slice: (0, 0),
        config: config.share_bytes(None),
    };
    let mut due = vec![outside; all_nodes.len()];
    let (slices, columns) = (&arena.touched, &mut arena.columns);
    for committee in committees {
        let k = committee.index;
        let admitted = intra
            .iter()
            .find(|o| o.committee == k && o.certificate.is_some());
        let (ids, rows) = admitted.map_or((&[][..], &[][..]), |o| {
            (&o.vote_list.tx_ids[..], &o.vote_list.votes[..])
        });
        columns.clear();
        columns.extend(CompactSlice::nameable(ids));
        let (mut whole, mut compact) = (0, 0);
        for tx in slices[k].iter().map(|&p| &block.transactions[p]) {
            whole += tx.wire_size();
            compact += CompactSlice::entry_bytes(tx, columns.contains(&tx.id()));
        }
        let voted = |row: &VoteVector| row.votes.iter().any(|&v| v != Vote::Unknown);
        for &member in &committee.members {
            let holds = rows.iter().any(|row| row.voter == member && voted(row));
            let sent = if holds { compact } else { whole };
            due[member.0 as usize].slice = (sent + Block::path_bytes(m), whole);
        }
    }
    for (j, committee) in next.map_or(&[][..], |n| &n.committees).iter().enumerate() {
        for member in &committee.members {
            due[member.0 as usize].config = config.share_bytes(Some(j));
        }
    }
    for (i, &node) in all_nodes.iter().enumerate() {
        let server = referee.members[i % referee.members.len()];
        let Due { slice, config } = due[node.0 as usize];
        if node != server {
            let sent = BlockHeader::WIRE_BYTES + config.0 + slice.0;
            metrics.record_message(phase, server, node, sent);
        }
        if referee.members.contains(&node) {
            metrics.record_storage(phase, node, block.wire_size());
        } else {
            metrics.record_storage(phase, node, BlockHeader::WIRE_BYTES + config.1 + slice.1);
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
    use crate::adversary::{AdversaryConfig, Behavior};
    use crate::committee::Committee;
    use crate::config::ProtocolConfig;
    use crate::engine::arena::ShardScratch;
    use crate::node::NodeRegistry;
    use crate::phases::intra::run_intra_consensus;
    use crate::phases::xshard;
    use crate::sortition::{assign_round, AssignmentParams};
    use cycledger_crypto::sha256::sha256;
    use cycledger_ledger::transaction::Transaction;
    use cycledger_ledger::workload::{GeneratedTx, Workload, WorkloadConfig};
    use cycledger_net::faults::FaultPlan;

    struct Fixture {
        registry: NodeRegistry,
        referee: Committee,
        committees: Vec<Committee>,
        all_nodes: Vec<NodeId>,
        utxo_sets: Vec<UtxoSet>,
        valid: Vec<GeneratedTx>,
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
        let valid = workload.generate_batch(40);
        let mut invalid_workload = Workload::new(WorkloadConfig {
            num_shards: 3,
            accounts_per_shard: 16,
            genesis_amount: 1_000,
            cross_shard_ratio: 0.0,
            invalid_ratio: 1.0,
            seed: seed + 1,
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
        fn env<'a>(&'a self, config: &'a ProtocolConfig, plan: &'a FaultPlan) -> RoundEnv<'a> {
            RoundEnv {
                config,
                registry: &self.registry,
                referee: &self.referee,
                plan,
                round: 0,
            }
        }

        fn valid_txs(&self) -> Vec<Transaction> {
            self.valid.iter().map(|g| g.tx.clone()).collect()
        }

        /// Committee `k`'s `TXList`: its offered transactions, then its
        /// outbound ones in outbound-vector order — the bodies behind its
        /// `V List`'s columns.
        fn txlist(&self, k: usize) -> (Vec<GeneratedTx>, Vec<GeneratedTx>) {
            let m = self.committees.len();
            let offered = self.valid.iter().filter(|g| g.tx.home_shard(m) == Some(k));
            let cross: Vec<GeneratedTx> = self
                .valid
                .iter()
                .filter(|g| g.tx.home_shard(m).is_none())
                .cloned()
                .collect();
            let outbound = xshard::group_outbound(&cross, m);
            let lists = outbound.get(&k).map_or(&[][..], Vec::as_slice);
            let outbound = lists.iter().flat_map(|l| l.txs.iter().map(|&g| g.clone()));
            (offered.cloned().collect(), outbound.collect())
        }

        /// Every committee's intra consensus over its `TXList`.
        fn vote(&self) -> Vec<IntraOutcome> {
            let (config, plan) = (ProtocolConfig::default(), FaultPlan::default());
            let env = self.env(&config, &plan);
            let m = self.committees.len();
            let cross: Vec<GeneratedTx> = self
                .valid
                .iter()
                .filter(|g| g.tx.home_shard(m).is_none())
                .cloned()
                .collect();
            let outbound = xshard::group_outbound(&cross, m);
            let mut outcomes = Vec::new();
            for (k, committee) in self.committees.iter().enumerate() {
                let offered = self.txlist(k).0;
                let lists = outbound.get(&k).map_or(&[][..], Vec::as_slice);
                let utxo = &self.utxo_sets[k];
                let scratch = &mut ShardScratch::default();
                let outcome =
                    run_intra_consensus(&env, committee, false, utxo, &offered, lists, scratch);
                assert!(outcome.certificate.is_some(), "committee {k}");
                outcomes.push(outcome);
            }
            outcomes
        }

        /// The first block of a chain over `candidates`, under configuration
        /// seed `seed`, the committees having voted as `intra` says.
        fn generate(
            &self,
            next: Option<&RoundAssignment>,
            candidates: Vec<Transaction>,
            intra: &[IntraOutcome],
            seed: u64,
        ) -> (BlockOutcome, Books) {
            let config = ProtocolConfig {
                seed,
                ..ProtocolConfig::default()
            };
            let plan = FaultPlan::default();
            let mut arena = RoundArena::new();
            arena.candidates = candidates;
            let mut books = Books::default();
            let outcome = run_block_generation(
                &self.env(&config, &plan),
                &Chain::new(),
                (next, &[], &self.committees, intra),
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

        /// The next round's assignment over the first `solvers` nodes.
        fn next(&self, solvers: usize) -> RoundAssignment {
            assign_round(
                &self.registry,
                &self.registry.ids()[..solvers],
                AssignmentParams {
                    committees: 3,
                    partial_set_size: 3,
                    referee_size: 7,
                },
                1,
                sha256(b"next"),
                &self.reputation,
            )
        }
    }

    #[test]
    fn block_packs_valid_transactions_and_applies_them() {
        let mut fx = fixture(91);
        let before: u64 = fx.utxo_sets.iter().map(|s| s.total_value()).sum();
        let candidates: Vec<Transaction> = fx
            .valid_txs()
            .into_iter()
            .chain(fx.invalid.iter().cloned())
            .collect();
        let (outcome, books) = fx.generate(None, candidates, &[], 1);
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
        let tx = fx.valid[0].tx.clone();
        let (outcome, _) = fx.generate(None, vec![tx.clone(), tx], &[], 2);
        let block = outcome.block.unwrap();
        assert_eq!(block.tx_count(), 1);
        assert_eq!(outcome.rejected_by_referee, 1);
    }

    #[test]
    fn next_round_config_is_embedded() {
        let fx = fixture(93);
        let next = fx.next(60);
        let (outcome, _) = fx.generate(Some(&next), fx.valid_txs(), &[], 3);
        let block = outcome.block.unwrap();
        let config = &block.next_round;
        assert_eq!(config.shared.leaders.len(), 3);
        assert_eq!(config.shared.referee.len(), 7);
        assert_eq!(config.shared.randomness, next.randomness);
        assert_eq!(config.rows.len(), 3);
        for (row, committee) in config.rows.iter().zip(&next.committees) {
            let members = row.seats.iter().map(|s| NodeId(s.node));
            assert!(members.eq(committee.members.iter().copied()));
            assert_eq!(row.partial_set.len(), 3);
        }
        let seated = config.rows.iter().map(|r| r.seats.len()).sum::<usize>();
        assert_eq!(
            seated + config.shared.referee.len(),
            next.participants().len()
        );
    }

    /// What propagation charges `node`, sent and kept: the header, its share
    /// of the configuration, and its committee's slice — by column if its
    /// row of the committee's certified `V List` is not all-`Unknown`, else
    /// whole — each verified against the certified header here, from the
    /// bodies the node holds.
    fn expected(
        fx: &Fixture,
        block: &Block,
        next: &RoundAssignment,
        intra: &[IntraOutcome],
        node: NodeId,
    ) -> (u64, u64) {
        let in_next = next
            .committees
            .iter()
            .position(|c| c.members.contains(&node));
        let share = block.config_share(in_next).unwrap();
        assert!(share.verify(&block.header), "{node:?}");
        let (shared, row) = (&share.shared, share.row.as_ref());
        let config_kept = shared.wire_size() + row.map_or(0, |r| r.row.wire_size());
        let (mut sent, mut kept) = (share.wire_size(), config_kept);
        if let Some(committee) = fx.committees.iter().find(|c| c.members.contains(&node)) {
            let k = committee.index;
            let slice = block.slice(k).unwrap();
            assert!(slice.verify(&block.header), "committee {k}");
            let list = &intra[k].vote_list;
            let row = list.votes.iter().find(|row| row.voter == node).unwrap();
            let (offered, outbound) = fx.txlist(k);
            let held: Vec<Transaction> =
                offered.into_iter().chain(outbound).map(|g| g.tx).collect();
            assert!(held
                .iter()
                .map(Transaction::id)
                .eq(list.tx_ids.iter().copied()));
            if row.votes.iter().all(|&v| v == Vote::Unknown) {
                sent += slice.wire_size();
            } else {
                let compact = block.compact_slice(k, &list.tx_ids).unwrap();
                assert!(compact.verify(&held, &block.header), "committee {k}");
                assert_eq!(compact.expand(&held).unwrap(), slice);
                sent += compact.wire_size();
            }
            kept += slice.wire_size() - Block::path_bytes(3);
        }
        let header = BlockHeader::WIRE_BYTES;
        (header + sent, header + kept)
    }

    #[test]
    fn propagation_sends_each_node_the_header_the_config_and_its_own_slice() {
        let fx = fixture(94);
        let intra = fx.vote();
        // Nodes 55..60 solve no puzzle this round or the next.
        let next = fx.next(55);
        let (outcome, books) = fx.generate(Some(&next), fx.valid_txs(), &intra, 4);
        let block = outcome.block.unwrap();
        let metrics = &books.metrics;
        let referee = &fx.referee.members;
        let (mut outside, mut compact, mut envelopes, mut bytes) = (0, 0, 0, 0);
        for &node in &fx.all_nodes {
            let counters = metrics.node_phase(node, Phase::BlockGeneration);
            let (sent, kept) = expected(&fx, &block, &next, &intra, node);
            if referee.contains(&node) {
                // Its counters hold the referee's instance too.
                assert_eq!(counters.storage_bytes, block.wire_size(), "{node:?}");
                continue;
            }
            assert_eq!(counters.storage_bytes, kept, "{node:?}");
            // One envelope from the node's server, and no other traffic.
            assert_eq!(counters.msgs_received, 1, "{node:?}");
            assert_eq!(counters.msgs_sent, 0, "{node:?}");
            assert_eq!(counters.bytes_received, sent, "{node:?}");
            let in_a_committee = fx.committees.iter().any(|c| c.members.contains(&node));
            compact += usize::from(in_a_committee && sent < kept);
            if node.0 >= 55 {
                // In no committee this round or the next: the header and
                // the shared leaf with the rows root.
                let shared = block.next_round.shared.wire_size() + 32;
                assert_eq!(sent, BlockHeader::WIRE_BYTES + shared, "{node:?}");
                outside += 1;
            }
            envelopes += counters.msgs_received;
            bytes += counters.bytes_received;
        }
        assert_eq!(outside, 5);
        assert_eq!(compact, 50 - 7, "every committee member holds its columns");
        let recipients = fx.all_nodes.len() - referee.len();
        assert_eq!(envelopes as usize, recipients, "one envelope a recipient");
        // Far below the whole block to every recipient.
        assert!(bytes * 4 < block.wire_size() * recipients as u64);
    }

    /// A lazy voter's row is all-`Unknown`: it counts as holding nothing and
    /// gets its committee's slice whole, and so does every member when the
    /// committee's `V List` is not certified.
    #[test]
    fn a_member_whose_row_is_all_unknown_gets_the_bodies_whole() {
        let mut fx = fixture(95);
        let committee = &fx.committees[1];
        let key = |n: &NodeId| *n == committee.leader || committee.partial_set.contains(n);
        let lazy = *committee.members.iter().rfind(|n| !key(n)).unwrap();
        fx.registry.set_behavior(lazy, Behavior::LazyVoter);
        let mut intra = fx.vote();
        let next = fx.next(55);
        let (outcome, books) = fx.generate(Some(&next), fx.valid_txs(), &intra, 5);
        let block = outcome.block.unwrap();
        let received = |books: &Books, node| {
            let counters = books.metrics.node_phase(node, Phase::BlockGeneration);
            counters.bytes_received
        };
        let in_next = next
            .committees
            .iter()
            .position(|c| c.members.contains(&lazy));
        let share = block.config_share(in_next).unwrap().wire_size();
        let whole = block.slice(1).unwrap().wire_size();
        assert_eq!(
            received(&books, lazy),
            BlockHeader::WIRE_BYTES + share + whole
        );
        assert_eq!(
            received(&books, lazy),
            expected(&fx, &block, &next, &intra, lazy).0
        );
        let voter = fx.committees[1].leader;
        let list = &intra[1].vote_list;
        let compact = block.compact_slice(1, &list.tx_ids).unwrap().wire_size();
        assert!(compact < whole);
        let in_next = next
            .committees
            .iter()
            .position(|c| c.members.contains(&voter));
        let share = block.config_share(in_next).unwrap().wire_size();
        let header = BlockHeader::WIRE_BYTES;
        assert_eq!(received(&books, voter), header + share + compact);

        // Refused by the referee, the V List vouches for no member.
        intra[1].certificate = None;
        let (outcome, books) = fx.generate(Some(&next), fx.valid_txs(), &intra, 5);
        assert_eq!(outcome.block.unwrap().header, block.header);
        assert_eq!(received(&books, voter), header + share + whole);
    }
}
