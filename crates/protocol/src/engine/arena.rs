//! [`RoundArena`]: per-round scratch state that survives across rounds.
//!
//! The phase pipeline used to allocate its working buffers afresh every
//! round — candidate vectors, per-committee ground-truth validity tables,
//! and (worst of all) a full clone of every shard's UTXO set for the
//! referee's re-validation pass. The arena owns those buffers instead: the
//! engine drains them during the round and [`RoundArena::begin_round`]
//! recycles them (clear contents, keep capacity) for the next one, so the
//! steady-state round performs no allocations for any of this scratch.

use cycledger_crypto::fxhash::FxHashSet;
use cycledger_ledger::transaction::{Transaction, TxId};
use cycledger_ledger::utxo::UtxoOverlay;

/// Scratch state owned by one parallel shard task (intra-consensus).
///
/// Each executor task borrows exactly one slot for the batch's
/// lifetime, so the parallel phase needs no locks and stays deterministic.
#[derive(Debug, Default)]
pub struct ShardScratch {
    /// Ground-truth validity of each offered transaction against the shard's
    /// UTXO set. Computed once per committee per round; every member's vote
    /// derives from it instead of re-running the full authentication
    /// function `V` per member.
    pub validity: Vec<bool>,
}

/// Reusable per-round scratch buffers, owned by the simulation and threaded
/// into every round's [`crate::engine::RoundContext`].
#[derive(Debug, Default)]
pub struct RoundArena {
    /// One scratch slot per committee for parallel phases.
    shard: Vec<ShardScratch>,
    /// Candidate transactions staged for block assembly.
    pub candidates: Vec<Transaction>,
    /// The referee's re-validation overlay over the shard UTXO sets —
    /// replaces the seed's per-round clone of every `UtxoSet`.
    pub overlay: UtxoOverlay,
    /// Per shard, the block positions of the transactions that touch it:
    /// the block's slices (`ledger::block::index_slices`). Built once a
    /// round, before assembly: the slice roots, propagation and each
    /// shard's apply task all read it, so each shard visits its own
    /// transactions instead of all m tasks walking the whole block.
    pub(crate) touched: Vec<Vec<usize>>,
    /// The columns of one committee's certified `V List`, which block
    /// propagation names a slice's held bodies by.
    pub(crate) columns: FxHashSet<TxId>,
}

impl RoundArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets all scratch for a new round: contents cleared, capacity kept.
    pub fn begin_round(&mut self) {
        for slot in &mut self.shard {
            slot.validity.clear();
        }
        self.candidates.clear();
        self.overlay.clear();
    }

    /// Mutable access to `m` per-shard scratch slots, growing the pool on
    /// first use (or when a round has more committees than any before it).
    pub fn shard_slots(&mut self, m: usize) -> &mut [ShardScratch] {
        if self.shard.len() < m {
            self.shard.resize_with(m, ShardScratch::default);
        }
        &mut self.shard[..m]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_grow_and_survive_reset() {
        let mut arena = RoundArena::new();
        let slots = arena.shard_slots(3);
        assert_eq!(slots.len(), 3);
        slots[2].validity.push(true);
        arena.candidates.reserve(64);
        let cap = arena.candidates.capacity();
        arena.begin_round();
        assert!(arena.shard_slots(3)[2].validity.is_empty());
        assert!(
            arena.candidates.capacity() >= cap,
            "reset keeps capacity for reuse"
        );
        // Shrinking requests reuse the same slots.
        assert_eq!(arena.shard_slots(2).len(), 2);
        assert_eq!(arena.shard_slots(5).len(), 5);
    }

    #[test]
    fn block_index_lists_each_touched_shard_once_in_block_order() {
        use cycledger_ledger::block::index_slices;
        use cycledger_ledger::transaction::{AccountId, TxInput, TxOutput};

        let m = 4;
        // Accounts 0..16 cover every shard; a payment from `from` to `to`
        // with change touches one or two of them.
        let pay = |from: u64, to: u64, nonce: u64| {
            let funding = Transaction::genesis(
                vec![TxOutput {
                    owner: AccountId(from),
                    amount: 10,
                }],
                nonce,
            );
            Transaction::new(
                vec![TxInput {
                    outpoint: funding.created_utxos()[0].0,
                    owner: AccountId(from),
                    amount: 10,
                }],
                vec![
                    TxOutput {
                        owner: AccountId(to),
                        amount: 6,
                    },
                    TxOutput {
                        owner: AccountId(from),
                        amount: 4,
                    },
                ],
                nonce,
            )
        };
        let block: Vec<Transaction> = (0..16u64).map(|n| pay(n, (n * 7 + 3) % 16, n)).collect();

        let mut arena = RoundArena::new();
        // A stale index from a larger, earlier block must not leak through.
        index_slices(&block, m, &mut arena.touched);
        index_slices(&block[..12], m, &mut arena.touched);
        let index = &arena.touched;
        assert_eq!(index.len(), m);
        for (shard, positions) in index.iter().enumerate() {
            let expected: Vec<usize> = (0..12)
                .filter(|&p| block[p].touched_shards(m).contains(&shard))
                .collect();
            assert_eq!(positions, &expected, "shard {shard}");
        }
        assert!(
            index.iter().map(Vec::len).sum::<usize>() > 12,
            "some payment crosses shards"
        );
    }
}
