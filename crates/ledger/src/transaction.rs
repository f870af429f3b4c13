//! Transactions and the UTXO value model.
//!
//! CycLedger is a payment processor over a UTXO state (§III-D): users are
//! partitioned into `m` shards, each committee maintains the UTXOs of its shard,
//! and the authentication function `V` accepts a transaction iff its inputs
//! exist, are unspent, and carry at least as much value as its outputs.
//!
//! Accounts are abstract 64-bit identifiers rather than public keys: the paper's
//! consensus machinery never inspects user signatures (transaction authorization
//! is orthogonal to committee consensus), so modelling them would only add
//! constant-factor noise to the measurements. The shard of an account is
//! `H(account) mod m`, mirroring the paper's uniform user partition.
//!
//! ## Memoized canonical encoding
//!
//! A transaction's canonical byte encoding and its digest are computed **once,
//! at construction**, and shared behind an `Arc`: `encoded_bytes()`, `id()`
//! and `wire_size()` are lookups, and cloning a transaction anywhere in the
//! round pipeline is a reference-count bump instead of a re-allocation of its
//! input/output vectors. This is sound because a transaction is immutable
//! after construction — there is no way to change inputs, outputs or nonce
//! without building a new transaction, so the cached encoding can never go
//! stale.

use std::cell::RefCell;
use std::sync::Arc;

use cycledger_crypto::fxhash::FxHashMap;
use cycledger_crypto::sha256::{hash_parts, Digest};

/// A user account identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AccountId(pub u64);

impl AccountId {
    /// The shard (committee index) responsible for this account.
    pub fn shard(&self, m: usize) -> usize {
        assert!(m > 0, "at least one shard");
        (self.shard_key() % m as u64) as usize
    }

    /// The account's shard-routing key: the first 8 bytes of
    /// `H("cycledger/account-shard" || account)`, independent of the shard
    /// count. Memoized per thread — shard routing is consulted for every
    /// input and output of every transaction on the round hot path, and the
    /// active account set is small and stable, so the SHA-256 evaluation
    /// happens once per account per worker thread instead of per lookup.
    fn shard_key(&self) -> u64 {
        thread_local! {
            static SHARD_KEYS: RefCell<FxHashMap<u64, u64>> = RefCell::new(FxHashMap::default());
        }
        SHARD_KEYS.with(|cache| {
            let mut cache = cache.borrow_mut();
            // Bound the memo so pathological workloads (unbounded fresh
            // accounts) cannot grow it without limit. 2^18 entries hold the
            // largest tracked working set (2 x 10^5 accounts); at the bound
            // the table has 2^19 buckets of 16 bytes plus a control byte,
            // so a routing thread keeps at most ≈ 8.5 MiB here.
            if cache.len() > (1 << 18) {
                cache.clear();
            }
            *cache.entry(self.0).or_insert_with(|| {
                hash_parts(&[b"cycledger/account-shard", &self.0.to_be_bytes()]).prefix_u64()
            })
        })
    }
}

/// Identifier of a transaction: the hash of its canonical encoding.
pub type TxId = Digest;

/// A reference to an unspent output of a previous transaction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct OutPoint {
    /// The transaction that created the output.
    pub tx_id: TxId,
    /// Index of the output within that transaction.
    pub index: u32,
}

/// A transaction output: an amount of value assigned to an account.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TxOutput {
    /// Receiving account.
    pub owner: AccountId,
    /// Value in minimal units.
    pub amount: u64,
}

/// A transaction input: a reference to the UTXO being spent plus the account
/// that owns it (kept explicit so shard routing never needs a UTXO lookup).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TxInput {
    /// The UTXO being consumed.
    pub outpoint: OutPoint,
    /// Owner of the consumed UTXO.
    pub owner: AccountId,
    /// Value of the consumed UTXO as claimed by the transaction (validated
    /// against the UTXO set by the owning shard).
    pub amount: u64,
}

/// The immutable body shared by every clone of a transaction.
#[derive(Debug)]
struct TxBody {
    inputs: Vec<TxInput>,
    outputs: Vec<TxOutput>,
    nonce: u64,
    /// Canonical encoding, computed once at construction.
    encoded: Vec<u8>,
    /// `H("cycledger/txid" || encoded)`, computed once at construction.
    id: TxId,
}

/// A transfer of value from a set of UTXOs to a set of new outputs.
///
/// Immutable after construction; clones share the body (and its memoized
/// canonical encoding and digest) behind an `Arc`.
#[derive(Clone, Debug)]
pub struct Transaction {
    body: Arc<TxBody>,
}

impl PartialEq for Transaction {
    fn eq(&self, other: &Self) -> bool {
        // The canonical encoding is injective over (inputs, outputs, nonce).
        Arc::ptr_eq(&self.body, &other.body) || self.body.encoded == other.body.encoded
    }
}

impl Eq for Transaction {}

impl std::hash::Hash for Transaction {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Consistent with Eq: equal encodings have equal ids.
        self.body.id.hash(state);
    }
}

impl Transaction {
    /// Creates a transaction, computing its canonical encoding and digest.
    pub fn new(inputs: Vec<TxInput>, outputs: Vec<TxOutput>, nonce: u64) -> Self {
        let encoded = Self::encode_parts(&inputs, &outputs, nonce);
        let id = hash_parts(&[b"cycledger/txid", &encoded]);
        Transaction {
            body: Arc::new(TxBody {
                inputs,
                outputs,
                nonce,
                encoded,
                id,
            }),
        }
    }

    /// A coinbase/genesis transaction with no inputs, used to mint the initial
    /// UTXO set handed to each shard at simulation start.
    pub fn genesis(outputs: Vec<TxOutput>, nonce: u64) -> Self {
        Transaction::new(Vec::new(), outputs, nonce)
    }

    /// Consumed UTXOs.
    pub fn inputs(&self) -> &[TxInput] {
        &self.body.inputs
    }

    /// Created UTXOs.
    pub fn outputs(&self) -> &[TxOutput] {
        &self.body.outputs
    }

    /// Salt making otherwise-identical transfers distinct (e.g. two equal
    /// payments between the same accounts in one round).
    pub fn nonce(&self) -> u64 {
        self.body.nonce
    }

    /// True if this is a genesis (input-less) transaction.
    pub fn is_genesis(&self) -> bool {
        self.body.inputs.is_empty()
    }

    fn encode_parts(inputs: &[TxInput], outputs: &[TxOutput], nonce: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + inputs.len() * 52 + outputs.len() * 16);
        out.extend_from_slice(&nonce.to_be_bytes());
        out.extend_from_slice(&(inputs.len() as u32).to_be_bytes());
        for input in inputs {
            out.extend_from_slice(input.outpoint.tx_id.as_bytes());
            out.extend_from_slice(&input.outpoint.index.to_be_bytes());
            out.extend_from_slice(&input.owner.0.to_be_bytes());
            out.extend_from_slice(&input.amount.to_be_bytes());
        }
        out.extend_from_slice(&(outputs.len() as u32).to_be_bytes());
        for output in outputs {
            out.extend_from_slice(&output.owner.0.to_be_bytes());
            out.extend_from_slice(&output.amount.to_be_bytes());
        }
        out
    }

    /// The memoized canonical encoding, used for hashing, Merkle leaves and
    /// wire-size estimation.
    pub fn encoded_bytes(&self) -> &[u8] {
        &self.body.encoded
    }

    /// The transaction identifier (hash of the canonical encoding), memoized
    /// at construction.
    pub fn id(&self) -> TxId {
        self.body.id
    }

    /// Wire size in bytes, used when charging the transaction to the network.
    pub fn wire_size(&self) -> u64 {
        self.body.encoded.len() as u64
    }

    /// Total input value.
    pub fn input_sum(&self) -> u64 {
        self.inputs().iter().map(|i| i.amount).sum()
    }

    /// Total output value.
    pub fn output_sum(&self) -> u64 {
        self.outputs().iter().map(|o| o.amount).sum()
    }

    /// Transaction fee (`inputs - outputs`); zero for genesis transactions.
    pub fn fee(&self) -> u64 {
        if self.is_genesis() {
            0
        } else {
            self.input_sum().saturating_sub(self.output_sum())
        }
    }

    /// The outpoints this transaction creates, paired with their outputs.
    pub fn created_utxos(&self) -> Vec<(OutPoint, TxOutput)> {
        let id = self.id();
        self.outputs()
            .iter()
            .enumerate()
            .map(|(i, o)| {
                (
                    OutPoint {
                        tx_id: id,
                        index: i as u32,
                    },
                    *o,
                )
            })
            .collect()
    }

    fn input_owners(&self) -> impl Iterator<Item = AccountId> + Clone + '_ {
        self.inputs().iter().map(|i| i.owner)
    }

    fn output_owners(&self) -> impl Iterator<Item = AccountId> + Clone + '_ {
        self.outputs().iter().map(|o| o.owner)
    }

    /// The distinct shards holding an *input*, ascending, without
    /// allocating — the order in which `V`'s per-shard checks run.
    pub(crate) fn input_shard_iter(&self, m: usize) -> impl Iterator<Item = usize> + '_ {
        ascending_shards(self.input_owners(), m)
    }

    /// Shards that hold an *input* of this transaction (they must validate it).
    pub fn input_shards(&self, m: usize) -> Vec<usize> {
        self.input_shard_iter(m).collect()
    }

    /// Shards that receive an *output* of this transaction.
    pub fn output_shards(&self, m: usize) -> Vec<usize> {
        ascending_shards(self.output_owners(), m).collect()
    }

    /// All shards touched by this transaction.
    pub fn touched_shards(&self, m: usize) -> Vec<usize> {
        ascending_shards(self.input_owners().chain(self.output_owners()), m).collect()
    }

    /// The one shard every input and output lives in, or `None` for a
    /// cross-shard transaction; a transaction that touches no shard at all
    /// is homed at shard 0. Allocates nothing.
    pub fn home_shard(&self, m: usize) -> Option<usize> {
        let mut owners = self.input_owners().chain(self.output_owners());
        let Some(first) = owners.next() else {
            return Some(0);
        };
        let home = first.shard(m);
        owners.all(|a| a.shard(m) == home).then_some(home)
    }

    /// True if all inputs and outputs live in a single shard (an intra-shard
    /// transaction, handled by Algorithm 5 alone).
    pub fn is_intra_shard(&self, m: usize) -> bool {
        self.home_shard(m).is_some()
    }
}

/// The distinct shards of `owners` in ascending order, without allocating:
/// each step is the least shard above the one before. A transaction has a
/// handful of owners, so the rescans cost less than a sorted `Vec`.
fn ascending_shards(
    owners: impl Iterator<Item = AccountId> + Clone,
    m: usize,
) -> impl Iterator<Item = usize> {
    let mut above: Option<usize> = None;
    std::iter::from_fn(move || {
        let next = owners
            .clone()
            .map(|a| a.shard(m))
            .filter(|&s| above.is_none_or(|last| s > last))
            .min()?;
        above = Some(next);
        Some(next)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tx() -> Transaction {
        let genesis = Transaction::genesis(
            vec![TxOutput {
                owner: AccountId(1),
                amount: 100,
            }],
            0,
        );
        let outpoint = genesis.created_utxos()[0].0;
        Transaction::new(
            vec![TxInput {
                outpoint,
                owner: AccountId(1),
                amount: 100,
            }],
            vec![
                TxOutput {
                    owner: AccountId(2),
                    amount: 60,
                },
                TxOutput {
                    owner: AccountId(1),
                    amount: 30,
                },
            ],
            7,
        )
    }

    #[test]
    fn id_is_deterministic_and_sensitive() {
        let tx = sample_tx();
        assert_eq!(tx.id(), tx.id());
        let other = Transaction::new(tx.inputs().to_vec(), tx.outputs().to_vec(), tx.nonce() + 1);
        assert_ne!(tx.id(), other.id());
        let mut outputs = tx.outputs().to_vec();
        outputs[0].amount += 1;
        let other = Transaction::new(tx.inputs().to_vec(), outputs, tx.nonce());
        assert_ne!(tx.id(), other.id());
    }

    #[test]
    fn memoized_encoding_matches_rebuild_and_clone_shares_it() {
        let tx = sample_tx();
        // Rebuilding from the same parts yields the same bytes and id.
        let rebuilt = Transaction::new(tx.inputs().to_vec(), tx.outputs().to_vec(), tx.nonce());
        assert_eq!(tx.encoded_bytes(), rebuilt.encoded_bytes());
        assert_eq!(tx.id(), rebuilt.id());
        assert_eq!(tx, rebuilt, "structurally equal without shared body");
        // Clones share the body: same encoding address, no re-encode.
        let clone = tx.clone();
        assert_eq!(
            tx.encoded_bytes().as_ptr(),
            clone.encoded_bytes().as_ptr(),
            "clone must share the memoized encoding"
        );
        assert_eq!(tx, clone);
    }

    #[test]
    fn sums_and_fee() {
        let tx = sample_tx();
        assert_eq!(tx.input_sum(), 100);
        assert_eq!(tx.output_sum(), 90);
        assert_eq!(tx.fee(), 10);
        let genesis = Transaction::genesis(vec![], 0);
        assert!(genesis.is_genesis());
        assert_eq!(genesis.fee(), 0);
    }

    #[test]
    fn created_utxos_enumerate_outputs() {
        let tx = sample_tx();
        let created = tx.created_utxos();
        assert_eq!(created.len(), 2);
        assert_eq!(created[0].0.tx_id, tx.id());
        assert_eq!(created[0].0.index, 0);
        assert_eq!(created[1].0.index, 1);
        assert_eq!(created[0].1.owner, AccountId(2));
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for m in [1usize, 2, 5, 16] {
            for account in 0..50u64 {
                let s = AccountId(account).shard(m);
                assert!(s < m);
                assert_eq!(s, AccountId(account).shard(m));
            }
        }
    }

    #[test]
    fn shard_key_memo_matches_direct_hash() {
        // The thread-local memo must return exactly the uncached digest prefix.
        for account in [0u64, 1, 42, u64::MAX] {
            let direct =
                hash_parts(&[b"cycledger/account-shard", &account.to_be_bytes()]).prefix_u64();
            for m in [1usize, 3, 7] {
                assert_eq!(AccountId(account).shard(m), (direct % m as u64) as usize);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        AccountId(1).shard(0);
    }

    #[test]
    fn shard_distribution_is_roughly_uniform() {
        let m = 4;
        let mut counts = vec![0usize; m];
        for account in 0..4000u64 {
            counts[AccountId(account).shard(m)] += 1;
        }
        for &c in &counts {
            assert!(
                (700..=1300).contains(&c),
                "skewed shard distribution: {counts:?}"
            );
        }
    }

    #[test]
    fn intra_vs_cross_shard_classification() {
        let m = 8;
        // Find two accounts in the same shard and two in different shards.
        let a = AccountId(0);
        let same = (1..200)
            .map(AccountId)
            .find(|b| b.shard(m) == a.shard(m))
            .expect("some account shares a shard");
        let diff = (1..200)
            .map(AccountId)
            .find(|b| b.shard(m) != a.shard(m))
            .expect("some account is in another shard");
        let mk = |to: AccountId| {
            Transaction::new(
                vec![TxInput {
                    outpoint: OutPoint {
                        tx_id: Digest::ZERO,
                        index: 0,
                    },
                    owner: a,
                    amount: 10,
                }],
                vec![TxOutput {
                    owner: to,
                    amount: 9,
                }],
                0,
            )
        };
        assert!(mk(same).is_intra_shard(m));
        assert!(!mk(diff).is_intra_shard(m));
        assert_eq!(mk(diff).touched_shards(m).len(), 2);
        assert_eq!(mk(diff).input_shards(m), vec![a.shard(m)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The walk gives what sorting and deduplicating the owners' shards
        /// gave, for any mix of inputs and outputs.
        #[test]
        fn prop_shard_walks_are_sorted_and_distinct(
            m in 1usize..9,
            inputs in proptest::collection::vec(0u64..500, 0..6),
            outputs in proptest::collection::vec(0u64..500, 0..6),
        ) {
            let tx = Transaction::new(
                inputs
                    .iter()
                    .map(|&a| TxInput {
                        outpoint: OutPoint { tx_id: Digest::ZERO, index: a as u32 },
                        owner: AccountId(a),
                        amount: 1,
                    })
                    .collect(),
                outputs.iter().map(|&a| TxOutput { owner: AccountId(a), amount: 1 }).collect(),
                0,
            );
            let sorted = |owners: &[u64]| {
                let mut shards: Vec<usize> = owners.iter().map(|&a| AccountId(a).shard(m)).collect();
                shards.sort_unstable();
                shards.dedup();
                shards
            };
            let all = [inputs.clone(), outputs.clone()].concat();
            proptest::prop_assert_eq!(tx.input_shards(m), sorted(&inputs));
            proptest::prop_assert_eq!(tx.output_shards(m), sorted(&outputs));
            proptest::prop_assert_eq!(tx.touched_shards(m), sorted(&all));
            let home = match sorted(&all).as_slice() {
                [] => Some(0),
                [shard] => Some(*shard),
                _ => None,
            };
            proptest::prop_assert_eq!(tx.home_shard(m), home);
        }
    }

    #[test]
    fn wire_size_tracks_encoding() {
        let tx = sample_tx();
        assert_eq!(tx.wire_size(), tx.encoded_bytes().len() as u64);
        assert!(tx.wire_size() > 60);
    }
}
