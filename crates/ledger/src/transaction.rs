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
//! ## Canonical encoding
//!
//! A transaction's digest is computed **once, at construction**, and shared
//! with its fields behind an `Arc`: `id()` is a lookup, and cloning a
//! transaction anywhere in the round pipeline is a reference-count bump. The
//! canonical byte encoding itself is not kept. It is a pure function of the
//! fields, `16 + 52·inputs + 16·outputs` bytes long:
//!
//! ```text
//! be64(nonce) ‖ be32(#inputs) ‖ { tx_id ‖ be32(index) ‖ be64(owner) ‖ be64(amount) }*
//!             ‖ be32(#outputs) ‖ { be64(owner) ‖ be64(amount) }*
//! ```
//!
//! It is written out only where something reads it: streamed record by record
//! into SHA-256 for the id, and into a Merkle tree's leaf buffer for a slice
//! root ([`Transaction::encode_into`]). A kept copy of bytes the fields
//! already hold would be 136 B of a chain transaction's 369. Memoizing the
//! digest is sound because a transaction is immutable after construction —
//! there is no way to change inputs, outputs or nonce without building a new
//! transaction, so the digest can never go stale.

use std::sync::Arc;

use cycledger_crypto::sha256::{hash_parts, Digest, Sha256};

/// A user account identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AccountId(pub u64);

impl AccountId {
    /// The shard (committee index) responsible for this account: the first 8
    /// bytes of `H("cycledger/account-shard" || account)` mod `m`. Pure, one
    /// SHA-256 compression a call; a run reads its [`ShardTable`] instead.
    pub fn shard(&self, m: usize) -> usize {
        assert!(m > 0, "at least one shard");
        let key = hash_parts(&[b"cycledger/account-shard", &self.0.to_be_bytes()]).prefix_u64();
        (key % m as u64) as usize
    }
}

/// A map from accounts to shards: a shard count `m`, which hashes each
/// account ([`AccountId::shard`]), or a run's [`ShardTable`].
pub trait Routing: Copy {
    /// The number of shards `m`.
    fn shard_count(self) -> usize;
    /// The shard of `account`, below `m`.
    fn shard_of(self, account: AccountId) -> usize;
}

impl Routing for usize {
    fn shard_count(self) -> usize {
        self
    }

    fn shard_of(self, account: AccountId) -> usize {
        account.shard(self)
    }
}

/// Every account's shard among `m` for the ids a `Workload`'s genesis walk
/// hashed (entry `id` is `AccountId(id).shard(m)`); an id past the table
/// routes by the hash. Cloning shares the table.
#[derive(Clone, Debug)]
pub struct ShardTable {
    pub(crate) m: usize,
    pub(crate) shards: Arc<[u16]>,
}

impl Routing for &ShardTable {
    fn shard_count(self) -> usize {
        self.m
    }

    fn shard_of(self, account: AccountId) -> usize {
        match usize::try_from(account.0).map(|id| self.shards.get(id)) {
            Ok(Some(&shard)) => usize::from(shard),
            _ => account.shard(self.m),
        }
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
    inputs: Box<[TxInput]>,
    outputs: Box<[TxOutput]>,
    nonce: u64,
    /// `H("cycledger/txid" || encoding)`, computed once at construction.
    id: TxId,
}

/// A transfer of value from a set of UTXOs to a set of new outputs.
///
/// Immutable after construction; clones share the body (and its memoized
/// digest) behind an `Arc`.
#[derive(Clone, Debug)]
pub struct Transaction {
    body: Arc<TxBody>,
}

impl PartialEq for Transaction {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.body, &other.body);
        Arc::ptr_eq(a, b) || (a.nonce == b.nonce && a.inputs == b.inputs && a.outputs == b.outputs)
    }
}

impl Eq for Transaction {}

impl std::hash::Hash for Transaction {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Consistent with Eq: equal fields have equal ids.
        self.body.id.hash(state);
    }
}

/// Domain tag of a transaction id.
const TXID_DOMAIN: &[u8] = b"cycledger/txid";

/// Encoded bytes of one input: outpoint id and index, owner, amount.
const INPUT_BYTES: usize = 32 + 4 + 8 + 8;

/// Encoded bytes of one output: owner, amount.
const OUTPUT_BYTES: usize = 8 + 8;

/// Length of the canonical encoding of a transaction of this shape.
fn encoded_len(inputs: usize, outputs: usize) -> usize {
    16 + INPUT_BYTES * inputs + OUTPUT_BYTES * outputs
}

/// Hands the canonical encoding to `put` a record at a time: the nonce and
/// input count, each input, the output count, each output.
fn write_encoding(
    inputs: &[TxInput],
    outputs: &[TxOutput],
    nonce: u64,
    mut put: impl FnMut(&[u8]),
) {
    let mut head = [0u8; 12];
    head[..8].copy_from_slice(&nonce.to_be_bytes());
    head[8..].copy_from_slice(&(inputs.len() as u32).to_be_bytes());
    put(&head);
    for input in inputs {
        let mut record = [0u8; INPUT_BYTES];
        record[..32].copy_from_slice(input.outpoint.tx_id.as_bytes());
        record[32..36].copy_from_slice(&input.outpoint.index.to_be_bytes());
        record[36..44].copy_from_slice(&input.owner.0.to_be_bytes());
        record[44..].copy_from_slice(&input.amount.to_be_bytes());
        put(&record);
    }
    put(&(outputs.len() as u32).to_be_bytes());
    for output in outputs {
        let mut record = [0u8; OUTPUT_BYTES];
        record[..8].copy_from_slice(&output.owner.0.to_be_bytes());
        record[8..].copy_from_slice(&output.amount.to_be_bytes());
        put(&record);
    }
}

impl Transaction {
    /// Creates a transaction, streaming its canonical encoding into SHA-256
    /// for its digest. Exact-capacity vectors become the body's slices
    /// without a reallocation.
    pub fn new(inputs: Vec<TxInput>, outputs: Vec<TxOutput>, nonce: u64) -> Self {
        // `hash_parts(&[TXID_DOMAIN, encoding])`, with the encoding streamed.
        let mut hasher = Sha256::new();
        hasher
            .update(&(TXID_DOMAIN.len() as u64).to_le_bytes())
            .update(TXID_DOMAIN)
            .update(&(encoded_len(inputs.len(), outputs.len()) as u64).to_le_bytes());
        write_encoding(&inputs, &outputs, nonce, |bytes| {
            hasher.update(bytes);
        });
        Transaction {
            body: Arc::new(TxBody {
                inputs: inputs.into_boxed_slice(),
                outputs: outputs.into_boxed_slice(),
                nonce,
                id: hasher.finalize(),
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

    /// Appends the canonical encoding to `out` (the bytes hashed into the id
    /// and into a Merkle leaf).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let body = &self.body;
        out.reserve(self.wire_size() as usize);
        write_encoding(&body.inputs, &body.outputs, body.nonce, |bytes| {
            out.extend_from_slice(bytes)
        });
    }

    /// The transaction identifier (hash of the canonical encoding), memoized
    /// at construction.
    pub fn id(&self) -> TxId {
        self.body.id
    }

    /// Wire size in bytes, used when charging the transaction to the network:
    /// the length of the canonical encoding.
    pub fn wire_size(&self) -> u64 {
        encoded_len(self.body.inputs.len(), self.body.outputs.len()) as u64
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

    pub(crate) fn input_owners(&self) -> impl Iterator<Item = AccountId> + Clone + '_ {
        self.inputs().iter().map(|i| i.owner)
    }

    fn output_owners(&self) -> impl Iterator<Item = AccountId> + Clone + '_ {
        self.outputs().iter().map(|o| o.owner)
    }

    /// Shards that hold an *input* of this transaction (they must validate
    /// it), ascending: the order in which `V`'s per-shard checks run.
    pub fn input_shards(&self, routing: impl Routing) -> Vec<usize> {
        ascending_shards(self.input_owners(), routing).collect()
    }

    /// Shards that receive an *output* of this transaction.
    pub fn output_shards(&self, routing: impl Routing) -> Vec<usize> {
        ascending_shards(self.output_owners(), routing).collect()
    }

    /// All shards touched by this transaction.
    pub fn touched_shards(&self, routing: impl Routing) -> Vec<usize> {
        ascending_shards(self.input_owners().chain(self.output_owners()), routing).collect()
    }

    /// The one shard every input and output lives in, or `None` for a
    /// cross-shard transaction; a transaction that touches no shard at all
    /// is homed at shard 0. Allocates nothing.
    pub fn home_shard(&self, routing: impl Routing) -> Option<usize> {
        let mut owners = self.input_owners().chain(self.output_owners());
        let Some(first) = owners.next() else {
            return Some(0);
        };
        let home = routing.shard_of(first);
        owners.all(|a| routing.shard_of(a) == home).then_some(home)
    }

    /// True if all inputs and outputs live in a single shard (an intra-shard
    /// transaction, handled by Algorithm 5 alone).
    pub fn is_intra_shard(&self, routing: impl Routing) -> bool {
        self.home_shard(routing).is_some()
    }
}

/// The distinct shards of `owners` in ascending order, without allocating:
/// each step is the least shard above the one before. A transaction has a
/// handful of owners, so the rescans cost less than a sorted `Vec`.
pub(crate) fn ascending_shards(
    owners: impl Iterator<Item = AccountId> + Clone,
    routing: impl Routing,
) -> impl Iterator<Item = usize> {
    let mut above: Option<usize> = None;
    std::iter::from_fn(move || {
        let next = owners
            .clone()
            .map(|a| routing.shard_of(a))
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

    /// The canonical encoding spelled out field by field into one `Vec`: the
    /// reference the streamed paths are checked against.
    fn reference_encoding(tx: &Transaction) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&tx.nonce().to_be_bytes());
        out.extend_from_slice(&(tx.inputs().len() as u32).to_be_bytes());
        for input in tx.inputs() {
            out.extend_from_slice(input.outpoint.tx_id.as_bytes());
            out.extend_from_slice(&input.outpoint.index.to_be_bytes());
            out.extend_from_slice(&input.owner.0.to_be_bytes());
            out.extend_from_slice(&input.amount.to_be_bytes());
        }
        out.extend_from_slice(&(tx.outputs().len() as u32).to_be_bytes());
        for output in tx.outputs() {
            out.extend_from_slice(&output.owner.0.to_be_bytes());
            out.extend_from_slice(&output.amount.to_be_bytes());
        }
        out
    }

    /// A transaction of `inputs` inputs and `outputs` outputs, its fields
    /// drawn from `seed`.
    fn shaped(inputs: usize, outputs: usize, seed: u64) -> Transaction {
        let input = |i: usize| TxInput {
            outpoint: OutPoint {
                tx_id: hash_parts(&[b"shaped", &seed.to_be_bytes(), &i.to_be_bytes()]),
                index: i as u32 ^ seed as u32,
            },
            owner: AccountId(seed.rotate_left(i as u32)),
            amount: seed.wrapping_mul(i as u64 + 3),
        };
        let output = |o: usize| TxOutput {
            owner: AccountId(seed ^ o as u64),
            amount: seed.wrapping_add(o as u64),
        };
        Transaction::new(
            (0..inputs).map(input).collect(),
            (0..outputs).map(output).collect(),
            seed,
        )
    }

    #[test]
    fn streamed_encoding_id_and_wire_size_match_the_reference() {
        let tx = sample_tx();
        let mut encoded = Vec::new();
        tx.encode_into(&mut encoded);
        assert_eq!(encoded, reference_encoding(&tx));
        assert_eq!(tx.id(), hash_parts(&[b"cycledger/txid", &encoded]));
        // Known answer, recorded from an implementation that hashed a
        // materialized encoding.
        assert_eq!(
            tx.id().to_hex(),
            "99df86b406172386afa3b63541c7e24810b1fa64bd8992c0773eba54155184ab"
        );
        for inputs in 0..=3 {
            for outputs in 0..=3 {
                let tx = shaped(inputs, outputs, 7);
                assert_eq!(tx.wire_size(), reference_encoding(&tx).len() as u64);
            }
        }
        // Equal fields are equal transactions, shared body or not.
        let rebuilt = Transaction::new(tx.inputs().to_vec(), tx.outputs().to_vec(), tx.nonce());
        assert_eq!(tx, rebuilt);
        assert_eq!(tx, tx.clone());
        assert_ne!(tx, shaped(1, 2, 8));
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
        let mut encoded = Vec::new();
        tx.encode_into(&mut encoded);
        assert_eq!(tx.wire_size(), encoded.len() as u64);
        assert!(tx.wire_size() > 60);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Any shape: the streamed encoding is the reference's, the id hashes
        /// it, and the wire size is its length.
        #[test]
        fn prop_encoding_matches_the_reference(
            inputs in 0usize..9,
            outputs in 0usize..9,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let tx = shaped(inputs, outputs, seed);
            let reference = reference_encoding(&tx);
            let mut encoded = Vec::new();
            tx.encode_into(&mut encoded);
            proptest::prop_assert_eq!(&encoded, &reference);
            proptest::prop_assert_eq!(tx.id(), hash_parts(&[b"cycledger/txid", &reference]));
            proptest::prop_assert_eq!(tx.wire_size(), reference.len() as u64);
        }
    }
}
