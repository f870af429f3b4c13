//! The authenticated state backend: a compressed sparse Merkle tree over
//! SHA-256, updated in place, with one root digest recorded per round.
//!
//! ## Shape
//!
//! Keys are 256-bit digests of outpoints; the tree is the *compressed*
//! binary SMT over them: a subtree holding exactly one entry is represented
//! by the leaf itself, an empty subtree by the all-zero digest. The shape is
//! therefore a pure function of the key set — two stores holding the same
//! entries have the same root no matter the insertion or batching order.
//! Hash conventions (leaf/internal preimages, path bits) live in
//! [`cycledger_crypto::smt`] so light clients can verify proofs without
//! this crate.
//!
//! ## Write path
//!
//! `insert`/`remove` update the live [`FxHashMap`] (the one
//! [`crate::store::Store::live`] returns, so the per-input lookup hot path of
//! the authentication function `V` stays O(1) and makes *identical*
//! decisions to the flat-map backend) and buffer the delta.
//! [`SmtStore::commit`] seals one round's buffered deltas in a single
//! batch-sorted fold:
//!
//! 1. key, value and leaf digests of the whole batch are lane-batched
//!    through [`sha256_many`];
//! 2. a structural pass merges the key-sorted batch into the tree in
//!    place — every internal node on a written path has its child
//!    references overwritten and is recorded per depth, new nodes take a
//!    recycled arena slot before the arena grows, untouched subtrees are not
//!    visited;
//! 3. dirty internal nodes are hashed level by level, deepest first, again
//!    through [`sha256_many`] — children are always final before parents.
//!
//! Committing once per round instead of once per transaction is what keeps
//! the authenticated backend within a small factor of the flat map: a
//! round's writes to one path share the O(log n) hashes.
//!
//! ## Memory
//!
//! Only the latest tree is resident. A leaf that a batch replaces or
//! deletes and an internal node whose subtree collapses go on a free list,
//! and the next allocation pops that list before it pushes, so the arenas
//! hold the live tree plus at most one round of churn — about 1.44 internal
//! nodes (1 / ln 2, a leaf-collapsed binary trie over uniform keys) and one
//! leaf per live entry. History is kept as what anything reads of it: the
//! root *digest* of every committed round (`root_at_round`). A proof taken
//! at round r keeps verifying against that digest; proving against an old
//! root after the fact would need the superseded nodes back, and nothing
//! asks for that.

use cycledger_crypto::fxhash::{FxBuildHasher, FxHashMap};
use cycledger_crypto::sha256::{sha256, sha256_many, Digest};
use cycledger_crypto::smt::{
    fill_internal_preimage, fill_leaf_preimage, key_bit, ProofTerminal, StateProof, EMPTY_ROOT,
};

use crate::transaction::{OutPoint, TxOutput};

/// Sentinel node reference: the empty subtree.
const EMPTY_REF: u32 = u32::MAX;
/// High bit tags a reference into the leaf arena instead of the internal one.
const LEAF_TAG: u32 = 0x8000_0000;

#[inline]
fn is_leaf(node: u32) -> bool {
    node != EMPTY_REF && node & LEAF_TAG != 0
}

/// Domain prefix of the outpoint-to-key digest.
const KEY_DOMAIN: &[u8; 17] = b"cycledger/smt-key";
/// Domain prefix of the output-to-value digest.
const VAL_DOMAIN: &[u8; 17] = b"cycledger/smt-val";

fn key_preimage(outpoint: &OutPoint) -> [u8; 53] {
    let mut buf = [0u8; 53];
    buf[..17].copy_from_slice(KEY_DOMAIN);
    buf[17..49].copy_from_slice(outpoint.tx_id.as_bytes());
    buf[49..53].copy_from_slice(&outpoint.index.to_be_bytes());
    buf
}

fn value_preimage(output: &TxOutput) -> [u8; 33] {
    let mut buf = [0u8; 33];
    buf[..17].copy_from_slice(VAL_DOMAIN);
    buf[17..25].copy_from_slice(&output.owner.0.to_be_bytes());
    buf[25..33].copy_from_slice(&output.amount.to_be_bytes());
    buf
}

/// The tree key of an outpoint: `H("cycledger/smt-key" || tx_id || index)`.
pub fn key_digest(outpoint: &OutPoint) -> Digest {
    sha256(&key_preimage(outpoint))
}

/// The leaf value hash of an output:
/// `H("cycledger/smt-val" || owner || amount)`.
pub fn value_digest(output: &TxOutput) -> Digest {
    sha256(&value_preimage(output))
}

/// An internal node. A fold that changes anything below it overwrites
/// `left` / `right` where it stands; `hash` is refreshed by the level-ordered
/// hashing pass after the structural fold.
#[derive(Clone, Debug)]
struct InternalNode {
    hash: Digest,
    left: u32,
    right: u32,
}

/// A leaf binding one key to one value hash. Never edited: an update
/// allocates the replacement and frees this slot for a later round.
#[derive(Clone, Debug)]
struct LeafNode {
    key: Digest,
    value_hash: Digest,
    hash: Digest,
}

/// One batched delta: a key plus either the pre-hashed replacement leaf
/// (upsert) or [`EMPTY_REF`] (delete).
struct Item {
    key: Digest,
    leaf: u32,
}

/// Internal nodes the current fold created or changed, with their depths,
/// so the hashing pass can go level by level (children before parents).
/// Two flat buffers rather than one per level: a fold that reaches one level
/// deeper than the last needs no new buffer.
#[derive(Default)]
struct Dirty {
    /// `(depth, node)` in the order the fold marked them.
    marks: Vec<(u16, u32)>,
    /// The marked nodes grouped by depth, deepest level first.
    grouped: Vec<u32>,
}

impl Dirty {
    fn mark(&mut self, depth: usize, node: u32) {
        self.marks.push((depth as u16, node));
    }

    /// Groups the marks by depth — a counting sort, depths being at most
    /// 256 — and returns where each level starts in `grouped`, indexed by
    /// `256 - depth`; level `k` ends where level `k + 1` starts.
    fn group(&mut self) -> [usize; 258] {
        let mut starts = [0usize; 258];
        for &(depth, _) in &self.marks {
            starts[256 - depth as usize + 1] += 1;
        }
        for k in 1..starts.len() {
            starts[k] += starts[k - 1];
        }
        let mut next = starts;
        self.grouped.resize(self.marks.len(), 0);
        for &(depth, node) in &self.marks {
            let slot = &mut next[256 - depth as usize];
            self.grouped[*slot] = node;
            *slot += 1;
        }
        starts
    }
}

/// The buffers of one fold, kept for the next: once the commits have warmed
/// them up, a round's fold allocates nothing. A bulk fold — more deltas than
/// half the live set, such as genesis — drops them afterwards, as `pending`
/// sheds its genesis-sized table.
#[derive(Default)]
struct Scratch {
    ops: Vec<(OutPoint, Option<TxOutput>)>,
    key_preimages: Vec<[u8; 53]>,
    keys: Vec<Digest>,
    /// Indices into `ops` of the upserts.
    upserts: Vec<usize>,
    value_preimages: Vec<[u8; 33]>,
    value_hashes: Vec<Digest>,
    /// Leaf preimages, then each dirty level's internal-node preimages.
    preimages: Vec<[u8; 65]>,
    /// Leaf hashes, then each dirty level's internal-node hashes.
    hashes: Vec<Digest>,
    items: Vec<Item>,
    dirty: Dirty,
}

/// A copy of a store starts with empty buffers of its own.
impl Clone for Scratch {
    fn clone(&self) -> Scratch {
        Scratch::default()
    }
}

impl std::fmt::Debug for Scratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scratch").finish_non_exhaustive()
    }
}

/// The sparse-Merkle state store. See the module docs for the design.
#[derive(Clone, Debug)]
pub struct SmtStore {
    /// The live state (committed ⊕ pending), for O(1) lookups.
    live: FxHashMap<OutPoint, TxOutput>,
    /// Deltas since the last commit: `Some` upserts, `None` deletes.
    pending: FxHashMap<OutPoint, Option<TxOutput>>,
    /// Internal-node arena: the live tree plus the slots in `free_internals`.
    internals: Vec<InternalNode>,
    /// Leaf arena: the live leaves plus the slots in `free_leaves`.
    leaves: Vec<LeafNode>,
    /// Slots of `internals` whose subtree collapsed, reused before the arena
    /// grows.
    free_internals: Vec<u32>,
    /// Slots of `leaves` (untagged) that a batch replaced or deleted.
    free_leaves: Vec<u32>,
    /// Root of the tree as of the latest commit.
    root: u32,
    /// `(round, root digest)` per committed round, ascending.
    versions: Vec<(u64, Digest)>,
    /// The fold's buffers, kept across commits (boxed: the store is an
    /// enum variant beside a bare map).
    scratch: Option<Box<Scratch>>,
}

impl Default for SmtStore {
    fn default() -> Self {
        SmtStore::with_capacity(0)
    }
}

impl SmtStore {
    /// An empty store whose live map is pre-sized for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> SmtStore {
        SmtStore {
            live: FxHashMap::with_capacity_and_hasher(capacity, FxBuildHasher::default()),
            pending: FxHashMap::default(),
            internals: Vec::new(),
            leaves: Vec::new(),
            free_internals: Vec::new(),
            free_leaves: Vec::new(),
            root: EMPTY_REF,
            versions: Vec::new(),
            scratch: None,
        }
    }

    /// The live entries, pending writes included.
    pub fn live(&self) -> &FxHashMap<OutPoint, TxOutput> {
        &self.live
    }

    /// Inserts or replaces an entry and buffers the write for the next
    /// commit; returns the previous value if any.
    pub fn insert(&mut self, outpoint: OutPoint, output: TxOutput) -> Option<TxOutput> {
        self.pending.insert(outpoint, Some(output));
        self.live.insert(outpoint, output)
    }

    /// Removes an entry, buffering the delete if it existed; returns it.
    pub fn remove(&mut self, outpoint: &OutPoint) -> Option<TxOutput> {
        let old = self.live.remove(outpoint);
        if old.is_some() {
            self.pending.insert(*outpoint, None);
        }
        old
    }

    /// Number of deltas buffered since the last commit.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Arena *slots* `(internal, leaf)`, free ones included (capacity
    /// telemetry for the state benchmark). A freed slot stays in its arena
    /// until it is reused, so neither count ever decreases — callers subtract
    /// two readings as `usize`.
    pub fn allocated_nodes(&self) -> (usize, usize) {
        (self.internals.len(), self.leaves.len())
    }

    /// Folds the buffered deltas into the tree without recording a round
    /// version — used once at genesis so round 0's root already includes the
    /// genesis UTXOs as its base.
    pub fn commit_genesis(&mut self) -> Digest {
        self.fold_pending();
        self.state_root()
    }

    /// Seals the writes since the previous commit into the tree and records
    /// the resulting root digest for `round`.
    pub fn commit(&mut self, round: u64) -> Digest {
        self.fold_pending();
        debug_assert!(
            self.versions.last().is_none_or(|&(r, _)| r < round),
            "rounds must commit in ascending order"
        );
        let root = self.state_root();
        self.versions.push((round, root));
        root
    }

    /// The root of the latest committed tree.
    pub fn state_root(&self) -> Digest {
        self.ref_hash(self.root)
    }

    /// The root committed at the latest round `<= round`, if any.
    pub fn root_at_round(&self, round: u64) -> Option<Digest> {
        let idx = self.versions.partition_point(|&(r, _)| r <= round);
        idx.checked_sub(1).map(|i| self.versions[i].1)
    }

    /// An inclusion/exclusion proof for `outpoint` against the latest
    /// committed root.
    pub fn prove(&self, outpoint: &OutPoint) -> StateProof {
        let key = key_digest(outpoint);
        let mut siblings = Vec::new();
        let mut node = self.root;
        let mut depth = 0usize;
        loop {
            if node == EMPTY_REF {
                return StateProof {
                    siblings,
                    terminal: ProofTerminal::AbsentEmpty,
                };
            }
            if is_leaf(node) {
                let leaf = &self.leaves[(node & !LEAF_TAG) as usize];
                let terminal = if leaf.key == key {
                    ProofTerminal::Included {
                        value_hash: leaf.value_hash,
                    }
                } else {
                    ProofTerminal::AbsentLeaf {
                        leaf_key: leaf.key,
                        leaf_value_hash: leaf.value_hash,
                    }
                };
                return StateProof { siblings, terminal };
            }
            let n = &self.internals[node as usize];
            if key_bit(&key, depth) {
                siblings.push(self.ref_hash(n.left));
                node = n.right;
            } else {
                siblings.push(self.ref_hash(n.right));
                node = n.left;
            }
            depth += 1;
        }
    }

    fn ref_hash(&self, node: u32) -> Digest {
        if node == EMPTY_REF {
            EMPTY_ROOT
        } else if is_leaf(node) {
            self.leaves[(node & !LEAF_TAG) as usize].hash
        } else {
            self.internals[node as usize].hash
        }
    }

    /// Drains `pending` into a key-sorted item batch with all leaf hashes
    /// precomputed (three `sha256_many` passes: keys, values, leaves), then
    /// runs the structural fold and the level-ordered hash pass, all in the
    /// buffers of `scratch`.
    fn fold_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let batch = self.pending.len();
        // Out of `self` for the fold, which borrows the arenas mutably.
        let mut scratch = self.scratch.take().unwrap_or_default();
        let Scratch {
            ops,
            key_preimages,
            keys,
            upserts,
            value_preimages,
            value_hashes,
            preimages,
            hashes,
            items,
            dirty,
        } = &mut *scratch;
        ops.clear();
        ops.extend(self.pending.drain());
        // Draining keeps the bucket array — deliberately, so steady-state
        // rounds reuse it allocation-free — but one huge batch (genesis at
        // 10^6+ entries) must not leave every later round walking a
        // million-slot empty table just to collect its ~1k deltas.
        if self.pending.capacity() > 4 * batch.max(1024) {
            self.pending.shrink_to(batch.max(1024));
        }

        // Pass 1: keys.
        key_preimages.clear();
        key_preimages.extend(ops.iter().map(|(op, _)| key_preimage(op)));
        keys.clear();
        sha256_many(key_preimages, keys);

        // Pass 2: value hashes of the upserts.
        upserts.clear();
        upserts.extend((0..ops.len()).filter(|&i| ops[i].1.is_some()));
        value_preimages.clear();
        value_preimages.extend(
            upserts
                .iter()
                .map(|&i| value_preimage(ops[i].1.as_ref().unwrap())),
        );
        value_hashes.clear();
        sha256_many(value_preimages, value_hashes);

        // Pass 3: leaf hashes of the upserts.
        preimages.clear();
        preimages.resize(upserts.len(), [0u8; 65]);
        for ((buf, &i), value_hash) in preimages
            .iter_mut()
            .zip(upserts.iter())
            .zip(value_hashes.iter())
        {
            fill_leaf_preimage(buf, &keys[i], value_hash);
        }
        hashes.clear();
        sha256_many(preimages, hashes);

        // Allocate the new leaves and assemble the batch.
        items.clear();
        let mut upsert_no = 0usize;
        for (i, (_, op)) in ops.iter().enumerate() {
            let leaf = if op.is_some() {
                let leaf = LeafNode {
                    key: keys[i],
                    value_hash: value_hashes[upsert_no],
                    hash: hashes[upsert_no],
                };
                upsert_no += 1;
                self.alloc_leaf(leaf)
            } else {
                EMPTY_REF
            };
            items.push(Item { key: keys[i], leaf });
        }
        // Key-sorted: lexicographic byte order equals path order, so every
        // sub-slice of the fold is contiguous.
        items.sort_unstable_by_key(|a| a.key);

        dirty.marks.clear();
        (self.root, _) = self.fold(self.root, 0, items, dirty);
        self.rehash_dirty(dirty, preimages, hashes);
        if 2 * batch <= self.live.len() {
            self.scratch = Some(scratch);
        }
    }

    /// Stores `leaf` in a recycled slot if one is free, else in a new one.
    fn alloc_leaf(&mut self, leaf: LeafNode) -> u32 {
        let slot = match self.free_leaves.pop() {
            Some(slot) => {
                self.leaves[slot as usize] = leaf;
                slot
            }
            None => {
                let slot = self.leaves.len() as u32;
                assert!(slot & LEAF_TAG == 0, "leaf arena exhausted");
                self.leaves.push(leaf);
                slot
            }
        };
        LEAF_TAG | slot
    }

    /// First index of `batch` whose key has bit `depth` set (the
    /// left/right split point of a key-sorted batch).
    fn split_point(batch: &[Item], depth: usize) -> usize {
        batch.partition_point(|item| !key_bit(&item.key, depth))
    }

    /// Merges a key-sorted batch into the subtree at `node`, in place.
    ///
    /// Returns the subtree's reference afterwards and whether anything in it
    /// changed. The flag is not redundant with the reference: an internal
    /// node keeps its slot when its content changes, so only the flag tells
    /// the parent that its own hash is stale.
    fn fold(&mut self, node: u32, depth: usize, batch: &[Item], dirty: &mut Dirty) -> (u32, bool) {
        if batch.is_empty() {
            return (node, false);
        }
        // The empty subtree and a leaf are replaced, never edited, so for
        // them a change does show in the reference.
        if node == EMPTY_REF {
            let built = self.build(depth, batch, dirty);
            return (built, built != EMPTY_REF);
        }
        if is_leaf(node) {
            let merged = self.merge_leaf(node, depth, batch, dirty);
            return (merged, merged != node);
        }
        let (left, right) = {
            let n = &self.internals[node as usize];
            (n.left, n.right)
        };
        let split = Self::split_point(batch, depth);
        let (left, left_changed) = self.fold(left, depth + 1, &batch[..split], dirty);
        let (right, right_changed) = self.fold(right, depth + 1, &batch[split..], dirty);
        if !left_changed && !right_changed {
            // Pure no-op batch (deletes of absent keys).
            return (node, false);
        }
        (self.join(depth, node, left, right, dirty), true)
    }

    /// Builds the canonical subtree of a key-sorted batch over an empty
    /// subtree (deletes are no-ops here).
    fn build(&mut self, depth: usize, batch: &[Item], dirty: &mut Dirty) -> u32 {
        debug_assert!(depth <= 256);
        let mut live = batch.iter().filter(|item| item.leaf != EMPTY_REF);
        let first = match live.next() {
            None => return EMPTY_REF,
            Some(item) => item,
        };
        if live.next().is_none() {
            return first.leaf;
        }
        let split = Self::split_point(batch, depth);
        let left = self.build(depth + 1, &batch[..split], dirty);
        let right = self.build(depth + 1, &batch[split..], dirty);
        self.join(depth, EMPTY_REF, left, right, dirty)
    }

    /// Merges a batch into a subtree currently represented by a single
    /// leaf (the compressed form of a one-entry subtree).
    fn merge_leaf(&mut self, leaf: u32, depth: usize, batch: &[Item], dirty: &mut Dirty) -> u32 {
        if batch.is_empty() {
            return leaf;
        }
        let slot = leaf & !LEAF_TAG;
        let leaf_key = self.leaves[slot as usize].key;
        if batch
            .binary_search_by(|item| item.key.cmp(&leaf_key))
            .is_ok()
        {
            // The batch addresses the leaf's own key: an upsert replaces it,
            // a delete removes it — either way the batch alone decides, and
            // the old leaf's slot is free for the next round's allocations.
            self.free_leaves.push(slot);
            return self.build(depth, batch, dirty);
        }
        if !batch.iter().any(|item| item.leaf != EMPTY_REF) {
            // Only deletes of other (absent) keys: nothing changes.
            return leaf;
        }
        let split = Self::split_point(batch, depth);
        let (left, right) = if key_bit(&leaf_key, depth) {
            (
                self.build(depth + 1, &batch[..split], dirty),
                self.merge_leaf(leaf, depth + 1, &batch[split..], dirty),
            )
        } else {
            (
                self.merge_leaf(leaf, depth + 1, &batch[..split], dirty),
                self.build(depth + 1, &batch[split..], dirty),
            )
        };
        self.join(depth, EMPTY_REF, left, right, dirty)
    }

    /// Canonicalizing node constructor: collapses one-leaf subtrees so the
    /// tree shape stays a pure function of the key set.
    ///
    /// `here` is the internal node the fold stands on, or [`EMPTY_REF`] where
    /// the tree had none. A subtree that still needs an internal node keeps
    /// `here` (or takes a recycled slot, or grows the arena); one that
    /// collapsed gives `here` back to the free list.
    fn join(&mut self, depth: usize, here: u32, left: u32, right: u32, dirty: &mut Dirty) -> u32 {
        let collapsed = match (left == EMPTY_REF, right == EMPTY_REF) {
            (true, true) => Some(EMPTY_REF),
            (true, false) if is_leaf(right) => Some(right),
            (false, true) if is_leaf(left) => Some(left),
            _ => None,
        };
        if let Some(survivor) = collapsed {
            if here != EMPTY_REF {
                self.free_internals.push(here);
            }
            return survivor;
        }
        // The hash is a placeholder until `rehash_dirty` reaches this depth.
        let joined = InternalNode {
            hash: Digest::ZERO,
            left,
            right,
        };
        let reuse = if here != EMPTY_REF {
            Some(here)
        } else {
            self.free_internals.pop()
        };
        let node = match reuse {
            Some(slot) => {
                self.internals[slot as usize] = joined;
                slot
            }
            None => {
                let slot = self.internals.len() as u32;
                assert!(slot & LEAF_TAG == 0, "internal arena exhausted");
                self.internals.push(joined);
                slot
            }
        };
        dirty.mark(depth, node);
        node
    }

    /// Hashes the fold's dirty internal nodes level by level, deepest first,
    /// lane-batched through [`sha256_many`] in `bufs` and `hashes`. Children
    /// are final before their parents: leaves were hashed before the fold,
    /// deeper internals in an earlier iteration, untouched subtrees in an
    /// earlier commit.
    fn rehash_dirty(
        &mut self,
        dirty: &mut Dirty,
        bufs: &mut Vec<[u8; 65]>,
        hashes: &mut Vec<Digest>,
    ) {
        let starts = dirty.group();
        for level in starts.windows(2).map(|w| &dirty.grouped[w[0]..w[1]]) {
            if level.is_empty() {
                continue;
            }
            bufs.clear();
            bufs.resize(level.len(), [0u8; 65]);
            for (buf, &node) in bufs.iter_mut().zip(level) {
                let (left, right) = {
                    let n = &self.internals[node as usize];
                    (n.left, n.right)
                };
                let left_hash = self.ref_hash(left);
                let right_hash = self.ref_hash(right);
                fill_internal_preimage(buf, &left_hash, &right_hash);
            }
            hashes.clear();
            sha256_many(bufs, hashes);
            for (&node, hash) in level.iter().zip(hashes.iter()) {
                self.internals[node as usize].hash = *hash;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::AccountId;
    use cycledger_crypto::sha256::hash_parts;
    use cycledger_crypto::smt::{internal_hash, leaf_hash, verify_proof};

    fn op(n: u64) -> OutPoint {
        OutPoint {
            tx_id: hash_parts(&[b"smt-store-test", &n.to_be_bytes()]),
            index: (n % 3) as u32,
        }
    }

    fn out(n: u64) -> TxOutput {
        TxOutput {
            owner: AccountId(n),
            amount: 100 + n,
        }
    }

    /// Independent reference root: recursive canonical construction over the
    /// sorted `(key, value_hash)` list, using only the crypto-crate hash
    /// conventions (no tree code shared with the implementation under test).
    fn reference_root(entries: &[(Digest, Digest)], depth: usize) -> Digest {
        match entries.len() {
            0 => EMPTY_ROOT,
            1 => leaf_hash(&entries[0].0, &entries[0].1),
            _ => {
                let split = entries.partition_point(|(k, _)| !key_bit(k, depth));
                let left = reference_root(&entries[..split], depth + 1);
                let right = reference_root(&entries[split..], depth + 1);
                internal_hash(&left, &right)
            }
        }
    }

    fn reference_root_of(entries: &FxHashMap<OutPoint, TxOutput>) -> Digest {
        let mut pairs: Vec<(Digest, Digest)> = entries
            .iter()
            .map(|(op, o)| (key_digest(op), value_digest(o)))
            .collect();
        pairs.sort_unstable_by_key(|a| a.0);
        reference_root(&pairs, 0)
    }

    #[test]
    fn roots_match_the_reference_construction() {
        let mut store = SmtStore::default();
        let mut model: FxHashMap<OutPoint, TxOutput> = FxHashMap::default();
        // Three commits: inserts, a mixed batch with deletes, all-deletes.
        for n in 0..50 {
            store.insert(op(n), out(n));
            model.insert(op(n), out(n));
        }
        let root = store.commit(0);
        assert_eq!(root, reference_root_of(&model));

        for n in 50..70 {
            store.insert(op(n), out(n));
            model.insert(op(n), out(n));
        }
        for n in (0..50).step_by(3) {
            store.remove(&op(n));
            model.remove(&op(n));
        }
        // Update in place: same key, new value.
        store.insert(op(51), out(999));
        model.insert(op(51), out(999));
        let root = store.commit(1);
        assert_eq!(root, reference_root_of(&model));
        assert_eq!(store.live().len(), model.len());

        let keys: Vec<OutPoint> = model.keys().copied().collect();
        for k in keys {
            store.remove(&k);
        }
        let root = store.commit(2);
        assert_eq!(root, EMPTY_ROOT, "deleting everything empties the tree");
    }

    #[test]
    fn root_is_insertion_order_independent() {
        let entries: Vec<(OutPoint, TxOutput)> = (0..64).map(|n| (op(n), out(n))).collect();

        // One batch, forward order.
        let mut a = SmtStore::default();
        for (o, v) in &entries {
            a.insert(*o, *v);
        }
        let root_a = a.commit(0);

        // One batch, reverse order.
        let mut b = SmtStore::default();
        for (o, v) in entries.iter().rev() {
            b.insert(*o, *v);
        }
        let root_b = b.commit(0);
        assert_eq!(root_a, root_b, "order within a batch must not matter");

        // Split across several commits, interleaved with churn that cancels.
        let mut c = SmtStore::default();
        for (o, v) in entries.iter().skip(32) {
            c.insert(*o, *v);
        }
        c.insert(op(1000), out(1000));
        c.commit(0);
        for (o, v) in entries.iter().take(32) {
            c.insert(*o, *v);
        }
        c.remove(&op(1000));
        let root_c = c.commit(1);
        assert_eq!(root_a, root_c, "batch partitioning must not matter");
    }

    #[test]
    fn proofs_verify_against_the_root() {
        let mut store = SmtStore::default();
        for n in 0..40 {
            store.insert(op(n), out(n));
        }
        let root = store.commit(0);

        // Inclusion for every present key.
        for n in 0..40 {
            let proof = store.prove(&op(n));
            assert!(
                matches!(proof.terminal, ProofTerminal::Included { .. }),
                "present key proved absent"
            );
            assert_eq!(verify_proof(&root, &key_digest(&op(n)), &proof), Ok(()));
        }
        // Exclusion for absent keys.
        for n in 1000..1040 {
            let proof = store.prove(&op(n));
            assert!(!matches!(proof.terminal, ProofTerminal::Included { .. }));
            assert_eq!(verify_proof(&root, &key_digest(&op(n)), &proof), Ok(()));
        }
        // A removed key flips from inclusion to exclusion.
        let victim = op(7);
        let old_proof = store.prove(&victim);
        store.remove(&victim);
        let new_root = store.commit(1);
        let new_proof = store.prove(&victim);
        assert!(!matches!(
            new_proof.terminal,
            ProofTerminal::Included { .. }
        ));
        assert_eq!(
            verify_proof(&new_root, &key_digest(&victim), &new_proof),
            Ok(())
        );
        assert!(
            verify_proof(&new_root, &key_digest(&victim), &old_proof).is_err(),
            "stale inclusion must not verify against the new root"
        );
        // The old root digest still verifies the old proof.
        assert_eq!(
            verify_proof(&root, &key_digest(&victim), &old_proof),
            Ok(())
        );
    }

    #[test]
    fn versioned_roots_snapshot_each_round() {
        let mut store = SmtStore::default();
        store.insert(op(1), out(1));
        let r0 = store.commit(0);
        store.insert(op(2), out(2));
        let r2 = store.commit(2);
        assert_ne!(r0, r2);
        assert_eq!(store.root_at_round(0), Some(r0));
        assert_eq!(
            store.root_at_round(1),
            Some(r0),
            "gap rounds see the last commit"
        );
        assert_eq!(store.root_at_round(2), Some(r2));
        assert_eq!(store.root_at_round(u64::MAX), Some(r2));
        assert_eq!(SmtStore::default().root_at_round(0), None);
        assert_eq!(store.state_root(), r2);
    }

    #[test]
    fn genesis_commit_records_no_version() {
        let mut store = SmtStore::default();
        store.insert(op(1), out(1));
        let genesis_root = store.commit_genesis();
        assert_ne!(genesis_root, EMPTY_ROOT);
        assert_eq!(store.root_at_round(0), None, "genesis is not a round");
        assert_eq!(store.state_root(), genesis_root);
        // An empty round commit re-publishes the same root.
        assert_eq!(store.commit(0), genesis_root);
        assert_eq!(store.root_at_round(0), Some(genesis_root));
    }

    #[test]
    fn empty_commits_share_all_nodes() {
        let mut store = SmtStore::default();
        for n in 0..32 {
            store.insert(op(n), out(n));
        }
        store.commit(0);
        let nodes_before = store.allocated_nodes();
        for round in 1..5 {
            store.commit(round);
        }
        assert_eq!(
            store.allocated_nodes(),
            nodes_before,
            "no-delta commits must allocate nothing"
        );
    }

    /// One churn round of the state benchmark's shape: spend the `count`
    /// oldest live entries, credit `count` fresh ones, commit.
    fn churn_round(store: &mut SmtStore, round: u64, oldest: &mut u64, next: &mut u64, count: u64) {
        for _ in 0..count {
            store.remove(&op(*oldest));
            store.insert(op(*next), out(*next));
            *oldest += 1;
            *next += 1;
        }
        store.commit(round);
    }

    #[test]
    fn arena_tracks_live_state() {
        let (mut oldest, mut next) = (0u64, 10_000u64);
        let mut store = SmtStore::with_capacity(next as usize);
        for n in 0..next {
            store.insert(op(n), out(n));
        }
        store.commit_genesis();
        let mut slots_after_10 = 0usize;
        for round in 1..=200u64 {
            churn_round(&mut store, round, &mut oldest, &mut next, 512);
            if round == 10 {
                let (internal, leaf) = store.allocated_nodes();
                slots_after_10 = internal + leaf;
            }
        }
        assert_eq!(store.live().len(), 10_000);
        let (internal, leaf) = store.allocated_nodes();
        assert!(
            10 * (internal + leaf) <= 11 * slots_after_10,
            "arena grew from {slots_after_10} slots after 10 commits to {} after 200 \
             behind a constant live set",
            internal + leaf
        );
        // The bound the state gate caps: ~1.44 internal nodes and one leaf
        // per live entry, plus one round of churn.
        assert!(internal + leaf <= 3 * store.live().len());
    }

    #[test]
    fn recorded_roots_and_old_proofs_outlive_their_nodes() {
        let (mut oldest, mut next) = (0u64, 256u64);
        let mut store = SmtStore::default();
        for n in 0..next {
            store.insert(op(n), out(n));
        }
        store.commit_genesis();
        // Ten recorded rounds, each with a proof of a key the later churn
        // spends, then fifty more that recycle every node those versions had.
        let mut recorded: Vec<(u64, Digest, OutPoint, StateProof)> = Vec::new();
        for round in 0..60u64 {
            churn_round(&mut store, round, &mut oldest, &mut next, 32);
            if round < 10 {
                let witness = op(oldest);
                let proof = store.prove(&witness);
                assert!(matches!(proof.terminal, ProofTerminal::Included { .. }));
                recorded.push((round, store.state_root(), witness, proof));
            }
        }
        let (_, leaf_slots) = store.allocated_nodes();
        assert!(
            leaf_slots <= 256 + 2 * 32,
            "the later rounds must have run on the recorded versions' recycled slots"
        );
        for (round, root, witness, proof) in &recorded {
            assert_eq!(store.root_at_round(*round), Some(*root));
            assert_eq!(verify_proof(root, &key_digest(witness), proof), Ok(()));
            assert_ne!(store.state_root(), *root);
            assert!(
                store.live().get(witness).is_none(),
                "the witness was spent since"
            );
        }
    }

    #[test]
    fn a_clone_and_its_original_diverge_independently() {
        let mut original = SmtStore::default();
        let mut model: FxHashMap<OutPoint, TxOutput> = FxHashMap::default();
        for n in 0..200 {
            original.insert(op(n), out(n));
            model.insert(op(n), out(n));
        }
        original.commit(0);
        // Leave recycled slots on both free lists before cloning, so the
        // copies start out wanting the *same* slots.
        for n in 0..60 {
            original.remove(&op(n));
            model.remove(&op(n));
        }
        original.commit(1);
        let mut copy = original.clone();
        let mut copy_model = model.clone();

        for n in 1000..1080 {
            original.insert(op(n), out(n));
            model.insert(op(n), out(n));
        }
        for n in 2000..2040 {
            copy.insert(op(n), out(n));
            copy_model.insert(op(n), out(n));
        }
        for n in 60..120 {
            copy.remove(&op(n));
            copy_model.remove(&op(n));
        }
        let original_root = original.commit(2);
        let copy_root = copy.commit(2);
        assert_ne!(original_root, copy_root);
        for (store, model, root) in [
            (&original, &model, original_root),
            (&copy, &copy_model, copy_root),
        ] {
            assert_eq!(root, reference_root_of(model));
            for outpoint in model.keys() {
                let proof = store.prove(outpoint);
                assert!(matches!(proof.terminal, ProofTerminal::Included { .. }));
                assert_eq!(verify_proof(&root, &key_digest(outpoint), &proof), Ok(()));
            }
        }
        assert_eq!(original.root_at_round(1), copy.root_at_round(1));
    }

    mod scripts {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Multi-commit scripts over a small key universe, so keys are
            /// inserted, updated in place, deleted, deleted while absent and
            /// inserted-then-removed inside one round, and the tree is now
            /// and then deleted down to empty and refilled. After every
            /// commit the in-place tree must be the canonical tree of the
            /// model: same root as the reference construction, inclusion
            /// for every live key and exclusion for dead ones.
            #[test]
            fn prop_in_place_tree_is_the_canonical_tree(
                raw in proptest::collection::vec(0u64..1_000_000, 300..500),
            ) {
                const KEYS: u64 = 48;
                let mut store = SmtStore::default();
                let mut model: FxHashMap<OutPoint, TxOutput> = FxHashMap::default();
                let mut round = 0u64;
                for (step, v) in raw.iter().copied().enumerate() {
                    let key = (v / 16) % KEYS;
                    match v % 16 {
                        0..=5 => {
                            // Insert, or update in place when `key` is live.
                            store.insert(op(key), out(v));
                            model.insert(op(key), out(v));
                        }
                        6..=9 => {
                            // Delete; of an absent key as often as not.
                            prop_assert_eq!(store.remove(&op(key)), model.remove(&op(key)));
                        }
                        10 => {
                            // A key born and gone inside one round.
                            let ghost = op(10_000 + step as u64);
                            store.insert(ghost, out(v));
                            prop_assert_eq!(store.remove(&ghost), Some(out(v)));
                        }
                        11 => {
                            // Down to empty; later steps refill.
                            for outpoint in model.keys() {
                                store.remove(outpoint);
                            }
                            model.clear();
                        }
                        _ => {
                            let root = store.commit(round);
                            round += 1;
                            prop_assert_eq!(root, reference_root_of(&model));
                            prop_assert_eq!(store.live().len(), model.len());
                            for outpoint in model.keys() {
                                let proof = store.prove(outpoint);
                                prop_assert!(
                                    matches!(proof.terminal, ProofTerminal::Included { .. })
                                );
                                prop_assert_eq!(
                                    verify_proof(&root, &key_digest(outpoint), &proof),
                                    Ok(())
                                );
                            }
                            for dead in (0..KEYS).map(op).filter(|o| !model.contains_key(o)) {
                                let proof = store.prove(&dead);
                                prop_assert!(
                                    !matches!(proof.terminal, ProofTerminal::Included { .. })
                                );
                                prop_assert_eq!(
                                    verify_proof(&root, &key_digest(&dead), &proof),
                                    Ok(())
                                );
                            }
                        }
                    }
                }
                // At most `KEYS` leaves are live and a round upserts at most
                // `KEYS` more before the fold frees any; a script this long
                // allocates more leaves than that, so it ran on recycled slots.
                let (_, leaf_slots) = store.allocated_nodes();
                prop_assert!(leaf_slots as u64 <= 2 * KEYS);
            }
        }
    }

    #[test]
    fn uncommitted_writes_are_visible_to_lookups_only() {
        let mut store = SmtStore::default();
        store.insert(op(1), out(1));
        store.commit(0);
        store.insert(op(2), out(2));
        // The live map sees the pending write...
        assert_eq!(store.live().get(&op(2)), Some(&out(2)));
        assert_eq!(store.live().len(), 2);
        assert_eq!(store.pending_len(), 1);
        // ...but the committed tree does not, until the next commit.
        let proof = store.prove(&op(2));
        assert!(!matches!(proof.terminal, ProofTerminal::Included { .. }));
        store.commit(1);
        let proof = store.prove(&op(2));
        assert!(matches!(proof.terminal, ProofTerminal::Included { .. }));
    }

    #[test]
    fn insert_then_remove_before_commit_is_a_no_op() {
        let mut store = SmtStore::default();
        store.insert(op(1), out(1));
        let base = store.commit(0);
        store.insert(op(2), out(2));
        store.remove(&op(2));
        assert_eq!(store.commit(1), base, "cancelled delta changes nothing");
    }
}
