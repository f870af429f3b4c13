//! Binary Merkle trees with membership proofs.
//!
//! The referee committee packs the round's `TXdecSET`s, participant lists and
//! reputation table into a block; Merkle roots give committees a compact way to
//! commit to these lists and let light verifiers check membership of a single
//! transaction or UTXO without the whole list.
//!
//! A build stages leaf and node pre-images two at a time and hashes each
//! pair through [`sha256_many`], which decides how they are compressed.

use crate::sha256::{hash_parts, sha256_many, Digest};

/// Domain tags keep leaf hashes and interior hashes in disjoint ranges, which
/// blocks the classic "reinterpret an interior node as a leaf" forgery.
const LEAF_DOMAIN: &[u8] = b"cycledger/merkle-leaf";
const NODE_DOMAIN: &[u8] = b"cycledger/merkle-node";

/// Byte length of an interior node's pre-image under the [`hash_parts`]
/// framing: `le64(|tag|) ++ tag ++ le64(32) ++ left ++ le64(32) ++ right`.
const NODE_MSG_LEN: usize = 8 + NODE_DOMAIN.len() + 8 + 32 + 8 + 32;

/// Appends one length-prefixed part in the exact [`hash_parts`] framing.
fn frame_part(buf: &mut Vec<u8>, part: &[u8]) {
    buf.extend_from_slice(&(part.len() as u64).to_le_bytes());
    buf.extend_from_slice(part);
}

/// Serializes an interior node's pre-image into a fixed scratch block.
fn node_msg(left: &Digest, right: &Digest, out: &mut [u8; NODE_MSG_LEN]) {
    let mut at = 0usize;
    for part in [NODE_DOMAIN, left.as_bytes(), right.as_bytes()] {
        out[at..at + 8].copy_from_slice(&(part.len() as u64).to_le_bytes());
        at += 8;
        out[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    debug_assert_eq!(at, NODE_MSG_LEN);
}

/// A full Merkle tree retained in memory.
///
/// All node digests live in **one flat vector**, level by level (leaves
/// first, root last), with `level_offsets[i]` marking where level `i`
/// starts. The flat layout is one allocation of known size instead of a
/// `Vec<Vec<Digest>>` per build — trees are built for every block's slice
/// roots, so build allocation discipline is part of the round hot path.
#[derive(Clone, Debug, Default)]
pub struct MerkleTree {
    nodes: Vec<Digest>,
    level_offsets: Vec<usize>,
    leaf_count: usize,
    /// Leaf pre-image staging, one pair of buffers for [`sha256_many`];
    /// kept so a tree rebuilt in place ([`MerkleTree::rebuild_from_slices`])
    /// reuses it.
    staged: [Vec<u8>; 2],
}

/// A Merkle membership proof: the sibling hashes from leaf to root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: usize,
    /// Sibling digests, one per tree level (bottom-up).
    pub siblings: Vec<Digest>,
    /// Total number of leaves in the tree the proof was generated from.
    pub leaf_count: usize,
}

/// Hashes a leaf payload.
pub fn leaf_hash(data: &[u8]) -> Digest {
    hash_parts(&[LEAF_DOMAIN, data])
}

fn node_hash(left: &Digest, right: &Digest) -> Digest {
    hash_parts(&[NODE_DOMAIN, left.as_bytes(), right.as_bytes()])
}

impl MerkleTree {
    /// Builds a tree over the given leaf payloads.
    ///
    /// An empty input produces a tree whose root is [`Digest::ZERO`]. Odd levels
    /// are handled by promoting the unpaired node (Bitcoin-style duplication is
    /// avoided because it permits distinct leaf sets with equal roots).
    pub fn build<T: AsRef<[u8]>>(leaves: &[T]) -> MerkleTree {
        Self::build_from_slices(leaves.iter().map(|l| l.as_ref()))
    }

    /// Builds a tree from an iterator of **borrowed** leaf payloads, hashed
    /// straight into the flat node vector with no intermediate
    /// `Vec<Vec<u8>>` of leaves and no per-level vectors.
    pub fn build_from_slices<'x, I>(leaves: I) -> MerkleTree
    where
        I: IntoIterator<Item = &'x [u8]>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut tree = MerkleTree::default();
        tree.rebuild_from_slices(leaves);
        tree
    }

    /// Rebuilds this tree over new leaf payloads, keeping its buffers: a
    /// caller hashing many small trees in a row (a block's per-shard slice
    /// roots) allocates for the largest of them, not for each.
    pub fn rebuild_from_slices<'x, I>(&mut self, leaves: I)
    where
        I: IntoIterator<Item = &'x [u8]>,
        I::IntoIter: ExactSizeIterator,
    {
        self.rebuild_with(leaves, |leaf, buf| buf.extend_from_slice(leaf));
    }

    /// Rebuilds this tree over leaves that write their payloads rather than
    /// lend them: `write(leaf, buf)` appends the leaf's payload to `buf`, the
    /// reusable buffer its pre-image is staged in. A leaf whose bytes
    /// are a function of its fields (a transaction's canonical encoding)
    /// costs one copy, as a borrowed slice does, and no allocation of its own.
    pub fn rebuild_with<I, F>(&mut self, leaves: I, mut write: F)
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        F: FnMut(I::Item, &mut Vec<u8>),
    {
        let iter = leaves.into_iter();
        let leaf_count = iter.len();
        let (nodes, level_offsets) = (&mut self.nodes, &mut self.level_offsets);
        nodes.clear();
        level_offsets.clear();
        level_offsets.push(0);
        self.leaf_count = leaf_count;
        if leaf_count == 0 {
            return;
        }
        // Total node count over all levels is known up front: one allocation.
        let mut total = 0usize;
        let mut width = leaf_count;
        loop {
            total += width;
            if width == 1 {
                break;
            }
            width = width.div_ceil(2);
        }
        nodes.reserve(total);
        // Leaf level, hashed in pairs: each message is the leaf pre-image
        // under the `hash_parts` framing, staged into the tree's pair of
        // reusable buffers so a full pair goes through `sha256_many` at once.
        // Byte-identical to `iter.map(leaf_hash)`.
        {
            let scratch = &mut self.staged;
            let mut pending = 0usize;
            for leaf in iter {
                let buf = &mut scratch[pending];
                buf.clear();
                frame_part(buf, LEAF_DOMAIN);
                // `frame_part` of the written payload: its length prefix is
                // patched in once the payload is down.
                let at = buf.len();
                buf.extend_from_slice(&[0; 8]);
                write(leaf, buf);
                let len = (buf.len() - at - 8) as u64;
                buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
                pending += 1;
                if pending == scratch.len() {
                    sha256_many(scratch, nodes);
                    pending = 0;
                }
            }
            sha256_many(&scratch[..pending], nodes);
        }
        let mut start = 0usize;
        let mut len = leaf_count;
        // Interior levels: node pre-images are fixed-size, so two sibling
        // pairs at a time are serialized into stack scratch blocks and hashed
        // as one pair; a trailing odd node is promoted unchanged, as before.
        let mut bufs = [[0u8; NODE_MSG_LEN]; 2];
        while len > 1 {
            let pairs = len / 2;
            let mut p = 0usize;
            while p < pairs {
                let k = bufs.len().min(pairs - p);
                for (j, buf) in bufs[..k].iter_mut().enumerate() {
                    let i = start + 2 * (p + j);
                    node_msg(&nodes[i], &nodes[i + 1], buf);
                }
                sha256_many(&bufs[..k], nodes);
                p += k;
            }
            if len % 2 == 1 {
                let promoted = nodes[start + len - 1];
                nodes.push(promoted);
            }
            start += len;
            level_offsets.push(start);
            len = len.div_ceil(2);
        }
        debug_assert_eq!(nodes.len(), total);
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// The Merkle root ([`Digest::ZERO`] for an empty tree).
    pub fn root(&self) -> Digest {
        self.nodes.last().copied().unwrap_or(Digest::ZERO)
    }

    /// Length of level `i` (levels are indexed from the leaves up).
    fn level_len(&self, i: usize) -> usize {
        let end = self
            .level_offsets
            .get(i + 1)
            .copied()
            .unwrap_or(self.nodes.len());
        end - self.level_offsets[i]
    }

    /// Generates a membership proof for the leaf at `index`.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.leaf_count() {
            return None;
        }
        let levels = self.level_offsets.len();
        let mut siblings = Vec::with_capacity(levels.saturating_sub(1));
        let mut idx = index;
        for level in 0..levels.saturating_sub(1) {
            let offset = self.level_offsets[level];
            let sibling_idx = idx ^ 1;
            if sibling_idx < self.level_len(level) {
                siblings.push(self.nodes[offset + sibling_idx]);
            } else {
                // The node was promoted unpaired; record a sentinel the verifier
                // recognises via the index arithmetic (no sibling consumed).
                siblings.push(Digest::ZERO);
            }
            idx /= 2;
        }
        Some(MerkleProof {
            leaf_index: index,
            siblings,
            leaf_count: self.leaf_count(),
        })
    }
}

impl MerkleProof {
    /// Verifies the proof against a root for the given leaf payload.
    pub fn verify(&self, root: &Digest, leaf_data: &[u8]) -> bool {
        if self.leaf_count == 0 || self.leaf_index >= self.leaf_count {
            return false;
        }
        let mut hash = leaf_hash(leaf_data);
        let mut idx = self.leaf_index;
        let mut width = self.leaf_count;
        for sibling in &self.siblings {
            let sibling_idx = idx ^ 1;
            if sibling_idx < width {
                hash = if idx.is_multiple_of(2) {
                    node_hash(&hash, sibling)
                } else {
                    node_hash(sibling, &hash)
                };
            }
            // else: promoted node, hash carries upward unchanged.
            idx /= 2;
            width = width.div_ceil(2);
        }
        hash == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("tx-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_tree_root_is_zero() {
        let tree = MerkleTree::build::<Vec<u8>>(&[]);
        assert_eq!(tree.root(), Digest::ZERO);
        assert_eq!(tree.leaf_count(), 0);
        assert!(tree.prove(0).is_none());
    }

    #[test]
    fn single_leaf() {
        let tree = MerkleTree::build(&[b"only".to_vec()]);
        assert_eq!(tree.root(), leaf_hash(b"only"));
        let proof = tree.prove(0).unwrap();
        assert!(proof.verify(&tree.root(), b"only"));
        assert!(!proof.verify(&tree.root(), b"other"));
    }

    #[test]
    fn proofs_verify_for_all_sizes() {
        for n in 1..=33 {
            let data = leaves(n);
            let tree = MerkleTree::build(&data);
            for (i, leaf) in data.iter().enumerate() {
                let proof = tree.prove(i).unwrap();
                assert!(proof.verify(&tree.root(), leaf), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn a_rebuilt_tree_equals_a_fresh_one() {
        // Growing, shrinking and emptying a reused tree: its buffers carry
        // nothing from the previous build into root or proofs.
        let mut reused = MerkleTree::default();
        for n in [5usize, 17, 1, 0, 9, 33, 2] {
            let data = leaves(n);
            reused.rebuild_from_slices(data.iter().map(|l| l.as_slice()));
            let fresh = MerkleTree::build(&data);
            assert_eq!(reused.root(), fresh.root(), "n={n}");
            assert_eq!(reused.leaf_count(), n);
            for i in 0..n {
                assert_eq!(reused.prove(i), fresh.prove(i), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn written_leaves_hash_as_borrowed_ones() {
        // Payloads of every length class around the pair width and the
        // 64-byte block, written in two pieces.
        let data: Vec<Vec<u8>> = (0..19).map(|n| vec![n as u8; n * 7]).collect();
        let mut written = MerkleTree::default();
        written.rebuild_with(&data, |leaf, buf| {
            let (a, b) = leaf.split_at(leaf.len() / 2);
            buf.extend_from_slice(a);
            buf.extend_from_slice(b);
        });
        let borrowed = MerkleTree::build(&data);
        assert_eq!(written.root(), borrowed.root());
        for (i, leaf) in data.iter().enumerate() {
            assert!(written.prove(i).unwrap().verify(&written.root(), leaf));
        }
    }

    #[test]
    fn wrong_leaf_rejected() {
        let data = leaves(10);
        let tree = MerkleTree::build(&data);
        let proof = tree.prove(3).unwrap();
        assert!(!proof.verify(&tree.root(), b"tx-4"));
    }

    #[test]
    fn wrong_index_rejected() {
        let data = leaves(8);
        let tree = MerkleTree::build(&data);
        let mut proof = tree.prove(3).unwrap();
        proof.leaf_index = 4;
        assert!(!proof.verify(&tree.root(), b"tx-3"));
        proof.leaf_index = 100;
        assert!(!proof.verify(&tree.root(), b"tx-3"));
    }

    #[test]
    fn different_leaf_sets_have_different_roots() {
        let a = MerkleTree::build(&leaves(7));
        let b = MerkleTree::build(&leaves(8));
        assert_ne!(a.root(), b.root());
        // Promotion (not duplication) means [x] and [x, x] differ too.
        let single = MerkleTree::build(&[b"x".to_vec()]);
        let double = MerkleTree::build(&[b"x".to_vec(), b"x".to_vec()]);
        assert_ne!(single.root(), double.root());
    }

    #[test]
    fn lane_build_matches_sequential_reference() {
        // The pair-batched build must reproduce, byte for byte, the tree the
        // one-hash-at-a-time reference construction yields (sizes chosen to
        // hit full pairs, a lone last message and odd-node promotion).
        for n in [1usize, 2, 3, 5, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33, 64, 65] {
            let data = leaves(n);
            let tree = MerkleTree::build(&data);
            let mut level: Vec<Digest> = data.iter().map(|l| leaf_hash(l)).collect();
            while level.len() > 1 {
                let mut next = Vec::with_capacity(level.len().div_ceil(2));
                for pair in level.chunks(2) {
                    next.push(if pair.len() == 2 {
                        node_hash(&pair[0], &pair[1])
                    } else {
                        pair[0]
                    });
                }
                level = next;
            }
            assert_eq!(tree.root(), level[0], "n={n}");
        }
    }

    #[test]
    fn out_of_range_proof_is_none() {
        let tree = MerkleTree::build(&leaves(5));
        assert!(tree.prove(5).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_all_proofs_verify(n in 1usize..50, pick in 0usize..50) {
            let data = leaves(n);
            let tree = MerkleTree::build(&data);
            let idx = pick % n;
            let proof = tree.prove(idx).unwrap();
            prop_assert!(proof.verify(&tree.root(), &data[idx]));
        }

        #[test]
        fn prop_cross_tree_proofs_fail(n in 2usize..40, idx in 0usize..40) {
            let data_a = leaves(n);
            let mut data_b = data_a.clone();
            data_b.push(b"extra".to_vec());
            let tree_a = MerkleTree::build(&data_a);
            let tree_b = MerkleTree::build(&data_b);
            let idx = idx % n;
            let proof = tree_a.prove(idx).unwrap();
            prop_assert!(!proof.verify(&tree_b.root(), &data_a[idx]));
        }
    }
}
