//! Sparse-Merkle-tree hashing and light-client proof verification.
//!
//! The authenticated state layer (`cycledger-ledger`'s `SmtStore`) commits a
//! per-shard UTXO set into a *compressed* binary sparse Merkle tree: a
//! subtree holding exactly one entry is represented by the leaf itself, a
//! subtree holding none by the empty digest, so the tree's shape is a pure
//! function of the key set — insertion order cannot influence the root.
//!
//! This module holds the parts a light client needs without the tree itself:
//! the domain-separated leaf / internal node hashes, the key-path bit
//! convention, and [`verify_proof`], which checks an inclusion or exclusion
//! proof against a published state root. Keeping verification here (and not
//! in the ledger crate) means a verifier depends only on the crypto
//! substrate.

use crate::sha256::{sha256, Digest};

/// Domain prefix of a leaf node preimage.
const LEAF_PREFIX: u8 = 0x00;
/// Domain prefix of an internal node preimage.
const INTERNAL_PREFIX: u8 = 0x01;

/// The root digest of an empty tree. Deliberately all-zeros (not a hash of
/// anything), so it can never collide with a leaf or internal hash.
pub const EMPTY_ROOT: Digest = Digest::ZERO;

/// Hash of a leaf holding `key -> value_hash`:
/// `H(0x00 || key || value_hash)`.
pub fn leaf_hash(key: &Digest, value_hash: &Digest) -> Digest {
    let mut buf = [0u8; 65];
    buf[0] = LEAF_PREFIX;
    buf[1..33].copy_from_slice(key.as_bytes());
    buf[33..65].copy_from_slice(value_hash.as_bytes());
    sha256(&buf)
}

/// Hash of an internal node over two child digests:
/// `H(0x01 || left || right)`.
pub fn internal_hash(left: &Digest, right: &Digest) -> Digest {
    let mut buf = [0u8; 65];
    fill_internal_preimage(&mut buf, left, right);
    sha256(&buf)
}

/// Writes the 65-byte internal-node preimage into `buf` (exposed so the tree
/// can batch internal hashing with `sha256_many`).
pub fn fill_internal_preimage(buf: &mut [u8; 65], left: &Digest, right: &Digest) {
    buf[0] = INTERNAL_PREFIX;
    buf[1..33].copy_from_slice(left.as_bytes());
    buf[33..65].copy_from_slice(right.as_bytes());
}

/// Writes the 65-byte leaf preimage into `buf` (exposed for batched hashing).
pub fn fill_leaf_preimage(buf: &mut [u8; 65], key: &Digest, value_hash: &Digest) {
    buf[0] = LEAF_PREFIX;
    buf[1..33].copy_from_slice(key.as_bytes());
    buf[33..65].copy_from_slice(value_hash.as_bytes());
}

/// The path bit of `key` at `depth`: bit 7 of byte 0 is depth 0 (big-endian,
/// so lexicographic key order equals path order). `false` descends left.
pub fn key_bit(key: &Digest, depth: usize) -> bool {
    debug_assert!(depth < 256);
    key.as_bytes()[depth / 8] & (0x80 >> (depth % 8)) != 0
}

/// True when `a` and `b` agree on their first `depth` path bits.
fn share_prefix(a: &Digest, b: &Digest, depth: usize) -> bool {
    (0..depth).all(|d| key_bit(a, d) == key_bit(b, d))
}

/// What the prover found at the end of the key's path.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProofTerminal {
    /// The key is present with this value hash (inclusion).
    Included {
        /// Hash of the value bound to the proven key.
        value_hash: Digest,
    },
    /// The path reached an empty subtree: the key is absent (exclusion).
    AbsentEmpty,
    /// The path reached a leaf for a *different* key (the compressed
    /// representative of the whole subtree): the proven key is absent.
    AbsentLeaf {
        /// The other key occupying the subtree the proven key would live in.
        leaf_key: Digest,
        /// That leaf's value hash.
        leaf_value_hash: Digest,
    },
}

/// An inclusion or exclusion proof against a sparse-Merkle state root.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StateProof {
    /// Sibling digests along the key's path, top-down: `siblings[0]` is the
    /// sibling of the depth-1 child of the root. Empty subtrees contribute
    /// [`EMPTY_ROOT`].
    pub siblings: Vec<Digest>,
    /// What sits at the end of the path.
    pub terminal: ProofTerminal,
}

/// Why a proof failed verification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProofError {
    /// More siblings than the key has path bits.
    TooDeep,
    /// An `AbsentLeaf` terminal whose leaf key equals the proven key (that
    /// would be an inclusion, not an exclusion).
    AbsentLeafMatchesKey,
    /// An `AbsentLeaf` terminal whose leaf key does not live on the proven
    /// key's path (it could never be the key's subtree representative).
    AbsentLeafOffPath,
    /// The recomputed root does not match the published one.
    RootMismatch,
}

/// Verifies `proof` for `key` against `root`.
///
/// On success the caller learns, with the strength of SHA-256, that under
/// `root` the key is bound to `value_hash` (for
/// [`ProofTerminal::Included`]) or absent (for the two exclusion
/// terminals).
pub fn verify_proof(root: &Digest, key: &Digest, proof: &StateProof) -> Result<(), ProofError> {
    let depth = proof.siblings.len();
    if depth > 256 {
        return Err(ProofError::TooDeep);
    }
    let mut acc = match &proof.terminal {
        ProofTerminal::Included { value_hash } => leaf_hash(key, value_hash),
        ProofTerminal::AbsentEmpty => EMPTY_ROOT,
        ProofTerminal::AbsentLeaf {
            leaf_key,
            leaf_value_hash,
        } => {
            if leaf_key == key {
                return Err(ProofError::AbsentLeafMatchesKey);
            }
            if !share_prefix(leaf_key, key, depth) {
                return Err(ProofError::AbsentLeafOffPath);
            }
            leaf_hash(leaf_key, leaf_value_hash)
        }
    };
    for d in (0..depth).rev() {
        let sibling = &proof.siblings[d];
        acc = if key_bit(key, d) {
            internal_hash(sibling, &acc)
        } else {
            internal_hash(&acc, sibling)
        };
    }
    if acc == *root {
        Ok(())
    } else {
        Err(ProofError::RootMismatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::hash_parts;

    fn key(tag: u8) -> Digest {
        // Keys with controlled top bits: tag byte first, rest hashed filler.
        let mut k = hash_parts(&[b"smt-test-key", &[tag]]);
        k.0[0] = tag;
        k
    }

    fn val(n: u64) -> Digest {
        hash_parts(&[b"smt-test-val", &n.to_be_bytes()])
    }

    /// Hand-builds the canonical tree over `{k0 (bit0=0), k1 (bit0=1)}` and
    /// checks all four proof shapes against it.
    #[test]
    fn two_leaf_tree_proofs_verify() {
        let (k0, k1) = (key(0x00), key(0x80));
        let (v0, v1) = (val(0), val(1));
        let l0 = leaf_hash(&k0, &v0);
        let l1 = leaf_hash(&k1, &v1);
        let root = internal_hash(&l0, &l1);

        // Inclusion of k0: sibling at depth 0 is l1.
        let p0 = StateProof {
            siblings: vec![l1],
            terminal: ProofTerminal::Included { value_hash: v0 },
        };
        assert_eq!(verify_proof(&root, &k0, &p0), Ok(()));
        // Same proof against the wrong key fails on the recomputed root.
        assert_eq!(
            verify_proof(&root, &key(0x01), &p0),
            Err(ProofError::RootMismatch)
        );

        // Exclusion of a key sharing k1's top bit: the path ends at k1's
        // leaf, which represents the whole right subtree.
        let absent = key(0x81);
        let p_absent = StateProof {
            siblings: vec![l0],
            terminal: ProofTerminal::AbsentLeaf {
                leaf_key: k1,
                leaf_value_hash: v1,
            },
        };
        assert_eq!(verify_proof(&root, &absent, &p_absent), Ok(()));

        // An AbsentLeaf naming the key itself is rejected outright.
        let p_bogus = StateProof {
            siblings: vec![l0],
            terminal: ProofTerminal::AbsentLeaf {
                leaf_key: absent,
                leaf_value_hash: v1,
            },
        };
        assert_eq!(
            verify_proof(&root, &absent, &p_bogus),
            Err(ProofError::AbsentLeafMatchesKey)
        );

        // An AbsentLeaf whose leaf is off the key's path is rejected.
        let p_off = StateProof {
            siblings: vec![l0],
            terminal: ProofTerminal::AbsentLeaf {
                leaf_key: k1,
                leaf_value_hash: v1,
            },
        };
        assert_eq!(
            verify_proof(&root, &key(0x01), &p_off),
            Err(ProofError::AbsentLeafOffPath)
        );
    }

    #[test]
    fn empty_tree_exclusion() {
        let p = StateProof {
            siblings: vec![],
            terminal: ProofTerminal::AbsentEmpty,
        };
        assert_eq!(verify_proof(&EMPTY_ROOT, &key(0x42), &p), Ok(()));
        // A non-empty root rejects the empty-tree proof.
        let root = leaf_hash(&key(0x00), &val(0));
        assert_eq!(
            verify_proof(&root, &key(0x42), &p),
            Err(ProofError::RootMismatch)
        );
    }

    #[test]
    fn deeper_tree_inclusion_and_absent_empty() {
        // Three keys: 00…, 80… and c0… — the right subtree splits again at
        // depth 1 (80 has bit1=0, c0 has bit1=1).
        let (ka, kb, kc) = (key(0x00), key(0x80), key(0xc0));
        let (va, vb, vc) = (val(10), val(11), val(12));
        let (la, lb, lc) = (
            leaf_hash(&ka, &va),
            leaf_hash(&kb, &vb),
            leaf_hash(&kc, &vc),
        );
        let right = internal_hash(&lb, &lc);
        let root = internal_hash(&la, &right);

        let pb = StateProof {
            siblings: vec![la, lc],
            terminal: ProofTerminal::Included { value_hash: vb },
        };
        assert_eq!(verify_proof(&root, &kb, &pb), Ok(()));

        // Tampered value hash fails.
        let tampered = StateProof {
            siblings: vec![la, lc],
            terminal: ProofTerminal::Included { value_hash: vc },
        };
        assert_eq!(
            verify_proof(&root, &kb, &tampered),
            Err(ProofError::RootMismatch)
        );

        // Exclusion via an empty subtree: in the *left* subtree only ka
        // lives, so for a key 40… (bit0=0, bit1=1) the canonical tree has…
        // the left subtree is just ka's leaf — exclusion is AbsentLeaf there.
        let p_absent = StateProof {
            siblings: vec![right],
            terminal: ProofTerminal::AbsentLeaf {
                leaf_key: ka,
                leaf_value_hash: va,
            },
        };
        assert_eq!(verify_proof(&root, &key(0x40), &p_absent), Ok(()));

        let too_deep = StateProof {
            siblings: vec![Digest::ZERO; 257],
            terminal: ProofTerminal::AbsentEmpty,
        };
        assert_eq!(
            verify_proof(&root, &kb, &too_deep),
            Err(ProofError::TooDeep)
        );
    }

    #[test]
    fn key_bits_follow_byte_order() {
        let mut k = Digest::ZERO;
        k.0[0] = 0b1010_0000;
        k.0[1] = 0b0000_0001;
        assert!(key_bit(&k, 0));
        assert!(!key_bit(&k, 1));
        assert!(key_bit(&k, 2));
        assert!(!key_bit(&k, 3));
        assert!(key_bit(&k, 15));
        assert!(!key_bit(&k, 16));
    }
}
