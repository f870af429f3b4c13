//! Schnorr signatures over secp256k1 and the node key infrastructure.
//!
//! CycLedger assumes a PKI that gives every node a `(PK, SK)` pair, and the
//! security proofs (Claims 3 & 4, Theorems 2, 5, 8) lean on unforgeability:
//! a witness against a leader is only valid if it contains a message *signed by
//! that leader*. The scheme here is a classic Schnorr signature with
//! deterministic (RFC 6979-style) nonces derived from an HMAC-DRBG.

use std::sync::Arc;

use crate::hmac::HmacDrbg;
use crate::opcount::{count, Op};
use crate::point::{AffinePoint, Base, KeyTable, Point};
use crate::scalar::Scalar;
use crate::sha256::{hash_parts, Digest, Sha256};

/// A secret key: a nonzero scalar.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SecretKey(Scalar);

/// A public key: the point `sk·G`, stored in affine form.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PublicKey(AffinePoint);

/// A Schnorr signature `(R, s)` with `R = k·G` and `s = k + e·sk`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Signature {
    /// Commitment point `R = k·G`.
    pub r: AffinePoint,
    /// Response scalar `s = k + e·sk (mod n)`.
    pub s: Scalar,
}

/// A key pair.
#[derive(Clone, Copy, Debug)]
pub struct Keypair {
    /// The secret half.
    pub secret: SecretKey,
    /// The public half.
    pub public: PublicKey,
}

impl core::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print secret material, even in debug output.
        write!(f, "SecretKey(<redacted>)")
    }
}

impl SecretKey {
    /// Constructs a secret key from a scalar; returns `None` for zero.
    pub fn from_scalar(s: Scalar) -> Option<SecretKey> {
        if s.is_zero() {
            None
        } else {
            Some(SecretKey(s))
        }
    }

    /// Derives a secret key deterministically from seed bytes (for simulations
    /// and tests; real deployments would sample from an OS RNG).
    pub fn from_seed(seed: &[u8]) -> SecretKey {
        let mut drbg = HmacDrbg::from_parts("cycledger/keygen", &[seed]);
        SecretKey(Scalar::nonzero_from_drbg(&mut drbg))
    }

    /// Returns the scalar value.
    pub fn scalar(&self) -> &Scalar {
        &self.0
    }

    /// Computes the corresponding public key.
    pub fn public_key(&self) -> PublicKey {
        PublicKey(
            Point::mul_generator(&self.0)
                .to_affine()
                .expect("nonzero scalar times G is not infinity"),
        )
    }
}

impl PublicKey {
    /// Returns the affine point.
    pub fn point(&self) -> &AffinePoint {
        &self.0
    }

    /// Serializes to 64 bytes (`x || y`).
    pub fn to_bytes(&self) -> [u8; 64] {
        self.0.to_bytes()
    }

    /// Parses 64 bytes, validating the curve equation and that both
    /// coordinates are canonical (below `p`).
    pub fn from_bytes(bytes: &[u8; 64]) -> Option<PublicKey> {
        AffinePoint::from_bytes(bytes).map(PublicKey)
    }

    /// A short fingerprint of the key for logging / node identifiers.
    pub fn fingerprint(&self) -> u64 {
        hash_parts(&[b"pk-fingerprint", &self.to_bytes()]).prefix_u64()
    }
}

/// A registered public key with its [`KeyTable`], built once when the key
/// is registered (the protocol's node registry builds one per node, joiners
/// included) and shared behind an `Arc`, so a copy for a committee's key
/// directory is a reference count. Every verifier multiplies it through the
/// table: a signature check costs about 28 mixed additions for the key term
/// where a bare [`PublicKey`] pays a table build and about 43.
#[derive(Clone)]
pub struct PreparedKey {
    public: PublicKey,
    table: Arc<KeyTable>,
}

impl PreparedKey {
    /// Builds `public`'s table.
    pub fn new(public: PublicKey) -> PreparedKey {
        PreparedKey {
            table: Arc::new(KeyTable::new(public.point())),
            public,
        }
    }
}

impl core::fmt::Debug for PreparedKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("PreparedKey").field(&self.public).finish()
    }
}

/// A public key as a verifier multiplies it: a [`PreparedKey`] through its
/// table, a bare [`PublicKey`] (a one-off check, a benchmark probe) through
/// one the multiplication builds for the call. Every verifier of this crate
/// takes either, and gives the same verdict.
pub trait VerifyingKey {
    /// The key itself.
    fn public_key(&self) -> &PublicKey;

    /// The key as the base of a [`Point::multi_mul`] term.
    fn base(&self) -> Base<'_>;
}

impl VerifyingKey for PublicKey {
    fn public_key(&self) -> &PublicKey {
        self
    }

    fn base(&self) -> Base<'_> {
        Base::Point(self.0.to_point())
    }
}

impl VerifyingKey for PreparedKey {
    fn public_key(&self) -> &PublicKey {
        &self.public
    }

    fn base(&self) -> Base<'_> {
        Base::Key(&self.table)
    }
}

impl Keypair {
    /// Generates a key pair deterministically from a seed.
    pub fn from_seed(seed: &[u8]) -> Keypair {
        let secret = SecretKey::from_seed(seed);
        Keypair {
            public: secret.public_key(),
            secret,
        }
    }

    /// Signs a message (see [`sign`]), reusing the cached public key instead
    /// of re-deriving it from the secret scalar on every call.
    pub fn sign(&self, message: &[u8]) -> Signature {
        sign_with_public(&self.secret, &self.public, message)
    }
}

/// Computes the Fiat–Shamir challenge `e = H(R ‖ PK ‖ m)` as a scalar.
fn challenge(r: &AffinePoint, pk: &PublicKey, message: &[u8]) -> Scalar {
    Scalar::from_hash(
        "cycledger/schnorr-challenge",
        &[&r.to_bytes(), &pk.to_bytes(), message],
    )
}

/// Signs `message` with `sk` using a deterministic nonce.
pub fn sign(sk: &SecretKey, message: &[u8]) -> Signature {
    sign_with_public(sk, &sk.public_key(), message)
}

/// [`sign`] with the signer's public key supplied by the caller.
///
/// Deriving `PK` from the secret scalar is a full fixed-base multiplication —
/// as expensive as computing the nonce commitment `R` — and every signer in
/// the simulator already holds its [`Keypair`]. Passing the key halves the
/// cost of a signature. `pk` **must** be `sk`'s public key; a mismatched key
/// produces signatures that fail verification (the Fiat–Shamir challenge
/// binds `PK`), it cannot forge anything.
pub fn sign_with_public(sk: &SecretKey, pk: &PublicKey, message: &[u8]) -> Signature {
    let pk = *pk;
    let mut drbg = HmacDrbg::from_parts(
        "cycledger/schnorr-nonce",
        &[&sk.scalar().to_be_bytes(), message],
    );
    let k = Scalar::nonzero_from_drbg(&mut drbg);
    let r = Point::mul_generator(&k)
        .to_affine()
        .expect("nonzero nonce times G is not infinity");
    let e = challenge(&r, &pk, message);
    let s = k.add(&e.mul(sk.scalar()));
    Signature { r, s }
}

/// Verifies a Schnorr signature: checks `s·G == R + e·PK`, evaluated as the
/// single Strauss–Shamir combination `s·G − e·PK` compared against `R`.
pub fn verify<K: VerifyingKey>(pk: &K, message: &[u8], sig: &Signature) -> bool {
    count(Op::SigVerify);
    let public = pk.public_key();
    if !sig.r.is_on_curve() || !public.point().is_on_curve() {
        return false;
    }
    let e = challenge(&sig.r, public, message);
    let lhs = Point::multi_mul(&[
        (sig.s, Base::Point(Point::generator())),
        (e.neg(), pk.base()),
    ]);
    lhs.equals(&sig.r.to_point())
}

/// One `(public key, message, signature)` triple of a batch verification;
/// the key is a bare [`PublicKey`] unless `K` says otherwise.
#[derive(Debug)]
pub struct BatchEntry<'a, K = PublicKey> {
    /// The claimed signer.
    pub public_key: &'a K,
    /// The signed message.
    pub message: &'a [u8],
    /// The signature to check.
    pub signature: &'a Signature,
}

impl<K> Clone for BatchEntry<'_, K> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K> Copy for BatchEntry<'_, K> {}

/// Verifies a batch of Schnorr signatures with a single random-linear-
/// combination check.
///
/// Each equation `s_i·G == R_i + e_i·PK_i` is scaled by an independent
/// coefficient `z_i` (drawn from a stream seeded with a hash of the whole
/// batch, so a forger cannot choose signatures after seeing the
/// coefficients) and summed:
///
/// `(Σ z_i·s_i)·G == Σ z_i·R_i + Σ (z_i·e_i)·PK_i`
///
/// rearranged as `Σ z_i·R_i + Σ (z_i·e_i)·PK_i − (Σ z_i·s_i)·G == ∞` and
/// evaluated as a *single* `2n+1`-term [`Point::multi_mul`] over one shared
/// doubling chain — so the per-signature cost is a few dozen point additions
/// instead of a full ladder, and the whole batch pays the 256 doublings once.
/// An empty batch verifies trivially.
///
/// Returns `false` if *any* signature in the batch is invalid; callers that
/// need to identify the culprit fall back to per-signature [`verify`].
pub fn batch_verify<K: VerifyingKey>(entries: &[BatchEntry<'_, K>]) -> bool {
    batch_verify_each(entries.iter().copied())
}

/// [`batch_verify`] over entries handed out by an iterator rather than
/// gathered in a slice — the same check, coefficient for coefficient. The
/// iterator is walked three times (it is cloned), so a caller whose batch is
/// a selection of a longer list (the consensus crate's verdict memo checks
/// the triples it lacks) builds no list for it.
///
/// Nothing here allocates for up to sixteen entries: the
/// transcript is streamed into one SHA-256 and the coefficients and the
/// `2n + 1` terms sit on the stack, as [`Point::multi_mul`]'s own scratch
/// does.
pub fn batch_verify_each<'e, K: VerifyingKey + 'e>(
    entries: impl Iterator<Item = BatchEntry<'e, K>> + Clone,
) -> bool {
    let n = entries.clone().count();
    if n == 0 {
        return true;
    }
    count(Op::SigBatch(n));
    let seed = batch_seed(entries.clone(), n);
    let mut stack = [(Scalar::zero(), Base::Point(Point::infinity())); 2 * STACK_ENTRIES + 1];
    let mut heap = Vec::new();
    let terms = if n <= STACK_ENTRIES {
        &mut stack[..2 * n + 1]
    } else {
        heap.resize(2 * n + 1, (Scalar::zero(), Base::Point(Point::infinity())));
        &mut heap[..]
    };
    Scalar::rlc_coefficients(BATCH_COEFFICIENT, seed.as_bytes(), n, |coefficients| {
        let mut scaled_s = Scalar::zero();
        for ((i, entry), z) in entries.enumerate().zip(coefficients) {
            let public = entry.public_key.public_key();
            if !entry.signature.r.is_on_curve() || !public.point().is_on_curve() {
                return false;
            }
            let e = challenge(&entry.signature.r, public, entry.message);
            scaled_s = scaled_s.add(&z.mul(&entry.signature.s));
            terms[2 * i] = (*z, Base::Point(entry.signature.r.to_point()));
            terms[2 * i + 1] = (z.mul(&e), entry.public_key.base());
        }
        terms[2 * n] = (scaled_s.neg(), Base::Point(Point::generator()));
        Point::multi_mul(terms).is_infinity()
    })
}

/// The domain of a Schnorr batch's coefficient stream.
const BATCH_COEFFICIENT: &str = "cycledger/schnorr-batch-coefficient";

/// Batches of at most this many signatures keep their `2n + 1` terms on the
/// stack: the sixteen-signature batch [`Point::multi_mul`]'s stack scratch is
/// sized for, which covers a quorum batch of a committee up to `c = 31`.
const STACK_ENTRIES: usize = 16;

/// Bytes one entry adds to the batch transcript: `R`, the key, the message's
/// digest and `s`.
const TRANSCRIPT_ENTRY_LEN: usize = 64 + 64 + 32 + 32;

/// The seed of a batch's coefficient stream:
/// `hash_parts([tag, transcript])`, the transcript streamed into the hash
/// under the same length prefixes rather than gathered first.
///
/// It binds the coefficients to the entire batch content — crucially
/// *including* every response scalar `s_i`. If the coefficients were
/// computable before the `s` values are fixed, two entries could be mauled
/// in tandem (`s_1 + d·z_1⁻¹`, `s_2 − d·z_2⁻¹`) without changing the weighted
/// sum, making invalid batches verify. The coefficients are one stream
/// from the one digest, so coefficient generation stays O(n), not O(n²).
fn batch_seed<'e, K: VerifyingKey + 'e>(
    entries: impl Iterator<Item = BatchEntry<'e, K>>,
    n: usize,
) -> Digest {
    const TAG: &[u8] = b"cycledger/schnorr-batch-seed";
    let mut hasher = Sha256::new();
    hasher.update(&(TAG.len() as u64).to_le_bytes()).update(TAG);
    hasher.update(&((n * TRANSCRIPT_ENTRY_LEN) as u64).to_le_bytes());
    for entry in entries {
        hasher.update(&entry.signature.r.to_bytes());
        hasher.update(&entry.public_key.public_key().to_bytes());
        hasher.update(hash_parts(&[entry.message]).as_bytes());
        hasher.update(&entry.signature.s.to_be_bytes());
    }
    hasher.finalize()
}

impl Signature {
    /// Serializes to 96 bytes (`R.x || R.y || s`).
    pub fn to_bytes(&self) -> [u8; 96] {
        let mut out = [0u8; 96];
        out[..64].copy_from_slice(&self.r.to_bytes());
        out[64..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses a 96-byte encoding: `R` must be a canonically encoded curve
    /// point and `s` below the group order (a reduced `s + n` would be a
    /// second encoding of the same signature).
    pub fn from_bytes(bytes: &[u8; 96]) -> Option<Signature> {
        let r = AffinePoint::from_bytes(bytes[..64].try_into().expect("64 bytes"))?;
        let s = Scalar::from_be_bytes_canonical(bytes[64..].try_into().expect("32 bytes"))?;
        Some(Signature { r, s })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let kp = Keypair::from_seed(b"node-1");
        let sig = kp.sign(b"a protocol message");
        assert!(verify(&kp.public, b"a protocol message", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let kp = Keypair::from_seed(b"node-2");
        let sig = kp.sign(b"hello");
        assert!(!verify(&kp.public, b"hell0", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = Keypair::from_seed(b"node-3");
        let kp2 = Keypair::from_seed(b"node-4");
        let sig = kp1.sign(b"msg");
        assert!(!verify(&kp2.public, b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = Keypair::from_seed(b"node-5");
        let sig = kp.sign(b"msg");
        let tampered = Signature {
            r: sig.r,
            s: sig.s.add(&Scalar::one()),
        };
        assert!(!verify(&kp.public, b"msg", &tampered));
    }

    #[test]
    fn deterministic_signatures() {
        let kp = Keypair::from_seed(b"node-6");
        assert_eq!(kp.sign(b"m"), kp.sign(b"m"));
        assert_ne!(kp.sign(b"m"), kp.sign(b"m2"));
    }

    #[test]
    fn keygen_is_deterministic_per_seed() {
        let a = Keypair::from_seed(b"same seed");
        let b = Keypair::from_seed(b"same seed");
        let c = Keypair::from_seed(b"different");
        assert_eq!(a.public, b.public);
        assert_ne!(a.public, c.public);
    }

    #[test]
    fn signature_bytes_round_trip() {
        let kp = Keypair::from_seed(b"node-7");
        let sig = kp.sign(b"serialize me");
        let parsed = Signature::from_bytes(&sig.to_bytes()).expect("valid encoding");
        assert_eq!(parsed, sig);
        assert!(verify(&kp.public, b"serialize me", &parsed));
    }

    #[test]
    fn public_key_bytes_round_trip() {
        let kp = Keypair::from_seed(b"node-8");
        let parsed = PublicKey::from_bytes(&kp.public.to_bytes()).expect("valid key");
        assert_eq!(parsed, kp.public);
        let mut bad = kp.public.to_bytes();
        bad[0] ^= 0xff;
        assert!(PublicKey::from_bytes(&bad).is_none());
    }

    #[test]
    fn decoders_reject_non_canonical_encodings() {
        use crate::fe::{field_prime, Fe};
        use crate::scalar::group_order;
        use crate::u256::U256;
        // x = 1 is on the curve (y² = 8 has a root), so x = p + 1 with the
        // same y used to decode to the very same key.
        let y = Fe::from_u64(8).sqrt().expect("8 is a quadratic residue");
        let mut honest = [0u8; 64];
        honest[31] = 1;
        honest[32..].copy_from_slice(&y.to_be_bytes());
        assert!(PublicKey::from_bytes(&honest).is_some());
        for x in [field_prime(), field_prime().wrapping_add(&U256::ONE)] {
            let mut bytes = honest;
            bytes[..32].copy_from_slice(&x.to_be_bytes());
            assert_eq!(PublicKey::from_bytes(&bytes), None);
            assert_eq!(AffinePoint::from_bytes(&bytes), None);
        }

        // s = n and s = n + 1 used to decode as s = 0 and s = 1.
        let kp = Keypair::from_seed(b"node-canonical");
        let sig = kp.sign(b"canonical");
        for s in [group_order(), group_order().wrapping_add(&U256::ONE)] {
            let mut bytes = sig.to_bytes();
            bytes[64..].copy_from_slice(&s.to_be_bytes());
            assert_eq!(Signature::from_bytes(&bytes), None);
        }
        let mut bytes = sig.to_bytes();
        bytes[..32].copy_from_slice(&field_prime().wrapping_add(&U256::ONE).to_be_bytes());
        assert_eq!(Signature::from_bytes(&bytes), None);
        // Honest encodings still round-trip, up to the largest scalar.
        let largest = Signature {
            r: sig.r,
            s: Scalar::from_u256(group_order().wrapping_sub(&U256::ONE)),
        };
        assert_eq!(Signature::from_bytes(&largest.to_bytes()), Some(largest));
        for i in 0..16u8 {
            let kp = Keypair::from_seed(&[b'c', i]);
            let sig = kp.sign(&[i]);
            assert_eq!(
                PublicKey::from_bytes(&kp.public.to_bytes()),
                Some(kp.public)
            );
            assert_eq!(Signature::from_bytes(&sig.to_bytes()), Some(sig));
        }
    }

    #[test]
    fn fingerprints_differ() {
        let a = Keypair::from_seed(b"fp-a").public.fingerprint();
        let b = Keypair::from_seed(b"fp-b").public.fingerprint();
        assert_ne!(a, b);
    }

    #[test]
    fn secret_key_debug_redacts() {
        let kp = Keypair::from_seed(b"node-9");
        assert_eq!(format!("{:?}", kp.secret), "SecretKey(<redacted>)");
    }

    #[test]
    fn zero_scalar_is_not_a_secret_key() {
        assert!(SecretKey::from_scalar(Scalar::zero()).is_none());
        assert!(SecretKey::from_scalar(Scalar::from_u64(5)).is_some());
    }

    /// `batch_verify` of `entries`, checked to give the same verdict with
    /// every key prepared, and the entries checked one at a time to agree
    /// across the two kinds of key too.
    fn batched(entries: &[BatchEntry<'_>]) -> bool {
        let prepared: Vec<PreparedKey> = entries
            .iter()
            .map(|entry| PreparedKey::new(*entry.public_key))
            .collect();
        let keyed: Vec<BatchEntry<'_, PreparedKey>> = entries
            .iter()
            .zip(&prepared)
            .map(|(entry, public_key)| BatchEntry {
                public_key,
                message: entry.message,
                signature: entry.signature,
            })
            .collect();
        let verdict = batch_verify(entries);
        assert_eq!(batch_verify(&keyed), verdict, "prepared keys, batched");
        for (bare, keyed) in entries.iter().zip(&keyed) {
            assert_eq!(
                verify(bare.public_key, bare.message, bare.signature),
                verify(keyed.public_key, keyed.message, keyed.signature),
                "prepared keys, one at a time"
            );
        }
        verdict
    }

    #[test]
    fn prepared_keys_verify_as_bare_keys() {
        let kp = Keypair::from_seed(b"node-prepared");
        let other = Keypair::from_seed(b"node-prepared-other");
        let (key, other_key) = (PreparedKey::new(kp.public), PreparedKey::new(other.public));
        assert_eq!(key.public_key(), &kp.public);
        let sig = kp.sign(b"msg");
        let tampered = Signature {
            r: sig.r,
            s: sig.s.add(&Scalar::one()),
        };
        for (message, signature, expected) in [
            (b"msg".as_slice(), &sig, true),
            (b"ms9", &sig, false),
            (b"msg", &tampered, false),
            (b"msg", &other.sign(b"msg"), false),
        ] {
            assert_eq!(verify(&kp.public, message, signature), expected);
            assert_eq!(verify(&key, message, signature), expected);
        }
        assert!(!verify(&other_key, b"msg", &sig));
        assert!(verify(&other_key, b"msg", &other.sign(b"msg")));
    }

    fn batch(n: usize) -> (Vec<Keypair>, Vec<Vec<u8>>, Vec<Signature>) {
        let keypairs: Vec<Keypair> = (0..n)
            .map(|i| Keypair::from_seed(format!("batch-{i}").as_bytes()))
            .collect();
        let messages: Vec<Vec<u8>> = (0..n)
            .map(|i| format!("vote-set entry {i}").into_bytes())
            .collect();
        let signatures: Vec<Signature> = keypairs
            .iter()
            .zip(&messages)
            .map(|(kp, m)| kp.sign(m))
            .collect();
        (keypairs, messages, signatures)
    }

    #[test]
    fn batch_verify_accepts_valid_batches() {
        let (kps, msgs, sigs) = batch(8);
        let entries: Vec<BatchEntry<'_>> = (0..8)
            .map(|i| BatchEntry {
                public_key: &kps[i].public,
                message: &msgs[i],
                signature: &sigs[i],
            })
            .collect();
        assert!(batched(&entries));
        assert!(
            batch_verify::<PublicKey>(&[]),
            "empty batches verify trivially"
        );
        assert!(batched(&entries[..1]), "singleton batches work");
    }

    #[test]
    fn batch_verify_rejects_any_bad_signature() {
        let (kps, msgs, sigs) = batch(6);
        for bad in 0..6 {
            let entries: Vec<BatchEntry<'_>> = (0..6)
                .map(|i| BatchEntry {
                    public_key: &kps[i].public,
                    // Entry `bad` claims a message it never signed.
                    message: if i == bad { b"forged" } else { &msgs[i] },
                    signature: &sigs[i],
                })
                .collect();
            assert!(!batched(&entries), "bad entry {bad} must fail the batch");
        }
    }

    #[test]
    fn batch_verify_rejects_swapped_keys() {
        let (kps, msgs, sigs) = batch(4);
        let mut entries: Vec<BatchEntry<'_>> = (0..4)
            .map(|i| BatchEntry {
                public_key: &kps[i].public,
                message: &msgs[i],
                signature: &sigs[i],
            })
            .collect();
        entries.swap(0, 1);
        // Swapping whole entries is fine (order must not matter)...
        assert!(batched(&entries));
        // ...but crossing a key with another entry's signature is not.
        let crossed: Vec<BatchEntry<'_>> = vec![
            BatchEntry {
                public_key: &kps[1].public,
                message: &msgs[0],
                signature: &sigs[0],
            },
            BatchEntry {
                public_key: &kps[0].public,
                message: &msgs[1],
                signature: &sigs[1],
            },
        ];
        assert!(!batched(&crossed));
    }

    #[test]
    fn batch_verify_rejects_tandem_mauling() {
        // The classic attack on batch verification with predictable
        // coefficients: shift two responses in tandem, s_1 += d·z_1⁻¹ and
        // s_2 -= d·z_2⁻¹, which preserves Σ z_i·s_i if the z_i don't depend
        // on the s values. Our coefficients bind every s_i, so the mauled
        // batch draws fresh coefficients and the check must fail. The
        // attacker's z_i here are computed exactly as the verifier would
        // have for the *original* batch (the strongest strategy available
        // when coefficients are s-independent).
        let (kps, msgs, sigs) = batch(3);
        let entries = |sigs: &[Signature]| -> Vec<(AffinePoint, [u8; 64], Vec<u8>, Scalar)> {
            (0..3)
                .map(|i| {
                    (
                        sigs[i].r,
                        kps[i].public.to_bytes(),
                        msgs[i].clone(),
                        sigs[i].s,
                    )
                })
                .collect()
        };
        // Replicate the verifier's coefficient derivation over the original
        // (unmauled) batch.
        let mut transcript = Vec::new();
        for (r, pk, m, s) in entries(&sigs) {
            transcript.extend_from_slice(&r.to_bytes());
            transcript.extend_from_slice(&pk);
            transcript.extend_from_slice(&hash_parts(&[&m]).as_bytes()[..]);
            transcript.extend_from_slice(&s.to_be_bytes());
        }
        let seed = hash_parts(&[b"cycledger/schnorr-batch-seed", &transcript]);
        let original = (0..3).map(|i| BatchEntry {
            public_key: &kps[i].public,
            message: &msgs[i],
            signature: &sigs[i],
        });
        assert_eq!(
            batch_seed(original, 3),
            seed,
            "the streamed transcript hashes as the gathered one"
        );
        let z = Scalar::rlc_coefficients(BATCH_COEFFICIENT, seed.as_bytes(), 3, <[_]>::to_vec);
        let d = Scalar::from_u64(12345);
        let mut mauled = sigs.clone();
        mauled[0].s = mauled[0].s.add(&d.mul(&z[0].invert()));
        mauled[1].s = mauled[1].s.sub(&d.mul(&z[1].invert()));
        let batch_entries: Vec<BatchEntry<'_>> = (0..3)
            .map(|i| BatchEntry {
                public_key: &kps[i].public,
                message: &msgs[i],
                signature: &mauled[i],
            })
            .collect();
        assert!(
            !verify(&kps[0].public, &msgs[0], &mauled[0]),
            "mauled signatures are individually invalid"
        );
        assert!(
            !batched(&batch_entries),
            "tandem-mauled batch must not verify"
        );
    }

    #[test]
    fn batch_verify_matches_sequential_verdict() {
        let (kps, msgs, mut sigs) = batch(5);
        let sequential = |sigs: &[Signature]| {
            kps.iter()
                .zip(&msgs)
                .zip(sigs)
                .all(|((kp, m), s)| verify(&kp.public, m, s))
        };
        let batched = |sigs: &[Signature]| {
            let entries: Vec<BatchEntry<'_>> = (0..5)
                .map(|i| BatchEntry {
                    public_key: &kps[i].public,
                    message: &msgs[i],
                    signature: &sigs[i],
                })
                .collect();
            batched(&entries)
        };
        assert_eq!(sequential(&sigs), batched(&sigs));
        sigs[3].s = sigs[3].s.add(&Scalar::one());
        assert_eq!(sequential(&sigs), batched(&sigs));
        assert!(!batched(&sigs));
    }

    #[test]
    fn batches_past_the_stack_terms_verify_alike() {
        let n = STACK_ENTRIES + 3;
        let (kps, msgs, mut sigs) = batch(n);
        let batched = |sigs: &[Signature], len: usize| {
            batch_verify_each((0..len).map(|i| BatchEntry {
                public_key: &kps[i].public,
                message: &msgs[i],
                signature: &sigs[i],
            }))
        };
        assert!(batched(&sigs, n) && batched(&sigs, STACK_ENTRIES));
        sigs[STACK_ENTRIES + 1] = sigs[0];
        assert!(!batched(&sigs, n));
        assert!(batched(&sigs, STACK_ENTRIES + 1));
    }
}
