//! Verifiable Random Function (VRF) via a Chaum–Pedersen DLEQ proof.
//!
//! Algorithm 1 of the paper (`CRYPTO_SORT`) calls `VRF_SK(COMMON_MEMBER ‖ r ‖ R^r)`
//! to assign a node to a committee, and the proof lets every other node verify the
//! assignment. The construction here is ECVRF-flavoured:
//!
//! * `H = hash_to_curve(input)`
//! * `Γ = sk·H` — the unique VRF "gamma" point
//! * proof = DLEQ proof that `log_G(PK) = log_H(Γ)`, in the batch-compatible
//!   form `(Γ, U, V, s)`: the nonce commitments `U = k·G` and `V = k·H`
//!   travel instead of the challenge, which the verifier re-derives as
//!   `c = H(PK, H, Γ, U, V)`, and `s = k − c·sk`
//! * output = `SHA-256("vrf-output" ‖ Γ)`
//!
//! Uniqueness: for a fixed key and input there is exactly one valid `Γ`, hence
//! exactly one output — a malicious node cannot grind multiple committee
//! assignments for the same round (the property Elastico lacked, §II-A).
//!
//! Carrying `U` and `V` is what lets the sortition draw check a group of
//! proofs as one random linear combination ([`Prover::verify_batch`]; the ECVRF
//! variant of Badertscher, Gaži, Querejeta-Azurmendi and Russell, 2022). The
//! `(Γ, c, s)` proof is [`VrfProof::challenge`] away, and `Γ`, `s` and the
//! output are the same either way. A round's provers all share one `H`, so a
//! [`Prover`] builds a fixed-base table for it once and every `sk·H` and
//! `k·H` after that is additions only.

use crate::hmac::HmacDrbg;
use crate::opcount::{count, Op};
use crate::point::{hash_to_curve, AffinePoint, Base, FixedBase, Point};
use crate::scalar::Scalar;
use crate::schnorr::{PublicKey, SecretKey, VerifyingKey};
use crate::sha256::{hash_parts, Digest, Sha256};

/// VRF proof: the gamma point plus a DLEQ (Chaum–Pedersen) proof in
/// commitment form `(U, V, s)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VrfProof {
    /// `Γ = sk·H(input)`.
    pub gamma: AffinePoint,
    /// Nonce commitment `U = k·G`.
    pub u: AffinePoint,
    /// Nonce commitment `V = k·H`.
    pub v: AffinePoint,
    /// Response scalar `s = k − c·sk`.
    pub s: Scalar,
}

/// VRF evaluation result: the pseudorandom output and its proof.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VrfOutput {
    /// 32-byte pseudorandom output.
    pub hash: Digest,
    /// Proof that `hash` was correctly derived from the prover's key and input.
    pub proof: VrfProof,
}

/// Length of [`VrfProof::to_bytes`]: `Γ ‖ U ‖ V ‖ s`.
pub const PROOF_BYTES: usize = 3 * 64 + 32;

const H2C_DOMAIN: &str = "cycledger/vrf-h2c";

/// Window width of a [`Prover`]'s table for `H`: the widest whose build plus
/// ten evaluations costs fewer field operations than ten evaluations without
/// it (`tests/opcount.rs` pins both sides; DESIGN-notes.md has the widths).
const PROVER_WIDTH: usize = 5;

impl VrfProof {
    /// Serializes as 224 bytes: `Γ`, `U`, `V` (64 bytes each, `x ‖ y`) and
    /// `s`, all big-endian.
    pub fn to_bytes(&self) -> [u8; PROOF_BYTES] {
        let mut out = [0u8; PROOF_BYTES];
        out[..64].copy_from_slice(&self.gamma.to_bytes());
        out[64..128].copy_from_slice(&self.u.to_bytes());
        out[128..192].copy_from_slice(&self.v.to_bytes());
        out[192..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses a 224-byte encoding: each point must be on the curve with both
    /// coordinates below `p`, and `s` below `n`, so a proof has exactly one
    /// accepted encoding.
    pub fn from_bytes(bytes: &[u8; PROOF_BYTES]) -> Option<VrfProof> {
        let point = |at: usize| AffinePoint::from_bytes(bytes[at..at + 64].try_into().ok()?);
        Some(VrfProof {
            gamma: point(0)?,
            u: point(64)?,
            v: point(128)?,
            s: Scalar::from_be_bytes_canonical(bytes[192..].try_into().ok()?)?,
        })
    }

    /// The Fiat–Shamir challenge `c` this proof answers for `pk` on `input`:
    /// `(Γ, c, s)` is the same proof in challenge form.
    pub fn challenge(&self, pk: &PublicKey, input: &[u8]) -> Scalar {
        dleq_challenge(pk, &hash_to_curve(H2C_DOMAIN, input), self)
    }
}

fn dleq_challenge(pk: &PublicKey, h: &AffinePoint, proof: &VrfProof) -> Scalar {
    Scalar::from_hash(
        "cycledger/vrf-dleq",
        &[
            &pk.to_bytes(),
            &h.to_bytes(),
            &proof.gamma.to_bytes(),
            &proof.u.to_bytes(),
            &proof.v.to_bytes(),
        ],
    )
}

fn output_from_gamma(gamma: &AffinePoint) -> Digest {
    hash_parts(&[b"cycledger/vrf-output", &gamma.to_bytes()])
}

/// Evaluates the VRF on `input` with secret key `sk`.
pub fn evaluate(sk: &SecretKey, input: &[u8]) -> VrfOutput {
    evaluate_with_public(sk, &sk.public_key(), input)
}

/// [`evaluate`] with the prover's public key supplied by the caller.
///
/// Deriving `PK` from the secret scalar is a full fixed-base multiplication
/// plus a field inversion, and every prover in the simulator already holds
/// its [`Keypair`](crate::schnorr::Keypair) — the same saving as
/// [`sign_with_public`](crate::schnorr::sign_with_public). `pk` **must** be
/// `sk`'s public key; a mismatched key only yields a proof that fails
/// verification (the DLEQ challenge binds `PK`). Many keys on one input go
/// through a [`Prover`] instead.
pub fn evaluate_with_public(sk: &SecretKey, pk: &PublicKey, input: &[u8]) -> VrfOutput {
    let h = hash_to_curve(H2C_DOMAIN, input);
    let h_point = h.to_point();
    prove(sk, pk, input, &h, |k| h_point.mul(k))
}

/// Evaluates the VRF of many keys on one input — a round's sortition — over
/// a fixed-base table of `H = hash_to_curve(input)`, built once: `Γ = sk·H`
/// and `V = k·H` cost at most 52 mixed additions each and no doubling.
/// [`Prover::evaluate`] returns what [`evaluate_with_public`] does, bit for
/// bit; the table repays its build after seven evaluations.
pub struct Prover {
    input: Vec<u8>,
    h: AffinePoint,
    table: FixedBase,
}

impl Prover {
    /// Hashes `input` to the curve and builds the table for it.
    pub fn new(input: &[u8]) -> Prover {
        let h = hash_to_curve(H2C_DOMAIN, input);
        Prover {
            input: input.to_vec(),
            h,
            table: FixedBase::new(&h, PROVER_WIDTH),
        }
    }

    /// [`evaluate_with_public`] of `sk` (whose public key is `pk`) on this
    /// prover's input.
    pub fn evaluate(&self, sk: &SecretKey, pk: &PublicKey) -> VrfOutput {
        prove(sk, pk, &self.input, &self.h, |k| self.table.mul(k))
    }

    /// Verifies a group of proofs on this prover's input and `H`:
    /// `verdicts[i]` is `verify(entries[i].0, input, entries[i].1)` (an
    /// invalid proof survives a group with probability about `2^−128`).
    /// Each well-formed proof's two equations, scaled by independent 128-bit
    /// coefficients `z_i`, `w_i` (one stream seeded with a hash of the whole
    /// group, every `s_i` included), are summed as
    /// `Σ z_i·(s_i·G + c_i·PK_i − U_i) + w_i·(s_i·H + c_i·Γ_i − V_i) = ∞`:
    /// one `4n + 2`-term [`Point::multi_mul`] over one doubling chain, where
    /// [`verify`] pays two a proof (DESIGN-notes.md, "Groups"). If the sum is
    /// not `∞`, each proof is checked alone, so the verdicts are [`verify`]'s
    /// and a forgery costs its group one second pass. Up to eight proofs keep
    /// their coefficients and terms on the stack.
    pub fn verify_batch<K: VerifyingKey>(&self, entries: &[(&K, &VrfOutput)]) -> Vec<bool> {
        entries.iter().for_each(|_| count(Op::VrfProofChecked));
        let h = &self.h;
        let mut verdicts: Vec<bool> = entries
            .iter()
            .map(|(pk, output)| well_formed(pk.public_key(), output))
            .collect();
        let seed = batch_seed(h, entries);
        let cancels = Scalar::rlc_coefficients(
            BATCH_COEFFICIENT,
            seed.as_bytes(),
            2 * entries.len(),
            |coefficients| weighted_sum(h, entries, &verdicts, coefficients).is_infinity(),
        );
        if !cancels {
            for (verdict, (pk, output)) in verdicts.iter_mut().zip(entries) {
                *verdict = *verdict && dleq_holds(*pk, h, &output.proof);
            }
        }
        verdicts
    }
}

/// The proof of `sk` on `input`, whose base is `h`; `mul_h(k)` is `k·H`.
fn prove(
    sk: &SecretKey,
    pk: &PublicKey,
    input: &[u8],
    h: &AffinePoint,
    mul_h: impl Fn(&Scalar) -> Point,
) -> VrfOutput {
    count(Op::VrfEvaluate);
    // Deterministic DLEQ nonce bound to the key and input.
    let mut drbg =
        HmacDrbg::from_parts("cycledger/vrf-nonce", &[&sk.scalar().to_be_bytes(), input]);
    let k = Scalar::nonzero_from_drbg(&mut drbg);
    // Γ, U and V share one field inversion (Montgomery's trick), on the
    // stack.
    let affine =
        Point::batch_to_affine_array(&[mul_h(sk.scalar()), Point::mul_generator(&k), mul_h(&k)]);
    let [Some(gamma), Some(u), Some(v)] = affine else {
        unreachable!("sk and k are nonzero and H is not the identity")
    };
    let mut proof = VrfProof {
        gamma,
        u,
        v,
        s: Scalar::zero(),
    };
    let c = dleq_challenge(pk, h, &proof);
    proof.s = k.sub(&c.mul(sk.scalar()));
    VrfOutput {
        hash: output_from_gamma(&gamma),
        proof,
    }
}

/// Verifies a VRF output/proof for `pk` on `input`.
///
/// Checks that every point is on the curve and the output hash is `Γ`'s,
/// re-derives the challenge `c`, and checks the DLEQ relation
/// `U = s·G + c·PK`, `V = s·H + c·Γ` — each side one Strauss–Shamir double
/// multiplication (`PK` through its table when it is a prepared key),
/// compared with `U` and `V` in Jacobian coordinates, so no field inversion.
pub fn verify<K: VerifyingKey>(pk: &K, input: &[u8], output: &VrfOutput) -> bool {
    count(Op::VrfProofChecked);
    well_formed(pk.public_key(), output)
        && dleq_holds(pk, &hash_to_curve(H2C_DOMAIN, input), &output.proof)
}

/// What [`verify`] checks besides the DLEQ relation: the points are on the
/// curve and the output hash is derived from `Γ`.
fn well_formed(pk: &PublicKey, output: &VrfOutput) -> bool {
    let proof = &output.proof;
    [pk.point(), &proof.gamma, &proof.u, &proof.v]
        .iter()
        .all(|p| p.is_on_curve())
        && output_from_gamma(&proof.gamma) == output.hash
}

fn dleq_holds<K: VerifyingKey>(pk: &K, h: &AffinePoint, proof: &VrfProof) -> bool {
    let c = dleq_challenge(pk.public_key(), h, proof);
    Point::multi_mul(&[(proof.s, Base::Point(Point::generator())), (c, pk.base())])
        .equals(&proof.u.to_point())
        && Point::mul_double(&proof.s, &h.to_point(), &c, &proof.gamma.to_point())
            .equals(&proof.v.to_point())
}

const BATCH_COEFFICIENT: &str = "cycledger/vrf-batch-coefficient";

/// Groups of at most this many proofs keep their `4n + 2` terms on the
/// stack: the sortition draw's group of eight.
const STACK_PROOFS: usize = 8;

/// The seed of a group's coefficients: `H` and every entry's key and whole
/// proof. Were the `s_i` left out, responses could be shifted in tandem so
/// that both weighted sums of `s` stay put.
fn batch_seed<K: VerifyingKey>(h: &AffinePoint, entries: &[(&K, &VrfOutput)]) -> Digest {
    let mut transcript = Sha256::new();
    transcript.update(b"cycledger/vrf-batch-seed");
    transcript.update(&h.to_bytes());
    for (pk, output) in entries {
        transcript.update(&pk.public_key().to_bytes());
        transcript.update(&output.proof.to_bytes());
    }
    transcript.finalize()
}

/// `Σ z_i·(s_i·G + c_i·PK_i − U_i) + w_i·(s_i·H + c_i·Γ_i − V_i)` over the
/// entries `live` marks, with `z_i = coefficients[2i]` and
/// `w_i = coefficients[2i + 1]`.
fn weighted_sum<K: VerifyingKey>(
    h: &AffinePoint,
    entries: &[(&K, &VrfOutput)],
    live: &[bool],
    coefficients: &[Scalar],
) -> Point {
    let placeholder = (Scalar::zero(), Base::Point(Point::infinity()));
    let mut stack = [placeholder; 4 * STACK_PROOFS + 2];
    let mut heap = Vec::new();
    let terms = if entries.len() <= STACK_PROOFS {
        &mut stack[..]
    } else {
        heap.resize(4 * entries.len() + 2, placeholder);
        &mut heap[..]
    };
    let (mut on_g, mut on_h) = (Scalar::zero(), Scalar::zero());
    let mut len = 0;
    for (i, (pk, output)) in entries.iter().enumerate() {
        if !live[i] {
            continue;
        }
        let proof = &output.proof;
        let (z, w) = (coefficients[2 * i], coefficients[2 * i + 1]);
        let c = dleq_challenge(pk.public_key(), h, proof);
        on_g = on_g.add(&z.mul(&proof.s));
        on_h = on_h.add(&w.mul(&proof.s));
        // `−U` and `−V` under the 128-bit coefficients: one stream each.
        terms[len] = (z.mul(&c), pk.base());
        terms[len + 1] = (z, Base::Point(proof.u.neg().to_point()));
        terms[len + 2] = (w.mul(&c), Base::Point(proof.gamma.to_point()));
        terms[len + 3] = (w, Base::Point(proof.v.neg().to_point()));
        len += 4;
    }
    terms[len] = (on_g, Base::Point(Point::generator()));
    terms[len + 1] = (on_h, Base::Point(h.to_point()));
    Point::multi_mul(&terms[..len + 2])
}

/// Interprets a VRF output as a committee index in `[0, m)` — the
/// `hash mod m` step of Algorithm 1.
pub fn output_to_committee(output: &Digest, m: usize) -> usize {
    assert!(m > 0, "at least one committee");
    (output.prefix_u64() % m as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schnorr::{Keypair, PreparedKey};
    use proptest::prelude::*;

    #[test]
    fn evaluate_verify_round_trip() {
        let kp = Keypair::from_seed(b"vrf-node-1");
        let out = evaluate(&kp.secret, b"COMMON_MEMBER|5|seed");
        assert!(verify(&kp.public, b"COMMON_MEMBER|5|seed", &out));
    }

    /// The evaluation before proofs carried their commitments, kept as the
    /// differential oracle: derives `PK` from the secret, normalises Γ, U, V
    /// one inversion at a time, and returns the `(Γ, c, s)` proof with the
    /// output.
    fn evaluate_reference(sk: &SecretKey, input: &[u8]) -> (Digest, AffinePoint, Scalar, Scalar) {
        let pk = sk.public_key();
        let h = hash_to_curve(H2C_DOMAIN, input);
        let gamma = h.to_point().mul(sk.scalar()).to_affine().unwrap();
        let mut drbg =
            HmacDrbg::from_parts("cycledger/vrf-nonce", &[&sk.scalar().to_be_bytes(), input]);
        let k = Scalar::nonzero_from_drbg(&mut drbg);
        let u = Point::mul_generator(&k).to_affine().unwrap();
        let v = h.to_point().mul(&k).to_affine().unwrap();
        let c = Scalar::from_hash(
            "cycledger/vrf-dleq",
            &[
                &pk.to_bytes(),
                &h.to_bytes(),
                &gamma.to_bytes(),
                &u.to_bytes(),
                &v.to_bytes(),
            ],
        );
        let s = k.sub(&c.mul(sk.scalar()));
        (output_from_gamma(&gamma), gamma, c, s)
    }

    #[test]
    fn every_evaluation_path_matches_the_reference_bit_for_bit() {
        // 16 keys x 6 inputs = 96 (key, input) pairs.
        let inputs: Vec<Vec<u8>> = (0..6u64)
            .map(|round| [b"COMMON_MEMBER".as_slice(), &round.to_be_bytes()].concat())
            .collect();
        let provers: Vec<Prover> = inputs.iter().map(|input| Prover::new(input)).collect();
        for key in 0..16u32 {
            let kp = Keypair::from_seed(&[b"vrf-diff".as_slice(), &key.to_be_bytes()].concat());
            for (input, prover) in inputs.iter().zip(&provers) {
                let (hash, gamma, c, s) = evaluate_reference(&kp.secret, input);
                let with_public = evaluate_with_public(&kp.secret, &kp.public, input);
                assert_eq!(evaluate(&kp.secret, input), with_public);
                assert_eq!(prover.evaluate(&kp.secret, &kp.public), with_public);
                assert_eq!(with_public.hash, hash);
                assert_eq!(with_public.proof.gamma.to_bytes(), gamma.to_bytes());
                assert_eq!(with_public.proof.s, s);
                assert_eq!(with_public.proof.challenge(&kp.public, input), c);
                assert!(verify(&kp.public, input, &with_public));
            }
        }
    }

    #[test]
    fn wrong_input_rejected() {
        let kp = Keypair::from_seed(b"vrf-node-2");
        let out = evaluate(&kp.secret, b"input-a");
        assert!(!verify(&kp.public, b"input-b", &out));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = Keypair::from_seed(b"vrf-node-3");
        let kp2 = Keypair::from_seed(b"vrf-node-4");
        let out = evaluate(&kp1.secret, b"input");
        assert!(!verify(&kp2.public, b"input", &out));
    }

    #[test]
    fn forged_output_hash_rejected() {
        let kp = Keypair::from_seed(b"vrf-node-5");
        let mut out = evaluate(&kp.secret, b"input");
        // An adversary cannot keep the proof but claim a different output
        // (this is what prevents committee-assignment grinding).
        out.hash = hash_parts(&[b"forged"]);
        assert!(!verify(&kp.public, b"input", &out));
    }

    #[test]
    fn forged_gamma_rejected() {
        let kp = Keypair::from_seed(b"vrf-node-6");
        let other = Keypair::from_seed(b"vrf-node-7");
        let mut out = evaluate(&kp.secret, b"input");
        let forged_gamma = evaluate(&other.secret, b"input").proof.gamma;
        out.proof.gamma = forged_gamma;
        out.hash = output_from_gamma(&forged_gamma);
        assert!(!verify(&kp.public, b"input", &out));
    }

    #[test]
    fn deterministic_and_unique_per_key() {
        let kp = Keypair::from_seed(b"vrf-node-8");
        let a = evaluate(&kp.secret, b"round-7");
        let b = evaluate(&kp.secret, b"round-7");
        assert_eq!(a, b, "VRF output is unique for (key, input)");
        let other = Keypair::from_seed(b"vrf-node-9");
        assert_ne!(a.hash, evaluate(&other.secret, b"round-7").hash);
    }

    #[test]
    fn outputs_spread_over_committees() {
        // With many nodes the committee assignment should hit every index.
        let m = 4;
        let mut seen = vec![false; m];
        for i in 0..40u32 {
            let kp = Keypair::from_seed(&i.to_be_bytes());
            let out = evaluate(&kp.secret, b"round-1-seed");
            seen[output_to_committee(&out.hash, m)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all committees get members");
    }

    #[test]
    #[should_panic(expected = "at least one committee")]
    fn zero_committees_panics() {
        output_to_committee(&hash_parts(&[b"x"]), 0);
    }

    const GROUP_INPUT: &[u8] = b"COMMON_MEMBER|group";

    fn group(n: usize) -> (Vec<Keypair>, Vec<VrfOutput>) {
        let keys: Vec<Keypair> = (0..n)
            .map(|i| Keypair::from_seed(format!("vrf-group-{i}").as_bytes()))
            .collect();
        let prover = Prover::new(GROUP_INPUT);
        let outputs = keys
            .iter()
            .map(|kp| prover.evaluate(&kp.secret, &kp.public))
            .collect();
        (keys, outputs)
    }

    /// The group's verdicts, batched and one at a time, each checked to be
    /// the same with the keys prepared.
    fn batch_and_single(keys: &[Keypair], outputs: &[VrfOutput]) -> (Vec<bool>, Vec<bool>) {
        let entries: Vec<(&PublicKey, &VrfOutput)> =
            keys.iter().map(|kp| &kp.public).zip(outputs).collect();
        let prepared: Vec<PreparedKey> =
            keys.iter().map(|kp| PreparedKey::new(kp.public)).collect();
        let keyed: Vec<(&PreparedKey, &VrfOutput)> = prepared.iter().zip(outputs).collect();
        let single: Vec<bool> = entries
            .iter()
            .map(|(pk, output)| verify(*pk, GROUP_INPUT, output))
            .collect();
        let keyed_single: Vec<bool> = keyed
            .iter()
            .map(|(pk, output)| verify(*pk, GROUP_INPUT, output))
            .collect();
        assert_eq!(keyed_single, single, "prepared keys, one at a time");
        let prover = Prover::new(GROUP_INPUT);
        let batched = prover.verify_batch(&entries);
        assert_eq!(
            prover.verify_batch(&keyed),
            batched,
            "prepared keys, batched"
        );
        (batched, single)
    }

    /// `(1, 1)` is not on `y² = x³ + 7`: 1 ≠ 8.
    const OFF_CURVE: AffinePoint = AffinePoint {
        x: crate::fe::Fe::one(),
        y: crate::fe::Fe::one(),
    };

    #[test]
    fn verify_batch_equals_verify_for_a_forgery_at_every_position() {
        let (keys, honest) = group(8);
        let (verdicts, single) = batch_and_single(&keys, &honest);
        assert_eq!(verdicts, vec![true; 8]);
        assert_eq!(verdicts, single);
        assert!(Prover::new(GROUP_INPUT)
            .verify_batch::<PublicKey>(&[])
            .is_empty());
        assert!(!OFF_CURVE.is_on_curve());

        let other = evaluate(
            &Keypair::from_seed(b"vrf-group-stranger").secret,
            GROUP_INPUT,
        );
        type Forge = fn(&mut VrfOutput, &VrfOutput, &VrfOutput);
        let forgeries: [(&str, Forge); 7] = [
            ("tampered s", |out, _, _| {
                out.proof.s = out.proof.s.add(&Scalar::one())
            }),
            ("U of another proof", |out, neighbour, _| {
                out.proof.u = neighbour.proof.u
            }),
            ("V of another proof", |out, neighbour, _| {
                out.proof.v = neighbour.proof.v
            }),
            ("another key's gamma and hash", |out, _, other| {
                out.proof.gamma = other.proof.gamma;
                out.hash = other.hash;
            }),
            ("off-curve U", |out, _, _| out.proof.u = OFF_CURVE),
            ("off-curve gamma", |out, _, _| out.proof.gamma = OFF_CURVE),
            ("wrong output hash", |out, _, _| {
                out.hash = hash_parts(&[b"forged"])
            }),
        ];
        for (name, forge) in forgeries {
            for at in 0..8 {
                let mut outputs = honest.clone();
                forge(&mut outputs[at], &honest[(at + 1) % 8], &other);
                let (verdicts, single) = batch_and_single(&keys, &outputs);
                assert_eq!(verdicts, single, "{name} at {at}");
                let mut expected = vec![true; 8];
                expected[at] = false;
                assert_eq!(verdicts, expected, "{name} at {at}");
            }
        }
    }

    #[test]
    fn verify_batch_rejects_responses_shifted_in_tandem() {
        // The attack on coefficients fixed before the s_i: shift responses
        // so that the weighted sums Σ z_i·s_i (on G) and Σ w_i·s_i (on H)
        // keep the values the honest group's coefficients give them. Two
        // entries can keep the G sum; three, shifted along the cross
        // product of (z_i) and (w_i), keep both, and under the honest
        // coefficients the shifted group's combination is still ∞. The
        // coefficients hash every s_i, so the shifted group draws new ones.
        let (keys, honest) = group(3);
        let h = hash_to_curve(H2C_DOMAIN, GROUP_INPUT);
        let entries: Vec<(&PublicKey, &VrfOutput)> =
            keys.iter().map(|kp| &kp.public).zip(&honest).collect();
        let seed = batch_seed(&h, &entries);
        let coefficients =
            Scalar::rlc_coefficients(BATCH_COEFFICIENT, seed.as_bytes(), 6, <[_]>::to_vec);
        let (z, w): (Vec<Scalar>, Vec<Scalar>) = coefficients
            .chunks(2)
            .map(|pair| (pair[0], pair[1]))
            .unzip();

        let d = Scalar::from_u64(12345);
        let mut two = honest.clone();
        two[0].proof.s = two[0].proof.s.add(&d.mul(&z[0].invert()));
        two[1].proof.s = two[1].proof.s.sub(&d.mul(&z[1].invert()));

        let cross = |a: usize, b: usize| z[a].mul(&w[b]).sub(&z[b].mul(&w[a]));
        let mut three = honest.clone();
        for (i, delta) in [cross(1, 2), cross(2, 0), cross(0, 1)].iter().enumerate() {
            assert!(!delta.is_zero());
            three[i].proof.s = three[i].proof.s.add(delta);
        }
        let shifted: Vec<(&PublicKey, &VrfOutput)> =
            keys.iter().map(|kp| &kp.public).zip(&three).collect();
        assert!(weighted_sum(&h, &shifted, &[true; 3], &coefficients).is_infinity());

        for (outputs, forged) in [(two, 2), (three, 3)] {
            let (verdicts, single) = batch_and_single(&keys, &outputs);
            let mut expected = vec![false; forged];
            expected.resize(3, true);
            assert_eq!(single, expected);
            assert_eq!(verdicts, single);
        }
    }

    #[test]
    fn proof_bytes_round_trip_and_reject_non_canonical_encodings() {
        use crate::fe::field_prime;
        use crate::scalar::group_order;
        use crate::u256::U256;
        let kp = Keypair::from_seed(b"vrf-bytes");
        let proof = evaluate(&kp.secret, b"bytes").proof;
        let bytes = proof.to_bytes();
        assert_eq!(VrfProof::from_bytes(&bytes), Some(proof));
        // Each point: a coordinate at p + x, and a point off the curve.
        for at in [0, 64, 128] {
            let mut high = bytes;
            let x = U256::from_be_bytes(bytes[at..at + 32].try_into().unwrap());
            let (wrapped, carry) = x.overflowing_add(&field_prime());
            if !carry {
                high[at..at + 32].copy_from_slice(&wrapped.to_be_bytes());
                assert_eq!(VrfProof::from_bytes(&high), None);
            }
            let mut full = bytes;
            full[at..at + 32].copy_from_slice(&field_prime().to_be_bytes());
            assert_eq!(VrfProof::from_bytes(&full), None);
            let mut off = bytes;
            off[at + 63] ^= 1;
            assert_eq!(VrfProof::from_bytes(&off), None);
        }
        // s = n and s = n + 1 would decode as 0 and 1.
        for s in [group_order(), group_order().wrapping_add(&U256::ONE)] {
            let mut high = bytes;
            high[192..].copy_from_slice(&s.to_be_bytes());
            assert_eq!(VrfProof::from_bytes(&high), None);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_proof_encoding_round_trips(key in any::<u64>(), input in any::<u64>()) {
            let kp = Keypair::from_seed(&key.to_be_bytes());
            let out = evaluate(&kp.secret, &input.to_be_bytes());
            prop_assert_eq!(VrfProof::from_bytes(&out.proof.to_bytes()), Some(out.proof));
        }

        #[test]
        fn prop_from_bytes_never_panics_and_accepts_only_canonical_proofs(
            bytes in prop::collection::vec(any::<u8>(), PROOF_BYTES),
            writes in prop::collection::vec(0..PROOF_BYTES * 256, 0..4),
        ) {
            let random: [u8; PROOF_BYTES] = bytes.try_into().unwrap();
            // And a valid encoding with a few bytes overwritten, which keeps
            // most of it well-formed.
            let kp = Keypair::from_seed(b"vrf-mutated");
            let mut mutated = evaluate(&kp.secret, b"mutated").proof.to_bytes();
            for write in writes {
                mutated[write / 256] = write as u8;
            }
            for candidate in [random, mutated] {
                if let Some(proof) = VrfProof::from_bytes(&candidate) {
                    prop_assert_eq!(proof.to_bytes(), candidate);
                }
            }
        }
    }
}
