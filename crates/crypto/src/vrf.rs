//! Verifiable Random Function (VRF) via a Chaum–Pedersen DLEQ proof.
//!
//! Algorithm 1 of the paper (`CRYPTO_SORT`) calls `VRF_SK(COMMON_MEMBER ‖ r ‖ R^r)`
//! to assign a node to a committee, and the proof lets every other node verify the
//! assignment. The construction here is ECVRF-flavoured:
//!
//! * `H = hash_to_curve(input)`
//! * `Γ = sk·H` — the unique VRF "gamma" point
//! * proof = DLEQ proof that `log_G(PK) = log_H(Γ)`
//! * output = `SHA-256("vrf-output" ‖ Γ)`
//!
//! Uniqueness: for a fixed key and input there is exactly one valid `Γ`, hence
//! exactly one output — a malicious node cannot grind multiple committee
//! assignments for the same round (the property Elastico lacked, §II-A).

use crate::hmac::HmacDrbg;
use crate::point::{hash_to_curve, AffinePoint, Point};
use crate::scalar::Scalar;
use crate::schnorr::{PublicKey, SecretKey};
use crate::sha256::{hash_parts, Digest};

/// VRF proof: the gamma point plus a DLEQ (Chaum–Pedersen) proof `(c, s)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VrfProof {
    /// `Γ = sk·H(input)`.
    pub gamma: AffinePoint,
    /// Fiat–Shamir challenge.
    pub c: Scalar,
    /// Response scalar.
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

const H2C_DOMAIN: &str = "cycledger/vrf-h2c";

fn dleq_challenge(
    pk: &PublicKey,
    h: &AffinePoint,
    gamma: &AffinePoint,
    u: &AffinePoint,
    v: &AffinePoint,
) -> Scalar {
    Scalar::from_hash(
        "cycledger/vrf-dleq",
        &[
            &pk.to_bytes(),
            &h.to_bytes(),
            &gamma.to_bytes(),
            &u.to_bytes(),
            &v.to_bytes(),
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
/// verification (the DLEQ challenge binds `PK`).
pub fn evaluate_with_public(sk: &SecretKey, pk: &PublicKey, input: &[u8]) -> VrfOutput {
    let h = hash_to_curve(H2C_DOMAIN, input);
    let h_point = h.to_point();
    // Deterministic DLEQ nonce bound to the key and input.
    let mut drbg =
        HmacDrbg::from_parts("cycledger/vrf-nonce", &[&sk.scalar().to_be_bytes(), input]);
    let k = Scalar::nonzero_from_drbg(&mut drbg);
    // Γ, U and V share one field inversion (Montgomery's trick).
    let affine = Point::batch_to_affine(&[
        h_point.mul(sk.scalar()),
        Point::mul_generator(&k),
        h_point.mul(&k),
    ]);
    let [Some(gamma), Some(u), Some(v)] = affine[..] else {
        unreachable!("sk and k are nonzero and H is not the identity")
    };
    let c = dleq_challenge(pk, &h, &gamma, &u, &v);
    let s = k.sub(&c.mul(sk.scalar()));
    VrfOutput {
        hash: output_from_gamma(&gamma),
        proof: VrfProof { gamma, c, s },
    }
}

/// Verifies a VRF output/proof for `pk` on `input`.
///
/// Checks the DLEQ relation `U = s·G + c·PK`, `V = s·H + c·Γ` — each side one
/// Strauss–Shamir double multiplication — re-derives the challenge, and
/// recomputes the output hash from `Γ`.
pub fn verify(pk: &PublicKey, input: &[u8], output: &VrfOutput) -> bool {
    if !output.proof.gamma.is_on_curve() || !pk.point().is_on_curve() {
        return false;
    }
    let h = hash_to_curve(H2C_DOMAIN, input);
    let proof = &output.proof;
    let u = Point::mul_double(
        &proof.s,
        &Point::generator(),
        &proof.c,
        &pk.point().to_point(),
    );
    let v = Point::mul_double(&proof.s, &h.to_point(), &proof.c, &proof.gamma.to_point());
    let (u, v) = match Point::batch_to_affine(&[u, v]).as_slice() {
        [Some(u), Some(v)] => (*u, *v),
        _ => return false,
    };
    let c_check = dleq_challenge(pk, &h, &proof.gamma, &u, &v);
    c_check == proof.c && output_from_gamma(&proof.gamma) == output.hash
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
    use crate::schnorr::Keypair;

    #[test]
    fn evaluate_verify_round_trip() {
        let kp = Keypair::from_seed(b"vrf-node-1");
        let out = evaluate(&kp.secret, b"COMMON_MEMBER|5|seed");
        assert!(verify(&kp.public, b"COMMON_MEMBER|5|seed", &out));
    }

    /// The pre-batching evaluation, kept as the differential oracle: derives
    /// `PK` from the secret and normalises Γ, U, V one inversion at a time.
    fn evaluate_reference(sk: &SecretKey, input: &[u8]) -> VrfOutput {
        let pk = sk.public_key();
        let h = hash_to_curve(H2C_DOMAIN, input);
        let gamma = h.to_point().mul(sk.scalar()).to_affine().unwrap();
        let mut drbg =
            HmacDrbg::from_parts("cycledger/vrf-nonce", &[&sk.scalar().to_be_bytes(), input]);
        let k = Scalar::nonzero_from_drbg(&mut drbg);
        let u = Point::mul_generator(&k).to_affine().unwrap();
        let v = h.to_point().mul(&k).to_affine().unwrap();
        let c = dleq_challenge(&pk, &h, &gamma, &u, &v);
        let s = k.sub(&c.mul(sk.scalar()));
        VrfOutput {
            hash: output_from_gamma(&gamma),
            proof: VrfProof { gamma, c, s },
        }
    }

    #[test]
    fn batched_evaluation_matches_the_reference_bit_for_bit() {
        // 16 keys x 6 inputs = 96 (key, input) pairs.
        for key in 0..16u32 {
            let kp = Keypair::from_seed(&[b"vrf-diff".as_slice(), &key.to_be_bytes()].concat());
            for round in 0..6u64 {
                let input = [b"COMMON_MEMBER".as_slice(), &round.to_be_bytes()].concat();
                let reference = evaluate_reference(&kp.secret, &input);
                assert_eq!(evaluate(&kp.secret, &input), reference);
                let with_public = evaluate_with_public(&kp.secret, &kp.public, &input);
                assert_eq!(with_public, reference);
                assert_eq!(
                    with_public.proof.gamma.to_bytes(),
                    reference.proof.gamma.to_bytes()
                );
                assert!(verify(&kp.public, &input, &with_public));
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
}
