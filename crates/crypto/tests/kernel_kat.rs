//! Known-answer test for everything that rests on the secp256k1 kernel.
//!
//! One digest over 64 Schnorr signatures, 64 VRF outputs and one beacon
//! round. A VRF proof carries its commitments `(Γ, U, V, s)` now; the digest
//! hashes the `(Γ, c, s)` form it was recorded with, `c` re-derived from
//! them. Affine results are canonical and nonce derivation is hash-based, so
//! any kernel (field, point, scalar-multiplication) change must reproduce it
//! bit for bit; a kernel bug shows here in milliseconds instead of as dozens
//! of drifted scenario goldens.

use cycledger_crypto::pvss;
use cycledger_crypto::schnorr::Keypair;
use cycledger_crypto::sha256::Sha256;
use cycledger_crypto::vrf;

/// Recorded at commit a223ce3 (the 256-doubling wNAF kernel), before the
/// endomorphism kernel replaced it.
const EXPECTED: &str = "838a6d81b09f663cf8f44813fcd252b55920d66299da0a921591bd1bfe093383";

#[test]
fn signatures_vrf_outputs_and_beacon_match_the_recorded_digest() {
    let mut hasher = Sha256::new();
    for i in 0u32..64 {
        let kp = Keypair::from_seed(&[b"kernel-kat".as_slice(), &i.to_be_bytes()].concat());
        let message = [b"kernel-kat message ".as_slice(), &i.to_be_bytes()].concat();
        hasher.update(&kp.public.to_bytes());
        hasher.update(&kp.sign(&message).to_bytes());
        let out = vrf::evaluate(&kp.secret, &message);
        hasher.update(out.hash.as_bytes());
        // The proof in its (Γ, c, s) form, as recorded.
        hasher.update(&out.proof.gamma.to_bytes());
        hasher.update(&out.proof.challenge(&kp.public, &message).to_be_bytes());
        hasher.update(&out.proof.s.to_be_bytes());
    }
    let honest = [true, true, false, true, true, true, true];
    let (output, qualified) = pvss::run_beacon(7, 4, &honest, b"kernel-kat beacon").unwrap();
    hasher.update(output.as_bytes());
    hasher.update(&[qualified.len() as u8]);
    assert_eq!(hasher.finalize().to_hex(), EXPECTED);
}
