//! Exact operation counts of the secp256k1 kernel, gated at zero tolerance.
//! Run with `cargo test -p cycledger-crypto --features opcount`.
//!
//! The counts depend only on the key, the message and the code, never on the
//! machine, so this is where a kernel regression (a table that went back to
//! Jacobian, a lost mixed addition, an inversion that crept in) fails a test
//! instead of hiding inside wall-clock noise.
//!
//! Field multiplications + squarings per operation, for the fixed inputs
//! below — `wNAF` is the 256-doubling wNAF kernel at commit a223ce3
//! (counted with the same hooks before it was replaced; its `square` was
//! `mul(self)`), `4-bit` the endomorphism + mixed-addition kernel with
//! four-bit fixed-base windows (commit da63273), `now` the same kernel with
//! eight-bit ones:
//!
//! | operation          | wNAF   | 4-bit  | now    | now / wNAF |
//! |--------------------|--------|--------|--------|------------|
//! | `Keypair::sign`    |   1451 |    934 |    615 | 0.42       |
//! | `schnorr::verify`  |   3255 |   1798 |   1798 | 0.55       |
//! | `batch_verify` ×16 |  28328 |  17268 |  17268 | 0.61       |
//! | `vrf::evaluate`    |   8121 |   4846 |   4230 | 0.52       |
//! | `vrf::verify`      |   7202 |   4116 |   4116 | 0.57       |
//!
//! Point operations, wNAF → now: sign 59 additions → 31 mixed (signed
//! eight-bit fixed-base windows; four-bit ones made it 60); verify 255
//! doublings + 91 additions → 128 doublings + 72 mixed (7 of them build the
//! public key's table); batch ×16 288 + 1639 → 160 + 1277 mixed.
//!
//! SHA-256 compressions per operation — `naive` is the HMAC-DRBG of commit
//! b85479e (both pad blocks hashed on every HMAC, the closing state update
//! made even when the generator is dropped), `now` the one that keeps its
//! key schedule and owes that update; every nonce, Fiat–Shamir challenge and
//! batch coefficient is one draw from a generator of its own:
//!
//! | operation          | naive | now | generators |
//! |--------------------|-------|-----|------------|
//! | `Keypair::sign`    |    68 |  40 | 2          |
//! | `schnorr::verify`  |    35 |  21 | 1          |
//! | `batch_verify` ×16 |  1153 | 705 | 32         |
//! | `vrf::evaluate`    |    73 |  45 | 2          |
//! | `vrf::verify`      |    41 |  27 | 1          |
//!
//! The tally also counts signatures verified (one at a time, in batches),
//! verification-memo lookups and the simulated network's envelopes and
//! draws; the consensus, net and protocol crates pin those
//! (`cargo test -p cycledger-consensus -p cycledger-net --features opcount`).
#![cfg(feature = "opcount")]

use cycledger_crypto::opcount::{scope, Tally};
use cycledger_crypto::schnorr::{batch_verify, verify, BatchEntry, Keypair, Signature};
use cycledger_crypto::vrf;

const MESSAGE: &[u8] = b"a consensus message of typical size padded to sixty-four bytes!";
const VRF_INPUT: &[u8] = b"COMMON_MEMBER|7|seed";

/// `fe_mul + fe_square` of the same operation with the wNAF kernel.
const WNAF_SIGN: u64 = 1451;
const WNAF_VERIFY: u64 = 3255;

fn field_muls(t: &Tally) -> u64 {
    t.fe_mul + t.fe_square
}

#[test]
fn kernel_operation_counts_are_pinned() {
    let kp = Keypair::from_seed(b"opcount-key");
    // Warm the lazily built tables and the hash-to-curve memo outside the scopes.
    let sig = kp.sign(MESSAGE);
    let out = vrf::evaluate(&kp.secret, VRF_INPUT);
    assert!(verify(&kp.public, MESSAGE, &sig));
    assert!(vrf::verify(&kp.public, VRF_INPUT, &out));

    let keys: Vec<Keypair> = (0..16u8).map(|i| Keypair::from_seed(&[b'b', i])).collect();
    let sigs: Vec<Signature> = keys.iter().map(|k| k.sign(MESSAGE)).collect();
    let entries: Vec<BatchEntry<'_>> = keys
        .iter()
        .zip(&sigs)
        .map(|(k, s)| BatchEntry {
            public_key: &k.public,
            message: MESSAGE,
            signature: s,
        })
        .collect();

    let sign = scope(|| kp.sign(MESSAGE));
    let verified = scope(|| assert!(verify(&kp.public, MESSAGE, &sig)));
    let batch = scope(|| assert!(batch_verify(&entries)));
    let evaluated = scope(|| vrf::evaluate(&kp.secret, VRF_INPUT));
    let vrf_verified = scope(|| assert!(vrf::verify(&kp.public, VRF_INPUT, &out)));
    // Shown when an assertion below fails: all five, for re-pinning at once.
    println!("sign {sign:?}\nverify {verified:?}\nbatch x16 {batch:?}");
    println!("vrf evaluate {evaluated:?}\nvrf verify {vrf_verified:?}");

    assert_eq!(
        sign,
        Tally {
            fe_mul: 266,
            fe_square: 349,
            fe_invert: 1,
            point_double: 0,
            point_add: 0,
            point_add_affine: 31,
            sha256_blocks: 40,
            drbg_instantiations: 2,
            ..Tally::default()
        }
    );
    assert_eq!(
        verified,
        Tally {
            fe_mul: 1056,
            fe_square: 742,
            fe_invert: 0,
            point_double: 128,
            point_add: 0,
            point_add_affine: 72,
            sha256_blocks: 21,
            drbg_instantiations: 1,
            sigs_single: 1,
            ..Tally::default()
        }
    );
    assert_eq!(
        batch,
        Tally {
            fe_mul: 12414,
            fe_square: 4854,
            fe_invert: 0,
            point_double: 160,
            point_add: 0,
            point_add_affine: 1277,
            sha256_blocks: 705,
            drbg_instantiations: 32,
            sigs_batched: 16,
            sig_batches: 1,
            ..Tally::default()
        }
    );
    assert_eq!(
        evaluated,
        Tally {
            fe_mul: 2204,
            fe_square: 2026,
            fe_invert: 2,
            point_double: 254,
            point_add: 0,
            point_add_affine: 160,
            sha256_blocks: 45,
            drbg_instantiations: 2,
            ..Tally::default()
        }
    );
    assert_eq!(
        vrf_verified,
        Tally {
            fe_mul: 2311,
            fe_square: 1805,
            fe_invert: 1,
            point_double: 257,
            point_add: 0,
            point_add_affine: 163,
            sha256_blocks: 27,
            drbg_instantiations: 1,
            ..Tally::default()
        }
    );

    // The reductions the kernel replacement was accepted on.
    assert!(field_muls(&verified) * 100 <= WNAF_VERIFY * 65);
    assert!(field_muls(&sign) * 100 <= WNAF_SIGN * 70);
}

#[test]
fn scopes_nest_and_count_per_thread() {
    let kp = Keypair::from_seed(b"opcount-nesting");
    kp.sign(MESSAGE); // builds the fixed-base table outside the scopes
    let mut inner = Tally::default();
    let outer = scope(|| {
        inner = scope(|| kp.sign(MESSAGE));
        kp.sign(MESSAGE)
    });
    assert_eq!(field_muls(&outer), 2 * field_muls(&inner));
    // Work on another thread is not charged to this one.
    let elsewhere = scope(|| {
        std::thread::spawn(move || kp.sign(MESSAGE))
            .join()
            .expect("signing thread")
    });
    assert_eq!(elsewhere, Tally::default());
}
