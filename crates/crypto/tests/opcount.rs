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
//! four-bit fixed-base windows (commit da63273), `8-bit` the same kernel with
//! eight-bit ones (commit e69df41), `now` with VRF proofs that carry their
//! commitments `(Γ, U, V, s)` and every fixed-base table a `FixedBase` comb
//! whose entries share one `Z` (one multiplication more per `k·G`):
//!
//! | operation                | wNAF   | 4-bit  | 8-bit  | now    |
//! |--------------------------|--------|--------|--------|--------|
//! | `Keypair::sign`          |   1451 |    934 |    615 |    616 |
//! | `schnorr::verify`        |   3255 |   1798 |   1798 |   1798 |
//! | `batch_verify` ×16       |  28328 |  17268 |  17268 |  17268 |
//! | `vrf::evaluate`          |   8121 |   4846 |   4230 |   4232 |
//! | `vrf::verify`            |   7202 |   4116 |   4116 |   3854 |
//! | `vrf::Prover::new`       |        |        |        |  12660 |
//! | `Prover::evaluate`       |        |        |        |   1735 |
//! | `verify_batch` ×8, /8    |        |        |        |   2248 |
//!
//! Point operations, wNAF → now: sign 59 additions → 31 mixed (signed
//! eight-bit fixed-base windows; four-bit ones made it 60); verify 255
//! doublings + 91 additions → 128 doublings + 72 mixed (7 of them build the
//! public key's table); batch ×16 288 + 1639 → 160 + 1277 mixed. A VRF
//! verification no longer normalises `U` and `V` (one inversion less); a
//! table evaluation is 131 mixed additions and no doubling where
//! `evaluate_with_public` walks 255 doublings; a group of eight walks one
//! chain of 128 doublings where single checks walk sixteen. Ten evaluations
//! cost 36 266 without a table and 29 823 with a fresh one.
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
//! | `Prover::evaluate` |       |  43 | 2          |
//! | `verify_batch` ×8  |       | 528 | 24         |
//!
//! The tally also counts signatures verified (one at a time, in batches),
//! verification-memo lookups and the simulated network's envelopes and
//! draws; the consensus, net and protocol crates pin those
//! (`cargo test -p cycledger-consensus -p cycledger-net --features opcount`).
#![cfg(feature = "opcount")]

use cycledger_crypto::opcount::{scope, Tally};
use cycledger_crypto::schnorr::{batch_verify, verify, BatchEntry, Keypair, PublicKey, Signature};
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
            fe_mul: 267,
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
            fe_mul: 2206,
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
            fe_mul: 2298,
            fe_square: 1556,
            fe_invert: 0,
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
fn vrf_table_and_group_counts_are_pinned() {
    let keys: Vec<Keypair> = (0..10u8).map(|i| Keypair::from_seed(&[b'v', i])).collect();
    // Warm the static tables and the hash-to-curve memo outside the scopes.
    let warm = vrf::Prover::new(VRF_INPUT);
    let outputs: Vec<vrf::VrfOutput> = keys
        .iter()
        .map(|k| warm.evaluate(&k.secret, &k.public))
        .collect();
    let group: Vec<(&PublicKey, &vrf::VrfOutput)> = keys
        .iter()
        .map(|k| &k.public)
        .zip(&outputs)
        .take(8)
        .collect();
    let kp = &keys[0];
    vrf::evaluate_with_public(&kp.secret, &kp.public, VRF_INPUT);
    vrf::verify_batch(VRF_INPUT, &group);

    let mut prover = None;
    let build = scope(|| prover = Some(vrf::Prover::new(VRF_INPUT)));
    let prover = prover.expect("built");
    let on_table = scope(|| prover.evaluate(&kp.secret, &kp.public));
    let direct = scope(|| vrf::evaluate_with_public(&kp.secret, &kp.public, VRF_INPUT));
    let single = scope(|| assert!(vrf::verify(&kp.public, VRF_INPUT, &outputs[0])));
    let grouped = scope(|| assert_eq!(vrf::verify_batch(VRF_INPUT, &group), vec![true; 8]));
    let ten_on_table = scope(|| {
        let prover = vrf::Prover::new(VRF_INPUT);
        for k in &keys {
            prover.evaluate(&k.secret, &k.public);
        }
    });
    let ten_direct = scope(|| {
        for k in &keys {
            vrf::evaluate_with_public(&k.secret, &k.public, VRF_INPUT);
        }
    });
    // Shown when an assertion below fails, for re-pinning at once.
    println!("prover build {build:?}\nprover evaluate {on_table:?}\ndirect {direct:?}");
    println!("vrf verify {single:?}\nverify_batch x8 {grouped:?}");
    println!("ten on table {ten_on_table:?}\nten direct {ten_direct:?}");

    // 51 windows of 16 multiples and a last one of 2: one doubling and 14
    // mixed additions a window, a doubling to the next, five
    // multiplications an entry to share one Z.
    assert_eq!(
        build,
        Tally {
            fe_mul: 9289,
            fe_square: 3371,
            point_double: 103,
            point_add_affine: 714,
            sha256_blocks: 2,
            ..Tally::default()
        }
    );
    // Γ and V at most 52 mixed additions each and no doubling, U from the
    // static G table, one inversion for the three.
    assert_eq!(
        on_table,
        Tally {
            fe_mul: 1084,
            fe_square: 651,
            fe_invert: 1,
            point_add_affine: 131,
            sha256_blocks: 43,
            drbg_instantiations: 2,
            ..Tally::default()
        }
    );
    assert_eq!(
        direct,
        Tally {
            fe_mul: 1942,
            fe_square: 1681,
            fe_invert: 1,
            point_double: 255,
            point_add_affine: 129,
            sha256_blocks: 45,
            drbg_instantiations: 2,
            ..Tally::default()
        }
    );
    // Eight proofs, one 34-term combination: one chain of 128 doublings (and
    // the H term's table doubling) where eight single checks walk sixteen;
    // a challenge and two coefficients a proof.
    assert_eq!(
        grouped,
        Tally {
            fe_mul: 12940,
            fe_square: 5042,
            point_double: 161,
            point_add_affine: 1335,
            sha256_blocks: 528,
            drbg_instantiations: 24,
            ..Tally::default()
        }
    );
    assert_eq!(field_muls(&single), 3894);
    assert!(field_muls(&grouped) * 100 <= 8 * field_muls(&single) * 60);

    // Break-even: a table and ten evaluations on it cost fewer field
    // operations than ten evaluations without one.
    assert_eq!(
        (field_muls(&ten_on_table), field_muls(&ten_direct)),
        (29823, 36266)
    );
    assert!(field_muls(&ten_on_table) < field_muls(&ten_direct));
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
