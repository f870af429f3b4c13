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
//! eight-bit ones (commit e69df41), `shared Z` with VRF proofs that carry
//! their commitments `(Γ, U, V, s)` and every fixed-base table a `FixedBase`
//! comb whose entries share one `Z` (one multiplication more per `k·G`), and
//! `divstep` with the divstep inversion (no field multiplication) and every
//! verifier's key prepared, its `KeyTable` built outside the scope, and
//! `now` with `hash_to_curve` a pure function: `vrf::evaluate`, `vrf::verify`
//! and `Prover::new` each hash this input's base to the curve, which a
//! process-wide memo used to return — one square root (255 squarings, 14
//! multiplications) and, under the debug assertions of the test profile
//! these counts are taken in, an on-curve check (2 squarings, 1
//! multiplication; a release build skips it) — while `Prover::verify_batch_on`
//! takes the base the prover holds:
//!
//! | operation                | wNAF   | 4-bit  | 8-bit  | shared Z | divstep | now    |
//! |--------------------------|--------|--------|--------|----------|---------|--------|
//! | `Keypair::sign`          |   1451 |    934 |    615 |      616 |     346 |    346 |
//! | `KeyTable::new`          |        |        |        |          |    1024 |   1024 |
//! | `schnorr::verify`        |   3255 |   1798 |   1798 |     1798 |    1430 |   1430 |
//! | `batch_verify` ×16       |  28328 |  17268 |  17268 |    17268 |   13053 |  13053 |
//! | `vrf::evaluate`          |   8121 |   4846 |   4230 |     4232 |    3692 |   3964 |
//! | `vrf::verify`            |   7202 |   4116 |   4116 |     3854 |    3531 |   3803 |
//! | `vrf::Prover::new`       |        |        |        |    12660 |   12660 |  12932 |
//! | `Prover::evaluate`       |        |        |        |     1735 |    1465 |   1465 |
//! | `verify_batch` ×8, /8    |        |        |        |     2248 |    1980 |   1980 |
//!
//! Point operations, wNAF → now: sign 59 additions → 31 mixed (signed
//! eight-bit fixed-base windows; four-bit ones made it 60); verify 255
//! doublings + 91 additions → 125 doublings + 47 mixed (a bare key: 128 +
//! 72, 7 of them to build its table); batch ×16 288 + 1639 → 144 + 946
//! mixed. A VRF verification no longer normalises `U` and `V` (one
//! inversion less); a table evaluation is 131 mixed additions and no
//! doubling where `evaluate_with_public` walks 255 doublings; a group of
//! eight walks one chain of 128 doublings where single checks walk sixteen.
//! Ten evaluations cost 36 286 without a table and 27 395 with a fresh one
//! (33 566 and 27 123 while the base came from the memo).
//!
//! A round's draw at 8×16, 88 provers (`round_draw_counts_are_pinned`):
//! evaluated in four lockstep chunks of 22, 793 field multiplications a
//! prover and 208 inversions in all (1 455 and 88 one at a time), the
//! same 11 445 additions batched affine instead of mixed; checked as one
//! bucket sum, 968 a proof and 43 inversions (1 976 and none in the eleven
//! groups of eight the draw checked before).
//!
//! SHA-256 compressions per operation — `naive` is the HMAC-DRBG of commit
//! b85479e (both pad blocks hashed on every HMAC, the closing state update
//! made even when the generator is dropped), `own` the one that keeps its
//! key schedule and owes that update, with every nonce, Fiat–Shamir
//! challenge and batch coefficient one draw from a generator of its own,
//! `now` with a batch's coefficients drawn from one stream. `vrf::evaluate`
//! and `vrf::verify` hash this input to the curve in one two-block try
//! where the memo hashed its two-block key, so they keep their counts; a
//! group no longer hashes that key (272 → 270):
//!
//! | operation          | naive | own | now | generators |
//! |--------------------|-------|-----|-----|------------|
//! | `Keypair::sign`    |    68 |  40 |  40 | 2          |
//! | `schnorr::verify`  |    35 |  21 |  21 | 1          |
//! | `batch_verify` ×16 |  1153 | 705 | 449 | 32 → 17    |
//! | `vrf::evaluate`    |    73 |  45 |  45 | 2          |
//! | `vrf::verify`      |    41 |  27 |  27 | 1          |
//! | `Prover::evaluate` |       |  43 |  43 | 2          |
//! | `verify_batch` ×8  |       | 528 | 270 | 24 → 9     |
//!
//! The tally also counts signatures verified (one at a time, in batches),
//! verification-memo lookups and the simulated network's envelopes and
//! draws; the consensus, net and protocol crates pin those
//! (`cargo test -p cycledger-consensus -p cycledger-net --features opcount`).
#![cfg(feature = "opcount")]

use cycledger_crypto::opcount::{scope, Tally};
use cycledger_crypto::point::{KeyTable, WindowTask};
use cycledger_crypto::pvss;
use cycledger_crypto::scalar::Scalar;
use cycledger_crypto::schnorr::{
    batch_verify, verify, BatchEntry, Keypair, PreparedKey, PublicKey, SecretKey, Signature,
};
use cycledger_crypto::vrf;

const MESSAGE: &[u8] = b"a consensus message of typical size padded to sixty-four bytes!";
const VRF_INPUT: &[u8] = b"COMMON_MEMBER|7|seed";

/// `Prover::verify_batch_on` with fresh buffers, its window tasks run here
/// in order.
fn verify_batch(prover: &vrf::Prover, entries: &[(&PreparedKey, &vrf::VrfOutput)]) -> Vec<bool> {
    let run = |tasks: Vec<WindowTask<'_>>| tasks.into_iter().map(WindowTask::run).collect();
    prover.verify_batch_on(entries, &mut vrf::DrawScratch::default(), run)
}

/// `fe_mul + fe_square` of the same operation with the wNAF kernel.
const WNAF_SIGN: u64 = 1451;
const WNAF_VERIFY: u64 = 3255;

fn field_muls(t: &Tally) -> u64 {
    t.fe_mul + t.fe_square
}

#[test]
fn kernel_operation_counts_are_pinned() {
    let kp = Keypair::from_seed(b"opcount-key");
    // Warm the lazily built tables outside the scopes; every key is
    // prepared outside them too, as the node registry prepares it once.
    let key = PreparedKey::new(kp.public);
    let sig = kp.sign(MESSAGE);
    let out = vrf::evaluate(&kp.secret, VRF_INPUT);
    assert!(verify(&key, MESSAGE, &sig));
    assert!(vrf::verify(&key, VRF_INPUT, &out));

    let keys: Vec<Keypair> = (0..16u8).map(|i| Keypair::from_seed(&[b'b', i])).collect();
    let prepared: Vec<PreparedKey> = keys.iter().map(|k| PreparedKey::new(k.public)).collect();
    let sigs: Vec<Signature> = keys.iter().map(|k| k.sign(MESSAGE)).collect();
    let entries: Vec<BatchEntry<'_, PreparedKey>> = prepared
        .iter()
        .zip(&sigs)
        .map(|(public_key, signature)| BatchEntry {
            public_key,
            message: MESSAGE,
            signature,
        })
        .collect();

    let sign = scope(|| kp.sign(MESSAGE));
    let table = scope(|| KeyTable::new(kp.public.point()));
    let verified = scope(|| assert!(verify(&key, MESSAGE, &sig)));
    let bare = scope(|| assert!(verify(&kp.public, MESSAGE, &sig)));
    let batch = scope(|| assert!(batch_verify(&entries)));
    let evaluated = scope(|| vrf::evaluate(&kp.secret, VRF_INPUT));
    let vrf_verified = scope(|| assert!(vrf::verify(&key, VRF_INPUT, &out)));
    // Shown when an assertion below fails: all of them, for re-pinning at once.
    println!("sign {sign:?}\nkey table {table:?}\nverify {verified:?}\nbare verify {bare:?}");
    println!("batch x16 {batch:?}\nvrf evaluate {evaluated:?}\nvrf verify {vrf_verified:?}");

    assert_eq!(
        sign,
        Tally {
            fe_mul: 252,
            fe_square: 94,
            fe_invert: 1,
            point_double: 0,
            point_add: 0,
            point_add_affine: 31,
            sha256_blocks: 40,
            drbg_instantiations: 2,
            ..Tally::default()
        }
    );
    // 63 mixed additions of 2P where it is affine, one inversion for all 64.
    assert_eq!(
        table,
        Tally {
            fe_mul: 766,
            fe_square: 258,
            fe_invert: 1,
            point_double: 1,
            point_add_affine: 63,
            ..Tally::default()
        }
    );
    // The key term walks its table (about 28 additions, none to build one);
    // a bare key builds a width-5 table and walks it (7 + 43 or so).
    assert_eq!(
        verified,
        Tally {
            fe_mul: 783,
            fe_square: 647,
            fe_invert: 0,
            point_double: 125,
            point_add: 0,
            point_add_affine: 47,
            sha256_blocks: 21,
            drbg_instantiations: 1,
            sigs_single: 1,
            ..Tally::default()
        }
    );
    assert_eq!(
        bare,
        Tally {
            fe_mul: 1056,
            fe_square: 742,
            point_double: 128,
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
            fe_mul: 9416,
            fe_square: 3637,
            fe_invert: 0,
            point_double: 144,
            point_add: 0,
            point_add_affine: 946,
            sha256_blocks: 449,
            drbg_instantiations: 17,
            sigs_batched: 16,
            sig_batches: 1,
            ..Tally::default()
        }
    );
    assert_eq!(
        evaluated,
        Tally {
            fe_mul: 2191,
            fe_square: 1773,
            fe_invert: 2,
            point_double: 254,
            point_add: 0,
            point_add_affine: 160,
            sha256_blocks: 45,
            drbg_instantiations: 2,
            vrf_evaluations: 1,
            ..Tally::default()
        }
    );
    assert_eq!(
        vrf_verified,
        Tally {
            fe_mul: 2069,
            fe_square: 1734,
            fe_invert: 0,
            point_double: 256,
            point_add: 0,
            point_add_affine: 141,
            sha256_blocks: 27,
            drbg_instantiations: 1,
            vrf_proofs_checked: 1,
            ..Tally::default()
        }
    );

    // The reductions the kernel replacement was accepted on, and the key
    // tables' on a verification (1 798 with a bare key) and a batch (17 268).
    assert!(field_muls(&verified) * 100 <= WNAF_VERIFY * 65);
    assert!(field_muls(&sign) * 100 <= WNAF_SIGN * 70);
    assert!(field_muls(&verified) * 100 <= field_muls(&bare) * 80);
    assert!(field_muls(&batch) * 100 <= 17_268 * 76);
}

#[test]
fn vrf_table_and_group_counts_are_pinned() {
    let keys: Vec<Keypair> = (0..10u8).map(|i| Keypair::from_seed(&[b'v', i])).collect();
    // Warm the static tables outside the scopes.
    let warm = vrf::Prover::new(VRF_INPUT);
    let outputs: Vec<vrf::VrfOutput> = keys
        .iter()
        .map(|k| warm.evaluate(&k.secret, &k.public))
        .collect();
    let prepared: Vec<PreparedKey> = keys.iter().map(|k| PreparedKey::new(k.public)).collect();
    let group: Vec<(&PreparedKey, &vrf::VrfOutput)> =
        prepared.iter().zip(&outputs).take(8).collect();
    let kp = &keys[0];
    vrf::evaluate_with_public(&kp.secret, &kp.public, VRF_INPUT);
    verify_batch(&warm, &group);

    let mut prover = None;
    let build = scope(|| prover = Some(vrf::Prover::new(VRF_INPUT)));
    let prover = prover.expect("built");
    let on_table = scope(|| prover.evaluate(&kp.secret, &kp.public));
    let direct = scope(|| vrf::evaluate_with_public(&kp.secret, &kp.public, VRF_INPUT));
    let single = scope(|| assert!(vrf::verify(&prepared[0], VRF_INPUT, &outputs[0])));
    let grouped = scope(|| assert_eq!(verify_batch(&prover, &group), vec![true; 8]));
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

    // The base: one two-block try, its square root and on-curve check.
    // Then 51 windows of
    // 16 multiples and a last one of 2: one doubling and 14 mixed additions
    // a window, a doubling to the next, five multiplications an entry to
    // share one Z.
    assert_eq!(
        build,
        Tally {
            fe_mul: 9304,
            fe_square: 3628,
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
            fe_mul: 1069,
            fe_square: 396,
            fe_invert: 1,
            point_add_affine: 131,
            sha256_blocks: 43,
            drbg_instantiations: 2,
            vrf_evaluations: 1,
            ..Tally::default()
        }
    );
    assert_eq!(
        direct,
        Tally {
            fe_mul: 1942,
            fe_square: 1683,
            fe_invert: 1,
            point_double: 255,
            point_add_affine: 129,
            sha256_blocks: 45,
            drbg_instantiations: 2,
            vrf_evaluations: 1,
            ..Tally::default()
        }
    );
    // Eight proofs, one 34-term combination: one chain of 128 doublings (and
    // the point terms' table doublings) where eight single checks walk
    // sixteen, every key through its table; a challenge a proof and one
    // stream of sixteen coefficients.
    assert_eq!(
        grouped,
        Tally {
            fe_mul: 11416,
            fe_square: 4424,
            point_double: 153,
            point_add_affine: 1166,
            sha256_blocks: 270,
            drbg_instantiations: 9,
            vrf_proofs_checked: 8,
            vrf_sub_checks: 1,
            ..Tally::default()
        }
    );
    assert_eq!(field_muls(&single), 3874);
    assert_eq!(
        (single.vrf_proofs_checked, ten_on_table.vrf_evaluations),
        (1, 10)
    );
    assert!(field_muls(&grouped) * 100 <= 8 * field_muls(&single) * 60);

    // Break-even: a table and ten evaluations on it cost fewer field
    // operations than ten evaluations without one.
    assert_eq!(
        (field_muls(&ten_on_table), field_muls(&ten_direct)),
        (27395, 36286)
    );
    assert!(field_muls(&ten_on_table) < field_muls(&ten_direct));
}

/// A round's draw at the tracked 8×16 geometry: 88 provers.
const DRAW: usize = 88;

#[test]
fn round_draw_counts_are_pinned() {
    let keys: Vec<Keypair> = (0..DRAW as u32)
        .map(|i| Keypair::from_seed(&[b"draw".as_slice(), &i.to_be_bytes()].concat()))
        .collect();
    let prepared: Vec<PreparedKey> = keys.iter().map(|k| PreparedKey::new(k.public)).collect();
    let pairs: Vec<(&SecretKey, &PublicKey)> =
        keys.iter().map(|k| (&k.secret, &k.public)).collect();
    let prover = vrf::Prover::new(VRF_INPUT);
    let mut scratch = vrf::DrawScratch::default();
    let evaluate = |scratch: &mut vrf::DrawScratch| -> Vec<vrf::VrfOutput> {
        let tasks = prover.evaluation_tasks(&pairs, scratch);
        tasks
            .into_iter()
            .flat_map(vrf::EvalTask::run)
            .copied()
            .collect()
    };
    // Warm the static tables and the scratch outside the scopes.
    let outputs = evaluate(&mut scratch);
    let entries: Vec<(&PreparedKey, &vrf::VrfOutput)> = prepared.iter().zip(&outputs).collect();
    verify_batch(&prover, &entries);
    verify_batch(&prover, &entries[..8]);

    let lockstep = scope(|| evaluate(&mut scratch));
    let single = scope(|| {
        for (sk, pk) in &pairs {
            prover.evaluate(sk, pk);
        }
    });
    let round = scope(|| assert_eq!(verify_batch(&prover, &entries), vec![true; DRAW]));
    let groups = scope(|| {
        for group in entries.chunks(8) {
            assert!(verify_batch(&prover, group).iter().all(|&v| v));
        }
    });
    // Shown when an assertion below fails, for re-pinning at once.
    println!("lockstep x{DRAW} {lockstep:?}\nsingle x{DRAW} {single:?}");
    println!("round check x{DRAW} {round:?}\ngroups of 8 x{DRAW} {groups:?}");

    // Four chunks of 22 walk H's 52 windows and G's 33 in lockstep: one
    // inversion a window past the first (where every sum is one entry) and
    // one for the combs' ζ, a chunk; 88 evaluations on their own pay a
    // mixed addition a digit and an inversion each.
    // The same 11 445 additions either way, batched affine (six field
    // operations) where alone they are mixed (eleven).
    assert_eq!(
        lockstep,
        Tally {
            fe_mul: 58041,
            fe_square: 11709,
            fe_invert: 208,
            point_add_batched: 11445,
            sha256_blocks: 3784,
            drbg_instantiations: 176,
            vrf_evaluations: 88,
            ..Tally::default()
        }
    );
    assert_eq!(
        (
            field_muls(&single),
            single.fe_invert,
            single.point_add_affine
        ),
        (128007, 88, 11445)
    );
    // One bucket sum of 530 half-scalar terms in six-bit windows, eight
    // window tasks of two or three windows: 10 729 batched additions in 43
    // levels, each window summed by a running sum (654 mixed and 675
    // Jacobian additions), 198 doublings to join the windows and the
    // tasks. The eleven groups of eight the draw checked before walked
    // eleven chains of 128 doublings, ~11 mixed additions a term.
    assert_eq!(
        round,
        Tally {
            fe_mul: 68271,
            fe_square: 16885,
            fe_invert: 43,
            point_double: 198,
            point_add: 675,
            point_add_affine: 654,
            point_add_batched: 10729,
            sha256_blocks: 2790,
            drbg_instantiations: 89,
            vrf_proofs_checked: 88,
            vrf_sub_checks: 1,
            ..Tally::default()
        }
    );
    assert_eq!(
        (
            field_muls(&groups),
            groups.point_double,
            groups.vrf_sub_checks
        ),
        (173848, 1682, 11)
    );
    assert!(field_muls(&round) * 100 <= field_muls(&groups) * 50);
    assert!(field_muls(&lockstep) * 100 <= field_muls(&single) * 55);
}

#[test]
fn pvss_dealing_check_and_beacon_counts_are_pinned() {
    // `kernel_kat`'s beacon: seven dealers, threshold four, one corrupted.
    let honest = [true, true, false, true, true, true, true];
    let tag = b"kernel-kat beacon";
    let dealing = pvss::deal(&Scalar::from_u64(99), 7, 4, tag).unwrap();
    // Warm the static tables outside the scopes.
    pvss::run_beacon(7, 4, &honest, tag).unwrap();

    let check = scope(|| assert!(pvss::verify_dealing(&dealing)));
    let beacon = scope(|| pvss::run_beacon(7, 4, &honest, tag).unwrap());
    // Shown when an assertion below fails, for re-pinning at once.
    println!("verify_dealing {check:?}\nbeacon {beacon:?}");
    // One 5-term combination over one doubling chain: 131 doublings and
    // 3 684 field multiplications (3 963 when the inversion was a Fermat
    // chain), where four multiplications and a fixed-base one walked 507
    // doublings in 6 706; the seven coefficients are one stream.
    assert_eq!(
        check,
        Tally {
            fe_mul: 2457,
            fe_square: 1227,
            fe_invert: 1,
            point_double: 131,
            point_add_affine: 220,
            sha256_blocks: 33,
            drbg_instantiations: 1,
            ..Tally::default()
        }
    );
    // Seven dealings, seven checks, six reconstructions: 56 297 field
    // multiplications and 3 542 doublings with a multiplication per
    // commitment.
    assert_eq!(
        beacon,
        Tally {
            fe_mul: 24267,
            fe_square: 11230,
            fe_invert: 7,
            point_double: 916,
            point_add_affine: 2422,
            sha256_blocks: 597,
            drbg_instantiations: 21,
            ..Tally::default()
        }
    );
    assert!(field_muls(&beacon) * 100 <= 56_297 * 70);
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
