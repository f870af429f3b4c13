//! Emits one column of `BENCH_crypto.json`: nanoseconds per operation for the
//! secp256k1 kernel layer by layer (field, point, scalar multiplication), for
//! the primitives built on it (Schnorr, VRF, PVSS), for SHA-256 over 1 KiB, a
//! one-shot HMAC-DRBG draw, the network's per-envelope latency draw and one
//! whole Algorithm 3 instance at c = 16. It is the one harness timing these
//! primitives; rounds per second are `gen_bench_round`'s.
//!
//! Run with `cargo run --release -p cycledger-bench --bin gen_bench_crypto`;
//! the JSON is printed to stdout so it can be pasted into `BENCH_crypto.json`
//! at the repository root. To compare two commits, build this binary from
//! each and alternate the runs on one machine.

use std::hint::black_box;
use std::time::Instant;

use cycledger_bench::{alg3_instance, Json};
use cycledger_crypto::hmac::HmacDrbg;
use cycledger_crypto::point::Point;
use cycledger_crypto::pvss;
use cycledger_crypto::scalar::Scalar;
use cycledger_crypto::schnorr::{batch_verify, sign, verify, BatchEntry, Keypair, Signature};
use cycledger_crypto::sha256::sha256;
use cycledger_crypto::vrf;
use cycledger_net::latency::{LatencyConfig, LatencySampler, LinkClass};
use cycledger_net::topology::NodeId;

/// Times `f` repeatedly until at least `min_secs` have elapsed and returns
/// iterations per second.
fn ops_per_sec(min_secs: f64, mut f: impl FnMut()) -> f64 {
    // Warm up (builds lazy tables, fills caches) outside the timed region.
    f();
    let mut iters = 0u64;
    let start = Instant::now();
    loop {
        f();
        iters += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_secs {
            return iters as f64 / elapsed;
        }
    }
}

/// Nanoseconds per call of `f`, timed in blocks of 1000 calls so the clock
/// read does not drown a 20 ns field operation.
fn ns_per_op<R>(mut f: impl FnMut() -> R) -> f64 {
    let per_block = ops_per_sec(0.5, || {
        for _ in 0..1000 {
            black_box(f());
        }
    });
    1e6 / per_block
}

/// Nanoseconds per call of `f`, timed one call at a time over a second: for
/// operations of microseconds and more, where one clock read a call is noise.
fn ns_per_call<R>(mut f: impl FnMut() -> R) -> f64 {
    1e9 / ops_per_sec(1.0, || {
        black_box(f());
    })
}

fn main() {
    let kp = Keypair::from_seed(b"bench-crypto-json");
    let msg = b"a consensus message of typical size padded to sixty-four bytes!";
    let mut rows: Vec<(&str, f64)> = Vec::new();

    let x = kp.public.point().x;
    let y = kp.public.point().y;
    rows.push(("fe_mul", ns_per_op(|| black_box(&x).mul(black_box(&y)))));
    rows.push(("fe_square", ns_per_op(|| black_box(&x).square())));
    rows.push(("fe_invert", ns_per_op(|| black_box(&x).invert())));

    // Jacobian operands with Z != 1, as inside a multiplication.
    let p = kp.public.point().to_point().double();
    let q = Point::generator().double().add(&Point::generator());
    let q_affine = q.to_affine().expect("3G is not infinity");
    rows.push(("point_double", ns_per_op(|| black_box(&p).double())));
    rows.push(("point_add", ns_per_op(|| black_box(&p).add(black_box(&q)))));
    rows.push((
        "point_add_affine",
        ns_per_op(|| black_box(&p).add_affine(black_box(&q_affine))),
    ));

    let k1 = Scalar::from_hash("bench-scalar", &[b"1"]);
    let k2 = Scalar::from_hash("bench-scalar", &[b"2"]);
    let g = Point::generator();
    rows.push((
        "mul_generator",
        ns_per_op(|| Point::mul_generator(black_box(&k1))),
    ));
    rows.push((
        "mul_double",
        ns_per_op(|| Point::mul_double(black_box(&k1), &g, black_box(&k2), &p)),
    ));

    rows.push(("keypair_sign", ns_per_op(|| kp.sign(msg))));
    // `sign(sk, ..)` also derives the public key from the secret.
    rows.push((
        "schnorr_sign_deriving_pk",
        ns_per_op(|| sign(&kp.secret, msg)),
    ));
    let sig = kp.sign(msg);
    rows.push((
        "schnorr_verify",
        ns_per_op(|| verify(&kp.public, msg, &sig)),
    ));

    let keys: Vec<Keypair> = (0..16u8).map(|i| Keypair::from_seed(&[b'k', i])).collect();
    let sigs: Vec<Signature> = keys.iter().map(|k| k.sign(msg)).collect();
    let entries: Vec<BatchEntry<'_>> = keys
        .iter()
        .zip(&sigs)
        .map(|(k, s)| BatchEntry {
            public_key: &k.public,
            message: msg,
            signature: s,
        })
        .collect();
    rows.push(("batch_verify_16", ns_per_op(|| batch_verify(&entries))));
    // The size of a cross-committee certificate batch at 8x16 (8 x up to 16).
    let many: Vec<BatchEntry<'_>> = (0..8).flat_map(|_| entries.iter().copied()).collect();
    rows.push(("batch_verify_128", ns_per_op(|| batch_verify(&many))));

    let input = b"COMMON_MEMBER|7|seed";
    rows.push((
        "vrf_evaluate",
        ns_per_op(|| vrf::evaluate(&kp.secret, input)),
    ));
    rows.push((
        "vrf_evaluate_with_public",
        ns_per_op(|| vrf::evaluate_with_public(&kp.secret, &kp.public, input)),
    ));
    // Sortition's path: one table for the round's base, every member on it.
    rows.push(("vrf_prover_new", ns_per_op(|| vrf::Prover::new(input))));
    let prover = vrf::Prover::new(input);
    rows.push((
        "vrf_prover_evaluate",
        ns_per_op(|| prover.evaluate(&kp.secret, &kp.public)),
    ));
    let out = vrf::evaluate(&kp.secret, input);
    rows.push((
        "vrf_verify",
        ns_per_op(|| vrf::verify(&kp.public, input, &out)),
    ));
    // Committee configuration's path: groups of eight proofs, per proof.
    let outputs: Vec<vrf::VrfOutput> = keys[..8]
        .iter()
        .map(|k| prover.evaluate(&k.secret, &k.public))
        .collect();
    let proofs: Vec<_> = keys.iter().map(|k| &k.public).zip(&outputs).collect();
    rows.push((
        "vrf_verify_batch_8_per_proof",
        ns_per_op(|| vrf::verify_batch(input, &proofs)) / 8.0,
    ));

    let data = [0xabu8; 1024];
    rows.push(("sha256_1k", ns_per_op(|| sha256(black_box(&data)))));
    // A generator made, drawn from once and dropped, and the network's
    // latency draw: one keyed compression per envelope.
    let seed = [0xabu8; 32];
    rows.push((
        "hmac_drbg_one_shot",
        ns_per_op(|| HmacDrbg::from_parts("bench/one-shot", &[black_box(&seed)]).next_u64()),
    ));
    let sampler = LatencySampler::new(LatencyConfig::default(), 4242);
    let mut seq = 0u64;
    rows.push((
        "latency_sample",
        ns_per_op(|| {
            seq += 1;
            sampler.sample(LinkClass::IntraCommittee, NodeId(3), NodeId(11), seq)
        }),
    ));

    // What the primitives add up to: one verified instance (239 messages).
    rows.push(("alg3_instance_c16", ns_per_call(alg3_instance(16))));

    // The epoch beacon's dealing and a reconstruction from a quorum of shares.
    let secret = Scalar::from_u64(424242);
    rows.push((
        "pvss_deal_7_of_13",
        ns_per_call(|| pvss::deal(&secret, 13, 7, b"bench").expect("7 of 13 deals")),
    ));
    let dealing = pvss::deal(&secret, 13, 7, b"bench").expect("7 of 13 deals");
    rows.push((
        "pvss_reconstruct_7",
        ns_per_call(|| pvss::reconstruct(&dealing.shares[..7], 7).expect("7 shares suffice")),
    ));

    let ns_per_op = rows.into_iter().map(|(name, ns)| (name, Json::Num(ns, 1)));
    println!("{}", Json::obj([("ns_per_op", Json::obj(ns_per_op))]));
}
