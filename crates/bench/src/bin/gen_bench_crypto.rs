//! Emits one column of `BENCH_crypto.json`: nanoseconds per operation for the
//! secp256k1 kernel layer by layer (field, point, scalar multiplication), for
//! the primitives built on it (Schnorr, VRF, PVSS), for SHA-256 over 1 KiB
//! and over batches of short messages, a one-shot HMAC-DRBG draw, the
//! network's per-envelope latency draw and one whole Algorithm 3 instance at
//! c = 16. It is the one harness timing these primitives; rounds per second
//! are `gen_bench_round`'s.
//!
//! Run with `cargo run --release -p cycledger-bench --bin gen_bench_crypto`;
//! the JSON is printed to stdout so it can be pasted into `BENCH_crypto.json`
//! at the repository root. To compare two commits, build this binary from
//! each and alternate the runs on one machine.

use std::hint::black_box;
use std::time::Instant;

use cycledger_bench::{alg3_instance, Json};
use cycledger_crypto::fe::Fe;
use cycledger_crypto::hmac::HmacDrbg;
use cycledger_crypto::point::{KeyTable, Point};
use cycledger_crypto::pvss;
use cycledger_crypto::scalar::Scalar;
use cycledger_crypto::schnorr::{
    batch_verify, sign, verify, BatchEntry, Keypair, PreparedKey, Signature,
};
use cycledger_crypto::sha256::{sha256, sha256_many};
use cycledger_crypto::vrf;
use cycledger_net::latency::{LatencyConfig, LatencySampler, LinkClass};
use cycledger_net::topology::NodeId;

/// Operands in each ring a row walks: on fixed operands the branch
/// predictor learns every data-dependent branch, which random data never
/// lets it do.
const RING: usize = 1024;

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
    // One subtraction and one addition, their operands walked through a
    // ring of random elements, as every row below that has data-dependent
    // branches: whether a sum reaches p, which window digits are zero.
    let mut drbg = HmacDrbg::from_parts("bench/fe-ring", &[]);
    let ring: Vec<Fe> = (0..RING)
        .map(|_| Fe::from_be_bytes(&drbg.next_bytes32()))
        .collect();
    let mut at = 0;
    rows.push((
        "fe_add_sub",
        ns_per_op(|| {
            at = (at + 1) % RING;
            let (a, b, c) = (&ring[at], &ring[(at + 1) % RING], &ring[(at + 2) % RING]);
            black_box(a).sub(b).add(c)
        }),
    ));

    // Random scalars, and Jacobian points with Z != 1 (doubled), as inside
    // a multiplication.
    let mut drbg = HmacDrbg::from_parts("bench/point-ring", &[]);
    let scalars: Vec<Scalar> = (0..RING)
        .map(|_| Scalar::from_be_bytes(&drbg.next_bytes32()))
        .collect();
    let points: Vec<Point> = scalars
        .iter()
        .map(|k| Point::mul_generator(k).double())
        .collect();
    let affine: Vec<_> = points
        .iter()
        .map(|p| p.to_affine().expect("a random multiple is not infinity"))
        .collect();
    let mut at = 0;
    let mut next = || {
        at = (at + 1) % RING;
        (at, (at + 1) % RING)
    };
    rows.push((
        "point_double",
        ns_per_op(|| black_box(&points[next().0]).double()),
    ));
    rows.push((
        "point_add",
        ns_per_op(|| {
            let (i, j) = next();
            black_box(&points[i]).add(&points[j])
        }),
    ));
    rows.push((
        "point_add_affine",
        ns_per_op(|| {
            let (i, j) = next();
            black_box(&points[i]).add_affine(&affine[j])
        }),
    ));
    rows.push((
        "mul_generator",
        ns_per_op(|| Point::mul_generator(black_box(&scalars[next().0]))),
    ));
    let g = Point::generator();
    rows.push((
        "mul_double",
        ns_per_op(|| {
            let (i, j) = next();
            Point::mul_double(black_box(&scalars[i]), &g, &scalars[j], &points[i])
        }),
    ));

    rows.push(("keypair_sign", ns_per_op(|| kp.sign(msg))));
    // `sign(sk, ..)` also derives the public key from the secret.
    rows.push((
        "schnorr_sign_deriving_pk",
        ns_per_op(|| sign(&kp.secret, msg)),
    ));
    // Every verification row takes the signer's key prepared, as the
    // protocol's registry hands it out; building its table is a row of its
    // own.
    rows.push((
        "key_table_build",
        ns_per_call(|| KeyTable::new(black_box(kp.public.point()))),
    ));
    let key = PreparedKey::new(kp.public);
    let sig = kp.sign(msg);
    rows.push(("schnorr_verify", ns_per_op(|| verify(&key, msg, &sig))));

    let keys: Vec<Keypair> = (0..16u8).map(|i| Keypair::from_seed(&[b'k', i])).collect();
    let prepared: Vec<PreparedKey> = keys.iter().map(|k| PreparedKey::new(k.public)).collect();
    let sigs: Vec<Signature> = keys.iter().map(|k| k.sign(msg)).collect();
    let entries: Vec<BatchEntry<'_, PreparedKey>> = prepared
        .iter()
        .zip(&sigs)
        .map(|(public_key, s)| BatchEntry {
            public_key,
            message: msg,
            signature: s,
        })
        .collect();
    rows.push(("batch_verify_16", ns_per_op(|| batch_verify(&entries))));
    // The size of a cross-committee certificate batch at 8x16 (8 x up to 16).
    let many: Vec<BatchEntry<'_, PreparedKey>> =
        (0..8).flat_map(|_| entries.iter().copied()).collect();
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
    rows.push(("vrf_verify", ns_per_op(|| vrf::verify(&key, input, &out))));
    // The sortition draw's path: groups of eight proofs, per proof.
    let outputs: Vec<vrf::VrfOutput> = keys[..8]
        .iter()
        .map(|k| prover.evaluate(&k.secret, &k.public))
        .collect();
    let proofs: Vec<_> = prepared.iter().zip(&outputs).collect();
    rows.push((
        "vrf_verify_batch_8_per_proof",
        ns_per_op(|| prover.verify_batch(&proofs)) / 8.0,
    ));

    let data = [0xabu8; 1024];
    rows.push(("sha256_1k", ns_per_op(|| sha256(black_box(&data)))));
    // A batch of distinct one-block (an SMT value preimage) and two-block
    // (a Merkle node) messages, per message.
    let mut drbg = HmacDrbg::from_parts("bench/sha256-ring", &[]);
    let mut digests = Vec::with_capacity(RING);
    for (name, len) in [("sha256_many_33b", 33), ("sha256_many_65b", 65)] {
        let messages: Vec<Vec<u8>> = (0..RING)
            .map(|_| {
                let mut m = vec![0u8; len];
                drbg.fill_bytes(&mut m);
                m
            })
            .collect();
        let ns = ns_per_call(|| {
            digests.clear();
            sha256_many(black_box(&messages), &mut digests);
        });
        rows.push((name, ns / RING as f64));
    }
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
    rows.push(("alg3_instance_c16", ns_per_call(alg3_instance(16, true))));
    // Table I's committee size, c = 200, verified and not:
    // at this size most of an instance is not signature work.
    rows.push(("alg3_instance_c200", ns_per_call(alg3_instance(200, true))));
    rows.push((
        "alg3_unverified_c200",
        ns_per_call(alg3_instance(200, false)),
    ));

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
