//! Supporting bench: the cryptographic primitives every protocol message rests
//! on (hashing, deterministic draws, signing, verification, VRF evaluation,
//! PVSS dealing) and the Algorithm 3 instance they add up to. These set the
//! constant factors behind the Table II communication/computation columns.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use cycledger_bench::alg3_instance;
use cycledger_crypto::hmac::HmacDrbg;
use cycledger_crypto::point::Point;
use cycledger_crypto::pvss;
use cycledger_crypto::scalar::Scalar;
use cycledger_crypto::schnorr::{batch_verify, sign, verify, BatchEntry, Keypair, Signature};
use cycledger_crypto::sha256::sha256;
use cycledger_crypto::vrf;
use cycledger_net::latency::{LatencyConfig, LatencySampler, LinkClass};
use cycledger_net::topology::NodeId;

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto_primitives");
    group.sample_size(20);

    let data = vec![0xabu8; 1024];
    group.bench_function("sha256_1k", |b| b.iter(|| sha256(&data)));

    // A generator made, drawn from once and dropped: what every nonce,
    // challenge and batch coefficient is. The simulated network's latency
    // draw beside it is one keyed SHA-256 compression per envelope.
    group.bench_function("hmac_drbg_one_shot", |b| {
        b.iter(|| HmacDrbg::from_parts("bench/one-shot", &[black_box(&data[..32])]).next_u64())
    });
    let sampler = LatencySampler::new(LatencyConfig::default(), 4242);
    let mut seq = 0u64;
    group.bench_function("latency_sample", |b| {
        b.iter(|| {
            seq += 1;
            sampler.sample(LinkClass::IntraCommittee, NodeId(3), NodeId(11), seq)
        })
    });

    let kp = Keypair::from_seed(b"bench-key");
    let msg = b"a consensus message of typical size padded to sixty-four bytes!";

    // The kernel under every signature and proof, one layer at a time.
    let x = kp.public.point().x;
    let y = kp.public.point().y;
    group.bench_function("fe_mul", |b| b.iter(|| black_box(&x).mul(black_box(&y))));
    group.bench_function("fe_square", |b| b.iter(|| black_box(&x).square()));
    group.bench_function("fe_invert", |b| b.iter(|| black_box(&x).invert()));
    // Jacobian operands with Z != 1, as inside a multiplication.
    let p = kp.public.point().to_point().double();
    let q = Point::generator().double().add(&Point::generator());
    let q_affine = q.to_affine().expect("3G is not infinity");
    group.bench_function("point_double", |b| b.iter(|| black_box(&p).double()));
    group.bench_function("point_add", |b| b.iter(|| black_box(&p).add(black_box(&q))));
    group.bench_function("point_add_affine", |b| {
        b.iter(|| black_box(&p).add_affine(black_box(&q_affine)))
    });
    let k1 = Scalar::from_hash("bench-scalar", &[b"1"]);
    let k2 = Scalar::from_hash("bench-scalar", &[b"2"]);
    group.bench_function("mul_generator", |b| {
        b.iter(|| Point::mul_generator(black_box(&k1)))
    });
    group.bench_function("mul_double", |b| {
        b.iter(|| Point::mul_double(black_box(&k1), &Point::generator(), black_box(&k2), &p))
    });

    // `sign(sk, ..)` also derives the public key (a second fixed-base
    // multiplication and inversion); `Keypair::sign` is what signers call.
    group.bench_function("schnorr_sign_deriving_pk", |b| {
        b.iter(|| sign(&kp.secret, msg))
    });
    group.bench_function("keypair_sign", |b| b.iter(|| kp.sign(msg)));
    let sig = sign(&kp.secret, msg);
    group.bench_function("schnorr_verify", |b| {
        b.iter(|| verify(&kp.public, msg, &sig))
    });

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
    group.bench_function("batch_verify_16", |b| b.iter(|| batch_verify(&entries)));
    // The size of a cross-committee certificate batch at 8x16 (8 x up to 16).
    let many: Vec<BatchEntry<'_>> = (0..8).flat_map(|_| entries.iter().copied()).collect();
    group.bench_function("batch_verify_128", |b| b.iter(|| batch_verify(&many)));

    group.bench_function("vrf_evaluate", |b| {
        b.iter(|| vrf::evaluate(&kp.secret, b"COMMON_MEMBER|7|seed"))
    });
    // The prover already holds its public key.
    group.bench_function("vrf_evaluate_with_public", |b| {
        b.iter(|| vrf::evaluate_with_public(&kp.secret, &kp.public, b"COMMON_MEMBER|7|seed"))
    });
    // What sortition calls: one table per round, every member on it.
    group.bench_function("vrf_prover_new", |b| {
        b.iter(|| vrf::Prover::new(b"COMMON_MEMBER|7|seed"))
    });
    let prover = vrf::Prover::new(b"COMMON_MEMBER|7|seed");
    group.bench_function("vrf_prover_evaluate", |b| {
        b.iter(|| prover.evaluate(&kp.secret, &kp.public))
    });
    let out = vrf::evaluate(&kp.secret, b"COMMON_MEMBER|7|seed");
    group.bench_function("vrf_verify", |b| {
        b.iter(|| vrf::verify(&kp.public, b"COMMON_MEMBER|7|seed", &out))
    });
    // What committee configuration calls: a group of eight proofs.
    let outputs: Vec<vrf::VrfOutput> = keys[..8]
        .iter()
        .map(|k| prover.evaluate(&k.secret, &k.public))
        .collect();
    let proofs: Vec<_> = keys.iter().map(|k| &k.public).zip(&outputs).collect();
    group.bench_function("vrf_verify_batch_8", |b| {
        b.iter(|| vrf::verify_batch(b"COMMON_MEMBER|7|seed", &proofs))
    });

    // One verified Algorithm 3 instance at c = 16: the unit of work a round
    // repeats 33 times at 8x16.
    let mut instance = alg3_instance(16);
    group.bench_function("alg3_instance_c16", |b| b.iter(&mut instance));

    group.bench_function("pvss_deal_7_of_13", |b| {
        b.iter(|| pvss::deal(&Scalar::from_u64(424242), 13, 7, b"bench").unwrap())
    });
    let dealing = pvss::deal(&Scalar::from_u64(424242), 13, 7, b"bench").unwrap();
    group.bench_function("pvss_reconstruct_7", |b| {
        b.iter(|| pvss::reconstruct(&dealing.shares[..7], 7).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_crypto);
criterion_main!(benches);
