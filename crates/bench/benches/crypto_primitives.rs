//! Supporting bench: the cryptographic primitives every protocol message rests
//! on (hashing, signing, verification, VRF evaluation, PVSS dealing). These set
//! the constant factors behind the Table II communication/computation columns.

use criterion::{criterion_group, criterion_main, Criterion};
use cycledger_crypto::pvss;
use cycledger_crypto::scalar::Scalar;
use cycledger_crypto::schnorr::{sign, verify, Keypair};
use cycledger_crypto::sha256::sha256;
use cycledger_crypto::vrf;

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto_primitives");
    group.sample_size(20);

    let data = vec![0xabu8; 1024];
    group.bench_function("sha256_1k", |b| b.iter(|| sha256(&data)));

    let kp = Keypair::from_seed(b"bench-key");
    let msg = b"a consensus message of typical size padded to sixty-four bytes!";
    group.bench_function("schnorr_sign", |b| b.iter(|| sign(&kp.secret, msg)));
    let sig = sign(&kp.secret, msg);
    group.bench_function("schnorr_verify", |b| {
        b.iter(|| verify(&kp.public, msg, &sig))
    });

    group.bench_function("vrf_evaluate", |b| {
        b.iter(|| vrf::evaluate(&kp.secret, b"COMMON_MEMBER|7|seed"))
    });
    // What sortition calls: the prover already holds its public key.
    group.bench_function("vrf_evaluate_with_public", |b| {
        b.iter(|| vrf::evaluate_with_public(&kp.secret, &kp.public, b"COMMON_MEMBER|7|seed"))
    });
    let out = vrf::evaluate(&kp.secret, b"COMMON_MEMBER|7|seed");
    group.bench_function("vrf_verify", |b| {
        b.iter(|| vrf::verify(&kp.public, b"COMMON_MEMBER|7|seed", &out))
    });

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
