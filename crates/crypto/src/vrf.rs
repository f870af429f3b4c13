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
//! Carrying `U` and `V` is what lets the sortition draw check all of a
//! round's proofs as one random linear combination ([`Prover::verify_batch_on`],
//! a bucket multi-scalar multiplication from 22 proofs; the ECVRF variant of
//! Badertscher, Gaži, Querejeta-Azurmendi and Russell, 2022). The
//! `(Γ, c, s)` proof is [`VrfProof::challenge`] away, and `Γ`, `s` and the
//! output are the same either way. A round's provers all share one `H`, so a
//! [`Prover`] builds a fixed-base table for it once and every `sk·H` and
//! `k·H` after that is additions only — a chunk of provers walked in
//! lockstep, each window's additions sharing one inversion
//! ([`Prover::evaluation_tasks`]).

use std::ops::Range;

use crate::hmac::HmacDrbg;
use crate::opcount::{count, Op};
use crate::point::{
    generator_affine, generator_comb, hash_to_curve, mul_lockstep, AffinePoint, Base, BucketMsm,
    Buckets, FixedBase, Lockstep, Point, WindowTask,
};
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

/// Provers an [`EvalTask`] evaluates at most: a draw of `n` is cut into a
/// power of two of index chunks, `⌈n/32⌉` rounded up, whose sizes differ by
/// one at most — 16 to 32 provers each from 16 on, and a count that divides
/// over two, four or eight workers (DESIGN-notes.md, "The splits are
/// functions of the proof count").
const CHUNK_PROVERS: usize = 32;

/// Live proofs from which [`Prover::verify_batch_on`] sums a check with a
/// [`BucketMsm`]; fewer go through [`Point::multi_mul`]'s shared chain, the
/// cheaper below this measured crossover (DESIGN-notes.md, "The bucket
/// sum").
const BUCKET_PROOFS: usize = 22;

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
/// bit; the table repays its build after seven evaluations. A round's draw
/// evaluates its provers through [`Prover::evaluation_tasks`] and checks
/// their proofs with [`Prover::verify_batch_on`].
pub struct Prover {
    input: Vec<u8>,
    h: AffinePoint,
    table: FixedBase,
}

/// The buffers of a round's draw — the lockstep lanes of its evaluation
/// tasks and the bucket sum of its check — kept by their owner across
/// rounds, so a steady draw allocates them once.
#[derive(Debug, Default)]
pub struct DrawScratch {
    /// One an evaluation task.
    lanes: Vec<Lanes>,
    coefficients: Vec<Scalar>,
    challenges: Vec<Scalar>,
    msm: BucketMsm,
    /// One a window task.
    buckets: Vec<Buckets>,
}

/// One evaluation task's buffers, its outputs among them, on cache lines
/// of their own (see [`Buckets`]).
#[derive(Debug, Default)]
#[repr(align(128))]
struct Lanes {
    nonces: Vec<Scalar>,
    lockstep: Lockstep,
    outputs: Vec<VrfOutput>,
}

/// One index chunk of a draw's provers ([`Prover::evaluation_tasks`]).
pub struct EvalTask<'a> {
    prover: &'a Prover,
    keys: &'a [(&'a SecretKey, &'a PublicKey)],
    lanes: &'a mut Lanes,
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

    /// The evaluation of every `(sk, pk)` of `keys`, cut into index chunks
    /// of at most 32 of equal size, a power of two of them — a function of
    /// `keys.len()` alone — one task each; the tasks' outputs, concatenated
    /// in task order, are [`evaluate`](Self::evaluate) of each key, bit for
    /// bit.
    pub fn evaluation_tasks<'a>(
        &'a self,
        keys: &'a [(&'a SecretKey, &'a PublicKey)],
        scratch: &'a mut DrawScratch,
    ) -> Vec<EvalTask<'a>> {
        if keys.is_empty() {
            return Vec::new();
        }
        let chunks = keys.len().div_ceil(CHUNK_PROVERS).next_power_of_two();
        if scratch.lanes.len() < chunks {
            scratch.lanes.resize_with(chunks, Lanes::default);
        }
        let n = keys.len();
        (0..chunks)
            .zip(scratch.lanes.iter_mut())
            .map(|(i, lanes)| EvalTask {
                prover: self,
                keys: &keys[i * n / chunks..(i + 1) * n / chunks],
                lanes,
            })
            .collect()
    }

    /// Verifies a batch of proofs on this prover's input and `H`, in the
    /// draw's buffers: `verdicts[i]` is `verify(entries[i].0, input,
    /// entries[i].1)` (an invalid proof survives a passing check with
    /// probability about `2^−128`). `run` runs the window tasks of one
    /// bucket sum (an executor batch, in a round's draw) and returns their
    /// sums in task order.
    ///
    /// Each well-formed proof's two equations, scaled by independent
    /// 128-bit coefficients `z_i`, `w_i` (one stream seeded with a hash of
    /// all the entries, every `s_i` included), are summed as
    /// `Σ z_i·(s_i·G + c_i·PK_i − U_i) + w_i·(s_i·H + c_i·Γ_i − V_i) = ∞`:
    /// from 22 live proofs one [`BucketMsm`] over `4n + 2` terms, below
    /// that one [`Point::multi_mul`] (`run` is not called), where [`verify`]
    /// pays two double multiplications a proof. If the sum is not `∞`, the
    /// entries are bisected by index halves: the first half's sum is
    /// computed (through `run` too, from 22 live proofs) and the second's is
    /// the difference, a half whose sum is `∞` passes whole, and a lone
    /// proof is checked by its own equations — so the verdicts are
    /// [`verify`]'s and one forgery costs at most `2·⌈log₂ n⌉` sub-checks
    /// (Bernstein, Doumen, Lange and Oosterwijk, "Faster batch forgery
    /// identification", 2012).
    pub fn verify_batch_on<K: VerifyingKey>(
        &self,
        entries: &[(&K, &VrfOutput)],
        scratch: &mut DrawScratch,
        run: impl Fn(Vec<WindowTask<'_>>) -> Vec<Point>,
    ) -> Vec<bool> {
        entries.iter().for_each(|_| count(Op::VrfProofChecked));
        let mut verdicts: Vec<bool> = entries
            .iter()
            .map(|(pk, output)| well_formed(pk.public_key(), output))
            .collect();
        let DrawScratch {
            coefficients,
            challenges,
            msm,
            buckets,
            ..
        } = scratch;
        let seed = batch_seed(&self.h, entries);
        Scalar::rlc_coefficients(
            BATCH_COEFFICIENT,
            seed.as_bytes(),
            2 * entries.len(),
            |drawn| {
                coefficients.clear();
                coefficients.extend_from_slice(drawn);
            },
        );
        challenges.clear();
        challenges.extend(entries.iter().zip(&verdicts).map(|((pk, output), &live)| {
            if live {
                dleq_challenge(pk.public_key(), &self.h, &output.proof)
            } else {
                Scalar::zero()
            }
        }));
        let check = Check {
            h: &self.h,
            entries,
            live: &verdicts,
            coefficients,
            challenges,
        };
        let all = 0..entries.len();
        let sum = check.sum(all.clone(), msm, buckets, &run);
        let mut forged = Vec::new();
        check.bisect(all, sum, msm, buckets, &run, &mut forged);
        for i in forged {
            verdicts[i] = false;
        }
        verdicts
    }
}

impl<'a> EvalTask<'a> {
    /// The chunk's outputs, in key order, in the task's buffer. The chunk
    /// walks `H`'s comb (for `Γ` and `V`) and `G`'s (for `U`) in lockstep,
    /// `point::mul_lockstep`: one batched inversion a window and no
    /// normalisation after.
    pub fn run(self) -> &'a [VrfOutput] {
        let EvalTask {
            prover,
            keys,
            lanes,
        } = self;
        let Lanes {
            nonces,
            lockstep,
            outputs,
        } = lanes;
        outputs.clear();
        nonces.clear();
        nonces.extend(keys.iter().map(|(sk, _)| nonce(sk, &prover.input)));
        let combs = [&prover.table, generator_comb()];
        let lanes = keys.iter().zip(nonces.iter());
        let lanes = lanes.flat_map(|((sk, _), k)| [(0, *sk.scalar()), (1, *k), (0, *k)]);
        let mut points = mul_lockstep(&combs, lanes, lockstep);
        let mut next = || {
            let point = points.next().flatten();
            point.expect("sk and k are nonzero and H is not the identity")
        };
        outputs.extend(keys.iter().zip(nonces.iter()).map(|((sk, pk), k)| {
            let (gamma, u, v) = (next(), next(), next());
            finish(sk, pk, &prover.h, k, gamma, u, v)
        }));
        outputs
    }
}

/// The deterministic DLEQ nonce of `sk` on `input`.
fn nonce(sk: &SecretKey, input: &[u8]) -> Scalar {
    let mut drbg =
        HmacDrbg::from_parts("cycledger/vrf-nonce", &[&sk.scalar().to_be_bytes(), input]);
    Scalar::nonzero_from_drbg(&mut drbg)
}

/// The proof of `sk` on `input`, whose base is `h`; `mul_h(k)` is `k·H`.
fn prove(
    sk: &SecretKey,
    pk: &PublicKey,
    input: &[u8],
    h: &AffinePoint,
    mul_h: impl Fn(&Scalar) -> Point,
) -> VrfOutput {
    let k = nonce(sk, input);
    // Γ, U and V share one field inversion (Montgomery's trick), on the
    // stack.
    let affine =
        Point::batch_to_affine_array(&[mul_h(sk.scalar()), Point::mul_generator(&k), mul_h(&k)]);
    let [Some(gamma), Some(u), Some(v)] = affine else {
        unreachable!("sk and k are nonzero and H is not the identity")
    };
    finish(sk, pk, h, &k, gamma, u, v)
}

/// The output of `sk` under the nonce `k`, given `Γ = sk·H`, `U = k·G` and
/// `V = k·H`.
fn finish(
    sk: &SecretKey,
    pk: &PublicKey,
    h: &AffinePoint,
    k: &Scalar,
    gamma: AffinePoint,
    u: AffinePoint,
    v: AffinePoint,
) -> VrfOutput {
    count(Op::VrfEvaluate);
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

/// The seed of a batch's coefficients: `H` and every entry's key and whole
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

/// A batch of proofs under its coefficients `z_i = coefficients[2i]`,
/// `w_i = coefficients[2i + 1]` and challenges, the entries `live` marks
/// (well-formed) taking part.
struct Check<'c, 'e, K> {
    h: &'c AffinePoint,
    entries: &'c [(&'e K, &'e VrfOutput)],
    live: &'c [bool],
    coefficients: &'c [Scalar],
    challenges: &'c [Scalar],
}

impl<K: VerifyingKey> Check<'_, '_, K> {
    /// `Σ z_i·(s_i·G + c_i·PK_i − U_i) + w_i·(s_i·H + c_i·Γ_i − V_i)` over
    /// the live entries of `range`: one sub-check.
    fn sum(
        &self,
        range: Range<usize>,
        msm: &mut BucketMsm,
        buckets: &mut Vec<Buckets>,
        run: &impl Fn(Vec<WindowTask<'_>>) -> Vec<Point>,
    ) -> Point {
        count(Op::VrfSubCheck);
        let live = || range.clone().filter(|&i| self.live[i]);
        let bucket = live().count() >= BUCKET_PROOFS;
        let mut terms = Vec::new();
        msm.clear();
        let (mut on_g, mut on_h) = (Scalar::zero(), Scalar::zero());
        for i in live() {
            let (pk, output) = self.entries[i];
            let proof = &output.proof;
            let (z, w, c) = self.scalars(i);
            on_g = on_g.add(&z.mul(&proof.s));
            on_h = on_h.add(&w.mul(&proof.s));
            // `−U` and `−V` under the 128-bit coefficients: one stream each.
            let [key, rest @ ..] = [
                (z.mul(c), *pk.public_key().point()),
                (*z, proof.u.neg()),
                (w.mul(c), proof.gamma),
                (*w, proof.v.neg()),
            ];
            if bucket {
                for (k, p) in [key].iter().chain(&rest) {
                    msm.push(k, p);
                }
            } else {
                // The key term walks the key's own table.
                terms.push((key.0, pk.base()));
                terms.extend(rest.iter().map(|(k, p)| (*k, Base::Point(p.to_point()))));
            }
        }
        if !bucket {
            terms.push((on_g, Base::Point(Point::generator())));
            terms.push((on_h, Base::Point(self.h.to_point())));
            return Point::multi_mul(&terms);
        }
        msm.push(&on_g, &generator_affine());
        msm.push(&on_h, self.h);
        let parts = run(msm.tasks(buckets));
        msm.combine(&parts)
    }

    /// Entry `i`'s `z_i`, `w_i` and challenge.
    fn scalars(&self, i: usize) -> (&Scalar, &Scalar, &Scalar) {
        let pair = &self.coefficients[2 * i..2 * i + 2];
        (&pair[0], &pair[1], &self.challenges[i])
    }

    /// Pushes onto `forged` every live entry of `range` whose proof fails,
    /// `sum` being the range's [`sum`](Self::sum): nothing if it is `∞`,
    /// the lone live entry's own verdict, or else each index half's, the
    /// first half's sum computed (its window tasks through `run`) and the
    /// second's the difference.
    fn bisect(
        &self,
        range: Range<usize>,
        sum: Point,
        msm: &mut BucketMsm,
        buckets: &mut Vec<Buckets>,
        run: &impl Fn(Vec<WindowTask<'_>>) -> Vec<Point>,
        forged: &mut Vec<usize>,
    ) {
        if sum.is_infinity() {
            return;
        }
        let mut live = range.clone().filter(|&i| self.live[i]);
        if let (Some(i), None) = (live.next(), live.next()) {
            count(Op::VrfSubCheck);
            let (pk, output) = self.entries[i];
            if !dleq_holds(pk, self.h, &output.proof) {
                forged.push(i);
            }
            return;
        }
        let middle = range.start + range.len() / 2;
        let first = self.sum(range.start..middle, msm, buckets, run);
        self.bisect(range.start..middle, first, msm, buckets, run, forged);
        let second = sum.add(&first.neg());
        self.bisect(middle..range.end, second, msm, buckets, run, forged);
    }
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

    /// Window tasks run here, in order.
    fn inline(tasks: Vec<WindowTask<'_>>) -> Vec<Point> {
        tasks.into_iter().map(WindowTask::run).collect()
    }

    /// [`Prover::verify_batch_on`] with fresh buffers, its window tasks run
    /// here.
    fn verify_batch<K: VerifyingKey>(prover: &Prover, entries: &[(&K, &VrfOutput)]) -> Vec<bool> {
        prover.verify_batch_on(entries, &mut DrawScratch::default(), inline)
    }

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
        let batched = verify_batch(&prover, &entries);
        assert_eq!(
            verify_batch(&prover, &keyed),
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
        assert!(verify_batch::<PublicKey>(&Prover::new(GROUP_INPUT), &[]).is_empty());
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
        let challenges: Vec<Scalar> = shifted
            .iter()
            .map(|(pk, output)| dleq_challenge(pk, &h, &output.proof))
            .collect();
        let check = Check {
            h: &h,
            entries: &shifted,
            live: &[true; 3],
            coefficients: &coefficients,
            challenges: &challenges,
        };
        let sum = check.sum(0..3, &mut BucketMsm::default(), &mut Vec::new(), &|_| {
            unreachable!("three proofs take the shared chain")
        });
        assert!(sum.is_infinity());

        for (outputs, forged) in [(two, 2), (three, 3)] {
            let (verdicts, single) = batch_and_single(&keys, &outputs);
            let mut expected = vec![false; forged];
            expected.resize(3, true);
            assert_eq!(single, expected);
            assert_eq!(verdicts, single);
        }
    }

    /// A round's worth of proofs: 88, as the 8×16 draw checks.
    const ROUND: usize = 88;

    /// The verdicts of `outputs` through the round-wide check, with its
    /// window tasks run in reverse order, against `dleq_holds` one proof at
    /// a time; and the check's sub-checks.
    fn round_and_single(keys: &[Keypair], outputs: &[VrfOutput]) -> (Vec<bool>, Vec<bool>) {
        let prover = Prover::new(GROUP_INPUT);
        let entries: Vec<(&PublicKey, &VrfOutput)> =
            keys.iter().map(|kp| &kp.public).zip(outputs).collect();
        let run = |tasks: Vec<WindowTask<'_>>| {
            let mut parts: Vec<Point> = tasks.into_iter().rev().map(WindowTask::run).collect();
            parts.reverse();
            parts
        };
        let round = prover.verify_batch_on(&entries, &mut DrawScratch::default(), run);
        let single = entries
            .iter()
            .map(|(pk, output)| {
                well_formed(pk, output) && dleq_holds(*pk, &prover.h, &output.proof)
            })
            .collect();
        (round, single)
    }

    #[test]
    fn the_round_wide_check_equals_per_proof_checks() {
        let (keys, honest) = group(ROUND);
        let (verdicts, single) = round_and_single(&keys, &honest);
        assert_eq!(verdicts, vec![true; ROUND]);
        assert_eq!(verdicts, single);
        let tamper = |outputs: &mut [VrfOutput], at: usize| {
            outputs[at].proof.s = outputs[at].proof.s.add(&Scalar::one());
        };
        // One forgery first, in the middle, last and on either side of the
        // first bisection's halves; two forgeries, in one half and across
        // the halves; and one proof with U and V swapped.
        let half = ROUND / 2;
        let mut cases: Vec<Vec<usize>> = [0, half - 1, half, ROUND / 4, ROUND - 1]
            .iter()
            .map(|&at| vec![at])
            .collect();
        cases.extend([vec![3, 9], vec![5, ROUND - 2]]);
        for forged in &cases {
            let mut outputs = honest.clone();
            for &at in forged {
                tamper(&mut outputs, at);
            }
            let (verdicts, single) = round_and_single(&keys, &outputs);
            assert_eq!(verdicts, single, "{forged:?}");
            assert_eq!(verdicts.iter().filter(|&&v| !v).count(), forged.len());
        }
        let mut swapped = honest.clone();
        let proof = &mut swapped[ROUND / 3].proof;
        std::mem::swap(&mut proof.u, &mut proof.v);
        let (verdicts, single) = round_and_single(&keys, &swapped);
        assert_eq!(verdicts, single);
        assert!(!verdicts[ROUND / 3]);
        // Responses shifted in tandem along the honest coefficients (see
        // below) draw coefficients of their own here too.
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
        let cross = |a: usize, b: usize| z[a].mul(&w[b]).sub(&z[b].mul(&w[a]));
        let mut three = honest.clone();
        for (i, delta) in [cross(1, 2), cross(2, 0), cross(0, 1)].iter().enumerate() {
            three[i].proof.s = three[i].proof.s.add(delta);
        }
        let (verdicts, single) = round_and_single(&keys, &three);
        assert_eq!(verdicts, single);
        assert_eq!(verdicts[..4], [false, false, false, true]);
    }

    /// One forged proof among a round's costs its check at most
    /// `2·⌈log₂ 88⌉` sub-checks more than the honest round's one.
    #[cfg(feature = "opcount")]
    #[test]
    fn one_forgery_costs_at_most_two_sub_checks_a_bisection_level() {
        use crate::opcount::scope;
        let (keys, honest) = group(ROUND);
        round_and_single(&keys, &honest);
        let sub_checks = |outputs: &[VrfOutput]| {
            let prover = Prover::new(GROUP_INPUT);
            let entries: Vec<(&PublicKey, &VrfOutput)> =
                keys.iter().map(|kp| &kp.public).zip(outputs).collect();
            scope(|| verify_batch(&prover, &entries)).vrf_sub_checks
        };
        assert_eq!(sub_checks(&honest), 1);
        let bound = 2 * ROUND.next_power_of_two().ilog2() as u64;
        for at in [0, ROUND / 2 - 1, ROUND / 2, ROUND - 1] {
            let mut outputs = honest.clone();
            outputs[at].proof.s = outputs[at].proof.s.add(&Scalar::one());
            let spent = sub_checks(&outputs) - 1;
            assert!(spent <= bound, "forgery at {at}: {spent} sub-checks");
        }
    }

    /// Many forgeries — 8 and 44 of a round's 88, every eleventh and every
    /// second proof — bisect with every sub-sum of 22 live proofs or more
    /// handed to `run` (an executor batch, in a draw), and the verdicts are
    /// per-proof verification's. Either way four sums go through `run`: the
    /// round's, and those of `0..44`, `0..22` and `44..66`, the first halves
    /// of the ranges of 88 and 44 (the second halves' sums are
    /// differences); the halves of 11 and fewer take the shared chain. With
    /// `opcount` the sub-checks are pinned too, 40 and 132, within two a
    /// forgery a bisection level.
    #[test]
    fn many_forgeries_bisect_with_their_long_sums_through_run() {
        let (keys, honest) = group(ROUND);
        let prover = Prover::new(GROUP_INPUT);
        for (stride, runs, sub_checks) in [(11, 4, 40), (2, 4, 132)] {
            let mut outputs = honest.clone();
            for output in outputs.iter_mut().step_by(stride) {
                output.proof.s = output.proof.s.add(&Scalar::one());
            }
            let entries: Vec<(&PublicKey, &VrfOutput)> =
                keys.iter().map(|kp| &kp.public).zip(&outputs).collect();
            let calls = std::cell::Cell::new(0);
            let run = |tasks: Vec<WindowTask<'_>>| {
                calls.set(calls.get() + 1);
                inline(tasks)
            };
            let check = || prover.verify_batch_on(&entries, &mut DrawScratch::default(), run);
            #[cfg(feature = "opcount")]
            let verdicts = {
                let mut verdicts = Vec::new();
                let spent = crate::opcount::scope(|| verdicts = check());
                let forged = ROUND.div_ceil(stride) as u64;
                let bound = 1 + 2 * forged * ROUND.next_power_of_two().ilog2() as u64;
                assert_eq!(spent.vrf_sub_checks, sub_checks, "every {stride}th forged");
                assert!(sub_checks <= bound);
                verdicts
            };
            #[cfg(not(feature = "opcount"))]
            let verdicts = {
                let _ = sub_checks;
                check()
            };
            let single: Vec<bool> = entries
                .iter()
                .map(|(pk, output)| verify(*pk, GROUP_INPUT, output))
                .collect();
            assert_eq!(verdicts, single, "every {stride}th forged");
            assert_eq!(
                single.iter().filter(|&&v| !v).count(),
                ROUND.div_ceil(stride)
            );
            assert_eq!(calls.get(), runs, "every {stride}th forged");
        }
    }

    #[test]
    fn evaluation_tasks_match_prover_evaluate_at_every_chunking() {
        let prover = Prover::new(GROUP_INPUT);
        let keys: Vec<Keypair> = (0..130u32)
            .map(|i| Keypair::from_seed(&[b"vrf-lockstep".as_slice(), &i.to_be_bytes()].concat()))
            .collect();
        let mut scratch = DrawScratch::default();
        // One chunk of one prover, of 15 and of 16, four chunks of 16 and
        // 17, and eight of 16 and 17.
        for n in [1, 15, 16, 65, 130] {
            let pairs: Vec<(&SecretKey, &PublicKey)> = keys[..n]
                .iter()
                .map(|kp| (&kp.secret, &kp.public))
                .collect();
            let tasks = prover.evaluation_tasks(&pairs, &mut scratch);
            let sizes: Vec<usize> = tasks.iter().map(|task| task.keys.len()).collect();
            assert_eq!(sizes.iter().sum::<usize>(), n);
            assert!(sizes
                .iter()
                .all(|&size| size <= CHUNK_PROVERS && size.abs_diff(sizes[0]) <= 1));
            let outputs: Vec<VrfOutput> =
                tasks.into_iter().flat_map(EvalTask::run).copied().collect();
            for (kp, output) in keys.iter().zip(&outputs) {
                assert_eq!(
                    *output,
                    prover.evaluate(&kp.secret, &kp.public),
                    "{n} provers"
                );
            }
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
