//! Dev-only operation tally for the secp256k1 kernel, the signature checks
//! built on it and the simulated network's draws.
//!
//! With the `opcount` cargo feature on, every field multiplication, squaring
//! and inversion, every point doubling, addition and mixed addition, every
//! SHA-256 compression, every HMAC-DRBG instantiated, every signature
//! verified (alone or in a batch), every verification-memo lookup and every
//! envelope, latency draw and fault draw of `cycledger-net` bumps one
//! thread-local `Tally`;
//! `scope(|| …)` returns what a closure spent. The counts are exact and
//! machine-independent, so a test can gate the kernel — and how many
//! signatures a consensus instance verifies — at zero tolerance where wall
//! clock cannot. With the feature off (the default) the hook is an empty
//! inline function and nothing else in this module exists — the same shape
//! as `alloccount`'s `count` feature.

/// One kind of counted operation.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// `Fe::mul`.
    FeMul,
    /// `Fe::square`.
    FeSquare,
    /// `Fe::invert`.
    FeInvert,
    /// `Point::double`.
    Double,
    /// Jacobian + Jacobian addition.
    Add,
    /// Jacobian + affine addition.
    AddAffine,
    /// One SHA-256 compression (one 64-byte block of one message).
    Sha256Block,
    /// One `HmacDrbg` instantiated (`new` / `from_parts`).
    DrbgInstantiate,
    /// One `schnorr::verify` call.
    SigVerify,
    /// One `schnorr::batch_verify` call over this many signatures.
    SigBatch(usize),
    /// One lookup in a verification memo (the consensus crate's `SigCache`).
    MemoLookup,
    /// One envelope enqueued by the net crate's `SimNetwork`.
    EnvelopeSent,
    /// One latency drawn by the net crate's `LatencySampler::sample`.
    LatencyDraw,
    /// One loss or jitter decision drawn by the net crate's `FaultPlan`.
    FaultDraw,
}

/// Records one operation on the calling thread's tally.
#[inline(always)]
pub fn count(op: Op) {
    #[cfg(feature = "opcount")]
    TALLY.with(|tally| {
        let mut t = tally.get();
        match op {
            Op::FeMul => t.fe_mul += 1,
            Op::FeSquare => t.fe_square += 1,
            Op::FeInvert => t.fe_invert += 1,
            Op::Double => t.point_double += 1,
            Op::Add => t.point_add += 1,
            Op::AddAffine => t.point_add_affine += 1,
            Op::Sha256Block => t.sha256_blocks += 1,
            Op::DrbgInstantiate => t.drbg_instantiations += 1,
            Op::SigVerify => t.sigs_single += 1,
            Op::SigBatch(n) => {
                t.sig_batches += 1;
                t.sigs_batched += n as u64;
            }
            Op::MemoLookup => t.memo_lookups += 1,
            Op::EnvelopeSent => t.envelopes_sent += 1,
            Op::LatencyDraw => t.latency_draws += 1,
            Op::FaultDraw => t.fault_draws += 1,
        }
        tally.set(t);
    });
    #[cfg(not(feature = "opcount"))]
    let _ = op;
}

/// Operation counts of one [`scope`]. Multiplications and squarings made
/// inside an inversion or a point operation are counted where they happen,
/// so `fe_mul + fe_square` is the whole field-multiplication work.
#[cfg(feature = "opcount")]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// `Fe::mul` calls.
    pub fe_mul: u64,
    /// `Fe::square` calls.
    pub fe_square: u64,
    /// `Fe::invert` calls.
    pub fe_invert: u64,
    /// `Point::double` calls that did the arithmetic (not ∞).
    pub point_double: u64,
    /// Jacobian + Jacobian additions that did the arithmetic.
    pub point_add: u64,
    /// Jacobian + affine (mixed) additions that did the arithmetic.
    pub point_add_affine: u64,
    /// SHA-256 compressions, whichever implementation ran them.
    pub sha256_blocks: u64,
    /// `HmacDrbg` generators instantiated.
    pub drbg_instantiations: u64,
    /// Signatures checked one at a time (`schnorr::verify` calls).
    pub sigs_single: u64,
    /// Signatures checked inside a `schnorr::batch_verify` call.
    pub sigs_batched: u64,
    /// `schnorr::batch_verify` calls on a non-empty batch.
    pub sig_batches: u64,
    /// Verification-memo lookups.
    pub memo_lookups: u64,
    /// Envelopes the simulated network enqueued.
    pub envelopes_sent: u64,
    /// Link latencies drawn (one per envelope admitted).
    pub latency_draws: u64,
    /// Loss and jitter decisions drawn under a fault plan.
    pub fault_draws: u64,
}

#[cfg(feature = "opcount")]
thread_local! {
    static TALLY: std::cell::Cell<Tally> = std::cell::Cell::new(Tally::default());
}

/// The calling thread's running totals, for a caller that sees a span of
/// work only at its two ends (a round observer at a phase's boundaries) and
/// so cannot wrap it in a [`scope`]: it subtracts two readings.
#[cfg(feature = "opcount")]
pub fn current() -> Tally {
    TALLY.with(std::cell::Cell::get)
}

/// Runs `f` and returns the operations it performed on this thread. Scopes
/// nest: an inner scope's operations also count towards the outer one.
#[cfg(feature = "opcount")]
pub fn scope<R>(f: impl FnOnce() -> R) -> Tally {
    let before = current();
    std::hint::black_box(f());
    let after = current();
    Tally {
        fe_mul: after.fe_mul - before.fe_mul,
        fe_square: after.fe_square - before.fe_square,
        fe_invert: after.fe_invert - before.fe_invert,
        point_double: after.point_double - before.point_double,
        point_add: after.point_add - before.point_add,
        point_add_affine: after.point_add_affine - before.point_add_affine,
        sha256_blocks: after.sha256_blocks - before.sha256_blocks,
        drbg_instantiations: after.drbg_instantiations - before.drbg_instantiations,
        sigs_single: after.sigs_single - before.sigs_single,
        sigs_batched: after.sigs_batched - before.sigs_batched,
        sig_batches: after.sig_batches - before.sig_batches,
        memo_lookups: after.memo_lookups - before.memo_lookups,
        envelopes_sent: after.envelopes_sent - before.envelopes_sent,
        latency_draws: after.latency_draws - before.latency_draws,
        fault_draws: after.fault_draws - before.fault_draws,
    }
}
