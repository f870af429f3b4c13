//! Dev-only operation tally for the secp256k1 kernel.
//!
//! With the `opcount` cargo feature on, every field multiplication, squaring
//! and inversion and every point doubling, addition and mixed addition bumps
//! one thread-local `Tally`; `scope(|| …)` returns what a closure spent. The
//! counts are exact and machine-independent, so a test can gate the kernel at
//! zero tolerance where wall clock cannot. With the feature off (the default)
//! the hooks are empty inline functions and nothing else in this module
//! exists — the same shape as `alloccount`'s `count` feature.

/// One kind of counted operation.
#[derive(Clone, Copy)]
pub(crate) enum Op {
    FeMul,
    FeSquare,
    FeInvert,
    Double,
    Add,
    AddAffine,
}

/// Records one operation on the calling thread's tally.
#[inline(always)]
pub(crate) fn count(op: Op) {
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
}

#[cfg(feature = "opcount")]
thread_local! {
    static TALLY: std::cell::Cell<Tally> = std::cell::Cell::new(Tally::default());
}

/// Runs `f` and returns the operations it performed on this thread. Scopes
/// nest: an inner scope's operations also count towards the outer one.
#[cfg(feature = "opcount")]
pub fn scope<R>(f: impl FnOnce() -> R) -> Tally {
    let before = TALLY.with(std::cell::Cell::get);
    std::hint::black_box(f());
    let after = TALLY.with(std::cell::Cell::get);
    Tally {
        fe_mul: after.fe_mul - before.fe_mul,
        fe_square: after.fe_square - before.fe_square,
        fe_invert: after.fe_invert - before.fe_invert,
        point_double: after.point_double - before.point_double,
        point_add: after.point_add - before.point_add,
        point_add_affine: after.point_add_affine - before.point_add_affine,
    }
}
