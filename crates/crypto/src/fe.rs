//! Field elements modulo the secp256k1 base-field prime
//! `p = 2^256 - 2^32 - 977`.
//!
//! Elements are kept reduced (`0 <= value < p`) at all times. Addition,
//! subtraction and negation pick their correction by a carry or borrow mask
//! instead of a branch, because whether a sum of field elements reaches `p`
//! depends on the data and a branch on it mispredicts about half the time
//! (`crates/crypto/DESIGN-notes.md`, "Branch-free addition"). That is for
//! branch prediction, not for timing: the module as a whole is not
//! constant-time (the divstep inverse, the square-root check and the
//! reductions' final corrections branch on the data). Variable time is
//! acceptable for a protocol *simulation*, whose adversary has no side
//! channel (`crates/crypto/DESIGN-notes.md`, "Why variable time is still
//! acceptable").

use crate::opcount::{count, Op};
use crate::u256::{mask, U256};

/// The secp256k1 base-field prime `p = 2^256 - 2^32 - 977` as a compile-time
/// constant (little-endian limbs).
pub const FIELD_PRIME: U256 = U256::from_limbs([
    0xffff_fffe_ffff_fc2f,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
]);

/// The single-limb complement `2^256 - p = 2^32 + 977`, used to fold the high
/// half of products during reduction.
const P_COMPLEMENT: u64 = (1 << 32) + 977;

/// A primitive cube root of unity in GF(p): `(x, y) ↦ (β·x, y)` maps the
/// curve `y² = x³ + 7` to itself, and as a group endomorphism it is
/// multiplication by [`crate::scalar::LAMBDA`].
pub const BETA: Fe = Fe(U256::from_limbs([
    0xc139_6c28_7195_01ee,
    0x9cf0_4975_12f5_8995,
    0x6e64_479e_ac34_34e9,
    0x7ae9_6a2b_657c_0710,
]));

/// The secp256k1 base-field prime `p`.
pub const fn field_prime() -> U256 {
    FIELD_PRIME
}

/// An element of GF(p), the secp256k1 base field.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fe(U256);

impl Fe {
    /// The additive identity.
    pub const fn zero() -> Fe {
        Fe(U256::ZERO)
    }

    /// The multiplicative identity.
    pub const fn one() -> Fe {
        Fe(U256::ONE)
    }

    /// The curve constant `b = 7` in `y² = x³ + 7`.
    pub fn curve_b() -> Fe {
        Fe::from_u64(7)
    }

    /// Constructs from a small integer.
    pub fn from_u64(v: u64) -> Fe {
        Fe(U256::from_u64(v))
    }

    /// Constructs from a `U256`, reducing modulo `p`. Inputs are below 2^256
    /// and `p > 2^255`, so a single conditional subtraction fully reduces.
    pub fn from_u256(v: U256) -> Fe {
        if v >= FIELD_PRIME {
            Fe(v.wrapping_sub(&FIELD_PRIME))
        } else {
            Fe(v)
        }
    }

    /// Constructs from 32 big-endian bytes, reducing modulo `p` — for
    /// hash-to-field uses. Decoders of untrusted encodings use
    /// [`from_be_bytes_canonical`](Self::from_be_bytes_canonical).
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Fe {
        Fe::from_u256(U256::from_be_bytes(bytes))
    }

    /// Decodes 32 big-endian bytes, `None` unless the value is below `p`:
    /// every field element has exactly one accepted encoding.
    pub fn from_be_bytes_canonical(bytes: &[u8; 32]) -> Option<Fe> {
        let v = U256::from_be_bytes(bytes);
        (v < FIELD_PRIME).then_some(Fe(v))
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    /// Returns the underlying integer (already reduced).
    pub fn as_u256(&self) -> &U256 {
        &self.0
    }

    /// True if this is the additive identity.
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// True if the canonical representative is odd.
    pub fn is_odd(&self) -> bool {
        self.0.is_odd()
    }

    /// Field addition, without a branch. With `s = a + b mod 2^256` and
    /// `t = s + c`, the sum is `t` if either addition carried — the true
    /// sum reached `2^256`, or `s ≥ p`; subtracting `p` and adding `c` agree
    /// modulo `2^256` — and `s` otherwise.
    #[inline]
    pub fn add(&self, rhs: &Fe) -> Fe {
        let (s, carry) = self.0.overflowing_add(&rhs.0);
        let (t, reduced) = s.overflowing_add(&U256::from_u64(P_COMPLEMENT));
        Fe(U256::select(carry | reduced, &t, &s))
    }

    /// Field subtraction, without a branch: `d = a − b mod 2^256`, less `c`
    /// under the borrow's mask — if `a < b` the difference is `d + p`, which
    /// is `d − c` modulo `2^256`, and that `d` exceeds `c`, so the second
    /// subtraction never borrows.
    #[inline]
    pub fn sub(&self, rhs: &Fe) -> Fe {
        let (d, borrow) = self.0.overflowing_sub(&rhs.0);
        Fe(d.wrapping_sub(&U256::from_u64(P_COMPLEMENT & mask(borrow))))
    }

    /// Field negation: `p − a`, and zero for zero.
    #[inline]
    pub fn neg(&self) -> Fe {
        Fe::zero().sub(self)
    }

    /// Field multiplication, reduced via the two-round `c = 2^32 + 977` fold.
    ///
    /// One out-of-line copy on purpose (as is [`square`](Self::square)): the
    /// body is ~650 bytes, and inlined into the eleven call sites of every
    /// point addition it doubles the curve code. That is 8 % faster on an
    /// idle core and slower whenever the core's other hardware thread is
    /// busy and the instruction caches are split between the two, so on a
    /// shared host it only widens the gap between a good run and a bad one
    /// (DESIGN-notes.md, "Code footprint").
    #[inline(never)]
    pub fn mul(&self, rhs: &Fe) -> Fe {
        count(Op::FeMul);
        let wide = self.0.mul_wide(&rhs.0);
        Fe(U256::reduce_wide_c64(&wide, &FIELD_PRIME, P_COMPLEMENT))
    }

    /// Field squaring (ten limb products instead of sixteen).
    #[inline(never)]
    pub fn square(&self) -> Fe {
        self.square_body()
    }

    #[inline(always)]
    fn square_body(&self) -> Fe {
        count(Op::FeSquare);
        let wide = self.0.square_wide();
        Fe(U256::reduce_wide_c64(&wide, &FIELD_PRIME, P_COMPLEMENT))
    }

    /// `self^(2^n)`: `n` squarings. The second (and last) copy of the
    /// squaring body: the square-root chain spends 250 of its 266 steps in
    /// this loop, where a call per step costs 20 %.
    #[inline(never)]
    fn square_n(&self, n: usize) -> Fe {
        let mut acc = *self;
        for _ in 0..n {
            acc = acc.square_body();
        }
        acc
    }

    /// Multiplication by a small constant via a single limb-by-limb shift/add
    /// pass and one complement fold — no full 256×256 product.
    pub fn mul_u64(&self, k: u64) -> Fe {
        let (lo, top) = self.0.mul_u64(k);
        // top·2^256 ≡ top·c (mod p); the product fits u128 because c < 2^34.
        let (acc, carry) =
            lo.overflowing_add(&U256::from_u128((top as u128) * (P_COMPLEMENT as u128)));
        let acc = if carry {
            acc.wrapping_add(&U256::from_u64(P_COMPLEMENT))
        } else {
            acc
        };
        Fe::from_u256(acc)
    }

    /// Exponentiation by an arbitrary 256-bit exponent.
    pub fn pow(&self, exp: &U256) -> Fe {
        let mut result = Fe::one();
        let mut found = false;
        for i in (0..exp.bits().max(1)).rev() {
            if found {
                result = result.square();
            }
            if exp.bit(i) {
                if found {
                    result = result.mul(self);
                } else {
                    result = *self;
                    found = true;
                }
            }
        }
        if found {
            result
        } else {
            Fe::one()
        }
    }

    /// The shared prefix of the `(p + 1)/4` addition chain of
    /// [`sqrt`](Self::sqrt) and of the tests' `p − 2` one.
    /// `p = 2^256 − 2^32 − 977` is, in binary, 223 ones, a zero, 22 ones and
    /// a ten-bit tail, so both exponents are built from runs of ones: returns
    /// `(x2, x22, x223)` with `x_k = self^(2^k − 1)`. 221 squarings and 10
    /// multiplications.
    fn ones_runs(&self) -> (Fe, Fe, Fe) {
        let x2 = self.square().mul(self);
        let x3 = x2.square().mul(self);
        let x6 = x3.square_n(3).mul(&x3);
        let x9 = x6.square_n(3).mul(&x3);
        let x11 = x9.square_n(2).mul(&x2);
        let x22 = x11.square_n(11).mul(&x11);
        let x44 = x22.square_n(22).mul(&x22);
        let x88 = x44.square_n(44).mul(&x44);
        let x176 = x88.square_n(88).mul(&x88);
        let x220 = x176.square_n(44).mul(&x44);
        let x223 = x220.square_n(3).mul(&x3);
        (x2, x22, x223)
    }

    /// Multiplicative inverse, by Bernstein–Yang divsteps in the
    /// variable-time form libsecp256k1 ships ("Fast constant-time gcd
    /// computation and modular inversion", TCHES 2019): batches of 62
    /// divsteps on the low limbs of `f = p` and `g = self` give a 2×2
    /// transition matrix, applied to the whole of `f`, `g` and to the
    /// coefficients `d`, `e` in signed 62-bit limbs, until `g` is zero; `d`
    /// is then `±self⁻¹`. At most twelve batches and no field
    /// multiplication, where the Fermat chain (`a^(p−2)`, the tests' oracle)
    /// costs 255 squarings and 15 multiplications.
    ///
    /// Panics if `self` is zero.
    pub fn invert(&self) -> Fe {
        assert!(!self.is_zero(), "cannot invert zero");
        count(Op::FeInvert);
        let (mut d, mut e) = ([0i64; 5], [1i64, 0, 0, 0, 0]);
        let (mut f, mut g) = (P62, to_signed62(&self.0));
        let mut len = 5;
        // eta = −delta, and delta starts at 1.
        let mut eta = -1;
        loop {
            let t;
            (eta, t) = divsteps_62(eta, f[0] as u64, g[0] as u64);
            update_de(&mut d, &mut e, &t);
            update_fg(len, &mut f, &mut g, &t);
            if g[..len].iter().all(|&limb| limb == 0) {
                break;
            }
            // Both top limbs 0 or −1: fold their sign into the limb below
            // and drop a limb.
            let (f_top, g_top) = (f[len - 1], g[len - 1]);
            if len > 1 && (f_top ^ (f_top >> 63)) == 0 && (g_top ^ (g_top >> 63)) == 0 {
                f[len - 2] |= f_top << 62;
                g[len - 2] |= g_top << 62;
                len -= 1;
            }
        }
        // g = 0, so f = ±gcd(p, self) = ±1 and d = ±self⁻¹ in (−2p, p).
        Fe(normalize_62(d, f[len - 1]))
    }

    /// Montgomery batch inversion: inverts every nonzero element in place with
    /// a single field inversion plus `3(n-1)` multiplications. Zero entries
    /// (which have no inverse) are left untouched, mirroring how
    /// [`Point::batch_to_affine`](crate::point::Point::batch_to_affine) skips
    /// the point at infinity.
    pub fn batch_invert(elements: &mut [Fe]) {
        Fe::batch_invert_in(elements, &mut vec![Fe::zero(); elements.len()]);
    }

    /// [`batch_invert`](Self::batch_invert) of a fixed number of elements,
    /// its scratch on the stack: a VRF proof's three points allocate
    /// nothing.
    pub fn batch_invert_array<const N: usize>(elements: &mut [Fe; N]) {
        Fe::batch_invert_in(elements, &mut [Fe::zero(); N]);
    }

    /// The batch inversion, `prefix` (as long as `elements`) its scratch.
    pub(crate) fn batch_invert_in(elements: &mut [Fe], prefix: &mut [Fe]) {
        let mut acc = Fe::one();
        for (e, pre) in elements.iter().zip(prefix.iter_mut()) {
            *pre = acc;
            if !e.is_zero() {
                acc = acc.mul(e);
            }
        }
        // acc is the product of all nonzero entries (or one, if none).
        let mut inv = acc.invert();
        for (e, pre) in elements.iter_mut().zip(prefix.iter()).rev() {
            if e.is_zero() {
                continue;
            }
            let original = *e;
            *e = inv.mul(pre);
            inv = inv.mul(&original);
        }
    }

    /// Square root via the `p ≡ 3 (mod 4)` shortcut `sqrt(a) = a^((p+1)/4)`,
    /// on an addition chain built from runs of ones (253 squarings, 13
    /// multiplications).
    ///
    /// Returns `None` if `self` is a quadratic non-residue.
    pub fn sqrt(&self) -> Option<Fe> {
        let (x2, x22, x223) = self.ones_runs();
        // (p + 1)/4 = [223 ones] 0 [22 ones] 0000 11 00.
        let candidate = x223.square_n(23).mul(&x22).square_n(6).mul(&x2).square_n(2);
        if candidate.square() == *self {
            Some(candidate)
        } else {
            None
        }
    }
}

/// Mask of a signed-62 limb's value bits.
const M62: u64 = u64::MAX >> 2;

/// `p` in signed 62-bit limbs (`Σ v[i]·2^(62·i)`): `2^256 − (2^32 + 977)`.
const P62: [i64; 5] = [-(P_COMPLEMENT as i64), 0, 0, 0, 256];

/// `p⁻¹ mod 2^62`, by Newton's iteration on the low limb (each step doubles
/// the correct bits, from the three every odd number gets right).
const P_INV62: u64 = {
    let p0 = FIELD_PRIME.limbs[0];
    let mut inv = p0;
    let mut step = 0;
    while step < 5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(p0.wrapping_mul(inv)));
        step += 1;
    }
    inv & M62
};

/// A reduced value in signed 62-bit limbs (all of them non-negative).
fn to_signed62(v: &U256) -> [i64; 5] {
    let [a0, a1, a2, a3] = v.limbs;
    [
        (a0 & M62) as i64,
        ((a0 >> 62 | a1 << 2) & M62) as i64,
        ((a1 >> 60 | a2 << 4) & M62) as i64,
        ((a2 >> 58 | a3 << 6) & M62) as i64,
        (a3 >> 56) as i64,
    ]
}

/// Up to 62 divsteps on the low bits `f0` (odd) and `g0` of `f` and `g`:
/// returns the new `eta` and the matrix `[u, v, q, r]` with
/// `2^62·(f', g') = (u·f + v·g, q·f + r·g)`. A run of zeros at the bottom of
/// `g` is one shift, and a step that swaps cancels up to six bits of `g` at
/// once (four when it does not).
fn divsteps_62(mut eta: i64, f0: u64, g0: u64) -> (i64, [i64; 4]) {
    let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
    let (mut f, mut g) = (f0, g0);
    let mut left = 62u32;
    loop {
        // The sentinel bit stops the count at the steps left.
        let zeros = (g | (u64::MAX << left)).trailing_zeros();
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        eta -= i64::from(zeros);
        left -= zeros;
        if left == 0 {
            break;
        }
        // f and g are odd here. With eta < 0 the step swaps: (f, g)
        // becomes (g, −f).
        let swap = eta < 0;
        if swap {
            eta = -eta;
            (f, g) = (g, f.wrapping_neg());
            (u, q) = (q, u.wrapping_neg());
            (v, r) = (r, v.wrapping_neg());
        }
        // Cancel the low bits of g with a multiple w of f: at most `left`
        // (the batch ends there) and `eta + 1` (eta's sign flips after
        // that), and six of them after a swap, four otherwise.
        let limit = (eta + 1).min(i64::from(left));
        let (mask, w) = if swap {
            // −g/f mod 64, with 1/f = f·(2 − f²) mod 64.
            let w = f
                .wrapping_mul(g)
                .wrapping_mul(f.wrapping_mul(f).wrapping_sub(2));
            ((u64::MAX >> (64 - limit)) & 63, w)
        } else {
            // 1/f mod 16, then −g/f.
            let f_inv = f.wrapping_add((f.wrapping_add(1) & 4) << 1);
            (
                (u64::MAX >> (64 - limit)) & 15,
                f_inv.wrapping_neg().wrapping_mul(g),
            )
        };
        let w = w & mask;
        g = g.wrapping_add(f.wrapping_mul(w));
        q = q.wrapping_add(u.wrapping_mul(w));
        r = r.wrapping_add(v.wrapping_mul(w));
    }
    (eta, [u as i64, v as i64, q as i64, r as i64])
}

/// `(d, e) ← t·(d, e) / 2^62 mod p`, keeping both in `(−2p, p)`: a multiple
/// of `p` chosen to clear the low 62 bits is added before the shift.
fn update_de(d: &mut [i64; 5], e: &mut [i64; 5], t: &[i64; 4]) {
    let [u, v, q, r] = *t;
    // Start from [u, q] if d is negative and [v, r] if e is.
    let (sd, se) = (d[4] >> 63, e[4] >> 63);
    let mut md = (u & sd) + (v & se);
    let mut me = (q & sd) + (r & se);
    let (u, v, q, r) = (i128::from(u), i128::from(v), i128::from(q), i128::from(r));
    let mut cd = u * i128::from(d[0]) + v * i128::from(e[0]);
    let mut ce = q * i128::from(d[0]) + r * i128::from(e[0]);
    md -= (P_INV62.wrapping_mul(cd as u64).wrapping_add(md as u64) & M62) as i64;
    me -= (P_INV62.wrapping_mul(ce as u64).wrapping_add(me as u64) & M62) as i64;
    cd += i128::from(P62[0]) * i128::from(md);
    ce += i128::from(P62[0]) * i128::from(me);
    debug_assert_eq!((cd as u64 & M62, ce as u64 & M62), (0, 0));
    cd >>= 62;
    ce >>= 62;
    for i in 1..5 {
        cd += u * i128::from(d[i]) + v * i128::from(e[i]) + i128::from(P62[i]) * i128::from(md);
        ce += q * i128::from(d[i]) + r * i128::from(e[i]) + i128::from(P62[i]) * i128::from(me);
        d[i - 1] = (cd as u64 & M62) as i64;
        e[i - 1] = (ce as u64 & M62) as i64;
        cd >>= 62;
        ce >>= 62;
    }
    d[4] = cd as i64;
    e[4] = ce as i64;
}

/// `(f, g) ← t·(f, g) / 2^62` over their first `len` limbs (the division is
/// exact: the divsteps cleared the low 62 bits).
fn update_fg(len: usize, f: &mut [i64; 5], g: &mut [i64; 5], t: &[i64; 4]) {
    let [u, v, q, r] = t.map(i128::from);
    let mut cf = u * i128::from(f[0]) + v * i128::from(g[0]);
    let mut cg = q * i128::from(f[0]) + r * i128::from(g[0]);
    debug_assert_eq!((cf as u64 & M62, cg as u64 & M62), (0, 0));
    cf >>= 62;
    cg >>= 62;
    for i in 1..len {
        cf += u * i128::from(f[i]) + v * i128::from(g[i]);
        cg += q * i128::from(f[i]) + r * i128::from(g[i]);
        f[i - 1] = (cf as u64 & M62) as i64;
        g[i - 1] = (cg as u64 & M62) as i64;
        cf >>= 62;
        cg >>= 62;
    }
    f[len - 1] = cf as i64;
    g[len - 1] = cg as i64;
}

/// `d` in `(−2p, p)`, negated if `sign` is negative, as the reduced value in
/// `[0, p)`.
fn normalize_62(mut d: [i64; 5], sign: i64) -> U256 {
    let add_p_if_negative = |d: &mut [i64; 5]| {
        if d[4] < 0 {
            for (limb, p) in d.iter_mut().zip(P62) {
                *limb += p;
            }
        }
    };
    let carry = |d: &mut [i64; 5]| {
        for i in 0..4 {
            d[i + 1] += d[i] >> 62;
            d[i] &= M62 as i64;
        }
    };
    add_p_if_negative(&mut d);
    if sign < 0 {
        d = d.map(|limb| -limb);
    }
    carry(&mut d);
    add_p_if_negative(&mut d);
    carry(&mut d);
    let d = d.map(|limb| limb as u64);
    let value = U256::from_limbs([
        d[0] | d[1] << 62,
        d[1] >> 2 | d[2] << 60,
        d[2] >> 4 | d[3] << 58,
        d[3] >> 6 | d[4] << 56,
    ]);
    debug_assert!(value < FIELD_PRIME);
    value
}

impl core::fmt::Debug for Fe {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fe(0x{})", self.0.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn prime_has_expected_form() {
        // p = 2^256 - 2^32 - 977.
        let p = field_prime();
        let complement = U256::ZERO.wrapping_sub(&p);
        assert_eq!(complement, U256::from_u64((1u64 << 32) + 977));
        assert!(p.bit(255));
        // The const limbs match the canonical hex literal.
        assert_eq!(
            p,
            U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
                .unwrap()
        );
    }

    #[test]
    fn add_sub_neg() {
        let a = Fe::from_u64(100);
        let b = Fe::from_u64(42);
        assert_eq!(a.sub(&b), Fe::from_u64(58));
        assert_eq!(b.sub(&a).add(&a), b);
        assert_eq!(a.add(&a.neg()), Fe::zero());
    }

    #[test]
    fn inversion() {
        let a = Fe::from_u64(123456789);
        assert_eq!(a.mul(&a.invert()), Fe::one());
    }

    #[test]
    #[should_panic(expected = "cannot invert zero")]
    fn invert_zero_panics() {
        Fe::zero().invert();
    }

    #[test]
    fn sqrt_of_squares() {
        for v in [2u64, 3, 5, 1000, 123456789] {
            let a = Fe::from_u64(v);
            let sq = a.square();
            let root = sq.sqrt().expect("square must have a root");
            assert!(root == a || root == a.neg(), "root of {v}^2");
        }
        assert_eq!(Fe::zero().sqrt(), Some(Fe::zero()));
    }

    #[test]
    fn curve_b_is_seven() {
        assert_eq!(Fe::curve_b(), Fe::from_u64(7));
    }

    #[test]
    fn non_residue_has_no_root() {
        // If a has a root, then -a... not necessarily a non-residue; instead search
        // for an explicit non-residue among small values.
        let mut found_none = false;
        for v in 2u64..40 {
            if Fe::from_u64(v).sqrt().is_none() {
                found_none = true;
                break;
            }
        }
        assert!(found_none, "some small value must be a non-residue");
    }

    fn arb_fe() -> impl Strategy<Value = Fe> {
        prop::array::uniform4(any::<u64>()).prop_map(|l| Fe::from_u256(U256::from_limbs(l)))
    }

    /// `a^(p−2)` through the generic square-and-multiply loop: what `invert`
    /// was before the addition chain.
    fn invert_by_pow(a: &Fe) -> Fe {
        a.pow(&FIELD_PRIME.wrapping_sub(&U256::from_u64(2)))
    }

    /// `a^(p−2)` on the addition chain `invert` used before the divsteps:
    /// 255 squarings and 15 multiplications.
    fn invert_by_chain(a: &Fe) -> Fe {
        let (x2, x22, x223) = a.ones_runs();
        // p − 2 = [223 ones] 0 [22 ones] 0000 1 0 11 0 1.
        x223.square_n(23)
            .mul(&x22)
            .square_n(5)
            .mul(a)
            .square_n(3)
            .mul(&x2)
            .square_n(2)
            .mul(a)
    }

    #[test]
    fn p_inv62_inverts_the_prime_modulo_2_62() {
        assert_eq!(P_INV62.wrapping_mul(FIELD_PRIME.limbs[0]) & M62, 1);
        // Reduced values survive the round trip through signed-62 limbs,
        // negated ones come back as p − v, and −p as zero.
        for v in [
            U256::ZERO,
            U256::ONE,
            FIELD_PRIME.wrapping_sub(&U256::ONE),
            BETA.0,
        ] {
            assert_eq!(normalize_62(to_signed62(&v), 1), v);
            let negated = normalize_62(to_signed62(&v), -1);
            assert_eq!(Fe(negated), Fe(v).neg());
        }
        assert_eq!(normalize_62(P62.map(|limb| -limb), 1), U256::ZERO);
    }

    #[test]
    fn divstep_inverse_matches_the_chain_and_pow_on_edge_values() {
        let p_minus = |d: u64| Fe::from_u256(FIELD_PRIME.wrapping_sub(&U256::from_u64(d)));
        let mut values = vec![
            Fe::one(),
            Fe::from_u64(2),
            Fe::from_u64(3),
            p_minus(1),
            p_minus(2),
            p_minus(3),
            BETA,
            Fe::from_u64(P_COMPLEMENT),
            Fe::from_u256(U256::MAX),
        ];
        values.extend((0..256).map(|k| Fe::from_u256(U256::ONE.shl(k))));
        values.extend((0..256).map(|k| p_minus(1).sub(&Fe::from_u256(U256::ONE.shl(k)))));
        for a in values {
            let inverse = a.invert();
            assert_eq!(inverse, invert_by_chain(&a), "{a:?}");
            assert_eq!(inverse, invert_by_pow(&a), "{a:?}");
            assert_eq!(a.mul(&inverse), Fe::one(), "{a:?}");
        }
    }

    /// `a^((p+1)/4)` through the generic loop, checked like `sqrt` checks it.
    fn sqrt_by_pow(a: &Fe) -> Option<Fe> {
        let exp = FIELD_PRIME
            .wrapping_sub(&U256::from_u64(3))
            .shr(2)
            .wrapping_add(&U256::ONE);
        let candidate = a.pow(&exp);
        (candidate.mul(&candidate) == *a).then_some(candidate)
    }

    #[test]
    fn beta_is_a_primitive_cube_root_of_unity() {
        assert_ne!(BETA, Fe::one());
        assert_eq!(BETA.square().mul(&BETA), Fe::one());
    }

    #[test]
    fn square_and_chains_match_the_generic_paths_on_edge_inputs() {
        let p_minus_1 = Fe::from_u256(FIELD_PRIME.wrapping_sub(&U256::ONE));
        for a in [Fe::zero(), Fe::one(), Fe::from_u64(2), p_minus_1, BETA] {
            assert_eq!(a.square(), a.mul(&a), "{a:?}");
            assert_eq!(a.sqrt(), sqrt_by_pow(&a), "{a:?}");
            if !a.is_zero() {
                assert_eq!(a.invert(), invert_by_pow(&a), "{a:?}");
                assert_eq!(invert_by_chain(&a), invert_by_pow(&a), "{a:?}");
            }
        }
        // All-ones limbs stress every carry of the squaring.
        let a = Fe::from_u256(U256::MAX);
        assert_eq!(a.square(), a.mul(&a));
    }

    #[test]
    fn canonical_decoding_rejects_values_at_or_above_the_prime() {
        let p = FIELD_PRIME;
        let below = p.wrapping_sub(&U256::ONE);
        assert_eq!(
            Fe::from_be_bytes_canonical(&below.to_be_bytes()),
            Some(Fe::from_u256(below))
        );
        for v in [p, p.wrapping_add(&U256::ONE), U256::MAX] {
            assert_eq!(Fe::from_be_bytes_canonical(&v.to_be_bytes()), None);
            // The reducing constructor still maps it into the field.
            assert!(Fe::from_be_bytes(&v.to_be_bytes()).as_u256() < &p);
        }
    }

    proptest! {
        #[test]
        fn prop_mul_commutes(a in arb_fe(), b in arb_fe()) {
            prop_assert_eq!(a.mul(&b), b.mul(&a));
        }

        #[test]
        fn prop_mul_associates(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
            prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        }

        #[test]
        fn prop_distributive(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
            prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        }

        #[test]
        fn prop_inverse(a in arb_fe()) {
            prop_assume!(!a.is_zero());
            prop_assert_eq!(a.mul(&a.invert()), Fe::one());
            prop_assert_eq!(a.invert(), invert_by_pow(&a));
            prop_assert_eq!(a.invert(), invert_by_chain(&a));
        }

        #[test]
        fn prop_square_matches_mul(a in arb_fe()) {
            prop_assert_eq!(a.square(), a.mul(&a));
        }

        #[test]
        fn prop_chain_sqrt_matches_pow(a in arb_fe()) {
            prop_assert_eq!(a.sqrt(), sqrt_by_pow(&a));
            prop_assert_eq!(a.square().sqrt(), sqrt_by_pow(&a.square()));
        }

        #[test]
        fn prop_canonical_decoding_round_trips(a in arb_fe()) {
            prop_assert_eq!(Fe::from_be_bytes_canonical(&a.to_be_bytes()), Some(a));
        }

        #[test]
        fn prop_sqrt_round_trip(a in arb_fe()) {
            let sq = a.square();
            let root = sq.sqrt().expect("squares have roots");
            prop_assert!(root == a || root == a.neg());
        }

        #[test]
        fn prop_bytes_round_trip(a in arb_fe()) {
            prop_assert_eq!(Fe::from_be_bytes(&a.to_be_bytes()), a);
        }

        #[test]
        fn prop_mul_u64_matches_full_mul(a in arb_fe(), k in any::<u64>()) {
            prop_assert_eq!(a.mul_u64(k), a.mul(&Fe::from_u64(k)));
        }

        #[test]
        fn prop_batch_invert_matches_individual(raw in prop::collection::vec(
            prop::array::uniform4(any::<u64>()), 0..12,
        )) {
            let mut elements: Vec<Fe> = raw
                .into_iter()
                .map(|l| Fe::from_u256(U256::from_limbs(l)))
                .collect();
            // Sprinkle zeros to exercise the skip path.
            if elements.len() > 2 {
                elements[0] = Fe::zero();
                let mid = elements.len() / 2;
                elements[mid] = Fe::zero();
            }
            let expected: Vec<Fe> = elements
                .iter()
                .map(|e| if e.is_zero() { Fe::zero() } else { e.invert() })
                .collect();
            let mut batched = elements.clone();
            Fe::batch_invert(&mut batched);
            prop_assert_eq!(&batched, &expected);
            // The stack form, on the first eight.
            if elements.len() >= 8 {
                let mut array: [Fe; 8] = elements[..8].try_into().unwrap();
                Fe::batch_invert_array(&mut array);
                prop_assert_eq!(&array[..], &expected[..8]);
            }
        }
    }
}
