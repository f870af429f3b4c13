//! Field elements modulo the secp256k1 base-field prime
//! `p = 2^256 - 2^32 - 977`.
//!
//! Elements are kept reduced (`0 <= value < p`) at all times. The arithmetic is
//! variable-time, which is acceptable for a protocol *simulation*: the adversary
//! model in the paper has no side-channel component, and DESIGN.md documents this
//! substitution.

use crate::opcount::{count, Op};
use crate::u256::U256;

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

    /// Field addition.
    pub fn add(&self, rhs: &Fe) -> Fe {
        Fe(self.0.add_mod(&rhs.0, &FIELD_PRIME))
    }

    /// Field subtraction.
    pub fn sub(&self, rhs: &Fe) -> Fe {
        Fe(self.0.sub_mod(&rhs.0, &FIELD_PRIME))
    }

    /// Field negation.
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
    /// squaring body: the inversion and square-root chains spend 250 of their
    /// 270 steps in this loop, where a call per step costs 20 %.
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

    /// The shared prefix of the `p − 2` and `(p + 1)/4` addition chains.
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

    /// Multiplicative inverse `a^(p−2)` (Fermat) on a fixed addition chain:
    /// 255 squarings and 15 multiplications, against 255 + 248 for generic
    /// square-and-multiply over an exponent that is almost all ones.
    ///
    /// Panics if `self` is zero.
    pub fn invert(&self) -> Fe {
        assert!(!self.is_zero(), "cannot invert zero");
        count(Op::FeInvert);
        let (x2, x22, x223) = self.ones_runs();
        // p − 2 = [223 ones] 0 [22 ones] 0000 1 0 11 0 1.
        x223.square_n(23)
            .mul(&x22)
            .square_n(5)
            .mul(self)
            .square_n(3)
            .mul(&x2)
            .square_n(2)
            .mul(self)
    }

    /// Montgomery batch inversion: inverts every nonzero element in place with
    /// a single field inversion plus `3(n-1)` multiplications. Zero entries
    /// (which have no inverse) are left untouched, mirroring how
    /// [`Point::batch_to_affine`](crate::point::Point::batch_to_affine) skips
    /// the point at infinity.
    pub fn batch_invert(elements: &mut [Fe]) {
        let mut prefix = Vec::with_capacity(elements.len());
        let mut acc = Fe::one();
        for e in elements.iter() {
            prefix.push(acc);
            if !e.is_zero() {
                acc = acc.mul(e);
            }
        }
        // acc is the product of all nonzero entries (or one, if none).
        let mut inv = acc.invert();
        for (e, pre) in elements.iter_mut().zip(prefix).rev() {
            if e.is_zero() {
                continue;
            }
            let original = *e;
            *e = inv.mul(&pre);
            inv = inv.mul(&original);
        }
    }

    /// Square root via the `p ≡ 3 (mod 4)` shortcut `sqrt(a) = a^((p+1)/4)`,
    /// on the same addition chain as [`invert`](Self::invert) (253 squarings,
    /// 13 multiplications).
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
            prop_assert_eq!(batched, expected);
        }
    }
}
