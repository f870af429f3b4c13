//! Scalars modulo the secp256k1 group order `n`.
//!
//! Scalars are exponents of group elements: secret keys, nonces, Shamir shares
//! and polynomial coefficients. They are kept reduced below `n` at all times.

use crate::hmac::HmacDrbg;
use crate::u256::U256;

/// The secp256k1 group order `n` as a compile-time constant (little-endian
/// limbs).
pub const GROUP_ORDER: U256 = U256::from_limbs([
    0xbfd2_5e8c_d036_4141,
    0xbaae_dce6_af48_a03b,
    0xffff_ffff_ffff_fffe,
    0xffff_ffff_ffff_ffff,
]);

/// The precomputed complement `2^256 - n` (a 129-bit constant), used to fold
/// the high half of products during reduction.
const N_COMPLEMENT: U256 = U256::from_limbs([0x402d_a173_2fc9_bebf, 0x4551_2319_50b7_5fc4, 1, 0]);

/// The secp256k1 group order `n`.
pub const fn group_order() -> U256 {
    GROUP_ORDER
}

/// The eigenvalue `λ` of the curve endomorphism `φ(x, y) = (β·x, y)`:
/// `φ(P) = λ·P` for every point, and `λ² + λ + 1 ≡ 0 (mod n)`.
pub const LAMBDA: Scalar = Scalar(U256::from_limbs([
    0xdf02_967c_1b23_bd72,
    0x122e_22ea_2081_6678,
    0xa526_1c02_8812_645a,
    0x5363_ad4c_c05c_30e0,
]));

// The lattice `{(a, b) : a + b·λ ≡ 0 (mod n)}` has the short basis
// `(a1, b1)`, `(a2, b2)` with `a1 = b2`; `split_lambda` rounds `k` to the
// nearest lattice vector. `G1 = round(2^384·b2 / n)` and
// `G2 = round(2^384·(−b1) / n)` turn the two divisions into multiplications.
const MINUS_B1: u128 = 0xe443_7ed6_010e_8828_6f54_7fa9_0abf_e4c3;
const B2: u128 = 0x3086_d221_a7d4_6bcd_e86c_90e4_9284_eb15;
const G1: U256 = U256::from_limbs([
    0xe893_209a_45db_b031,
    0x3daa_8a14_71e8_ca7f,
    0xe86c_90e4_9284_eb15,
    0x3086_d221_a7d4_6bcd,
]);
const G2: U256 = U256::from_limbs([
    0x1571_b4ae_8ac4_7f71,
    0x2212_08ac_9df5_06c6,
    0x6f54_7fa9_0abf_e4c4,
    0xe443_7ed6_010e_8828,
]);

/// One half of a λ-split scalar (see [`Scalar::split_lambda`]): a magnitude
/// below `2^128` and a sign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SignedHalf {
    /// Absolute value, below `2^128`.
    pub magnitude: u128,
    /// True if the half stands for `−magnitude`.
    pub negative: bool,
}

impl SignedHalf {
    /// The zero half.
    pub const ZERO: SignedHalf = SignedHalf {
        magnitude: 0,
        negative: false,
    };
}

/// `round(k·g / 2^384)`: the top 128 bits of the 512-bit product, rounded.
fn mul_shift_384(k: &U256, g: &U256) -> u128 {
    let wide = k.mul_wide(g);
    let top = (wide[6] as u128) | ((wide[7] as u128) << 64);
    top + (wide[5] >> 63) as u128
}

/// `a·b` for two 128-bit factors.
fn mul_u128(a: u128, b: u128) -> U256 {
    let wide = U256::from_u128(a).mul_wide(&U256::from_u128(b));
    U256::from_limbs([wide[0], wide[1], wide[2], wide[3]])
}

/// An element of GF(n), the scalar field of secp256k1.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scalar(U256);

impl Scalar {
    /// The additive identity.
    pub const fn zero() -> Scalar {
        Scalar(U256::ZERO)
    }

    /// The multiplicative identity.
    pub const fn one() -> Scalar {
        Scalar(U256::ONE)
    }

    /// Constructs from a small integer.
    pub fn from_u64(v: u64) -> Scalar {
        Scalar(U256::from_u64(v))
    }

    /// Constructs from a `U256`, reducing modulo `n`. Inputs are below 2^256
    /// and `n > 2^255`, so a single conditional subtraction fully reduces.
    pub fn from_u256(v: U256) -> Scalar {
        if v >= GROUP_ORDER {
            Scalar(v.wrapping_sub(&GROUP_ORDER))
        } else {
            Scalar(v)
        }
    }

    /// Constructs from 32 big-endian bytes, reducing modulo `n` — for
    /// hash-to-scalar uses. Decoders of untrusted encodings use
    /// [`from_be_bytes_canonical`](Self::from_be_bytes_canonical).
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Scalar {
        Scalar::from_u256(U256::from_be_bytes(bytes))
    }

    /// Decodes 32 big-endian bytes, `None` unless the value is below `n`:
    /// every scalar has exactly one accepted encoding.
    pub fn from_be_bytes_canonical(bytes: &[u8; 32]) -> Option<Scalar> {
        let v = U256::from_be_bytes(bytes);
        (v < GROUP_ORDER).then_some(Scalar(v))
    }

    /// Derives a scalar from a domain-separated hash of the given parts.
    pub fn from_hash(domain: &str, parts: &[&[u8]]) -> Scalar {
        let mut drbg = HmacDrbg::from_parts(domain, parts);
        Scalar::from_be_bytes(&drbg.next_bytes32())
    }

    /// Derives the `index`-th coefficient of a random-linear-combination
    /// batch check from a transcript-bound seed: 128 bits, which keeps a
    /// forged equation's chance of cancelling at `2^-128` while `z·R` needs
    /// only one 128-bit stream of the multiplication kernel (the λ-half of
    /// [`split_lambda`](Self::split_lambda) of a 128-bit scalar is zero). A
    /// zero coefficient would drop an equation from the weighted sum; it is
    /// unreachable in practice, but is mapped to one to keep the check
    /// honest. Shared by the Schnorr batch verifier and the PVSS dealing
    /// verifier.
    pub fn rlc_coefficient(domain: &str, seed: &[u8], index: u64) -> Scalar {
        let mut drbg = HmacDrbg::from_parts(domain, &[seed, &index.to_be_bytes()]);
        let bytes = drbg.next_bytes32();
        let z = u128::from_be_bytes(bytes[16..].try_into().expect("16 bytes"));
        Scalar(U256::from_u128(z.max(1)))
    }

    /// Derives a *nonzero* scalar from a DRBG stream (rejection sampling).
    pub fn nonzero_from_drbg(drbg: &mut HmacDrbg) -> Scalar {
        loop {
            let s = Scalar::from_be_bytes(&drbg.next_bytes32());
            if !s.is_zero() {
                return s;
            }
        }
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    /// Returns the underlying reduced integer.
    pub fn as_u256(&self) -> &U256 {
        &self.0
    }

    /// True if this is zero.
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// Scalar addition mod `n`.
    pub fn add(&self, rhs: &Scalar) -> Scalar {
        Scalar(self.0.add_mod(&rhs.0, &GROUP_ORDER))
    }

    /// Scalar subtraction mod `n`.
    pub fn sub(&self, rhs: &Scalar) -> Scalar {
        Scalar(self.0.sub_mod(&rhs.0, &GROUP_ORDER))
    }

    /// Scalar negation mod `n`.
    pub fn neg(&self) -> Scalar {
        Scalar::zero().sub(self)
    }

    /// Scalar multiplication mod `n`, reduced with the precomputed 129-bit
    /// complement instead of recomputing it per call.
    pub fn mul(&self, rhs: &Scalar) -> Scalar {
        let wide = self.0.mul_wide(&rhs.0);
        Scalar(U256::reduce_wide_with_complement(
            &wide,
            &GROUP_ORDER,
            &N_COMPLEMENT,
        ))
    }

    /// Splits `k` for the endomorphism: returns `(k1, k2)` with
    /// `k ≡ k1 + k2·λ (mod n)` and `|k1|, |k2| < 2^128`, so `k·P` becomes
    /// `k1·P + k2·φ(P)` over half as many doublings.
    ///
    /// Above `2^128`, `(k1, k2) = (k, 0) − c1·(a1, b1) − c2·(a2, b2)` with
    /// `c1 = round(k·b2/n)`, `c2 = round(−k·b1/n)`; the remainder lies in the
    /// basis' fundamental cell, which bounds `|k1| ≤ (a1 + a2 + 1)/2 <
    /// 2^127.4` and `|k2| ≤ (b2 − b1)/2 + 1 < 2^127.2` (DESIGN-notes.md).
    pub fn split_lambda(&self) -> (SignedHalf, SignedHalf) {
        // A scalar that already fits one half is left whole: short scalars
        // and 128-bit batch coefficients then walk a single stream.
        if self.0.limbs[2] == 0 && self.0.limbs[3] == 0 {
            return (self.to_signed_half(), SignedHalf::ZERO);
        }
        let c1 = mul_shift_384(&self.0, &G1);
        let c2 = mul_shift_384(&self.0, &G2);
        // k2 = −c1·b1 − c2·b2; both products are below 2^254 < n.
        let k2 = Scalar(mul_u128(c1, MINUS_B1)).sub(&Scalar(mul_u128(c2, B2)));
        let k1 = self.sub(&k2.mul(&LAMBDA));
        (k1.to_signed_half(), k2.to_signed_half())
    }

    /// Reads a scalar known to be within `2^128` of zero modulo `n`.
    fn to_signed_half(self) -> SignedHalf {
        let (value, negative) = if self.0.limbs[2] == 0 && self.0.limbs[3] == 0 {
            (self.0, false)
        } else {
            (GROUP_ORDER.wrapping_sub(&self.0), true)
        };
        debug_assert!(value.limbs[2] == 0 && value.limbs[3] == 0);
        SignedHalf {
            magnitude: (value.limbs[0] as u128) | ((value.limbs[1] as u128) << 64),
            negative,
        }
    }

    /// Exponentiation by an arbitrary 256-bit exponent (square-and-multiply),
    /// mirroring [`crate::fe::Fe::pow`].
    pub fn pow(&self, exp: &U256) -> Scalar {
        let mut result = Scalar::one();
        let mut found = false;
        for i in (0..exp.bits().max(1)).rev() {
            if found {
                result = result.mul(&result);
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
            Scalar::one()
        }
    }

    /// Multiplicative inverse via Fermat's little theorem. Panics on zero.
    pub fn invert(&self) -> Scalar {
        assert!(!self.is_zero(), "cannot invert zero scalar");
        self.pow(&GROUP_ORDER.wrapping_sub(&U256::from_u64(2)))
    }

    /// Montgomery batch inversion over the scalar field: one inversion plus
    /// `3(n-1)` multiplications for the whole slice. Zero entries are left
    /// untouched. Used by Lagrange interpolation in the PVSS layer.
    pub fn batch_invert(elements: &mut [Scalar]) {
        let mut prefix = Vec::with_capacity(elements.len());
        let mut acc = Scalar::one();
        for e in elements.iter() {
            prefix.push(acc);
            if !e.is_zero() {
                acc = acc.mul(e);
            }
        }
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

    /// Evaluates the polynomial with the given coefficients (constant term first)
    /// at point `x`, via Horner's rule. Used by Shamir secret sharing.
    pub fn poly_eval(coeffs: &[Scalar], x: &Scalar) -> Scalar {
        let mut acc = Scalar::zero();
        for c in coeffs.iter().rev() {
            acc = acc.mul(x).add(c);
        }
        acc
    }
}

impl core::fmt::Debug for Scalar {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Scalar(0x{})", self.0.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn order_is_canonical() {
        let n = group_order();
        assert_eq!(
            n.to_hex(),
            "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"
        );
        assert!(n.bit(255));
    }

    #[test]
    fn reduction_on_construction() {
        let n = group_order();
        let over = n.wrapping_add(&U256::from_u64(5));
        assert_eq!(Scalar::from_u256(over), Scalar::from_u64(5));
    }

    #[test]
    fn add_mul_inverse() {
        let a = Scalar::from_u64(1234567);
        let b = Scalar::from_u64(7654321);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.mul(&a.invert()), Scalar::one());
        assert_eq!(a.add(&a.neg()), Scalar::zero());
    }

    #[test]
    #[should_panic(expected = "cannot invert zero")]
    fn invert_zero_panics() {
        Scalar::zero().invert();
    }

    #[test]
    fn from_hash_is_deterministic_and_domain_separated() {
        let a = Scalar::from_hash("nonce", &[b"msg"]);
        let b = Scalar::from_hash("nonce", &[b"msg"]);
        let c = Scalar::from_hash("other", &[b"msg"]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_zero());
    }

    #[test]
    fn poly_eval_matches_manual() {
        // f(x) = 3 + 2x + x^2; f(5) = 3 + 10 + 25 = 38.
        let coeffs = [
            Scalar::from_u64(3),
            Scalar::from_u64(2),
            Scalar::from_u64(1),
        ];
        assert_eq!(
            Scalar::poly_eval(&coeffs, &Scalar::from_u64(5)),
            Scalar::from_u64(38)
        );
        // Empty polynomial is identically zero.
        assert_eq!(Scalar::poly_eval(&[], &Scalar::from_u64(9)), Scalar::zero());
    }

    fn arb_scalar() -> impl Strategy<Value = Scalar> {
        prop::array::uniform4(any::<u64>()).prop_map(|l| Scalar::from_u256(U256::from_limbs(l)))
    }

    fn half_as_scalar(half: SignedHalf) -> Scalar {
        let magnitude = Scalar::from_u256(U256::from_u128(half.magnitude));
        if half.negative {
            magnitude.neg()
        } else {
            magnitude
        }
    }

    /// `k ≡ k1 + k2·λ`; the magnitudes are `u128`, so below `2^128` by type.
    fn assert_split_recombines(k: &Scalar) {
        let (k1, k2) = k.split_lambda();
        let recombined = half_as_scalar(k1).add(&half_as_scalar(k2).mul(&LAMBDA));
        assert_eq!(recombined, *k, "k1 = {k1:?}, k2 = {k2:?}");
    }

    #[test]
    fn lambda_is_a_primitive_cube_root_of_unity() {
        assert_ne!(LAMBDA, Scalar::one());
        assert_eq!(LAMBDA.mul(&LAMBDA).mul(&LAMBDA), Scalar::one());
        assert_eq!(
            LAMBDA.mul(&LAMBDA).add(&LAMBDA).add(&Scalar::one()),
            Scalar::zero()
        );
    }

    #[test]
    fn split_lambda_on_edge_scalars() {
        let n = |d: u64| Scalar::from_u256(GROUP_ORDER.wrapping_sub(&U256::from_u64(d)));
        let mut edges = vec![
            Scalar::zero(),
            Scalar::one(),
            Scalar::from_u64(2),
            n(1),
            n(2),
            LAMBDA,
            LAMBDA.add(&Scalar::one()),
            LAMBDA.sub(&Scalar::one()),
            LAMBDA.neg(),
            LAMBDA.mul(&LAMBDA),
        ];
        edges.extend((0..256).map(|b| Scalar::from_u256(U256::ONE.shl(b))));
        edges.push(Scalar::from_u256(U256::from_u128(u128::MAX)));
        edges.push(Scalar::from_u256(
            U256::ONE.shl(128).wrapping_add(&U256::ONE),
        ));
        for k in &edges {
            assert_split_recombines(k);
        }
        // Short scalars stay whole; λ itself is the unit of the second half.
        let positive = |magnitude| SignedHalf {
            magnitude,
            negative: false,
        };
        assert_eq!(
            Scalar::from_u64(77).split_lambda(),
            (positive(77), SignedHalf::ZERO)
        );
        assert_eq!(LAMBDA.split_lambda(), (SignedHalf::ZERO, positive(1)));
        // All four sign patterns occur.
        let mut signs = std::collections::BTreeSet::new();
        for i in 0u64..64 {
            let (k1, k2) = Scalar::from_hash("split-signs", &[&i.to_be_bytes()]).split_lambda();
            signs.insert((k1.negative, k2.negative));
        }
        assert_eq!(signs.len(), 4);
    }

    #[test]
    fn canonical_decoding_rejects_values_at_or_above_the_order() {
        let n = GROUP_ORDER;
        let below = n.wrapping_sub(&U256::ONE);
        assert_eq!(
            Scalar::from_be_bytes_canonical(&below.to_be_bytes()),
            Some(Scalar::from_u256(below))
        );
        for v in [n, n.wrapping_add(&U256::ONE), U256::MAX] {
            assert_eq!(Scalar::from_be_bytes_canonical(&v.to_be_bytes()), None);
        }
        assert_eq!(
            Scalar::from_be_bytes(&n.wrapping_add(&U256::ONE).to_be_bytes()),
            Scalar::one()
        );
    }

    #[test]
    fn rlc_coefficients_are_nonzero_and_128_bit() {
        for i in 0..32 {
            let z = Scalar::rlc_coefficient("rlc-test", b"seed", i);
            assert!(!z.is_zero());
            assert!(z.as_u256().bits() <= 128);
            let (z1, z2) = z.split_lambda();
            assert_eq!(half_as_scalar(z1), z);
            assert_eq!(z2.magnitude, 0);
        }
        assert_ne!(
            Scalar::rlc_coefficient("rlc-test", b"seed", 0),
            Scalar::rlc_coefficient("rlc-test", b"seed", 1)
        );
    }

    proptest! {
        #[test]
        fn prop_field_laws(a in arb_scalar(), b in arb_scalar(), c in arb_scalar()) {
            prop_assert_eq!(a.add(&b), b.add(&a));
            prop_assert_eq!(a.mul(&b), b.mul(&a));
            prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
            prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
        }

        #[test]
        fn prop_split_lambda_recombines(a in arb_scalar()) {
            assert_split_recombines(&a);
            assert_split_recombines(&a.mul(&LAMBDA));
        }

        #[test]
        fn prop_canonical_decoding_round_trips(a in arb_scalar()) {
            prop_assert_eq!(Scalar::from_be_bytes_canonical(&a.to_be_bytes()), Some(a));
        }

        #[test]
        fn prop_inverse(a in arb_scalar()) {
            prop_assume!(!a.is_zero());
            prop_assert_eq!(a.mul(&a.invert()), Scalar::one());
        }

        #[test]
        fn prop_bytes_round_trip(a in arb_scalar()) {
            prop_assert_eq!(Scalar::from_be_bytes(&a.to_be_bytes()), a);
        }

        #[test]
        fn prop_pow_matches_generic(a in arb_scalar(), e in any::<u64>()) {
            let generic = a.as_u256().pow_mod(&U256::from_u64(e), &group_order());
            prop_assert_eq!(*a.pow(&U256::from_u64(e)).as_u256(), generic);
        }

        #[test]
        fn prop_mul_matches_generic_reduction(a in arb_scalar(), b in arb_scalar()) {
            let generic = a.as_u256().mul_mod(b.as_u256(), &group_order());
            prop_assert_eq!(*a.mul(&b).as_u256(), generic);
        }

        #[test]
        fn prop_batch_invert_matches_individual(raw in prop::collection::vec(
            prop::array::uniform4(any::<u64>()), 0..10,
        )) {
            let mut elements: Vec<Scalar> = raw
                .into_iter()
                .map(|l| Scalar::from_u256(U256::from_limbs(l)))
                .collect();
            if !elements.is_empty() {
                elements[0] = Scalar::zero();
            }
            let expected: Vec<Scalar> = elements
                .iter()
                .map(|e| if e.is_zero() { Scalar::zero() } else { e.invert() })
                .collect();
            let mut batched = elements.clone();
            Scalar::batch_invert(&mut batched);
            prop_assert_eq!(batched, expected);
        }

        #[test]
        fn prop_poly_eval_linear(a in arb_scalar(), b in arb_scalar(), x in arb_scalar()) {
            // f(x) = a + b*x evaluated via Horner matches the direct expression.
            let coeffs = [a, b];
            prop_assert_eq!(Scalar::poly_eval(&coeffs, &x), a.add(&b.mul(&x)));
        }
    }
}
