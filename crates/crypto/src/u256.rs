//! Fixed-width 256-bit unsigned integer arithmetic.
//!
//! This is the raw-limb substrate under the secp256k1 field and scalar types.
//! Limbs are stored little-endian (`limbs[0]` is the least significant 64 bits).
//! All arithmetic here is *plain* integer arithmetic; modular reduction lives in
//! [`crate::fe`] and [`crate::scalar`].

/// A 256-bit unsigned integer, four little-endian 64-bit limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256 {
    /// Little-endian limbs: `limbs[0]` is least significant.
    pub limbs: [u64; 4],
}

/// A 512-bit product, eight little-endian 64-bit limbs.
pub type Wide = [u64; 8];

/// All ones if `flag` holds, zero otherwise: a condition as a limb mask.
#[inline(always)]
pub(crate) fn mask(flag: bool) -> u64 {
    0u64.wrapping_sub(flag as u64)
}

impl U256 {
    /// The value 0.
    pub const ZERO: U256 = U256 { limbs: [0; 4] };
    /// The value 1.
    pub const ONE: U256 = U256 {
        limbs: [1, 0, 0, 0],
    };
    /// The maximum representable value, 2^256 - 1.
    pub const MAX: U256 = U256 {
        limbs: [u64::MAX; 4],
    };

    /// Constructs from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        U256 { limbs }
    }

    /// Constructs from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        U256 {
            limbs: [v, 0, 0, 0],
        }
    }

    /// Constructs from a `u128`.
    pub const fn from_u128(v: u128) -> Self {
        U256 {
            limbs: [v as u64, (v >> 64) as u64, 0, 0],
        }
    }

    /// Parses a 32-byte big-endian encoding.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let start = 32 - 8 * (i + 1);
            *limb = u64::from_be_bytes(bytes[start..start + 8].try_into().expect("8 bytes"));
        }
        U256 { limbs }
    }

    /// Serializes to a 32-byte big-endian encoding.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            let start = 32 - 8 * (i + 1);
            out[start..start + 8].copy_from_slice(&self.limbs[i].to_be_bytes());
        }
        out
    }

    /// Parses a big-endian hex string of up to 64 hex digits (no `0x` prefix).
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.is_empty() || s.len() > 64 {
            return None;
        }
        let mut bytes = [0u8; 32];
        let padded = format!("{:0>64}", s);
        let pb = padded.as_bytes();
        let nib = |c: u8| -> Option<u8> {
            match c {
                b'0'..=b'9' => Some(c - b'0'),
                b'a'..=b'f' => Some(c - b'a' + 10),
                b'A'..=b'F' => Some(c - b'A' + 10),
                _ => None,
            }
        };
        for i in 0..32 {
            bytes[i] = (nib(pb[2 * i])? << 4) | nib(pb[2 * i + 1])?;
        }
        Some(Self::from_be_bytes(&bytes))
    }

    /// Hex-encodes (lowercase, 64 digits, zero padded).
    pub fn to_hex(&self) -> String {
        let bytes = self.to_be_bytes();
        let mut s = String::with_capacity(64);
        const HEX: &[u8; 16] = b"0123456789abcdef";
        for b in bytes {
            s.push(HEX[(b >> 4) as usize] as char);
            s.push(HEX[(b & 0xf) as usize] as char);
        }
        s
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs == [0; 4]
    }

    /// True if the value is odd.
    pub fn is_odd(&self) -> bool {
        self.limbs[0] & 1 == 1
    }

    /// Returns bit `i` (0 = least significant). Bits ≥ 256 are zero.
    pub fn bit(&self, i: usize) -> bool {
        if i >= 256 {
            return false;
        }
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits (0 for the value zero).
    pub fn bits(&self) -> usize {
        for i in (0..4).rev() {
            if self.limbs[i] != 0 {
                return 64 * i + (64 - self.limbs[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Addition returning `(sum mod 2^256, carry)`. The carry is a `bool`
    /// or-ed limb to limb, the shape LLVM turns into one `add`/`adc` chain.
    #[inline(always)]
    pub fn overflowing_add(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        for (i, out_limb) in out.iter_mut().enumerate() {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            *out_limb = s2;
            carry = c1 | c2;
        }
        (U256 { limbs: out }, carry)
    }

    /// Wrapping addition mod 2^256.
    #[inline]
    pub fn wrapping_add(&self, rhs: &U256) -> U256 {
        self.overflowing_add(rhs).0
    }

    /// Subtraction returning `(diff mod 2^256, borrow)`: one `sub`/`sbb`
    /// chain, as [`overflowing_add`](Self::overflowing_add).
    #[inline(always)]
    pub fn overflowing_sub(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for (i, out_limb) in out.iter_mut().enumerate() {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            *out_limb = d2;
            borrow = b1 | b2;
        }
        (U256 { limbs: out }, borrow)
    }

    /// Wrapping subtraction mod 2^256.
    #[inline]
    pub fn wrapping_sub(&self, rhs: &U256) -> U256 {
        self.overflowing_sub(rhs).0
    }

    /// Full 256×256 → 512-bit multiplication (schoolbook). Each row's four
    /// products run as one `u128` carry chain: a partial sum is at most
    /// `(2^64−1)² + 2·(2^64−1) = 2^128 − 1`, so none overflows.
    #[inline]
    pub fn mul_wide(&self, rhs: &U256) -> Wide {
        let b = &rhs.limbs;
        let m = |x: u64, y: u64| (x as u128) * (y as u128);
        let mut out = [0u64; 8];
        for (i, &a) in self.limbs.iter().enumerate() {
            let t0 = m(a, b[0]) + out[i] as u128;
            let t1 = m(a, b[1]) + out[i + 1] as u128 + (t0 >> 64);
            let t2 = m(a, b[2]) + out[i + 2] as u128 + (t1 >> 64);
            let t3 = m(a, b[3]) + out[i + 3] as u128 + (t2 >> 64);
            out[i] = t0 as u64;
            out[i + 1] = t1 as u64;
            out[i + 2] = t2 as u64;
            out[i + 3] = t3 as u64;
            out[i + 4] = (t3 >> 64) as u64;
        }
        out
    }

    /// `self²` as a 512-bit value: the six off-diagonal products once,
    /// doubled by a one-bit shift, plus the four diagonal squares — ten limb
    /// multiplications against [`mul_wide`](Self::mul_wide)'s sixteen.
    #[inline]
    pub fn square_wide(&self) -> Wide {
        let a = &self.limbs;
        let m = |x: u64, y: u64| (x as u128) * (y as u128);
        let mut o = [0u64; 8];
        // Off-diagonal half: Σ_{i<j} a_i·a_j·2^{64(i+j)}.
        let t = m(a[0], a[1]);
        o[1] = t as u64;
        let t = m(a[0], a[2]) + (t >> 64);
        o[2] = t as u64;
        let t = m(a[0], a[3]) + (t >> 64);
        o[3] = t as u64;
        o[4] = (t >> 64) as u64;
        let t = m(a[1], a[2]) + o[3] as u128;
        o[3] = t as u64;
        let t = m(a[1], a[3]) + o[4] as u128 + (t >> 64);
        o[4] = t as u64;
        o[5] = (t >> 64) as u64;
        let t = m(a[2], a[3]) + o[5] as u128;
        o[5] = t as u64;
        o[6] = (t >> 64) as u64;
        // Double it (the half is below 2^447, so nothing is shifted out).
        for i in (2..8).rev() {
            o[i] = (o[i] << 1) | (o[i - 1] >> 63);
        }
        o[1] <<= 1;
        // Add the diagonal a_i²·2^{128 i}.
        let mut carry = 0u128;
        for i in 0..4 {
            let sq = m(a[i], a[i]);
            let lo = o[2 * i] as u128 + (sq as u64) as u128 + carry;
            let hi = o[2 * i + 1] as u128 + (sq >> 64) + (lo >> 64);
            o[2 * i] = lo as u64;
            o[2 * i + 1] = hi as u64;
            carry = hi >> 64;
        }
        o
    }

    /// Multiplication by a `u64`, returning a 5-limb result `(low 256 bits, top limb)`.
    pub fn mul_u64(&self, rhs: u64) -> (U256, u64) {
        let mut out = [0u64; 4];
        let mut carry = 0u128;
        for (i, out_limb) in out.iter_mut().enumerate() {
            let cur = (self.limbs[i] as u128) * (rhs as u128) + carry;
            *out_limb = cur as u64;
            carry = cur >> 64;
        }
        (U256 { limbs: out }, carry as u64)
    }

    /// Left shift by `n` bits (`n < 256`), dropping overflow.
    pub fn shl(&self, n: usize) -> U256 {
        assert!(n < 256);
        if n == 0 {
            return *self;
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        for i in (limb_shift..4).rev() {
            let mut v = self.limbs[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                v |= self.limbs[i - limb_shift - 1] >> (64 - bit_shift);
            }
            out[i] = v;
        }
        U256 { limbs: out }
    }

    /// Right shift by `n` bits (`n < 256`).
    pub fn shr(&self, n: usize) -> U256 {
        assert!(n < 256);
        if n == 0 {
            return *self;
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        for (i, out_limb) in out.iter_mut().enumerate().take(4 - limb_shift) {
            let mut v = self.limbs[i + limb_shift] >> bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < 4 {
                v |= self.limbs[i + limb_shift + 1] << (64 - bit_shift);
            }
            *out_limb = v;
        }
        U256 { limbs: out }
    }

    /// Reduces a 512-bit value modulo `modulus = 2^256 - c` where the
    /// complement `c` fits a single limb — the secp256k1 field prime has
    /// `c = 2^32 + 977`. Exactly two folds of the high half by `c`, each one
    /// `u128` carry chain, plus one conditional correction, instead of the
    /// generic multi-round [`reduce_wide`](Self::reduce_wide) loop.
    #[inline]
    pub fn reduce_wide_c64(wide: &Wide, modulus: &U256, c: u64) -> U256 {
        debug_assert_eq!(U256::ZERO.wrapping_sub(modulus), U256::from_u64(c));
        let m = |x: u64| (x as u128) * (c as u128);
        // First fold: hi·2^256 + lo ≡ hi·c + lo (mod m), limb by limb; what
        // spills past limb 3 is at most `c`.
        let t0 = wide[0] as u128 + m(wide[4]);
        let t1 = wide[1] as u128 + m(wide[5]) + (t0 >> 64);
        let t2 = wide[2] as u128 + m(wide[6]) + (t1 >> 64);
        let t3 = wide[3] as u128 + m(wide[7]) + (t2 >> 64);
        // Second fold: spill·2^256 ≡ spill·c, added at limb 0 and rippled up.
        let u0 = (t0 as u64) as u128 + m((t3 >> 64) as u64);
        let u1 = (t1 as u64) as u128 + (u0 >> 64);
        let u2 = (t2 as u64) as u128 + (u1 >> 64);
        let u3 = (t3 as u64) as u128 + (u2 >> 64);
        let acc = U256::from_limbs([u0 as u64, u1 as u64, u2 as u64, u3 as u64]);
        // A carry out of limb 3 means the true value gained another
        // 2^256 ≡ c (the wrapped value is tiny, so adding c cannot carry
        // again); without one, a value ≥ m loses m — which, mod 2^256, is
        // again adding c.
        if (u3 >> 64) != 0 || acc >= *modulus {
            acc.wrapping_add(&U256::from_u64(c))
        } else {
            acc
        }
    }

    /// Reduces a 512-bit value modulo `modulus`, using repeated folding of the
    /// high half by the precomputed complement `c = 2^256 - modulus` followed
    /// by conditional subtraction.
    ///
    /// Requires `modulus > 2^255` (true for both the secp256k1 field prime and
    /// the group order), which guarantees the fold loop converges quickly.
    pub fn reduce_wide_with_complement(wide: &Wide, modulus: &U256, c: &U256) -> U256 {
        debug_assert!(modulus.bit(255), "modulus must exceed 2^255");
        debug_assert_eq!(U256::ZERO.wrapping_sub(modulus), *c);
        let mut hi = U256::from_limbs([wide[4], wide[5], wide[6], wide[7]]);
        let mut lo = U256::from_limbs([wide[0], wide[1], wide[2], wide[3]]);
        while !hi.is_zero() {
            // hi * c + lo, recomputed as a fresh 512-bit value.
            let prod = hi.mul_wide(c);
            let mut acc = [0u64; 8];
            acc.copy_from_slice(&prod);
            let mut carry = 0u64;
            for (acc_limb, lo_limb) in acc.iter_mut().zip(lo.limbs.iter()) {
                let (s1, c1) = acc_limb.overflowing_add(*lo_limb);
                let (s2, c2) = s1.overflowing_add(carry);
                *acc_limb = s2;
                carry = (c1 as u64) + (c2 as u64);
            }
            let mut i = 4;
            while carry != 0 && i < 8 {
                let (s, c1) = acc[i].overflowing_add(carry);
                acc[i] = s;
                carry = c1 as u64;
                i += 1;
            }
            hi = U256::from_limbs([acc[4], acc[5], acc[6], acc[7]]);
            lo = U256::from_limbs([acc[0], acc[1], acc[2], acc[3]]);
        }
        while lo >= *modulus {
            lo = lo.wrapping_sub(modulus);
        }
        lo
    }

    /// Generic wide reduction; computes the complement on the fly. Prefer
    /// [`reduce_wide_with_complement`](Self::reduce_wide_with_complement) (or
    /// [`reduce_wide_c64`](Self::reduce_wide_c64) for single-limb complements)
    /// on hot paths.
    pub fn reduce_wide(wide: &Wide, modulus: &U256) -> U256 {
        let c = U256::ZERO.wrapping_sub(modulus);
        Self::reduce_wide_with_complement(wide, modulus, &c)
    }

    /// `if_set` when `flag` holds and `if_clear` otherwise, by masking the
    /// limbs instead of branching on `flag`.
    #[inline]
    pub(crate) fn select(flag: bool, if_set: &U256, if_clear: &U256) -> U256 {
        let m = mask(flag);
        let pick = |i: usize| (if_set.limbs[i] & m) | (if_clear.limbs[i] & !m);
        U256::from_limbs([pick(0), pick(1), pick(2), pick(3)])
    }

    /// Modular addition `(self + rhs) mod modulus`; both inputs must already be
    /// reduced below `modulus`. The sum less the modulus is taken if the sum
    /// carried or that subtraction did not borrow, by a mask: no branch on
    /// the data.
    #[inline]
    pub fn add_mod(&self, rhs: &U256, modulus: &U256) -> U256 {
        let (sum, carry) = self.overflowing_add(rhs);
        let (reduced, borrow) = sum.overflowing_sub(modulus);
        U256::select(carry | !borrow, &reduced, &sum)
    }

    /// Modular subtraction `(self - rhs) mod modulus`; inputs must be reduced.
    /// The modulus is added back under the borrow's mask.
    #[inline]
    pub fn sub_mod(&self, rhs: &U256, modulus: &U256) -> U256 {
        let (diff, borrow) = self.overflowing_sub(rhs);
        let [m0, m1, m2, m3] = modulus.limbs;
        let m = mask(borrow);
        diff.wrapping_add(&U256::from_limbs([m0 & m, m1 & m, m2 & m, m3 & m]))
    }

    /// Modular multiplication `(self * rhs) mod modulus`; `modulus > 2^255`.
    pub fn mul_mod(&self, rhs: &U256, modulus: &U256) -> U256 {
        let wide = self.mul_wide(rhs);
        Self::reduce_wide(&wide, modulus)
    }

    /// Modular exponentiation `self^exp mod modulus` (square-and-multiply).
    pub fn pow_mod(&self, exp: &U256, modulus: &U256) -> U256 {
        let mut result = U256::ONE;
        let mut found = false;
        for i in (0..exp.bits().max(1)).rev() {
            if found {
                result = result.mul_mod(&result, modulus);
            }
            if exp.bit(i) {
                if found {
                    result = result.mul_mod(self, modulus);
                } else {
                    result = Self::reduce_already(self, modulus);
                    found = true;
                }
            }
        }
        if !found {
            // exp == 0.
            U256::ONE
        } else {
            result
        }
    }

    fn reduce_already(v: &U256, modulus: &U256) -> U256 {
        let mut v = *v;
        while v >= *modulus {
            v = v.wrapping_sub(modulus);
        }
        v
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        for i in (0..4).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                core::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        core::cmp::Ordering::Equal
    }
}

impl core::fmt::Debug for U256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "U256(0x{})", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p() -> U256 {
        // secp256k1 field prime.
        U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
            .expect("prime")
    }

    #[test]
    fn hex_round_trip() {
        let v = U256::from_hex("deadbeef").unwrap();
        assert_eq!(v, U256::from_u64(0xdeadbeef));
        assert_eq!(v.to_hex(), format!("{:0>64}", "deadbeef"));
        assert_eq!(U256::from_hex(""), None);
        assert_eq!(U256::from_hex("zz"), None);
    }

    #[test]
    fn be_bytes_round_trip() {
        let v = U256::from_hex("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
            .unwrap();
        assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
    }

    #[test]
    fn add_sub_basics() {
        let a = U256::from_u64(5);
        let b = U256::from_u64(3);
        assert_eq!(a.wrapping_add(&b), U256::from_u64(8));
        assert_eq!(a.wrapping_sub(&b), U256::from_u64(2));
        let (_, borrow) = b.overflowing_sub(&a);
        assert!(borrow);
        let (_, carry) = U256::MAX.overflowing_add(&U256::ONE);
        assert!(carry);
    }

    #[test]
    fn mul_wide_small() {
        let a = U256::from_u128(u128::MAX);
        let w = a.mul_wide(&U256::from_u64(2));
        // u128::MAX * 2 = 2^129 - 2.
        assert_eq!(w[0], u64::MAX - 1);
        assert_eq!(w[1], u64::MAX);
        assert_eq!(w[2], 1);
        assert_eq!(w[3], 0);
    }

    #[test]
    fn square_wide_extremes() {
        for a in [U256::ZERO, U256::ONE, U256::MAX, U256::from_u128(u128::MAX)] {
            assert_eq!(a.square_wide(), a.mul_wide(&a));
        }
        assert_eq!(U256::MAX.mul_wide(&U256::MAX)[7], u64::MAX);
    }

    #[test]
    fn shifts() {
        let v = U256::from_u64(1);
        assert_eq!(v.shl(64), U256::from_limbs([0, 1, 0, 0]));
        assert_eq!(v.shl(200).shr(200), v);
        assert_eq!(v.shl(0), v);
        assert_eq!(U256::MAX.shr(255), U256::ONE);
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(U256::MAX.bits(), 256);
        assert!(U256::from_u64(4).bit(2));
        assert!(!U256::from_u64(4).bit(3));
        assert!(!U256::ONE.bit(300));
    }

    #[test]
    fn mod_ops_match_naive_small() {
        let m = U256::from_u64(1_000_000_007);
        for (a, b) in [(3u64, 7u64), (999_999_999, 999_999_999), (0, 5)] {
            let ua = U256::from_u64(a);
            let ub = U256::from_u64(b);
            // reduce_wide requires modulus > 2^255, so use the generic path only
            // through pow/mul on big moduli; here test add/sub directly.
            assert_eq!(ua.add_mod(&ub, &m), U256::from_u64((a + b) % 1_000_000_007));
            assert_eq!(
                ua.sub_mod(&ub, &m),
                U256::from_u64(((a as i128 - b as i128).rem_euclid(1_000_000_007)) as u64)
            );
        }
    }

    #[test]
    fn reduce_wide_c64_extremes() {
        let p = p();
        let c = (1u64 << 32) + 977;
        for wide in [[u64::MAX; 8], {
            let mut w = [0u64; 8];
            w[7] = u64::MAX;
            w
        }] {
            assert_eq!(
                U256::reduce_wide_c64(&wide, &p, c),
                U256::reduce_wide(&wide, &p)
            );
        }
    }

    #[test]
    fn fermat_inverse_over_prime() {
        let p = p();
        let a = U256::from_hex("123456789abcdef123456789abcdef").unwrap();
        let p_minus_2 = p.wrapping_sub(&U256::from_u64(2));
        let inv = a.pow_mod(&p_minus_2, &p);
        assert_eq!(a.mul_mod(&inv, &p), U256::ONE);
    }

    #[test]
    fn pow_edge_cases() {
        let p = p();
        let a = U256::from_u64(7);
        assert_eq!(a.pow_mod(&U256::ZERO, &p), U256::ONE);
        assert_eq!(a.pow_mod(&U256::ONE, &p), a);
        assert_eq!(a.pow_mod(&U256::from_u64(3), &p), U256::from_u64(343));
    }

    fn arb_u256() -> impl Strategy<Value = U256> {
        prop::array::uniform4(any::<u64>()).prop_map(U256::from_limbs)
    }

    proptest! {
        #[test]
        fn prop_add_commutes(a in arb_u256(), b in arb_u256()) {
            prop_assert_eq!(a.wrapping_add(&b), b.wrapping_add(&a));
        }

        #[test]
        fn prop_sub_inverts_add(a in arb_u256(), b in arb_u256()) {
            prop_assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
        }

        #[test]
        fn prop_mul_wide_commutes(a in arb_u256(), b in arb_u256()) {
            prop_assert_eq!(a.mul_wide(&b), b.mul_wide(&a));
        }

        #[test]
        fn prop_square_wide_matches_mul_wide(a in arb_u256()) {
            prop_assert_eq!(a.square_wide(), a.mul_wide(&a));
        }

        #[test]
        fn prop_be_bytes_round_trip(a in arb_u256()) {
            prop_assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
        }

        #[test]
        fn prop_hex_round_trip(a in arb_u256()) {
            prop_assert_eq!(U256::from_hex(&a.to_hex()), Some(a));
        }

        #[test]
        fn prop_cmp_consistent_with_sub(a in arb_u256(), b in arb_u256()) {
            let (_, borrow) = a.overflowing_sub(&b);
            prop_assert_eq!(borrow, a < b);
        }

        #[test]
        fn prop_mul_mod_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            // Against a native 128-bit check, using the secp256k1 prime (result
            // fits without reduction since a*b < 2^128 < p).
            let p = p();
            let got = U256::from_u64(a).mul_mod(&U256::from_u64(b), &p);
            prop_assert_eq!(got, U256::from_u128((a as u128) * (b as u128)));
        }

        #[test]
        fn prop_reduce_wide_idempotent_on_reduced(a in arb_u256()) {
            let p = p();
            let mut wide = [0u64; 8];
            wide[..4].copy_from_slice(&a.limbs);
            let r = U256::reduce_wide(&wide, &p);
            prop_assert!(r < p);
            if a < p {
                prop_assert_eq!(r, a);
            }
        }

        #[test]
        fn prop_reduce_wide_c64_matches_generic(a in arb_u256(), b in arb_u256()) {
            let p = p();
            let c = (1u64 << 32) + 977;
            let wide = a.mul_wide(&b);
            prop_assert_eq!(
                U256::reduce_wide_c64(&wide, &p, c),
                U256::reduce_wide(&wide, &p)
            );
        }

        #[test]
        fn prop_reduce_wide_with_complement_matches_generic(a in arb_u256(), b in arb_u256()) {
            // Against the secp256k1 group order, whose complement spans three limbs.
            let n = U256::from_hex(
                "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"
            ).unwrap();
            let c = U256::ZERO.wrapping_sub(&n);
            let wide = a.mul_wide(&b);
            prop_assert_eq!(
                U256::reduce_wide_with_complement(&wide, &n, &c),
                U256::reduce_wide(&wide, &n)
            );
        }

        #[test]
        fn prop_mul_mod_distributes(a in arb_u256(), b in arb_u256(), c in arb_u256()) {
            let p = p();
            let a = U256::reduce_wide(&{ let mut w = [0u64;8]; w[..4].copy_from_slice(&a.limbs); w }, &p);
            let b = U256::reduce_wide(&{ let mut w = [0u64;8]; w[..4].copy_from_slice(&b.limbs); w }, &p);
            let c = U256::reduce_wide(&{ let mut w = [0u64;8]; w[..4].copy_from_slice(&c.limbs); w }, &p);
            let lhs = a.mul_mod(&b.add_mod(&c, &p), &p);
            let rhs = a.mul_mod(&b, &p).add_mod(&a.mul_mod(&c, &p), &p);
            prop_assert_eq!(lhs, rhs);
        }
    }
}
