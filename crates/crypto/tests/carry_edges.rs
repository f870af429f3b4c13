//! `Fe` and `Scalar` addition, subtraction and negation against a reference
//! in five-limb (320-bit) arithmetic, which holds every sum whole and
//! reduces it by one compare-and-subtract.
//!
//! The kernel picks its corrections by carry and borrow masks instead of
//! branches, so a wrong mask is wrong only where a carry goes the other way:
//! at zero, at `m − 1`, at sums equal to the modulus `m` exactly, at
//! `a == b`, and for `Fe` at operands within `2^33` of `2^256`, where a sum
//! can reach `p` without carrying out of 256 bits. Every pair of those edge
//! values is checked, and a proptest draws pairs biased towards them.

use cycledger_crypto::fe::{Fe, BETA, FIELD_PRIME};
use cycledger_crypto::scalar::{Scalar, GROUP_ORDER};
use cycledger_crypto::u256::U256;
use proptest::prelude::*;

type Wide5 = [u64; 5];

fn widen(v: &U256) -> Wide5 {
    let [a, b, c, d] = v.limbs;
    [a, b, c, d, 0]
}

fn narrow(v: Wide5) -> U256 {
    assert_eq!(v[4], 0, "a reduced value fits 256 bits");
    U256::from_limbs([v[0], v[1], v[2], v[3]])
}

fn wide_add(a: Wide5, b: Wide5) -> Wide5 {
    let mut out = [0u64; 5];
    let mut carry = 0u128;
    for i in 0..5 {
        let t = a[i] as u128 + b[i] as u128 + carry;
        out[i] = t as u64;
        carry = t >> 64;
    }
    assert_eq!(carry, 0);
    out
}

/// `a − b`, for `a ≥ b`.
fn wide_sub(a: Wide5, b: Wide5) -> Wide5 {
    let mut out = [0u64; 5];
    let mut borrow = 0i128;
    for i in 0..5 {
        let t = a[i] as i128 - b[i] as i128 - borrow;
        out[i] = t as u64;
        borrow = (t < 0) as i128;
    }
    assert_eq!(borrow, 0);
    out
}

/// `v mod m` for `v < 2m`.
fn reduce_once(v: Wide5, m: Wide5) -> Wide5 {
    let at_least_m =
        (0..5).rev().map(|i| v[i].cmp(&m[i])).find(|o| o.is_ne()) != Some(std::cmp::Ordering::Less);
    if at_least_m {
        wide_sub(v, m)
    } else {
        v
    }
}

/// `(a + b, a − b, −a) mod m` in 320-bit arithmetic.
fn reference(a: &U256, b: &U256, m: &U256) -> (U256, U256, U256) {
    let (a, b, m) = (widen(a), widen(b), widen(m));
    (
        narrow(reduce_once(wide_add(a, b), m)),
        narrow(reduce_once(wide_sub(wide_add(a, m), b), m)),
        narrow(reduce_once(wide_sub(m, a), m)),
    )
}

fn check_fe(a: &U256, b: &U256) {
    let (sum, difference, negation) = reference(a, b, &FIELD_PRIME);
    let (fa, fb) = (Fe::from_u256(*a), Fe::from_u256(*b));
    assert_eq!(fa.as_u256(), a, "edge value {a:?} is below p");
    assert_eq!(*fa.add(&fb).as_u256(), sum, "{a:?} + {b:?} mod p");
    assert_eq!(*fa.sub(&fb).as_u256(), difference, "{a:?} - {b:?} mod p");
    assert_eq!(*fa.neg().as_u256(), negation, "-{a:?} mod p");
}

fn check_scalar(a: &U256, b: &U256) {
    let (sum, difference, negation) = reference(a, b, &GROUP_ORDER);
    let (sa, sb) = (Scalar::from_u256(*a), Scalar::from_u256(*b));
    assert_eq!(sa.as_u256(), a, "edge value {a:?} is below n");
    assert_eq!(*sa.add(&sb).as_u256(), sum, "{a:?} + {b:?} mod n");
    assert_eq!(*sa.sub(&sb).as_u256(), difference, "{a:?} - {b:?} mod n");
    assert_eq!(*sa.neg().as_u256(), negation, "-{a:?} mod n");
}

fn below(m: &U256, k: u64) -> U256 {
    m.wrapping_sub(&U256::from_u64(k))
}

fn top_minus(k: u64) -> U256 {
    U256::ZERO.wrapping_sub(&U256::from_u64(k))
}

/// Values whose sums and differences sit on the carry edges of modulus `m`:
/// both ends, both halves (they sum to `m`), and the complement `2^256 − m`
/// and its partners.
fn edges(m: &U256) -> Vec<U256> {
    let complement = U256::ZERO.wrapping_sub(m);
    let half = m.shr(1);
    let mut values = vec![
        U256::ZERO,
        U256::ONE,
        U256::from_u64(2),
        U256::from_u64(u64::MAX),
        U256::ONE.shl(128),
        U256::ONE.shl(255),
        half,
        half.wrapping_add(&U256::ONE),
        complement,
        complement.wrapping_sub(&U256::ONE),
        complement.wrapping_add(&U256::ONE),
        m.wrapping_sub(&complement),
        below(m, 2),
        below(m, 1),
    ];
    values.retain(|v| v < m);
    values
}

#[test]
fn field_add_sub_neg_match_wide_arithmetic_on_every_pair_of_edges() {
    let mut values = edges(&FIELD_PRIME);
    // Within 2^33 of 2^256: a sum of two can reach p without carrying out.
    values.extend([
        top_minus(1 << 33),
        top_minus((1 << 33) - 1),
        top_minus((1 << 32) + 978),
        FIELD_PRIME.wrapping_sub(&U256::ONE.shl(32)),
        *BETA.as_u256(),
    ]);
    for a in &values {
        for b in &values {
            check_fe(a, b);
        }
    }
    // The sums that land exactly on p.
    let c = U256::ZERO.wrapping_sub(&FIELD_PRIME);
    for (a, b) in [
        (U256::ONE, below(&FIELD_PRIME, 1)),
        (c, FIELD_PRIME.wrapping_sub(&c)),
        (
            FIELD_PRIME.shr(1),
            FIELD_PRIME.shr(1).wrapping_add(&U256::ONE),
        ),
    ] {
        assert!(Fe::from_u256(a).add(&Fe::from_u256(b)).is_zero());
        check_fe(&a, &b);
    }
}

#[test]
fn scalar_add_sub_neg_match_wide_arithmetic_on_every_pair_of_edges() {
    let mut values = edges(&GROUP_ORDER);
    // 2^256 − 2^33 and its neighbours are above n; reduced, they sit
    // 2^33 below the complement 2^256 − n.
    values.extend([1 << 33, (1 << 33) - 1, 1].map(|k| *Scalar::from_u256(top_minus(k)).as_u256()));
    for a in &values {
        for b in &values {
            check_scalar(a, b);
        }
    }
    for (a, b) in [
        (U256::ONE, below(&GROUP_ORDER, 1)),
        (
            GROUP_ORDER.shr(1),
            GROUP_ORDER.shr(1).wrapping_add(&U256::ONE),
        ),
    ] {
        assert!(Scalar::from_u256(a).add(&Scalar::from_u256(b)).is_zero());
        check_scalar(&a, &b);
    }
}

/// An operand below `m`: uniform a quarter of the time, and otherwise
/// within `2^34` of `2^256`, below `2^34`, or within `2^34` of `m/2`.
fn operand(m: U256) -> impl Strategy<Value = U256> {
    prop::array::uniform4(any::<u64>()).prop_map(move |l| {
        let near = U256::from_u64(l[0] >> 30);
        // The mode is two low bits, which leaves the uniform draw's top
        // limb whole.
        let v = match l[0] & 3 {
            0 => U256::from_limbs(l),
            1 => U256::MAX.wrapping_sub(&near),
            2 => near,
            _ => m
                .shr(1)
                .wrapping_add(&near)
                .wrapping_sub(&U256::ONE.shl(33)),
        };
        if v >= m {
            v.wrapping_sub(&m)
        } else {
            v
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn prop_field_add_sub_neg_match_wide_arithmetic(
        a in operand(FIELD_PRIME),
        b in operand(FIELD_PRIME),
    ) {
        check_fe(&a, &b);
        check_fe(&a, &a);
    }

    #[test]
    fn prop_scalar_add_sub_neg_match_wide_arithmetic(
        a in operand(GROUP_ORDER),
        b in operand(GROUP_ORDER),
    ) {
        check_scalar(&a, &b);
        check_scalar(&a, &a);
    }
}
