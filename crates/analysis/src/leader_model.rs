//! Throughput under dishonest leaders: CycLedger's recovery vs. prior protocols.
//!
//! Table I's "High Efficiency w.r.t. Dishonest Leaders" row and §I's motivation
//! ("in expectation, a proportion of 1/3 leaders are malicious in a round; under
//! this condition cross-shard transactions may hardly be included in a block")
//! compare two designs:
//!
//! * **No recovery** (Elastico/OmniLedger/RapidChain model): a committee whose
//!   leader misbehaves contributes nothing this round.
//! * **Recovery** (CycLedger): the partial set detects the faulty leader, a new
//!   leader is installed, and the committee still contributes (at the cost of
//!   one extra intra-committee consensus and a `2Γ` delay).
//!
//! `BENCH_paper.json`'s `recovery` block prints this model beside what the
//! simulator packs with k dishonest first-round leaders, recovery on.

/// Expected fraction of per-round throughput retained when a fraction
/// `malicious_leader_fraction` of committees has a faulty leader.
///
/// * Without recovery the committee's transactions are lost for the round.
/// * With recovery the committee still delivers, but its share is discounted by
///   `recovery_discount` (extra latency eats into the fixed round time `T`).
pub fn expected_throughput_fraction(
    malicious_leader_fraction: f64,
    recovery: bool,
    recovery_discount: f64,
) -> f64 {
    assert!((0.0..=1.0).contains(&malicious_leader_fraction));
    assert!((0.0..=1.0).contains(&recovery_discount));
    if recovery {
        (1.0 - malicious_leader_fraction) + malicious_leader_fraction * (1.0 - recovery_discount)
    } else {
        1.0 - malicious_leader_fraction
    }
}

/// Sweeps leader-corruption fractions and returns `(fraction, without, with)`
/// triples: the `model_series` of `BENCH_paper.json`'s `recovery` block.
pub fn recovery_comparison_series(
    points: usize,
    max_fraction: f64,
    recovery_discount: f64,
) -> Vec<(f64, f64, f64)> {
    assert!(points >= 2);
    (0..points)
        .map(|i| {
            let f = max_fraction * i as f64 / (points - 1) as f64;
            (
                f,
                expected_throughput_fraction(f, false, recovery_discount),
                expected_throughput_fraction(f, true, recovery_discount),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_leaders_lose_nothing() {
        assert_eq!(expected_throughput_fraction(0.0, false, 0.1), 1.0);
        assert_eq!(expected_throughput_fraction(0.0, true, 0.1), 1.0);
    }

    #[test]
    fn one_third_malicious_leaders_matches_paper_motivation() {
        // Without recovery, a third of the committees stall: ~67% throughput.
        let without = expected_throughput_fraction(1.0 / 3.0, false, 0.1);
        assert!((without - 2.0 / 3.0).abs() < 1e-9);
        // With recovery, CycLedger retains >95% throughput at a 10% discount.
        let with = expected_throughput_fraction(1.0 / 3.0, true, 0.1);
        assert!(with > 0.95);
    }

    #[test]
    fn recovery_always_dominates_no_recovery() {
        for i in 0..=10 {
            let f = i as f64 / 20.0;
            for d in [0.0, 0.1, 0.3] {
                assert!(
                    expected_throughput_fraction(f, true, d)
                        >= expected_throughput_fraction(f, false, d) - 1e-12
                );
            }
        }
    }

    #[test]
    fn series_shape() {
        let series = recovery_comparison_series(11, 0.5, 0.2);
        assert_eq!(series.len(), 11);
        assert_eq!(series[0].0, 0.0);
        assert!((series[10].0 - 0.5).abs() < 1e-12);
        // The gap between with/without recovery widens with the corruption rate.
        let gap_start = series[1].2 - series[1].1;
        let gap_end = series[10].2 - series[10].1;
        assert!(gap_end > gap_start);
    }

    #[test]
    #[should_panic]
    fn invalid_fraction_panics() {
        expected_throughput_fraction(1.5, true, 0.1);
    }
}
