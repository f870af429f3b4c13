//! Open-loop traffic: deterministic arrival processes, per-transaction
//! confirm-latency tracking, and a fixed-memory latency histogram.
//!
//! The closed-loop workload (the default) offers the round engine exactly
//! `txs_per_round` transactions every round — throughput is measured, but no
//! transaction ever *waits*, so confirm latency is meaningless. Open-loop
//! drive inverts that: users inject transactions at a configured rate in
//! **virtual time** (constant spacing or Poisson via the deterministic
//! HMAC-DRBG), arrivals queue in a backlog, and each round packs at most
//! `txs_per_round` of them. When the offered rate exceeds the round capacity
//! the backlog — and with it the confirm latency — grows without bound,
//! which is exactly the saturation knee the bench harness sweeps for.
//!
//! Everything here is a pure function of the configuration and the round
//! reports: no wall clock, no thread-dependent state. Latency distributions
//! are therefore byte-identical across worker counts and machines, which is
//! what lets `BENCH_latency.json` be gated exactly and the traffic scenarios
//! be golden-gated like every other scenario.
//!
//! The virtual clock: a round nominally spans [`nominal_round_duration`]
//! (derived from the latency profile, see there), and any extra simulated
//! stall the round accrued (`RoundReport::timeout_delays_us` — the 2Γ
//! recovery timeouts, quorum deadline slack) extends that round's window, so
//! faults genuinely delay confirmation and build backlog.

use std::collections::VecDeque;

use cycledger_crypto::fxhash::FxHashMap;
use cycledger_crypto::hmac::HmacDrbg;
use cycledger_ledger::transaction::TxId;
use cycledger_ledger::workload::GeneratedTx;
use cycledger_net::latency::LatencyConfig;
use cycledger_net::time::{SimDuration, SimTime};

/// Shape of the open-loop arrival process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalShape {
    /// Deterministic arrivals at exactly `1/rate` spacing.
    Constant,
    /// Poisson arrivals: exponential inter-arrival times drawn from the
    /// deterministic DRBG (inverse-CDF), so bursts and gaps occur at the
    /// configured mean rate.
    Poisson,
}

impl ArrivalShape {
    /// Stable lowercase name (TOML/report vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            ArrivalShape::Constant => "constant",
            ArrivalShape::Poisson => "poisson",
        }
    }

    /// Parses [`ArrivalShape::name`] output.
    pub fn from_name(name: &str) -> Option<ArrivalShape> {
        match name {
            "constant" => Some(ArrivalShape::Constant),
            "poisson" => Some(ArrivalShape::Poisson),
            _ => None,
        }
    }
}

/// Open-loop traffic configuration (`None` on [`crate::ProtocolConfig`]
/// keeps the historical closed-loop workload).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrafficConfig {
    /// Offered load: transaction arrivals per second of virtual time.
    pub rate_tps: f64,
    /// Arrival process shape.
    pub shape: ArrivalShape,
    /// Rounds whose confirmations are excluded from the aggregate latency
    /// histogram (the backlog needs a few rounds to reach steady state; the
    /// per-round traffic reports still cover every round).
    pub warmup_rounds: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            rate_tps: 100.0,
            shape: ArrivalShape::Constant,
            warmup_rounds: 0,
        }
    }
}

impl TrafficConfig {
    /// Validates the block; returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !self.rate_tps.is_finite() || self.rate_tps <= 0.0 {
            return Err(format!(
                "traffic rate_tps must be positive and finite, got {}",
                self.rate_tps
            ));
        }
        Ok(())
    }
}

/// Nominal virtual-time span of one round under a latency profile: `8Δ + 4Γ`.
///
/// Anchored on the committee deadlines: the vote-collection window is
/// `4Δ` ([`crate::phases::intra::vote_deadline`]) with one `Δ` for the
/// TXList announcement and ~3Δ for the certify/commit legs around it, and
/// the cross-shard list forward runs under the `4Γ` destination deadline
/// ([`crate::phases::inter::list_deadline`]). Defaults (Δ=50ms, Γ=200ms)
/// give 1.2s — i.e. a round capacity of `txs_per_round / 1.2` tps.
pub fn nominal_round_duration(latency: &LatencyConfig) -> SimDuration {
    latency.delta.times(8).plus(latency.gamma.times(4))
}

/// The analytic packing capacity of a configuration in transactions per
/// second of virtual time: `txs_per_round / nominal_round_duration`. Offered
/// rates above this saturate the backlog.
pub fn capacity_tps(txs_per_round: usize, latency: &LatencyConfig) -> f64 {
    txs_per_round as f64 / (nominal_round_duration(latency).as_micros() as f64 / 1_000_000.0)
}

/// Number of histogram buckets: values below 64µs get exact buckets, above
/// that 8 sub-buckets per power of two (≤12.5% relative width) up to `u64::MAX`.
const HISTOGRAM_BUCKETS: usize = 64 + (64 - 6) * 8;

/// Fixed-memory log-bucketed latency histogram (microsecond values).
///
/// Values below 64 get exact unit buckets; above that, each power-of-two
/// octave is split into 8 linear sub-buckets, so any reported percentile
/// overshoots the true order statistic by at most `true/8` (pinned against a
/// sorted-vector reference in the tests). Memory is a fixed 536-slot count
/// array regardless of how many samples are recorded — a 10k-round soak
/// costs the same as a 3-round smoke run.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    total: u64,
    max: u64,
    sum: u128,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; HISTOGRAM_BUCKETS],
            total: 0,
            max: 0,
            sum: 0,
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("total", &self.total)
            .field("max", &self.max)
            .finish()
    }
}

fn bucket_index(value: u64) -> usize {
    if value < 64 {
        return value as usize;
    }
    let octave = 63 - value.leading_zeros() as usize; // >= 6
    let sub = ((value >> (octave - 3)) & 7) as usize;
    64 + (octave - 6) * 8 + sub
}

fn bucket_upper_bound(index: usize) -> u64 {
    if index < 64 {
        return index as u64;
    }
    let octave = 6 + (index - 64) / 8;
    let sub = ((index - 64) % 8) as u128;
    // u128 arithmetic: the top octave's bound is 16 << 60 = 2^64, which
    // overflows u64 before the -1 brings it back in range.
    let upper = ((8 + sub + 1) << (octave - 3)) - 1;
    upper.min(u128::from(u64::MAX)) as u64
}

impl LatencyHistogram {
    /// Records one latency sample (µs).
    pub fn record(&mut self, micros: u64) {
        self.counts[bucket_index(micros)] += 1;
        self.total += 1;
        self.max = self.max.max(micros);
        self.sum += u128::from(micros);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the rank-`ceil(q·n)` sample (capped at the observed maximum),
    /// so the estimate never undershoots the true order statistic and
    /// overshoots it by at most 12.5%. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cumulative = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                return bucket_upper_bound(index).min(self.max);
            }
        }
        self.max
    }
}

/// Per-round open-loop traffic record, attached to the round's
/// [`crate::report::RoundReport`] (and folded into the canonical bytes as a
/// tagged extension block, so non-traffic runs keep their exact encoding).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficRoundReport {
    /// Arrivals injected into this round (valid and invalid submissions).
    pub injected: usize,
    /// Injected transactions that were invalid on arrival (rejected at
    /// admission; never tracked, never in the latency histogram).
    pub rejected_invalid: usize,
    /// Tracked transactions confirmed by this round's quorum-certified block.
    pub confirmed: usize,
    /// Tracked transactions injected but *not* packed this round (network
    /// faults, a committee without a certificate, a round without a block).
    /// Their inputs are respent by the workload (they expired), so they are
    /// recorded as **censored**, not dropped: the count is part of the
    /// canonical bytes and the scenario reports even though no latency
    /// sample exists for them.
    pub censored: usize,
    /// Arrivals still queued (not yet injected) after this round.
    pub backlog: usize,
    /// Virtual-time span of this round: nominal duration plus the round's
    /// simulated stall (`timeout_delays_us`).
    pub round_duration_us: u64,
    /// Sum of confirm latencies (µs) over this round's confirmations.
    pub latency_sum_us: u64,
    /// Largest confirm latency (µs) among this round's confirmations.
    pub max_latency_us: u64,
}

impl TrafficRoundReport {
    /// Appends the canonical byte encoding (8 u64 fields, declaration order).
    pub(crate) fn write_canonical_bytes(&self, out: &mut Vec<u8>) {
        for value in [
            self.injected as u64,
            self.rejected_invalid as u64,
            self.confirmed as u64,
            self.censored as u64,
            self.backlog as u64,
            self.round_duration_us,
            self.latency_sum_us,
            self.max_latency_us,
        ] {
            out.extend_from_slice(&value.to_be_bytes());
        }
    }
}

/// Aggregate view over a whole open-loop run, read by benches, invariants
/// and reports via [`crate::Simulation::traffic`].
#[derive(Clone, Debug)]
pub struct TrafficSnapshot {
    /// Total arrivals injected (valid + invalid).
    pub injected: u64,
    /// Invalid submissions rejected at admission.
    pub rejected_invalid: u64,
    /// Tracked transactions confirmed into quorum-certified blocks.
    pub confirmed: u64,
    /// Tracked transactions expired/respent without confirmation; see
    /// [`TrafficRoundReport::censored`].
    pub censored: u64,
    /// Arrivals still waiting in the backlog.
    pub backlog: u64,
    /// Virtual time elapsed across all completed rounds (µs).
    pub virtual_elapsed_us: u64,
    /// Δ of the run's latency profile (µs) — the SLO reporting unit.
    pub delta_us: u64,
    /// Confirm-latency percentiles (µs) over post-warmup confirmations.
    pub p50_us: u64,
    /// 99th percentile confirm latency (µs).
    pub p99_us: u64,
    /// 99.9th percentile confirm latency (µs).
    pub p999_us: u64,
    /// Largest confirm latency (µs).
    pub max_us: u64,
    /// Mean confirm latency (µs).
    pub mean_us: f64,
    /// Post-warmup confirmations in the histogram.
    pub samples: u64,
}

impl TrafficSnapshot {
    /// Confirmed throughput in transactions per second of virtual time
    /// (whole run, warmup included).
    pub fn sustained_tps(&self) -> f64 {
        if self.virtual_elapsed_us == 0 {
            return 0.0;
        }
        self.confirmed as f64 / (self.virtual_elapsed_us as f64 / 1_000_000.0)
    }

    /// A latency value in Δ units (the paper's synchrony parameter).
    pub fn in_delta(&self, micros: u64) -> f64 {
        if self.delta_us == 0 {
            return 0.0;
        }
        micros as f64 / self.delta_us as f64
    }

    /// p99 confirm latency in Δ units — the gated SLO.
    pub fn p99_delta(&self) -> f64 {
        self.in_delta(self.p99_us)
    }
}

/// The open-loop driver: owns the arrival process, the backlog and the
/// in-flight tracking table, and converts round completions into latency
/// samples. One per [`crate::Simulation`] when `config.traffic` is set.
pub struct OpenLoopDriver {
    config: TrafficConfig,
    nominal: SimDuration,
    delta_us: u64,
    drbg: HmacDrbg,
    /// End of the last completed round (start of the current one).
    now: SimTime,
    /// Timestamp of the next arrival not yet queued.
    next_arrival: SimTime,
    /// Arrival count so far (anchors constant spacing without drift).
    arrivals: u64,
    /// Arrival timestamps waiting to be injected, oldest first.
    backlog: VecDeque<SimTime>,
    /// Injected (valid) transactions awaiting confirmation, by id.
    in_flight: FxHashMap<TxId, SimTime>,
    histogram: LatencyHistogram,
    rounds_completed: u64,
    round_injected: usize,
    round_rejected_invalid: usize,
    total_injected: u64,
    total_rejected_invalid: u64,
    total_confirmed: u64,
    total_censored: u64,
}

impl OpenLoopDriver {
    /// Builds a driver for one simulation run. The arrival DRBG is seeded
    /// from the master seed under its own domain, so traffic randomness
    /// never correlates with sortition or workload randomness.
    pub fn new(config: TrafficConfig, latency: LatencyConfig, seed: u64) -> OpenLoopDriver {
        let mut driver = OpenLoopDriver {
            config,
            nominal: nominal_round_duration(&latency),
            delta_us: latency.delta.as_micros(),
            drbg: HmacDrbg::from_parts("cycledger/traffic", &[&seed.to_be_bytes()]),
            now: SimTime::ZERO,
            next_arrival: SimTime::ZERO,
            arrivals: 0,
            backlog: VecDeque::new(),
            in_flight: FxHashMap::default(),
            histogram: LatencyHistogram::default(),
            rounds_completed: 0,
            round_injected: 0,
            round_rejected_invalid: 0,
            total_injected: 0,
            total_rejected_invalid: 0,
            total_confirmed: 0,
            total_censored: 0,
        };
        driver.next_arrival = SimTime::ZERO.after(driver.next_interval());
        driver
    }

    /// Mean inter-arrival time in µs.
    fn mean_interval_us(&self) -> f64 {
        1_000_000.0 / self.config.rate_tps
    }

    /// Draws the next inter-arrival interval from the configured shape.
    fn next_interval(&mut self) -> SimDuration {
        let micros = match self.config.shape {
            ArrivalShape::Constant => {
                // Anchor on the arrival index, not on repeated addition, so
                // sub-µs rates never drift: t_k = k / rate.
                let next = ((self.arrivals + 1) as f64 * self.mean_interval_us()).round() as u64;
                let prev = (self.arrivals as f64 * self.mean_interval_us()).round() as u64;
                (next - prev).max(1)
            }
            ArrivalShape::Poisson => {
                // Inverse-CDF exponential draw; u in (0, 1].
                let u = ((self.drbg.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
                ((-u.ln()) * self.mean_interval_us()).round().max(1.0) as u64
            }
        };
        SimDuration::from_micros(micros)
    }

    /// Starts a round: queues every arrival that lands inside the predicted
    /// window (`now + nominal`; last round's stall already pushed `now`
    /// back, which is how faults stretch virtual time and build backlog) and
    /// returns how many transactions this round should offer — the queue
    /// head, capped by the round's packing capacity.
    pub fn begin_round(&mut self, capacity: usize) -> usize {
        let window_end = self.now.after(self.nominal);
        while self.next_arrival <= window_end {
            self.backlog.push_back(self.next_arrival);
            self.arrivals += 1;
            let interval = self.next_interval();
            self.next_arrival = self.next_arrival.after(interval);
        }
        self.backlog.len().min(capacity)
    }

    /// Registers the generated transactions against the oldest queued
    /// arrivals (FIFO). Valid transactions enter the in-flight table keyed
    /// by id; invalid submissions are rejected at admission and only
    /// counted. Must be called with exactly the batch whose size
    /// [`Self::begin_round`] returned.
    pub fn register_batch(&mut self, batch: &[GeneratedTx]) {
        for generated in batch {
            let arrival = self
                .backlog
                .pop_front()
                .expect("register_batch called with more txs than begin_round offered");
            self.total_injected += 1;
            self.round_injected += 1;
            if generated.kind.is_valid() {
                self.in_flight.insert(generated.tx.id(), arrival);
            } else {
                self.total_rejected_invalid += 1;
                self.round_rejected_invalid += 1;
            }
        }
    }

    /// Completes a round: advances the virtual clock by the nominal window
    /// plus the round's simulated stall, confirms every in-flight
    /// transaction `packed` admits (latency = round end − arrival), and
    /// records the rest — whose inputs the workload respends — as censored.
    pub fn complete_round(
        &mut self,
        stall_us: u64,
        packed: impl Fn(&TxId) -> bool,
    ) -> TrafficRoundReport {
        let round_duration = self.nominal.plus(SimDuration::from_micros(stall_us));
        let end = self.now.after(round_duration);
        let in_warmup = self.rounds_completed < self.config.warmup_rounds;

        let mut report = TrafficRoundReport {
            injected: std::mem::take(&mut self.round_injected),
            rejected_invalid: std::mem::take(&mut self.round_rejected_invalid),
            confirmed: 0,
            censored: 0,
            backlog: 0,
            round_duration_us: round_duration.as_micros(),
            latency_sum_us: 0,
            max_latency_us: 0,
        };

        // Resolve every in-flight transaction in deterministic (arrival,
        // id) order: iteration order of the map must never leak into the
        // latency sums.
        let mut resolved: Vec<(TxId, SimTime)> = self.in_flight.drain().collect();
        resolved.sort_unstable_by_key(|(id, arrival)| (*arrival, *id));
        for (id, arrival) in resolved {
            if packed(&id) {
                let latency = end.0.saturating_sub(arrival.0);
                report.confirmed += 1;
                report.latency_sum_us += latency;
                report.max_latency_us = report.max_latency_us.max(latency);
                self.total_confirmed += 1;
                if !in_warmup {
                    self.histogram.record(latency);
                }
            } else {
                report.censored += 1;
                self.total_censored += 1;
            }
        }

        self.now = end;
        self.rounds_completed += 1;
        report.backlog = self.backlog.len();
        report
    }

    /// Aggregate snapshot over every completed round.
    pub fn snapshot(&self) -> TrafficSnapshot {
        TrafficSnapshot {
            injected: self.total_injected,
            rejected_invalid: self.total_rejected_invalid,
            confirmed: self.total_confirmed,
            censored: self.total_censored,
            backlog: self.backlog.len() as u64,
            virtual_elapsed_us: self.now.0,
            delta_us: self.delta_us,
            p50_us: self.histogram.percentile(0.50),
            p99_us: self.histogram.percentile(0.99),
            p999_us: self.histogram.percentile(0.999),
            max_us: self.histogram.max(),
            mean_us: self.histogram.mean(),
            samples: self.histogram.count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotone_and_tight() {
        let mut last = 0;
        for v in (0..4096).chain([1 << 20, (1 << 20) + 1, u64::MAX - 1, u64::MAX]) {
            let idx = bucket_index(v);
            assert!(idx >= last || v < 64, "bucket index regressed at {v}");
            last = idx.max(last);
            let upper = bucket_upper_bound(idx);
            assert!(upper >= v, "upper bound {upper} below value {v}");
            // Relative overshoot of the bucket bound is at most 12.5%.
            assert!(
                upper - v <= v / 8 + 1,
                "bucket too wide at {v}: upper {upper}"
            );
        }
        assert!(bucket_index(u64::MAX) < HISTOGRAM_BUCKETS);
    }

    #[test]
    fn histogram_percentiles_match_a_sorted_vector_reference() {
        // Random samples from the deterministic DRBG across several scales;
        // every percentile estimate must bracket the true order statistic
        // within one bucket width (≤ 12.5% above, never below).
        let mut drbg = HmacDrbg::from_parts("cycledger/test/histogram", &[b"pin"]);
        for scale in [100u64, 10_000, 5_000_000] {
            let mut hist = LatencyHistogram::default();
            let mut samples = Vec::new();
            for _ in 0..5000 {
                let v = drbg.next_below(scale);
                hist.record(v);
                samples.push(v);
            }
            samples.sort_unstable();
            for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
                let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
                let truth = samples[rank - 1];
                let estimate = hist.percentile(q);
                assert!(
                    estimate >= truth,
                    "p{q} underestimates: {estimate} < {truth} (scale {scale})"
                );
                assert!(
                    estimate <= truth + truth / 8 + 1,
                    "p{q} overshoots a bucket: {estimate} vs {truth} (scale {scale})"
                );
            }
        }
    }

    #[test]
    fn histogram_is_empty_safe() {
        let hist = LatencyHistogram::default();
        assert_eq!(hist.percentile(0.99), 0);
        assert_eq!(hist.max(), 0);
        assert_eq!(hist.mean(), 0.0);
    }

    #[test]
    fn constant_arrivals_do_not_drift() {
        let mut driver = OpenLoopDriver::new(
            TrafficConfig {
                rate_tps: 3.0, // 333333.33µs spacing: drift-prone if accumulated
                shape: ArrivalShape::Constant,
                warmup_rounds: 0,
            },
            LatencyConfig::default(),
            7,
        );
        // Pump 30 virtual seconds of arrivals (the nominal window is 1.2s);
        // capacity 0 so nothing injects, complete_round advances the clock.
        for _ in 0..25 {
            driver.begin_round(0);
            driver.complete_round(0, |_| true);
        }
        // 25 windows * 1.2s * 3 tps = 90 arrivals, exact to rounding.
        assert_eq!(driver.arrivals, 90);
    }

    #[test]
    fn poisson_arrivals_hit_the_mean_rate() {
        let mut driver = OpenLoopDriver::new(
            TrafficConfig {
                rate_tps: 50.0,
                shape: ArrivalShape::Poisson,
                warmup_rounds: 0,
            },
            LatencyConfig::default(),
            7,
        );
        for _ in 0..200 {
            driver.begin_round(0);
            driver.complete_round(0, |_| true);
        }
        // 200 windows * 1.2s * 50 tps = 12000 expected arrivals; a Poisson
        // count's standard deviation is ~110, so ±5% is a >5σ-safe band.
        let expected = 12_000.0;
        assert!(
            (driver.arrivals as f64 - expected).abs() < expected * 0.05,
            "poisson arrival count {} too far from {expected}",
            driver.arrivals
        );
    }

    #[test]
    fn stall_extends_the_round_and_builds_backlog() {
        let config = TrafficConfig {
            rate_tps: 10.0,
            shape: ArrivalShape::Constant,
            warmup_rounds: 0,
        };
        let mut stalled = OpenLoopDriver::new(config, LatencyConfig::default(), 7);
        let mut clean = OpenLoopDriver::new(config, LatencyConfig::default(), 7);
        for round in 0..4 {
            stalled.begin_round(0); // capacity 0: nothing injected
            clean.begin_round(0);
            let stall = if round == 0 { 5_000_000 } else { 0 };
            stalled.complete_round(stall, |_| true);
            clean.complete_round(0, |_| true);
        }
        assert!(
            stalled.backlog.len() > clean.backlog.len(),
            "a stalled round must admit more arrivals into the backlog \
             ({} vs {})",
            stalled.backlog.len(),
            clean.backlog.len()
        );
        assert!(stalled.now > clean.now, "stall must advance virtual time");
    }

    #[test]
    fn capacity_tps_matches_the_nominal_window() {
        let latency = LatencyConfig::default(); // 8*50ms + 4*200ms = 1.2s
        let capacity = capacity_tps(60, &latency);
        assert!((capacity - 50.0).abs() < 1e-9, "60 tx / 1.2s = 50 tps");
    }
}
