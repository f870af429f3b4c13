//! Emits `BENCH_latency.json`-shaped numbers for the open-loop traffic
//! harness: confirm-latency percentiles and the saturation knee of the
//! tracked geometry, swept across offered rates expressed as fractions of
//! the analytic round capacity (`txs_per_round / (8Δ + 4Γ)`).
//!
//! Unlike `gen_bench_round`, every number here is measured in **virtual
//! time**: arrivals are timestamped on the simulated clock and confirm
//! latency is the virtual span from injection to quorum-certified block
//! inclusion. The output is therefore fully deterministic — independent of
//! host speed and load — and a drift against the committed baseline means
//! the *protocol* changed (packing, round pacing, recovery stalls), never
//! the machine. `scripts/perf_gate.py --latency` gates the tracked p99 and
//! the saturated throughput against `BENCH_latency.json`.
//!
//! Flags:
//!
//! * `--config 8x16|64x32` — committee geometry (default `8x16`, the
//!   tracked config at 400 txs/round ≈ 333 tps of capacity).
//! * `--smoke` — CI mode: a shorter sweep (fewer rates, fewer rounds per
//!   point) that still spans under-capacity through overload.
//!
//! Run with `cargo run --release -p cycledger-bench --bin gen_bench_latency`;
//! the JSON is printed to stdout so it can be redirected into
//! `BENCH_latency.json` at the repository root.

use cycledger_bench::bench_config;
use cycledger_protocol::config::ProtocolConfig;
use cycledger_protocol::traffic::{capacity_tps, ArrivalShape, TrafficConfig, TrafficSnapshot};
use cycledger_protocol::Simulation;

/// The swept geometry: committees x committee size, with the per-round
/// offered load inherited from [`bench_config`] (50 txs per committee).
#[derive(Clone, Copy)]
struct BenchSpec {
    committees: usize,
    committee_size: usize,
}

impl BenchSpec {
    fn parse(name: &str) -> Option<BenchSpec> {
        match name {
            "8x16" => Some(BenchSpec {
                committees: 8,
                committee_size: 16,
            }),
            "64x32" => Some(BenchSpec {
                committees: 64,
                committee_size: 32,
            }),
            _ => None,
        }
    }

    fn config(&self) -> ProtocolConfig {
        bench_config(self.committees, self.committee_size, 4242)
    }

    fn describe(&self, capacity: f64) -> String {
        let config = self.config();
        format!(
            "{} committees x {} members, {} txs/round, seed 4242, constant arrivals, \
             warmup 2 rounds, capacity {:.1} tps",
            self.committees, self.committee_size, config.txs_per_round, capacity
        )
    }
}

/// One measured point of the rate sweep.
struct SweepPoint {
    offered_tps: f64,
    snapshot: TrafficSnapshot,
}

impl SweepPoint {
    /// The point "keeps up" when confirmed throughput tracks the offered
    /// rate net of the deliberately-invalid fraction (5% in bench_config),
    /// with a small allowance for round-boundary effects.
    fn keeps_up(&self) -> bool {
        self.snapshot.sustained_tps() >= 0.9 * self.offered_tps
    }
}

/// Runs `rounds` open-loop rounds at the offered rate and snapshots the
/// traffic counters. Virtual-time determinism makes one pass sufficient.
fn measure(spec: &BenchSpec, rate_tps: f64, rounds: usize) -> SweepPoint {
    let mut config = spec.config();
    config.traffic = Some(TrafficConfig {
        rate_tps,
        shape: ArrivalShape::Constant,
        warmup_rounds: 2,
    });
    let mut sim = Simulation::new(config).expect("valid bench config");
    for _ in 0..rounds {
        sim.run_round();
    }
    let snapshot = sim.traffic().expect("open-loop run has a traffic snapshot");
    SweepPoint {
        offered_tps: rate_tps,
        snapshot,
    }
}

fn print_point(point: &SweepPoint, trailing_comma: bool) {
    let s = &point.snapshot;
    println!("    {{");
    println!("      \"offered_tps\": {:.3},", point.offered_tps);
    println!("      \"sustained_tps\": {:.3},", s.sustained_tps());
    println!("      \"backlog\": {},", s.backlog);
    println!("      \"p50_us\": {},", s.p50_us);
    println!("      \"p99_us\": {},", s.p99_us);
    println!("      \"p999_us\": {},", s.p999_us);
    println!("      \"p99_delta\": {:.3},", s.p99_delta());
    println!("      \"samples\": {}", s.samples);
    println!("    }}{}", if trailing_comma { "," } else { "" });
}

fn usage() -> ! {
    eprintln!("usage: gen_bench_latency [--smoke] [--config 8x16|64x32]");
    std::process::exit(2);
}

fn main() {
    let mut smoke = false;
    let mut spec = BenchSpec::parse("8x16").unwrap();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--config" => {
                let name = args.next().unwrap_or_else(|| usage());
                spec = BenchSpec::parse(&name).unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }

    let config = spec.config();
    let capacity = capacity_tps(config.txs_per_round, &config.latency);
    // Fractions of analytic capacity: under-provisioned through 1.5×
    // overload. The smoke sweep keeps the span but thins the points.
    let (fractions, rounds): (&[f64], usize) = if smoke {
        (&[0.25, 0.5, 0.9, 1.5], 8)
    } else {
        (&[0.25, 0.5, 0.75, 0.9, 1.1, 1.5], 20)
    };

    let points: Vec<SweepPoint> = fractions
        .iter()
        .map(|f| measure(&spec, f * capacity, rounds))
        .collect();

    // The knee: the last swept rate the pipeline keeps up with. Past it,
    // the backlog grows without bound and waiting time diverges, while
    // confirmed throughput plateaus at the saturated rate.
    let knee = points
        .iter()
        .rev()
        .find(|p| p.keeps_up())
        .unwrap_or(&points[0]);
    let saturated_tps = points
        .iter()
        .map(|p| p.snapshot.sustained_tps())
        .fold(0.0f64, f64::max);
    // The tracked SLO point: the highest under-capacity rate (0.9×), whose
    // p99 the perf gate pins.
    let tracked = points
        .iter()
        .rfind(|p| p.offered_tps <= 0.95 * capacity)
        .expect("sweep includes an under-capacity point");

    println!("{{");
    println!("  \"bench_config\": \"{}\",", spec.describe(capacity));
    println!("  \"capacity_tps\": {capacity:.3},");
    println!("  \"sweep\": [");
    for (i, point) in points.iter().enumerate() {
        print_point(point, i + 1 < points.len());
    }
    println!("  ],");
    println!("  \"tracked\": {{");
    println!("    \"offered_tps\": {:.3},", tracked.offered_tps);
    println!("    \"p50_us\": {},", tracked.snapshot.p50_us);
    println!("    \"p99_us\": {},", tracked.snapshot.p99_us);
    println!("    \"p999_us\": {},", tracked.snapshot.p999_us);
    println!("    \"p99_delta\": {:.3}", tracked.snapshot.p99_delta());
    println!("  }},");
    println!("  \"knee_offered_tps\": {:.3},", knee.offered_tps);
    println!("  \"saturated_tps\": {saturated_tps:.3}");
    println!("}}");
}
