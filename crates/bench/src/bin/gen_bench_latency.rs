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

use cycledger_bench::{Args, Flag, Geometry, Json};
use cycledger_protocol::traffic::{capacity_tps, ArrivalShape, TrafficConfig, TrafficSnapshot};
use cycledger_protocol::Simulation;

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

    fn json(&self) -> Json {
        let s = &self.snapshot;
        Json::obj([
            ("offered_tps", Json::Num(self.offered_tps, 3)),
            ("sustained_tps", Json::Num(s.sustained_tps(), 3)),
            ("backlog", Json::Int(s.backlog)),
            ("p50_us", Json::Int(s.p50_us)),
            ("p99_us", Json::Int(s.p99_us)),
            ("p999_us", Json::Int(s.p999_us)),
            ("p99_delta", Json::Num(s.p99_delta(), 3)),
            ("samples", Json::Int(s.samples)),
        ])
    }
}

/// Runs `rounds` open-loop rounds of the geometry (its offered load per
/// round from `bench_config`, 50 txs per committee) at the offered rate
/// and snapshots the traffic counters. Virtual-time determinism makes one
/// pass sufficient.
fn measure(geometry: Geometry, rate_tps: f64, rounds: usize) -> SweepPoint {
    let mut config = geometry.config();
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

fn main() {
    let args = Args::parse("gen_bench_latency", &[Flag::Smoke, Flag::Config]);
    let config = args.geometry.config();
    let capacity = capacity_tps(config.txs_per_round, &config.latency);
    // Fractions of analytic capacity: under-provisioned through 1.5×
    // overload. The smoke sweep keeps the span but thins the points.
    let (fractions, rounds): (&[f64], usize) = if args.smoke {
        (&[0.25, 0.5, 0.9, 1.5], 8)
    } else {
        (&[0.25, 0.5, 0.75, 0.9, 1.1, 1.5], 20)
    };

    let points: Vec<SweepPoint> = fractions
        .iter()
        .map(|f| measure(args.geometry, f * capacity, rounds))
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

    let doc = Json::obj([
        (
            "bench_config",
            Json::Str(format!(
                "{} committees x {} members, {} txs/round, seed 4242, constant arrivals, \
                 warmup 2 rounds, capacity {:.1} tps",
                config.committees, config.committee_size, config.txs_per_round, capacity
            )),
        ),
        ("capacity_tps", Json::Num(capacity, 3)),
        (
            "sweep",
            Json::Arr(points.iter().map(SweepPoint::json).collect()),
        ),
        (
            "tracked",
            Json::obj([
                ("offered_tps", Json::Num(tracked.offered_tps, 3)),
                ("p50_us", Json::Int(tracked.snapshot.p50_us)),
                ("p99_us", Json::Int(tracked.snapshot.p99_us)),
                ("p999_us", Json::Int(tracked.snapshot.p999_us)),
                ("p99_delta", Json::Num(tracked.snapshot.p99_delta(), 3)),
            ]),
        ),
        ("knee_offered_tps", Json::Num(knee.offered_tps, 3)),
        ("saturated_tps", Json::Num(saturated_tps, 3)),
    ]);
    println!("{doc}");
}
