//! Emits `BENCH_round.json`-shaped numbers for the round-engine data plane:
//! rounds/sec and heap allocations/round, at 1 worker and at the machine's
//! parallelism.
//!
//! Flags:
//!
//! * `--config 8x16|64x32` — committee geometry. `8x16` (default) is the
//!   standard tracked config (400 txs/round); `64x32` is the large-scale
//!   profile at 10 000 txs/round.
//! * `--smoke` — CI perf-gate mode: short measured runs at 1 worker — the
//!   plain config and the epoch-lifecycle variant (boundary every second
//!   round) — whose `rounds_per_sec` / `allocations_per_round` are compared
//!   against the committed `BENCH_round.json` by `scripts/perf_gate.py`,
//!   plus the plain config at the machine's parallelism (`parallel_workers`,
//!   series `smoke_N_workers`, the fastest of three short runs; left out on
//!   a one-core machine). The gate
//!   takes the ratio of the two plain series measured in this one run, so a
//!   phase that silently goes serial again fails CI on a runner of any speed.
//!
//! The binary installs [`alloccount::CountingAllocator`] as the global
//! allocator (built with counting enabled), so the reported allocation counts
//! cover every heap allocation the round engine performs — worker threads
//! included. They are taken over the first [`ALLOC_ROUNDS`] measured rounds
//! of every series, whatever the wall-clock window went on to hold, so a
//! one-worker count repeats exactly from run to run and machine to machine.
//!
//! Run with `cargo run --release -p cycledger-bench --bin gen_bench_round`;
//! the JSON is printed to stdout so it can be redirected into the relevant
//! block of `BENCH_round.json` at the repository root.

use std::time::Instant;

use cycledger_bench::{Args, Flag, Geometry, Json};
use cycledger_protocol::config::ProtocolConfig;
use cycledger_protocol::Simulation;

#[global_allocator]
static ALLOC: alloccount::CountingAllocator = alloccount::CountingAllocator;

/// Rounds every series counts allocations over (and the fewest it measures).
/// Rounds differ — buffers still grow, every second epoch-variant round
/// closes an epoch — so a per-round mean only repeats over a fixed span.
const ALLOC_ROUNDS: u64 = 16;

/// The tracked config at a geometry: 50 txs per committee, except the
/// large-scale profile's 10 000 txs/round.
fn config(geometry: Geometry) -> ProtocolConfig {
    let mut config = geometry.config();
    if geometry == Geometry::LARGE {
        config.txs_per_round = 10_000;
    }
    config
}

/// The epoch-lifecycle variant of a config: an epoch boundary (beacon,
/// churn, state sync, reshuffle) every second round, so half the measured
/// rounds pay the full handover cost.
fn epoch_variant(mut config: ProtocolConfig) -> ProtocolConfig {
    config.epoch_length = 2;
    config.joins_per_epoch = 2;
    config.leaves_per_epoch = 1;
    config
}

/// Runs rounds for at least `min_secs` (at least [`ALLOC_ROUNDS`]) and
/// returns the rounds per second over all of them, and the series: that
/// throughput plus per-round allocation activity over the first
/// [`ALLOC_ROUNDS`].
fn measure(mut config: ProtocolConfig, workers: usize, min_secs: f64) -> (f64, Json) {
    config.worker_threads = workers;
    let mut sim = Simulation::new(config).expect("valid bench config");
    // Warm-up round: lazy crypto tables, executor spin-up, genesis state.
    sim.run_round();

    let start_alloc = alloccount::snapshot();
    let start = Instant::now();
    for _ in 0..ALLOC_ROUNDS {
        sim.run_round();
    }
    let d = alloccount::snapshot().since(&start_alloc);
    assert!(d.allocations > 0, "counting allocator saw no allocations");
    let mut rounds = ALLOC_ROUNDS;
    while start.elapsed().as_secs_f64() < min_secs {
        sim.run_round();
        rounds += 1;
    }
    let rounds_per_sec = rounds as f64 / start.elapsed().as_secs_f64();
    let per_round = |count: u64| count as f64 / ALLOC_ROUNDS as f64;
    let series = Json::obj([
        ("rounds_per_sec", Json::Num(rounds_per_sec, 3)),
        (
            "allocations_per_round",
            Json::Num(per_round(d.allocations), 0),
        ),
        (
            "alloc_mib_per_round",
            Json::Num(per_round(d.allocated_bytes) / (1024.0 * 1024.0), 2),
        ),
        (
            "reallocations_per_round",
            Json::Num(per_round(d.reallocations), 0),
        ),
        ("rounds_measured", Json::Int(rounds)),
    ]);
    (rounds_per_sec, series)
}

/// Describes the epoch-lifecycle variant measured by `*_epoch` series.
const EPOCH_VARIANT: &str =
    "same geometry with epoch_length 2, joins_per_epoch 2, leaves_per_epoch 1 \
     (every second round closes an epoch: beacon, churn, state sync, reshuffle)";

fn main() {
    assert!(
        alloccount::counting_enabled(),
        "bench must be built with the alloccount `count` feature"
    );
    let args = Args::parse("gen_bench_round", &[Flag::Smoke, Flag::Config]);
    let plain = config(args.geometry);
    let epoch = epoch_variant(plain);
    let mut doc = vec![
        (
            "bench_config".to_string(),
            Json::Str(format!(
                "{} committees x {} members, {} txs/round, seed 4242, pow_difficulty 2",
                plain.committees, plain.committee_size, plain.txs_per_round
            )),
        ),
        ("epoch_bench_config".into(), Json::Str(EPOCH_VARIANT.into())),
    ];

    if args.smoke {
        // CI perf gate: a short measured run of the tracked config at one
        // worker, plus the epoch-lifecycle variant (boundary every second
        // round, so half the measured rounds pay beacon + churn + state
        // sync + reshuffle). scripts/perf_gate.py compares rounds_per_sec
        // and allocations_per_round of both series against the committed
        // BENCH_round.json and fails the job on a >20% regression of the
        // one, a >1% regression of the other or a count >5% below the
        // committed one (a baseline nobody re-recorded). The plain
        // config is measured once more at the machine's parallelism; the
        // gate wants that series >= 1.25x the one-worker one.
        let (_, s) = measure(plain, 1, 0.0);
        let (_, e) = measure(epoch, 1, 0.0);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        doc.push(("parallel_workers".into(), Json::Int(cores as u64)));
        doc.push(("smoke_1_worker".into(), s));
        if cores > 1 {
            // Fastest of three short runs: a busy neighbour, or a scheduler
            // that leaves a fresh pool on the driver's CPU for a second, only
            // ever adds time, while a phase gone serial is slow in all three.
            let (_, p) = (0..3)
                .map(|_| measure(plain, cores, 0.0))
                .max_by(|a, b| a.0.total_cmp(&b.0))
                .expect("three runs");
            doc.push((format!("smoke_{cores}_workers"), p));
        }
        doc.push(("smoke_epoch_1_worker".into(), e));
    } else {
        let parallel_workers = std::thread::available_parallelism()
            .map(|n| n.get().max(4))
            .unwrap_or(4);
        let (_, one) = measure(plain, 1, 3.0);
        let (_, many) = measure(plain, parallel_workers, 3.0);
        let (_, one_epoch) = measure(epoch, 1, 3.0);
        doc.push(("one_worker".into(), one));
        doc.push((format!("{parallel_workers}_workers"), many));
        doc.push(("one_worker_epoch".into(), one_epoch));
    }
    println!("{}", Json::Obj(doc));
}
