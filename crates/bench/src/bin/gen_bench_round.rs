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

use cycledger_bench::bench_config;
use cycledger_protocol::config::ProtocolConfig;
use cycledger_protocol::Simulation;

#[global_allocator]
static ALLOC: alloccount::CountingAllocator = alloccount::CountingAllocator;

struct RoundSeries {
    rounds_per_sec: f64,
    allocations_per_round: f64,
    alloc_mib_per_round: f64,
    reallocations_per_round: f64,
    rounds_measured: u64,
}

/// Rounds every series counts allocations over (and the fewest it measures).
/// Rounds differ — buffers still grow, every second epoch-variant round
/// closes an epoch — so a per-round mean only repeats over a fixed span.
const ALLOC_ROUNDS: u64 = 16;

/// The benchmarked geometry: committees x committee size, plus the offered
/// transaction load per round.
#[derive(Clone, Copy)]
struct BenchSpec {
    committees: usize,
    committee_size: usize,
    txs_per_round: usize,
}

impl BenchSpec {
    fn parse(name: &str) -> Option<BenchSpec> {
        match name {
            "8x16" => Some(BenchSpec {
                committees: 8,
                committee_size: 16,
                txs_per_round: 400,
            }),
            "64x32" => Some(BenchSpec {
                committees: 64,
                committee_size: 32,
                txs_per_round: 10_000,
            }),
            _ => None,
        }
    }

    fn config(&self) -> ProtocolConfig {
        let mut config = bench_config(self.committees, self.committee_size, 4242);
        config.txs_per_round = self.txs_per_round;
        config
    }

    /// The epoch-lifecycle variant of the tracked config: an epoch boundary
    /// (beacon, churn, state sync, reshuffle) every second round, so half the
    /// measured rounds pay the full handover cost.
    fn epoch_config(&self) -> ProtocolConfig {
        let mut config = self.config();
        config.epoch_length = 2;
        config.joins_per_epoch = 2;
        config.leaves_per_epoch = 1;
        config
    }

    fn describe(&self) -> String {
        format!(
            "{} committees x {} members, {} txs/round, seed 4242, pow_difficulty 2",
            self.committees, self.committee_size, self.txs_per_round
        )
    }
}

/// Runs rounds for at least `min_secs` (at least [`ALLOC_ROUNDS`]) and
/// reports throughput over all of them plus per-round allocation activity
/// over the first [`ALLOC_ROUNDS`].
fn measure(mut config: ProtocolConfig, workers: usize, min_secs: f64) -> RoundSeries {
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
    let mut rounds = ALLOC_ROUNDS;
    while start.elapsed().as_secs_f64() < min_secs {
        sim.run_round();
        rounds += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let per_round = |count: u64| count as f64 / ALLOC_ROUNDS as f64;
    RoundSeries {
        rounds_per_sec: rounds as f64 / elapsed,
        allocations_per_round: per_round(d.allocations),
        alloc_mib_per_round: per_round(d.allocated_bytes) / (1024.0 * 1024.0),
        reallocations_per_round: per_round(d.reallocations),
        rounds_measured: rounds,
    }
}

fn print_series(label: &str, s: &RoundSeries, trailing_comma: bool) {
    println!("  \"{label}\": {{");
    println!("    \"rounds_per_sec\": {:.3},", s.rounds_per_sec);
    println!(
        "    \"allocations_per_round\": {:.0},",
        s.allocations_per_round
    );
    println!("    \"alloc_mib_per_round\": {:.2},", s.alloc_mib_per_round);
    println!(
        "    \"reallocations_per_round\": {:.0},",
        s.reallocations_per_round
    );
    println!("    \"rounds_measured\": {}", s.rounds_measured);
    println!("  }}{}", if trailing_comma { "," } else { "" });
}

/// Describes the epoch-lifecycle variant measured by `*_epoch` series.
const EPOCH_VARIANT: &str =
    "same geometry with epoch_length 2, joins_per_epoch 2, leaves_per_epoch 1 \
     (every second round closes an epoch: beacon, churn, state sync, reshuffle)";

fn usage() -> ! {
    eprintln!("usage: gen_bench_round [--smoke] [--config 8x16|64x32]");
    std::process::exit(2);
}

fn main() {
    assert!(
        alloccount::counting_enabled(),
        "bench must be built with the alloccount `count` feature"
    );

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

    if smoke {
        // CI perf gate: a short measured run of the tracked config at one
        // worker, plus the epoch-lifecycle variant (boundary every second
        // round, so half the measured rounds pay beacon + churn + state
        // sync + reshuffle). scripts/perf_gate.py compares rounds_per_sec
        // and allocations_per_round of both series against the committed
        // BENCH_round.json and fails the job on >20% regression. The plain
        // config is measured once more at the machine's parallelism; the
        // gate wants that series >= 1.25x the one-worker one.
        let s = measure(spec.config(), 1, 0.0);
        let e = measure(spec.epoch_config(), 1, 0.0);
        assert!(
            s.allocations_per_round > 0.0,
            "counting allocator saw no allocations"
        );
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!("{{");
        println!("  \"bench_config\": \"{}\",", spec.describe());
        println!("  \"epoch_bench_config\": \"{EPOCH_VARIANT}\",");
        println!("  \"parallel_workers\": {cores},");
        print_series("smoke_1_worker", &s, true);
        if cores > 1 {
            // Fastest of three short runs: a busy neighbour, or a scheduler
            // that leaves a fresh pool on the driver's CPU for a second, only
            // ever adds time, while a phase gone serial is slow in all three.
            let p = (0..3)
                .map(|_| measure(spec.config(), cores, 0.0))
                .max_by(|a, b| a.rounds_per_sec.total_cmp(&b.rounds_per_sec))
                .expect("three runs");
            print_series(&format!("smoke_{cores}_workers"), &p, true);
        }
        print_series("smoke_epoch_1_worker", &e, false);
        println!("}}");
        return;
    }

    let parallel_workers = std::thread::available_parallelism()
        .map(|n| n.get().max(4))
        .unwrap_or(4);
    let one = measure(spec.config(), 1, 3.0);
    let many = measure(spec.config(), parallel_workers, 3.0);
    let one_epoch = measure(spec.epoch_config(), 1, 3.0);

    println!("{{");
    println!("  \"bench_config\": \"{}\",", spec.describe());
    println!("  \"epoch_bench_config\": \"{EPOCH_VARIANT}\",");
    print_series("one_worker", &one, true);
    print_series(&format!("{parallel_workers}_workers"), &many, true);
    print_series("one_worker_epoch", &one_epoch, false);
    println!("}}");
}
