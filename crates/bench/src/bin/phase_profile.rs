//! Per-phase wall-clock profile of the round engine at the standard 8x16
//! bench configuration: runs a few rounds with a timing [`RoundObserver`]
//! attached and prints where the round's time goes — every phase at one
//! worker and at `--workers N` side by side, with the ratio between them.
//! A phase that runs on the driver thread reads 1.00x at a glance; an
//! executor batch approaches the machine's parallelism. This is the tool
//! that located the data-plane hot spots (inter-consensus message churn,
//! latency DRBG instantiation, signature generation, and the three phases
//! that were still serial loops over committees) — keep it handy before
//! chasing the next bottleneck.
//!
//! Run with `cargo run --release -p cycledger-bench --bin phase_profile`;
//! flags: `--workers N` (default 4), `--rounds N` (default 5),
//! `--verify on|off` (default on — the tracked, verified config).
use std::collections::BTreeMap;
use std::time::Instant;

use cycledger_bench::bench_config;
use cycledger_protocol::engine::{RoundContext, RoundObserver};
use cycledger_protocol::Simulation;

#[derive(Default)]
struct Prof {
    start: Option<Instant>,
    totals: BTreeMap<&'static str, f64>,
}

impl RoundObserver for Prof {
    fn on_phase_start(&mut self, _phase: &'static str, _ctx: &RoundContext<'_>) {
        self.start = Some(Instant::now());
    }
    fn on_phase_end(&mut self, phase: &'static str, _ctx: &RoundContext<'_>) {
        let dt = self.start.take().unwrap().elapsed().as_secs_f64();
        *self.totals.entry(phase).or_default() += dt;
    }
}

/// Total wall seconds and per-phase seconds of one profiled run.
type Profile = (f64, Prof);

/// Profiles `rounds` rounds and returns (total wall seconds, per-phase
/// seconds). The warm-up round is excluded from both.
fn profile(workers: usize, verify: bool, rounds: u64) -> Profile {
    let mut config = bench_config(8, 16, 4242);
    config.worker_threads = workers;
    config.verify_signatures = verify;
    let mut sim = Simulation::new(config).unwrap();
    sim.run(1);
    let mut prof = Prof::default();
    let t = Instant::now();
    for _ in 0..rounds {
        sim.run_round_observed(&mut prof);
    }
    (t.elapsed().as_secs_f64(), prof)
}

/// Prints the two profiles side by side in milliseconds per round, with the
/// one-worker / N-worker ratio of every row.
fn report(one: &Profile, many: &Profile, workers: usize, rounds: u64) {
    let per_round = |secs: f64| secs * 1e3 / rounds as f64;
    let row = |label: &str, a: f64, b: f64| {
        // A phase absent (or unmeasurably short) at N workers has no ratio.
        let ratio = if b > 0.0 {
            format!("{:.2}x", a / b)
        } else {
            "-".to_string()
        };
        println!(
            "{label:28} {:9.2} {:9.2} {ratio:>8}",
            per_round(a),
            per_round(b)
        );
    };
    println!(
        "{:28} {:>9} {:>9} {:>8}",
        "ms per round",
        "1 worker",
        format!("{workers} workers"),
        "ratio"
    );
    let of = |p: &Profile, phase: &str| p.1.totals.get(phase).copied().unwrap_or(0.0);
    for (phase, &a) in &one.1.totals {
        row(phase, a, of(many, phase));
    }
    let outside = |p: &Profile| p.0 - p.1.totals.values().sum::<f64>();
    row("outside phases", outside(one), outside(many));
    row("round", one.0, many.0);
}

fn main() {
    let mut workers = 4usize;
    let mut rounds = 5u64;
    let mut verify = true;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--workers N")
            }
            "--rounds" => {
                rounds = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--rounds N")
            }
            "--verify" => match args.next().as_deref() {
                Some("on") => verify = true,
                Some("off") => verify = false,
                _ => panic!("--verify on|off"),
            },
            other => panic!("unknown flag {other}"),
        }
    }

    let one = profile(1, verify, rounds);
    let many = profile(workers, verify, rounds);
    report(&one, &many, workers, rounds);
}
