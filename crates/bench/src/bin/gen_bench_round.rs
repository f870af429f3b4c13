//! Emits `BENCH_round.json`-shaped numbers for the round-engine data plane:
//! rounds/sec, heap allocations/round and envelopes (messages and bytes
//! sent)/round. After one warm-up round, each series measures
//! [`ROUNDS`] rounds: the plain config at one worker (`one_worker`),
//! the epoch-lifecycle variant at one worker (`one_worker_epoch`, a
//! boundary every second round), and the plain config at the machine's
//! parallelism (`parallel`, with `parallel_workers` beside it; left out on
//! a one-core machine). The plain config runs three one-worker and three
//! parallel series, alternated, and `parallel_speedup` is the median of the
//! three pairs' parallel-over-one-worker ratios, each pair taken back to
//! back so that the host's speed is about the same on both sides of it;
//! `one_worker` and `parallel` are the runs of median rounds/sec (their
//! counts repeat from run to run).
//! `scripts/perf_gate.py` runs this binary and gates each series' fields
//! against the same key under `BENCH_round.json`'s `verified` block, and
//! `parallel_speedup` against a floor: a ratio within one run, so a phase
//! that silently goes serial again fails on a runner of any speed.
//!
//! `--config 8x16|64x32` picks the committee geometry: `8x16` (default) is
//! the tracked config (400 txs/round), `64x32` the large-scale profile at
//! 10 000 txs/round.
//!
//! Built with `--features opcount`, every one-worker series also carries
//! `opcount`: per-round totals, over the same rounds, of the operations
//! `cycledger_crypto::opcount` tallies — field multiplications and
//! squarings, inversions, doublings, mixed additions, batched affine
//! additions, SHA-256 compressions,
//! DRBG instantiations, signatures verified singly and in batches, memo
//! lookups, envelopes, latency draws, VRF evaluations and VRF proofs
//! checked. At one worker every task runs on the driver
//! thread, whose tally this is (the workload's draw-ahead thread is not
//! counted), so the counts repeat exactly; `scripts/perf_gate.py --counts`
//! gates `one_worker`'s against `BENCH_round.json`.
//!
//! The binary installs [`alloccount::CountingAllocator`] as the global
//! allocator (built with counting enabled), so the reported allocation counts
//! cover every heap allocation the round engine performs — worker threads
//! included. They are taken over the [`ROUNDS`] measured rounds of
//! every series, so a one-worker count repeats exactly from run to run and
//! machine to machine.
//! The envelope counts are summed from the same rounds' reports
//! (`RoundReport::metrics`, every accounting phase); they are virtual, so
//! they repeat at any worker count. So does `batches_per_round`, the
//! executor barriers of the same rounds: the executor counts a batch it
//! runs inline like one it hands to its workers.
//!
//! Run with `cargo run --release -p cycledger-bench --bin gen_bench_round`;
//! the JSON is printed to stdout so it can be redirected into the relevant
//! block of `BENCH_round.json` at the repository root.

use std::time::Instant;

use cycledger_bench::{bench_config, Json};
use cycledger_net::metrics::Phase;
use cycledger_protocol::config::ProtocolConfig;
use cycledger_protocol::Simulation;

#[global_allocator]
static ALLOC: alloccount::CountingAllocator = alloccount::CountingAllocator;

/// Rounds every series measures, after its warm-up round. Rounds differ —
/// buffers still grow, every second epoch-variant round closes an epoch —
/// so a per-round mean only repeats over a fixed span.
const ROUNDS: u64 = 16;

/// The config `--config` names: `8x16`, the tracked config and the default
/// (50 txs per committee), or `64x32`, the large-scale profile at 10 000
/// txs/round; seed 4242. Any other argument prints the usage line and exits
/// with status 2.
fn config_from_args() -> ProtocolConfig {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] | ["--config", "8x16"] => bench_config(8, 16, 4242),
        ["--config", "64x32"] => ProtocolConfig {
            txs_per_round: 10_000,
            ..bench_config(64, 32, 4242)
        },
        _ => {
            eprintln!("usage: gen_bench_round [--config 8x16|64x32]");
            std::process::exit(2);
        }
    }
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

/// Runs one warm-up round and then [`ROUNDS`] measured ones at
/// `workers`, and returns their rounds per second and the series: that
/// throughput plus per-round allocation activity, envelopes sent and
/// executor batches.
fn measure(mut config: ProtocolConfig, workers: usize) -> (f64, Json) {
    config.worker_threads = workers;
    let mut sim = Simulation::new(config).expect("valid bench config");
    // Warm-up round: lazy crypto tables, executor spin-up, genesis state.
    sim.run_round();

    let start_batches = sim.executor().batches_executed();
    #[cfg(feature = "opcount")]
    let start_ops = cycledger_crypto::opcount::current();
    let start_alloc = alloccount::snapshot();
    let start = Instant::now();
    for _ in 0..ROUNDS {
        sim.run_round();
    }
    let rounds_per_sec = ROUNDS as f64 / start.elapsed().as_secs_f64();
    let d = alloccount::snapshot().since(&start_alloc);
    #[cfg(feature = "opcount")]
    let ops = op_counts(&start_ops, &cycledger_crypto::opcount::current());
    let batches = (sim.executor().batches_executed() - start_batches) as u64;
    assert!(d.allocations > 0, "counting allocator saw no allocations");
    let sent = sim.reports()[1..].iter().flat_map(|report| {
        let metrics = &report.metrics;
        Phase::ALL.map(|phase| metrics.phase_total(phase))
    });
    let (messages, bytes) = sent.fold((0, 0), |(messages, bytes), total| {
        (messages + total.msgs_sent, bytes + total.bytes_sent)
    });
    let per_round = |count: u64| count as f64 / ROUNDS as f64;
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
        ("messages_per_round", Json::Num(per_round(messages), 1)),
        ("bytes_per_round", Json::Num(per_round(bytes), 0)),
        ("batches_per_round", Json::Num(per_round(batches), 2)),
    ]);
    #[cfg(feature = "opcount")]
    let series = match series {
        Json::Obj(mut fields) if workers == 1 => {
            fields.push(("opcount".into(), ops));
            Json::Obj(fields)
        }
        series => series,
    };
    (rounds_per_sec, series)
}

/// The operations the driver thread tallied between two readings, per
/// round over [`ROUNDS`] rounds.
#[cfg(feature = "opcount")]
fn op_counts(
    before: &cycledger_crypto::opcount::Tally,
    after: &cycledger_crypto::opcount::Tally,
) -> Json {
    let per_round = |count: fn(&cycledger_crypto::opcount::Tally) -> u64| {
        Json::Num((count(after) - count(before)) as f64 / ROUNDS as f64, 1)
    };
    Json::obj([
        (
            "field_muls_per_round",
            per_round(|t| t.fe_mul + t.fe_square),
        ),
        ("inversions_per_round", per_round(|t| t.fe_invert)),
        ("doublings_per_round", per_round(|t| t.point_double)),
        (
            "mixed_additions_per_round",
            per_round(|t| t.point_add_affine),
        ),
        (
            "batched_additions_per_round",
            per_round(|t| t.point_add_batched),
        ),
        ("sha256_blocks_per_round", per_round(|t| t.sha256_blocks)),
        (
            "drbg_instantiations_per_round",
            per_round(|t| t.drbg_instantiations),
        ),
        ("sigs_single_per_round", per_round(|t| t.sigs_single)),
        ("sigs_batched_per_round", per_round(|t| t.sigs_batched)),
        ("memo_lookups_per_round", per_round(|t| t.memo_lookups)),
        ("envelopes_per_round", per_round(|t| t.envelopes_sent)),
        ("latency_draws_per_round", per_round(|t| t.latency_draws)),
        (
            "vrf_evaluations_per_round",
            per_round(|t| t.vrf_evaluations),
        ),
        (
            "vrf_proofs_checked_per_round",
            per_round(|t| t.vrf_proofs_checked),
        ),
    ])
}

/// One-worker and parallel series of the plain config, alternated.
const PAIRS: usize = 3;

/// The median of `values`, an odd number of them.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// The series of the run of median rounds/sec among `runs`.
fn median_run(mut runs: Vec<(f64, Json)>) -> Json {
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    runs.swap_remove(runs.len() / 2).1
}

/// Describes the epoch-lifecycle variant measured by `one_worker_epoch`.
const EPOCH_VARIANT: &str =
    "same geometry with epoch_length 2, joins_per_epoch 2, leaves_per_epoch 1 \
     (every second round closes an epoch: beacon, churn, state sync, reshuffle)";

fn main() {
    assert!(
        alloccount::counting_enabled(),
        "bench must be built with the alloccount `count` feature"
    );
    let plain = config_from_args();
    let epoch = epoch_variant(plain);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Three pairs, each a one-worker series and then a parallel one (only
    // the first on a one-core machine): a pair's two sides run within a
    // second of each other, so a ratio compares like with like, where the
    // fastest of several parallel runs against one one-worker run read
    // 1.07 on an unchanged tree when the host slowed between them.
    let mut one_worker = Vec::new();
    let mut parallel = Vec::new();
    for _ in 0..PAIRS {
        one_worker.push(measure(plain, 1));
        if cores > 1 {
            parallel.push(measure(plain, cores));
        }
    }
    let mut doc = vec![
        (
            "bench_config",
            Json::Str(format!(
                "{} committees x {} members, {} txs/round, seed 4242, pow_difficulty 2",
                plain.committees, plain.committee_size, plain.txs_per_round
            )),
        ),
        ("epoch_bench_config", Json::Str(EPOCH_VARIANT.into())),
        ("parallel_workers", Json::Int(cores as u64)),
    ];
    if cores > 1 {
        let mut ratios: Vec<f64> = one_worker
            .iter()
            .zip(&parallel)
            .map(|(one, wide)| wide.0 / one.0)
            .collect();
        doc.push(("parallel_speedup", Json::Num(median(&mut ratios), 3)));
    }
    doc.push(("one_worker", median_run(one_worker)));
    if cores > 1 {
        doc.push(("parallel", median_run(parallel)));
    }
    doc.push(("one_worker_epoch", measure(epoch, 1).1));
    println!("{}", Json::obj(doc));
}
