//! Per-layer metrics of a traced pass: span self times for the protocol
//! engine, per-phase message counters for the network, and end-of-run state
//! for the ledger. The probes (`probes.rs`) fill in the rest.

use std::collections::BTreeSet;

use cycledger_net::metrics::Phase;

use crate::checks::Check;
use crate::metrics::{MetricSet, ENGINE_PHASES, NET_PHASE_SUFFIXES};
use crate::run::{Pass, TrafficTotals};
use crate::trace::{self_times_us, Span};
use crate::workloads::{EPOCH_LENGTH, WARMUP_ROUNDS};

/// Fills `set` with every per-layer metric that comes from the run itself.
/// `reference` is the untraced pass over the same rounds, interleaved with
/// `traced` round by round in this process; `traced` ran with `spans` recorded.
pub fn from_run(set: &mut MetricSet, reference: &Pass, traced: &mut Pass, spans: &[Span]) {
    let rounds = traced.rounds as f64;
    let own = self_times_us(spans);

    // protocol: self time per measured round, by phase and outside them.
    for phase in ENGINE_PHASES {
        let total_us: u64 = spans
            .iter()
            .zip(&own)
            .filter(|(span, _)| span.name == phase)
            .map(|(_, &us)| us)
            .sum();
        set.set(
            &format!("protocol.phase.{phase}.ms"),
            total_us as f64 / 1e3 / rounds,
        );
    }
    // A round span's self time is everything `run_round` does outside the
    // pipeline: workload generation, traffic accounting, chain append, state
    // sync retries and the epoch transition.
    // Every `EPOCH_LENGTH`-th round is where an epoch closes when the
    // workload has epochs; where it has none the two buckets differ by noise.
    let mut outside = [(0u64, 0usize); 2]; // [plain, epoch boundary] -> (us, rounds)
    for (span, &us) in spans.iter().zip(&own).filter(|(s, _)| s.name == "round") {
        let round = span.round.expect("round spans carry their round");
        let boundary = (round + 1) % EPOCH_LENGTH == 0;
        let bucket = &mut outside[usize::from(boundary)];
        bucket.0 += us;
        bucket.1 += 1;
    }
    let [(plain_us, plain), (boundary_us, boundaries)] = outside;
    set.set(
        "protocol.round.outside-phases.ms",
        (plain_us + boundary_us) as f64 / 1e3 / rounds,
    );
    set.set(
        "protocol.epoch.boundary_extra_ms",
        if boundaries == 0 || plain == 0 {
            0.0
        } else {
            (boundary_us as f64 / boundaries as f64 - plain_us as f64 / plain as f64) / 1e3
        },
    );
    set.set(
        "protocol.executor.batches_per_round",
        traced.batches as f64 / rounds,
    );
    set.set("protocol.executor.cores_busy", traced.cpu_s / traced.wall_s);

    let reports = traced.reports();
    let sum = |f: &dyn Fn(&cycledger_protocol::RoundReport) -> usize| -> f64 {
        reports.iter().map(f).sum::<usize>() as f64
    };
    set.set("protocol.recovery.attempts", sum(&|r| r.recovery_log.len()));
    set.set(
        "protocol.recovery.evictions",
        sum(&|r| r.evicted_leaders.len()),
    );
    set.set("protocol.recovery.skipped", sum(&|r| r.skipped_recoveries));
    set.set(
        "protocol.driven.quorum_timeouts",
        sum(&|r| r.quorum_timeouts),
    );
    set.set("protocol.driven.list_timeouts", sum(&|r| r.list_timeouts));
    set.set("protocol.driven.votes_missing", sum(&|r| r.votes_missing));
    let transition = |f: &dyn Fn(&cycledger_protocol::EpochTransitionReport) -> usize| {
        sum(&|r| r.epoch_transition.as_ref().map_or(0, f))
    };
    set.set("protocol.sync.synced", transition(&|t| t.synced));
    set.set("protocol.sync.timeouts", transition(&|t| t.sync_timeouts));
    set.set("protocol.sync.abstentions", sum(&|r| r.syncing_abstentions));

    let totals = TrafficTotals::of(traced);
    let traffic = traced.sim.traffic().expect("every workload is open loop");
    set.set("protocol.traffic.backlog_max", totals.backlog_max as f64);
    set.set("protocol.traffic.censored", totals.censored as f64);
    set.set("protocol.traffic.sustained_vt_tps", traffic.sustained_tps());
    set.set(
        "protocol.traffic.confirm_vt_delta_p999",
        traffic.in_delta(traffic.p999_us),
    );
    set.set("protocol.setup.new_ms", traced.setup.new_s * 1e3);
    set.set(
        "protocol.setup.warmup_round_ms",
        traced.setup.warmup_s * 1e3 / WARMUP_ROUNDS as f64,
    );
    // The two passes ran the same rounds back to back, pair by pair; their
    // difference is what the observer and the span bookkeeping cost.
    set.set(
        "protocol.trace.overhead_pct",
        100.0 * (traced.wall_s - reference.wall_s) / reference.wall_s,
    );

    // net: per-round counts by accounting phase.
    for (phase, suffix) in Phase::ALL.iter().zip(NET_PHASE_SUFFIXES) {
        let (msgs, bytes) = reports.iter().fold((0, 0), |(m, b), r| {
            let total = r.metrics.phase_total(*phase);
            (m + total.msgs_sent, b + total.bytes_sent)
        });
        set.set(&format!("net.msgs.{suffix}"), msgs as f64 / rounds);
        set.set(&format!("net.bytes.{suffix}"), bytes as f64 / rounds);
    }
    set.set(
        "net.dropped_per_round",
        reports.iter().map(|r| r.net_dropped_messages).sum::<u64>() as f64 / rounds,
    );
    let (channels, clique) = reports.iter().fold((0, 0), |(c, f), r| {
        (c + r.channels, f + r.full_clique_channels)
    });
    set.set("net.channel_ratio", channels as f64 / clique as f64);

    // consensus: distinct ordered (source, destination) shard pairs among
    // the packed cross-shard transactions — each costs a source-side and a
    // destination-side Algorithm 3 instance.
    let m = traced.sim.config().committees;
    let chain = traced.sim.chain();
    let mut pairs = 0usize;
    let mut chain_bytes = 0u64;
    for height in WARMUP_ROUNDS as u64..chain.height() as u64 {
        let block = chain.block(height).expect("below height");
        chain_bytes += block.wire_size();
        let mut seen = BTreeSet::new();
        for tx in &block.transactions {
            for &from in &tx.input_shards(m) {
                for &to in &tx.output_shards(m) {
                    if from != to {
                        seen.insert((from, to));
                    }
                }
            }
        }
        pairs += seen.len();
    }
    set.set("consensus.xshard_pairs_per_round", pairs as f64 / rounds);

    // ledger: state at the end of the run. The traced pass (set up last)
    // and its untraced reference grew side by side from the same inputs, so
    // each accounts for half of what the process gained over the rounds.
    set.set("ledger.chain_bytes", chain_bytes as f64);
    set.set(
        "ledger.rss_growth_mib_per_100_rounds",
        (traced.rss_end_mib - traced.rss_start_mib) / 2.0 * 100.0 / rounds,
    );
    let live: usize = traced.sim.utxo_sets().iter().map(|s| s.len()).sum();
    set.set("ledger.utxos_live", live as f64);
}

/// Accounting closure of the trace: phase self times plus `outside-phases`
/// must add up to the round wall times measured around the same calls.
pub fn spans_account_for_round_walls(traced: &Pass, spans: &[Span]) -> Check {
    let in_spans_s = spans
        .iter()
        .filter(|s| s.name == "round")
        .map(|s| s.duration_us() as f64 / 1e6)
        .sum::<f64>();
    let walls_s: f64 = traced.round_wall_s.iter().sum();
    let gap = (in_spans_s - walls_s).abs() / walls_s;
    Check {
        name: "spans-account-for-round-walls",
        passed: gap <= 0.02,
        detail: format!(
            "phase + outside-phase self times {in_spans_s:.3} s, round walls {walls_s:.3} s \
             ({:.2} % apart)",
            gap * 100.0
        ),
    }
}
