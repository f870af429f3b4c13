//! Drives one workload through the public `Simulation` API and derives the
//! end-to-end metrics from what the run reports.

use std::time::Instant;

use alloccount::AllocSnapshot;
use cycledger_net::metrics::Phase;
use cycledger_protocol::{RoundReport, Simulation};

use crate::metrics::MetricSet;
use crate::stats::percentile;
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{self, RoundFaults, Workload, WARMUP_ROUNDS};

/// What setting a workload up cost.
#[derive(Clone, Copy, Debug)]
pub struct Setup {
    /// `Simulation::new`.
    pub new_s: f64,
    /// The warm-up rounds.
    pub warmup_s: f64,
}

impl Setup {
    /// `setup_s`: construction plus warm-up.
    pub fn seconds(&self) -> f64 {
        self.new_s + self.warmup_s
    }
}

/// `Simulation::new` plus the warm-up rounds (clean, unobserved).
pub fn set_up(workload: &Workload, seed: u64) -> (Simulation, Setup) {
    let t = Instant::now();
    let mut sim = Simulation::new(workload.config(seed)).expect("workload configs validate");
    let new_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for _ in 0..WARMUP_ROUNDS {
        sim.run_round();
    }
    let warmup_s = t.elapsed().as_secs_f64();
    (sim, Setup { new_s, warmup_s })
}

/// Set-ups timed per run; `setup_s` is their median. Three, not more: on the
/// 8x16 workloads a set-up is two 0.3-0.4 s rounds, and the driver's runs
/// together have a time limit.
const SETUP_SAMPLES: usize = 3;

/// `setup_s` samples: `measured` (the set-ups the measured passes used) plus
/// further constructions, each dropped before the next is built.
pub fn setup_samples(workload: &Workload, seed: u64, measured: Vec<f64>) -> Vec<f64> {
    let mut samples = measured;
    while samples.len() < SETUP_SAMPLES {
        samples.push(set_up(workload, seed).1.seconds());
    }
    samples
}

/// One pass over a workload's measured rounds, stepped a round at a time,
/// and everything it observed from outside.
pub struct Pass {
    workload: &'static Workload,
    pub sim: Simulation,
    /// Measured rounds the pass is sized for (the fault schedule scales to it).
    pub rounds: usize,
    pub setup: Setup,
    /// Wall time of each measured round so far (the `run_round` call alone).
    pub round_wall_s: Vec<f64>,
    /// Sum of the round walls plus, once finished, joining any block
    /// application still draining after the last one.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) inside the `run_round` calls.
    pub cpu_s: f64,
    /// Allocator activity inside the `run_round` calls.
    pub allocs: AllocSnapshot,
    /// `VmRSS` before the first measured round and after the last.
    pub rss_start_mib: f64,
    pub rss_end_mib: f64,
    /// `VmHWM` when the last measured round ended.
    pub peak_rss_mib: f64,
    /// Executor batches inside the `run_round` calls.
    pub batches: u64,
    /// The faults installed before each measured round (all empty on the
    /// clean workloads, whose schedule is).
    pub faults: Vec<RoundFaults>,
}

impl Pass {
    /// Sets `workload` up (construction + warm-up), ready for `rounds` steps.
    pub fn start(workload: &'static Workload, seed: u64, rounds: usize) -> Pass {
        let (sim, setup) = set_up(workload, seed);
        let rss_mib = sys::status_mib("VmRSS");
        Pass {
            workload,
            sim,
            rounds,
            setup,
            round_wall_s: Vec::with_capacity(rounds),
            wall_s: 0.0,
            cpu_s: 0.0,
            allocs: AllocSnapshot::default(),
            rss_start_mib: rss_mib,
            rss_end_mib: rss_mib,
            peak_rss_mib: rss_mib,
            batches: 0,
            faults: Vec::with_capacity(rounds),
        }
    }

    /// Runs the next measured round. With a tracer the round runs observed
    /// and it and its phases become spans; without one it runs through plain
    /// `run_round`, exactly as a user would call it.
    pub fn step(&mut self, tracer: Option<&mut Tracer>) {
        let index = self.round_wall_s.len();
        assert!(
            index < self.rounds,
            "pass already ran its {} rounds",
            self.rounds
        );
        let sim = &mut self.sim;
        let faults = workloads::resolve(
            self.workload.schedule(),
            sim.assignment(),
            index,
            self.rounds,
        );
        workloads::install(sim, &faults);
        self.faults.push(faults);

        let batches_start = sim.executor().batches_executed() as u64;
        let cpu_start = sys::cpu_seconds();
        let alloc_start = alloccount::snapshot();
        let t = Instant::now();
        match tracer {
            Some(tracer) => {
                tracer.open("round", Some(sim.assignment().round), batches_start);
                sim.run_round_observed(tracer);
                tracer.close("round", sim.executor().batches_executed() as u64);
            }
            None => {
                sim.run_round();
            }
        }
        let wall_s = t.elapsed().as_secs_f64();
        let allocs = alloccount::snapshot().since(&alloc_start);
        self.cpu_s += sys::cpu_seconds() - cpu_start;
        self.round_wall_s.push(wall_s);
        self.wall_s += wall_s;
        self.allocs.allocations += allocs.allocations;
        self.allocs.allocated_bytes += allocs.allocated_bytes;
        self.allocs.reallocations += allocs.reallocations;
        self.batches += sim.executor().batches_executed() as u64 - batches_start;
    }

    /// Closes the measured window after the last step.
    pub fn finish(&mut self) {
        assert_eq!(self.round_wall_s.len(), self.rounds, "steps still due");
        // Should a later default defer block application past the round's
        // end, its cost still lands inside the measured window.
        let cpu_start = sys::cpu_seconds();
        let t = Instant::now();
        let _ = self.sim.utxo_sets();
        self.wall_s += t.elapsed().as_secs_f64();
        self.cpu_s += sys::cpu_seconds() - cpu_start;
        self.rss_end_mib = sys::status_mib("VmRSS");
        self.peak_rss_mib = sys::status_mib("VmHWM");
    }

    /// A whole untraced pass: start, every step, finish.
    pub fn run(workload: &'static Workload, seed: u64, rounds: usize) -> Pass {
        let mut pass = Pass::start(workload, seed, rounds);
        for _ in 0..rounds {
            pass.step(None);
        }
        pass.finish();
        pass
    }

    /// Reports of the measured rounds only.
    pub fn reports(&self) -> &[RoundReport] {
        &self.sim.reports()[WARMUP_ROUNDS..]
    }

    pub fn committed(&self) -> u64 {
        self.reports().iter().map(|r| r.txs_packed as u64).sum()
    }
}

/// The wall-clock readings of an untraced run: one pass's, or the fastest
/// execution of each round over several passes on the same inputs.
///
/// This box shares its memory system with other tenants, and what they do
/// only ever adds time: a round that took 66 ms in one pass takes 90 ms in
/// the next when a neighbour is busy. The fastest of a round's executions is
/// the reading least touched by that, so a workload whose rounds are short
/// enough to run more than once reports it.
#[derive(Clone, Debug, PartialEq)]
pub struct Timing {
    /// Wall time of each measured round.
    pub round_wall_s: Vec<f64>,
    /// Joining block application still draining after the last round.
    pub drain_s: f64,
    /// Process CPU seconds (all threads) over the rounds and the drain.
    pub cpu_s: f64,
}

impl Timing {
    pub fn of(pass: &Pass) -> Timing {
        Timing {
            round_wall_s: pass.round_wall_s.clone(),
            drain_s: pass.wall_s - pass.round_wall_s.iter().sum::<f64>(),
            cpu_s: pass.cpu_s,
        }
    }

    /// Round by round the fastest execution among `passes`, which ran the
    /// same rounds; the least drain and the least total CPU time.
    pub fn fastest(passes: &[Timing]) -> Timing {
        fn least(values: impl Iterator<Item = f64>) -> f64 {
            values.fold(f64::INFINITY, f64::min)
        }
        let rounds = passes[0].round_wall_s.len();
        assert!(passes.iter().all(|p| p.round_wall_s.len() == rounds));
        Timing {
            round_wall_s: (0..rounds)
                .map(|i| least(passes.iter().map(|p| p.round_wall_s[i])))
                .collect(),
            drain_s: least(passes.iter().map(|p| p.drain_s)),
            cpu_s: least(passes.iter().map(|p| p.cpu_s)),
        }
    }

    /// Wall seconds of the measured window.
    pub fn wall_s(&self) -> f64 {
        self.round_wall_s.iter().sum::<f64>() + self.drain_s
    }

    pub fn round_wall_ms(&self) -> Vec<f64> {
        self.round_wall_s.iter().map(|s| s * 1e3).collect()
    }
}

/// Messages and bytes sent in `report`, summed over the eight accounting
/// phases (the paper's Table II quantity).
pub fn sent(report: &RoundReport) -> (u64, u64) {
    Phase::ALL.iter().fold((0, 0), |(msgs, bytes), &phase| {
        let total = report.metrics.phase_total(phase);
        (msgs + total.msgs_sent, bytes + total.bytes_sent)
    })
}

/// Open-loop accounting over the measured rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficTotals {
    pub injected: u64,
    pub rejected_invalid: u64,
    pub confirmed: u64,
    pub censored: u64,
    /// Arrivals still queued after the last round, beyond what one more
    /// round would pack.
    pub stranded: u64,
    pub backlog_max: u64,
}

impl TrafficTotals {
    pub fn of(pass: &Pass) -> TrafficTotals {
        let mut totals = TrafficTotals::default();
        let mut backlog_end = 0;
        for report in pass.reports() {
            let traffic = report.traffic.expect("every workload is open loop");
            totals.injected += traffic.injected as u64;
            totals.rejected_invalid += traffic.rejected_invalid as u64;
            totals.confirmed += traffic.confirmed as u64;
            totals.censored += traffic.censored as u64;
            totals.backlog_max = totals.backlog_max.max(traffic.backlog as u64);
            backlog_end = traffic.backlog as u64;
        }
        let capacity = pass.sim.config().txs_per_round as u64;
        totals.stranded = backlog_end.saturating_sub(capacity);
        totals
    }

    /// Transactions the open loop submitted that were admissible.
    pub fn attempted(&self) -> u64 {
        self.injected - self.rejected_invalid
    }

    /// Of those, the ones that never confirmed: censored, or stranded in a
    /// backlog the system was not draining.
    pub fn failed(&self) -> u64 {
        self.censored + self.stranded
    }
}

/// The end-to-end metrics of an untraced pass, all but `setup_s` and the
/// four [`timed`] ones: the caller adds those once the pass is dropped and
/// the further passes and set-ups have run.
pub fn end_to_end(pass: &Pass) -> Result<MetricSet, String> {
    let rounds = pass.rounds as f64;
    let committed = pass.committed();
    if committed == 0 {
        return Err("no transaction was committed".into());
    }
    let (msgs, bytes) = pass
        .reports()
        .iter()
        .map(sent)
        .fold((0, 0), |(m, b), (dm, db)| (m + dm, b + db));
    let traffic = pass.sim.traffic().expect("every workload is open loop");
    let totals = TrafficTotals::of(pass);

    let mut set = MetricSet::end_to_end();
    set.set("peak_rss_mib", pass.peak_rss_mib);
    set.set("allocs_per_round", pass.allocs.allocations as f64 / rounds);
    set.set(
        "alloc_mib_per_round",
        pass.allocs.allocated_bytes as f64 / rounds / (1u64 << 20) as f64,
    );
    set.set("msgs_per_committed_tx", msgs as f64 / committed as f64);
    set.set("bytes_per_committed_tx", bytes as f64 / committed as f64);
    // In Δ, the paper's synchrony parameter and the library's SLO unit: the
    // latency is injected virtual delay, a count of Δs, not a measured time.
    set.set("confirm_vt_delta_p50", traffic.in_delta(traffic.p50_us));
    set.set("confirm_vt_delta_p99", traffic.in_delta(traffic.p99_us));
    set.set(
        "confirmed_share",
        100.0 * (1.0 - totals.failed() as f64 / totals.attempted() as f64),
    );
    Ok(set)
}

/// The four end-to-end metrics read off the clock, for a run that committed
/// `committed` transactions in its measured rounds.
pub fn timed(set: &mut MetricSet, timing: &Timing, committed: u64) -> Result<(), String> {
    let round_wall_ms = timing.round_wall_ms();
    set.set("committed_tx_per_s", committed as f64 / timing.wall_s());
    set.set("round_wall_ms_p50", percentile(&round_wall_ms, 0.50)?);
    set.set("round_wall_ms_p90", percentile(&round_wall_ms, 0.90)?);
    set.set("cpu_s_per_ktx", timing.cpu_s / committed as f64 * 1e3);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_takes_each_round_from_the_pass_that_ran_it_quickest() {
        let pass = |round_wall_s: [f64; 3], drain_s, cpu_s| Timing {
            round_wall_s: round_wall_s.to_vec(),
            drain_s,
            cpu_s,
        };
        let passes = [
            pass([0.10, 0.30, 0.11], 0.002, 1.5),
            pass([0.12, 0.10, 0.10], 0.001, 1.4),
            pass([0.11, 0.11, 0.40], 0.003, 1.6),
        ];
        let fastest = Timing::fastest(&passes);
        assert_eq!(fastest, pass([0.10, 0.10, 0.10], 0.001, 1.4));
        assert!((fastest.wall_s() - 0.301).abs() < 1e-12);
        // One pass is its own fastest.
        assert_eq!(Timing::fastest(&passes[..1]), passes[0]);
    }
}
