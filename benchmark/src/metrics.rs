//! The metric catalogue: every name `BENCHMARK.json` declares, with unit,
//! direction and (for end-to-end metrics) regression bound. The file at the
//! repository root is the contract; a unit test pins it to these tables.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see; reported on every workload from
/// the untraced run.
///
/// The bounds are what ten runs with ten seeds on the 2-core reference box
/// leave room for: the driver accepts a benchmark only if each metric's
/// interquartile spread over such runs stays inside its bound. Wall clock and
/// CPU time there swing 10-18 % between runs minutes apart (a shared host),
/// allocation and message counts 1-2 % between seeds (sortition, Poisson
/// arrivals), and the virtual-time latencies not at all.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Derived only from virtual time and message counters: identical for
    /// the same seed on any machine at any worker count.
    pub exact: bool,
}

/// A single layer's metric; reported from the traced run, never bounded.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 13] = [
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("committed_tx_per_s", "tx/s", Higher, 0.25, false),
    e2e("round_wall_ms_p50", "ms", Lower, 0.25, false),
    e2e("round_wall_ms_p90", "ms", Lower, 0.25, false),
    e2e("cpu_s_per_ktx", "s/ktx", Lower, 0.25, false),
    e2e("peak_rss_mib", "MiB", Lower, 0.10, false),
    e2e("allocs_per_round", "count", Lower, 0.06, false),
    e2e("alloc_mib_per_round", "MiB", Lower, 0.06, false),
    e2e("msgs_per_committed_tx", "msgs/tx", Lower, 0.06, true),
    e2e("bytes_per_committed_tx", "B/tx", Lower, 0.06, true),
    e2e("confirm_vt_delta_p50", "delta", Lower, 0.01, true),
    e2e("confirm_vt_delta_p99", "delta", Lower, 0.01, true),
    e2e("confirmed_share", "%", Higher, 0.01, true),
];

/// Limit on `confirm_vt_delta_p99`: two nominal rounds, 2 × (8Δ + 4Γ) = 48Δ
/// (2400 ms) under the default latency profile.
pub const CONFIRM_P99_LIMIT_DELTA: f64 = 48.0;

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The eight accounting phases of `net::Phase::ALL`, in that order, as the
/// suffixes of `net.msgs.*` / `net.bytes.*`.
pub const NET_PHASE_SUFFIXES: [&str; 8] = [
    "configuration",
    "semi-commitment",
    "intra",
    "inter",
    "reputation",
    "selection",
    "block",
    "recovery",
];

/// The engine's pipeline phases (the names `RoundObserver` reports).
pub const ENGINE_PHASES: [&str; 8] = [
    "committee-configuration",
    "semi-commitment-exchange",
    "intra-consensus",
    "intra-recovery",
    "inter-consensus",
    "reputation-update",
    "selection",
    "block-generation",
];

pub const PER_LAYER: [PerLayer; 79] = [
    // protocol: spans around the engine's phases, counters from the reports.
    layer("protocol.phase.committee-configuration.ms", "ms", Lower),
    layer("protocol.phase.semi-commitment-exchange.ms", "ms", Lower),
    layer("protocol.phase.intra-consensus.ms", "ms", Lower),
    layer("protocol.phase.intra-recovery.ms", "ms", Lower),
    layer("protocol.phase.inter-consensus.ms", "ms", Lower),
    layer("protocol.phase.reputation-update.ms", "ms", Lower),
    layer("protocol.phase.selection.ms", "ms", Lower),
    layer("protocol.phase.block-generation.ms", "ms", Lower),
    layer("protocol.round.outside-phases.ms", "ms", Lower),
    layer("protocol.epoch.boundary_extra_ms", "ms", Lower),
    layer("protocol.executor.batches_per_round", "count", Lower),
    layer("protocol.executor.cores_busy", "ratio", Higher),
    layer("protocol.recovery.attempts", "count", Lower),
    layer("protocol.recovery.evictions", "count", Lower),
    layer("protocol.recovery.skipped", "count", Lower),
    layer("protocol.driven.quorum_timeouts", "count", Lower),
    layer("protocol.driven.list_timeouts", "count", Lower),
    layer("protocol.driven.votes_missing", "count", Lower),
    layer("protocol.sync.synced", "count", Higher),
    layer("protocol.sync.timeouts", "count", Lower),
    layer("protocol.sync.abstentions", "count", Lower),
    layer("protocol.traffic.backlog_max", "count", Lower),
    layer("protocol.traffic.censored", "count", Lower),
    layer("protocol.traffic.sustained_vt_tps", "tx/s", Higher),
    layer("protocol.traffic.confirm_vt_delta_p999", "delta", Lower),
    layer("protocol.setup.new_ms", "ms", Lower),
    layer("protocol.setup.warmup_round_ms", "ms", Lower),
    layer("protocol.trace.overhead_pct", "%", Lower),
    // net: per-round counts by accounting phase, plus probes on SimNetwork.
    layer("net.msgs.configuration", "count", Lower),
    layer("net.msgs.semi-commitment", "count", Lower),
    layer("net.msgs.intra", "count", Lower),
    layer("net.msgs.inter", "count", Lower),
    layer("net.msgs.reputation", "count", Lower),
    layer("net.msgs.selection", "count", Lower),
    layer("net.msgs.block", "count", Lower),
    layer("net.msgs.recovery", "count", Lower),
    layer("net.bytes.configuration", "B", Lower),
    layer("net.bytes.semi-commitment", "B", Lower),
    layer("net.bytes.intra", "B", Lower),
    layer("net.bytes.inter", "B", Lower),
    layer("net.bytes.reputation", "B", Lower),
    layer("net.bytes.selection", "B", Lower),
    layer("net.bytes.block", "B", Lower),
    layer("net.bytes.recovery", "B", Lower),
    layer("net.dropped_per_round", "count", Lower),
    layer("net.channel_ratio", "ratio", Lower),
    layer("net.probe.send_deliver_ns", "ns", Lower),
    layer("net.probe.timer_ns", "ns", Lower),
    // consensus: probes at the workload's committee size.
    layer("consensus.probe.alg3_instance_ms", "ms", Lower),
    layer("consensus.probe.alg3_unverified_ms", "ms", Lower),
    layer("consensus.probe.alg3_msgs", "count", Lower),
    layer("consensus.probe.cert_verify_batch_us", "us", Lower),
    layer("consensus.probe.certs_batch_us_per_cert", "us", Lower),
    layer("consensus.probe.tally_us", "us", Lower),
    layer("consensus.xshard_pairs_per_round", "count", Lower),
    // crypto: probes, per operation.
    layer("crypto.probe.sign_us", "us", Lower),
    layer("crypto.probe.verify_us", "us", Lower),
    layer("crypto.probe.batch_verify_us_per_sig", "us", Lower),
    layer("crypto.probe.sha256_many_ns_per_msg", "ns", Lower),
    layer("crypto.probe.sha256_mib_per_s", "MiB/s", Higher),
    layer("crypto.probe.merkle_build_us", "us", Lower),
    layer("crypto.probe.vrf_evaluate_us", "us", Lower),
    layer("crypto.probe.vrf_verify_us", "us", Lower),
    layer("crypto.probe.pvss_beacon_ms", "ms", Lower),
    layer("crypto.probe.pow_solve_us", "us", Lower),
    layer("crypto.probe.smt_verify_proof_us", "us", Lower),
    // ledger: probes on Workload + UtxoSet/Store, plus end-of-run state.
    layer("ledger.probe.generate_us_per_tx", "us", Lower),
    layer("ledger.probe.validate_ns_per_tx", "ns", Lower),
    layer("ledger.probe.apply_ns_per_tx", "ns", Lower),
    layer("ledger.probe.commit_ms_per_round", "ms", Lower),
    layer("ledger.probe.tx_root_us", "us", Lower),
    layer("ledger.probe.prove_us", "us", Lower),
    layer("ledger.probe.smt_nodes_per_write", "count", Lower),
    layer("ledger.utxos_live", "count", Lower),
    layer("ledger.chain_bytes", "B", Lower),
    layer("ledger.rss_growth_mib_per_100_rounds", "MiB", Lower),
    // reputation: probes at c voters x (capacity / m) decisions.
    layer("reputation.probe.score_all_us", "us", Lower),
    layer("reputation.probe.distribute_us", "us", Lower),
    layer("reputation.probe.select_leaders_us", "us", Lower),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Collects measured values against one of the catalogue tables and refuses
/// names the table does not declare, so a typo cannot ship a metric the
/// contract never sees.
pub struct MetricSet {
    declared: Vec<(&'static str, &'static str)>,
    values: Vec<Measured>,
}

impl MetricSet {
    pub fn end_to_end() -> MetricSet {
        MetricSet {
            declared: END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
            values: Vec::new(),
        }
    }

    pub fn per_layer() -> MetricSet {
        MetricSet {
            declared: PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
            values: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let &(name, unit) = self
            .declared
            .iter()
            .find(|(declared, _)| *declared == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        assert!(value.is_finite(), "metric {name} measured {value}");
        assert!(
            self.values.iter().all(|m| m.name != name),
            "metric {name} set twice"
        );
        self.values.push(Measured { name, unit, value });
    }

    /// The measured values in catalogue order; fails if any declared metric
    /// was never set.
    pub fn finish(self) -> Result<Vec<Measured>, String> {
        let mut ordered = Vec::with_capacity(self.declared.len());
        for (name, _) in &self.declared {
            match self.values.iter().find(|m| m.name == *name) {
                Some(m) => ordered.push(m.clone()),
                None => return Err(format!("metric {name} was never measured")),
            }
        }
        Ok(ordered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::WORKLOADS;

    fn names(section: &Value) -> Vec<String> {
        section
            .as_array()
            .expect("array")
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).expect("name").into())
            .collect()
    }

    /// `BENCHMARK.json` is hand-kept next to the package; this pins every
    /// name, unit, direction and bound in it to the tables above.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("valid JSON");

        let e2e = doc.get("end_to_end").expect("end_to_end");
        assert_eq!(
            names(e2e),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, metric) in e2e.as_array().unwrap().iter().zip(&END_TO_END) {
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(metric.unit));
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(metric.better.name())
            );
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                Some(metric.bound)
            );
        }

        let layers = doc.get("per_layer").expect("per_layer");
        assert_eq!(
            names(layers),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, metric) in layers.as_array().unwrap().iter().zip(&PER_LAYER) {
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(metric.unit));
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(metric.better.name())
            );
        }

        assert_eq!(
            names(doc.get("workloads").expect("workloads")),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::workloads::RUN_SECONDS as f64)
        );
    }

    #[test]
    fn catalogue_respects_the_contract_limits() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        for metric in &END_TO_END {
            assert!(
                metric.bound > 0.0 && metric.bound <= 0.25,
                "{}",
                metric.name
            );
            assert!(metric.bound <= setup.bound, "setup_s carries the largest");
        }
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn metric_set_refuses_unknown_and_missing_names() {
        let mut set = MetricSet::end_to_end();
        set.set("setup_s", 1.5);
        assert!(set.finish().is_err(), "twelve metrics still unset");
        let caught = std::panic::catch_unwind(|| {
            MetricSet::end_to_end().set("no_such_metric", 1.0);
        });
        assert!(caught.is_err());
    }
}
