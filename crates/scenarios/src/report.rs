//! Canonical per-scenario JSON reports.
//!
//! The renderer is hand-rolled (the workspace is dependency-free) and emits
//! every field in a fixed order with fixed float formatting, so two runs of
//! the same scenario produce byte-identical files. Golden gating is plain
//! string equality against the committed files under `scenarios/golden/`.

use std::fmt::Display;

use cycledger_ledger::StateBackend;
use cycledger_protocol::adversary::AdversaryConfig;

use crate::runner::ScenarioRun;
use crate::spec::{behavior_name, mix_name, NetFaultInjection};
use crate::toml_cfg::{entries, Value, NET_FAULT_KEYS};

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            other => out.push(other),
        }
    }
    out
}

/// A JSON string literal.
fn string(s: &str) -> String {
    format!("\"{}\"", escape_json(s))
}

/// One `"key": value` entry of an object.
fn entry(key: &str, value: impl Display) -> String {
    format!("\"{key}\": {value}")
}

/// The one separator rule: an object or array body laid out one entry per
/// line, each indented one level (nested blocks included), with a comma after
/// every entry but the last.
fn block(open: char, entries: &[String], close: char) -> String {
    let lines: Vec<String> = entries
        .iter()
        .map(|e| format!("  {}", e.replace('\n', "\n  ")))
        .collect();
    if lines.is_empty() {
        format!("{open}\n{close}")
    } else {
        format!("{open}\n{}\n{close}", lines.join(",\n"))
    }
}

fn object(entries: &[String]) -> String {
    block('{', entries, '}')
}

fn array(entries: &[String]) -> String {
    block('[', entries, ']')
}

/// An object on one line, as the array entries are written.
fn inline(entries: &[String]) -> String {
    format!("{{ {} }}", entries.join(", "))
}

/// A scheduled network fault on one line, its keys and values as its
/// `[[scenario.net_faults]]` section states them.
fn net_fault(fault: &NetFaultInjection) -> String {
    let fields: Vec<String> = entries(&NET_FAULT_KEYS, fault)
        .map(|(key, value)| match value {
            Value::Str(s) => entry(key, string(&s)),
            number => entry(key, number),
        })
        .collect();
    inline(&fields)
}

/// Renders the canonical JSON report for one scenario run.
pub fn render_report(run: &ScenarioRun) -> String {
    let outcome = &run.outcome;
    let scenario = &outcome.scenario;
    let cfg = &scenario.config;
    let summary = &outcome.summary;

    // The epoch knobs, the traffic block and the state backend are emitted
    // only when on.
    let epochs_on = cfg.epoch_length > 0;
    let state_on = cfg.state_backend == StateBackend::Smt;
    let mut config = vec![
        entry("committees", cfg.committees),
        entry("committee_size", cfg.committee_size),
        entry("partial_set_size", cfg.partial_set_size),
        entry("referee_size", cfg.referee_size),
        entry("total_nodes", cfg.total_nodes()),
        entry("txs_per_round", cfg.txs_per_round),
        entry("cross_shard_ratio", format!("{:?}", cfg.cross_shard_ratio)),
        entry("invalid_ratio", format!("{:?}", cfg.invalid_ratio)),
        entry(
            "malicious_fraction",
            format!("{:?}", cfg.adversary.malicious_fraction),
        ),
        entry("mix", string(mix_name(cfg.adversary.mix))),
    ];
    if epochs_on {
        config.extend([
            entry("epoch_length", cfg.epoch_length),
            entry("joins_per_epoch", cfg.joins_per_epoch),
            entry("leaves_per_epoch", cfg.leaves_per_epoch),
        ]);
    }
    if let Some(traffic) = &cfg.traffic {
        config.extend([
            entry("traffic_rate_tps", format!("{:?}", traffic.rate_tps)),
            entry("traffic_shape", string(traffic.shape.name())),
            entry("traffic_warmup_rounds", traffic.warmup_rounds),
        ]);
    }
    if state_on {
        config.push(entry("state_backend", string(cfg.state_backend.name())));
    }

    let worker_digests: Vec<String> = outcome
        .worker_digests
        .iter()
        .map(|(workers, digest)| {
            inline(&[entry("workers", workers), entry("digest", string(digest))])
        })
        .collect();
    let injected: Vec<String> = outcome
        .injected
        .iter()
        .map(|fault| {
            inline(&[
                entry("round", fault.round),
                entry("node", fault.node.0),
                entry("behavior", string(behavior_name(fault.behavior))),
            ])
        })
        .collect();
    let mut report = vec![
        entry("schema", string("cycledger-scenario-report/v1")),
        entry("name", string(&scenario.name)),
        entry("paper_claim", string(&scenario.paper_claim)),
        entry("description", string(&scenario.description)),
        entry("seed", cfg.seed),
        entry("rounds", scenario.rounds),
        entry("smoke", scenario.smoke),
        entry("config", object(&config)),
        entry("digest", string(&outcome.digest)),
        entry("worker_digests", array(&worker_digests)),
        entry("rerun_digest", string(&outcome.rerun_digest)),
        entry(
            "adversary",
            object(&[
                entry("malicious_nodes", outcome.malicious_count),
                entry(
                    "max_corrupted",
                    AdversaryConfig::max_corrupted(outcome.total_nodes),
                ),
            ]),
        ),
        entry("injected_faults", array(&injected)),
    ];

    // Scheduled network faults (omitted when the scenario schedules none).
    if !scenario.net_faults.is_empty() {
        let net_faults: Vec<String> = scenario.net_faults.iter().map(net_fault).collect();
        report.push(entry("net_faults", array(&net_faults)));
    }

    let cross_packed: usize = summary
        .rounds
        .iter()
        .map(|r| r.txs_packed_cross_shard)
        .sum();
    report.push(entry(
        "metrics",
        object(&[
            entry("blocks_produced", summary.blocks_produced()),
            entry("chain_height", outcome.chain_height),
            entry("total_packed", summary.total_packed()),
            entry("total_cross_shard_packed", cross_packed),
            entry(
                "mean_acceptance_rate",
                format!("{:.6}", summary.mean_acceptance_rate()),
            ),
            entry("evictions", summary.total_evictions()),
            entry("witnesses", summary.total_witnesses()),
            entry("censorship_reports", summary.total_censorship_reports()),
            entry("skipped_recoveries", summary.total_skipped_recoveries()),
            entry("punished_honest", summary.punished_honest().len()),
        ]),
    ));

    report.push(entry(
        "network",
        object(&[
            entry("quorum_timeouts", summary.total_quorum_timeouts()),
            entry("list_timeouts", summary.total_list_timeouts()),
            entry("votes_missing", summary.total_votes_missing()),
            entry("net_dropped_messages", summary.total_net_dropped_messages()),
            entry("duplicate_packed_txs", outcome.duplicate_packed_txs),
        ]),
    ));

    // Epoch lifecycle measurements (omitted when epochs are disabled).
    if epochs_on {
        let transitions = || {
            summary
                .rounds
                .iter()
                .filter_map(|r| r.epoch_transition.as_ref())
        };
        report.push(entry(
            "epochs",
            object(&[
                entry("transitions", summary.total_epoch_transitions()),
                entry(
                    "joined",
                    transitions().map(|t| t.joined.len()).sum::<usize>(),
                ),
                entry("left", transitions().map(|t| t.left.len()).sum::<usize>()),
                entry("synced", summary.total_synced()),
                entry(
                    "still_syncing",
                    transitions().next_back().map_or(0, |t| t.still_syncing),
                ),
                entry("sync_timeouts", summary.total_sync_timeouts()),
                entry(
                    "reshuffled_seats",
                    transitions().map(|t| t.reshuffled_seats).sum::<usize>(),
                ),
                entry("syncing_abstentions", summary.total_syncing_abstentions()),
                entry("syncing_votes", summary.total_syncing_votes()),
            ]),
        ));
    }

    // Open-loop traffic measurements (omitted for closed-loop scenarios).
    // Percentiles are µs of *virtual* time — machine-independent, so they
    // golden-gate exactly like every integer counter.
    if let Some(traffic) = &outcome.traffic {
        report.push(entry(
            "traffic",
            object(&[
                entry("injected", traffic.injected),
                entry("rejected_invalid", traffic.rejected_invalid),
                entry("confirmed", traffic.confirmed),
                entry("censored", traffic.censored),
                entry("backlog", traffic.backlog),
                entry("virtual_elapsed_us", traffic.virtual_elapsed_us),
                entry("sustained_tps", format!("{:.6}", traffic.sustained_tps())),
                entry("latency_samples", traffic.samples),
                entry("p50_us", traffic.p50_us),
                entry("p99_us", traffic.p99_us),
                entry("p999_us", traffic.p999_us),
                entry("max_us", traffic.max_us),
                entry("mean_us", format!("{:.6}", traffic.mean_us)),
                entry("p99_delta", format!("{:.6}", traffic.p99_delta())),
            ]),
        ));
    }

    // Authenticated-state measurements (omitted under the map backend). The
    // final roots are the last round's published per-shard commitments; the
    // proof counters come from the runner's light-client audit against
    // exactly those roots.
    if state_on {
        let audit = outcome.proof_audit.unwrap_or_default();
        let final_roots: Vec<String> = summary
            .rounds
            .last()
            .map(|r| r.state_roots.as_slice())
            .unwrap_or_default()
            .iter()
            .map(|root| string(&root.to_hex()))
            .collect();
        report.push(entry(
            "state",
            object(&[
                entry("backend", string(cfg.state_backend.name())),
                entry("shards", cfg.committees),
                entry("final_state_roots", array(&final_roots)),
                entry("inclusion_proofs_checked", audit.inclusion_checked),
                entry("inclusion_proofs_verified", audit.inclusion_verified),
                entry("exclusion_proofs_checked", audit.exclusion_checked),
                entry("exclusion_proofs_verified", audit.exclusion_verified),
                entry("root_mismatches", audit.root_mismatches),
            ]),
        ));
    }

    let invariants: Vec<String> = run
        .invariants
        .iter()
        .map(|result| {
            inline(&[
                entry("invariant", string(&result.invariant)),
                entry(
                    "status",
                    string(if result.passed { "pass" } else { "FAIL" }),
                ),
                entry("detail", string(&result.detail)),
            ])
        })
        .collect();
    report.push(entry("invariants", array(&invariants)));
    object(&report) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NetFaultKind;
    use crate::toml_cfg::scenarios_from_toml;

    /// Every kind's `net_faults` entry carries the keys and values its
    /// `[[scenario.net_faults]]` section states, in the same order.
    #[test]
    fn a_net_fault_reports_its_toml_section() {
        let sections = [
            "kind = \"isolate-leader\"\ncommittee = 1",
            "kind = \"isolate-commons\"\ncommittee = 1\ncount = 2",
            "kind = \"delay\"\ntarget = \"partial:1:0\"\ndelay_us = 600000",
            "kind = \"loss\"\nloss_ppm = 2500",
            "kind = \"crash-stop\"\ntarget = \"node:7\"",
            "kind = \"isolate-joiners\"",
        ];
        let mut kinds = Vec::new();
        for kind_keys in sections {
            let section = format!("from_round = 1\nuntil_round = 3\n{kind_keys}");
            let text = format!(
                "[[scenario]]\nname = \"x\"\nepoch_length = 2\njoins_per_epoch = 1\n\
                 invariants = [\"no-double-commit\"]\n[[scenario.net_faults]]\n{section}\n"
            );
            let fault = scenarios_from_toml(&text).unwrap()[0].net_faults[0];
            kinds.push(fault.kind.name());
            let toml: Vec<(&str, &str)> = section
                .lines()
                .filter_map(|line| line.split_once(" = "))
                .collect();
            let json = net_fault(&fault);
            let json: Vec<(&str, &str)> = json
                .strip_prefix("{ ")
                .and_then(|j| j.strip_suffix(" }"))
                .unwrap()
                .split(", ")
                .map(|e| e.split_once(": ").unwrap())
                .map(|(key, value)| (key.trim_matches('"'), value))
                .collect();
            assert_eq!(json, toml, "{}", fault.kind.name());
        }
        assert_eq!(
            kinds,
            NetFaultKind::BLANK.map(|k| k.name()),
            "one case per kind"
        );
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
