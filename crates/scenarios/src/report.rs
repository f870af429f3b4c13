//! Canonical per-scenario JSON reports.
//!
//! The renderer is hand-rolled (the workspace is dependency-free) and emits
//! every field in a fixed order with fixed float formatting, so two runs of
//! the same scenario produce byte-identical files. Golden gating is plain
//! string equality against the committed files under `scenarios/golden/`.

use cycledger_ledger::StateBackend;
use cycledger_protocol::adversary::AdversaryConfig;

use crate::runner::ScenarioRun;
use crate::spec::{behavior_name, mix_name};

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

/// Renders the canonical JSON report for one scenario run.
pub fn render_report(run: &ScenarioRun) -> String {
    let outcome = &run.outcome;
    let scenario = &outcome.scenario;
    let cfg = &scenario.config;
    let summary = &outcome.summary;

    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str("  \"schema\": \"cycledger-scenario-report/v1\",\n");
    out.push_str(&format!(
        "  \"name\": \"{}\",\n",
        escape_json(&scenario.name)
    ));
    out.push_str(&format!(
        "  \"paper_claim\": \"{}\",\n",
        escape_json(&scenario.paper_claim)
    ));
    out.push_str(&format!(
        "  \"description\": \"{}\",\n",
        escape_json(&scenario.description)
    ));
    out.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    out.push_str(&format!("  \"rounds\": {},\n", scenario.rounds));
    out.push_str(&format!("  \"smoke\": {},\n", scenario.smoke));

    out.push_str("  \"config\": {\n");
    out.push_str(&format!("    \"committees\": {},\n", cfg.committees));
    out.push_str(&format!(
        "    \"committee_size\": {},\n",
        cfg.committee_size
    ));
    out.push_str(&format!(
        "    \"partial_set_size\": {},\n",
        cfg.partial_set_size
    ));
    out.push_str(&format!("    \"referee_size\": {},\n", cfg.referee_size));
    out.push_str(&format!("    \"total_nodes\": {},\n", cfg.total_nodes()));
    out.push_str(&format!("    \"txs_per_round\": {},\n", cfg.txs_per_round));
    out.push_str(&format!(
        "    \"cross_shard_ratio\": {:?},\n",
        cfg.cross_shard_ratio
    ));
    out.push_str(&format!(
        "    \"invalid_ratio\": {:?},\n",
        cfg.invalid_ratio
    ));
    out.push_str(&format!(
        "    \"malicious_fraction\": {:?},\n",
        cfg.adversary.malicious_fraction
    ));
    out.push_str(&format!(
        "    \"mix\": \"{}\",\n",
        escape_json(&mix_name(cfg.adversary.mix))
    ));
    // `message_driven`, the epoch knobs, the traffic block and the state
    // backend are emitted only when on, so reports (and goldens) of
    // scenarios predating any of these extensions keep their exact
    // pre-extension bytes.
    let epochs_on = cfg.epoch_length > 0;
    let traffic_on = cfg.traffic.is_some();
    let state_on = cfg.state_backend == StateBackend::Smt;
    out.push_str(&format!(
        "    \"verify_signatures\": true{}\n",
        if cfg.message_driven || epochs_on || traffic_on || state_on {
            ","
        } else {
            ""
        }
    ));
    if cfg.message_driven {
        out.push_str(&format!(
            "    \"message_driven\": true{}\n",
            if epochs_on || traffic_on || state_on {
                ","
            } else {
                ""
            }
        ));
    }
    if epochs_on {
        out.push_str(&format!("    \"epoch_length\": {},\n", cfg.epoch_length));
        out.push_str(&format!(
            "    \"joins_per_epoch\": {},\n",
            cfg.joins_per_epoch
        ));
        out.push_str(&format!(
            "    \"leaves_per_epoch\": {}{}\n",
            cfg.leaves_per_epoch,
            if traffic_on || state_on { "," } else { "" }
        ));
    }
    if let Some(traffic) = &cfg.traffic {
        out.push_str(&format!(
            "    \"traffic_rate_tps\": {:?},\n",
            traffic.rate_tps
        ));
        out.push_str(&format!(
            "    \"traffic_shape\": \"{}\",\n",
            traffic.shape.name()
        ));
        out.push_str(&format!(
            "    \"traffic_warmup_rounds\": {}{}\n",
            traffic.warmup_rounds,
            if state_on { "," } else { "" }
        ));
    }
    if state_on {
        out.push_str(&format!(
            "    \"state_backend\": \"{}\"\n",
            cfg.state_backend.name()
        ));
    }
    out.push_str("  },\n");

    out.push_str(&format!("  \"digest\": \"{}\",\n", outcome.digest));
    out.push_str("  \"worker_digests\": [\n");
    for (i, (workers, digest)) in outcome.worker_digests.iter().enumerate() {
        let comma = if i + 1 < outcome.worker_digests.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "    {{ \"workers\": {workers}, \"digest\": \"{digest}\" }}{comma}\n"
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"rerun_digest\": \"{}\",\n",
        outcome.rerun_digest
    ));

    out.push_str("  \"adversary\": {\n");
    out.push_str(&format!(
        "    \"malicious_nodes\": {},\n",
        outcome.malicious_count
    ));
    out.push_str(&format!(
        "    \"max_corrupted\": {}\n",
        AdversaryConfig::max_corrupted(outcome.total_nodes)
    ));
    out.push_str("  },\n");

    out.push_str("  \"injected_faults\": [\n");
    for (i, fault) in outcome.injected.iter().enumerate() {
        let comma = if i + 1 < outcome.injected.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "    {{ \"round\": {}, \"node\": {}, \"behavior\": \"{}\" }}{comma}\n",
            fault.round,
            fault.node.0,
            behavior_name(fault.behavior)
        ));
    }
    out.push_str("  ],\n");

    // Scheduled network faults (message-driven scenarios only; omitted
    // entirely otherwise so classic reports keep their exact bytes).
    if !scenario.net_faults.is_empty() {
        out.push_str("  \"net_faults\": [\n");
        for (i, fault) in scenario.net_faults.iter().enumerate() {
            let comma = if i + 1 < scenario.net_faults.len() {
                ","
            } else {
                ""
            };
            // Per-kind fields, each with its leading separator so a kind
            // without parameters (isolate-joiners) emits nothing extra.
            let detail = match fault.kind {
                crate::spec::NetFaultKind::IsolateLeader { committee } => {
                    format!(", \"committee\": {committee}")
                }
                crate::spec::NetFaultKind::IsolateCommons { committee, count } => {
                    format!(", \"committee\": {committee}, \"count\": {count}")
                }
                crate::spec::NetFaultKind::Delay { target, micros } => {
                    format!(
                        ", \"target\": \"{}\", \"delay_us\": {micros}",
                        escape_json(&target.to_spec())
                    )
                }
                crate::spec::NetFaultKind::Loss { ppm } => format!(", \"loss_ppm\": {ppm}"),
                crate::spec::NetFaultKind::CrashStop { target } => {
                    format!(", \"target\": \"{}\"", escape_json(&target.to_spec()))
                }
                crate::spec::NetFaultKind::IsolateJoiners => String::new(),
            };
            out.push_str(&format!(
                "    {{ \"from_round\": {}, \"until_round\": {}, \"kind\": \"{}\"{detail} }}{comma}\n",
                fault.from_round,
                fault.until_round,
                fault.kind.name()
            ));
        }
        out.push_str("  ],\n");
    }

    let cross_packed: usize = summary
        .rounds
        .iter()
        .map(|r| r.txs_packed_cross_shard)
        .sum();
    out.push_str("  \"metrics\": {\n");
    out.push_str(&format!(
        "    \"blocks_produced\": {},\n",
        summary.blocks_produced()
    ));
    out.push_str(&format!(
        "    \"chain_height\": {},\n",
        outcome.chain_height
    ));
    out.push_str(&format!(
        "    \"total_packed\": {},\n",
        summary.total_packed()
    ));
    out.push_str(&format!(
        "    \"total_cross_shard_packed\": {cross_packed},\n"
    ));
    out.push_str(&format!(
        "    \"mean_acceptance_rate\": {:.6},\n",
        summary.mean_acceptance_rate()
    ));
    out.push_str(&format!(
        "    \"evictions\": {},\n",
        summary.total_evictions()
    ));
    out.push_str(&format!(
        "    \"witnesses\": {},\n",
        summary.total_witnesses()
    ));
    out.push_str(&format!(
        "    \"censorship_reports\": {},\n",
        summary.total_censorship_reports()
    ));
    out.push_str(&format!(
        "    \"skipped_recoveries\": {},\n",
        summary.total_skipped_recoveries()
    ));
    out.push_str(&format!(
        "    \"punished_honest\": {}\n",
        summary.punished_honest().len()
    ));
    out.push_str("  },\n");

    // Message-driven network measurements (omitted for classic scenarios).
    if cfg.message_driven {
        out.push_str("  \"network\": {\n");
        out.push_str(&format!(
            "    \"quorum_timeouts\": {},\n",
            summary.total_quorum_timeouts()
        ));
        out.push_str(&format!(
            "    \"list_timeouts\": {},\n",
            summary.total_list_timeouts()
        ));
        out.push_str(&format!(
            "    \"votes_missing\": {},\n",
            summary.total_votes_missing()
        ));
        out.push_str(&format!(
            "    \"net_dropped_messages\": {},\n",
            summary.total_net_dropped_messages()
        ));
        out.push_str(&format!(
            "    \"duplicate_packed_txs\": {}\n",
            outcome.duplicate_packed_txs
        ));
        out.push_str("  },\n");
    }

    // Epoch lifecycle measurements (omitted when epochs are disabled).
    if epochs_on {
        let joined: usize = summary
            .rounds
            .iter()
            .filter_map(|r| r.epoch_transition.as_ref())
            .map(|t| t.joined.len())
            .sum();
        let left: usize = summary
            .rounds
            .iter()
            .filter_map(|r| r.epoch_transition.as_ref())
            .map(|t| t.left.len())
            .sum();
        let still_syncing = summary
            .rounds
            .iter()
            .filter_map(|r| r.epoch_transition.as_ref())
            .next_back()
            .map_or(0, |t| t.still_syncing);
        let reshuffled_seats: usize = summary
            .rounds
            .iter()
            .filter_map(|r| r.epoch_transition.as_ref())
            .map(|t| t.reshuffled_seats)
            .sum();
        out.push_str("  \"epochs\": {\n");
        out.push_str(&format!(
            "    \"transitions\": {},\n",
            summary.total_epoch_transitions()
        ));
        out.push_str(&format!("    \"joined\": {joined},\n"));
        out.push_str(&format!("    \"left\": {left},\n"));
        out.push_str(&format!("    \"synced\": {},\n", summary.total_synced()));
        out.push_str(&format!("    \"still_syncing\": {still_syncing},\n"));
        out.push_str(&format!(
            "    \"sync_timeouts\": {},\n",
            summary.total_sync_timeouts()
        ));
        out.push_str(&format!("    \"reshuffled_seats\": {reshuffled_seats},\n"));
        out.push_str(&format!(
            "    \"syncing_abstentions\": {},\n",
            summary.total_syncing_abstentions()
        ));
        out.push_str(&format!(
            "    \"syncing_votes\": {}\n",
            summary.total_syncing_votes()
        ));
        out.push_str("  },\n");
    }

    // Open-loop traffic measurements (omitted for closed-loop scenarios).
    // Percentiles are µs of *virtual* time — machine-independent, so they
    // golden-gate exactly like every integer counter.
    if let Some(traffic) = &outcome.traffic {
        out.push_str("  \"traffic\": {\n");
        out.push_str(&format!("    \"injected\": {},\n", traffic.injected));
        out.push_str(&format!(
            "    \"rejected_invalid\": {},\n",
            traffic.rejected_invalid
        ));
        out.push_str(&format!("    \"confirmed\": {},\n", traffic.confirmed));
        out.push_str(&format!("    \"censored\": {},\n", traffic.censored));
        out.push_str(&format!("    \"backlog\": {},\n", traffic.backlog));
        out.push_str(&format!(
            "    \"virtual_elapsed_us\": {},\n",
            traffic.virtual_elapsed_us
        ));
        out.push_str(&format!(
            "    \"sustained_tps\": {:.6},\n",
            traffic.sustained_tps()
        ));
        out.push_str(&format!("    \"latency_samples\": {},\n", traffic.samples));
        out.push_str(&format!("    \"p50_us\": {},\n", traffic.p50_us));
        out.push_str(&format!("    \"p99_us\": {},\n", traffic.p99_us));
        out.push_str(&format!("    \"p999_us\": {},\n", traffic.p999_us));
        out.push_str(&format!("    \"max_us\": {},\n", traffic.max_us));
        out.push_str(&format!("    \"mean_us\": {:.6},\n", traffic.mean_us));
        out.push_str(&format!("    \"p99_delta\": {:.6}\n", traffic.p99_delta()));
        out.push_str("  },\n");
    }

    // Authenticated-state measurements (omitted under the map backend, so
    // every pre-smt golden keeps its exact bytes). The final roots are the
    // last round's published per-shard commitments; the proof counters come
    // from the runner's light-client audit against exactly those roots.
    if state_on {
        let audit = outcome.proof_audit.unwrap_or_default();
        out.push_str("  \"state\": {\n");
        out.push_str(&format!(
            "    \"backend\": \"{}\",\n",
            cfg.state_backend.name()
        ));
        out.push_str(&format!("    \"shards\": {},\n", cfg.committees));
        out.push_str("    \"final_state_roots\": [\n");
        let final_roots = summary
            .rounds
            .last()
            .map(|r| r.state_roots.as_slice())
            .unwrap_or_default();
        for (i, root) in final_roots.iter().enumerate() {
            let comma = if i + 1 < final_roots.len() { "," } else { "" };
            out.push_str(&format!("      \"{}\"{comma}\n", root.to_hex()));
        }
        out.push_str("    ],\n");
        out.push_str(&format!(
            "    \"inclusion_proofs_checked\": {},\n",
            audit.inclusion_checked
        ));
        out.push_str(&format!(
            "    \"inclusion_proofs_verified\": {},\n",
            audit.inclusion_verified
        ));
        out.push_str(&format!(
            "    \"exclusion_proofs_checked\": {},\n",
            audit.exclusion_checked
        ));
        out.push_str(&format!(
            "    \"exclusion_proofs_verified\": {},\n",
            audit.exclusion_verified
        ));
        out.push_str(&format!(
            "    \"root_mismatches\": {}\n",
            audit.root_mismatches
        ));
        out.push_str("  },\n");
    }

    out.push_str("  \"invariants\": [\n");
    for (i, result) in run.invariants.iter().enumerate() {
        let comma = if i + 1 < run.invariants.len() {
            ","
        } else {
            ""
        };
        let status = if result.passed { "pass" } else { "FAIL" };
        out.push_str(&format!(
            "    {{ \"invariant\": \"{}\", \"status\": \"{status}\", \"detail\": \"{}\" }}{comma}\n",
            escape_json(&result.invariant),
            escape_json(&result.detail)
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
