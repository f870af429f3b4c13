//! Integration gates over the built-in scenario matrix:
//!
//! * every built-in scenario is deterministic across 1/2/8 executor workers
//!   *and* across two consecutive runs (canonical-digest equality),
//! * every built-in scenario passes all of its declared invariants,
//! * the rendered JSON reports match the golden files committed under
//!   `scenarios/golden/`,
//! * the TOML schema round-trips the whole registry losslessly.

use std::path::PathBuf;

use cycledger_scenarios::registry::builtin_scenarios;
use cycledger_scenarios::report::render_report;
use cycledger_scenarios::runner::run_matrix;
use cycledger_scenarios::toml_cfg::{scenarios_from_toml, scenarios_to_toml};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/golden")
}

/// One pass over the whole registry: run_scenario executes every worker
/// count in the scenario's matrix plus a fresh rerun of the baseline, so a
/// single matrix run yields all the digests the differential claims need.
/// Long-running scenarios (the 10k-round soak) are exempt from the
/// debug-mode matrix; the release-mode CI latency gate runs them via
/// `scenario-runner --scenario NAME` against the same golden files.
fn debug_matrix() -> Vec<cycledger_scenarios::spec::Scenario> {
    builtin_scenarios()
        .into_iter()
        .filter(|s| s.rounds <= 1000)
        .collect()
}

#[test]
fn builtins_are_deterministic_invariant_clean_and_match_goldens() {
    let scenarios = debug_matrix();
    let results = run_matrix(&scenarios, 0);
    for (scenario, result) in scenarios.iter().zip(results) {
        let run = result.unwrap_or_else(|e| panic!("{} failed to run: {e}", scenario.name));
        let outcome = &run.outcome;

        // Differential: 1/2/8 workers (every builtin declares that matrix).
        assert_eq!(
            scenario.workers,
            vec![1, 2, 8],
            "{}: builtin worker matrix changed",
            scenario.name
        );
        for (workers, digest) in &outcome.worker_digests {
            assert_eq!(
                digest, &outcome.digest,
                "{}: digest differs at {workers} workers",
                scenario.name
            );
        }
        // Differential: two consecutive runs.
        assert_eq!(
            outcome.rerun_digest, outcome.digest,
            "{}: digest differs across consecutive runs",
            scenario.name
        );

        // Every declared invariant holds.
        assert!(
            run.passed(),
            "{}: invariant violations: {:#?}",
            scenario.name,
            run.violations()
        );

        // The canonical report matches the committed golden file.
        let golden_path = golden_dir().join(format!("{}.json", scenario.name));
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "{}: missing golden {} ({e}); run `scenario-runner --bless`",
                scenario.name,
                golden_path.display()
            )
        });
        assert_eq!(
            render_report(&run),
            golden,
            "{}: report drifted from its golden file; inspect the diff and \
             re-bless with `scenario-runner --bless` if intended",
            scenario.name
        );
    }
}

#[test]
fn no_stale_golden_files() {
    let names: Vec<String> = builtin_scenarios().into_iter().map(|s| s.name).collect();
    for entry in std::fs::read_dir(golden_dir()).expect("golden dir exists") {
        let path = entry.expect("dir entry").path();
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        assert!(
            names.contains(&stem),
            "stale golden file {} has no matching builtin scenario",
            path.display()
        );
    }
}

#[test]
fn toml_round_trips_the_whole_registry() {
    let scenarios = builtin_scenarios();
    let serialized = scenarios_to_toml(&scenarios);
    let parsed = scenarios_from_toml(&serialized).expect("serialized registry parses");
    assert_eq!(parsed.len(), scenarios.len());
    let reserialized = scenarios_to_toml(&parsed);
    assert_eq!(
        serialized, reserialized,
        "TOML round-trip must be lossless over the whole registry"
    );
    // Field-by-field fidelity is `toml_cfg`'s key-table property, which
    // compares every row of every builtin under random seeds and ratios.
    // The retired key is never written and, read, is a typo like any other;
    // the shipped example never named it and still loads.
    assert!(!serialized.contains("verify_signatures"));
    let error = scenarios_from_toml("[[scenario]]\nverify_signatures = false\n").unwrap_err();
    assert!(
        error.contains("unknown scenario key \"verify_signatures\""),
        "{error}"
    );
    let example = include_str!("../../../scenarios/examples/double-silent.toml");
    let example = scenarios_from_toml(example).expect("the example loads");
    assert_eq!(example[0].name, "double-silent");
}
