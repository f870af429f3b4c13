//! `scenario-runner` — executes the scenario matrix, emits canonical JSON
//! reports, and gates them against committed golden files.
//!
//! ```text
//! scenario-runner [--matrix smoke|full] [--scenario NAME ...] [--list]
//!                 [--scenario-dir DIR] [--out DIR] [--golden DIR]
//!                 [--bless] [--jobs N] [--state-backend map|smt]
//! ```
//!
//! Exit status is non-zero when any invariant is violated, any report
//! drifts from its golden file, or a golden file is missing (run with
//! `--bless` to write the current reports as the new goldens).
//!
//! `--state-backend` overrides every selected scenario's UTXO store (the CI
//! state-matrix job runs the smoke matrix under `smt`). Because the smt
//! backend extends each report with per-round state roots, an overridden
//! run is gated on its invariants only — golden comparison is skipped, as
//! the committed goldens pin the scenarios' *declared* backends.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cycledger_ledger::StateBackend;
use cycledger_scenarios::registry::builtin_scenarios;
use cycledger_scenarios::report::render_report;
use cycledger_scenarios::runner::run_matrix;
use cycledger_scenarios::spec::Scenario;
use cycledger_scenarios::toml_cfg;

struct Options {
    matrix: String,
    names: Vec<String>,
    list: bool,
    scenario_dir: Option<PathBuf>,
    out_dir: PathBuf,
    golden_dir: PathBuf,
    bless: bool,
    jobs: usize,
    state_backend: Option<StateBackend>,
}

impl Options {
    fn parse() -> Result<Options, String> {
        let mut options = Options {
            matrix: "full".into(),
            names: Vec::new(),
            list: false,
            scenario_dir: None,
            out_dir: PathBuf::from("scenarios/reports"),
            golden_dir: PathBuf::from("scenarios/golden"),
            bless: false,
            jobs: 0,
            state_backend: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value_of =
                |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
            match arg.as_str() {
                "--matrix" => {
                    options.matrix = value_of("--matrix")?;
                    if options.matrix != "smoke" && options.matrix != "full" {
                        return Err(format!(
                            "--matrix must be `smoke` or `full`, got {:?}",
                            options.matrix
                        ));
                    }
                }
                "--scenario" => options.names.push(value_of("--scenario")?),
                "--list" => options.list = true,
                "--scenario-dir" => {
                    options.scenario_dir = Some(PathBuf::from(value_of("--scenario-dir")?))
                }
                "--out" => options.out_dir = PathBuf::from(value_of("--out")?),
                "--golden" => options.golden_dir = PathBuf::from(value_of("--golden")?),
                "--bless" => options.bless = true,
                "--jobs" => {
                    options.jobs = value_of("--jobs")?
                        .parse()
                        .map_err(|_| "--jobs needs an integer".to_string())?
                }
                "--state-backend" => {
                    let name = value_of("--state-backend")?;
                    options.state_backend =
                        Some(StateBackend::from_name(&name).ok_or_else(|| {
                            format!("--state-backend must be `map` or `smt`, got {name:?}")
                        })?);
                }
                "--help" | "-h" => {
                    println!(
                        "usage: scenario-runner [--matrix smoke|full] [--scenario NAME ...] \
                         [--list] [--scenario-dir DIR] [--out DIR] [--golden DIR] [--bless] \
                         [--jobs N] [--state-backend map|smt]"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(options)
    }
}

/// Builtins plus TOML-loaded scenarios; a loaded scenario with a builtin's
/// name replaces the builtin (override), new names append.
fn assemble_scenarios(options: &Options) -> Result<Vec<Scenario>, String> {
    let mut scenarios = builtin_scenarios();
    if let Some(dir) = &options.scenario_dir {
        for loaded in toml_cfg::load_dir(dir)? {
            match scenarios.iter_mut().find(|s| s.name == loaded.name) {
                Some(slot) => *slot = loaded,
                None => scenarios.push(loaded),
            }
        }
    }
    if !options.names.is_empty() {
        let mut picked = Vec::new();
        for name in &options.names {
            let found = scenarios
                .iter()
                .find(|s| &s.name == name)
                .ok_or_else(|| format!("no scenario named {name:?} (try --list)"))?;
            picked.push(found.clone());
        }
        return Ok(picked);
    }
    if options.matrix == "smoke" {
        scenarios.retain(|s| s.smoke);
    }
    Ok(scenarios)
}

fn main() -> ExitCode {
    match execute() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("scenario-runner: {e}");
            ExitCode::FAILURE
        }
    }
}

fn create_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Runs the selected scenarios: `Ok(false)` when any of them failed to run,
/// violated an invariant or drifted from its golden file.
fn execute() -> Result<bool, String> {
    let options = Options::parse()?;
    let mut scenarios = assemble_scenarios(&options)?;
    if let Some(backend) = options.state_backend {
        for scenario in &mut scenarios {
            scenario.config.state_backend = backend;
        }
    }

    if options.list {
        println!(
            "{:<24} {:<6} {:<28} {:>6} {:>8} {:>11}",
            "scenario", "smoke", "paper claim", "rounds", "faults", "invariants"
        );
        for s in &scenarios {
            println!(
                "{:<24} {:<6} {:<28} {:>6} {:>8} {:>11}",
                s.name,
                s.smoke,
                s.paper_claim,
                s.rounds,
                s.faults.len(),
                s.invariants.len()
            );
        }
        return Ok(true);
    }

    if scenarios.is_empty() {
        return Err("nothing to run".into());
    }
    create_dir(&options.out_dir)?;

    let started = std::time::Instant::now();
    let results = run_matrix(&scenarios, options.jobs);
    let mut failures = 0usize;
    for (scenario, result) in scenarios.iter().zip(results) {
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                println!("✗ {:<24} failed to run: {e}", scenario.name);
                failures += 1;
                continue;
            }
        };
        let report = render_report(&run);
        let report_path = options.out_dir.join(format!("{}.json", scenario.name));
        write(&report_path, &report)?;

        let golden_path = options.golden_dir.join(format!("{}.json", scenario.name));
        let golden_status = if options.state_backend.is_some() {
            // The override changes report bytes by design (state roots ride
            // every report); invariants still gate the run.
            "golden skipped (backend override)"
        } else if options.bless {
            create_dir(&options.golden_dir)?;
            write(&golden_path, &report)?;
            "blessed"
        } else {
            match std::fs::read_to_string(&golden_path) {
                Ok(golden) if golden == report => "golden ok",
                Ok(_) => {
                    failures += 1;
                    "GOLDEN DRIFT"
                }
                Err(_) => {
                    failures += 1;
                    "GOLDEN MISSING"
                }
            }
        };

        let violations = run.violations();
        if violations.is_empty() {
            println!(
                "✓ {:<24} {:>2} invariants ok, {golden_status} ({})",
                scenario.name,
                run.invariants.len(),
                run.outcome.digest.chars().take(12).collect::<String>()
            );
        } else {
            failures += 1;
            println!(
                "✗ {:<24} {} of {} invariants VIOLATED, {golden_status}",
                scenario.name,
                violations.len(),
                run.invariants.len()
            );
            for v in violations {
                println!("    {}: {}", v.invariant, v.detail);
            }
        }
    }

    println!(
        "\n{} scenario(s) in {:.1}s, {failures} failure(s); reports in {}",
        scenarios.len(),
        started.elapsed().as_secs_f64(),
        options.out_dir.display()
    );
    Ok(failures == 0)
}
