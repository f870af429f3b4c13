//! The one benchmark behind `BENCHMARK.json`.
//!
//! ```text
//! benchmark --list
//! benchmark all    [--seed N]        every workload, untraced then traced, one child process each
//! benchmark repeat [--seed N]        two untraced sets with one seed, compared against the bounds
//! benchmark run <workload> [--traced] [--seed N] [--rounds N]
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>     (the driver's form)
//! ```
//!
//! A run prints what it measured, then — as the last line of standard
//! output — one JSON object `{correct, attempted, failed, metrics}`, and
//! exits non-zero if any output check failed. See `README.md`.

mod checks;
mod json;
mod layers;
mod metrics;
mod probes;
mod run;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use cycledger_protocol::traffic::nominal_round_duration;

use checks::Check;
use metrics::{Measured, MetricSet, END_TO_END, PER_LAYER};
use workloads::{Workload, RUN_SECONDS, TRACED_SHARE, WARMUP_ROUNDS, WORKLOADS};

#[global_allocator]
static ALLOC: alloccount::CountingAllocator = alloccount::CountingAllocator;

const DEFAULT_SEED: u64 = 4242;

const USAGE: &str = "usage:
  benchmark --list
  benchmark all [--seed N]
  benchmark repeat [--seed N]
  benchmark run <workload> [--traced] [--seed N] [--rounds N]
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// One run's request, from either command-line form.
struct Request {
    workload: &'static Workload,
    seed: u64,
    /// Measured rounds of an untraced run; a traced run covers
    /// [`TRACED_SHARE`] of them.
    rounds: usize,
    traced: bool,
}

/// What one run measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Measured>,
    checks: Vec<Check>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--list") => {
            list();
            Ok(true)
        }
        Some("all") => parse_seed(&args[1..]).and_then(all),
        Some("repeat") => parse_seed(&args[1..]).and_then(repeat),
        Some("run") => parse_run(&args[1..]).and_then(|request| run_and_report(&request)),
        Some(_) => parse_contract(&args).and_then(|request| run_and_report(&request)),
        None => Err(USAGE.into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// Command-line words split into `--flag value` pairs (bare `--traced`
/// counts as one) and positional words.
struct Words<'a> {
    flags: Vec<(&'a str, &'a str)>,
    positional: Vec<&'a str>,
}

fn split_flags(args: &[String]) -> Result<Words<'_>, String> {
    let mut words = Words {
        flags: Vec::new(),
        positional: Vec::new(),
    };
    let mut iter = args.iter().map(String::as_str);
    while let Some(arg) = iter.next() {
        if arg == "--traced" {
            words.flags.push((arg, "1"));
        } else if arg.starts_with("--") {
            let value = iter.next().ok_or(format!("{arg} needs a value\n{USAGE}"))?;
            words.flags.push((arg, value));
        } else {
            words.positional.push(arg);
        }
    }
    Ok(words)
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} {value:?} is not a number\n{USAGE}"))
}

fn workload_named(name: &str) -> Result<&'static Workload, String> {
    workloads::find(name).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })
}

fn parse_seed(args: &[String]) -> Result<u64, String> {
    let Words { flags, positional } = split_flags(args)?;
    let mut seed = DEFAULT_SEED;
    for (flag, value) in flags {
        match flag {
            "--seed" => seed = number(flag, value)?,
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if !positional.is_empty() {
        return Err(USAGE.into());
    }
    Ok(seed)
}

fn parse_run(args: &[String]) -> Result<Request, String> {
    let Words { flags, positional } = split_flags(args)?;
    let [name] = positional[..] else {
        return Err(USAGE.into());
    };
    let workload = workload_named(name)?;
    let mut request = Request {
        workload,
        seed: DEFAULT_SEED,
        rounds: workload.rounds_for(RUN_SECONDS),
        traced: false,
    };
    for (flag, value) in flags {
        match flag {
            "--seed" => request.seed = number(flag, value)?,
            "--rounds" => request.rounds = number(flag, value)?,
            "--traced" => request.traced = true,
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if request.rounds == 0 {
        return Err("--rounds must be at least 1".into());
    }
    Ok(request)
}

fn parse_contract(args: &[String]) -> Result<Request, String> {
    let Words { flags, positional } = split_flags(args)?;
    if !positional.is_empty() {
        return Err(USAGE.into());
    }
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    for (flag, value) in flags {
        match flag {
            "--workload" => workload = Some(workload_named(value)?),
            "--seed" => seed = Some(number::<u64>(flag, value)?),
            "--seconds" => seconds = Some(number::<u64>(flag, value)?),
            "--trace" => {
                traced = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1\n{USAGE}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    match (workload, seed, seconds, traced) {
        (Some(workload), Some(seed), Some(seconds), Some(traced)) if seconds > 0 => Ok(Request {
            workload,
            seed,
            rounds: workload.rounds_for(seconds),
            traced,
        }),
        _ => Err(USAGE.into()),
    }
}

fn list() {
    println!("workloads:");
    for workload in &WORKLOADS {
        println!("  {:<20} {}", workload.name, workload.why);
    }
    println!("end-to-end metrics (untraced run; bound = share of the parent's median):");
    for metric in &END_TO_END {
        println!(
            "  {:<26} {:<8} {} is better, bound {:>4.0} %, {}",
            metric.name,
            metric.unit,
            metric.better.name(),
            metric.bound * 100.0,
            if metric.exact { "exact" } else { "wall-clock" }
        );
    }
    println!("per-layer metrics (traced run; no bound):");
    for metric in &PER_LAYER {
        println!(
            "  {:<46} {:<6} {} is better",
            metric.name,
            metric.unit,
            metric.better.name()
        );
    }
}

/// Where result files and traces go: `out/` next to this package's manifest.
fn out_dir() -> Result<PathBuf, String> {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    let dir = PathBuf::from(manifest_dir).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs one request, prints the human-readable report and the result line,
/// writes the result file. `Ok(false)` when an output check failed.
fn run_and_report(request: &Request) -> Result<bool, String> {
    let workload = request.workload;
    let config = workload.config(request.seed);
    let nominal_ms = nominal_round_duration(&config.latency).as_micros() as f64 / 1e3;
    let traffic = config.traffic.expect("every workload is open loop");
    println!(
        "workload {} seed {} {}",
        workload.name,
        request.seed,
        if request.traced { "traced" } else { "untraced" }
    );
    println!(
        "  {} committees x {}, capacity {} tx/round, {} worker threads (of {} available)",
        config.committees,
        config.committee_size,
        config.txs_per_round,
        config.worker_threads,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!(
        "  open loop in virtual time: {} arrivals at {:.1} tx/s ({:.0} % of capacity), generator \
         lateness 0 us (it lives on the simulated clock)",
        traffic.shape.name(),
        traffic.rate_tps,
        workload.load * 100.0
    );
    println!(
        "  injected delay: delta {} ms, gamma {} ms, nominal round {nominal_ms} ms of virtual \
         time; confirm latency is injected delay, not processor time, and is round-quantised",
        config.latency.delta.as_micros() / 1000,
        config.latency.gamma.as_micros() / 1000,
    );

    let outcome = if request.traced {
        run_traced(request)?
    } else {
        run_untraced(request)?
    };

    for metric in &outcome.metrics {
        println!(
            "  {:<46} {:>16.4} {:<7} {}",
            metric.name,
            metric.value,
            metric.unit,
            describe(metric.name)
        );
    }
    for check in &outcome.checks {
        println!(
            "  check {:<34} {} {}",
            check.name,
            if check.passed { "ok  " } else { "FAIL" },
            check.detail
        );
    }
    let line = json::result_line(
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        &outcome.metrics,
    );
    let suffix = if request.traced { ".traced" } else { "" };
    let path = out_dir()?.join(format!("{}{suffix}.json", workload.name));
    std::fs::write(&path, format!("{line}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{line}");
    Ok(outcome.correct())
}

/// `lower is better, bound 10 %` and the like, for the report's last column.
fn describe(name: &str) -> String {
    if let Some(metric) = END_TO_END.iter().find(|m| m.name == name) {
        return format!(
            "{} is better, bound {:.0} %",
            metric.better.name(),
            metric.bound * 100.0
        );
    }
    let metric = PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .expect("only catalogued metrics are measured");
    format!("{} is better", metric.better.name())
}

fn run_untraced(request: &Request) -> Result<Outcome, String> {
    let Request {
        workload,
        seed,
        rounds,
        ..
    } = *request;
    // The first pass gives everything that is not read off the clock, and
    // is the one the output checks run on.
    let mut pass = run::Pass::run(workload, seed, rounds);
    println!(
        "  measured {rounds} rounds after {WARMUP_ROUNDS} warm-up rounds, {} pass(es) \
         ({} round-wall samples, {} confirm-latency samples)",
        workload.passes,
        pass.round_wall_s.len(),
        pass.sim.traffic().map_or(0, |t| t.samples),
    );
    let mut set = run::end_to_end(&pass)?;
    let mut checks = checks::check_pass(workload, &mut pass);
    let totals = run::TrafficTotals::of(&pass);
    let committed = pass.committed();
    let digest = checks::digest_hex(&pass);
    let mut timings = vec![run::Timing::of(&pass)];
    let mut setups = vec![pass.setup.seconds()];
    // Peak memory is already read; free the run before building the next.
    drop(pass);

    // Further passes replay the same inputs; only their clocks are kept.
    let mut replayed = true;
    for _ in 1..workload.passes {
        let pass = run::Pass::run(workload, seed, rounds);
        replayed &= checks::digest_hex(&pass) == digest;
        timings.push(run::Timing::of(&pass));
        setups.push(pass.setup.seconds());
    }
    if workload.passes > 1 {
        checks.push(Check {
            name: "passes-replay-the-first",
            passed: replayed,
            detail: format!("{} passes, digest {digest}", workload.passes),
        });
    }
    for (index, timing) in timings.iter().enumerate() {
        println!(
            "  pass {}: {:.2} s wall, {:.2} s cpu",
            index + 1,
            timing.wall_s(),
            timing.cpu_s
        );
    }
    run::timed(&mut set, &run::Timing::fastest(&timings), committed)?;

    let samples = run::setup_samples(workload, seed, setups);
    println!(
        "  setup_s is the median of {} set-ups: {samples:.3?}",
        samples.len()
    );
    set.set("setup_s", stats::median(&samples));
    Ok(Outcome {
        attempted: totals.attempted(),
        failed: totals.failed(),
        metrics: set.finish()?,
        checks,
    })
}

fn run_traced(request: &Request) -> Result<Outcome, String> {
    let Request { workload, seed, .. } = *request;
    let rounds = ((request.rounds as f64 * TRACED_SHARE).round() as usize).max(1);

    // The same rounds untraced, in this process, one round of each pass at a
    // time and alternating which goes first: the pair of rounds sees the
    // same machine state, so the difference of the two passes is the cost of
    // tracing and not whatever the host did in between. The untraced pass is
    // also the digest the traced one must reproduce.
    let mut tracer = trace::Tracer::new(rounds * 10 + 128);
    tracer.open("run", None, 0);
    let mut reference = run::Pass::start(workload, seed, rounds);
    let mut traced = run::Pass::start(workload, seed, rounds);
    for index in 0..rounds {
        if index % 2 == 0 {
            reference.step(None);
            traced.step(Some(&mut tracer));
        } else {
            traced.step(Some(&mut tracer));
            reference.step(None);
        }
    }
    reference.finish();
    traced.finish();
    println!(
        "  traced {rounds} rounds in {:.2} s (untraced reference, interleaved: {:.2} s), then \
         the probes",
        traced.wall_s, reference.wall_s
    );
    let mut set = MetricSet::per_layer();
    probes::run_probes(workload, seed, &mut tracer, &mut set);
    tracer.close("run", 0);

    let mut checks = checks::check_pass(workload, &mut traced);
    let traced_digest = checks::digest_hex(&traced);
    let reference_digest = checks::digest_hex(&reference);
    checks.push(Check {
        name: "traced-digest-equals-untraced",
        passed: traced_digest == reference_digest,
        detail: format!("traced {traced_digest}, untraced {reference_digest}"),
    });
    checks.push(layers::spans_account_for_round_walls(
        &traced,
        tracer.spans(),
    ));
    layers::from_run(&mut set, &reference, &mut traced, tracer.spans());

    let dir = out_dir()?;
    let jsonl = dir.join(format!("{}.trace.jsonl", workload.name));
    let chrome = dir.join(format!("{}.trace.json", workload.name));
    tracer
        .write_jsonl(&jsonl)
        .and_then(|()| tracer.write_chrome(&chrome))
        .map_err(|e| format!("writing the trace under {}: {e}", dir.display()))?;
    println!(
        "  {} spans -> {} (and {} for Perfetto)",
        tracer.spans().len(),
        jsonl.display(),
        chrome.display()
    );

    let totals = run::TrafficTotals::of(&traced);
    Ok(Outcome {
        attempted: totals.attempted(),
        failed: totals.failed(),
        metrics: set.finish()?,
        checks,
    })
}

/// A child's parsed result line.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

impl ChildResult {
    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("child did not report {name}"))
    }
}

/// Runs `benchmark run <workload> ...` in a child process of its own (fresh
/// address space, so peak memory and allocator state never carry over),
/// echoes its report and parses its result line.
fn run_child(workload: &Workload, seed: u64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["run", workload.name, "--seed", &seed.to_string()])
        .stderr(Stdio::inherit());
    if traced {
        command.arg("--traced");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawning child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = json::parse(line).map_err(|e| format!("child result line: {e}"))?;
    let correct = doc.get("correct").and_then(json::Value::as_bool);
    let Some(json::Value::Obj(fields)) = doc.get("metrics") else {
        return Err("child result has no metrics".into());
    };
    let metrics = fields
        .iter()
        .map(|(name, entry)| {
            let value = entry.get("value").and_then(json::Value::as_f64);
            value
                .map(|v| (name.clone(), v))
                .ok_or("metric without value")
        })
        .collect::<Result<_, _>>()?;
    if !output.status.success() && correct != Some(false) {
        return Err(format!("child exited with {}", output.status));
    }
    Ok(ChildResult {
        correct: correct == Some(true),
        metrics,
    })
}

/// Every workload, untraced for the end-to-end metrics and then traced for
/// the per-layer ones, each in a child process; then how the workloads
/// separate the layers, from the traced runs.
fn all(seed: u64) -> Result<bool, String> {
    let mut correct = true;
    let mut traced_results = Vec::new();
    for workload in &WORKLOADS {
        correct &= run_child(workload, seed, false)?.correct;
        let traced = run_child(workload, seed, true)?;
        correct &= traced.correct;
        traced_results.push((workload, traced));
    }
    println!("layer separation (traced runs, share of the measured round):");
    for (workload, traced) in &traced_results {
        let phase = |name: &str| traced.get(&format!("protocol.phase.{name}.ms"));
        let outside = traced.get("protocol.round.outside-phases.ms");
        let round: f64 = metrics::ENGINE_PHASES.iter().map(|p| phase(p)).sum::<f64>() + outside;
        println!(
            "  {:<20} round {:>8.2} ms | inter-consensus {:>5.1} % | intra+reputation+selection+\
             configuration {:>5.1} % | block-generation+outside {:>5.1} % | recoveries {} drops/round \
             {} quorum timeouts {} | trace overhead {:.2} %",
            workload.name,
            round,
            100.0 * phase("inter-consensus") / round,
            100.0
                * (phase("intra-consensus")
                    + phase("reputation-update")
                    + phase("selection")
                    + phase("committee-configuration"))
                / round,
            100.0 * (phase("block-generation") + outside) / round,
            traced.get("protocol.recovery.attempts"),
            traced.get("net.dropped_per_round"),
            traced.get("protocol.driven.quorum_timeouts"),
            traced.get("protocol.trace.overhead_pct"),
        );
    }
    println!(
        "all: {}",
        if correct {
            "every check passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(correct)
}

/// Two full untraced sets with one seed: every wall-clock metric must agree
/// within its own bound and every exact metric bit for bit, or the bounds
/// could not tell a regression from noise.
fn repeat(seed: u64) -> Result<bool, String> {
    let mut sets = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for workload in &WORKLOADS {
            set.push(run_child(workload, seed, false)?);
        }
        sets.push(set);
    }
    let mut agreed = true;
    println!("repeat (seed {seed}): first set, second set, gap as a share of the first, bound");
    for (index, workload) in WORKLOADS.iter().enumerate() {
        let (first, second) = (&sets[0][index], &sets[1][index]);
        agreed &= first.correct && second.correct;
        for metric in &END_TO_END {
            let (a, b) = (first.get(metric.name), second.get(metric.name));
            let gap = stats::gap(a, b);
            let ok = if metric.exact {
                a.to_bits() == b.to_bits()
            } else {
                gap <= metric.bound
            };
            agreed &= ok;
            println!(
                "  {:<20} {:<24} {:>14.4} {:>14.4} {:>7.2} % {:>5.0} % {}",
                workload.name,
                metric.name,
                a,
                b,
                gap * 100.0,
                metric.bound * 100.0,
                match (ok, metric.exact) {
                    (true, true) => "identical",
                    (true, false) => "within bound",
                    (false, true) => "EXACT METRIC DIFFERS",
                    (false, false) => "GAP ABOVE BOUND",
                }
            );
        }
    }
    println!(
        "repeat: {}",
        if agreed {
            "sets agree"
        } else {
            "SETS DISAGREE"
        }
    );
    Ok(agreed)
}
