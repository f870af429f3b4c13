//! Source-shape guards: one table of the checks that keep the code in the
//! shape that carries the paper's design.
//!
//! A row ([`Guard`]) names where it looks, the needles it looks for, the
//! files or lines in which a needle may stand, and how many hits it allows.
//! It fails when it finds more, and lists them. *Library code* is each
//! `crates/*/src/**/*.rs` file outside a `bin` directory, read up to its first
//! line that starts with `mod tests`.
//!
//! Every row also carries one planted line and the path where it would sit:
//! `every_guard_flags_its_planted_line` fails if the row does not flag it, so
//! a guard that cannot fail fails there.
//!
//! Run alone with `cargo test -q --test source_guards`.

use std::fs;
use std::path::Path;

use cycledger_net::metrics::Phase;
use cycledger_protocol::adversary::Behavior;
use cycledger_scenarios::spec::behavior_name;

/// This file spells every needle, so no row reads it.
const SELF: &str = "tests/source_guards.rs";

/// Where a row looks.
#[derive(Clone, Copy)]
enum Scope {
    /// Every file under these paths, whole.
    Tree(&'static [&'static str]),
    /// Library code under these paths, or all of it when the list is empty.
    Library(&'static [&'static str]),
    /// Every Rust file under `crates/*/src` (binaries included),
    /// `crates/*/tests`, `tests` and `examples`, read up to `mod tests`.
    Sources,
}

impl Scope {
    fn holds(self, path: &str) -> bool {
        let parts: Vec<&str> = path.split('/').collect();
        let rust = path.ends_with(".rs");
        let in_crate = |dir: &str| parts.len() > 3 && parts[0] == "crates" && parts[2] == dir;
        let under = |dirs: &[&str]| dirs.iter().any(|dir| Path::new(path).starts_with(dir));
        match self {
            Scope::Tree(dirs) => under(dirs),
            Scope::Library(dirs) => {
                rust && in_crate("src")
                    && !path.contains("/bin/")
                    && (dirs.is_empty() || under(dirs))
            }
            Scope::Sources => {
                rust && (in_crate("src")
                    || in_crate("tests")
                    || parts[0] == "tests"
                    || parts[0] == "examples")
            }
        }
    }

    /// Whether a file is read only up to its first `mod tests` line.
    fn cuts(self) -> bool {
        !matches!(self, Scope::Tree(_))
    }
}

/// How a needle matches.
#[derive(Clone, Copy)]
enum Match {
    /// Anywhere in a line; a `…` in the needle stands for any text between
    /// its parts.
    Text,
    /// With no identifier character on either side.
    Word,
    /// Anywhere in a line, ignoring ASCII case.
    NoCase,
    /// As a string literal: `"needle"`, or `"needle:` opening one with
    /// parameters.
    Literal,
    /// The file's path: each file under the needle is a hit.
    Path,
}

impl Match {
    /// How many times `needle` stands in `line`.
    fn count(self, line: &str, needle: &str) -> usize {
        let ident = |c: Option<char>| c.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        match self {
            Match::Text if needle.contains('…') => {
                let mut rest = line;
                let found = needle.split('…').all(|part| match rest.find(part) {
                    Some(at) => {
                        rest = &rest[at + part.len()..];
                        true
                    }
                    None => false,
                });
                usize::from(found)
            }
            Match::Text => line.matches(needle).count(),
            Match::Word => line
                .match_indices(needle)
                .filter(|&(at, _)| {
                    !ident(line[..at].chars().next_back())
                        && !ident(line[at + needle.len()..].chars().next())
                })
                .count(),
            Match::NoCase => line
                .to_ascii_lowercase()
                .matches(&needle.to_ascii_lowercase())
                .count(),
            Match::Literal => {
                line.matches(&format!("\"{needle}\"")).count()
                    + line.matches(&format!("\"{needle}:")).count()
            }
            Match::Path => unreachable!("a path needle matches a file, not a line"),
        }
    }
}

/// What a row looks for.
#[derive(Clone, Copy)]
enum Needles {
    /// These, written in the row.
    These(&'static [&'static str]),
    /// Each phase name as a string literal, read from `Phase::name`.
    PhaseNames,
    /// Each behaviour name, read from `spec::behavior_name`, and these.
    BehaviorNamesAnd(&'static [&'static str]),
}

impl Needles {
    fn resolve(self) -> Vec<String> {
        match self {
            Needles::These(needles) => needles.iter().map(|n| n.to_string()).collect(),
            Needles::PhaseNames => Phase::ALL
                .iter()
                .map(|phase| format!("\"{}\"", phase.name()))
                .collect(),
            Needles::BehaviorNamesAnd(needles) => Behavior::ALL
                .iter()
                .map(|&behavior| behavior_name(behavior))
                .chain(needles.iter().copied())
                .map(String::from)
                .collect(),
        }
    }
}

/// One check.
struct Guard {
    /// Printed when the row fails.
    name: &'static str,
    scope: Scope,
    matching: Match,
    needles: Needles,
    /// Files in which a needle may stand.
    allow_files: &'static [&'static str],
    /// A line that holds one of these is no hit.
    allow_lines: &'static [&'static str],
    /// Hits allowed: over the row, or for each needle when `per_needle`.
    max_hits: usize,
    per_needle: bool,
    /// A line the row must flag, and the file it would sit in.
    plant: (&'static str, &'static str),
}

/// What every row is unless it says otherwise: no hit in library code.
const ROW: Guard = Guard {
    name: "",
    scope: Scope::Library(&[]),
    matching: Match::Text,
    needles: Needles::These(&[]),
    allow_files: &[],
    allow_lines: &[],
    max_hits: 0,
    per_needle: false,
    plant: ("", ""),
};

/// Everything under these is read: every row's scope lies inside them.
const ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// `ProtocolConfig::verify_signatures` selects no code and goes with the
/// `benchmark/` change that stops naming it (ROADMAP item 1); until then no
/// phase, engine type, scenario key, report or bench may carry it again.
const VERIFY_SIGNATURES: Guard = Guard {
    name: "verify_signatures stays out of the engine",
    scope: Scope::Tree(&[
        "crates/protocol/src/phases",
        "crates/protocol/src/engine",
        "crates/scenarios/src",
        "crates/bench",
    ]),
    needles: Needles::These(&["verify_signatures"]),
    plant: (
        "crates/protocol/src/phases/intra.rs",
        "// verify_signatures",
    ),
    ..ROW
};

/// A committee task opens its network with `RoundEnv::open` (the `Task`
/// table in `engine/env.rs` owns seed, label and whether the fault plan
/// applies; a state-sync session opens its own through the same
/// `Task::open`): no phase, pipeline function or simulation driver builds a
/// network of its own.
const ONE_NETWORK_RECIPE: Guard = Guard {
    name: "one network recipe",
    scope: Scope::Tree(&[
        "crates/protocol/src/phases",
        "crates/protocol/src/engine/pipeline.rs",
        "crates/protocol/src/engine/context.rs",
        "crates/protocol/src/simulation.rs",
    ]),
    needles: Needles::These(&["SimNetwork::new", "SimNetwork::with_faults"]),
    plant: (
        "crates/protocol/src/phases/selection.rs",
        "let mut net = SimNetwork::new(latency, seed);",
    ),
    ..ROW
};

/// A phase takes `&RoundEnv` plus what it alone needs: none silences the
/// argument-count lint again.
const NO_TWELVE_ARGUMENT_PHASE: Guard = Guard {
    name: "no twelve-argument phase",
    scope: Scope::Tree(&["crates/protocol/src/phases", "crates/protocol/src/engine"]),
    needles: Needles::These(&["too_many_arguments"]),
    plant: (
        "crates/protocol/src/engine/pipeline.rs",
        "#[allow(clippy::too_many_arguments)]",
    ),
    ..ROW
};

/// An Algorithm 3 instance is composed in one place,
/// `consensus::alg3::Instance`: neither a phase nor the checker's scheduler
/// seats member or leader machines or routes a message to one itself.
const ONE_ALG3_COMPOSITION: Guard = Guard {
    name: "one Algorithm 3 composition",
    scope: Scope::Tree(&["crates/protocol/src", "crates/checker/src"]),
    needles: Needles::These(&[
        "MemberState::new",
        "LeaderState::new",
        ".handle_propose(",
        ".handle_echo(",
        ".handle_confirm(",
    ]),
    plant: (
        "crates/checker/src/explore.rs",
        "let member = MemberState::new(id, keys);",
    ),
    ..ROW
};

/// Refinement reads the round through `checker::refine::Refiner`, an
/// observer: no recording of it, and no replay of one, comes back.
const NO_RECORDED_TRACE: Guard = Guard {
    name: "no recorded trace",
    scope: Scope::Tree(&ROOTS),
    needles: Needles::These(&[
        "TraceRecorder",
        "ExecutionTrace",
        "CommitteeStep",
        "RecoveryStep",
        "PhaseDelta",
        "check_trace",
    ]),
    plant: ("crates/checker/src/refine.rs", "pub struct TraceRecorder;"),
    ..ROW
};

/// A shard's UTXOs live in one concrete `ledger::Store` over one live map:
/// no store trait, map newtype or `dyn` forwarding comes back, sync chunks
/// carry `ledger::block::HeaderSummary`, a round artifact nothing reads is
/// not kept, and a shard's genesis state has one constructor
/// (`UtxoSet::genesis`): no buffered genesis commit.
const ONE_STATE_STORE: Guard = Guard {
    name: "one state store",
    scope: Scope::Tree(&ROOTS),
    needles: Needles::These(&[
        "StateStore",
        "MapStore",
        "SyncHeader",
        "as_store",
        "decided_indices",
        "commit_genesis",
    ]),
    plant: ("tests/end_to_end.rs", "fn as_store(set: &UtxoSet) {}"),
    ..ROW
};

/// Every decision the network makes about a message (latency, loss,
/// jitter) is a keyed one-block hash (`net::latency::LinkDraws`): no
/// generator comes back into `cycledger-net`.
const ONE_LINK_DRAW: Guard = Guard {
    name: "one link draw",
    scope: Scope::Tree(&["crates/net/src"]),
    needles: Needles::These(&["HmacDrbg", "link_draw"]),
    plant: (
        "crates/net/src/latency.rs",
        "let mut rng = HmacDrbg::new(&seed);",
    ),
    ..ROW
};

/// Library code starts threads in the shard executor's pool and in the
/// workload's DRBG helper, and nowhere else: every other thread would be
/// one more thing the determinism contract has to cover.
const THREADS: Guard = Guard {
    name: "threads are created in two places",
    needles: Needles::These(&["thread::spawn", "thread::Builder"]),
    allow_files: &[
        "crates/protocol/src/engine/executor.rs",
        "crates/ledger/src/workload.rs",
    ],
    plant: ("crates/ledger/src/utxo.rs", "std::thread::spawn(|| ());"),
    ..ROW
};

/// Library code is unsafe in the SHA-NI compression (CPU intrinsics) and in
/// the shard executor's scoped jobs, and nowhere else.
const UNSAFE: Guard = Guard {
    name: "unsafe code lives in two files",
    matching: Match::Word,
    needles: Needles::These(&["unsafe"]),
    allow_files: &[
        "crates/crypto/src/sha256.rs",
        "crates/protocol/src/engine/executor.rs",
    ],
    plant: ("crates/ledger/src/block.rs", "unsafe fn raw() {}"),
    ..ROW
};

/// No batch kernel wider than the SHA-NI pair, and no second copy of the
/// SHA-NI round groups beside the one `kernel!` body, comes back by name.
const ONE_SHA_KERNEL: Guard = Guard {
    name: "one SHA-NI kernel",
    scope: Scope::Tree(&["crates"]),
    needles: Needles::These(&[
        "compress_multi",
        "compress_scalar_multi",
        "sha256_lanes",
        "sha256_x4",
        "sha256_x8",
        "rounds4x2",
        "schedule4x2",
        "load_lane",
        "store_lane",
    ]),
    plant: (
        "crates/crypto/src/sha256.rs",
        "fn sha256_x8(blocks: &[[u8; 64]; 8]) {}",
    ),
    ..ROW
};

/// The SHA-256 round constants are written once, in `K`: its first entry
/// appears once under `crypto/src`, also as half of a packed 64-bit literal.
const ROUND_CONSTANTS: Guard = Guard {
    name: "the round constants are written once",
    scope: Scope::Tree(&["crates/crypto/src"]),
    matching: Match::NoCase,
    needles: Needles::These(&["428a2f98"]),
    max_hits: 1,
    plant: ("crates/crypto/src/hmac.rs", "const K0: u32 = 0x428A2F98;"),
    ..ROW
};

/// A run's work is its own: no memo outside a `Simulation` carries it into
/// the next run on the thread. `thread_local!` appears only in the operation
/// counter's tally.
const THREAD_LOCALS: Guard = Guard {
    name: "nothing outlives its simulation: one thread_local!",
    needles: Needles::These(&["thread_local!"]),
    allow_files: &["crates/crypto/src/opcount.rs"],
    plant: (
        "crates/crypto/src/point.rs",
        "thread_local! { static MEMO: Cell<u64> = Cell::new(0); }",
    ),
    ..ROW
};

/// Nor in the process: no `static` holds a `Mutex`. The constant tables
/// (`OnceLock`s of `G`'s tables, the zero HMAC key, the SHA-NI probe) stay.
const STATIC_MUTEXES: Guard = Guard {
    name: "nothing outlives its simulation: no static Mutex",
    needles: Needles::These(&["static …:…Mutex"]),
    plant: (
        "crates/protocol/src/sortition.rs",
        "static MEMO: Mutex<Vec<u8>> = Mutex::new(Vec::new());",
    ),
    ..ROW
};

/// A round's VRF evaluations share one `vrf::Prover` (a fixed-base table of
/// the round's base, built once) and the draw checks the proofs as one
/// `Prover::verify_batch_on` batch on its base: no library code in the
/// protocol crate evaluates or verifies one proof at a time.
const SORTITION: Guard = Guard {
    name: "sortition proves through one table, the draw verifies in one batch",
    scope: Scope::Library(&["crates/protocol/src"]),
    needles: Needles::These(&["vrf::verify(", "vrf::evaluate_with_public("]),
    plant: (
        "crates/protocol/src/sortition.rs",
        "let ok = vrf::verify(&public, &input, &proof);",
    ),
    ..ROW
};

/// Algorithm 2's messages are gone: the block certifies one row per
/// committee and the draw checks every sortition proof. No library code
/// brings back the configuration phase, its outcome, the rejection path or
/// proofs kept on the assignment.
const CERTIFIED_ROW: Guard = Guard {
    name: "a member's configuration is its certified row",
    needles: Needles::These(&[
        "run_committee_configuration",
        "ConfigurationOutcome",
        "apply_configuration",
        "sortition_proofs",
    ]),
    plant: (
        "crates/protocol/src/phases/mod.rs",
        "pub fn run_committee_configuration() {}",
    ),
    ..ROW
};

/// A cross-shard transaction is voted on by the committee whose shard owns
/// its input, in its intra vote and against that shard alone: no library
/// code reads the source shard's UTXO set for another committee's vote, and
/// the destination vote, its votes, its task and its reply envelope do not
/// come back.
const OWN_SHARD_VOTE: Guard = Guard {
    name: "a cross-shard vote reads only its own shard",
    needles: Needles::These(&[
        "utxo_sets[list.source]",
        "inbound_validity",
        "inbound_votes",
        "Task::Destination",
        "ListReply",
    ]),
    plant: (
        "crates/protocol/src/phases/xshard.rs",
        "let set = &utxo_sets[list.source];",
    ),
    ..ROW
};

/// The block header commits to the semi-commitments the referee recorded,
/// so the block certificate covers them (Algorithm 4, step 2): no library
/// code runs a second referee instance over the recorded set, and its task
/// kind does not come back.
const ONE_REFEREE_CERTIFICATE: Guard = Guard {
    name: "the referee certifies once a round",
    needles: Needles::These(&["certify_commitments", "Task::SemiCommitment"]),
    plant: (
        "crates/protocol/src/phases/semi_commitment.rs",
        "let certificate = certify_commitments(&env, &recorded);",
    ),
    ..ROW
};

/// Every node receives the block's header and its share of the next round's
/// configuration (the shared leaf, and its own committee's row), and a
/// member of committee k also slice k of the body with its path to the
/// certified body root: only the referee keeps the whole block and the whole
/// configuration (ARCHITECTURE.md, the §IV-G departure). So the block phase
/// names the whole block's or the whole configuration's wire size in the
/// referee's storage charge alone; any other use (an envelope, or a size
/// bound for one) would charge it per recipient again.
const NO_WHOLE_BLOCK_SENT: Guard = Guard {
    name: "block propagation sends no node the whole block",
    scope: Scope::Library(&["crates/protocol/src/phases/block_generation.rs"]),
    needles: Needles::These(&[
        "block.wire_size()",
        "next_round.wire_size()",
        "config.wire_size()",
    ]),
    allow_lines: &["record_storage("],
    plant: (
        "crates/protocol/src/phases/block_generation.rs",
        "let bytes = block.wire_size();",
    ),
    ..ROW
};

/// `ProtocolConfig::message_driven` and `ProtocolConfig::pipelined` select
/// nothing: a round report has one canonical layout, there is one round
/// schedule, `Simulation::set_fault_plan` installs whatever plan it is
/// handed, and no scenario key or report echoes either field. They go with
/// the `benchmark/` change that stops naming them (ROADMAP item 1); until
/// then only `config.rs`, where they are declared and defaulted, names them.
const DEAD_MODE_FIELDS: Guard = Guard {
    name: "a fault plan needs no opt-in, a round has one schedule",
    needles: Needles::These(&["message_driven", "pipelined"]),
    allow_files: &["crates/protocol/src/config.rs"],
    plant: ("crates/protocol/src/simulation.rs", "if config.pipelined {"),
    ..ROW
};

/// Every accusation (a witness, an observed timeout, a censored forward, a
/// false accuser's forgery) goes through `RoundContext::attempt_recovery`,
/// and `run_recovery` writes its one `RecoveryRecord`: no library code
/// brings back the second entry, its return type or the censorship report.
const ONE_ACCUSATION_DOOR: Guard = Guard {
    name: "a leader is accused through one door",
    needles: Needles::These(&["RecoveryAttempt", "attempt_recovery_by", "CensorshipReport"]),
    plant: (
        "crates/protocol/src/phases/recovery.rs",
        "pub struct CensorshipReport;",
    ),
    ..ROW
};

/// `net::metrics::Phase` keys the round's pipeline, and `Phase::name` is the
/// only place a phase name is spelled: every observer matches on
/// `RoundContext::phase`, never on a name.
const PHASE_VOCABULARY: Guard = Guard {
    name: "one phase vocabulary",
    scope: Scope::Sources,
    needles: Needles::PhaseNames,
    allow_files: &["crates/net/src/metrics.rs"],
    plant: (
        "crates/protocol/src/traffic.rs",
        "if label == \"selection\" {",
    ),
    ..ROW
};

/// Table I's rows are built in `analysis::profiles` alone: the separate
/// comparison crate does not come back.
const NO_BASELINES_CRATE: Guard = Guard {
    name: "each closed form written once: no baselines crate",
    scope: Scope::Tree(&["crates"]),
    matching: Match::Path,
    needles: Needles::These(&["crates/baselines"]),
    plant: ("crates/baselines/src/lib.rs", "//! Table I, a second time."),
    ..ROW
};

/// Nor do the second copy of Table I's storage, complexity and failure rows,
/// the second channel formula and the uncalled cross-shard model.
const ONE_TABLE_I: Guard = Guard {
    name: "each closed form written once: no second Table I",
    scope: Scope::Tree(&["crates"]),
    matching: Match::Word,
    needles: Needles::These(&[
        "table1_storage",
        "table1_complexity",
        "compare_protocols",
        "FailureComparison",
        "clique_channels",
        "cross_shard_completion_fraction",
    ]),
    plant: (
        "crates/analysis/src/profiles.rs",
        "pub fn table1_storage() {}",
    ),
    ..ROW
};

/// A pair count `n·(n−1)/2` is `RoundTopology::full_clique_channels` alone
/// (CycLedger's channel count, `RoundTopology::cycledger_channels`, is the
/// one formula a round's report and Table I's row both call).
const ONE_PAIR_COUNT: Guard = Guard {
    name: "each closed form written once: one pair count",
    needles: Needles::These(&["saturating_sub(1) / 2"]),
    max_hits: 1,
    plant: (
        "crates/net/src/topology.rs",
        "let pairs = nodes * nodes.saturating_sub(1) / 2;",
    ),
    ..ROW
};

/// The scenario format spells each of its names in one list, and the parser
/// and the report read that list: a section header in its const beside
/// `HEADERS`, an invariant head in `spec_heads!(Invariant, ..)`, a behaviour
/// name in `behavior_name`, a network-fault kind in `NetFaultKind::name`, a
/// network-fault key in `NET_FAULT_KEYS` (`target`, a key of both fault
/// tables, in `TARGET`). Each name stands as a string literal on at most one
/// line of scenario library code.
const SCENARIO_NAMES: Guard = Guard {
    name: "each scenario-format name written once",
    scope: Scope::Library(&["crates/scenarios/src"]),
    matching: Match::Literal,
    needles: Needles::BehaviorNamesAnd(&[
        // Invariant heads.
        "digest-matches-across-worker-counts",
        "digest-stable-across-runs",
        "no-honest-node-punished",
        "all-injected-leader-faults-recovered",
        "censored-cross-shard-txs-eventually-apply",
        "blocks-every-round",
        "min-blocks",
        "min-acceptance",
        "no-evictions",
        "min-evictions",
        "min-censorship-reports",
        "min-witnesses",
        "packed-within-offered-valid",
        "malicious-never-outearn-honest",
        "adversary-bound-respected",
        "failure-probability-below",
        "pipeline-complete",
        "min-quorum-timeouts",
        "no-quorum-timeouts",
        "min-net-dropped",
        "blocks-from-round",
        "min-acceptance-from",
        "no-double-commit",
        "min-epoch-transitions",
        "no-syncing-votes",
        "min-synced",
        "min-sync-timeouts",
        "max-p99-latency",
        "min-sustained-tps",
        "confirmed-equals-packed",
        "state-root",
        "light-client-proof",
        // Network-fault kinds.
        "isolate-leader",
        "isolate-commons",
        "delay",
        "loss",
        "crash-stop",
        "isolate-joiners",
        // Network-fault keys.
        "from_round",
        "until_round",
        "kind",
        "committee",
        "count",
        "target",
        "delay_us",
        "loss_ppm",
        // Section headers.
        "[[scenario]]",
        "[[scenario.faults]]",
        "[[scenario.net_faults]]",
        "[scenario.traffic]",
    ]),
    max_hits: 1,
    per_needle: true,
    plant: (
        "crates/scenarios/src/outcome.rs",
        "let head = \"no-evictions\";",
    ),
    ..ROW
};

const GUARDS: [Guard; 25] = [
    VERIFY_SIGNATURES,
    ONE_NETWORK_RECIPE,
    NO_TWELVE_ARGUMENT_PHASE,
    ONE_ALG3_COMPOSITION,
    NO_RECORDED_TRACE,
    ONE_STATE_STORE,
    ONE_LINK_DRAW,
    THREADS,
    UNSAFE,
    ONE_SHA_KERNEL,
    ROUND_CONSTANTS,
    THREAD_LOCALS,
    STATIC_MUTEXES,
    SORTITION,
    CERTIFIED_ROW,
    OWN_SHARD_VOTE,
    ONE_REFEREE_CERTIFICATE,
    NO_WHOLE_BLOCK_SENT,
    DEAD_MODE_FIELDS,
    ONE_ACCUSATION_DOOR,
    PHASE_VOCABULARY,
    NO_BASELINES_CRATE,
    ONE_TABLE_I,
    ONE_PAIR_COUNT,
    SCENARIO_NAMES,
];

/// One file: its path from the repository root, and its text.
#[derive(Clone)]
struct Source {
    path: String,
    text: String,
}

/// Every file under [`ROOTS`] but this one, in path order.
fn tree() -> Vec<Source> {
    fn walk(root: &Path, dir: &Path, sources: &mut Vec<Source>) {
        for entry in fs::read_dir(root.join(dir)).expect("the directory is readable") {
            let path = dir.join(entry.expect("the entry is readable").file_name());
            let full = root.join(&path);
            if full.is_dir() {
                walk(root, &path, sources);
            } else {
                let path = path.to_str().expect("a UTF-8 path").to_string();
                let bytes = fs::read(&full).expect("the file is readable");
                let text = String::from_utf8_lossy(&bytes).into_owned();
                sources.push(Source { path, text });
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for dir in ROOTS {
        walk(root, Path::new(dir), &mut sources);
    }
    sources.retain(|source| source.path != SELF);
    sources.sort_by(|a, b| a.path.cmp(&b.path));
    sources
}

impl Guard {
    /// Each needle's hits, as `path:line: text`, outside the allowed files
    /// and lines.
    fn hits(&self, sources: &[Source]) -> Vec<Vec<String>> {
        let needles = self.needles.resolve();
        let mut hits = vec![Vec::new(); needles.len()];
        let read = sources.iter().filter(|source| {
            self.scope.holds(&source.path) && !self.allow_files.contains(&source.path.as_str())
        });
        for source in read {
            if let Match::Path = self.matching {
                let first = source.text.lines().next().unwrap_or_default();
                for (needle, hits) in needles.iter().zip(&mut hits) {
                    if Path::new(&source.path).starts_with(needle) {
                        hits.push(format!("{}:1: {first}", source.path));
                    }
                }
                continue;
            }
            let cut = self.scope.cuts();
            let lines = source.text.lines();
            let lines = lines.take_while(|line| !(cut && line.starts_with("mod tests")));
            for (index, line) in lines.enumerate() {
                if self
                    .allow_lines
                    .iter()
                    .any(|allowed| line.contains(allowed))
                {
                    continue;
                }
                for (needle, hits) in needles.iter().zip(&mut hits) {
                    for _ in 0..self.matching.count(line, needle) {
                        hits.push(format!("{}:{}: {line}", source.path, index + 1));
                    }
                }
            }
        }
        hits
    }

    /// The row's one failure rule: more hits than it allows, listed.
    fn failure(&self, sources: &[Source]) -> Option<String> {
        let hits = self.hits(sources);
        let groups = if self.per_needle {
            hits
        } else {
            vec![hits.concat()]
        };
        let over: Vec<String> = groups
            .into_iter()
            .filter(|group| group.len() > self.max_hits)
            .map(|group| group.join("\n"))
            .collect();
        (!over.is_empty()).then(|| {
            format!(
                "guard \"{}\" allows {} hit(s){}, found more:\n{}",
                self.name,
                self.max_hits,
                if self.per_needle { " a needle" } else { "" },
                over.join("\n")
            )
        })
    }
}

#[test]
fn the_tree_keeps_every_guard() {
    let sources = tree();
    let failures: Vec<String> = GUARDS
        .iter()
        .filter_map(|guard| guard.failure(&sources))
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// Each row flags its planted line, put first in the file it names (before
/// any `mod tests`), or as a new file: a row that cannot fail fails here.
#[test]
fn every_guard_flags_its_planted_line() {
    let sources = tree();
    for guard in &GUARDS {
        let (path, line) = guard.plant;
        let mut planted = sources.clone();
        match planted.iter_mut().find(|source| source.path == path) {
            Some(source) => source.text.insert_str(0, &format!("{line}\n")),
            None => planted.push(Source {
                path: path.into(),
                text: format!("{line}\n"),
            }),
        }
        let failure = guard.failure(&planted);
        let hit = format!("{path}:1: {line}");
        assert!(
            failure
                .as_ref()
                .is_some_and(|failure| failure.contains(&hit)),
            "guard \"{}\" does not flag {hit}: {failure:?}",
            guard.name
        );
    }
}
