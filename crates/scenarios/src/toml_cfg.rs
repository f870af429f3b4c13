//! Loading scenarios from TOML, with no external dependencies. Every
//! scenario goes through this loader: the built-in matrix
//! (`scenarios/builtin.toml`, [`crate::registry`]) and each
//! `--scenario-dir` file alike.
//!
//! The workspace is fully offline, so this module implements the small TOML
//! subset the scenario schema needs: four section headers (a `[[scenario]]`
//! array of tables and its three sub-tables), `key = value` pairs with
//! strings, integers, floats, booleans and arrays, and `#` comments.
//! Unknown keys are rejected — a typo in a scenario file should fail loudly,
//! not silently fall back to a default.
//!
//! Each section has one key table, the one list of its keys: `SCENARIO_KEYS`,
//! `TRAFFIC_KEYS`, `FAULT_KEYS` and `NET_FAULT_KEYS`. Each row names a key,
//! reads its value off a record and writes a parsed value back, so the parser
//! and the report's `net_faults` block, which reads `NET_FAULT_KEYS` too,
//! cannot disagree.

use std::fmt;

use cycledger_ledger::StateBackend;
use cycledger_net::time::SimDuration;
use cycledger_protocol::adversary::{Behavior, BehaviorMix};
use cycledger_protocol::config::ProtocolConfig;
use cycledger_protocol::traffic::{ArrivalShape, TrafficConfig};

use crate::invariant::Invariant;
use crate::spec::{
    behavior_from_name, behavior_name, mix_from_name, mix_name, FaultInjection, FaultTarget,
    NetFaultInjection, NetFaultKind, Scenario,
};

/// A parsed TOML value (the subset the scenario schema uses).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An integer (wide enough for every `u64` and every negative `i64`).
    Int(i128),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array (it may span lines).
    Array(Vec<Value>),
}

/// Prints the value the way the parser reads it back: floats in their
/// shortest exact form (`{:?}`), strings quoted and escaped.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => {
                let escaped = s
                    .replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n")
                    .replace('\t', "\\t");
                write!(f, "\"{escaped}\"")
            }
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x:?}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Array(items) => {
                let items: Vec<String> = items.iter().map(Value::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
        }
    }
}

/// A type a key stores: how it prints as a TOML value and how it is read
/// back.
trait Field: Sized {
    fn to_value(&self) -> Value;
    fn from_value(value: &Value) -> Result<Self, String>;
}

/// Implements [`Field`] for `$t`: `$to` is the value of the field bound to
/// `$x`, and a value matching a `$pat` reads back as its `$from`.
macro_rules! field {
    ($t:ty, $what:literal, |$x:ident| $to:expr, $($pat:pat => $from:expr),+) => {
        impl Field for $t {
            fn to_value(&self) -> Value {
                let $x = self;
                $to
            }
            fn from_value(value: &Value) -> Result<$t, String> {
                match value {
                    $($pat => $from,)+
                    other => Err(format!(concat!("expected ", $what, ", got {}"), other)),
                }
            }
        }
    };
}

/// An integer literal as an unsigned `T`: negatives and overflows fail.
fn unsigned<T: TryFrom<i128>>(i: i128) -> Result<T, String> {
    T::try_from(i).map_err(|_| format!("{i} is out of range for a non-negative integer key"))
}

field!(String, "a string", |s| Value::Str(s.clone()), Value::Str(s) => Ok(s.clone()));
field!(f64, "a number", |x| Value::Float(*x),
    Value::Float(x) => Ok(*x), Value::Int(i) => Ok(*i as f64));
field!(u32, "a non-negative integer", |n| Value::Int(*n as i128), Value::Int(i) => unsigned(*i));
field!(u64, "a non-negative integer", |n| Value::Int(*n as i128), Value::Int(i) => unsigned(*i));
field!(usize, "a non-negative integer", |n| Value::Int(*n as i128), Value::Int(i) => unsigned(*i));
// Durations are written in microseconds (their keys end in `_us`).
field!(SimDuration, "a non-negative integer", |d| d.as_micros().to_value(),
    Value::Int(i) => unsigned(*i).map(SimDuration::from_micros));
field!(Invariant, "an invariant spec", |i| Value::Str(i.to_spec()),
    Value::Str(s) => Invariant::from_spec(s));
field!(FaultTarget, "a target spec", |t| Value::Str(t.to_spec()),
    Value::Str(s) => FaultTarget::from_spec(s));
field!(Behavior, "a behaviour name", |b| Value::Str(behavior_name(*b).into()),
    Value::Str(s) => behavior_from_name(s));
field!(BehaviorMix, "a mix name", |m| Value::Str(mix_name(*m).into()),
    Value::Str(s) => mix_from_name(s));
field!(StateBackend, "a backend name", |b| Value::Str(b.name().into()),
    Value::Str(s) => StateBackend::from_name(s)
        .ok_or_else(|| format!("unknown state backend {s:?} (map or smt)")));
field!(ArrivalShape, "a shape name", |a| Value::Str(a.name().into()),
    Value::Str(s) => ArrivalShape::from_name(s)
        .ok_or_else(|| format!("unknown arrival shape {s:?}")));
// A kind reads as its blank; the keys it carries fill it in.
field!(NetFaultKind, "a kind name", |k| Value::Str(k.name().into()),
    Value::Str(s) => NetFaultKind::BLANK.into_iter().find(|k| k.name() == s.as_str())
        .ok_or_else(|| format!("unknown net-fault kind {s:?}")));

impl<T: Field> Field for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Field::to_value).collect())
    }
    fn from_value(value: &Value) -> Result<Vec<T>, String> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(format!("expected an array, got {other}")),
        }
    }
}

/// One `key = value` line of a table: the key, how its value is read off a
/// `T` (`None` where that `T` does not carry the key), and how a parsed value
/// is written back.
pub(crate) struct Key<T> {
    name: &'static str,
    read: fn(&T) -> Option<Value>,
    write: fn(&mut T, &Value) -> Result<(), String>,
}

/// The row of a key stored in one field of `T` or, given `$kinds`, in the
/// field `$field` of the net-fault kinds matching `$kinds` (a fault of any
/// other kind neither reads nor writes it).
macro_rules! key {
    ($name:expr, $($field:ident).+) => {
        Key {
            name: $name,
            read: |t| Some(t.$($field).+.to_value()),
            write: |t, value| {
                t.$($field).+ = Field::from_value(value)?;
                Ok(())
            },
        }
    };
    ($name:expr, $field:ident, $kinds:pat) => {
        Key {
            name: $name,
            read: |fault: &NetFaultInjection| match fault.kind {
                $kinds => Some($field.to_value()),
                _ => None,
            },
            write: |fault, value| match &mut fault.kind {
                $kinds => {
                    *$field = Field::from_value(value)?;
                    Ok(())
                }
                kind => Err(format!("kind {:?} does not carry this key", kind.name())),
            },
        }
    };
}

/// Every `[[scenario]]` key: the one list of keys a scenario file may use. A
/// key left out of a file keeps its default ([`Scenario::new`] over
/// [`ProtocolConfig::default`]).
static SCENARIO_KEYS: [Key<Scenario>; 26] = [
    key!("name", name),
    key!("description", description),
    key!("paper_claim", paper_claim),
    key!("rounds", rounds),
    key!("workers", workers),
    key!("seed", config.seed),
    key!("committees", config.committees),
    key!("committee_size", config.committee_size),
    key!("partial_set_size", config.partial_set_size),
    key!("referee_size", config.referee_size),
    key!("txs_per_round", config.txs_per_round),
    key!("cross_shard_ratio", config.cross_shard_ratio),
    key!("invalid_ratio", config.invalid_ratio),
    key!("accounts_per_shard", config.accounts_per_shard),
    key!("pow_difficulty", config.pow_difficulty),
    key!("base_compute_capacity", config.base_compute_capacity),
    key!("compute_capacity_spread", config.compute_capacity_spread),
    key!("latency_delta_us", config.latency.delta),
    key!("latency_gamma_us", config.latency.gamma),
    key!("state_backend", config.state_backend),
    key!("epoch_length", config.epoch_length),
    key!("joins_per_epoch", config.joins_per_epoch),
    key!("leaves_per_epoch", config.leaves_per_epoch),
    key!("malicious_fraction", config.adversary.malicious_fraction),
    key!("mix", config.adversary.mix),
    key!("invariants", invariants),
];

/// Every `[scenario.traffic]` key (the first, `rate_tps`, is required).
static TRAFFIC_KEYS: [Key<TrafficConfig>; 3] = [
    key!("rate_tps", rate_tps),
    key!("shape", shape),
    key!("warmup_rounds", warmup_rounds),
];

/// A key of both fault tables.
const TARGET: &str = "target";

/// Every `[[scenario.faults]]` key (all are required).
static FAULT_KEYS: [Key<FaultInjection>; 3] = [
    key!("round", round),
    key!(TARGET, target),
    key!("behavior", behavior),
];

/// The fault a section is read onto.
const NO_FAULT: FaultInjection = FaultInjection {
    round: 0,
    target: FaultTarget::AllLeaders,
    behavior: Behavior::Honest,
};

/// The net fault a section is read onto (its `kind` key replaces the kind).
const NO_NET_FAULT: NetFaultInjection = NetFaultInjection {
    from_round: 0,
    until_round: 0,
    kind: NetFaultKind::IsolateJoiners,
};

/// Every `[[scenario.net_faults]]` key: first the window and the kind, which
/// every fault carries, then the keys some kinds carry. Every key a fault
/// carries is required.
pub(crate) static NET_FAULT_KEYS: [Key<NetFaultInjection>; 8] = [
    key!("from_round", from_round),
    key!("until_round", until_round),
    key!("kind", kind),
    key!(
        "committee",
        committee,
        NetFaultKind::IsolateLeader { committee } | NetFaultKind::IsolateCommons { committee, .. }
    ),
    key!("count", count, NetFaultKind::IsolateCommons { count, .. }),
    key!(
        TARGET,
        target,
        NetFaultKind::Delay { target, .. } | NetFaultKind::CrashStop { target }
    ),
    key!("delay_us", micros, NetFaultKind::Delay { micros, .. }),
    key!("loss_ppm", ppm, NetFaultKind::Loss { ppm }),
];

/// Reads a section's entries onto `record` through its key table, key by key
/// in table order (so a net fault's kind is set before the keys it carries).
/// Fails on an unknown key, and on any of the first `required` rows that
/// `record` carries but the section leaves out.
fn read<T>(
    keys: &[Key<T>],
    table: &str,
    required: usize,
    mut record: T,
    entries: &[(String, Value)],
) -> Result<T, String> {
    if let Some((name, _)) = entries
        .iter()
        .find(|(name, _)| keys.iter().all(|key| key.name != name))
    {
        return Err(format!("unknown {table} key {name:?}"));
    }
    for key in keys {
        for (_, value) in entries.iter().filter(|(name, _)| name == key.name) {
            (key.write)(&mut record, value).map_err(|e| format!("{}: {e}", key.name))?;
        }
    }
    require(&keys[..required], table, &record, entries)?;
    Ok(record)
}

/// Fails on the first of `keys` that `record` carries but `entries` leaves
/// out: "`what` needs" a thing (`a target`), or a quantity bare (`delay_us`).
fn require<T>(
    keys: &[Key<T>],
    what: &str,
    record: &T,
    entries: &[(String, Value)],
) -> Result<(), String> {
    for key in keys.iter().filter(|key| (key.read)(record).is_some()) {
        if !entries.iter().any(|(name, _)| name == key.name) {
            let a = if key.name.contains('_') { "" } else { "a " };
            return Err(format!("{what} needs {a}{}", key.name));
        }
    }
    Ok(())
}

/// The `(key, value)` pairs of `record` in table order, one for each row
/// that carries a value.
pub(crate) fn entries<'a, T>(
    keys: &'a [Key<T>],
    record: &'a T,
) -> impl Iterator<Item = (&'static str, Value)> + 'a {
    keys.iter()
        .filter_map(move |key| Some((key.name, (key.read)(record)?)))
}

/// The section headers, each spelled once: a scenario and its sub-tables.
const SCENARIO: &str = "[[scenario]]";
const FAULT: &str = "[[scenario.faults]]";
const NET_FAULT: &str = "[[scenario.net_faults]]";
const TRAFFIC: &str = "[scenario.traffic]";
const HEADERS: [&str; 4] = [SCENARIO, FAULT, NET_FAULT, TRAFFIC];

/// One `[header]` / `[[header]]` section with its key/value pairs.
#[derive(Clone, Debug)]
struct Section {
    /// One of [`HEADERS`].
    header: &'static str,
    entries: Vec<(String, Value)>,
    line: usize,
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(s: &str) -> Result<(String, &str), String> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    if chars.next().map(|(_, c)| c) != Some('"') {
        return Err(format!("expected a quoted string at {s:?}"));
    }
    let mut escaped = false;
    for (i, c) in chars {
        if escaped {
            match c {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                other => return Err(format!("unsupported escape \\{other}")),
            }
            escaped = false;
            continue;
        }
        match c {
            '\\' => escaped = true,
            '"' => return Ok((out, &s[i + 1..])),
            other => out.push(other),
        }
    }
    Err(format!("unterminated string at {s:?}"))
}

fn parse_scalar(s: &str) -> Result<Value, String> {
    let s = s.trim();
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if s.contains('.') || s.contains('e') || s.contains('E') {
        return s
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("bad float {s:?}"));
    }
    s.parse::<i128>()
        .map(Value::Int)
        .map_err(|_| format!("bad value {s:?}"))
}

fn parse_value(s: &str) -> Result<Value, String> {
    let s = s.trim();
    if s.starts_with('"') {
        let (string, rest) = parse_string(s)?;
        if !rest.trim().is_empty() {
            return Err(format!("trailing data after string: {rest:?}"));
        }
        return Ok(Value::Str(string));
    }
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| format!("unterminated array {s:?}"))?;
        let mut items = Vec::new();
        let mut rest = inner.trim();
        while !rest.is_empty() {
            if rest.starts_with('"') {
                let (string, after) = parse_string(rest)?;
                items.push(Value::Str(string));
                rest = after.trim_start().strip_prefix(',').unwrap_or(after).trim();
            } else {
                let (item, after) = match rest.find(',') {
                    Some(i) => (&rest[..i], &rest[i + 1..]),
                    None => (rest, ""),
                };
                items.push(parse_scalar(item)?);
                rest = after.trim();
            }
        }
        return Ok(Value::Array(items));
    }
    parse_scalar(s)
}

/// Counts the bracket balance of a line, ignoring brackets inside strings.
fn bracket_balance(line: &str) -> i64 {
    let mut balance = 0;
    let mut in_string = false;
    let mut escaped = false;
    for c in line.chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '[' if !in_string => balance += 1,
            ']' if !in_string => balance -= 1,
            _ => {}
        }
    }
    balance
}

/// Parses a TOML document into its sections (top-level keys before any
/// header, and headers outside [`HEADERS`], are rejected). Arrays may span
/// multiple lines; continuation lines are joined until brackets balance.
fn parse_sections(text: &str) -> Result<Vec<Section>, String> {
    let mut sections: Vec<Section> = Vec::new();
    let mut lines = text.lines().enumerate();
    while let Some((idx, raw)) = lines.next() {
        let mut line = strip_comment(raw).trim().to_string();
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        // Join continuation lines of a multi-line array.
        if line.contains('=') {
            let mut balance = bracket_balance(&line);
            while balance > 0 {
                let Some((_, next)) = lines.next() else {
                    return Err(format!("line {lineno}: unterminated multi-line array"));
                };
                let next = strip_comment(next).trim().to_string();
                balance += bracket_balance(&next);
                line.push(' ');
                line.push_str(&next);
            }
        }
        let line = line.as_str();
        let header = line
            .strip_prefix("[[")
            .and_then(|h| h.strip_suffix("]]"))
            .map(|h| format!("[[{}]]", h.trim()))
            .or_else(|| {
                line.strip_prefix('[')
                    .and_then(|h| h.strip_suffix(']'))
                    .map(|h| format!("[{}]", h.trim()))
            });
        if let Some(text) = header {
            let header = HEADERS.into_iter().find(|&h| h == text).ok_or_else(|| {
                format!(
                    "line {lineno}: unknown section {text} (expected {})",
                    HEADERS.join(", ")
                )
            })?;
            sections.push(Section {
                header,
                entries: Vec::new(),
                line: lineno,
            });
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`, got {line:?}"))?;
        let section = sections
            .last_mut()
            .ok_or_else(|| format!("line {lineno}: key outside any {SCENARIO} section"))?;
        let value =
            parse_value(value).map_err(|e| format!("line {lineno} ({}): {e}", key.trim()))?;
        section.entries.push((key.trim().to_string(), value));
    }
    Ok(sections)
}

/// Parses scenarios from a TOML document. Every `[[scenario]]` starts from
/// the library defaults ([`ProtocolConfig::default`] with an empty fault and
/// invariant list), so a file only states what differs.
pub fn scenarios_from_toml(text: &str) -> Result<Vec<Scenario>, String> {
    let mut scenarios: Vec<Scenario> = Vec::new();
    for section in &parse_sections(text)? {
        let (line, header, entries) = (section.line, section.header, &section.entries);
        if header == SCENARIO {
            let defaults = Scenario::new("", ProtocolConfig::default());
            let scenario = read(&SCENARIO_KEYS, "scenario", 0, defaults, entries);
            scenarios.push(scenario.map_err(|e| format!("line {line}: {e}"))?);
            continue;
        }
        // A sub-table belongs to the last `[[scenario]]`; an error names its
        // index among that scenario's tables of the same header.
        let Some(scenario) = scenarios.last_mut() else {
            return Err(format!("line {line}: {header} before any {SCENARIO}"));
        };
        let (index, attached) = match header {
            FAULT => (
                scenario.faults.len(),
                read(&FAULT_KEYS, "fault", FAULT_KEYS.len(), NO_FAULT, entries)
                    .map(|f| scenario.faults.push(f)),
            ),
            // The window and the kind are every fault's, the rest its kind's.
            NET_FAULT => (
                scenario.net_faults.len(),
                read(&NET_FAULT_KEYS, "net-fault", 3, NO_NET_FAULT, entries)
                    .and_then(|f| require(&NET_FAULT_KEYS, f.kind.name(), &f, entries).map(|()| f))
                    .map(|f| scenario.net_faults.push(f)),
            ),
            // `TRAFFIC`, the one other header `parse_sections` admits.
            _ => match scenario.config.traffic {
                Some(_) => (1, Err(format!("a scenario takes one {TRAFFIC}"))),
                None => (
                    0,
                    read(&TRAFFIC_KEYS, "traffic", 1, Default::default(), entries)
                        .map(|t| scenario.config.traffic = Some(t)),
                ),
            },
        };
        attached.map_err(|e| {
            format!(
                "line {line}: {header} #{index} of scenario {:?}: {e}",
                scenario.name
            )
        })?;
    }
    for scenario in &scenarios {
        scenario.validate()?;
    }
    Ok(scenarios)
}

/// Loads every `*.toml` file in a directory (sorted by file name for
/// deterministic ordering) and returns all scenarios found.
pub fn load_dir(dir: &std::path::Path) -> Result<Vec<Scenario>, String> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    let mut scenarios = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let parsed = scenarios_from_toml(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        scenarios.extend(parsed);
    }
    Ok(scenarios)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MAX_WORKERS;
    use cycledger_protocol::config::{MAX_ACCOUNTS_PER_SHARD, MAX_TXS_PER_ROUND};
    use proptest::prelude::*;

    #[test]
    fn value_parsing_covers_the_subset() {
        assert_eq!(parse_value("\"hi\"").unwrap(), Value::Str("hi".into()));
        assert_eq!(
            parse_value("\"a \\\"b\\\" \\\\ c\"").unwrap(),
            Value::Str("a \"b\" \\ c".into())
        );
        assert_eq!(parse_value("42").unwrap(), Value::Int(42));
        assert_eq!(parse_value("-3").unwrap(), Value::Int(-3));
        assert_eq!(parse_value("0.25").unwrap(), Value::Float(0.25));
        assert_eq!(parse_value("1e-3").unwrap(), Value::Float(0.001));
        assert_eq!(parse_value("true").unwrap(), Value::Bool(true));
        assert_eq!(
            parse_value("[1, 2, 8]").unwrap(),
            Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(8)])
        );
        assert_eq!(
            parse_value("[\"a\", \"b\"]").unwrap(),
            Value::Array(vec![Value::Str("a".into()), Value::Str("b".into())])
        );
        assert!(parse_value("\"unterminated").is_err());
        assert!(parse_value("[1, 2").is_err());
        assert!(parse_value("nonsense words").is_err());
    }

    #[test]
    fn multi_line_arrays_with_trailing_commas_parse() {
        let text = r#"
[[scenario]]
name = "multi"
rounds = 1
workers = [1]
invariants = [
    "blocks-every-round",   # comments survive inside arrays
    "no-evictions",
]
"#;
        let scenarios = scenarios_from_toml(text).expect("parses");
        assert_eq!(scenarios[0].invariants.len(), 2);
        assert!(scenarios_from_toml("[[scenario]]\ninvariants = [\n\"x\"\n")
            .unwrap_err()
            .contains("unterminated"));
    }

    #[test]
    fn comments_respect_strings() {
        assert_eq!(strip_comment("a = 1 # note"), "a = 1 ");
        assert_eq!(strip_comment("a = \"x # y\""), "a = \"x # y\"");
    }

    #[test]
    fn a_minimal_scenario_file_parses() {
        let text = r#"
# A handwritten override file.
[[scenario]]
name = "custom"
description = "hand-written"
paper_claim = "Claim 3"
rounds = 2
workers = [1, 2]
seed = 7
committees = 2
committee_size = 8
partial_set_size = 2
referee_size = 5
txs_per_round = 30
accounts_per_shard = 24
pow_difficulty = 2
invariants = ["blocks-every-round", "min-evictions:1"]

[[scenario.faults]]
round = 0
target = "leader:1"
behavior = "silent-leader"
"#;
        let scenarios = scenarios_from_toml(text).expect("parses");
        assert_eq!(scenarios.len(), 1);
        let s = &scenarios[0];
        assert_eq!(s.name, "custom");
        assert_eq!(s.rounds, 2);
        assert_eq!(s.config.committees, 2);
        assert_eq!(s.faults.len(), 1);
        assert_eq!(s.faults[0].target, FaultTarget::Leader(1));
        assert_eq!(s.invariants.len(), 2);
        // Unstated keys keep the library defaults.
        assert_eq!(s.config.base_compute_capacity, 200);
    }

    #[test]
    fn net_fault_sections_parse_and_reject_typos() {
        let text = r#"
[[scenario]]
name = "driven"
rounds = 3
workers = [1]
committees = 2
committee_size = 8
partial_set_size = 2
referee_size = 5
accounts_per_shard = 24
invariants = ["min-quorum-timeouts:1", "min-acceptance-from:2:0.9", "no-double-commit"]

[[scenario.net_faults]]
from_round = 0
until_round = 2
kind = "isolate-commons"
committee = 0
count = 4

[[scenario.net_faults]]
from_round = 1
until_round = 2
kind = "delay"
target = "partial:0:0"
delay_us = 600000
"#;
        let scenarios = scenarios_from_toml(text).expect("parses");
        let s = &scenarios[0];
        assert_eq!(s.net_faults.len(), 2);
        assert_eq!(
            s.net_faults[0].kind,
            NetFaultKind::IsolateCommons {
                committee: 0,
                count: 4
            }
        );
        assert_eq!(
            s.net_faults[1].kind,
            NetFaultKind::Delay {
                target: FaultTarget::PartialSetMember {
                    committee: 0,
                    index: 0
                },
                micros: 600_000
            }
        );
        assert_eq!(s.invariants.len(), 3);

        assert!(scenarios_from_toml(
            "[[scenario]]\nname = \"x\"\n[[scenario.net_faults]]\nkidn = \"loss\"\n"
        )
        .unwrap_err()
        .contains("unknown net-fault key"));
        assert!(scenarios_from_toml(
            "[[scenario]]\nname = \"x\"\n[[scenario.net_faults]]\nfrom_round = 0\nuntil_round = 1\nkind = \"flood\"\n"
        )
        .unwrap_err()
        .contains("unknown net-fault kind"));
        // A delay target past the committee count fails to load (it used to
        // pass and index out of bounds in the runner).
        let far = text.replace("\"partial:0:0\"", "\"leader:9\"");
        let err = scenarios_from_toml(&far).unwrap_err();
        assert!(
            err.contains("\"driven\"") && err.contains("\"leader:9\""),
            "{err}"
        );
    }

    /// A key some kinds carry, stated under a kind that does not, fails the
    /// load with an error that names it (it used to be read and dropped).
    #[test]
    fn a_key_foreign_to_the_kind_is_rejected() {
        let value = |key: &str| match key {
            TARGET => "\"leader:0\"",
            "committee" => "0",
            _ => "5",
        };
        let carried = &NET_FAULT_KEYS[3..];
        for kind in NetFaultKind::BLANK {
            let fault = NetFaultInjection {
                from_round: 0,
                until_round: 1,
                kind,
            };
            let own: String = entries(carried, &fault)
                .map(|(key, _)| format!("{key} = {}\n", value(key)))
                .collect();
            let text = format!(
                "[[scenario]]\nname = \"x\"\nworkers = [1]\nepoch_length = 2\n\
                 joins_per_epoch = 1\ninvariants = [\"no-double-commit\"]\n\
                 [[scenario.net_faults]]\nfrom_round = 0\nuntil_round = 1\nkind = {:?}\n{own}",
                kind.name()
            );
            assert!(scenarios_from_toml(&text).is_ok(), "{text}");
            for key in carried.iter().filter(|key| (key.read)(&fault).is_none()) {
                let foreign = format!("{text}{} = {}\n", key.name, value(key.name));
                let err = scenarios_from_toml(&foreign).unwrap_err();
                assert!(err.contains(&format!("{}: ", key.name)), "{err}");
            }
        }
    }

    #[test]
    fn malformed_fault_tables_are_attributed_by_index() {
        // The second [[scenario.net_faults]] table is the malformed one; the
        // error must say so (index + scenario name + line), not just name
        // the offending key.
        let text = r#"
[[scenario]]
name = "attributable"
rounds = 3
workers = [1]
invariants = ["no-double-commit"]

[[scenario.net_faults]]
from_round = 0
until_round = 1
kind = "loss"
loss_ppm = 1000

[[scenario.net_faults]]
from_round = 1
until_round = 2
kind = "delay"
target = "leader:0"
"#;
        let err = scenarios_from_toml(text).unwrap_err();
        assert!(
            err.contains("[[scenario.net_faults]] #1"),
            "error lacks the table index: {err}"
        );
        assert!(
            err.contains("\"attributable\""),
            "error lacks the scenario name: {err}"
        );
        assert!(err.contains("line 14"), "error lacks the line: {err}");
        assert!(err.contains("delay needs delay_us"), "wrong cause: {err}");

        let classic = "[[scenario]]\nname = \"x\"\n\
             [[scenario.faults]]\nround = 0\ntarget = \"leader:0\"\nbehavior = \"silent-leader\"\n\
             [[scenario.faults]]\nround = 1\ntarget = \"leader:0\"\n";
        let err = scenarios_from_toml(classic).unwrap_err();
        assert!(
            err.contains("[[scenario.faults]] #1") && err.contains("fault needs a behavior"),
            "classic fault table not attributed: {err}"
        );
    }

    /// The `key = value` lines the key table reads off `record`.
    fn lines<T>(keys: &[Key<T>], record: &T) -> Vec<String> {
        entries(keys, record)
            .map(|(key, value)| format!("{key} = {value}"))
            .collect()
    }

    /// The `key = value` lines a section of literal text states.
    fn stated(section: &str) -> Vec<String> {
        let section = section.split("\n[").next().unwrap_or_default();
        section
            .lines()
            .filter(|line| line.contains(" = "))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn epoch_keys_and_new_net_fault_kinds_round_trip() {
        let text = r#"
[[scenario]]
name = "churny"
rounds = 6
workers = [1]
epoch_length = 2
joins_per_epoch = 2
leaves_per_epoch = 1
invariants = ["min-epoch-transitions:3", "no-syncing-votes", "min-synced:4"]

[[scenario.net_faults]]
from_round = 1
until_round = 4
kind = "isolate-joiners"

[[scenario.net_faults]]
from_round = 0
until_round = 2
kind = "crash-stop"
target = "node:3"
"#;
        let scenarios = scenarios_from_toml(text).expect("parses");
        let s = &scenarios[0];
        assert_eq!(s.config.epoch_length, 2);
        assert_eq!(s.config.joins_per_epoch, 2);
        assert_eq!(s.config.leaves_per_epoch, 1);
        assert_eq!(s.net_faults[0].kind, NetFaultKind::IsolateJoiners);
        assert_eq!(
            s.net_faults[1].kind,
            NetFaultKind::CrashStop {
                target: FaultTarget::Node(3)
            }
        );
        // Each record reads back as the lines its section states.
        let sections: Vec<&str> = text.split("[[scenario.net_faults]]").collect();
        for (fault, section) in s.net_faults.iter().zip(&sections[1..]) {
            assert_eq!(lines(&NET_FAULT_KEYS, fault), stated(section));
        }
        let lines = lines(&SCENARIO_KEYS, s);
        assert!(stated(sections[0]).iter().all(|line| lines.contains(line)));
    }

    #[test]
    fn traffic_blocks_parse_and_round_trip() {
        let text = r#"
[[scenario]]
name = "open-loop"
rounds = 6
workers = [1]
committees = 2
committee_size = 8
partial_set_size = 2
referee_size = 5
txs_per_round = 40
accounts_per_shard = 24
pow_difficulty = 2
invariants = ["blocks-every-round", "max-p99-latency:24.0", "min-sustained-tps:15.0"]

[scenario.traffic]
rate_tps = 20.0
shape = "poisson"
warmup_rounds = 1
"#;
        let scenarios = scenarios_from_toml(text).expect("parses");
        let s = &scenarios[0];
        let traffic = s.config.traffic.expect("traffic block applied");
        assert_eq!(traffic.rate_tps, 20.0);
        assert_eq!(traffic.shape, ArrivalShape::Poisson);
        assert_eq!(traffic.warmup_rounds, 1);
        assert_eq!(
            s.invariants[1],
            Invariant::MaxP99Latency(24.0),
            "SLO invariants parse from the array"
        );
        assert_eq!(s.invariants[2], Invariant::MinSustainedTps(15.0));
        let (scenario, section) = text.split_once("[scenario.traffic]").unwrap();
        assert_eq!(lines(&TRAFFIC_KEYS, &traffic), stated(section));
        let lines = lines(&SCENARIO_KEYS, s);
        assert!(stated(scenario).iter().all(|line| lines.contains(line)));

        // Typos and structural mistakes fail loudly.
        assert!(scenarios_from_toml(
            "[[scenario]]\nname = \"x\"\n[scenario.traffic]\nrate = 5.0\n"
        )
        .unwrap_err()
        .contains("unknown traffic key"));
        assert!(scenarios_from_toml(
            "[[scenario]]\nname = \"x\"\n[scenario.traffic]\nshape = \"constant\"\n"
        )
        .unwrap_err()
        .contains("needs rate_tps"));
        assert!(scenarios_from_toml(
            "[[scenario]]\nname = \"x\"\n[scenario.traffic]\nrate_tps = 5.0\nshape = \"bursty\"\n"
        )
        .unwrap_err()
        .contains("unknown arrival shape"));
        assert!(scenarios_from_toml("[scenario.traffic]\nrate_tps = 5.0\n")
            .unwrap_err()
            .contains("before any"));
        assert!(scenarios_from_toml(
            "[[scenario]]\nname = \"x\"\n[scenario.traffic]\nrate_tps = 5.0\n[scenario.traffic]\nrate_tps = 6.0\n"
        )
        .unwrap_err()
        .contains("takes one [scenario.traffic]"));
    }

    #[test]
    fn state_backend_key_parses_and_round_trips() {
        let text = r#"
[[scenario]]
name = "authenticated"
rounds = 2
workers = [1]
committees = 2
committee_size = 8
partial_set_size = 2
referee_size = 5
accounts_per_shard = 24
state_backend = "smt"
invariants = ["blocks-every-round", "state-root", "light-client-proof:8"]
"#;
        let scenarios = scenarios_from_toml(text).expect("parses");
        let s = &scenarios[0];
        assert_eq!(s.config.state_backend, cycledger_ledger::StateBackend::Smt);
        assert_eq!(s.invariants[1], Invariant::StateRootsEveryRound);
        assert_eq!(s.invariants[2], Invariant::LightClientProofsVerify(8));
        let lines = lines(&SCENARIO_KEYS, s);
        assert!(lines.contains(&"state_backend = \"smt\"".to_string()));
        assert!(stated(text).iter().all(|line| lines.contains(line)));

        // Unknown backends fail loudly; proof invariants without the smt
        // backend are rejected by validation.
        assert!(
            scenarios_from_toml("[[scenario]]\nname = \"x\"\nstate_backend = \"btree\"\n")
                .unwrap_err()
                .contains("unknown state backend")
        );
        assert!(scenarios_from_toml(
            "[[scenario]]\nname = \"x\"\nrounds = 1\nworkers = [1]\ninvariants = [\"state-root\"]\n"
        )
        .unwrap_err()
        .contains("state_backend"));
    }

    #[test]
    fn unknown_keys_and_sections_are_rejected() {
        assert!(scenarios_from_toml("[[scenario]]\nnmae = \"typo\"\n")
            .unwrap_err()
            .contains("unknown scenario key"));
        assert!(scenarios_from_toml("[[experiment]]\n")
            .unwrap_err()
            .contains("unknown section"));
        assert!(scenarios_from_toml("stray = 1\n")
            .unwrap_err()
            .contains("outside any"));
        assert!(scenarios_from_toml("[[scenario.faults]]\nround = 0\n")
            .unwrap_err()
            .contains("before any"));
    }

    /// A worker count past [`MAX_WORKERS`] fails the load (each worker is an
    /// OS thread, so the run would spawn that many).
    #[test]
    fn worker_counts_past_the_limit_are_rejected() {
        let text = |workers: &str| {
            format!(
                "[[scenario]]\nname = \"x\"\nworkers = {workers}\n\
                 invariants = [\"no-double-commit\"]\n"
            )
        };
        assert!(scenarios_from_toml(&text(&format!("[1, {MAX_WORKERS}]"))).is_ok());
        for workers in [
            format!("[{}]", MAX_WORKERS + 1),
            format!("[1, 2, {}]", u64::MAX),
        ] {
            let err = scenarios_from_toml(&text(&workers)).unwrap_err();
            assert!(
                err.contains(&format!("over the limit of {MAX_WORKERS}")),
                "{workers}: {err}"
            );
        }
    }

    /// A workload size past its limit fails the load (the run would generate
    /// that many transactions a round, or mint that many accounts a shard);
    /// the limit itself loads.
    #[test]
    fn workload_sizes_past_the_limit_are_rejected() {
        let text = |key: &str, value: u64| {
            format!(
                "[[scenario]]\nname = \"x\"\n{key} = {value}\n\
                 invariants = [\"no-double-commit\"]\n"
            )
        };
        for (key, limit) in [
            ("txs_per_round", MAX_TXS_PER_ROUND),
            ("accounts_per_shard", MAX_ACCOUNTS_PER_SHARD),
        ] {
            assert!(scenarios_from_toml(&text(key, limit as u64)).is_ok());
            for value in [limit as u64 + 1, u64::MAX] {
                let err = scenarios_from_toml(&text(key, value)).unwrap_err();
                assert!(
                    err.contains(&format!("over the limit of {limit}")),
                    "{key} = {value}: {err}"
                );
            }
        }
    }

    #[test]
    fn u64_keys_round_trip_over_the_full_range() {
        let text = "[[scenario]]\nname = \"extremes\"\nworkers = [1]\n\
             invariants = [\"no-double-commit\"]\nseed = 18446744073709551615\n\
             latency_delta_us = 9223372036854775808\nepoch_length = 18446744073709551615\n";
        let parsed = &scenarios_from_toml(text).expect("parses")[0];
        assert_eq!(parsed.config.seed, u64::MAX);
        assert_eq!(parsed.config.latency.delta.as_micros(), 1 << 63);
        assert_eq!(parsed.config.epoch_length, u64::MAX);
        let lines = lines(&SCENARIO_KEYS, parsed);
        assert!(stated(text).iter().all(|line| lines.contains(line)));

        // Unsigned keys still reject negatives, and values past their range.
        for line in [
            "seed = -1",
            "seed = 18446744073709551616",
            "rounds = -3",
            "joins_per_epoch = 4294967296",
        ] {
            let err = scenarios_from_toml(&format!("[[scenario]]\n{line}\n")).unwrap_err();
            assert!(err.contains("non-negative"), "{line}: {err}");
        }
    }

    /// The built-in matrix, the loader's largest input.
    const BUILTIN: &str = include_str!("../../../scenarios/builtin.toml");

    /// A scenario stating every key of every table: the `[[scenario]]` keys
    /// with the values given, one traffic block, one behaviour fault and one
    /// network fault of each kind.
    fn every_key(seed: u64, delta: u64, epoch_length: u64, ratios: [f64; 4]) -> String {
        let [cross, invalid, malicious, rate] = ratios;
        let gamma = delta.rotate_left(17);
        format!(
            r#"[[scenario]]
name = "every-key"
description = "a \"quoted\" \\ line"
paper_claim = "§I"
rounds = 4
workers = [1, 2]
seed = {seed}
committees = 2
committee_size = 8
partial_set_size = 2
referee_size = 5
txs_per_round = 40
cross_shard_ratio = {cross:?}
invalid_ratio = {invalid:?}
accounts_per_shard = 32
pow_difficulty = 2
base_compute_capacity = 150
compute_capacity_spread = 50
latency_delta_us = {delta}
latency_gamma_us = {gamma}
state_backend = "smt"
epoch_length = {epoch_length}
joins_per_epoch = 2
leaves_per_epoch = 1
malicious_fraction = {malicious:?}
mix = "uniform"
invariants = ["no-double-commit", "max-p99-latency:26.0", "state-root"]

[scenario.traffic]
rate_tps = {rate:?}
shape = "poisson"
warmup_rounds = 1

[[scenario.faults]]
round = 3
target = "partial:1:1"
behavior = "false-accuser"

[[scenario.net_faults]]
from_round = 0
until_round = 1
kind = "isolate-leader"
committee = 1

[[scenario.net_faults]]
from_round = 1
until_round = 2
kind = "isolate-commons"
committee = 0
count = 3

[[scenario.net_faults]]
from_round = 2
until_round = 3
kind = "delay"
target = "leader:1"
delay_us = 600000

[[scenario.net_faults]]
from_round = 0
until_round = 4
kind = "loss"
loss_ppm = 150000

[[scenario.net_faults]]
from_round = 3
until_round = 4
kind = "crash-stop"
target = "node:5"

[[scenario.net_faults]]
from_round = 1
until_round = 3
kind = "isolate-joiners"
"#
        )
    }

    /// Every integer key (an integer array becomes one element) of every
    /// builtin, and of a scenario stating every key, at 0, 1, 2^63,
    /// `u64::MAX` and `usize::MAX`: the loader answers `Ok` or `Err` and
    /// never panics, and what it loads never asks for more than
    /// [`MAX_WORKERS`] workers.
    #[test]
    fn extreme_integers_never_panic_the_loader() {
        let extremes = [0, 1, 1 << 63, u64::MAX as u128, usize::MAX as u128];
        let mut keys = std::collections::BTreeSet::new();
        let documents = BUILTIN
            .split("\n[[scenario]]\n")
            .skip(1)
            .map(|body| format!("[[scenario]]\n{body}"))
            .chain([every_key(1, 1, 1, [0.5; 4])]);
        for text in documents {
            let lines: Vec<&str> = text.lines().collect();
            for (at, line) in lines.iter().enumerate() {
                let Some((key, value)) = line.split_once(" = ") else {
                    continue;
                };
                let array = match parse_value(value) {
                    Ok(Value::Int(_)) => false,
                    Ok(Value::Array(items)) => match items.first() {
                        Some(Value::Int(_)) => true,
                        _ => continue,
                    },
                    _ => continue,
                };
                keys.insert(key.to_string());
                for n in extremes {
                    let value = if array {
                        format!("[{n}]")
                    } else {
                        n.to_string()
                    };
                    let mut mutated = lines.clone();
                    let replaced = format!("{key} = {value}");
                    mutated[at] = &replaced;
                    let mutated = mutated.join("\n");
                    let loaded = std::panic::catch_unwind(|| scenarios_from_toml(&mutated));
                    let Ok(loaded) = loaded else {
                        panic!("{key} = {value} panicked the loader");
                    };
                    for scenario in loaded.iter().flatten() {
                        assert!(scenario.workers.iter().all(|&w| w <= MAX_WORKERS));
                    }
                }
            }
        }
        let expected = [
            "accounts_per_shard",
            "base_compute_capacity",
            "committee",
            "committee_size",
            "committees",
            "compute_capacity_spread",
            "count",
            "delay_us",
            "epoch_length",
            "from_round",
            "joins_per_epoch",
            "latency_delta_us",
            "latency_gamma_us",
            "leaves_per_epoch",
            "loss_ppm",
            "partial_set_size",
            "pow_difficulty",
            "referee_size",
            "round",
            "rounds",
            "seed",
            "txs_per_round",
            "until_round",
            "warmup_rounds",
            "workers",
        ];
        assert_eq!(keys.into_iter().collect::<Vec<_>>(), expected);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A scenario stating every key of every table, across the full range
        /// of its `u64` keys and its ratios, reads back as the lines it
        /// states, section for section.
        #[test]
        fn every_key_round_trips_through_literal_text(
            seed in any::<u64>(),
            delta in any::<u64>(),
            epoch_length in 1u64..=u64::MAX,
            cross in 0.0f64..1.0,
            invalid in 0.0f64..1.0,
            malicious in 0.0f64..0.5,
            rate in 0.5f64..1e6,
        ) {
            let text = every_key(seed, delta, epoch_length, [cross, invalid, malicious, rate]);
            let s = scenarios_from_toml(&text)?.remove(0);
            let sections: Vec<&str> = text.split("\n[").collect();
            let mut read = vec![lines(&SCENARIO_KEYS, &s)];
            read.extend(s.config.traffic.iter().map(|t| lines(&TRAFFIC_KEYS, t)));
            read.extend(s.faults.iter().map(|f| lines(&FAULT_KEYS, f)));
            read.extend(s.net_faults.iter().map(|f| lines(&NET_FAULT_KEYS, f)));
            prop_assert_eq!(read.len(), sections.len());
            for (read, section) in read.iter().zip(&sections) {
                prop_assert_eq!(read, &stated(section));
            }
            // Every key of every table is stated.
            let names = SCENARIO_KEYS.iter().map(|k| k.name)
                .chain(TRAFFIC_KEYS.iter().map(|k| k.name))
                .chain(FAULT_KEYS.iter().map(|k| k.name))
                .chain(NET_FAULT_KEYS.iter().map(|k| k.name));
            for name in names {
                let line = format!("\n{name} = ");
                prop_assert!(text.contains(&line), "{} is not stated", name);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The loader answers `Ok` or `Err`, and never panics, on a bit flip,
        /// a truncation or a duplicated line of `scenarios/builtin.toml`.
        #[test]
        fn a_mutated_registry_never_panics_the_loader(
            mutation in 0u8..3,
            at in any::<u64>(),
            bit in 0u8..8,
        ) {
            let mut bytes = BUILTIN.as_bytes().to_vec();
            let at = (at % bytes.len() as u64) as usize;
            match mutation {
                0 => bytes[at] ^= 1 << bit,
                1 => bytes.truncate(at),
                _ => {
                    let mut lines: Vec<&str> = BUILTIN.split_inclusive('\n').collect();
                    let line = at % lines.len();
                    lines.insert(line, lines[line]);
                    bytes = lines.concat().into_bytes();
                }
            }
            let mutated = String::from_utf8_lossy(&bytes);
            let loaded = std::panic::catch_unwind(|| scenarios_from_toml(&mutated).is_ok());
            prop_assert!(
                loaded.is_ok(),
                "mutation {mutation} at byte {at} (bit {bit}) panicked the loader"
            );
        }
    }
}
