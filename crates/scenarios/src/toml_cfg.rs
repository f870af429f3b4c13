//! Loading and saving scenarios as TOML, with no external dependencies.
//!
//! The workspace is fully offline, so this module implements the small TOML
//! subset the scenario schema needs: `[[scenario]]` array-of-table headers
//! (plus the `[[scenario.faults]]`, `[[scenario.net_faults]]` and
//! `[scenario.traffic]` sub-tables), `key = value` pairs with strings,
//! integers, floats, booleans and arrays, and `#` comments. Unknown keys are
//! rejected — a typo in a scenario file should fail loudly, not silently fall
//! back to a default.
//!
//! `SCENARIO_KEYS` below is the one list of `[[scenario]]` keys (and
//! `TRAFFIC_KEYS` of `[scenario.traffic]` keys): each row names a key, reads
//! its value off a scenario and writes a parsed value back, so the parser and
//! the serializer cannot disagree. The serializer writes every row in table
//! order, and `parse(serialize(s))` reproduces `s` exactly — pinned by the
//! round-trip property in this module's tests.

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
field!(bool, "a boolean", |b| Value::Bool(*b), Value::Bool(b) => Ok(*b));
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
field!(BehaviorMix, "a mix name", |m| Value::Str(mix_name(*m)),
    Value::Str(s) => mix_from_name(s));
field!(StateBackend, "a backend name", |b| Value::Str(b.name().into()),
    Value::Str(s) => StateBackend::from_name(s)
        .ok_or_else(|| format!("unknown state backend {s:?} (map or smt)")));
field!(ArrivalShape, "a shape name", |a| Value::Str(a.name().into()),
    Value::Str(s) => ArrivalShape::from_name(s)
        .ok_or_else(|| format!("unknown arrival shape {s:?}")));

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
/// `T`, and how a parsed value is written back.
struct Key<T> {
    name: &'static str,
    read: fn(&T) -> Value,
    write: fn(&mut T, &Value) -> Result<(), String>,
}

/// The row of a key stored in one field of `T`.
macro_rules! key {
    ($name:literal, $($field:ident).+) => {
        Key {
            name: $name,
            read: |t| t.$($field).+.to_value(),
            write: |t, value| {
                t.$($field).+ = Field::from_value(value)?;
                Ok(())
            },
        }
    };
}

/// Every `[[scenario]]` key, in the order `scenarios_to_toml` writes them: the
/// one list of keys a scenario file may use. A key left out of a file keeps
/// its default ([`Scenario::new`] over [`ProtocolConfig::default`]).
static SCENARIO_KEYS: [Key<Scenario>; 30] = [
    key!("name", name),
    key!("description", description),
    key!("paper_claim", paper_claim),
    key!("rounds", rounds),
    key!("smoke", smoke),
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
    key!("leader_bonus", config.leader_bonus),
    key!("latency_delta_us", config.latency.delta),
    key!("latency_gamma_us", config.latency.gamma),
    key!("latency_partial_us", config.latency.partial_bound),
    key!("state_backend", config.state_backend),
    key!("message_driven", config.message_driven),
    key!("epoch_length", config.epoch_length),
    key!("joins_per_epoch", config.joins_per_epoch),
    key!("leaves_per_epoch", config.leaves_per_epoch),
    key!("malicious_fraction", config.adversary.malicious_fraction),
    key!("mix", config.adversary.mix),
    key!("invariants", invariants),
];

/// Every `[scenario.traffic]` key (`rate_tps` is required).
static TRAFFIC_KEYS: [Key<TrafficConfig>; 3] = [
    key!("rate_tps", rate_tps),
    key!("shape", shape),
    key!("warmup_rounds", warmup_rounds),
];

/// Writes a table's entries into `target` through its key table.
fn apply_keys<T>(
    keys: &[Key<T>],
    table: &str,
    target: &mut T,
    entries: &[(String, Value)],
) -> Result<(), String> {
    for (name, value) in entries {
        let key = keys
            .iter()
            .find(|key| key.name == name)
            .ok_or_else(|| format!("unknown {table} key {name:?}"))?;
        (key.write)(target, value).map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(())
}

/// Writes one `key = value` line per row of `keys`, read off `source`.
fn write_keys<T>(out: &mut String, keys: &[Key<T>], source: &T) {
    for key in keys {
        push_line(out, key.name, (key.read)(source));
    }
}

fn push_line(out: &mut String, key: &str, value: Value) {
    out.push_str(&format!("{key} = {value}\n"));
}

/// The section headers of the scenario schema.
const HEADERS: [&str; 4] = [
    "[[scenario]]",
    "[[scenario.faults]]",
    "[[scenario.net_faults]]",
    "[scenario.traffic]",
];

/// One `[header]` / `[[header]]` section with its key/value pairs.
#[derive(Clone, Debug)]
struct Section {
    /// One of [`HEADERS`].
    header: String,
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
        if let Some(header) = header {
            if !HEADERS.contains(&header.as_str()) {
                return Err(format!(
                    "line {lineno}: unknown section {header} (expected {})",
                    HEADERS.join(", ")
                ));
            }
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
            .ok_or_else(|| format!("line {lineno}: key outside any [[scenario]] section"))?;
        let value =
            parse_value(value).map_err(|e| format!("line {lineno} ({}): {e}", key.trim()))?;
        section.entries.push((key.trim().to_string(), value));
    }
    Ok(sections)
}

fn fault_from_section(section: &Section) -> Result<FaultInjection, String> {
    let (mut round, mut target, mut behavior) = (None, None, None);
    for (key, value) in &section.entries {
        match key.as_str() {
            "round" => round = Some(Field::from_value(value)?),
            "target" => target = Some(Field::from_value(value)?),
            "behavior" => behavior = Some(Field::from_value(value)?),
            other => return Err(format!("unknown fault key {other:?}")),
        }
    }
    Ok(FaultInjection {
        round: round.ok_or("fault needs a round")?,
        target: target.ok_or("fault needs a target")?,
        behavior: behavior.ok_or("fault needs a behavior")?,
    })
}

fn net_fault_from_section(section: &Section) -> Result<NetFaultInjection, String> {
    let mut from_round: Option<u64> = None;
    let mut until_round: Option<u64> = None;
    let mut kind: Option<String> = None;
    let mut committee: Option<usize> = None;
    let mut count: Option<usize> = None;
    let mut target: Option<FaultTarget> = None;
    let mut delay_us: Option<u64> = None;
    let mut loss_ppm: Option<u32> = None;
    for (key, value) in &section.entries {
        match key.as_str() {
            "from_round" => from_round = Some(Field::from_value(value)?),
            "until_round" => until_round = Some(Field::from_value(value)?),
            "kind" => kind = Some(Field::from_value(value)?),
            "committee" => committee = Some(Field::from_value(value)?),
            "count" => count = Some(Field::from_value(value)?),
            "target" => target = Some(Field::from_value(value)?),
            "delay_us" => delay_us = Some(Field::from_value(value)?),
            "loss_ppm" => loss_ppm = Some(Field::from_value(value)?),
            other => return Err(format!("unknown net-fault key {other:?}")),
        }
    }
    let kind = match kind.as_deref().ok_or("net fault needs a kind")? {
        "isolate-leader" => NetFaultKind::IsolateLeader {
            committee: committee.ok_or("isolate-leader needs a committee")?,
        },
        "isolate-commons" => NetFaultKind::IsolateCommons {
            committee: committee.ok_or("isolate-commons needs a committee")?,
            count: count.ok_or("isolate-commons needs a count")?,
        },
        "delay" => NetFaultKind::Delay {
            target: target.ok_or("delay needs a target")?,
            micros: delay_us.ok_or("delay needs delay_us")?,
        },
        "loss" => NetFaultKind::Loss {
            ppm: loss_ppm.ok_or("loss needs loss_ppm")?,
        },
        "crash-stop" => NetFaultKind::CrashStop {
            target: target.ok_or("crash-stop needs a target")?,
        },
        "isolate-joiners" => NetFaultKind::IsolateJoiners,
        other => return Err(format!("unknown net-fault kind {other:?}")),
    };
    Ok(NetFaultInjection {
        from_round: from_round.ok_or("net fault needs from_round")?,
        until_round: until_round.ok_or("net fault needs until_round")?,
        kind,
    })
}

fn traffic_from_section(section: &Section) -> Result<TrafficConfig, String> {
    let mut traffic = TrafficConfig::default();
    apply_keys(&TRAFFIC_KEYS, "traffic", &mut traffic, &section.entries)?;
    if !section.entries.iter().any(|(key, _)| key == "rate_tps") {
        return Err("traffic needs rate_tps".into());
    }
    Ok(traffic)
}

/// Parses scenarios from a TOML document. Every `[[scenario]]` starts from
/// the library defaults ([`ProtocolConfig::default`] with an empty fault and
/// invariant list), so a file only states what differs.
pub fn scenarios_from_toml(text: &str) -> Result<Vec<Scenario>, String> {
    let mut scenarios: Vec<Scenario> = Vec::new();
    for section in &parse_sections(text)? {
        let (line, header) = (section.line, section.header.as_str());
        if header == "[[scenario]]" {
            let mut scenario = Scenario::new("", ProtocolConfig::default());
            apply_keys(&SCENARIO_KEYS, "scenario", &mut scenario, &section.entries)
                .map_err(|e| format!("line {line}: {e}"))?;
            scenarios.push(scenario);
            continue;
        }
        // A sub-table belongs to the last `[[scenario]]`; an error names its
        // index among that scenario's tables of the same header.
        let Some(scenario) = scenarios.last_mut() else {
            return Err(format!("line {line}: {header} before any [[scenario]]"));
        };
        let (index, attached) = match header {
            "[[scenario.faults]]" => (
                scenario.faults.len(),
                fault_from_section(section).map(|f| scenario.faults.push(f)),
            ),
            "[[scenario.net_faults]]" => (
                scenario.net_faults.len(),
                net_fault_from_section(section).map(|f| scenario.net_faults.push(f)),
            ),
            // `[scenario.traffic]`, the one other header `parse_sections` admits.
            _ => match scenario.config.traffic {
                Some(_) => (1, Err("a scenario takes one [scenario.traffic]".into())),
                None => (
                    0,
                    traffic_from_section(section).map(|t| scenario.config.traffic = Some(t)),
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

/// Serializes scenarios to the canonical TOML form (every key, table order;
/// `parse(serialize(s))` reproduces `s` exactly).
pub fn scenarios_to_toml(scenarios: &[Scenario]) -> String {
    let mut out = String::new();
    for scenario in scenarios {
        out.push_str("[[scenario]]\n");
        write_keys(&mut out, &SCENARIO_KEYS, scenario);
        if let Some(traffic) = &scenario.config.traffic {
            out.push_str("\n[scenario.traffic]\n");
            write_keys(&mut out, &TRAFFIC_KEYS, traffic);
        }
        for fault in &scenario.faults {
            out.push_str("\n[[scenario.faults]]\n");
            push_line(&mut out, "round", fault.round.to_value());
            push_line(&mut out, "target", fault.target.to_value());
            push_line(&mut out, "behavior", fault.behavior.to_value());
        }
        for fault in &scenario.net_faults {
            out.push_str("\n[[scenario.net_faults]]\n");
            push_line(&mut out, "from_round", fault.from_round.to_value());
            push_line(&mut out, "until_round", fault.until_round.to_value());
            push_line(&mut out, "kind", Value::Str(fault.kind.name().into()));
            match fault.kind {
                NetFaultKind::IsolateLeader { committee } => {
                    push_line(&mut out, "committee", committee.to_value());
                }
                NetFaultKind::IsolateCommons { committee, count } => {
                    push_line(&mut out, "committee", committee.to_value());
                    push_line(&mut out, "count", count.to_value());
                }
                NetFaultKind::Delay { target, micros } => {
                    push_line(&mut out, "target", target.to_value());
                    push_line(&mut out, "delay_us", micros.to_value());
                }
                NetFaultKind::Loss { ppm } => push_line(&mut out, "loss_ppm", ppm.to_value()),
                NetFaultKind::CrashStop { target } => {
                    push_line(&mut out, "target", target.to_value());
                }
                NetFaultKind::IsolateJoiners => {}
            }
        }
        out.push('\n');
    }
    out
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
    use crate::registry::builtin_scenarios;
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
smoke = true
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
        assert_eq!(s.config.leader_bonus, 0.1);
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
message_driven = true
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
        assert!(s.config.message_driven);
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
message_driven = true
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
        assert!(err.contains("line 15"), "error lacks the line: {err}");
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

    #[test]
    fn epoch_keys_and_new_net_fault_kinds_round_trip() {
        let text = r#"
[[scenario]]
name = "churny"
rounds = 6
workers = [1]
message_driven = true
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
        let serialized = scenarios_to_toml(&scenarios);
        let reparsed = scenarios_from_toml(&serialized).expect("round-trips");
        assert_eq!(reparsed[0].net_faults, s.net_faults);
        assert_eq!(reparsed[0].config.epoch_length, 2);
        assert_eq!(serialized, scenarios_to_toml(&reparsed));
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
        let serialized = scenarios_to_toml(&scenarios);
        let reparsed = scenarios_from_toml(&serialized).expect("round-trips");
        assert_eq!(reparsed[0].config.traffic, s.config.traffic);
        assert_eq!(serialized, scenarios_to_toml(&reparsed));

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
        let serialized = scenarios_to_toml(&scenarios);
        assert!(serialized.contains("state_backend = \"smt\"\n"));
        let reparsed = scenarios_from_toml(&serialized).expect("round-trips");
        assert_eq!(
            reparsed[0].config.state_backend,
            cycledger_ledger::StateBackend::Smt
        );
        assert_eq!(serialized, scenarios_to_toml(&reparsed));

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

    #[test]
    fn u64_keys_round_trip_over_the_full_range() {
        let mut scenario = builtin_scenarios().remove(0);
        scenario.config.seed = u64::MAX;
        scenario.config.latency.delta = SimDuration::from_micros(1 << 63);
        scenario.config.epoch_length = u64::MAX;
        let text = scenarios_to_toml(&[scenario]);
        assert!(text.contains("\nseed = 18446744073709551615\n"), "{text}");
        let parsed = &scenarios_from_toml(&text).expect("round-trips")[0];
        assert_eq!(parsed.config.seed, u64::MAX);
        assert_eq!(parsed.config.latency.delta.as_micros(), 1 << 63);
        assert_eq!(parsed.config.epoch_length, u64::MAX);

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

    /// Every integer key of every builtin (sub-tables included; an integer
    /// array becomes one element) at 0, 1, 2^63, `u64::MAX` and
    /// `usize::MAX`: the loader answers `Ok` or `Err` and never panics.
    #[test]
    fn extreme_integers_never_panic_the_loader() {
        let extremes = [0, 1, 1 << 63, u64::MAX as u128, usize::MAX as u128];
        let mut keys = std::collections::BTreeSet::new();
        for scenario in builtin_scenarios() {
            let text = scenarios_to_toml(&[scenario]);
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
                    let loaded = std::panic::catch_unwind(|| scenarios_from_toml(&mutated).is_ok());
                    assert!(loaded.is_ok(), "{key} = {value} panicked the loader");
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
            "latency_partial_us",
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

    /// The whole builtin registry in its canonical TOML form.
    fn registry_toml() -> &'static str {
        static TEXT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        TEXT.get_or_init(|| scenarios_to_toml(&builtin_scenarios()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every builtin, moved across the full range of its `u64` keys and
        /// its ratios, reads back row for row.
        #[test]
        fn every_builtin_round_trips_through_the_key_table(
            seed in any::<u64>(),
            delta in any::<u64>(),
            epoch_length in 1u64..=u64::MAX,
            cross in 0.0f64..1.0,
            invalid in 0.0f64..1.0,
            malicious in 0.0f64..0.5,
            rate in 0.5f64..1e6,
        ) {
            let mut scenarios = builtin_scenarios();
            for s in &mut scenarios {
                s.config.seed = seed;
                s.config.latency.delta = SimDuration::from_micros(delta);
                s.config.latency.gamma = SimDuration::from_micros(delta.rotate_left(17));
                s.config.latency.partial_bound = SimDuration::from_micros(!delta);
                if s.config.epoch_length > 0 {
                    s.config.epoch_length = epoch_length;
                }
                s.config.cross_shard_ratio = cross;
                s.config.invalid_ratio = invalid;
                s.config.adversary.malicious_fraction = malicious;
                if let Some(traffic) = &mut s.config.traffic {
                    traffic.rate_tps = rate;
                }
            }
            let text = scenarios_to_toml(&scenarios);
            let parsed = scenarios_from_toml(&text)?;
            prop_assert_eq!(parsed.len(), scenarios.len());
            for (a, b) in scenarios.iter().zip(&parsed) {
                for key in &SCENARIO_KEYS {
                    let (written, read) = ((key.read)(a), (key.read)(b));
                    prop_assert!(
                        written == read,
                        "{}: {} = {written} read back as {read}",
                        a.name,
                        key.name
                    );
                }
                prop_assert_eq!(a.config.traffic, b.config.traffic);
                prop_assert_eq!(&a.faults, &b.faults);
                prop_assert_eq!(&a.net_faults, &b.net_faults);
            }
            prop_assert_eq!(scenarios_to_toml(&parsed), text);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The loader answers `Ok` or `Err`, and never panics, on a bit flip,
        /// a truncation or a duplicated line of the serialized registry.
        #[test]
        fn a_mutated_registry_never_panics_the_loader(
            mutation in 0u8..3,
            at in any::<u64>(),
            bit in 0u8..8,
        ) {
            let text = registry_toml();
            let mut bytes = text.as_bytes().to_vec();
            let at = (at % bytes.len() as u64) as usize;
            match mutation {
                0 => bytes[at] ^= 1 << bit,
                1 => bytes.truncate(at),
                _ => {
                    let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
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
