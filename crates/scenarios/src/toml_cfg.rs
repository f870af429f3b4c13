//! Loading and saving scenarios as TOML, with no external dependencies.
//!
//! The workspace is fully offline, so this module implements the small TOML
//! subset the scenario schema needs: `[[scenario]]` array-of-table headers
//! (plus `[[scenario.faults]]` sub-tables), `key = value` pairs with
//! strings, integers, floats, booleans and single-line arrays, and `#`
//! comments. Unknown keys are rejected — a typo in a scenario file should
//! fail loudly, not silently fall back to a default.
//!
//! The serializer writes every field in a fixed order, and
//! `parse(serialize(s))` reproduces `s` exactly — pinned by the round-trip
//! tests in `tests/scenario_matrix.rs`.

use cycledger_net::latency::LatencyConfig;
use cycledger_net::time::SimDuration;
use cycledger_protocol::adversary::Behavior;
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
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A single-line array.
    Array(Vec<Value>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }

    fn as_str(&self) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(format!("expected a string, got {}", other.type_name())),
        }
    }

    fn as_usize(&self) -> Result<usize, String> {
        match self {
            Value::Int(i) if *i >= 0 => Ok(*i as usize),
            other => Err(format!(
                "expected a non-negative integer, got {}",
                other.type_name()
            )),
        }
    }

    fn as_u64(&self) -> Result<u64, String> {
        match self {
            Value::Int(i) if *i >= 0 => Ok(*i as u64),
            other => Err(format!(
                "expected a non-negative integer, got {}",
                other.type_name()
            )),
        }
    }

    fn as_u32(&self) -> Result<u32, String> {
        let v = self.as_u64()?;
        u32::try_from(v).map_err(|_| format!("{v} does not fit in 32 bits"))
    }

    fn as_f64(&self) -> Result<f64, String> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(format!("expected a number, got {}", other.type_name())),
        }
    }

    fn as_bool(&self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("expected a boolean, got {}", other.type_name())),
        }
    }
}

/// One `[header]` / `[[header]]` section with its key/value pairs.
#[derive(Clone, Debug)]
struct Section {
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
    s.parse::<i64>()
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
/// header are rejected — the scenario schema has none). Arrays may span
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
        if let Some(header) = line
            .strip_prefix("[[")
            .and_then(|h| h.strip_suffix("]]"))
            .or_else(|| line.strip_prefix('[').and_then(|h| h.strip_suffix(']')))
        {
            sections.push(Section {
                header: header.trim().to_string(),
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

fn apply_scenario_key(scenario: &mut Scenario, key: &str, value: &Value) -> Result<(), String> {
    match key {
        "name" => scenario.name = value.as_str()?.to_string(),
        "description" => scenario.description = value.as_str()?.to_string(),
        "paper_claim" => scenario.paper_claim = value.as_str()?.to_string(),
        "rounds" => scenario.rounds = value.as_usize()?,
        "smoke" => scenario.smoke = value.as_bool()?,
        "workers" => {
            let Value::Array(items) = value else {
                return Err("workers must be an array of integers".into());
            };
            scenario.workers = items
                .iter()
                .map(|v| v.as_usize())
                .collect::<Result<Vec<_>, _>>()?;
        }
        "seed" => scenario.config.seed = value.as_u64()?,
        "committees" => scenario.config.committees = value.as_usize()?,
        "committee_size" => scenario.config.committee_size = value.as_usize()?,
        "partial_set_size" => scenario.config.partial_set_size = value.as_usize()?,
        "referee_size" => scenario.config.referee_size = value.as_usize()?,
        "txs_per_round" => scenario.config.txs_per_round = value.as_usize()?,
        "cross_shard_ratio" => scenario.config.cross_shard_ratio = value.as_f64()?,
        "invalid_ratio" => scenario.config.invalid_ratio = value.as_f64()?,
        "accounts_per_shard" => scenario.config.accounts_per_shard = value.as_usize()?,
        "pow_difficulty" => scenario.config.pow_difficulty = value.as_u32()?,
        "base_compute_capacity" => scenario.config.base_compute_capacity = value.as_u32()?,
        "compute_capacity_spread" => scenario.config.compute_capacity_spread = value.as_u32()?,
        "leader_bonus" => scenario.config.leader_bonus = value.as_f64()?,
        "latency_delta_us" => {
            scenario.config.latency.delta = SimDuration::from_micros(value.as_u64()?)
        }
        "latency_gamma_us" => {
            scenario.config.latency.gamma = SimDuration::from_micros(value.as_u64()?)
        }
        "latency_partial_us" => {
            scenario.config.latency.partial_bound = SimDuration::from_micros(value.as_u64()?)
        }
        "state_backend" => {
            let name = value.as_str()?;
            scenario.config.state_backend = cycledger_ledger::StateBackend::from_name(name)
                .ok_or_else(|| format!("unknown state backend {name:?} (map or smt)"))?;
        }
        "message_driven" => scenario.config.message_driven = value.as_bool()?,
        "epoch_length" => scenario.config.epoch_length = value.as_u64()?,
        "joins_per_epoch" => scenario.config.joins_per_epoch = value.as_u32()?,
        "leaves_per_epoch" => scenario.config.leaves_per_epoch = value.as_u32()?,
        "malicious_fraction" => scenario.config.adversary.malicious_fraction = value.as_f64()?,
        "mix" => scenario.config.adversary.mix = mix_from_name(value.as_str()?)?,
        "invariants" => {
            let Value::Array(items) = value else {
                return Err("invariants must be an array of strings".into());
            };
            scenario.invariants = items
                .iter()
                .map(|v| Invariant::from_spec(v.as_str()?))
                .collect::<Result<Vec<_>, _>>()?;
        }
        other => return Err(format!("unknown scenario key {other:?}")),
    }
    Ok(())
}

fn fault_from_section(section: &Section) -> Result<FaultInjection, String> {
    let mut round: Option<u64> = None;
    let mut target: Option<FaultTarget> = None;
    let mut behavior: Option<Behavior> = None;
    for (key, value) in &section.entries {
        match key.as_str() {
            "round" => round = Some(value.as_u64()?),
            "target" => target = Some(FaultTarget::from_spec(value.as_str()?)?),
            "behavior" => behavior = Some(behavior_from_name(value.as_str()?)?),
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
            "from_round" => from_round = Some(value.as_u64()?),
            "until_round" => until_round = Some(value.as_u64()?),
            "kind" => kind = Some(value.as_str()?.to_string()),
            "committee" => committee = Some(value.as_usize()?),
            "count" => count = Some(value.as_usize()?),
            "target" => target = Some(FaultTarget::from_spec(value.as_str()?)?),
            "delay_us" => delay_us = Some(value.as_u64()?),
            "loss_ppm" => loss_ppm = Some(value.as_u32()?),
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
    let mut rate_seen = false;
    for (key, value) in &section.entries {
        match key.as_str() {
            "rate_tps" => {
                traffic.rate_tps = value.as_f64()?;
                rate_seen = true;
            }
            "shape" => {
                let name = value.as_str()?;
                traffic.shape = ArrivalShape::from_name(name)
                    .ok_or_else(|| format!("unknown arrival shape {name:?}"))?;
            }
            "warmup_rounds" => traffic.warmup_rounds = value.as_u64()?,
            other => return Err(format!("unknown traffic key {other:?}")),
        }
    }
    if !rate_seen {
        return Err("traffic needs rate_tps".into());
    }
    Ok(traffic)
}

/// Parses scenarios from a TOML document. Every `[[scenario]]` starts from
/// the library defaults ([`ProtocolConfig::default`] with an empty fault and
/// invariant list), so a file only states what differs.
pub fn scenarios_from_toml(text: &str) -> Result<Vec<Scenario>, String> {
    let sections = parse_sections(text)?;
    let mut scenarios: Vec<Scenario> = Vec::new();
    for section in &sections {
        match section.header.as_str() {
            "scenario" => {
                let mut scenario = Scenario::new("", ProtocolConfig::default());
                for (key, value) in &section.entries {
                    apply_scenario_key(&mut scenario, key, value)
                        .map_err(|e| format!("line {}: {e}", section.line))?;
                }
                scenarios.push(scenario);
            }
            "scenario.faults" => {
                let scenario = scenarios.last_mut().ok_or_else(|| {
                    format!(
                        "line {}: [[scenario.faults]] before any [[scenario]]",
                        section.line
                    )
                })?;
                // Errors name the table's index within its scenario so a
                // matrix failure is attributable to one concrete table.
                let index = scenario.faults.len();
                let fault = fault_from_section(section).map_err(|e| {
                    format!(
                        "line {}: [[scenario.faults]] #{index} of scenario {:?}: {e}",
                        section.line, scenario.name
                    )
                })?;
                scenario.faults.push(fault);
            }
            "scenario.net_faults" => {
                let scenario = scenarios.last_mut().ok_or_else(|| {
                    format!(
                        "line {}: [[scenario.net_faults]] before any [[scenario]]",
                        section.line
                    )
                })?;
                let index = scenario.net_faults.len();
                let fault = net_fault_from_section(section).map_err(|e| {
                    format!(
                        "line {}: [[scenario.net_faults]] #{index} of scenario {:?}: {e}",
                        section.line, scenario.name
                    )
                })?;
                scenario.net_faults.push(fault);
            }
            "scenario.traffic" => {
                let scenario = scenarios.last_mut().ok_or_else(|| {
                    format!(
                        "line {}: [scenario.traffic] before any [[scenario]]",
                        section.line
                    )
                })?;
                if scenario.config.traffic.is_some() {
                    return Err(format!(
                        "line {}: duplicate [scenario.traffic] block in scenario {:?}",
                        section.line, scenario.name
                    ));
                }
                let traffic = traffic_from_section(section).map_err(|e| {
                    format!(
                        "line {}: [scenario.traffic] of scenario {:?}: {e}",
                        section.line, scenario.name
                    )
                })?;
                scenario.config.traffic = Some(traffic);
            }
            other => {
                return Err(format!(
                    "line {}: unknown section [[{other}]] (expected [[scenario]], \
                     [[scenario.faults]], [[scenario.net_faults]] or [scenario.traffic])",
                    section.line
                ))
            }
        }
    }
    for scenario in &scenarios {
        scenario.validate()?;
    }
    Ok(scenarios)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out
}

/// Serializes scenarios to the canonical TOML form (every field, fixed
/// order; `parse(serialize(s))` reproduces `s` exactly).
pub fn scenarios_to_toml(scenarios: &[Scenario]) -> String {
    let mut out = String::new();
    for scenario in scenarios {
        let cfg: &ProtocolConfig = &scenario.config;
        let lat: &LatencyConfig = &cfg.latency;
        out.push_str("[[scenario]]\n");
        out.push_str(&format!("name = \"{}\"\n", escape(&scenario.name)));
        out.push_str(&format!(
            "description = \"{}\"\n",
            escape(&scenario.description)
        ));
        out.push_str(&format!(
            "paper_claim = \"{}\"\n",
            escape(&scenario.paper_claim)
        ));
        out.push_str(&format!("rounds = {}\n", scenario.rounds));
        out.push_str(&format!("smoke = {}\n", scenario.smoke));
        let workers: Vec<String> = scenario.workers.iter().map(|w| w.to_string()).collect();
        out.push_str(&format!("workers = [{}]\n", workers.join(", ")));
        out.push_str(&format!("seed = {}\n", cfg.seed));
        out.push_str(&format!("committees = {}\n", cfg.committees));
        out.push_str(&format!("committee_size = {}\n", cfg.committee_size));
        out.push_str(&format!("partial_set_size = {}\n", cfg.partial_set_size));
        out.push_str(&format!("referee_size = {}\n", cfg.referee_size));
        out.push_str(&format!("txs_per_round = {}\n", cfg.txs_per_round));
        out.push_str(&format!(
            "cross_shard_ratio = {:?}\n",
            cfg.cross_shard_ratio
        ));
        out.push_str(&format!("invalid_ratio = {:?}\n", cfg.invalid_ratio));
        out.push_str(&format!(
            "accounts_per_shard = {}\n",
            cfg.accounts_per_shard
        ));
        out.push_str(&format!("pow_difficulty = {}\n", cfg.pow_difficulty));
        out.push_str(&format!(
            "base_compute_capacity = {}\n",
            cfg.base_compute_capacity
        ));
        out.push_str(&format!(
            "compute_capacity_spread = {}\n",
            cfg.compute_capacity_spread
        ));
        out.push_str(&format!("leader_bonus = {:?}\n", cfg.leader_bonus));
        out.push_str(&format!("latency_delta_us = {}\n", lat.delta.as_micros()));
        out.push_str(&format!("latency_gamma_us = {}\n", lat.gamma.as_micros()));
        out.push_str(&format!(
            "latency_partial_us = {}\n",
            lat.partial_bound.as_micros()
        ));
        out.push_str(&format!(
            "state_backend = \"{}\"\n",
            cfg.state_backend.name()
        ));
        out.push_str(&format!("message_driven = {}\n", cfg.message_driven));
        out.push_str(&format!("epoch_length = {}\n", cfg.epoch_length));
        out.push_str(&format!("joins_per_epoch = {}\n", cfg.joins_per_epoch));
        out.push_str(&format!("leaves_per_epoch = {}\n", cfg.leaves_per_epoch));
        out.push_str(&format!(
            "malicious_fraction = {:?}\n",
            cfg.adversary.malicious_fraction
        ));
        out.push_str(&format!("mix = \"{}\"\n", mix_name(cfg.adversary.mix)));
        let invariants: Vec<String> = scenario
            .invariants
            .iter()
            .map(|i| format!("\"{}\"", escape(&i.to_spec())))
            .collect();
        out.push_str(&format!("invariants = [{}]\n", invariants.join(", ")));
        if let Some(traffic) = &cfg.traffic {
            out.push_str("\n[scenario.traffic]\n");
            out.push_str(&format!("rate_tps = {:?}\n", traffic.rate_tps));
            out.push_str(&format!("shape = \"{}\"\n", traffic.shape.name()));
            out.push_str(&format!("warmup_rounds = {}\n", traffic.warmup_rounds));
        }
        for fault in &scenario.faults {
            out.push_str("\n[[scenario.faults]]\n");
            out.push_str(&format!("round = {}\n", fault.round));
            out.push_str(&format!("target = \"{}\"\n", fault.target.to_spec()));
            out.push_str(&format!(
                "behavior = \"{}\"\n",
                behavior_name(fault.behavior)
            ));
        }
        for fault in &scenario.net_faults {
            out.push_str("\n[[scenario.net_faults]]\n");
            out.push_str(&format!("from_round = {}\n", fault.from_round));
            out.push_str(&format!("until_round = {}\n", fault.until_round));
            out.push_str(&format!("kind = \"{}\"\n", fault.kind.name()));
            match fault.kind {
                NetFaultKind::IsolateLeader { committee } => {
                    out.push_str(&format!("committee = {committee}\n"));
                }
                NetFaultKind::IsolateCommons { committee, count } => {
                    out.push_str(&format!("committee = {committee}\n"));
                    out.push_str(&format!("count = {count}\n"));
                }
                NetFaultKind::Delay { target, micros } => {
                    out.push_str(&format!("target = \"{}\"\n", target.to_spec()));
                    out.push_str(&format!("delay_us = {micros}\n"));
                }
                NetFaultKind::Loss { ppm } => {
                    out.push_str(&format!("loss_ppm = {ppm}\n"));
                }
                NetFaultKind::CrashStop { target } => {
                    out.push_str(&format!("target = \"{}\"\n", target.to_spec()));
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
}
