//! # cycledger-scenarios
//!
//! The declarative scenario subsystem: every paper claim as a named,
//! reproducible, CI-gated artifact.
//!
//! A [`Scenario`] bundles a full simulation setup — protocol parameters,
//! adversary mix, latency profile, workload shape, targeted fault
//! injections — with machine-checkable [`Invariant`]s (safety digests match
//! across worker counts, no honest node punished, censored cross-shard
//! transactions eventually apply, recovery fires for every injected leader
//! fault, the analysis crate's failure bound holds, …). The built-in
//! [`registry`], `scenarios/builtin.toml`, covers each adversarial behaviour
//! of §III-C plus mixed-adversary and scaling sweeps; it is read by the same
//! loader ([`toml_cfg`]) as the TOML files that add or override scenarios
//! without recompiling.
//!
//! The [`runner`] executes a scenario across its whole worker matrix
//! (checking the engine's determinism contract as it goes), evaluates the
//! invariants, and the `scenario-runner` binary turns the results into
//! canonical JSON reports diffed against the committed golden files under
//! `scenarios/golden/`.
//!
//! * [`spec`] — the `Scenario` data model and fault-injection targets.
//! * [`invariant`] — the invariant vocabulary and its checkers.
//! * [`registry`] — the built-in scenario matrix (`scenarios/builtin.toml`).
//! * [`runner`] — single-scenario execution and the parallel matrix runner.
//! * [`report`] — canonical JSON report rendering.
//! * [`toml_cfg`] — the TOML schema and its one loader (dependency-free).
//!
//! [`Scenario`]: spec::Scenario
//! [`Invariant`]: invariant::Invariant

#![warn(missing_docs)]

/// Implements `to_spec` and `from_spec` on the enum `$t` from one list of its
/// spec heads, the one place each head is spelled: a variant's spec string is
/// its head, then `:` and each parameter in the order listed (floats in their
/// shortest exact form). A string whose head is unknown, or whose parameters
/// are missing, malformed or one too many, is an error naming `$what`.
macro_rules! spec_heads {
    ($t:ident, $what:literal,
     $($head:literal => $variant:ident $(($($arg:ident),+))? $({ $($field:ident),+ })?,)+) => {
        impl $t {
            /// Canonical spec string (TOML schema + reports).
            pub fn to_spec(self) -> String {
                let (head, params): (&str, &[&dyn std::fmt::Debug]) = match &self {
                    $($t::$variant $(($($arg),+))? $({ $($field),+ })? =>
                        ($head, &[$($($arg),+)? $($($field),+)?]),)+
                };
                params.iter().fold(head.to_string(), |spec, p| format!("{spec}:{p:?}"))
            }

            /// Parses a canonical spec string.
            pub fn from_spec(s: &str) -> Result<$t, String> {
                let mut params = s.split(':');
                let head = params.next().unwrap_or_default();
                let mut next = || params.next()
                    .ok_or_else(|| format!(concat!($what, " {:?} needs a numeric parameter"), s));
                let bad = || format!(concat!("bad numeric parameter in ", $what, " {:?}"), s);
                let parsed = match head {
                    $($head => {
                        $($(let $arg = next()?.parse().map_err(|_| bad())?;)+)?
                        $($(let $field = next()?.parse().map_err(|_| bad())?;)+)?
                        $t::$variant $(($($arg),+))? $({ $($field),+ })?
                    })+
                    _ => return Err(format!(concat!("unknown ", $what, " {:?}"), s)),
                };
                match params.next() {
                    None => Ok(parsed),
                    Some(_) => Err(format!(concat!($what, " {:?} has a parameter too many"), s)),
                }
            }
        }
    };
}

pub mod invariant;
pub mod outcome;
pub mod registry;
pub mod report;
pub mod runner;
pub mod spec;
pub mod toml_cfg;

pub use invariant::{Invariant, InvariantResult};
pub use outcome::ScenarioOutcome;
pub use registry::builtin_scenarios;
pub use runner::{run_matrix, run_scenario, ScenarioRun};
pub use spec::{FaultInjection, FaultTarget, Scenario};
