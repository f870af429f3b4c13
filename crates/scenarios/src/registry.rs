//! The built-in scenario matrix: `scenarios/builtin.toml`, one named,
//! invariant-gated configuration per adversarial behaviour of §III-C plus the
//! workload, scaling, network-fault, epoch, traffic and authenticated-state
//! families. It is read by the loader every `--scenario-dir` file goes
//! through ([`crate::toml_cfg`]). `scenario-runner --list` prints the matrix;
//! the README maps each entry to its paper claim. [`in_matrix`] is the one
//! rule for which scenarios run without being named.

use crate::spec::Scenario;
use crate::toml_cfg::scenarios_from_toml;

/// The built-in matrix, parsed from `scenarios/builtin.toml`.
pub fn builtin_scenarios() -> Vec<Scenario> {
    scenarios_from_toml(include_str!("../../../scenarios/builtin.toml"))
        .expect("scenarios/builtin.toml loads")
}

/// Whether `scenario` runs in every matrix — the `scenario_matrix` test's and
/// `scenario-runner`'s default — rather than by name only: a scenario of more
/// than 1000 rounds (the 10 000-round soak) runs only when named.
pub fn in_matrix(scenario: &Scenario) -> bool {
    scenario.rounds <= 1000
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::Invariant;
    use cycledger_protocol::adversary::{Behavior, BehaviorMix};
    use std::collections::HashSet;

    #[test]
    fn at_least_twelve_builtins_all_valid_with_unique_names() {
        let scenarios = builtin_scenarios();
        assert!(scenarios.len() >= 12, "only {} builtins", scenarios.len());
        let names: HashSet<_> = scenarios.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), scenarios.len(), "duplicate scenario names");
        for s in &scenarios {
            assert_eq!(s.validate(), Ok(()), "{}", s.name);
            assert!(!s.description.is_empty(), "{} has no description", s.name);
            assert!(!s.paper_claim.is_empty(), "{} has no paper claim", s.name);
        }
    }

    #[test]
    fn every_behavior_variant_is_covered_with_an_invariant() {
        let scenarios = builtin_scenarios();
        let mut covered: HashSet<Behavior> = HashSet::new();
        for s in &scenarios {
            assert!(!s.invariants.is_empty());
            for f in &s.faults {
                covered.insert(f.behavior);
            }
            match s.config.adversary.mix {
                BehaviorMix::Fixed(b) => {
                    if s.config.adversary.malicious_fraction > 0.0 {
                        covered.insert(b);
                    }
                }
                BehaviorMix::Uniform => {
                    // Uniform draws over all malicious behaviours.
                    covered.extend([
                        Behavior::SilentLeader,
                        Behavior::EquivocatingLeader,
                        Behavior::MismatchedCommitment,
                        Behavior::CensoringLeader,
                        Behavior::WrongVoter,
                        Behavior::LazyVoter,
                        Behavior::FalseAccuser,
                    ]);
                }
            }
        }
        covered.insert(Behavior::Honest); // the baseline scenario
        assert_eq!(covered.len(), 8, "uncovered behaviours remain");
        // Beyond mix coverage, every leader fault has a *dedicated* scenario
        // with a targeted injection.
        for behavior in [
            Behavior::SilentLeader,
            Behavior::EquivocatingLeader,
            Behavior::MismatchedCommitment,
            Behavior::CensoringLeader,
        ] {
            assert!(
                scenarios
                    .iter()
                    .any(|s| s.faults.iter().any(|f| f.behavior == behavior)),
                "{behavior:?} has no targeted scenario"
            );
        }
    }

    #[test]
    fn traffic_family_is_open_loop_with_slos() {
        let scenarios = builtin_scenarios();
        let traffic: Vec<_> = scenarios
            .iter()
            .filter(|s| s.config.traffic.is_some())
            .collect();
        assert!(traffic.len() >= 4, "traffic family too thin");
        for s in &traffic {
            assert!(
                s.invariants.iter().any(|i| matches!(
                    i,
                    Invariant::MaxP99Latency(_) | Invariant::MinSustainedTps(_)
                )),
                "{}: open-loop scenario asserts no traffic SLO",
                s.name
            );
        }
        // SLO invariants only make sense with an open-loop driver attached;
        // `Scenario::validate` enforces this, the registry must respect it.
        for s in &scenarios {
            if s.config.traffic.is_none() {
                assert!(
                    !s.invariants.iter().any(|i| matches!(
                        i,
                        Invariant::MaxP99Latency(_) | Invariant::MinSustainedTps(_)
                    )),
                    "{}: traffic SLO on a closed-loop scenario",
                    s.name
                );
            }
        }
        // A scenario the matrix leaves out (the soak) runs one worker.
        for s in &scenarios {
            if !in_matrix(s) {
                assert_eq!(
                    s.workers,
                    vec![1],
                    "{}: long scenarios run one worker",
                    s.name
                );
            }
        }
    }

    /// CI runs the matrix by default and names only what it leaves out:
    /// every built-in that a `--scenario NAME` in `ci.yml` names is outside
    /// the matrix, and every built-in outside it is named there once.
    #[test]
    fn ci_names_exactly_the_builtins_outside_the_matrix() {
        let ci = include_str!("../../../.github/workflows/ci.yml");
        let words: Vec<&str> = ci.split_whitespace().collect();
        let named: Vec<&str> = words
            .windows(2)
            .filter(|pair| pair[0] == "--scenario")
            .map(|pair| pair[1])
            .collect();
        let builtins = builtin_scenarios();
        for name in &named {
            if let Some(s) = builtins.iter().find(|s| s.name == *name) {
                assert!(!in_matrix(s), "ci.yml names {name}, which the matrix runs");
            }
        }
        for s in builtins.iter().filter(|s| !in_matrix(s)) {
            let times = named.iter().filter(|name| **name == s.name).count();
            assert_eq!(times, 1, "ci.yml runs {} by name {times} times", s.name);
        }
    }

    /// The README's "Built-in matrix → paper claims" table names every
    /// builtin once, in `builtin.toml`'s order (a row such as
    /// `scaling-4x12` / `scaling-8x8` names two).
    #[test]
    fn the_readme_table_names_the_builtins_in_order() {
        let readme = include_str!("../../../README.md");
        let (_, table) = readme
            .split_once("### Built-in matrix → paper claims\n")
            .expect("the README has the built-in matrix table");
        let named: Vec<&str> = table
            .lines()
            .skip_while(|line| !line.starts_with('|'))
            .take_while(|line| line.starts_with('|'))
            .filter_map(|row| row.split('|').nth(1))
            .flat_map(|cell| cell.split('`').skip(1).step_by(2))
            .collect();
        let builtins: Vec<String> = builtin_scenarios().into_iter().map(|s| s.name).collect();
        assert_eq!(named, builtins);
    }
}
