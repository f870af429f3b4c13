//! The built-in scenario matrix: `scenarios/builtin.toml`, one named,
//! invariant-gated configuration per adversarial behaviour of §III-C plus the
//! workload, scaling, network-fault, epoch, traffic and authenticated-state
//! families. It is read by the loader every `--scenario-dir` file goes
//! through ([`crate::toml_cfg`]). `scenario-runner --list` prints the matrix;
//! the README maps each entry to its paper claim.

use crate::spec::Scenario;
use crate::toml_cfg::scenarios_from_toml;

/// The built-in matrix, parsed from `scenarios/builtin.toml`.
pub fn builtin_scenarios() -> Vec<Scenario> {
    scenarios_from_toml(include_str!("../../../scenarios/builtin.toml"))
        .expect("scenarios/builtin.toml loads")
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
        // The soak is the only long scenario, and it opts out of the debug
        // matrix via the `rounds > 1000` exemption plus a single-worker list.
        for s in &scenarios {
            if s.rounds > 1000 {
                assert!(!s.smoke, "{}: long scenarios cannot be smoke", s.name);
                assert_eq!(
                    s.workers,
                    vec![1],
                    "{}: long scenarios run one worker",
                    s.name
                );
            }
        }
    }

    #[test]
    fn smoke_subset_is_marked() {
        let smoke = builtin_scenarios().into_iter().filter(|s| s.smoke);
        let smoke: Vec<String> = smoke.map(|s| s.name).collect();
        assert!(smoke.len() >= 8, "smoke matrix too thin: {smoke:?}");
        assert!(smoke.contains(&"honest-baseline".to_string()));
        assert!(smoke.contains(&"mixed-adversary".to_string()));
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
