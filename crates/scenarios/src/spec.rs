//! The declarative [`Scenario`] specification.
//!
//! A scenario names one complete simulation setup — protocol parameters,
//! adversary mix, latency profile, workload shape, targeted fault
//! injections — plus the list of machine-checkable [`Invariant`]s the run
//! must satisfy. Scenarios are plain data: they can be built in code (the
//! [`crate::registry`] builtins), loaded from TOML files
//! ([`crate::toml_cfg`]), and executed by the [`crate::runner`].
//!
//! [`Invariant`]: crate::invariant::Invariant

use cycledger_ledger::StateBackend;
use cycledger_net::latency::LatencyConfig;
use cycledger_protocol::adversary::{Behavior, BehaviorMix};
use cycledger_protocol::config::ProtocolConfig;

use crate::invariant::Invariant;

/// Who a fault injection targets, resolved against the round assignment in
/// force when the injection fires (targets are positional, so the same spec
/// is reproducible for any seed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// The current leader of committee `k`.
    Leader(usize),
    /// The `i`-th partial-set member of committee `k`.
    PartialSetMember {
        /// Committee index.
        committee: usize,
        /// Index within the partial set.
        index: usize,
    },
    /// A node by global id.
    Node(u32),
    /// Every current committee leader.
    AllLeaders,
    /// Every current referee-committee member.
    AllReferees,
}

impl FaultTarget {
    /// Canonical string form (`leader:0`, `partial:1:0`, `node:12`,
    /// `all-leaders`, `all-referees`) used by the TOML schema.
    pub fn to_spec(self) -> String {
        match self {
            FaultTarget::Leader(k) => format!("leader:{k}"),
            FaultTarget::PartialSetMember { committee, index } => {
                format!("partial:{committee}:{index}")
            }
            FaultTarget::Node(id) => format!("node:{id}"),
            FaultTarget::AllLeaders => "all-leaders".into(),
            FaultTarget::AllReferees => "all-referees".into(),
        }
    }

    /// Parses the canonical string form.
    pub fn from_spec(s: &str) -> Result<FaultTarget, String> {
        let parts: Vec<&str> = s.split(':').collect();
        match parts.as_slice() {
            ["all-leaders"] => Ok(FaultTarget::AllLeaders),
            ["all-referees"] => Ok(FaultTarget::AllReferees),
            ["leader", k] => k
                .parse()
                .map(FaultTarget::Leader)
                .map_err(|_| format!("bad committee index in target {s:?}")),
            ["node", id] => id
                .parse()
                .map(FaultTarget::Node)
                .map_err(|_| format!("bad node id in target {s:?}")),
            ["partial", k, i] => {
                let committee = k
                    .parse()
                    .map_err(|_| format!("bad committee index in target {s:?}"))?;
                let index = i
                    .parse()
                    .map_err(|_| format!("bad partial-set index in target {s:?}"))?;
                Ok(FaultTarget::PartialSetMember { committee, index })
            }
            _ => Err(format!("unknown fault target {s:?}")),
        }
    }

    /// Checks that a positional target names a committee and a partial-set
    /// slot the configuration has (node ids are checked against the live
    /// registry when the target is resolved).
    fn check(self, config: &ProtocolConfig) -> Result<(), String> {
        match self {
            FaultTarget::Leader(committee) | FaultTarget::PartialSetMember { committee, .. }
                if committee >= config.committees =>
            {
                Err(format!("committee {committee} of {}", config.committees))
            }
            FaultTarget::PartialSetMember { index, .. } if index >= config.partial_set_size => Err(
                format!("partial-set slot {index} of {}", config.partial_set_size),
            ),
            _ => Ok(()),
        }
    }
}

/// One targeted behaviour flip, applied between rounds (corruption takes a
/// round to take effect in the paper's mildly adaptive model, so injections
/// never fire mid-round).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultInjection {
    /// The round before which the flip is applied (0 = before the first).
    pub round: u64,
    /// Who is flipped.
    pub target: FaultTarget,
    /// The behaviour assigned.
    pub behavior: Behavior,
}

/// What a network-fault injection does while active. Requires the scenario's
/// configuration to enable the message-driven data plane — the synchronous
/// path never consults the fault plan, so a net fault there would silently
/// do nothing (validation rejects that).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Sever the current leader of committee `k` from everyone (the node is
    /// re-resolved each round, so it follows recoveries and re-sortition).
    IsolateLeader {
        /// Committee index.
        committee: usize,
    },
    /// Sever the first `count` common (non-leader, non-partial-set) members
    /// of committee `k` from everyone.
    IsolateCommons {
        /// Committee index.
        committee: usize,
        /// Number of common members severed.
        count: usize,
    },
    /// Add a fixed extra delay to every message sent or received by the
    /// resolved target nodes (a delay attack: no message is lost, they just
    /// miss protocol deadlines).
    Delay {
        /// Positional target, re-resolved each round.
        target: FaultTarget,
        /// Extra delay in microseconds of virtual time.
        micros: u64,
    },
    /// Drop every message with the given probability (deterministically
    /// sampled), in parts per million.
    Loss {
        /// Drop probability in parts per million (1_000_000 = everything).
        ppm: u32,
    },
    /// Crash-stop the resolved target nodes for every active round: the
    /// nodes neither send nor receive anything while the injection holds
    /// (they restart when the window heals).
    CrashStop {
        /// Positional target, re-resolved each round.
        target: FaultTarget,
    },
    /// Sever every validator admitted after the initial registry (ids
    /// `total_nodes()` and up, including joiners that do not exist yet) from
    /// everyone. This is the handover attack: an epoch boundary's state-sync
    /// sessions run under the boundary round's fault plan, so isolating the
    /// future joiner ids keeps new members `Syncing` (abstaining) until the
    /// window heals. Requires epoch churn (`joins_per_epoch > 0`).
    IsolateJoiners,
}

impl NetFaultKind {
    /// Canonical kebab-case kind name (TOML schema + reports).
    pub fn name(&self) -> &'static str {
        match self {
            NetFaultKind::IsolateLeader { .. } => "isolate-leader",
            NetFaultKind::IsolateCommons { .. } => "isolate-commons",
            NetFaultKind::Delay { .. } => "delay",
            NetFaultKind::Loss { .. } => "loss",
            NetFaultKind::CrashStop { .. } => "crash-stop",
            NetFaultKind::IsolateJoiners => "isolate-joiners",
        }
    }
}

/// One scheduled network fault: active from `from_round` (inclusive) until
/// `until_round` (exclusive — the heal point). Partition/heal schedules,
/// delay attacks and loss windows are all expressed this way; the runner
/// re-resolves positional targets against the round's assignment and
/// installs the combined [`cycledger_net::faults::FaultPlan`] before each
/// round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetFaultInjection {
    /// First round the fault is active (inclusive).
    pub from_round: u64,
    /// Heal round (exclusive); rounds from here on run clean again.
    pub until_round: u64,
    /// What the fault does while active.
    pub kind: NetFaultKind,
}

impl NetFaultInjection {
    /// True while `round` falls inside the injection's window.
    pub fn active_at(&self, round: u64) -> bool {
        (self.from_round..self.until_round).contains(&round)
    }
}

/// Canonical kebab-case name of a behaviour (TOML schema + reports).
pub fn behavior_name(behavior: Behavior) -> &'static str {
    match behavior {
        Behavior::Honest => "honest",
        Behavior::SilentLeader => "silent-leader",
        Behavior::EquivocatingLeader => "equivocating-leader",
        Behavior::MismatchedCommitment => "mismatched-commitment",
        Behavior::CensoringLeader => "censoring-leader",
        Behavior::WrongVoter => "wrong-voter",
        Behavior::LazyVoter => "lazy-voter",
        Behavior::FalseAccuser => "false-accuser",
    }
}

/// Parses a kebab-case behaviour name.
pub fn behavior_from_name(name: &str) -> Result<Behavior, String> {
    Ok(match name {
        "honest" => Behavior::Honest,
        "silent-leader" => Behavior::SilentLeader,
        "equivocating-leader" => Behavior::EquivocatingLeader,
        "mismatched-commitment" => Behavior::MismatchedCommitment,
        "censoring-leader" => Behavior::CensoringLeader,
        "wrong-voter" => Behavior::WrongVoter,
        "lazy-voter" => Behavior::LazyVoter,
        "false-accuser" => Behavior::FalseAccuser,
        other => return Err(format!("unknown behaviour {other:?}")),
    })
}

/// Canonical string form of a behaviour mix (`honest`, `uniform`, or a
/// behaviour name for a fixed mix).
pub fn mix_name(mix: BehaviorMix) -> String {
    match mix {
        BehaviorMix::Uniform => "uniform".into(),
        BehaviorMix::Fixed(Behavior::Honest) => "honest".into(),
        BehaviorMix::Fixed(b) => behavior_name(b).into(),
    }
}

/// Parses the canonical mix form.
pub fn mix_from_name(name: &str) -> Result<BehaviorMix, String> {
    if name == "uniform" {
        return Ok(BehaviorMix::Uniform);
    }
    behavior_from_name(name).map(BehaviorMix::Fixed)
}

/// One named, reproducible, invariant-gated simulation configuration.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Unique name (also the report / golden file stem).
    pub name: String,
    /// Human-readable description of what the scenario exercises.
    pub description: String,
    /// The paper claim the scenario pins down (e.g. "Claim 3", "Lemma 6").
    pub paper_claim: String,
    /// Rounds to simulate.
    pub rounds: usize,
    /// Whether the scenario is part of the fast `smoke` matrix CI runs.
    pub smoke: bool,
    /// Worker counts the runner cross-checks digests over (first entry is the
    /// baseline whose summary feeds the report).
    pub workers: Vec<usize>,
    /// The full protocol configuration (adversary, latency, workload shape).
    pub config: ProtocolConfig,
    /// Targeted behaviour flips applied between rounds.
    pub faults: Vec<FaultInjection>,
    /// Scheduled network faults (partitions, delay attacks, loss windows);
    /// requires `config.message_driven`.
    pub net_faults: Vec<NetFaultInjection>,
    /// The machine-checkable claims the run must satisfy.
    pub invariants: Vec<Invariant>,
}

impl Scenario {
    /// A scenario skeleton around a configuration, with the default worker
    /// matrix `[1, 2, 8]` and three rounds.
    pub fn new(name: &str, config: ProtocolConfig) -> Scenario {
        Scenario {
            name: name.into(),
            description: String::new(),
            paper_claim: String::new(),
            rounds: 3,
            smoke: false,
            workers: vec![1, 2, 8],
            config,
            faults: Vec::new(),
            net_faults: Vec::new(),
            invariants: Vec::new(),
        }
    }

    /// Validates the scenario (configuration included).
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario name must not be empty".into());
        }
        if self
            .name
            .chars()
            .any(|c| !c.is_ascii_alphanumeric() && c != '-' && c != '_')
        {
            return Err(format!(
                "scenario name {:?} must be alphanumeric/dash/underscore (it becomes a file name)",
                self.name
            ));
        }
        if self.rounds == 0 {
            return Err(format!(
                "scenario {:?} must run at least one round",
                self.name
            ));
        }
        if self.workers.is_empty() {
            return Err(format!(
                "scenario {:?} needs at least one worker count",
                self.name
            ));
        }
        if self.invariants.is_empty() {
            return Err(format!(
                "scenario {:?} must assert at least one invariant",
                self.name
            ));
        }
        let check_target = |what: &str, target: FaultTarget| {
            target.check(&self.config).map_err(|e| {
                format!(
                    "scenario {:?}: {what} target {:?} names {e}",
                    self.name,
                    target.to_spec()
                )
            })
        };
        for fault in &self.faults {
            if fault.round >= self.rounds as u64 {
                return Err(format!(
                    "scenario {:?}: fault at round {} beyond the {}-round run",
                    self.name, fault.round, self.rounds
                ));
            }
            check_target("fault", fault.target)?;
        }
        if !self.net_faults.is_empty() && !self.config.message_driven {
            return Err(format!(
                "scenario {:?} schedules network faults but message_driven is off \
                 (the synchronous path never consults the fault plan)",
                self.name
            ));
        }
        for nf in &self.net_faults {
            if nf.from_round >= nf.until_round {
                return Err(format!(
                    "scenario {:?}: net fault window [{}, {}) is empty",
                    self.name, nf.from_round, nf.until_round
                ));
            }
            if nf.from_round >= self.rounds as u64 {
                return Err(format!(
                    "scenario {:?}: net fault starts at round {} beyond the {}-round run",
                    self.name, nf.from_round, self.rounds
                ));
            }
            match nf.kind {
                NetFaultKind::IsolateLeader { committee }
                | NetFaultKind::IsolateCommons { committee, .. }
                    if committee >= self.config.committees =>
                {
                    return Err(format!(
                        "scenario {:?}: net fault targets committee {committee} of {}",
                        self.name, self.config.committees
                    ));
                }
                NetFaultKind::IsolateCommons { count: 0, .. } => {
                    return Err(format!(
                        "scenario {:?}: isolate-commons must sever at least one member",
                        self.name
                    ));
                }
                NetFaultKind::Delay { micros: 0, .. } => {
                    return Err(format!(
                        "scenario {:?}: a delay fault needs a nonzero delay",
                        self.name
                    ));
                }
                NetFaultKind::Loss { ppm } if ppm == 0 || ppm > 1_000_000 => {
                    return Err(format!(
                        "scenario {:?}: loss ppm must lie in [1, 1_000_000]",
                        self.name
                    ));
                }
                NetFaultKind::Delay { target, .. } | NetFaultKind::CrashStop { target } => {
                    check_target(nf.kind.name(), target)?
                }
                NetFaultKind::IsolateJoiners if self.config.joins_per_epoch == 0 => {
                    return Err(format!(
                        "scenario {:?}: isolate-joiners needs epoch churn \
                         (joins_per_epoch > 0), or there is nobody to isolate",
                        self.name
                    ));
                }
                _ => {}
            }
        }
        if self.config.traffic.is_none() {
            for inv in &self.invariants {
                if matches!(
                    inv,
                    Invariant::MaxP99Latency(_)
                        | Invariant::MinSustainedTps(_)
                        | Invariant::ConfirmedEqualsPacked
                ) {
                    return Err(format!(
                        "scenario {:?} asserts the traffic invariant {} but has no \
                         [scenario.traffic] block (a closed-loop run tracks no \
                         confirmations to gate)",
                        self.name,
                        inv.to_spec()
                    ));
                }
            }
        }
        if self.config.state_backend != StateBackend::Smt {
            for inv in &self.invariants {
                if matches!(
                    inv,
                    Invariant::StateRootsEveryRound | Invariant::LightClientProofsVerify(_)
                ) {
                    return Err(format!(
                        "scenario {:?} asserts the authenticated-state invariant {} but \
                         state_backend is \"map\" (only the smt backend publishes state \
                         roots to check)",
                        self.name,
                        inv.to_spec()
                    ));
                }
            }
        }
        self.config
            .validate()
            .map_err(|e| format!("scenario {:?}: {e}", self.name))
    }
}

/// A named latency profile for the TOML schema and the builtins; custom
/// `latency_*_us` keys override the profile field-by-field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatencyProfile {
    /// The default Δ=50ms / Γ=200ms / 1s profile.
    Default,
    /// A tight datacenter profile (Δ=5ms / Γ=20ms / 100ms).
    Lan,
    /// A stretched wide-area profile (Δ=150ms / Γ=600ms / 3s).
    Wan,
}

impl LatencyProfile {
    /// The concrete latency configuration of the profile.
    pub fn config(self) -> LatencyConfig {
        match self {
            LatencyProfile::Default => LatencyConfig::default(),
            LatencyProfile::Lan => LatencyConfig::lan(),
            LatencyProfile::Wan => LatencyConfig::wan(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_target_specs_round_trip() {
        let targets = [
            FaultTarget::Leader(3),
            FaultTarget::PartialSetMember {
                committee: 1,
                index: 2,
            },
            FaultTarget::Node(17),
            FaultTarget::AllLeaders,
            FaultTarget::AllReferees,
        ];
        for t in targets {
            assert_eq!(FaultTarget::from_spec(&t.to_spec()), Ok(t));
        }
        assert!(FaultTarget::from_spec("chief:0").is_err());
        assert!(FaultTarget::from_spec("leader:x").is_err());
    }

    #[test]
    fn behavior_names_round_trip() {
        for b in [
            Behavior::Honest,
            Behavior::SilentLeader,
            Behavior::EquivocatingLeader,
            Behavior::MismatchedCommitment,
            Behavior::CensoringLeader,
            Behavior::WrongVoter,
            Behavior::LazyVoter,
            Behavior::FalseAccuser,
        ] {
            assert_eq!(behavior_from_name(behavior_name(b)), Ok(b));
        }
        assert!(behavior_from_name("sleepy-leader").is_err());
        assert_eq!(mix_from_name("uniform"), Ok(BehaviorMix::Uniform));
        assert_eq!(
            mix_from_name(&mix_name(BehaviorMix::Fixed(Behavior::LazyVoter))),
            Ok(BehaviorMix::Fixed(Behavior::LazyVoter))
        );
    }

    #[test]
    fn validation_rejects_bad_scenarios() {
        let base = crate::registry::builtin_scenarios();
        let good = &base[0];
        assert_eq!(good.validate(), Ok(()));

        let mut unnamed = good.clone();
        unnamed.name.clear();
        assert!(unnamed.validate().is_err());

        let mut weird_name = good.clone();
        weird_name.name = "has/slash".into();
        assert!(weird_name.validate().is_err());

        let mut no_rounds = good.clone();
        no_rounds.rounds = 0;
        assert!(no_rounds.validate().is_err());

        let mut no_invariants = good.clone();
        no_invariants.invariants.clear();
        assert!(no_invariants.validate().is_err());

        let mut late_fault = good.clone();
        late_fault.faults.push(FaultInjection {
            round: 99,
            target: FaultTarget::Leader(0),
            behavior: Behavior::SilentLeader,
        });
        assert!(late_fault.validate().is_err());

        let mut bad_committee = good.clone();
        bad_committee.faults.push(FaultInjection {
            round: 0,
            target: FaultTarget::Leader(99),
            behavior: Behavior::SilentLeader,
        });
        assert!(bad_committee.validate().is_err());

        // Traffic invariants on a closed-loop scenario gate nothing.
        for inv in [
            Invariant::MaxP99Latency(24.0),
            Invariant::ConfirmedEqualsPacked,
        ] {
            let mut without_traffic = good.clone();
            without_traffic.config.traffic = None;
            without_traffic.invariants.push(inv);
            assert!(without_traffic.validate().unwrap_err().contains("traffic"));
        }

        // Authenticated-state invariants on the map backend check nothing.
        for inv in [
            Invariant::StateRootsEveryRound,
            Invariant::LightClientProofsVerify(4),
        ] {
            let mut rootless = good.clone();
            rootless.config.state_backend = StateBackend::Map;
            rootless.invariants.push(inv);
            assert!(rootless.validate().unwrap_err().contains("state_backend"));
        }
    }

    #[test]
    fn net_fault_validation() {
        let base = crate::registry::builtin_scenarios()
            .into_iter()
            .find(|s| !s.net_faults.is_empty())
            .expect("a builtin net-fault scenario exists");
        assert_eq!(base.validate(), Ok(()));

        // Net faults without the message-driven plane are rejected (they
        // would silently do nothing).
        let mut sync = base.clone();
        sync.config.message_driven = false;
        assert!(sync.validate().unwrap_err().contains("message_driven"));

        let mut empty_window = base.clone();
        empty_window.net_faults.push(NetFaultInjection {
            from_round: 2,
            until_round: 2,
            kind: NetFaultKind::Loss { ppm: 1 },
        });
        assert!(empty_window.validate().is_err());

        let mut late = base.clone();
        late.net_faults.push(NetFaultInjection {
            from_round: 99,
            until_round: 100,
            kind: NetFaultKind::Loss { ppm: 1 },
        });
        assert!(late.validate().is_err());

        let mut bad_committee = base.clone();
        bad_committee.net_faults.push(NetFaultInjection {
            from_round: 0,
            until_round: 1,
            kind: NetFaultKind::IsolateLeader { committee: 99 },
        });
        assert!(bad_committee.validate().is_err());

        let mut zero_loss = base.clone();
        zero_loss.net_faults.push(NetFaultInjection {
            from_round: 0,
            until_round: 1,
            kind: NetFaultKind::Loss { ppm: 0 },
        });
        assert!(zero_loss.validate().is_err());

        let mut zero_delay = base.clone();
        zero_delay.net_faults.push(NetFaultInjection {
            from_round: 0,
            until_round: 1,
            kind: NetFaultKind::Delay {
                target: FaultTarget::Leader(0),
                micros: 0,
            },
        });
        assert!(zero_delay.validate().is_err());

        let mut crash_bad_committee = base.clone();
        crash_bad_committee.net_faults.push(NetFaultInjection {
            from_round: 0,
            until_round: 1,
            kind: NetFaultKind::CrashStop {
                target: FaultTarget::Leader(99),
            },
        });
        assert!(crash_bad_committee.validate().is_err());

        // Delay targets get the same bounds check; the error names the
        // scenario and the target.
        for target in [
            FaultTarget::Leader(99),
            FaultTarget::PartialSetMember {
                committee: 0,
                index: 99,
            },
        ] {
            let mut far_delay = base.clone();
            far_delay.net_faults.push(NetFaultInjection {
                from_round: 0,
                until_round: 1,
                kind: NetFaultKind::Delay { target, micros: 1 },
            });
            let err = far_delay.validate().unwrap_err();
            assert!(
                err.contains(&format!("{:?}", base.name)) && err.contains(&target.to_spec()),
                "{err}"
            );
        }

        // isolate-joiners without epoch churn has nobody to isolate.
        let mut no_churn = base.clone();
        no_churn.config.joins_per_epoch = 0;
        no_churn.net_faults.push(NetFaultInjection {
            from_round: 0,
            until_round: 1,
            kind: NetFaultKind::IsolateJoiners,
        });
        assert!(no_churn.validate().unwrap_err().contains("isolate-joiners"));
    }

    #[test]
    fn net_fault_windows() {
        let nf = NetFaultInjection {
            from_round: 1,
            until_round: 3,
            kind: NetFaultKind::IsolateCommons {
                committee: 0,
                count: 2,
            },
        };
        assert!(!nf.active_at(0));
        assert!(nf.active_at(1));
        assert!(nf.active_at(2));
        assert!(!nf.active_at(3), "the heal round runs clean");
        assert_eq!(nf.kind.name(), "isolate-commons");
    }

    #[test]
    fn latency_profiles_are_ordered() {
        for profile in [
            LatencyProfile::Lan,
            LatencyProfile::Default,
            LatencyProfile::Wan,
        ] {
            let cfg = profile.config();
            assert!(cfg.delta < cfg.gamma);
            assert!(cfg.gamma < cfg.partial_bound);
        }
    }
}
