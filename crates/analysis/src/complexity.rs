//! Asymptotic complexity predictions (Table II).
//!
//! Table II gives, for every protocol phase and every role, the expected
//! communication/computation and storage complexity as a function of `n` (total
//! nodes), `m` (committees) and `c` (committee size, `n = m·c`). The benchmark
//! harness measures the same quantities on the simulator and uses these
//! predictions to label and sanity-check the scaling shape (who grows with `c`,
//! who with `m²`, who with `n`).

use cycledger_net::metrics::Phase;

/// The three roles Table II distinguishes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RoleClass {
    /// Ordinary committee members.
    CommonMember,
    /// Leaders and partial-set members ("key members").
    KeyMember,
    /// Referee committee members.
    Referee,
}

impl RoleClass {
    /// All role classes in Table II column order.
    pub const ALL: [RoleClass; 3] = [
        RoleClass::CommonMember,
        RoleClass::KeyMember,
        RoleClass::Referee,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            RoleClass::CommonMember => "Common Members",
            RoleClass::KeyMember => "Leaders & Partial Set Members",
            RoleClass::Referee => "C_R Members",
        }
    }
}

/// System size parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SystemSize {
    /// Total nodes `n` (excluding the referee committee is a modelling detail
    /// the asymptotics ignore; the paper uses `n = m·c`).
    pub n: u64,
    /// Number of committees `m`.
    pub m: u64,
    /// Expected committee size `c`.
    pub c: u64,
}

impl SystemSize {
    /// Builds a size from `m` and `c` (`n = m·c`).
    pub fn from_committees(m: u64, c: u64) -> Self {
        SystemSize { n: m * c, m, c }
    }
}

/// An asymptotic prediction in "units" (message-slots or stored items); the
/// benches compare *ratios* of these across system sizes against measured
/// ratios, so the constant factor is irrelevant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// Predicted communication/computation cost.
    pub communication: f64,
    /// Predicted storage cost.
    pub storage: f64,
}

/// Table II: predicted complexity for `(phase, role)` at a given system size.
/// Phases that do not involve a role (marked "-" in the paper) predict zero.
pub fn table2_prediction(phase: Phase, role: RoleClass, size: SystemSize) -> Prediction {
    let n = size.n as f64;
    let m = size.m as f64;
    let c = size.c as f64;
    let p = |communication: f64, storage: f64| Prediction {
        communication,
        storage,
    };
    use Phase::*;
    use RoleClass::*;
    match (phase, role) {
        (CommitteeConfiguration, CommonMember) => p(c, c),
        (CommitteeConfiguration, KeyMember) => p(c * c, c * c),
        (CommitteeConfiguration, Referee) => p(0.0, 0.0),

        (SemiCommitmentExchange, CommonMember) => p(0.0, 0.0),
        (SemiCommitmentExchange, KeyMember) => p(c, m),
        (SemiCommitmentExchange, Referee) => p(m * m, m),

        (IntraCommitteeConsensus, CommonMember) => p(c, 1.0),
        (IntraCommitteeConsensus, KeyMember) => p(c, c),
        (IntraCommitteeConsensus, Referee) => p(n, n),

        (InterCommitteeConsensus, CommonMember) => p(m, 1.0),
        (InterCommitteeConsensus, KeyMember) => p(n, 1.0),
        (InterCommitteeConsensus, Referee) => p(n, n),

        // The paper's row charges a `ScoreList` instance — O(c) for a
        // member, a leader's forward — and the referee's O(n). Here the
        // scores follow from the V List intra consensus certified, whose rows
        // ride the intra forward: members and leaders send nothing, and the
        // referee still computes and stores one score per node.
        (ReputationUpdate, CommonMember) => p(0.0, 0.0),
        (ReputationUpdate, KeyMember) => p(0.0, 0.0),
        (ReputationUpdate, Referee) => p(n, n),

        (KeyMemberSelection, CommonMember) => p(0.0, 0.0),
        (KeyMemberSelection, KeyMember) => p(0.0, 0.0),
        (KeyMemberSelection, Referee) => p(n, n),

        (BlockGeneration, CommonMember) => p(m, c),
        (BlockGeneration, KeyMember) => p(n, c),
        (BlockGeneration, Referee) => p(m * n, n),

        // Recovery is not a Table II row; it is an occasional event whose cost is
        // O(c) inside the committee plus O(m) notification fan-out from C_R.
        (Recovery, CommonMember) => p(c, 1.0),
        (Recovery, KeyMember) => p(c, c),
        (Recovery, Referee) => p(m, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{build_table1, ComparisonParams, Protocol};

    #[test]
    fn system_size_from_committees() {
        let s = SystemSize::from_committees(10, 200);
        assert_eq!(s.n, 2000);
        assert_eq!(s.m, 10);
        assert_eq!(s.c, 200);
    }

    #[test]
    fn role_labels_distinct() {
        let labels: std::collections::HashSet<_> =
            RoleClass::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn referee_semi_commitment_scales_with_m_squared() {
        // Doubling the number of committees at fixed c should quadruple the
        // referee's semi-commitment communication (the O(m²) Table II entry).
        let small = table2_prediction(
            Phase::SemiCommitmentExchange,
            RoleClass::Referee,
            SystemSize::from_committees(8, 100),
        );
        let large = table2_prediction(
            Phase::SemiCommitmentExchange,
            RoleClass::Referee,
            SystemSize::from_committees(16, 100),
        );
        assert!((large.communication / small.communication - 4.0).abs() < 1e-9);
        assert!((large.storage / small.storage - 2.0).abs() < 1e-9);
    }

    #[test]
    fn common_member_costs_scale_with_c_not_n() {
        // For common members, intra-committee consensus cost depends on c only.
        let a = table2_prediction(
            Phase::IntraCommitteeConsensus,
            RoleClass::CommonMember,
            SystemSize::from_committees(8, 100),
        );
        let b = table2_prediction(
            Phase::IntraCommitteeConsensus,
            RoleClass::CommonMember,
            SystemSize::from_committees(32, 100),
        );
        assert_eq!(
            a, b,
            "growing m at fixed c must not change a common member's cost"
        );
    }

    #[test]
    fn block_generation_dominates_for_referee() {
        let s = SystemSize::from_committees(16, 120);
        let bg = table2_prediction(Phase::BlockGeneration, RoleClass::Referee, s);
        for phase in Phase::ALL {
            let p = table2_prediction(phase, RoleClass::Referee, s);
            assert!(bg.communication >= p.communication, "{phase:?}");
        }
    }

    #[test]
    fn zero_rows_match_paper_dashes() {
        let s = SystemSize::from_committees(8, 64);
        assert_eq!(
            table2_prediction(Phase::CommitteeConfiguration, RoleClass::Referee, s),
            Prediction {
                communication: 0.0,
                storage: 0.0
            }
        );
        assert_eq!(
            table2_prediction(Phase::SemiCommitmentExchange, RoleClass::CommonMember, s),
            Prediction {
                communication: 0.0,
                storage: 0.0
            }
        );
        assert_eq!(
            table2_prediction(Phase::KeyMemberSelection, RoleClass::CommonMember, s),
            Prediction {
                communication: 0.0,
                storage: 0.0
            }
        );
    }

    #[test]
    fn reputation_update_costs_the_referee_alone() {
        let s = SystemSize::from_committees(8, 64);
        let at = |role| table2_prediction(Phase::ReputationUpdate, role, s);
        assert_eq!(at(RoleClass::CommonMember), at(RoleClass::KeyMember));
        assert_eq!(at(RoleClass::KeyMember).communication, 0.0);
        assert_eq!(at(RoleClass::KeyMember).storage, 0.0);
        assert_eq!(at(RoleClass::Referee).communication, s.n as f64);
    }

    #[test]
    fn table1_storage_shapes() {
        // CycLedger's per-node storage O(m²/n + c) is far below Elastico's O(n)
        // and close to RapidChain's O(c) for realistic parameters.
        let rows = build_table1(&ComparisonParams {
            n: 2000,
            m: 10,
            c: 200,
            lambda: 40,
        });
        let get = |p: Protocol| rows.iter().find(|r| r.protocol == p).unwrap();
        let storage = |p: Protocol| get(p).storage_items;
        assert!(storage(Protocol::CycLedger) < storage(Protocol::Elastico) / 2.0);
        assert!(storage(Protocol::CycLedger) < 2.0 * storage(Protocol::RapidChain));
        assert!(storage(Protocol::OmniLedger) >= storage(Protocol::RapidChain));
        // All protocols have Θ(n) communication complexity.
        assert!(Protocol::ALL
            .iter()
            .all(|&p| get(p).complexity_units_of_n == 1.0));
    }
}
