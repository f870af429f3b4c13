//! Qualitative and quantitative protocol profiles behind Table I.
//!
//! For each comparison protocol (Elastico, OmniLedger, RapidChain) and for
//! CycLedger itself, this module produces the row of Table I: resiliency,
//! communication complexity, per-node storage, per-round failure probability,
//! decentralization assumption, dishonest-leader efficiency, incentives, and
//! connection burden. The failure probabilities come from [`crate::failure`];
//! storage uses the closed forms the respective papers report, and the channel
//! counts are [`RoundTopology`]'s.

use cycledger_net::topology::RoundTopology;

use crate::failure;

/// The protocols compared in Table I.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Protocol {
    /// Elastico (Luu et al., CCS 2016).
    Elastico,
    /// OmniLedger (Kokoris-Kogias et al., S&P 2018).
    OmniLedger,
    /// RapidChain (Zamani et al., CCS 2018).
    RapidChain,
    /// CycLedger (this paper).
    CycLedger,
}

impl Protocol {
    /// All compared protocols in Table I column order.
    pub const ALL: [Protocol; 4] = [
        Protocol::Elastico,
        Protocol::OmniLedger,
        Protocol::RapidChain,
        Protocol::CycLedger,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Elastico => "Elastico",
            Protocol::OmniLedger => "OmniLedger",
            Protocol::RapidChain => "RapidChain",
            Protocol::CycLedger => "CycLedger",
        }
    }
}

/// System parameters shared by all rows of the comparison.
#[derive(Clone, Copy, Debug)]
pub struct ComparisonParams {
    /// Total nodes `n`.
    pub n: u64,
    /// Committees `m`.
    pub m: u64,
    /// Committee size `c` (`n = m·c`).
    pub c: u64,
    /// Partial-set size λ (CycLedger only).
    pub lambda: u32,
}

impl ComparisonParams {
    /// The paper's running example: 2000 nodes, committees of ~200.
    pub fn paper_default() -> Self {
        ComparisonParams {
            n: 2000,
            m: 10,
            c: 200,
            lambda: 40,
        }
    }
}

/// One row of Table I.
#[derive(Clone, Debug)]
pub struct ProtocolProfile {
    /// Which protocol.
    pub protocol: Protocol,
    /// Maximum tolerated fraction of malicious nodes (resiliency `t < f·n`).
    pub resiliency: f64,
    /// Per-transaction communication complexity in units of `n` (all are Θ(n)).
    pub complexity_units_of_n: f64,
    /// Per-node storage in "items" for the given parameters.
    pub storage_items: f64,
    /// Per-round failure probability for the given parameters.
    pub round_failure: f64,
    /// The trust assumption required for decentralization.
    pub decentralization: &'static str,
    /// Whether the protocol keeps high efficiency when committee leaders are
    /// dishonest.
    pub efficient_with_dishonest_leaders: bool,
    /// Whether the protocol has an explicit incentive mechanism.
    pub incentives: bool,
    /// Number of reliable connection channels the protocol's network model
    /// requires ("burden on connection").
    pub connection_channels: u64,
    /// Qualitative burden label as printed in Table I.
    pub connection_burden: &'static str,
}

/// Builds one protocol's Table I row.
pub fn profile(protocol: Protocol, params: &ComparisonParams) -> ProtocolProfile {
    let ComparisonParams { n, m, c, lambda } = *params;
    let full_clique = RoundTopology::full_clique_channels(n as usize) as u64;
    match protocol {
        Protocol::Elastico => ProtocolProfile {
            protocol,
            resiliency: 0.25,
            complexity_units_of_n: 1.0,
            storage_items: n as f64,
            round_failure: failure::quarter_resilient_round_failure(m, c),
            decentralization: "no always-honest party",
            efficient_with_dishonest_leaders: false,
            incentives: false,
            connection_channels: full_clique,
            connection_burden: "heavy",
        },
        Protocol::OmniLedger => ProtocolProfile {
            protocol,
            resiliency: 0.25,
            complexity_units_of_n: 1.0,
            storage_items: c as f64 + (m as f64).log2().max(0.0),
            round_failure: failure::quarter_resilient_round_failure(m, c),
            decentralization: "an honest client",
            efficient_with_dishonest_leaders: false,
            incentives: false,
            connection_channels: full_clique,
            connection_burden: "heavy",
        },
        Protocol::RapidChain => ProtocolProfile {
            protocol,
            resiliency: 1.0 / 3.0,
            complexity_units_of_n: 1.0,
            storage_items: c as f64,
            round_failure: failure::rapidchain_round_failure(m, c),
            decentralization: "an honest reference committee",
            efficient_with_dishonest_leaders: false,
            incentives: false,
            connection_channels: full_clique,
            connection_burden: "heavy",
        },
        Protocol::CycLedger => ProtocolProfile {
            protocol,
            resiliency: 1.0 / 3.0,
            complexity_units_of_n: 1.0,
            storage_items: (m * m) as f64 / n as f64 + c as f64,
            round_failure: failure::cycledger_round_failure(m, c, lambda),
            decentralization: "no always-honest party",
            efficient_with_dishonest_leaders: true,
            incentives: true,
            // m committees of c, and a referee committee of c.
            connection_channels: RoundTopology::cycledger_channels(
                std::iter::repeat_n(c as usize, m as usize),
                lambda as usize,
                c as usize,
            ) as u64,
            connection_burden: "light",
        },
    }
}

/// Builds all four Table I rows for one parameter set.
pub fn build_table1(params: &ComparisonParams) -> Vec<ProtocolProfile> {
    Protocol::ALL.iter().map(|&p| profile(p, params)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycledger_net::topology::NodeId;
    use cycledger_protocol::{CommitteeAssignment, RoundAssignment};

    #[test]
    fn table_rows_match_paper_qualitative_claims() {
        let rows = build_table1(&ComparisonParams::paper_default());
        assert_eq!(rows.len(), 4);
        let get = |p: Protocol| rows.iter().find(|r| r.protocol == p).unwrap();
        // Resiliency: Elastico/OmniLedger 1/4, RapidChain/CycLedger 1/3.
        assert_eq!(get(Protocol::Elastico).resiliency, 0.25);
        assert!((get(Protocol::CycLedger).resiliency - 1.0 / 3.0).abs() < 1e-12);
        // Only CycLedger is efficient with dishonest leaders and has incentives.
        for p in [
            Protocol::Elastico,
            Protocol::OmniLedger,
            Protocol::RapidChain,
        ] {
            assert!(!get(p).efficient_with_dishonest_leaders);
            assert!(!get(p).incentives);
            assert_eq!(get(p).connection_burden, "heavy");
        }
        assert!(get(Protocol::CycLedger).efficient_with_dishonest_leaders);
        assert!(get(Protocol::CycLedger).incentives);
        assert_eq!(get(Protocol::CycLedger).connection_burden, "light");
        // Decentralization strings match the paper's table.
        assert_eq!(
            get(Protocol::OmniLedger).decentralization,
            "an honest client"
        );
        assert_eq!(
            get(Protocol::RapidChain).decentralization,
            "an honest reference committee"
        );
    }

    #[test]
    fn storage_ordering_matches_table1() {
        let params = ComparisonParams::paper_default();
        let rows = build_table1(&params);
        let get = |p: Protocol| rows.iter().find(|r| r.protocol == p).unwrap().storage_items;
        // Elastico stores the whole state (O(n)); the others are committee-local.
        assert!(get(Protocol::Elastico) > get(Protocol::OmniLedger));
        assert!(get(Protocol::Elastico) > get(Protocol::CycLedger));
        // CycLedger is within a small constant of RapidChain's O(c).
        assert!(get(Protocol::CycLedger) < 1.5 * get(Protocol::RapidChain));
    }

    #[test]
    fn cycledger_needs_far_fewer_channels() {
        let params = ComparisonParams::paper_default();
        let rows = build_table1(&params);
        let cyc = rows
            .iter()
            .find(|r| r.protocol == Protocol::CycLedger)
            .unwrap();
        let rapid = rows
            .iter()
            .find(|r| r.protocol == Protocol::RapidChain)
            .unwrap();
        assert!(
            (cyc.connection_channels as f64) < 0.5 * rapid.connection_channels as f64,
            "CycLedger {} vs clique {}",
            cyc.connection_channels,
            rapid.connection_channels
        );
    }

    /// A round laid out by hand: the referee committee first, then each
    /// committee as a disjoint id range, leader first and the partial set
    /// next.
    fn assignment(sizes: &[usize], partial: usize, referee: usize) -> RoundAssignment {
        let mut next = referee as u32;
        let committees = sizes
            .iter()
            .enumerate()
            .map(|(index, &size)| {
                let members: Vec<NodeId> = (next..next + size as u32).map(NodeId).collect();
                next += size as u32;
                CommitteeAssignment {
                    index,
                    leader: members[0],
                    partial_set: members[1..size.min(1 + partial)].to_vec(),
                    members,
                }
            })
            .collect();
        RoundAssignment {
            round: 1,
            randomness: Default::default(),
            referee: (0..referee as u32).map(NodeId).collect(),
            committees,
        }
    }

    fn cycledger_row(m: usize, c: usize, lambda: usize) -> u64 {
        let params = ComparisonParams {
            n: (m * c) as u64,
            m: m as u64,
            c: c as u64,
            lambda: lambda as u32,
        };
        profile(Protocol::CycLedger, &params).connection_channels
    }

    #[test]
    fn cycledger_channels_count_each_pair_once() {
        // The row against the topology the round would build, which links
        // every pair into one set: m committees of c and a referee committee
        // of c, a partial set smaller than, equal to and larger than c − 1.
        for (m, c, lambda) in [(2, 4, 1), (3, 5, 2), (2, 3, 4), (4, 6, 5), (1, 7, 3)] {
            let round = assignment(&vec![c; m], lambda, c);
            let built = round.topology(c + m * c).channels.channel_count();
            assert_eq!(
                cycledger_row(m, c, lambda),
                built as u64,
                "m {m}, c {c}, λ {lambda}"
            );
        }
        // Table I's geometry: the key mesh less m·C(41, 2) = 8 200 pairs.
        assert_eq!(cycledger_row(10, 200, 40), 376_545);
    }

    #[test]
    fn one_channel_count_for_the_round_the_topology_and_table1() {
        // A round's reported count equals the topology it would build, at
        // uniform and at uneven committee sizes, and at uniform sizes equals
        // Table I's row too (whose referee committee is one of c).
        for (sizes, partial, referee) in [
            (vec![5, 5, 5], 2, 5),
            (vec![5, 5, 5], 2, 4),
            (vec![7, 2, 4, 1], 2, 4),
            (vec![6, 3, 9], 3, 2),
        ] {
            let round = assignment(&sizes, partial, referee);
            let nodes = referee + sizes.iter().sum::<usize>();
            let built = round.topology(nodes).channels.channel_count();
            assert_eq!(
                round.channel_count(),
                built,
                "{sizes:?}, λ {partial}, referee {referee}"
            );
            if sizes.iter().all(|&size| size == referee) {
                assert_eq!(cycledger_row(sizes.len(), referee, partial), built as u64);
            }
        }
    }

    #[test]
    fn failure_probabilities_favor_one_third_protocols() {
        let params = ComparisonParams {
            n: 2000,
            m: 10,
            c: 200,
            lambda: 40,
        };
        let rows = build_table1(&params);
        let get = |p: Protocol| rows.iter().find(|r| r.protocol == p).unwrap().round_failure;
        assert!(get(Protocol::CycLedger) < get(Protocol::Elastico));
        assert!(get(Protocol::RapidChain) < get(Protocol::Elastico));
        assert!(get(Protocol::CycLedger) <= 1.0);
    }

    #[test]
    fn protocol_names_are_distinct() {
        let names: std::collections::HashSet<_> = Protocol::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 4);
    }
}
