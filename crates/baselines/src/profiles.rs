//! Qualitative and quantitative protocol profiles behind Table I.
//!
//! For each comparison protocol (Elastico, OmniLedger, RapidChain) and for
//! CycLedger itself, this module produces the row of Table I: resiliency,
//! communication complexity, per-node storage, per-round failure probability,
//! decentralization assumption, dishonest-leader efficiency, incentives, and
//! connection burden. The failure probabilities come from
//! [`cycledger_analysis::failure`]; storage and channel counts use the closed
//! forms the respective papers report.

use cycledger_analysis::failure;

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

fn clique_channels(nodes: u64) -> u64 {
    nodes * nodes.saturating_sub(1) / 2
}

/// Channels CycLedger's topology needs: per-committee cliques, the key-member
/// mesh less the pairs a committee's clique already holds, key-member↔referee
/// links and the referee clique (§III-B). The same count as
/// `RoundAssignment::channel_count` in the protocol crate: a committee's key
/// members are its leader and partial set, at most all `c` of it.
pub fn cycledger_channels(params: &ComparisonParams, referee_size: u64) -> u64 {
    let key_members_per_committee = (params.lambda as u64 + 1).min(params.c);
    let key_members = params.m * key_members_per_committee;
    let per_committee = clique_channels(params.c);
    let key_mesh =
        clique_channels(key_members) - params.m * clique_channels(key_members_per_committee);
    let to_referee = key_members * referee_size;
    let referee_clique = clique_channels(referee_size);
    params.m * per_committee + key_mesh + to_referee + referee_clique
}

/// Builds one protocol's Table I row.
pub fn profile(protocol: Protocol, params: &ComparisonParams) -> ProtocolProfile {
    let ComparisonParams { n, m, c, lambda } = *params;
    let referee_size = c;
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
            connection_channels: clique_channels(n),
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
            connection_channels: clique_channels(n),
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
            connection_channels: clique_channels(n),
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
            connection_channels: cycledger_channels(params, referee_size),
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

    #[test]
    fn cycledger_channels_count_each_pair_once() {
        // Brute force: lay the committees and the referee committee out as
        // disjoint node ranges, add every pair the topology links to one
        // set, and count what is left distinct.
        for (m, c, lambda, referee) in [(2u64, 4u64, 1u32, 3u64), (3, 5, 2, 4), (2, 3, 4, 2)] {
            let key_per = (lambda as u64 + 1).min(c);
            let committee = |k: u64| k * c..(k + 1) * c;
            let keys: Vec<u64> = (0..m)
                .flat_map(|k| committee(k).take(key_per as usize))
                .collect();
            let referees: Vec<u64> = (m * c..m * c + referee).collect();
            let mut pairs = std::collections::BTreeSet::new();
            let mut link = |a: u64, b: u64| {
                if a != b {
                    pairs.insert((a.min(b), a.max(b)));
                }
            };
            for k in 0..m {
                for a in committee(k) {
                    committee(k).for_each(|b| link(a, b));
                }
            }
            for &a in &keys {
                keys.iter().for_each(|&b| link(a, b));
                referees.iter().for_each(|&r| link(a, r));
            }
            for &a in &referees {
                referees.iter().for_each(|&b| link(a, b));
            }
            let params = ComparisonParams {
                n: m * c,
                m,
                c,
                lambda,
            };
            assert_eq!(
                cycledger_channels(&params, referee),
                pairs.len() as u64,
                "m {m}, c {c}, lambda {lambda}, referee {referee}"
            );
        }
        // Table I's geometry: the key mesh less m·C(41, 2) = 8 200 pairs.
        assert_eq!(
            cycledger_channels(&ComparisonParams::paper_default(), 200),
            376_545
        );
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
