//! Regenerates **Table II** — per-phase, per-role communication and storage —
//! by measuring the simulator and printing the measured per-node means next to
//! the paper's asymptotic prediction for each cell.

use cycledger_analysis::{table2_prediction, RoleClass, SystemSize};
use cycledger_bench::bench_config;
use cycledger_net::metrics::Phase;
use cycledger_protocol::Simulation;

fn main() {
    let (m, c) = (4usize, 12usize);
    let config = bench_config(m, c, 1);
    println!(
        "Table II — measured per-node communication/storage per phase (m = {m}, c = {c}, n = {})\n",
        config.ordinary_nodes()
    );
    let mut sim = Simulation::new(config).expect("valid configuration");
    sim.run_round();
    let report = sim.reports().last().unwrap();
    let size = SystemSize::from_committees(m as u64, c as u64);

    println!(
        "{:<32} {:<30} {:>14} {:>14} {:>22}",
        "Phase", "Role", "comm bytes/node", "storage/node", "paper prediction (comm/storage)"
    );
    for phase in Phase::ALL {
        for role in RoleClass::ALL {
            let nodes = match role {
                RoleClass::CommonMember => &report.roles.common_members,
                RoleClass::KeyMember => &report.roles.key_members,
                RoleClass::Referee => &report.roles.referee_members,
            };
            let measured = report.role_phase_mean(nodes, phase);
            let predicted = table2_prediction(phase, role, size);
            println!(
                "{:<32} {:<30} {:>14} {:>14} {:>13.0} / {:>6.0}",
                phase.label(),
                role.label(),
                measured.comm_bytes(),
                measured.storage_bytes,
                predicted.communication,
                predicted.storage,
            );
        }
    }

    println!(
        "\nCounting: the intra-committee, inter-committee and recovery rows count envelopes that were"
    );
    println!(
        "sent, not a closed form — including the destination leader's announcement of the admitted"
    );
    println!(
        "cross-shard lists to its c-1 members (one envelope each), which earlier tables left out."
    );
    println!(
        "\nScaling check: referee semi-commitment traffic should grow ~4x when m doubles (O(m²)),"
    );
    println!(
        "while a common member's intra- and inter-committee traffic should stay flat when m grows at"
    );
    println!(
        "fixed c (one Algorithm 3 instance per committee per side, whatever the number of pairs),"
    );
    println!(
        "and a key member's inter-committee sends grow with m (its leader's forwards and replies)."
    );
    let mut sim2 = Simulation::new(bench_config(2 * m, c, 1)).expect("valid configuration");
    sim2.run_round();
    let report2 = sim2.reports().last().unwrap();
    let referee_small = report
        .role_phase_mean(&report.roles.referee_members, Phase::SemiCommitmentExchange)
        .comm_bytes() as f64;
    let referee_large = report2
        .role_phase_mean(
            &report2.roles.referee_members,
            Phase::SemiCommitmentExchange,
        )
        .comm_bytes() as f64;
    let common_small = report
        .role_phase_mean(&report.roles.common_members, Phase::IntraCommitteeConsensus)
        .comm_bytes() as f64;
    let common_large = report2
        .role_phase_mean(
            &report2.roles.common_members,
            Phase::IntraCommitteeConsensus,
        )
        .comm_bytes() as f64;
    let inter_sends = |report: &cycledger_protocol::RoundReport, role: RoleClass| {
        let nodes = match role {
            RoleClass::KeyMember => &report.roles.key_members,
            _ => &report.roles.common_members,
        };
        let (total, _) = report
            .metrics
            .group_phase(nodes, Phase::InterCommitteeConsensus);
        total.msgs_sent as f64 / nodes.len().max(1) as f64
    };
    for (label, role) in [
        ("common-member", RoleClass::CommonMember),
        ("key-member   ", RoleClass::KeyMember),
    ] {
        let (small, large) = (inter_sends(report, role), inter_sends(report2, role));
        println!(
            "  {label} inter msgs sent:   m={m}: {small:.1}, m={}: {large:.1} (ratio {:.2})",
            2 * m,
            large / small.max(1.0)
        );
    }
    println!(
        "  referee semi-commitment bytes: m={m}: {referee_small:.0}, m={}: {referee_large:.0} (ratio {:.2})",
        2 * m,
        referee_large / referee_small.max(1.0)
    );
    println!(
        "  common-member intra bytes:     m={m}: {common_small:.0}, m={}: {common_large:.0} (ratio {:.2})",
        2 * m,
        common_large / common_small.max(1.0)
    );
}
