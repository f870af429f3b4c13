//! Phase 4 — inter-committee consensus (§IV-D, Lemmas 6 & 7), synchronous
//! plane.
//!
//! Each input committee agrees **once** on the vector of its outbound lists
//! with Algorithm 3 and forwards every list, with a Merkle proof and the one
//! certificate, to the destination's leader and partial set; each destination
//! votes once over everything it admitted, agrees once on the per-source
//! results, and returns them. The core is `phases/xshard.rs`; on this plane
//! every forward arrives and votes are computed directly, traffic accounted.
//!
//! Two leader attacks are modelled: a **censoring** input-committee leader
//! withholds the certified lists, and after the `2Γ` timeout an honest member
//! of its partial set forwards them instead (Lemma 6) and raises an
//! impeachment; framing is impossible because the destination's partial set
//! also watches its own leader for `2Γ` (Lemma 7) — only the input leader is
//! ever reported, and only when it really withheld.

use cycledger_consensus::votes::{VoteList, VoteVector};
use cycledger_consensus::witness::EquivocationEvidence;
use cycledger_ledger::transaction::Transaction;
use cycledger_ledger::workload::GeneratedTx;
use cycledger_net::faults::FaultPlan;
use cycledger_net::metrics::MetricsSink;
use cycledger_net::topology::NodeId;

use crate::engine::ShardExecutor;
use crate::phases::xshard::{self, close_books, Accepted, InterEnv, PairList, Side, SideResult};

/// A leader liveness complaint raised by a partial-set member after the `2Γ`
/// timeout (censored cross-shard traffic). Unlike signed witnesses, this is an
/// omission fault: eviction goes through the committee impeachment vote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CensorshipReport {
    /// Committee whose leader withheld traffic.
    pub committee: usize,
    /// The accused leader.
    pub leader: NodeId,
    /// The honest partial-set member that took over forwarding.
    pub reporter: NodeId,
    /// Number of transactions that were withheld, across all destinations.
    pub withheld: usize,
}

/// Outcome of the inter-committee consensus phase.
#[derive(Clone, Debug, Default)]
pub struct InterOutcome {
    /// Cross-shard transactions accepted by both sides, per input committee.
    pub accepted: Vec<Vec<Transaction>>,
    /// Censorship reports, one per censoring leader.
    pub censorship_reports: Vec<CensorshipReport>,
    /// Equivocation evidence surfaced while agreeing on cross-shard vectors.
    pub equivocation: Vec<EquivocationEvidence>,
    /// Extra latency incurred by `2Γ` timeouts (microseconds of simulated time).
    pub timeout_delays: u64,
    /// Algorithm 3 instances started: at most one per committee per side.
    pub alg3_instances: usize,
    /// Certified `(i, j)` lists that never reached the destination leader: a
    /// forward leg severed or delayed past `4Γ` (message-driven mode), or a
    /// censoring leader whose whole partial set colludes.
    pub list_timeouts: usize,
    /// Message-driven mode: destination vote deadlines that fired short.
    pub quorum_timeouts: usize,
    /// Message-driven mode: destination votes missing (counted `Unknown`).
    pub votes_missing: usize,
    /// Message-driven mode: envelopes dropped across all phase networks.
    pub net_dropped: u64,
    /// Message-driven mode: `Syncing` destination members that abstained.
    pub syncing_abstentions: usize,
    /// Message-driven mode: votes from `Syncing` members — must stay zero.
    pub syncing_votes: usize,
}

/// Runs inter-committee consensus over the cross-shard portion of the
/// workload, ignoring `env.plan`: two executor batches (sources,
/// destinations) folded in committee order, identical for any worker count.
pub(crate) fn run_inter_consensus(
    env: &InterEnv<'_>,
    cross_shard: &[GeneratedTx],
    executor: &ShardExecutor,
    metrics: &mut MetricsSink,
) -> InterOutcome {
    let plan = &FaultPlan::default();
    let env = &InterEnv { plan, ..*env };
    let dest = |j, inbound: &[&PairList<'_>]| run_dest(env, j, inbound);
    xshard::run_phase(env, cross_shard, executor, metrics, dest)
}

/// Destination committee `j`: every member votes once over all admitted
/// lists; tally, agreement and replies are the shared core's.
fn run_dest(env: &InterEnv<'_>, j: usize, inbound: &[&PairList<'_>]) -> SideResult<Accepted> {
    let dest = &env.committees[j];
    let mut net = Side::Destination.net(env, j);
    let validity = xshard::inbound_validity(env, inbound);
    let mut vote_list = VoteList::new(inbound.iter().flat_map(|list| list.ids()).collect());
    for &member in &dest.members {
        let vector = VoteVector::new(member, xshard::inbound_votes(env, member, &validity));
        if member != dest.leader {
            net.account_message(member, dest.leader, vector.wire_size() + 96);
        }
        vote_list.record(vector);
    }
    let result = xshard::certify_and_reply(&mut net, env, j, inbound, &vote_list);
    close_books(net, result)
}
