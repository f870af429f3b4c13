//! State sync: how a joining or restarting member catches up on its shard.
//!
//! A member admitted at an epoch boundary enters in
//! [`Syncing`](crate::node::MembershipState::Syncing) state: it sits in
//! committees as a common member but abstains from votes (its slots count
//! `Unknown`) until it has fetched and verified its shard's header chain.
//! The fetch runs over the same driven [`SimNetwork`] as the committee
//! phases, so partitions, crashes and loss hit sync traffic exactly like
//! consensus traffic:
//!
//! 1. The member sends a [`CommitteeMessage::SyncRequest`] to one referee
//!    peer, asking for up to `chunk_size` headers from its next missing
//!    round, and arms a per-request virtual-time timer.
//! 2. The peer answers with a [`CommitteeMessage::SyncChunk`] echoing the
//!    request ordinal and carrying the chain's own [`HeaderSummary`] values,
//!    which the member collects as they arrive; chunks that arrive after the
//!    member rotated to a new request are discarded by the ordinal mismatch.
//! 3. On timeout the member doubles its timeout (bounded) and rotates to the
//!    next peer; `max_attempts` consecutive failures abandon the session —
//!    the member stays `Syncing` and retries next round.
//! 4. When the full chain is assembled, the member verifies the hash linkage
//!    against the quorum-certified tip it learned from the committee
//!    ([`Chain::verify_header_chain`]) and announces
//!    [`CommitteeMessage::SyncDone`]; only then does it turn `Active`.

use cycledger_consensus::envelope::CommitteeMessage;
use cycledger_crypto::sha256::Digest;
use cycledger_ledger::block::{Chain, HeaderSummary};
use cycledger_net::latency::{LatencyConfig, LinkClass};
use cycledger_net::network::{NetEvent, SimNetwork};
use cycledger_net::time::Deadline;
use cycledger_net::time::SimDuration;
use cycledger_net::topology::NodeId;

/// Wire size of a [`CommitteeMessage::SyncRequest`] (`from_round` +
/// `max_blocks` + `request_id`).
const REQUEST_BYTES: u64 = 8 + 4 + 8;
/// Wire size of a [`CommitteeMessage::SyncChunk`] before its headers
/// (`from_round` + `request_id` + header count).
const CHUNK_BASE_BYTES: u64 = 8 + 8 + 8;
/// Wire size of one [`HeaderSummary`] (`round` + two digests).
const HEADER_BYTES: u64 = 8 + 32 + 32;
/// Wire size of a [`CommitteeMessage::SyncDone`] (`height` + tip digest).
const DONE_BYTES: u64 = 8 + 32;
/// Cap on the exponential-backoff multiplier (timeouts grow 1×, 2×, 4×, 8×
/// the base and stay there).
const MAX_BACKOFF_FACTOR: u64 = 8;

/// Knobs of one state-sync session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncConfig {
    /// Maximum headers requested per chunk.
    pub chunk_size: usize,
    /// Initial per-request timeout; doubles on every consecutive timeout,
    /// capped at `MAX_BACKOFF_FACTOR` (8×) this.
    pub base_timeout: SimDuration,
    /// Consecutive failed requests before the session is abandoned (the
    /// member stays `Syncing` and retries next round).
    pub max_attempts: usize,
}

impl SyncConfig {
    /// Defaults derived from the latency model: sync requests cross the
    /// key-member mesh (bound `Γ`), so a round trip fits in `2Γ` and the
    /// base timeout is `4Γ` — the same safety factor the driven vote
    /// collector uses over `Δ`.
    pub fn from_latency(latency: LatencyConfig) -> SyncConfig {
        SyncConfig {
            chunk_size: 8,
            base_timeout: latency.gamma.times(4),
            max_attempts: 6,
        }
    }
}

/// What one state-sync session did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncOutcome {
    /// Whether the member assembled and verified the full chain.
    pub synced: bool,
    /// Chunks accepted (in-order, in-time, matching ordinal).
    pub chunks: usize,
    /// Requests that timed out.
    pub timeouts: usize,
    /// Requests sent in total.
    pub attempts: usize,
    /// Chain height the session tried to reach.
    pub height: u64,
}

/// Runs one state-sync session for `member` against `peers` (tried in
/// rotation), driven to quiescence over `net`.
///
/// `chain` is the shard chain the peers serve from; `expected_tip` is the
/// tip hash the member learned from the quorum-certified header chain — the
/// session only reports success if the fetched headers verify against it.
/// The caller flips the member `Active` on success.
///
/// # Panics
/// Panics if `peers` is empty while there are blocks to fetch.
pub fn run_state_sync(
    member: NodeId,
    peers: &[NodeId],
    chain: &Chain,
    expected_tip: Digest,
    net: &mut SimNetwork<CommitteeMessage>,
    config: &SyncConfig,
) -> SyncOutcome {
    let height = chain.height() as u64;
    let mut outcome = SyncOutcome {
        height,
        ..SyncOutcome::default()
    };
    let mut collected: Vec<HeaderSummary> = Vec::with_capacity(chain.height());
    if height == 0 {
        // Nothing to fetch: an empty header chain verifies only against the
        // zero tip.
        outcome.synced = Chain::verify_header_chain(&collected, expected_tip).is_ok();
        return outcome;
    }
    assert!(!peers.is_empty(), "state sync needs at least one peer");

    let mut request_id: u64 = 0;
    let mut peer_idx: usize = 0;
    let mut backoff: u64 = 1;
    let mut failures: usize = 0;
    'session: while failures < config.max_attempts {
        outcome.attempts += 1;
        request_id += 1;
        let peer = peers[peer_idx % peers.len()];
        let from_round = collected.len() as u64;
        let want = ((height - from_round) as usize).min(config.chunk_size) as u32;
        // A dropped request (partition, crash, loss) simply leaves the timer
        // to fire; the failure path below handles it.
        net.send(
            member,
            peer,
            LinkClass::KeyMemberMesh,
            CommitteeMessage::SyncRequest {
                from_round,
                max_blocks: want,
                request_id,
            },
            REQUEST_BYTES,
        );
        let deadline =
            Deadline::at(net.schedule_timer(config.base_timeout.times(backoff), request_id));
        while let Some(event) = net.next_event() {
            match event {
                NetEvent::Message(env) => match env.payload {
                    CommitteeMessage::SyncRequest {
                        from_round,
                        max_blocks,
                        request_id: ordinal,
                    } => {
                        if env.to == member {
                            continue;
                        }
                        // The peer's side, played by the driver: serve the
                        // requested slice of the shard chain.
                        let headers = chain.header_summaries(from_round, max_blocks as usize);
                        let bytes = CHUNK_BASE_BYTES + HEADER_BYTES * headers.len() as u64;
                        net.send(
                            env.to,
                            member,
                            LinkClass::KeyMemberMesh,
                            CommitteeMessage::SyncChunk {
                                from_round,
                                headers,
                                request_id: ordinal,
                            },
                            bytes,
                        );
                    }
                    CommitteeMessage::SyncChunk {
                        from_round: chunk_from,
                        headers,
                        request_id: ordinal,
                    } => {
                        // Stale chunks (answering a rotated-away request)
                        // are discarded by the ordinal mismatch; the
                        // inclusive deadline mirrors the vote collector's
                        // boundary rule (a chunk *at* the deadline counts —
                        // `next_event` delivers it before the timer).
                        if env.to != member
                            || ordinal != request_id
                            || !deadline.includes(env.delivered_at)
                            || chunk_from != collected.len() as u64
                        {
                            continue;
                        }
                        collected.extend_from_slice(&headers);
                        net.record_storage(member, HEADER_BYTES * headers.len() as u64);
                        outcome.chunks += 1;
                        backoff = 1;
                        failures = 0;
                        if (collected.len() as u64) < height {
                            // Next chunk under a fresh ordinal; the old
                            // timer fires harmlessly as a stale key.
                            continue 'session;
                        }
                        if Chain::verify_header_chain(&collected, expected_tip).is_ok() {
                            outcome.synced = true;
                            net.send(
                                member,
                                env.from,
                                LinkClass::KeyMemberMesh,
                                CommitteeMessage::SyncDone {
                                    height,
                                    tip: expected_tip,
                                },
                                DONE_BYTES,
                            );
                            // Drain stale timers so the session ends
                            // quiescent.
                            while net.next_event().is_some() {}
                        }
                        break 'session;
                    }
                    // Algorithm-3 traffic never rides a sync session.
                    _ => {}
                },
                NetEvent::Timer { key, .. } => {
                    if key != request_id {
                        // A timer from an already-answered request.
                        continue;
                    }
                    outcome.timeouts += 1;
                    failures += 1;
                    peer_idx += 1;
                    backoff = (backoff * 2).min(MAX_BACKOFF_FACTOR);
                    continue 'session;
                }
            }
        }
        // Both queues drained without the armed timer firing: unreachable,
        // but bail rather than spin.
        break;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycledger_ledger::block::{Block, NextRoundConfig};
    use cycledger_net::faults::FaultPlan;
    use cycledger_net::time::SimTime;

    fn chain_of(height: u64) -> Chain {
        let mut chain = Chain::new();
        for round in 0..height {
            let block = Block::assemble(
                round,
                chain.tip_hash(),
                Vec::new(),
                NextRoundConfig::default(),
            );
            chain.append(block).expect("test chain links");
        }
        chain
    }

    fn net_with(plan: FaultPlan) -> SimNetwork<CommitteeMessage> {
        SimNetwork::with_faults(LatencyConfig::default(), 42, plan)
    }

    fn config() -> SyncConfig {
        SyncConfig::from_latency(LatencyConfig::default())
    }

    #[test]
    fn empty_chain_syncs_trivially() {
        let chain = Chain::new();
        let mut net = net_with(FaultPlan::default());
        let outcome = run_state_sync(NodeId(9), &[], &chain, Digest::ZERO, &mut net, &config());
        assert!(outcome.synced);
        assert_eq!(outcome.attempts, 0);
        assert_eq!(outcome.height, 0);
        // …but only against the zero tip.
        let mut net = net_with(FaultPlan::default());
        let outcome = run_state_sync(NodeId(9), &[], &chain, Digest([1; 32]), &mut net, &config());
        assert!(!outcome.synced);
    }

    #[test]
    fn fetches_the_chain_in_chunks_and_verifies_the_tip() {
        let chain = chain_of(5);
        let mut net = net_with(FaultPlan::default());
        let cfg = SyncConfig {
            chunk_size: 2,
            ..config()
        };
        let outcome = run_state_sync(
            NodeId(9),
            &[NodeId(0), NodeId(1)],
            &chain,
            chain.tip_hash(),
            &mut net,
            &cfg,
        );
        assert!(outcome.synced);
        assert_eq!(outcome.chunks, 3, "5 headers in chunks of 2");
        assert_eq!(outcome.attempts, 3);
        assert_eq!(outcome.timeouts, 0);
        assert_eq!(outcome.height, 5);
        assert_eq!(net.drop_counts().total(), 0);
    }

    #[test]
    fn wrong_tip_fails_verification() {
        let chain = chain_of(3);
        let mut net = net_with(FaultPlan::default());
        let outcome = run_state_sync(
            NodeId(9),
            &[NodeId(0)],
            &chain,
            Digest([7; 32]),
            &mut net,
            &config(),
        );
        assert!(!outcome.synced, "a tip mismatch must not report success");
        assert_eq!(outcome.chunks, 1);
    }

    #[test]
    fn rotates_to_a_reachable_peer_after_a_timeout() {
        let chain = chain_of(4);
        // Peer 0 is partitioned away from everyone for the whole session;
        // peer 1 is reachable.
        let plan = FaultPlan::default().with_partition(vec![NodeId(0)], SimTime::ZERO, None);
        let mut net = net_with(plan);
        let outcome = run_state_sync(
            NodeId(9),
            &[NodeId(0), NodeId(1)],
            &chain,
            chain.tip_hash(),
            &mut net,
            &config(),
        );
        assert!(outcome.synced);
        assert_eq!(outcome.timeouts, 1, "first request dies in the partition");
        assert_eq!(outcome.attempts, 2);
        assert!(net.drop_counts().partitioned >= 1);
    }

    #[test]
    fn bounded_attempts_when_fully_partitioned() {
        let chain = chain_of(4);
        // The member itself is cut off: every request is dropped.
        let plan = FaultPlan::default().with_partition(vec![NodeId(9)], SimTime::ZERO, None);
        let mut net = net_with(plan);
        let cfg = SyncConfig {
            max_attempts: 3,
            ..config()
        };
        let outcome = run_state_sync(
            NodeId(9),
            &[NodeId(0), NodeId(1)],
            &chain,
            chain.tip_hash(),
            &mut net,
            &cfg,
        );
        assert!(!outcome.synced, "a partitioned member stays Syncing");
        assert_eq!(outcome.attempts, 3);
        assert_eq!(outcome.timeouts, 3);
        assert_eq!(outcome.chunks, 0);
    }

    #[test]
    fn backoff_doubles_up_to_the_cap() {
        let chain = chain_of(1);
        let plan = FaultPlan::default().with_partition(vec![NodeId(9)], SimTime::ZERO, None);
        let mut net = net_with(plan);
        let cfg = SyncConfig {
            max_attempts: 6,
            ..config()
        };
        let base = cfg.base_timeout.as_micros();
        let outcome = run_state_sync(
            NodeId(9),
            &[NodeId(0)],
            &chain,
            chain.tip_hash(),
            &mut net,
            &cfg,
        );
        assert!(!outcome.synced);
        assert_eq!(outcome.timeouts, 6);
        // Timeouts of 1+2+4+8+8+8 base units elapsed back to back.
        assert_eq!(net.now().as_micros(), base * (1 + 2 + 4 + 8 + 8 + 8));
    }

    #[test]
    fn recovers_after_a_partition_heals() {
        let chain = chain_of(3);
        // The member is cut off long enough to burn two requests, then the
        // partition heals mid-session.
        let cfg = SyncConfig {
            chunk_size: 8,
            base_timeout: SimDuration::from_millis(100),
            max_attempts: 6,
        };
        let heal_at =
            SimTime::ZERO.after(cfg.base_timeout.times(3).plus(SimDuration::from_micros(1)));
        let plan =
            FaultPlan::default().with_partition(vec![NodeId(9)], SimTime::ZERO, Some(heal_at));
        let mut net = net_with(plan);
        let outcome = run_state_sync(
            NodeId(9),
            &[NodeId(0)],
            &chain,
            chain.tip_hash(),
            &mut net,
            &cfg,
        );
        assert!(outcome.synced, "sync must resume once the partition heals");
        assert!(outcome.timeouts >= 1);
        assert_eq!(outcome.chunks, 1);
    }
}
