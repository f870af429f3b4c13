//! Round and simulation reports: what the benchmark harness reads out.

use cycledger_net::metrics::{Counters, MetricsSink, Phase};
use cycledger_net::topology::NodeId;

/// Role groups used for Table II-style reporting.
#[derive(Clone, Debug, Default)]
pub struct RoleGroups {
    /// Common members of ordinary committees.
    pub common_members: Vec<NodeId>,
    /// Leaders and partial-set members.
    pub key_members: Vec<NodeId>,
    /// Referee committee members.
    pub referee_members: Vec<NodeId>,
}

/// What one recovery attempt did, as recorded in the round's recovery log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// The accused leader was evicted and a partial-set member installed.
    Evicted,
    /// The impeachment ran but did not evict (bad evidence or no majority).
    Rejected,
    /// No partial-set member was left to prosecute; the committee sat the
    /// round out.
    Skipped,
}

impl RecoveryOutcome {
    /// Stable one-byte encoding used by the canonical report bytes.
    fn code(self) -> u8 {
        match self {
            RecoveryOutcome::Evicted => 0,
            RecoveryOutcome::Rejected => 1,
            RecoveryOutcome::Skipped => 2,
        }
    }
}

/// One entry of the round's recovery log: every impeachment the engine
/// attempted, with the ground truth needed by external invariant checkers
/// (the scenario subsystem's "no honest node punished" claim is checked
/// against `accused_was_honest` captured *at accusation time*, so later
/// behaviour flips between rounds cannot blur the record).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// Committee the recovery ran in.
    pub committee: usize,
    /// The accused leader.
    pub accused: NodeId,
    /// Whether the accused was honest (registry ground truth) when accused.
    pub accused_was_honest: bool,
    /// The prosecuting partial-set member (`None` when the recovery was
    /// skipped for lack of one).
    pub prosecutor: Option<NodeId>,
    /// Impeachment approvals the prosecutor counted (0 for skipped attempts),
    /// against which the refinement checker asserts `Evicted ⇒ approvals ≥
    /// ⌊C/2⌋+1` with the committee's size `C` (fixed once configuration has
    /// run). Not part of the canonical bytes.
    pub approvals: usize,
    /// What the attempt did.
    pub outcome: RecoveryOutcome,
}

impl RecoveryRecord {
    /// Appends the record's canonical byte encoding to `out`.
    fn write_canonical_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.committee as u64).to_be_bytes());
        out.extend_from_slice(&self.accused.0.to_be_bytes());
        out.push(u8::from(self.accused_was_honest));
        match self.prosecutor {
            Some(p) => {
                out.push(1);
                out.extend_from_slice(&p.0.to_be_bytes());
            }
            None => out.push(0),
        }
        out.push(self.outcome.code());
    }
}

/// What one epoch transition did, attached to the round report that closed
/// the epoch. Folded into the canonical bytes as a tagged extension block, so
/// runs without epoch machinery keep their pre-epoch encoding byte-identical.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochTransitionReport {
    /// The epoch that just closed (0-based).
    pub epoch: u64,
    /// Validators that joined at this boundary (appended in `Syncing` state).
    pub joined: Vec<NodeId>,
    /// Validators marked `Left` at this boundary.
    pub left: Vec<NodeId>,
    /// Members that completed state sync and turned `Active` this boundary.
    pub synced: usize,
    /// Members still `Syncing` after this boundary's sync attempts.
    pub still_syncing: usize,
    /// State-sync requests that timed out across this boundary's sessions.
    pub sync_timeouts: usize,
    /// State-sync chunks successfully delivered across this boundary.
    pub sync_chunks: usize,
    /// Committee seats whose occupant changed in the post-reshuffle
    /// assignment relative to the pre-reshuffle one.
    pub reshuffled_seats: usize,
}

impl EpochTransitionReport {
    /// Appends the report's canonical byte encoding to `out`.
    fn write_canonical_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.epoch.to_be_bytes());
        for group in [&self.joined, &self.left] {
            out.extend_from_slice(&(group.len() as u64).to_be_bytes());
            for node in group {
                out.extend_from_slice(&node.0.to_be_bytes());
            }
        }
        for count in [
            self.synced,
            self.still_syncing,
            self.sync_timeouts,
            self.sync_chunks,
            self.reshuffled_seats,
        ] {
            out.extend_from_slice(&(count as u64).to_be_bytes());
        }
    }
}

/// Everything measured during one round.
#[derive(Clone, Debug)]
pub struct RoundReport {
    /// Round number.
    pub round: u64,
    /// Whether a (non-void) block was produced.
    pub block_produced: bool,
    /// Number of transactions offered by external users this round.
    pub txs_offered: usize,
    /// Of those, how many were valid (ground truth).
    pub txs_offered_valid: usize,
    /// Of those, how many were cross-shard (ground truth).
    pub txs_offered_cross_shard: usize,
    /// Transactions packed into the block.
    pub txs_packed: usize,
    /// Cross-shard transactions packed into the block.
    pub txs_packed_cross_shard: usize,
    /// Transactions the referee committee rejected on re-validation.
    pub rejected_by_referee: usize,
    /// Leaders evicted by the recovery procedure: `(committee, old leader)`.
    pub evicted_leaders: Vec<(usize, NodeId)>,
    /// Signed witnesses produced this round.
    pub witnesses: usize,
    /// Recoveries that could not start because the committee's partial set
    /// had no member left to prosecute (the committee sits the round out
    /// instead of panicking; the next sortition refills the partial set).
    pub skipped_recoveries: usize,
    /// Censorship (timeout) reports this round.
    pub censorship_reports: usize,
    /// Every recovery the engine attempted this round, in attempt order.
    pub recovery_log: Vec<RecoveryRecord>,
    /// Total fees distributed.
    pub fees_distributed: u64,
    /// Established reliable channels (Table I "burden on connection").
    pub channels: usize,
    /// Channels a full honest clique would have needed.
    pub full_clique_channels: usize,
    /// Per-node, per-phase traffic and storage.
    pub metrics: MetricsSink,
    /// Role groups active this round.
    pub roles: RoleGroups,
    /// Extra simulated latency spent in 2Γ recovery timeouts (µs).
    pub timeout_delays_us: u64,
    /// Whether the run opted in to network faults
    /// ([`crate::ProtocolConfig::message_driven`]). The six counters below
    /// are counted on every run; this decides whether the `0xD1` block
    /// carries the first four into the canonical bytes.
    pub message_driven: bool,
    /// Vote-collection deadlines that fired with votes missing (the
    /// quorum-timeout fallback path).
    pub quorum_timeouts: usize,
    /// Cross-shard list forwards that missed their destination deadline (the
    /// pair's transactions deferred).
    pub list_timeouts: usize,
    /// Individual votes missing at collection deadlines (a per-round
    /// severity measure next to `quorum_timeouts`, which only counts
    /// deadlines that fired).
    pub votes_missing: usize,
    /// Envelopes dropped by the network fault plan (partitions, loss) across
    /// the round's task networks that run under it.
    pub net_dropped_messages: u64,
    /// Deliberate vote abstentions by `Syncing` members this round (their
    /// slots are counted `Unknown`, never breaking quorum math).
    pub syncing_abstentions: usize,
    /// Votes actually received from `Syncing` members this round. The
    /// protocol forbids these; invariant checkers demand this stays zero.
    pub syncing_votes: usize,
    /// Present when this round closed an epoch: what the transition did.
    pub epoch_transition: Option<EpochTransitionReport>,
    /// Present when the round ran under open-loop traffic drive: injection,
    /// confirmation, censoring and latency accounting for this round (see
    /// [`crate::traffic`]).
    pub traffic: Option<crate::traffic::TrafficRoundReport>,
    /// Authenticated state roots committed this round, one per shard in
    /// shard order. Empty on the default map backend — the sparse-Merkle
    /// backend fills it after block application, and it rides the canonical
    /// bytes as a tagged extension block.
    pub state_roots: Vec<cycledger_crypto::sha256::Digest>,
}

impl RoundReport {
    /// Mean per-node counters for a role group in a phase (Table II cell).
    pub fn role_phase_mean(&self, role: &[NodeId], phase: Phase) -> Counters {
        if role.is_empty() {
            return Counters::default();
        }
        let (total, _) = self.metrics.group_phase(role, phase);
        Counters {
            msgs_sent: total.msgs_sent / role.len() as u64,
            msgs_received: total.msgs_received / role.len() as u64,
            bytes_sent: total.bytes_sent / role.len() as u64,
            bytes_received: total.bytes_received / role.len() as u64,
            storage_bytes: total.storage_bytes / role.len() as u64,
        }
    }

    /// Honest nodes evicted by a recovery this round (ground truth captured
    /// at accusation time). Soundness (Claim 4) demands this stays empty.
    pub fn punished_honest(&self) -> Vec<NodeId> {
        self.recovery_log
            .iter()
            .filter(|r| r.accused_was_honest && r.outcome == RecoveryOutcome::Evicted)
            .map(|r| r.accused)
            .collect()
    }

    /// Fraction of offered valid transactions that made it into the block.
    pub fn acceptance_rate(&self) -> f64 {
        if self.txs_offered_valid == 0 {
            return 0.0;
        }
        self.txs_packed as f64 / self.txs_offered_valid as f64
    }

    /// Appends a canonical byte encoding of the report to `out`: every field
    /// in declaration order, metrics in sorted `(node, phase)` order. Equal
    /// reports produce equal bytes independent of hash-map iteration order —
    /// the unit of the engine's byte-identical determinism contract.
    pub fn write_canonical_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.round.to_be_bytes());
        out.push(u8::from(self.block_produced));
        for count in [
            self.txs_offered,
            self.txs_offered_valid,
            self.txs_offered_cross_shard,
            self.txs_packed,
            self.txs_packed_cross_shard,
            self.rejected_by_referee,
            self.witnesses,
            self.skipped_recoveries,
            self.censorship_reports,
            self.channels,
            self.full_clique_channels,
        ] {
            out.extend_from_slice(&(count as u64).to_be_bytes());
        }
        out.extend_from_slice(&(self.evicted_leaders.len() as u64).to_be_bytes());
        for (committee, leader) in &self.evicted_leaders {
            out.extend_from_slice(&(*committee as u64).to_be_bytes());
            out.extend_from_slice(&leader.0.to_be_bytes());
        }
        out.extend_from_slice(&(self.recovery_log.len() as u64).to_be_bytes());
        for record in &self.recovery_log {
            record.write_canonical_bytes(out);
        }
        out.extend_from_slice(&self.fees_distributed.to_be_bytes());
        out.extend_from_slice(&self.timeout_delays_us.to_be_bytes());
        for group in [
            &self.roles.common_members,
            &self.roles.key_members,
            &self.roles.referee_members,
        ] {
            out.extend_from_slice(&(group.len() as u64).to_be_bytes());
            for node in group {
                out.extend_from_slice(&node.0.to_be_bytes());
            }
        }
        self.metrics.write_canonical_bytes(out);
        // Message-driven extension block: appended only when the round ran
        // the message-driven data plane, so fully synchronous runs keep the
        // exact pre-extension encoding (and with it their golden digests).
        if self.message_driven {
            out.push(0xD1);
            out.extend_from_slice(&(self.quorum_timeouts as u64).to_be_bytes());
            out.extend_from_slice(&(self.list_timeouts as u64).to_be_bytes());
            out.extend_from_slice(&(self.votes_missing as u64).to_be_bytes());
            out.extend_from_slice(&self.net_dropped_messages.to_be_bytes());
        }
        // Epoch extension block: appended only when this round closed an
        // epoch, so runs with the epoch machinery disabled (the default)
        // keep their pre-epoch encoding — and golden digests — unchanged.
        if let Some(transition) = &self.epoch_transition {
            out.push(0xE7);
            transition.write_canonical_bytes(out);
        }
        // Syncing-counter extension block: appended only when a `Syncing`
        // member actually abstained (or, impossibly, voted), for the same
        // golden-preservation reason.
        if self.syncing_abstentions > 0 || self.syncing_votes > 0 {
            out.push(0xE8);
            out.extend_from_slice(&(self.syncing_abstentions as u64).to_be_bytes());
            out.extend_from_slice(&(self.syncing_votes as u64).to_be_bytes());
        }
        // Open-loop traffic extension block: appended only when the round
        // ran under traffic drive, so every closed-loop run — all goldens
        // predating the harness — keeps its exact encoding.
        if let Some(traffic) = &self.traffic {
            out.push(0xAC);
            traffic.write_canonical_bytes(out);
        }
        // Authenticated-state extension block: appended only when the run
        // commits state roots (the sparse-Merkle backend), so every
        // map-backed run — all goldens predating the state layer — keeps
        // its exact encoding.
        if !self.state_roots.is_empty() {
            out.push(0xA5);
            out.extend_from_slice(&(self.state_roots.len() as u64).to_be_bytes());
            for root in &self.state_roots {
                out.extend_from_slice(root.as_bytes());
            }
        }
    }
}

/// Aggregate over a multi-round simulation.
#[derive(Clone, Debug, Default)]
pub struct SimulationSummary {
    /// Per-round reports.
    pub rounds: Vec<RoundReport>,
}

impl SimulationSummary {
    /// Number of rounds simulated.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total transactions packed over the whole run.
    pub fn total_packed(&self) -> usize {
        self.rounds.iter().map(|r| r.txs_packed).sum()
    }

    /// Mean transactions packed per round (the throughput proxy used by the
    /// scalability experiment).
    pub fn mean_throughput(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.total_packed() as f64 / self.rounds.len() as f64
    }

    /// Rounds in which a block was produced.
    pub fn blocks_produced(&self) -> usize {
        self.rounds.iter().filter(|r| r.block_produced).count()
    }

    /// Total leaders evicted across the run.
    pub fn total_evictions(&self) -> usize {
        self.rounds.iter().map(|r| r.evicted_leaders.len()).sum()
    }

    /// Mean acceptance rate of valid offered transactions.
    pub fn mean_acceptance_rate(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().map(|r| r.acceptance_rate()).sum::<f64>() / self.rounds.len() as f64
    }

    /// Total recoveries skipped for lack of a prosecutor across the run.
    pub fn total_skipped_recoveries(&self) -> usize {
        self.rounds.iter().map(|r| r.skipped_recoveries).sum()
    }

    /// Total censorship reports across the run.
    pub fn total_censorship_reports(&self) -> usize {
        self.rounds.iter().map(|r| r.censorship_reports).sum()
    }

    /// Total signed witnesses across the run.
    pub fn total_witnesses(&self) -> usize {
        self.rounds.iter().map(|r| r.witnesses).sum()
    }

    /// Every honest node evicted by a recovery anywhere in the run.
    pub fn punished_honest(&self) -> Vec<NodeId> {
        self.rounds
            .iter()
            .flat_map(|r| r.punished_honest())
            .collect()
    }

    /// Total quorum-timeout fallbacks across the run.
    pub fn total_quorum_timeouts(&self) -> usize {
        self.rounds.iter().map(|r| r.quorum_timeouts).sum()
    }

    /// Total cross-shard list-forward timeouts across the run.
    pub fn total_list_timeouts(&self) -> usize {
        self.rounds.iter().map(|r| r.list_timeouts).sum()
    }

    /// Total votes missing at collection deadlines across the run.
    pub fn total_votes_missing(&self) -> usize {
        self.rounds.iter().map(|r| r.votes_missing).sum()
    }

    /// Total envelopes dropped by network faults across the run.
    pub fn total_net_dropped_messages(&self) -> u64 {
        self.rounds.iter().map(|r| r.net_dropped_messages).sum()
    }

    /// Number of epoch transitions that ran across the run.
    pub fn total_epoch_transitions(&self) -> usize {
        self.rounds
            .iter()
            .filter(|r| r.epoch_transition.is_some())
            .count()
    }

    /// Members that completed state sync across every epoch boundary.
    pub fn total_synced(&self) -> usize {
        self.rounds
            .iter()
            .filter_map(|r| r.epoch_transition.as_ref())
            .map(|t| t.synced)
            .sum()
    }

    /// State-sync request timeouts across every epoch boundary.
    pub fn total_sync_timeouts(&self) -> usize {
        self.rounds
            .iter()
            .filter_map(|r| r.epoch_transition.as_ref())
            .map(|t| t.sync_timeouts)
            .sum()
    }

    /// Total vote abstentions by `Syncing` members across the run.
    pub fn total_syncing_abstentions(&self) -> usize {
        self.rounds.iter().map(|r| r.syncing_abstentions).sum()
    }

    /// Total votes received from `Syncing` members across the run. The
    /// no-syncing-votes invariant demands this stays zero.
    pub fn total_syncing_votes(&self) -> usize {
        self.rounds.iter().map(|r| r.syncing_votes).sum()
    }

    /// A digest over the summary's canonical byte encoding.
    ///
    /// Two summaries with identical content produce identical digests
    /// regardless of worker count, hash-map iteration order, or process; the
    /// determinism tests compare runs at 1, 2 and 8 executor threads through
    /// this.
    pub fn canonical_digest(&self) -> cycledger_crypto::sha256::Digest {
        let mut bytes = Vec::with_capacity(4096);
        bytes.extend_from_slice(&(self.rounds.len() as u64).to_be_bytes());
        for round in &self.rounds {
            round.write_canonical_bytes(&mut bytes);
        }
        cycledger_crypto::sha256::hash_parts(&[b"cycledger/summary", &bytes])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_report(round: u64, packed: usize, valid: usize) -> RoundReport {
        RoundReport {
            round,
            block_produced: packed > 0,
            txs_offered: valid + 2,
            txs_offered_valid: valid,
            txs_offered_cross_shard: 1,
            txs_packed: packed,
            txs_packed_cross_shard: 0,
            rejected_by_referee: 0,
            evicted_leaders: vec![(0, NodeId(1))],
            witnesses: 1,
            skipped_recoveries: 0,
            censorship_reports: 0,
            recovery_log: vec![RecoveryRecord {
                committee: 0,
                accused: NodeId(1),
                accused_was_honest: false,
                prosecutor: Some(NodeId(2)),
                approvals: 4,
                outcome: RecoveryOutcome::Evicted,
            }],
            fees_distributed: 10,
            channels: 100,
            full_clique_channels: 1000,
            metrics: MetricsSink::new(),
            roles: RoleGroups::default(),
            timeout_delays_us: 0,
            message_driven: false,
            quorum_timeouts: 0,
            list_timeouts: 0,
            votes_missing: 0,
            net_dropped_messages: 0,
            syncing_abstentions: 0,
            syncing_votes: 0,
            epoch_transition: None,
            traffic: None,
            state_roots: Vec::new(),
        }
    }

    #[test]
    fn acceptance_rate_and_summary_aggregation() {
        let summary = SimulationSummary {
            rounds: vec![
                dummy_report(0, 8, 10),
                dummy_report(1, 10, 10),
                dummy_report(2, 0, 10),
            ],
        };
        assert_eq!(summary.num_rounds(), 3);
        assert_eq!(summary.total_packed(), 18);
        assert_eq!(summary.blocks_produced(), 2);
        assert_eq!(summary.total_evictions(), 3);
        assert!((summary.mean_throughput() - 6.0).abs() < 1e-9);
        assert!((summary.mean_acceptance_rate() - (0.8 + 1.0 + 0.0) / 3.0).abs() < 1e-9);
        let empty = SimulationSummary::default();
        assert_eq!(empty.mean_throughput(), 0.0);
        assert_eq!(empty.mean_acceptance_rate(), 0.0);
    }

    #[test]
    fn punished_honest_reads_the_recovery_log() {
        let mut report = dummy_report(0, 1, 1);
        assert!(
            report.punished_honest().is_empty(),
            "malicious eviction is not punishment of the honest"
        );
        report.recovery_log.push(RecoveryRecord {
            committee: 1,
            accused: NodeId(9),
            accused_was_honest: true,
            prosecutor: Some(NodeId(3)),
            approvals: 3,
            outcome: RecoveryOutcome::Evicted,
        });
        report.recovery_log.push(RecoveryRecord {
            committee: 1,
            accused: NodeId(10),
            accused_was_honest: true,
            prosecutor: Some(NodeId(3)),
            approvals: 1,
            outcome: RecoveryOutcome::Rejected,
        });
        assert_eq!(report.punished_honest(), vec![NodeId(9)]);
        let summary = SimulationSummary {
            rounds: vec![report],
        };
        assert_eq!(summary.punished_honest(), vec![NodeId(9)]);
    }

    #[test]
    fn recovery_log_reaches_the_canonical_bytes() {
        let base = dummy_report(0, 1, 1);
        let mut changed = base.clone();
        changed.recovery_log[0].accused_was_honest = true;
        let encode = |r: &RoundReport| {
            let mut bytes = Vec::new();
            r.write_canonical_bytes(&mut bytes);
            bytes
        };
        assert_ne!(
            encode(&base),
            encode(&changed),
            "the recovery log must be part of the canonical encoding"
        );
    }

    #[test]
    fn message_driven_extension_block_is_gated() {
        // Synchronous rounds must keep the exact pre-extension encoding
        // (golden digests depend on it); driven rounds append the extension
        // block, and its counters are digest-relevant.
        let sync = dummy_report(0, 1, 1);
        let mut driven = sync.clone();
        driven.message_driven = true;
        let encode = |r: &RoundReport| {
            let mut bytes = Vec::new();
            r.write_canonical_bytes(&mut bytes);
            bytes
        };
        let sync_bytes = encode(&sync);
        let driven_bytes = encode(&driven);
        assert_eq!(
            driven_bytes.len(),
            sync_bytes.len() + 1 + 4 * 8,
            "driven rounds append exactly the tagged extension block"
        );
        assert_eq!(&driven_bytes[..sync_bytes.len()], &sync_bytes[..]);
        // Counters on a synchronous round never reach the encoding…
        let mut sync_with_counts = sync.clone();
        sync_with_counts.quorum_timeouts = 5;
        sync_with_counts.net_dropped_messages = 99;
        assert_eq!(encode(&sync_with_counts), sync_bytes);
        // …but on a driven round they are digest-relevant.
        let mut driven_with_counts = driven.clone();
        driven_with_counts.quorum_timeouts = 5;
        assert_ne!(encode(&driven_with_counts), driven_bytes);
    }

    #[test]
    fn epoch_extension_block_is_gated() {
        // Rounds without an epoch transition keep the exact pre-epoch
        // encoding (all 21 committed goldens depend on it); boundary rounds
        // append the tagged extension, and its content is digest-relevant.
        let plain = dummy_report(0, 1, 1);
        let encode = |r: &RoundReport| {
            let mut bytes = Vec::new();
            r.write_canonical_bytes(&mut bytes);
            bytes
        };
        let plain_bytes = encode(&plain);
        let mut boundary = plain.clone();
        boundary.epoch_transition = Some(EpochTransitionReport {
            epoch: 3,
            joined: vec![NodeId(40), NodeId(41)],
            left: vec![NodeId(7)],
            synced: 2,
            still_syncing: 0,
            sync_timeouts: 1,
            sync_chunks: 4,
            reshuffled_seats: 12,
        });
        let boundary_bytes = encode(&boundary);
        // tag + epoch + joined(len + 2 ids) + left(len + 1 id) + 5 counters
        assert_eq!(
            boundary_bytes.len(),
            plain_bytes.len() + 1 + 8 + (8 + 2 * 4) + (8 + 4) + 5 * 8,
            "boundary rounds append exactly the tagged epoch block"
        );
        assert_eq!(&boundary_bytes[..plain_bytes.len()], &plain_bytes[..]);
        let mut changed = boundary.clone();
        changed.epoch_transition.as_mut().unwrap().synced = 1;
        assert_ne!(encode(&changed), boundary_bytes);
    }

    #[test]
    fn syncing_counter_extension_block_is_gated() {
        let plain = dummy_report(0, 1, 1);
        let encode = |r: &RoundReport| {
            let mut bytes = Vec::new();
            r.write_canonical_bytes(&mut bytes);
            bytes
        };
        let plain_bytes = encode(&plain);
        let mut abstained = plain.clone();
        abstained.syncing_abstentions = 3;
        let abstained_bytes = encode(&abstained);
        assert_eq!(
            abstained_bytes.len(),
            plain_bytes.len() + 1 + 2 * 8,
            "abstentions append exactly the tagged syncing block"
        );
        assert_eq!(&abstained_bytes[..plain_bytes.len()], &plain_bytes[..]);
        // A forbidden syncing vote is also digest-relevant.
        let mut voted = plain.clone();
        voted.syncing_votes = 1;
        assert_ne!(encode(&voted), plain_bytes);
    }

    #[test]
    fn traffic_extension_block_is_gated() {
        // Closed-loop rounds (every golden predating the traffic harness)
        // must keep their exact encoding; open-loop rounds append the
        // tagged block, and its counters are digest-relevant.
        let closed = dummy_report(0, 1, 1);
        let encode = |r: &RoundReport| {
            let mut bytes = Vec::new();
            r.write_canonical_bytes(&mut bytes);
            bytes
        };
        let closed_bytes = encode(&closed);
        let mut open = closed.clone();
        open.traffic = Some(crate::traffic::TrafficRoundReport {
            injected: 12,
            rejected_invalid: 1,
            confirmed: 10,
            censored: 1,
            backlog: 4,
            round_duration_us: 1_200_000,
            latency_sum_us: 9_000_000,
            max_latency_us: 1_400_000,
        });
        let open_bytes = encode(&open);
        assert_eq!(
            open_bytes.len(),
            closed_bytes.len() + 1 + 8 * 8,
            "open-loop rounds append exactly the tagged traffic block"
        );
        assert_eq!(&open_bytes[..closed_bytes.len()], &closed_bytes[..]);
        // Censoring is digest-relevant, not silently dropped.
        let mut censored_more = open.clone();
        censored_more.traffic.as_mut().unwrap().censored += 1;
        assert_ne!(encode(&censored_more), open_bytes);
    }

    #[test]
    fn state_root_extension_block_is_gated() {
        // Map-backed rounds (every golden predating the state layer) must
        // keep their exact encoding; SMT-backed rounds append the tagged
        // block, and the roots are digest-relevant.
        let plain = dummy_report(0, 1, 1);
        let encode = |r: &RoundReport| {
            let mut bytes = Vec::new();
            r.write_canonical_bytes(&mut bytes);
            bytes
        };
        let plain_bytes = encode(&plain);
        let mut authenticated = plain.clone();
        authenticated.state_roots = vec![
            cycledger_crypto::sha256::sha256(b"root-shard-0"),
            cycledger_crypto::sha256::sha256(b"root-shard-1"),
        ];
        let auth_bytes = encode(&authenticated);
        assert_eq!(
            auth_bytes.len(),
            plain_bytes.len() + 1 + 8 + 2 * 32,
            "authenticated rounds append exactly the tagged state block"
        );
        assert_eq!(&auth_bytes[..plain_bytes.len()], &plain_bytes[..]);
        let mut changed = authenticated.clone();
        changed.state_roots[1] = cycledger_crypto::sha256::sha256(b"tampered");
        assert_ne!(encode(&changed), auth_bytes);
    }

    #[test]
    fn epoch_summary_aggregation() {
        let mut with_epoch = dummy_report(1, 1, 1);
        with_epoch.epoch_transition = Some(EpochTransitionReport {
            epoch: 0,
            synced: 2,
            sync_timeouts: 3,
            ..EpochTransitionReport::default()
        });
        with_epoch.syncing_abstentions = 4;
        let summary = SimulationSummary {
            rounds: vec![dummy_report(0, 1, 1), with_epoch],
        };
        assert_eq!(summary.total_epoch_transitions(), 1);
        assert_eq!(summary.total_synced(), 2);
        assert_eq!(summary.total_sync_timeouts(), 3);
        assert_eq!(summary.total_syncing_abstentions(), 4);
        assert_eq!(summary.total_syncing_votes(), 0);
    }

    #[test]
    fn role_phase_mean_handles_empty_groups() {
        let report = dummy_report(0, 1, 1);
        assert_eq!(
            report.role_phase_mean(&[], Phase::BlockGeneration),
            Counters::default()
        );
    }
}
