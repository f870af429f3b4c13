//! Protocol and simulation configuration.

use cycledger_ledger::StateBackend;
use cycledger_net::latency::LatencyConfig;

use crate::adversary::AdversaryConfig;
use crate::sortition::AssignmentParams;
use crate::traffic::TrafficConfig;

/// The most transactions a round may offer: the workload generates this many
/// every round. 100 times the largest any caller uses (`gen_bench_round`'s
/// large profile, 10 000).
pub const MAX_TXS_PER_ROUND: usize = 1_000_000;

/// The most accounts a shard may mint at genesis: each is a UTXO its shard's
/// set holds from the first round. 10 times the largest any caller uses
/// (`benchmark/`'s `state-smt-2x8`, 100 000).
pub const MAX_ACCOUNTS_PER_SHARD: usize = 1_000_000;

/// Configuration of a CycLedger simulation run.
#[derive(Clone, Copy, Debug)]
pub struct ProtocolConfig {
    /// Number of committees `m` (excluding the referee committee).
    pub committees: usize,
    /// Target committee size `c` (leader + partial set + common members).
    pub committee_size: usize,
    /// Partial-set size `λ`.
    pub partial_set_size: usize,
    /// Referee committee size `|C_R|`.
    pub referee_size: usize,
    /// Number of transactions offered to the network per round.
    pub txs_per_round: usize,
    /// Fraction of offered transactions that are cross-shard.
    pub cross_shard_ratio: f64,
    /// Fraction of offered transactions that are invalid (committees must
    /// reject them).
    pub invalid_ratio: f64,
    /// Accounts minted per shard at genesis.
    pub accounts_per_shard: usize,
    /// Proof-of-work participation difficulty (leading zero bits). Kept tiny in
    /// simulation so solving is fast; the code path is identical.
    pub pow_difficulty: u32,
    /// Per-node transaction-validation capacity per round; members vote
    /// `Unknown` on transactions beyond their capacity (§VII-A: reputation
    /// reflects honest computing power).
    pub base_compute_capacity: u32,
    /// Spread of compute capacity across nodes (capacity is sampled uniformly
    /// in `[base, base + spread]`).
    pub compute_capacity_spread: u32,
    /// Network latency model.
    pub latency: LatencyConfig,
    /// Adversary configuration.
    pub adversary: AdversaryConfig,
    /// Selects no code: a round makes and verifies every signature, whatever
    /// this says, and a report header always prints `true`. The placeholder
    /// path it used to select bought 1.59x rounds/s and moved no result
    /// (`docs/benchmarks.md`, "The `verify_signatures` verdict") and was
    /// deleted; the field remains only because `benchmark/src/workloads.rs`
    /// names it.
    pub verify_signatures: bool,
    /// Selects no code: every committee interaction travels the
    /// discrete-event network as typed envelopes under virtual-time quorum
    /// timeouts, `Simulation::set_fault_plan` installs whatever plan it is
    /// handed, and a report writes its timeout and drop counters on every
    /// round, whatever this says. The field remains only because
    /// `benchmark/src/workloads.rs` names it. Never emitted into reports.
    pub message_driven: bool,
    /// Worker threads of the persistent shard executor: `0` sizes the pool
    /// from the machine's available parallelism, `1` runs everything inline
    /// on the driver thread. Simulation output is byte-identical for any
    /// value (see [`crate::engine`]'s determinism contract). Whatever the
    /// value, the workload's DRBG stream is drawn ahead on one thread of its
    /// own (`cycledger_ledger::workload`), which never changes a result.
    pub worker_threads: usize,
    /// Selects no code: there is one round schedule, in which a round applies
    /// its block before it returns. Deferring that into the next round saved
    /// under 3 % of a round where it is largest (`docs/benchmarks.md`, "The
    /// `pipelined` verdict") and was deleted; the field remains only because
    /// `benchmark/src/workloads.rs` names it. Never emitted into reports.
    pub pipelined: bool,
    /// Epoch length `E` in rounds: every `E` rounds the simulation finalizes
    /// the epoch, feeds the beacon output back into sortition over the
    /// *current* membership (which may have churned), reshuffles committees
    /// with reputation carry-over and runs state sync for joiners. `0`
    /// disables the epoch machinery entirely — the run behaves exactly as
    /// before this field existed (single open-ended epoch, fixed membership).
    pub epoch_length: u64,
    /// Validators joining at every epoch boundary. Joiners enter in the
    /// `Syncing` membership state and abstain from votes (counted `Unknown`)
    /// until state sync verifies their chain against the certified tip.
    pub joins_per_epoch: u32,
    /// Validators leaving at every epoch boundary (picked by a deterministic
    /// hash lottery over the epoch randomness; clamped so the population
    /// never drops below the sortition floor).
    pub leaves_per_epoch: u32,
    /// Open-loop traffic drive: when set, transactions arrive at the
    /// configured rate in virtual time and queue in a backlog, with at most
    /// `txs_per_round` of them injected per round (`txs_per_round` becomes
    /// the round's packing *capacity*), and per-transaction confirm latency
    /// is tracked from arrival to quorum-certified block inclusion. `None`
    /// (the default) keeps the historical closed-loop workload — the
    /// generator feeds exactly `txs_per_round` fresh transactions every
    /// round and nothing ever waits.
    pub traffic: Option<TrafficConfig>,
    /// Which state store backs the per-shard UTXO sets. `Map` (the default)
    /// is a flat hash map. `Smt` switches to the authenticated sparse-Merkle
    /// backend: each round commits the shards' delta batches into versioned
    /// roots that ride the round report, and validation decisions stay
    /// identical (lookups go through the same O(1) mirror), so reports
    /// differ only by those roots. Map stays the default because of the
    /// SMT's resident memory: `benchmark/`'s `local-8x16` on `Smt` (seed
    /// 4242, three runs a backend, 2-vCPU x86-64) reads `peak_rss_mib`
    /// 29.21 → 34.62 (+18.5 %, against that metric's 10 % bound) and
    /// `alloc_mib_per_round` +3.2 %, with every exact metric equal.
    pub state_backend: StateBackend,
    /// Master seed for all deterministic randomness.
    pub seed: u64,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            committees: 4,
            committee_size: 12,
            partial_set_size: 3,
            referee_size: 7,
            txs_per_round: 200,
            cross_shard_ratio: 0.2,
            invalid_ratio: 0.05,
            accounts_per_shard: 64,
            pow_difficulty: 4,
            base_compute_capacity: 200,
            compute_capacity_spread: 100,
            latency: LatencyConfig::default(),
            adversary: AdversaryConfig::default(),
            verify_signatures: true,
            message_driven: false,
            worker_threads: 0,
            pipelined: false,
            epoch_length: 0,
            joins_per_epoch: 0,
            leaves_per_epoch: 0,
            traffic: None,
            state_backend: StateBackend::Map,
            seed: 42,
        }
    }
}

impl ProtocolConfig {
    /// Total number of ordinary (non-referee) nodes, `n = m·c`.
    pub fn ordinary_nodes(&self) -> usize {
        self.committees * self.committee_size
    }

    /// The shape of a round assignment under this configuration.
    pub fn assignment_params(&self) -> AssignmentParams {
        AssignmentParams {
            committees: self.committees,
            partial_set_size: self.partial_set_size,
            referee_size: self.referee_size,
        }
    }

    /// Total number of simulated nodes including the referee committee.
    pub fn total_nodes(&self) -> usize {
        self.ordinary_nodes() + self.referee_size
    }

    /// Validates internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.committees == 0 {
            return Err("at least one committee is required".into());
        }
        let least_committee = self.partial_set_size.checked_add(2);
        if least_committee.is_none_or(|least| self.committee_size < least) {
            return Err(format!(
                "committee size {} too small for partial set {} plus leader and a member",
                self.committee_size, self.partial_set_size
            ));
        }
        if self.referee_size < 3 {
            return Err("referee committee needs at least 3 members".into());
        }
        // `total_nodes()` must not overflow: it sizes the registry.
        let total = self.committees.checked_mul(self.committee_size);
        if total
            .and_then(|n| n.checked_add(self.referee_size))
            .is_none()
        {
            return Err(format!(
                "{} committees of {} plus {} referees overflow the node count",
                self.committees, self.committee_size, self.referee_size
            ));
        }
        if !(0.0..=1.0).contains(&self.cross_shard_ratio)
            || !(0.0..=1.0).contains(&self.invalid_ratio)
        {
            return Err("ratios must lie in [0, 1]".into());
        }
        if self.txs_per_round > MAX_TXS_PER_ROUND {
            return Err(format!(
                "{} transactions a round, over the limit of {MAX_TXS_PER_ROUND}",
                self.txs_per_round
            ));
        }
        if self.accounts_per_shard < 2 {
            return Err("need at least two accounts per shard".into());
        }
        if self.accounts_per_shard > MAX_ACCOUNTS_PER_SHARD {
            return Err(format!(
                "{} accounts per shard, over the limit of {MAX_ACCOUNTS_PER_SHARD}",
                self.accounts_per_shard
            ));
        }
        if self.epoch_length == 0 && (self.joins_per_epoch > 0 || self.leaves_per_epoch > 0) {
            return Err("validator churn requires epoch_length > 0".into());
        }
        if let Some(traffic) = &self.traffic {
            traffic.validate()?;
            if self.txs_per_round == 0 {
                return Err("open-loop traffic needs txs_per_round > 0 as round capacity".into());
            }
        }
        self.adversary.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let cfg = ProtocolConfig::default();
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.ordinary_nodes(), 48);
        assert_eq!(cfg.total_nodes(), 55);
    }

    #[test]
    fn invalid_configs_are_reported() {
        let bad_configs = [
            ProtocolConfig {
                committees: 0,
                ..ProtocolConfig::default()
            },
            ProtocolConfig {
                committee_size: 3,
                partial_set_size: 3,
                ..ProtocolConfig::default()
            },
            ProtocolConfig {
                referee_size: 1,
                ..ProtocolConfig::default()
            },
            ProtocolConfig {
                cross_shard_ratio: 1.5,
                ..ProtocolConfig::default()
            },
            ProtocolConfig {
                accounts_per_shard: 1,
                ..ProtocolConfig::default()
            },
            ProtocolConfig {
                joins_per_epoch: 2,
                ..ProtocolConfig::default()
            },
            ProtocolConfig {
                traffic: Some(TrafficConfig {
                    rate_tps: 0.0,
                    ..TrafficConfig::default()
                }),
                ..ProtocolConfig::default()
            },
            ProtocolConfig {
                traffic: Some(TrafficConfig::default()),
                txs_per_round: 0,
                ..ProtocolConfig::default()
            },
        ];
        for cfg in bad_configs {
            assert!(cfg.validate().is_err(), "{cfg:?} must be rejected");
        }
    }

    #[test]
    fn sizes_at_usize_max_are_rejected_not_overflowed() {
        let max = usize::MAX;
        let bad_configs = [
            ProtocolConfig {
                partial_set_size: max,
                ..ProtocolConfig::default()
            },
            ProtocolConfig {
                committee_size: max,
                partial_set_size: max - 1,
                ..ProtocolConfig::default()
            },
            ProtocolConfig {
                committees: max,
                ..ProtocolConfig::default()
            },
            ProtocolConfig {
                committee_size: max,
                ..ProtocolConfig::default()
            },
            ProtocolConfig {
                committees: 1,
                committee_size: max - 2,
                referee_size: 3,
                ..ProtocolConfig::default()
            },
            ProtocolConfig {
                referee_size: max,
                ..ProtocolConfig::default()
            },
        ];
        for cfg in bad_configs {
            assert!(cfg.validate().is_err(), "{cfg:?} must be rejected");
        }
        // The largest node count that fits is still a valid shape.
        let edge = ProtocolConfig {
            committees: 1,
            committee_size: max - 3,
            referee_size: 3,
            ..ProtocolConfig::default()
        };
        assert_eq!(edge.validate(), Ok(()));
        assert_eq!(edge.total_nodes(), max);
    }
}
