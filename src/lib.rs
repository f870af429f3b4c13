//! # CycLedger
//!
//! A from-scratch reproduction of *CycLedger: A Scalable and Secure Parallel
//! Protocol for Distributed Ledger via Sharding* (Zhang et al., IPDPS 2020).
//!
//! This facade crate re-exports the workspace's sub-crates so applications can
//! depend on a single crate:
//!
//! * [`crypto`] — SHA-256, Schnorr signatures, VRF, Merkle trees, PVSS, PoW.
//! * [`net`] — deterministic discrete-event network simulation and metrics.
//! * [`ledger`] — UTXO state, transactions, blocks, workload generation.
//! * [`consensus`] — Algorithm 3, quorum certificates, votes, witnesses.
//! * [`reputation`] — cosine scoring, the reward mapping `g(x)`, leader choice.
//! * [`protocol`] — the full round/simulation driver (the paper's contribution).
//! * [`analysis`] — failure-probability and complexity analysis (Fig. 5, Tables I–II).
//! * [`baselines`] — Elastico / OmniLedger / RapidChain comparison models.
//! * [`scenarios`] — declarative, invariant-gated scenario matrix (the
//!   `scenario-runner` CLI and the golden-report regression gate).
//! * [`checker`] — enumerating scheduler over the consensus machines the
//!   engine runs (every schedule at n = 4 / t = 1) and refinement of recorded
//!   executions against the shared decision core.
//!
//! ## Quickstart
//!
//! ```
//! use cycledger::protocol::{ProtocolConfig, Simulation};
//!
//! let mut config = ProtocolConfig::default();
//! config.committees = 2;
//! config.committee_size = 8;
//! config.partial_set_size = 2;
//! config.referee_size = 5;
//! config.txs_per_round = 50;
//! let mut sim = Simulation::new(config).expect("valid configuration");
//! let summary = sim.run(1);
//! assert_eq!(summary.blocks_produced(), 1);
//! ```

pub use cycledger_analysis as analysis;
pub use cycledger_baselines as baselines;
pub use cycledger_checker as checker;
pub use cycledger_consensus as consensus;
pub use cycledger_crypto as crypto;
pub use cycledger_ledger as ledger;
pub use cycledger_net as net;
pub use cycledger_protocol as protocol;
pub use cycledger_reputation as reputation;
pub use cycledger_scenarios as scenarios;
