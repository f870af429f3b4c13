//! # cycledger-ledger
//!
//! The UTXO ledger substrate of the CycLedger reproduction:
//!
//! * [`transaction`] — accounts, outpoints, transactions, shard routing.
//! * [`utxo`] — per-shard UTXO sets and the authentication function `V`
//!   (existence, no double spend, value conservation — §III-D).
//! * [`store`] — the [`Store`] a shard's UTXOs live in: a flat map, or the
//!   same live map plus a sparse Merkle tree.
//! * [`smt`] — the authenticated backend: a compressed sparse Merkle tree
//!   updated in place by per-round batch commits, one root digest kept per
//!   round.
//! * [`block`] — blocks assembled by the referee committee, carrying the next
//!   round's configuration, and a structurally-verified chain.
//! * [`workload`] — deterministic external-user workload generation with
//!   configurable cross-shard and invalid-transaction ratios.

#![warn(missing_docs)]

pub mod block;
pub mod smt;
pub mod store;
pub mod transaction;
pub mod utxo;
pub mod workload;

pub use block::{Block, BlockHeader, Chain, ChainError, NextRoundConfig};
pub use smt::SmtStore;
pub use store::{StateBackend, Store};
pub use transaction::{AccountId, OutPoint, Transaction, TxId, TxInput, TxOutput};
pub use utxo::{validate_across_shards, UtxoSet, ValidationError};
pub use workload::{GeneratedTx, TxKind, Workload, WorkloadConfig};
