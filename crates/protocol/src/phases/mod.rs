//! The seven protocol phases of a CycLedger round (§IV) plus the recovery
//! procedure, each as a separate module driven by [`crate::engine::pipeline`].

pub mod block_generation;
pub mod configuration;
pub mod inter;
pub mod intra;
pub mod recovery;
pub mod reputation_update;
pub mod selection;
pub mod semi_commitment;
pub(crate) mod xshard;
