//! The protocol phases of a CycLedger round (§IV) plus the recovery
//! procedure, each as a separate module driven by [`crate::engine::pipeline`].
//! Committee configuration (§IV-B) has no module: a member's configuration is
//! its row of the configuration the block certifies (`block_generation`), and
//! the sortition proofs behind the rows are checked as they are drawn
//! (`crate::sortition`).

pub mod block_generation;
pub mod intra;
pub mod recovery;
pub mod reputation_update;
pub mod selection;
pub mod semi_commitment;
pub(crate) mod xshard;
