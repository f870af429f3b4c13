//! # cycledger-consensus
//!
//! The intra-committee consensus machinery of CycLedger:
//!
//! * [`messages`] — signed PROPOSE / ECHO / CONFIRM messages of Algorithm 3.
//! * [`envelope`] — typed committee-traffic envelopes ([`CommitteeMessage`])
//!   for the message-driven data plane, where votes, list forwards and
//!   recovery accusations travel through the discrete-event network.
//! * [`alg3`] — per-node state machines for Algorithm 3, including equivocation
//!   detection from conflicting leader-signed proposals, and
//!   [`alg3::Instance`], one committee's worth of them composed: the unit a
//!   transport opens, steps message by message and closes.
//! * [`collect`] — the `TXList` vote collection under its `4Δ` deadline, and
//!   [`impeach`] — the impeachment vote of the recovery procedure: pure
//!   machines of the same shape as [`alg3`]'s.
//! * [`quorum`] — transferable quorum certificates ("SigList") and their
//!   verification against a committee key directory.
//! * [`sigcache`] — per-instance memoization of signature verification, so the
//!   simulator pays each distinct `(key, message, signature)` check once
//!   instead of once per receiving member — the receivers of the instance's
//!   certificate included: the memo travels with it.
//! * [`transition`] — the single side-effect-free decision core (thresholds,
//!   tallies, impeachment rules) every machine here decides through.
//! * [`votes`] — `TXList` voting, `V List` assembly, and the `TXdecSET` tally
//!   (Algorithm 5).
//! * [`witness`] — leader-misbehaviour witnesses (equivocation, semi-commitment
//!   mismatch) that feed the recovery procedure (Algorithm 6, Claims 3 & 4).
//!
//! Everything here is transport-agnostic: the `cycledger-protocol` crate pumps
//! these machines over the simulated network, and `cycledger-checker` steps
//! the same machines — the same composed instance — through every schedule
//! of a small committee.

#![warn(missing_docs)]

pub mod alg3;
pub mod collect;
pub mod envelope;
pub mod impeach;
pub mod messages;
pub mod quorum;
pub mod sigcache;
pub mod transition;
pub mod votes;
pub mod witness;

pub use alg3::{LeaderState, MemberAction, MemberState};
pub use envelope::{CarriesAlg3, CommitteeMessage};
pub use messages::{Alg3Message, Confirm, ConsensusId, Echo, Propose};
pub use quorum::{verify_certs_batch, CommitteeKeys, QuorumCertificate, QuorumError};
pub use sigcache::{SigCache, Verdicts};
pub use votes::{Tally, Vote, VoteList, VoteVector};
pub use witness::{
    member_list_signing_bytes, semi_commitment, CommitmentMismatchEvidence, EquivocationEvidence,
    Witness,
};
