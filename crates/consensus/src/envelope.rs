//! Typed committee-traffic envelopes for the message-driven data plane.
//!
//! The synchronous simulation computes votes and list forwards directly and
//! only *accounts* their traffic; the message-driven mode instead routes every
//! committee interaction — `TXList` announcements, vote replies, the whole
//! Algorithm 3 exchange, certified-list forwarding, recovery accusations and
//! impeachment votes — through the discrete-event network as
//! [`CommitteeMessage`] envelopes, so partitions, targeted delay, loss and
//! reordering can actually perturb consensus.
//!
//! [`CarriesAlg3`] is the small adapter that lets the network-driven
//! Algorithm 3 executor run over any envelope type that can embed its
//! PROPOSE / ECHO / CONFIRM traffic: the classic [`Alg3Message`] network uses
//! the identity embedding, while a [`CommitteeMessage`] network wraps and
//! unwraps the [`CommitteeMessage::Alg3`] variant (ignoring unrelated
//! envelopes that are still in flight, e.g. vote replies arriving after the
//! leader's collection deadline).

use crate::messages::Alg3Message;
use crate::votes::VoteVector;
use cycledger_crypto::sha256::Digest;
use cycledger_ledger::block::HeaderSummary;
use cycledger_net::topology::NodeId;

/// An envelope type that can embed Algorithm 3 traffic.
pub trait CarriesAlg3: Clone {
    /// Wraps an Algorithm 3 message for transmission.
    fn from_alg3(message: Alg3Message) -> Self;

    /// Unwraps the Algorithm 3 message, or `None` if the envelope carries
    /// something else (which the Algorithm 3 event loop skips).
    fn into_alg3(self) -> Option<Alg3Message>;
}

impl CarriesAlg3 for Alg3Message {
    fn from_alg3(message: Alg3Message) -> Self {
        message
    }

    fn into_alg3(self) -> Option<Alg3Message> {
        Some(self)
    }
}

/// Every kind of committee traffic the message-driven phases exchange.
///
/// Envelopes carry the data that influences receiver control flow; wire
/// sizes are charged separately at send time (exactly as the accounting-only
/// path did), so byte metrics stay comparable between the two modes.
#[derive(Clone, Debug)]
// Alg3 traffic dominates every committee exchange (one PROPOSE/ECHO/CONFIRM
// per member per instance); boxing it to shrink the rare small variants
// would put an allocation on the hottest send path.
#[allow(clippy::large_enum_variant)]
pub enum CommitteeMessage {
    /// Leader → members: the round's `TXList` announcement (the transaction
    /// payload itself is shared simulation state; `count` pins the length
    /// every member votes over).
    TxList {
        /// Committee / shard index.
        committee: u32,
        /// Number of offered transactions.
        count: u32,
    },
    /// Member → leader: the member's vote vector over the announced list.
    Votes(VoteVector),
    /// Embedded Algorithm 3 traffic (PROPOSE / ECHO / CONFIRM).
    Alg3(Alg3Message),
    /// Leader → referee members: the certified `TXdecSET` forward.
    CertForward {
        /// Committee / shard index.
        committee: u32,
        /// Number of decided transactions.
        decided: u32,
    },
    /// Input-committee key member → destination leader / partial set: a
    /// certified cross-shard `TXList_{i,j}`.
    ListForward {
        /// Input shard.
        input: u32,
        /// Output shard.
        output: u32,
        /// Number of forwarded transactions.
        count: u32,
    },
    /// Destination leader → input leader: the certified vote result.
    ListReply {
        /// Input shard.
        input: u32,
        /// Output shard.
        output: u32,
        /// Number of accepted transactions.
        accepted: u32,
    },
    /// Recovery prosecutor → committee: an accusation against the leader.
    Accusation {
        /// Committee the accusation concerns.
        committee: u32,
        /// The accused leader.
        accused: NodeId,
    },
    /// Committee member → prosecutor: the impeachment vote.
    ImpeachVote {
        /// Committee the vote concerns.
        committee: u32,
        /// Whether the member approves the impeachment.
        approve: bool,
    },
    /// Syncing member → peer: request for a chunk of the shard's chain,
    /// starting at `from_round` and capped at `max_blocks` headers.
    SyncRequest {
        /// First round wanted (0 = from genesis).
        from_round: u64,
        /// Chunk size cap the requester will accept.
        max_blocks: u32,
        /// Request ordinal, echoed in the reply so the requester can discard
        /// stale chunks that arrive after it rotated to another peer.
        request_id: u64,
    },
    /// Peer → syncing member: one chunk of header summaries. The block
    /// payloads are shared simulation state; what the requester must verify
    /// over the wire is the header linkage, carried here.
    SyncChunk {
        /// Round of the first header in the chunk.
        from_round: u64,
        /// `(round, prev_hash, header_hash)` per block, in round order.
        headers: Vec<HeaderSummary>,
        /// Echo of the request ordinal this chunk answers.
        request_id: u64,
    },
    /// Syncing member → peers: catch-up complete; the verified tip.
    SyncDone {
        /// Height the member synced to.
        height: u64,
        /// Hash of the tip header the member verified.
        tip: Digest,
    },
}

impl CarriesAlg3 for CommitteeMessage {
    fn from_alg3(message: Alg3Message) -> Self {
        CommitteeMessage::Alg3(message)
    }

    fn into_alg3(self) -> Option<Alg3Message> {
        match self {
            CommitteeMessage::Alg3(message) => Some(message),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{make_propose_unsigned, ConsensusId};
    use crate::votes::Vote;

    #[test]
    fn alg3_identity_embedding_round_trips() {
        let propose = make_propose_unsigned(
            ConsensusId { round: 1, seq: 2 },
            b"payload".to_vec(),
            NodeId(3),
        );
        let message = Alg3Message::Propose(propose);
        let wrapped = Alg3Message::from_alg3(message.clone());
        assert_eq!(wrapped.clone().into_alg3(), Some(message));
        let _ = wrapped;
    }

    #[test]
    fn committee_envelope_wraps_and_filters() {
        let propose = make_propose_unsigned(
            ConsensusId { round: 1, seq: 2 },
            b"payload".to_vec(),
            NodeId(3),
        );
        let alg3 = Alg3Message::Propose(propose);
        let wrapped = CommitteeMessage::from_alg3(alg3.clone());
        assert_eq!(wrapped.into_alg3(), Some(alg3));
        // Non-Alg3 envelopes unwrap to None — the Alg3 event loop skips them.
        let votes = CommitteeMessage::Votes(VoteVector::new(NodeId(1), vec![Vote::Yes]));
        assert!(votes.into_alg3().is_none());
        assert!(CommitteeMessage::TxList {
            committee: 0,
            count: 4
        }
        .into_alg3()
        .is_none());
    }

    #[test]
    fn sync_envelopes_are_not_alg3_traffic() {
        assert!(CommitteeMessage::SyncRequest {
            from_round: 0,
            max_blocks: 8,
            request_id: 1,
        }
        .into_alg3()
        .is_none());
        assert!(CommitteeMessage::SyncChunk {
            from_round: 0,
            headers: vec![HeaderSummary {
                round: 0,
                prev_hash: Digest::ZERO,
                hash: Digest([1; 32]),
            }],
            request_id: 1,
        }
        .into_alg3()
        .is_none());
        assert!(CommitteeMessage::SyncDone {
            height: 4,
            tip: Digest([2; 32]),
        }
        .into_alg3()
        .is_none());
    }
}
