//! Transaction voting (Algorithm 5's `V List` / `TXdecSET` machinery).
//!
//! During intra-committee consensus every member receives the leader's `TXList`
//! and replies with a vote per transaction: `Yes`, `No`, or `Unknown` (the vote
//! an honest node casts when it cannot finish validating in time). The leader
//! keeps the transactions with a strict majority of `Yes` votes — that set is
//! `TXdecSET` — and assembles everyone's votes into `V List`, which later feeds
//! the reputation update (§IV-E).

use cycledger_ledger::transaction::TxId;
use cycledger_net::topology::NodeId;

/// A member's opinion on one transaction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Vote {
    /// The transaction is valid.
    Yes,
    /// The transaction is invalid.
    No,
    /// The member could not decide within the time limit.
    Unknown,
}

impl Vote {
    /// Numeric encoding used by the cosine-similarity score (+1 / −1 / 0).
    pub fn as_i8(self) -> i8 {
        match self {
            Vote::Yes => 1,
            Vote::No => -1,
            Vote::Unknown => 0,
        }
    }
}

/// One member's votes over an ordered transaction list.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct VoteVector {
    /// The voting member.
    pub voter: NodeId,
    /// One vote per transaction, in `TXList` order.
    pub votes: Vec<Vote>,
}

impl VoteVector {
    /// Creates a vote vector.
    pub fn new(voter: NodeId, votes: Vec<Vote>) -> Self {
        VoteVector { voter, votes }
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> u64 {
        4 + self.votes.len() as u64
    }
}

/// The leader's collected `V List`: every member's vote vector over one `TXList`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct VoteList {
    /// Transaction ids, in the order votes refer to them.
    pub tx_ids: Vec<TxId>,
    /// All members' vote vectors.
    pub votes: Vec<VoteVector>,
}

/// The outcome of tallying a [`VoteList`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tally {
    /// Transactions with a strict majority of `Yes` votes (the `TXdecSET`),
    /// by index into `tx_ids`.
    pub accepted_indices: Vec<usize>,
    /// The consensus decision vector `u`: `+1` for accepted, `-1` for rejected.
    pub decision: Vec<i8>,
    /// `Yes` counts per transaction (for diagnostics and tests).
    pub yes_counts: Vec<usize>,
}

impl VoteList {
    /// Creates a vote list for a transaction ordering.
    pub fn new(tx_ids: Vec<TxId>) -> Self {
        VoteList {
            tx_ids,
            votes: Vec::new(),
        }
    }

    /// Records a member's vote vector. Vectors of the wrong length are rejected
    /// (they would skew the tally); duplicate voters replace their earlier vote.
    pub fn record(&mut self, vector: VoteVector) -> bool {
        if vector.votes.len() != self.tx_ids.len() {
            return false;
        }
        if let Some(existing) = self.votes.iter_mut().find(|v| v.voter == vector.voter) {
            *existing = vector;
        } else {
            self.votes.push(vector);
        }
        true
    }

    /// Number of members that have voted.
    pub fn voter_count(&self) -> usize {
        self.votes.len()
    }

    /// Tallies the votes: a transaction enters `TXdecSET` iff strictly more than
    /// `committee_size / 2` members voted `Yes` (Algorithm 5, line 14).
    pub fn tally(&self, committee_size: usize) -> Tally {
        self.tally_by(committee_size, crate::transition::tx_accepted)
    }

    /// [`tally`](Self::tally) under an explicit acceptance rule — the vote
    /// collector's seam for [`crate::transition::Rules`].
    pub(crate) fn tally_by(
        &self,
        committee_size: usize,
        accepts: impl Fn(usize, usize) -> bool,
    ) -> Tally {
        let mut yes_counts = vec![0usize; self.tx_ids.len()];
        for vector in &self.votes {
            for (k, vote) in vector.votes.iter().enumerate() {
                if *vote == Vote::Yes {
                    yes_counts[k] += 1;
                }
            }
        }
        let mut accepted_indices = Vec::new();
        let mut decision = Vec::with_capacity(self.tx_ids.len());
        for (k, &yes) in yes_counts.iter().enumerate() {
            if accepts(yes, committee_size) {
                accepted_indices.push(k);
                decision.push(1);
            } else {
                decision.push(-1);
            }
        }
        Tally {
            accepted_indices,
            decision,
            yes_counts,
        }
    }

    /// Approximate wire size in bytes (ids plus one byte per vote).
    pub fn wire_size(&self) -> u64 {
        self.tx_ids.len() as u64 * 32 + self.votes.iter().map(|v| v.wire_size()).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycledger_crypto::sha256::hash_parts;
    use proptest::prelude::*;

    fn ids(n: usize) -> Vec<TxId> {
        (0..n)
            .map(|i| hash_parts(&[b"tx", &(i as u64).to_be_bytes()]))
            .collect()
    }

    #[test]
    fn majority_yes_enters_txdecset() {
        let mut list = VoteList::new(ids(3));
        // Committee of 5: tx0 gets 3 yes, tx1 gets 2 yes, tx2 gets 0.
        let votes = [
            vec![Vote::Yes, Vote::Yes, Vote::No],
            vec![Vote::Yes, Vote::Yes, Vote::No],
            vec![Vote::Yes, Vote::No, Vote::Unknown],
            vec![Vote::No, Vote::Unknown, Vote::No],
            vec![Vote::Unknown, Vote::No, Vote::No],
        ];
        for (i, v) in votes.into_iter().enumerate() {
            assert!(list.record(VoteVector::new(NodeId(i as u32), v)));
        }
        let tally = list.tally(5);
        assert_eq!(tally.accepted_indices, vec![0]);
        assert_eq!(tally.decision, vec![1, -1, -1]);
        assert_eq!(tally.yes_counts, vec![3, 2, 0]);
    }

    #[test]
    fn exactly_half_is_not_a_majority() {
        let mut list = VoteList::new(ids(1));
        for i in 0..2 {
            list.record(VoteVector::new(NodeId(i), vec![Vote::Yes]));
        }
        for i in 2..4 {
            list.record(VoteVector::new(NodeId(i), vec![Vote::No]));
        }
        // Committee of 4, 2 yes votes: 2*2 > 4 is false.
        let tally = list.tally(4);
        assert!(tally.accepted_indices.is_empty());
        assert_eq!(tally.decision, vec![-1]);
    }

    #[test]
    fn wrong_length_vote_rejected_and_duplicates_replace() {
        let mut list = VoteList::new(ids(2));
        assert!(!list.record(VoteVector::new(NodeId(0), vec![Vote::Yes])));
        assert!(list.record(VoteVector::new(NodeId(0), vec![Vote::Yes, Vote::Yes])));
        assert!(list.record(VoteVector::new(NodeId(0), vec![Vote::No, Vote::No])));
        assert_eq!(list.voter_count(), 1);
        let tally = list.tally(1);
        assert_eq!(tally.yes_counts, vec![0, 0]);
    }

    #[test]
    fn all_unknown_vector_counts_nothing() {
        let mut list = VoteList::new(ids(3));
        list.record(VoteVector::new(NodeId(0), vec![Vote::Unknown; 3]));
        list.record(VoteVector::new(NodeId(1), vec![Vote::Yes; 3]));
        let tally = list.tally(2);
        // 1 yes out of committee of 2 is not a strict majority... 1*2 > 2 false.
        assert!(tally.accepted_indices.is_empty());
        let tally = list.tally(1);
        assert_eq!(tally.accepted_indices, vec![0, 1, 2]);
    }

    #[test]
    fn vote_numeric_encoding() {
        assert_eq!(Vote::Yes.as_i8(), 1);
        assert_eq!(Vote::No.as_i8(), -1);
        assert_eq!(Vote::Unknown.as_i8(), 0);
    }

    #[test]
    fn wire_sizes() {
        let mut list = VoteList::new(ids(4));
        list.record(VoteVector::new(NodeId(0), vec![Vote::Yes; 4]));
        assert_eq!(list.wire_size(), 4 * 32 + 4 + 4);
        assert_eq!(
            VoteVector::new(NodeId(1), vec![Vote::Unknown; 10]).wire_size(),
            14
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_tally_matches_manual_count(
            votes in prop::collection::vec(prop::collection::vec(0u8..3, 5), 1..12)
        ) {
            let committee_size = votes.len();
            let mut list = VoteList::new(ids(5));
            for (i, row) in votes.iter().enumerate() {
                let vector: Vec<Vote> = row
                    .iter()
                    .map(|v| match v { 0 => Vote::Yes, 1 => Vote::No, _ => Vote::Unknown })
                    .collect();
                list.record(VoteVector::new(NodeId(i as u32), vector));
            }
            let tally = list.tally(committee_size);
            for k in 0..5 {
                let yes = votes.iter().filter(|row| row[k] == 0).count();
                prop_assert_eq!(tally.yes_counts[k], yes);
                prop_assert_eq!(tally.decision[k] == 1, yes * 2 > committee_size);
                prop_assert_eq!(tally.accepted_indices.contains(&k), yes * 2 > committee_size);
            }
        }
    }
}
