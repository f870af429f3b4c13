//! `TXList` vote collection under its `4Δ` deadline (§IV-C), as a pure
//! machine beside Algorithm 3's: plain values in, decisions through
//! [`crate::transition`], no network and no clock but the instants handed in.
//!
//! The leader opens a [`VoteCollector`] with its own votes, feeds it every
//! vote row that reaches it ([`VoteCollector::on_vote`]) and closes it when
//! the deadline fires or every seat has a row; closing backfills the seats
//! still missing (§IV-C step 4 — the quorum-timeout fallback) and tallies.
//! A member answers the announcement with [`member_reply`]. The
//! `cycledger-protocol` phase loops are the transport — they pump a network
//! and feed this — and `cycledger-checker` feeds the same machine every
//! schedule.

use std::marker::PhantomData;

use cycledger_net::time::{Deadline, SimTime};
use cycledger_net::topology::NodeId;

use crate::transition::{expected_votes_missing, Paper, Rules};
use crate::votes::{Tally, Vote, VoteList, VoteVector};

/// What a seated member does when the announcement reaches it: vote — or,
/// a `Syncing` joiner that may not vote yet, abstain (`None`; the leader
/// backfills its row, which counts against no transaction).
pub fn member_reply(
    member: NodeId,
    may_vote: bool,
    votes: impl FnOnce() -> Vec<Vote>,
) -> Option<VoteVector> {
    may_vote.then(|| VoteVector::new(member, votes()))
}

/// The leader's side of one vote collection over `seats`. (`Hash` is state
/// identity for an explorer.)
#[derive(Clone, Debug, Hash)]
pub struct VoteCollector<'c, R = Paper> {
    seats: &'c [NodeId],
    deadline: Deadline,
    list: VoteList,
    rules: PhantomData<R>,
}

/// A closed collection.
#[derive(Clone, Debug)]
pub struct Collected {
    /// One row per seat: those that arrived, then the backfill in seat order.
    pub list: VoteList,
    /// Seats whose row is backfill.
    pub missing: usize,
    /// The tally over `list`.
    pub tally: Tally,
}

impl<'c, R: Rules> VoteCollector<'c, R> {
    /// Opens the collection over the transactions of `list` (no rows yet)
    /// with the leader's own votes, which never travel.
    pub fn open(
        seats: &'c [NodeId],
        leader: NodeId,
        own_votes: Vec<Vote>,
        mut list: VoteList,
        deadline: Deadline,
    ) -> Self {
        list.record(VoteVector::new(leader, own_votes));
        VoteCollector {
            seats,
            deadline,
            list,
            rules: PhantomData,
        }
    }

    /// A vote row delivered to the leader at `at`. Counted — `true` — when it
    /// beats the deadline (inclusive, [`Deadline::includes`]), its voter
    /// holds a seat and it has one vote per transaction; a seat's later row
    /// replaces its earlier one.
    pub fn on_vote(&mut self, row: VoteVector, at: SimTime) -> bool {
        self.deadline.includes(at) && self.seats.contains(&row.voter) && self.list.record(row)
    }

    /// True once every seat has a row: nothing is left to wait for.
    pub fn complete(&self) -> bool {
        self.list.voter_count() == self.seats.len()
    }

    /// Closes the collection — the deadline fired, or it is
    /// [`complete`](Self::complete): every seat without a row gets the
    /// backfill row, and the tally runs over all of them.
    pub fn close(self) -> Collected {
        let VoteCollector {
            seats, mut list, ..
        } = self;
        let missing = expected_votes_missing(seats.len(), list.voter_count());
        let count = list.tx_ids.len();
        for &seat in seats {
            if !list.votes.iter().any(|row| row.voter == seat) {
                list.record(VoteVector::new(seat, vec![R::BACKFILL; count]));
            }
        }
        let tally = list.tally_by(seats.len(), R::tx_accepted);
        Collected {
            list,
            missing,
            tally,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycledger_crypto::sha256::sha256;
    use cycledger_net::time::SimDuration;

    const SEATS: [NodeId; 4] = [NodeId(10), NodeId(11), NodeId(12), NodeId(13)];
    const DEADLINE: SimTime = SimTime(4);

    /// A collection over two transactions, the leader's two `Yes` in.
    fn open() -> VoteCollector<'static> {
        let list = VoteList::new(vec![sha256(b"tx a"), sha256(b"tx b")]);
        let own = vec![Vote::Yes; 2];
        VoteCollector::open(&SEATS, SEATS[0], own, list, Deadline::at(DEADLINE))
    }

    fn row(voter: NodeId) -> VoteVector {
        VoteVector::new(voter, vec![Vote::Yes; 2])
    }

    #[test]
    fn a_vote_exactly_at_the_deadline_counts() {
        let mut collector = open();
        for seat in &SEATS[1..] {
            assert!(collector.on_vote(row(*seat), DEADLINE));
        }
        assert!(collector.complete());
        let collected = collector.close();
        assert_eq!(collected.missing, 0);
        assert_eq!(collected.tally.yes_counts, [4, 4]);
        assert_eq!(collected.tally.decision, [1, 1]);
    }

    #[test]
    fn a_vote_one_microsecond_late_is_backfilled_unknown() {
        let mut collector = open();
        assert!(collector.on_vote(row(SEATS[1]), SimTime::ZERO));
        assert!(collector.on_vote(row(SEATS[2]), DEADLINE));
        assert!(!collector.on_vote(row(SEATS[3]), DEADLINE.after(SimDuration::from_micros(1))));
        assert!(!collector.complete());
        let collected = collector.close();
        assert_eq!(collected.missing, 1);
        let backfill = VoteVector::new(SEATS[3], vec![Vote::Unknown; 2]);
        assert_eq!(collected.list.votes.last(), Some(&backfill));
        assert_eq!(collected.list.voter_count(), SEATS.len());
        // Three real rows of four still carry the strict majority.
        assert_eq!(collected.tally.yes_counts, [3, 3]);
        assert_eq!(collected.tally.decision, [1, 1]);
    }

    #[test]
    fn a_fully_missing_committee_reconciles_to_size_minus_one() {
        let collected = open().close();
        assert_eq!(collected.missing, SEATS.len() - 1);
        assert_eq!(collected.list.voter_count(), SEATS.len());
        // One Yes of four, never a manufactured one: everything is rejected.
        assert_eq!(collected.tally.yes_counts, [1, 1]);
        assert_eq!(collected.tally.decision, [-1, -1]);
    }

    /// The inline loop this machine replaced recorded any `Votes` vector the
    /// leader received, so a row from outside the committee counted toward
    /// `voter_count == size` (ending the collection early, one real vote
    /// short) and its `Yes` votes toward the tally.
    #[test]
    fn a_row_from_outside_the_committee_is_not_counted() {
        let mut collector = open();
        assert!(collector.on_vote(row(SEATS[1]), SimTime::ZERO));
        assert!(collector.on_vote(row(SEATS[2]), SimTime::ZERO));
        assert!(!collector.on_vote(row(NodeId(99)), SimTime::ZERO));
        assert!(!collector.complete(), "seat 13 has not voted");
        let collected = collector.close();
        assert_eq!(collected.missing, 1);
        assert_eq!(collected.tally.yes_counts, [3, 3]);
    }

    #[test]
    fn a_syncing_member_abstains_and_a_voting_one_replies() {
        assert_eq!(member_reply(SEATS[1], false, || unreachable!()), None);
        let reply = member_reply(SEATS[1], true, || vec![Vote::No]);
        assert_eq!(reply, Some(VoteVector::new(SEATS[1], vec![Vote::No])));
    }
}
