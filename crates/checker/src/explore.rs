//! The enumerating scheduler: every schedule of one small committee, run on
//! the machines the engine runs.
//!
//! **Explored.** One committee of n = 4 (seat 0 leads first, seats 1 and 2
//! are the partial set) through 2 chained rounds of the intra-committee
//! pipeline: the `TXList` vote under its deadline, Algorithm 3 over the
//! tally, and — where [`transition::needs_recovery`] routes the committee
//! there, once a round, as `engine::pipeline::intra_recovery` does — the
//! impeachment vote and a retry under the replacement leader. Every message
//! a machine emits is one unit in flight; a transition delivers or drops one,
//! fires the vote deadline, or closes a phase with nothing left to wait for.
//!
//! **Real.** Every reaction: vote rows, backfill and tally come from
//! [`VoteCollector`] / [`member_reply`], every PROPOSE, ECHO, CONFIRM,
//! certificate and piece of evidence from the [`Instance`] the engine pumps
//! — who is proposed what, whose machine a message reaches, what goes on
//! file — with real keys and signatures, every impeachment answer, count and
//! verdict from [`Impeachment`]. This module is a transport, as the phase
//! loops are: it moves what the machines emit (a test pins the two
//! transports equal on one schedule) and checks the invariants on what they
//! produce — a closed vote with the function [`crate::refine`] checks a
//! production one with, under the same rule names.
//!
//! **Abstract.** The schedule's granularity: an ECHO reaches every live
//! member or none; one valid transaction is offered and everybody votes `Yes`
//! on it; a delivery before the deadline happens *at* the deadline instant;
//! an evicted leader's replacement is the first honest member of the partial
//! set, not the hash lottery's pick. A phase that ends takes its machines
//! with it: the decision, the certificate's existence, the first evidence
//! and the leader cross into the next. ARCHITECTURE.md ("Model checking")
//! has the reasons and the numbers.
//!
//! **State identity.** The exact encoding — the `Hash` stream, collected byte
//! for byte — of the machines' behaviour-relevant fields and of the messages
//! in flight, those in a canonical order. Only the verdict memo is left out,
//! which the whole exploration shares so that a signature is verified once.
//! Seats are not permuted: over-distinguishing costs states, where a lossy
//! projection would be unsound. The explorer keeps a 128-bit fingerprint of
//! each encoding and a parent link, and only the frontier as states.

use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};

use cycledger_consensus::alg3::{Action, Instance, Seats};
use cycledger_consensus::collect::{member_reply, Collected, VoteCollector};
use cycledger_consensus::impeach::{Accusation, Impeachment, Verdict};
use cycledger_consensus::messages::{Alg3Message, ConsensusId};
use cycledger_consensus::quorum::CommitteeKeys;
use cycledger_consensus::sigcache::SigCache;
use cycledger_consensus::transition::{self, Paper, Rules};
use cycledger_consensus::votes::{Vote, VoteList, VoteVector};
use cycledger_consensus::witness::EquivocationEvidence;
use cycledger_crypto::schnorr::Keypair;
use cycledger_crypto::sha256::{sha256, Digest};
use cycledger_net::time::{Deadline, SimTime};
use cycledger_net::topology::NodeId;
use cycledger_protocol::phases::intra::decision_payload;
use cycledger_protocol::Behavior;

use crate::refine::{check_vote, Failure};

const COMMITTEE_SIZE: usize = 4;
const ROUNDS: u64 = 2;
/// The seats of the partial set: prosecutors and replacement leaders.
const PARTIAL_SET: [usize; 2] = [1, 2];
/// The one instant the scheduler knows — the vote deadline, at which every
/// delivery that beats it happens.
const DEADLINE: SimTime = SimTime(4);

/// Fault configuration of a run — at most one faulty node (`t = 1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// Everyone follows the protocol.
    AllHonest,
    /// Seat 0, while it leads, never announces or proposes anything.
    SilentLeader,
    /// Seat 0, while it leads, proposes another payload to seats 1 and 3
    /// (the `idx % 2 == 1` split of `LeaderFault::Equivocate`).
    EquivocatingLeader,
    /// Seat 3 is crash-stopped from the start: it sends nothing and nothing
    /// addressed to it is delivered.
    CrashedMember,
    /// Seat 1 is malicious: it follows the protocol, and after every first
    /// pass that certified it accuses the live leader of a timeout nobody
    /// observed.
    FalseAccusation,
}

impl Scenario {
    fn crashed(self, seat: usize) -> bool {
        self == Scenario::CrashedMember && seat == 3
    }

    fn honest(self, seat: usize) -> bool {
        !(self == Scenario::FalseAccusation && seat == 1)
    }

    /// How the leader in `seat` behaves: only seat 0 is ever a faulty leader.
    fn leader_behavior(self, seat: usize) -> Behavior {
        match self {
            Scenario::SilentLeader if seat == 0 => Behavior::SilentLeader,
            Scenario::EquivocatingLeader if seat == 0 => Behavior::EquivocatingLeader,
            _ => Behavior::Honest,
        }
    }
}

/// Deliberately broken rules, planted in the machines through their
/// [`Rules`] parameter: exploring with one MUST produce a violation, which is
/// what makes the zero under [`Paper`] mean something.
pub mod broken {
    use super::{Rules, Vote};

    /// Accepts a transaction at exactly half the committee.
    #[derive(Clone, Hash)]
    pub struct CommitAtHalf;
    impl Rules for CommitAtHalf {
        fn tx_accepted(yes_votes: usize, committee_size: usize) -> bool {
            yes_votes * 2 >= committee_size
        }
    }

    /// Backfills members missing at the vote deadline as `Yes` voters.
    #[derive(Clone, Hash)]
    pub struct BackfillYes;
    impl Rules for BackfillYes {
        const BACKFILL: Vote = Vote::Yes;
    }

    /// Members approve any accusation and the referee committee does not
    /// re-verify: a vote majority alone evicts.
    #[derive(Clone, Hash)]
    pub struct SkipRefereeCheck;
    impl Rules for SkipRefereeCheck {
        fn member_approves_impeachment(_: bool, _: bool) -> bool {
            true
        }
        fn referee_upholds(_: bool) -> bool {
            true
        }
    }
}

/// The committee a run is about: seats in committee order with their key
/// pairs, the one offered transaction, and the verdict memo every machine of
/// the run shares.
pub struct Fixture {
    seats: Vec<NodeId>,
    keypairs: Vec<Keypair>,
    keys: CommitteeKeys,
    tx: Digest,
    memo: SigCache,
}

impl Fixture {
    /// A committee of `members` (seat 0 leads first) offered `tx`.
    pub fn new(members: &[(NodeId, Keypair)], tx: Digest) -> Fixture {
        assert_eq!(members.len(), COMMITTEE_SIZE);
        Fixture {
            seats: members.iter().map(|(node, _)| *node).collect(),
            keypairs: members.iter().map(|(_, keypair)| *keypair).collect(),
            keys: CommitteeKeys::new(members.iter().map(|(node, kp)| (*node, kp.public))),
            tx,
            memo: SigCache::new(),
        }
    }

    fn seat_of(&self, node: NodeId) -> usize {
        let seat = self.seats.iter().position(|&seat| seat == node);
        seat.expect("machines only name seated nodes")
    }
}

impl Default for Fixture {
    fn default() -> Fixture {
        let seed = |i: u32| format!("checker-seat-{i}");
        let member = |i: u32| (NodeId(i), Keypair::from_seed(seed(i).as_bytes()));
        let members: Vec<_> = (0..COMMITTEE_SIZE as u32).map(member).collect();
        Fixture::new(&members, sha256(b"the one modelled transaction"))
    }
}

/// A safety violation, with the schedule that reached it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which assertion failed.
    pub kind: &'static str,
    /// Human-readable detail.
    pub detail: String,
    /// The actions from the initial state to the violating one.
    pub trace: Vec<String>,
}

/// Result of exhaustively exploring one scenario.
#[derive(Clone, Debug, Default)]
pub struct ExploreStats {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions taken (including ones leading to already-visited states).
    pub transitions: usize,
    /// Safety violations found (empty under the paper's rules).
    pub violations: Vec<Violation>,
    /// Terminal states reached (both rounds over).
    pub terminal_states: usize,
    /// Of those, how many committed in both rounds.
    pub full_commit_terminals: usize,
}

/// A message in flight. Seats index the fixture; the machines' own messages
/// name their sender.
#[derive(Clone, Hash)]
// Algorithm 3 traffic is most of what is ever in flight: boxing it would put
// an allocation per message on every state clone.
#[allow(clippy::large_enum_variant)]
enum Msg {
    Announce(usize),
    Vote(VoteVector),
    Alg3(Action),
    Accusation(usize),
    ImpeachVote(usize, bool),
}

impl Msg {
    /// `(kind, seat)`: unique among the messages of one phase, so sorting by
    /// it is the canonical order of a state's encoding.
    fn key(&self, fx: &Fixture) -> (&'static str, usize) {
        match self {
            Msg::Announce(to) => ("Announce", *to),
            Msg::Vote(row) => ("Vote", fx.seat_of(row.voter)),
            // One PROPOSE a receiver, one ECHO and one CONFIRM a sender.
            Msg::Alg3(Action { from, to, message }) => match (message, to) {
                (Alg3Message::Propose(_), Some(to)) => ("Propose", fx.seat_of(*to)),
                (Alg3Message::Echo(_), _) => ("Echo", fx.seat_of(*from)),
                _ => ("Confirm", fx.seat_of(*from)),
            },
            Msg::Accusation(to) => ("Accusation", *to),
            Msg::ImpeachVote(from, _) => ("ImpeachVote", *from),
        }
    }
}

#[derive(Clone, Hash)]
struct Collect<'f, R> {
    collector: VoteCollector<'f, R>,
    /// Rows the collector counted, the leader's own included — kept beside
    /// it so the accounting invariants have a second opinion.
    received: usize,
    timer_fired: bool,
}

#[derive(Clone, Hash)]
enum Phase<'f, R> {
    Collect(Collect<'f, R>),
    /// The decision vector the vote tallied, and the instance certifying it.
    Alg3(Vec<i8>, Instance<'f>),
    Recovery(Impeachment<'f, R>),
    Done,
}

#[derive(Clone)]
struct State<'f, R> {
    round: u64,
    /// This pass is the retry under a replacement leader.
    retry: bool,
    /// Seat of the sitting leader.
    leader: usize,
    /// The round's last pass certified an accepted transaction.
    standing: bool,
    /// Bit per round that ended with a standing decision.
    committed: u8,
    phase: Phase<'f, R>,
    /// Messages in flight, in send order.
    pending: Vec<Msg>,
}

/// Collects a `Hash` stream byte for byte: the exact encoding of a state.
struct Encoder(Vec<u8>);

impl Hasher for Encoder {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn finish(&self) -> u64 {
        unreachable!("the encoding is read, not finished")
    }
}

/// A transition: its label, the state it leads to — returned even when an
/// invariant broke on the way — and whether one did.
type Successor<'f, R> = (String, State<'f, R>, Result<(), Failure>);

struct Run<'f> {
    fx: &'f Fixture,
    scenario: Scenario,
}

impl<'f> Run<'f> {
    fn initial<R: Rules + Clone>(&self) -> State<'f, R> {
        let mut state = State {
            round: 0,
            retry: false,
            leader: 0,
            standing: false,
            committed: 0,
            phase: Phase::Done,
            pending: Vec::new(),
        };
        self.enter_pass(&mut state);
        state
    }

    fn fingerprint<R: Hash>(&self, state: &State<'f, R>) -> [u8; 16] {
        let mut pending: Vec<&Msg> = state.pending.iter().collect();
        pending.sort_by_key(|msg| msg.key(self.fx));
        let mut out = Encoder(Vec::with_capacity(4096));
        (state.round, state.retry, state.leader, state.standing).hash(&mut out);
        (state.committed, &state.phase, pending).hash(&mut out);
        let digest = sha256(&out.0);
        digest.as_bytes()[..16].try_into().expect("sixteen bytes")
    }

    fn live_seats(&self) -> impl Iterator<Item = usize> + '_ {
        (0..COMMITTEE_SIZE).filter(|&seat| !self.scenario.crashed(seat))
    }

    /// Partial-set seats that can still act, the sitting leader excluded.
    fn partial_set(&self, leader: usize) -> impl Iterator<Item = usize> + '_ {
        let live = move |seat: &usize| *seat != leader && !self.scenario.crashed(*seat);
        PARTIAL_SET.into_iter().filter(live)
    }

    // ---- the passes of a round ------------------------------------------

    /// Starts a pass of the current round: the leader announces the `TXList`
    /// — unless it is silent, which `run_intra_consensus` reports without a
    /// vote and the engine routes to recovery.
    fn enter_pass<R: Rules + Clone>(&self, state: &mut State<'f, R>) {
        let fx = self.fx;
        state.pending.clear();
        state.standing = false;
        if self.scenario.leader_behavior(state.leader) == Behavior::SilentLeader {
            return self.after_consensus(state, true, None, false);
        }
        let (list, deadline) = (VoteList::new(vec![fx.tx]), Deadline::at(DEADLINE));
        let leader = fx.seats[state.leader];
        state.phase = Phase::Collect(Collect {
            collector: VoteCollector::open(&fx.seats, leader, vec![Vote::Yes], list, deadline),
            received: 1,
            timer_fired: false,
        });
        let to = self.live_seats().filter(|&seat| seat != state.leader);
        state.pending.extend(to.map(Msg::Announce));
    }

    /// Closes the vote into Algorithm 3 over its decision, and checks the
    /// closed collection as the refiner checks a production one.
    fn finish_collect<R: Rules + Clone>(
        &self,
        state: &mut State<'f, R>,
        collected: Collected,
        received: usize,
    ) -> Result<(), Failure> {
        let Collected {
            list,
            tally,
            missing,
        } = &collected;
        // What is still in flight is past the deadline: the Algorithm 3 loop
        // consumes and ignores it.
        state.pending.clear();
        let decided = tally.accepted_indices.iter().map(|&i| list.tx_ids[i]);
        self.start_alg3(state, tally.decision.clone(), decision_payload(decided));
        check_vote(COMMITTEE_SIZE, list, *missing, received, &tally.decision)?;
        Ok(())
    }

    /// Opens the pass's instance on the shared memo, nobody seated mute, and
    /// puts the leader's opening in flight.
    fn start_alg3<R>(&self, state: &mut State<'f, R>, decision: Vec<i8>, payload: Vec<u8>) {
        let fx = self.fx;
        let seats = Seats {
            nodes: &fx.seats,
            keypairs: &fx.keypairs,
            mute: &[false; COMMITTEE_SIZE],
            keys: &fx.keys,
            leader: fx.seats[state.leader],
        };
        let (round, seq) = (state.round, 1_000);
        let id = ConsensusId { round, seq };
        let behavior = self.scenario.leader_behavior(state.leader);
        let (fault, memo) = (behavior.leader_fault(&payload), fx.memo.clone());
        let mut opening = Vec::new();
        let instance = Instance::open(seats, id, payload, fault, true, memo, &mut opening);
        self.put_in_flight(opening, &mut state.pending);
        state.phase = Phase::Alg3(decision, instance);
    }

    /// Puts what an instance asked to have sent in flight, an ECHO as one
    /// unit; what is addressed to a crashed seat is lost on the spot.
    fn put_in_flight(&self, asked: Vec<Action>, pending: &mut Vec<Msg>) {
        let crashed = |node| self.scenario.crashed(self.fx.seat_of(node));
        let sent = asked
            .into_iter()
            .filter(|action| !action.to.is_some_and(crashed));
        pending.extend(sent.map(Msg::Alg3));
    }

    /// What follows a pass's consensus, as the engine routes it: recovery —
    /// once a round — when [`transition::needs_recovery`] says so (or when
    /// the false accuser fabricates a complaint), else the round ends.
    fn after_consensus<R: Rules + Clone>(
        &self,
        state: &mut State<'f, R>,
        leader_silent: bool,
        evidence: Option<&EquivocationEvidence>,
        certified: bool,
    ) {
        let fx = self.fx;
        let genuine =
            transition::needs_recovery(leader_silent, evidence.is_some(), certified, true);
        let accuses = genuine || self.scenario == Scenario::FalseAccusation;
        let prosecutor = self.partial_set(state.leader).next();
        let (true, false, Some(prosecutor)) = (accuses, state.retry, prosecutor) else {
            return self.finish_round(state);
        };
        let leader = fx.seats[state.leader];
        let accusation = Accusation::after_consensus(evidence, leader, 0, genuine);
        state.phase = Phase::Recovery(Impeachment::open(
            &fx.seats,
            leader,
            &accusation,
            &fx.keypairs[state.leader].public,
            fx.seats[prosecutor],
            self.scenario.honest(prosecutor),
        ));
        let to = self.live_seats().filter(|&seat| seat != prosecutor);
        state.pending.extend(to.map(Msg::Accusation));
    }

    /// Closes the impeachment: an eviction installs the replacement and
    /// retries the round's consensus under it.
    fn finish_recovery<R: Rules + Clone>(
        &self,
        state: &mut State<'f, R>,
        vote: &Impeachment<'f, R>,
    ) -> Result<(), Failure> {
        if vote.verdict() != Verdict::Evict {
            self.finish_round(state);
            return Ok(());
        }
        // The first honest member of the partial set, else the first: a
        // malicious one leads by the protocol too.
        let candidates = self.partial_set(state.leader);
        let replacement = candidates.min_by_key(|&seat| !self.scenario.honest(seat));
        state.leader = replacement.expect("the prosecutor sits in the partial set");
        state.retry = true;
        self.enter_pass(state);
        if vote.evidence_valid() {
            return Ok(());
        }
        let detail = "leader evicted on an accusation that was not admissible";
        Err(("eviction-without-evidence", detail.to_string()))
    }

    fn finish_round<R: Rules + Clone>(&self, state: &mut State<'f, R>) {
        state.committed |= u8::from(state.standing) << state.round;
        state.pending.clear();
        if state.round + 1 < ROUNDS {
            state.round += 1;
            state.retry = false;
            self.enter_pass(state);
        } else {
            state.phase = Phase::Done;
        }
    }

    // ---- the transition relation ----------------------------------------

    /// Every transition out of `state`, deliveries in send order first.
    fn successors<R: Rules + Clone>(&self, state: &State<'f, R>) -> Vec<Successor<'f, R>> {
        let closing = match &state.phase {
            Phase::Done => return Vec::new(),
            Phase::Collect(collect) => collect.timer_fired || collect.collector.complete(),
            _ => state.pending.is_empty(),
        };
        if closing {
            let mut next = state.clone();
            let outcome = self.close_phase(&mut next);
            return vec![("phase completes".to_string(), next, outcome)];
        }
        let mut successors = Vec::new();
        for index in 0..state.pending.len() {
            let (kind, seat) = state.pending[index].key(self.fx);
            let mut dropped = state.clone();
            let msg = dropped.pending.remove(index);
            let mut delivered = dropped.clone();
            let outcome = self.deliver(&mut delivered, msg);
            successors.push((format!("deliver {kind}[{seat}]"), delivered, outcome));
            successors.push((format!("drop {kind}[{seat}]"), dropped, Ok(())));
        }
        if let Phase::Collect(collect) = &state.phase {
            // The deadline can fire before, between or after any delivery; a
            // delivery enabled beside it is one that beat it.
            let mut fired = state.clone();
            fired.phase = Phase::Collect(Collect {
                timer_fired: true,
                ..collect.clone()
            });
            successors.push(("fire vote deadline".to_string(), fired, Ok(())));
        }
        successors
    }

    fn close_phase<R: Rules + Clone>(&self, state: &mut State<'f, R>) -> Result<(), Failure> {
        match std::mem::replace(&mut state.phase, Phase::Done) {
            Phase::Collect(collect) => {
                self.finish_collect(state, collect.collector.close(), collect.received)
            }
            Phase::Alg3(decision, instance) => {
                let certified = instance.certificate().is_some();
                state.standing = certified && decision.iter().any(|&d| d > 0);
                self.after_consensus(state, false, instance.equivocation().first(), certified);
                Ok(())
            }
            Phase::Recovery(vote) => self.finish_recovery(state, &vote),
            Phase::Done => Ok(()),
        }
    }

    /// Hands one message to the machine it is addressed to and puts what the
    /// machine emits in flight.
    fn deliver<R: Rules>(&self, state: &mut State<'f, R>, msg: Msg) -> Result<(), Failure> {
        let fx = self.fx;
        let State { phase, pending, .. } = state;
        match (phase, msg) {
            (Phase::Collect(_), Msg::Announce(to)) => {
                let reply = member_reply(fx.seats[to], true, || vec![Vote::Yes]);
                pending.extend(reply.map(Msg::Vote));
            }
            (Phase::Collect(collect), Msg::Vote(row)) => {
                collect.received += usize::from(collect.collector.on_vote(row, DEADLINE));
            }
            (Phase::Alg3(_, instance), Msg::Alg3(Action { from, to, message })) => {
                let live = self.live_seats().map(|seat| fx.seats[seat]);
                let to: Vec<NodeId> = match to {
                    Some(to) => vec![to],
                    None => live.filter(|&node| node != from).collect(),
                };
                let mut asked = Vec::new();
                for to in to {
                    instance.deliver(to, &message, &mut asked);
                }
                self.put_in_flight(asked, pending);
                let threshold = fx.keys.majority_threshold();
                for formed in instance.certificates() {
                    if let Err(error) = formed.verify_memoized(&fx.keys, threshold, &fx.memo) {
                        return Err(("invalid-certificate", format!("{error:?}")));
                    }
                }
                if instance.certificates().count() > 1 {
                    let detail = "two digests certified in one instance".to_string();
                    return Err(("conflicting-certificates", detail));
                }
            }
            (Phase::Recovery(vote), Msg::Accusation(to)) => {
                let answer = vote.member_vote(fx.seats[to], self.scenario.honest(to), true);
                pending.extend(answer.map(|approve| Msg::ImpeachVote(to, approve)));
            }
            (Phase::Recovery(vote), Msg::ImpeachVote(from, approve)) => {
                vote.on_vote(fx.seats[from], approve);
            }
            _ => unreachable!("a phase that ends takes its messages with it"),
        }
        Ok(())
    }

    /// BFS over every schedule.
    fn explore<R: Rules + Clone + Hash>(&self) -> ExploreStats {
        let mut stats = ExploreStats::default();
        // Fingerprint → index; per index, the parent and the action from it.
        let mut seen: HashMap<[u8; 16], u32> = HashMap::new();
        let mut parents: Vec<(u32, String)> = Vec::new();
        let mut frontier: VecDeque<(u32, State<'f, R>)> = VecDeque::new();
        let trace = |parents: &[(u32, String)], mut at: u32| {
            let mut trace = Vec::new();
            while at != u32::MAX {
                let (parent, label) = &parents[at as usize];
                trace.push(label.clone());
                at = *parent;
            }
            trace.reverse();
            trace
        };

        let initial = self.initial::<R>();
        seen.insert(self.fingerprint(&initial), 0);
        parents.push((u32::MAX, "initial state".to_string()));
        frontier.push_back((0, initial));
        while let Some((at, state)) = frontier.pop_front() {
            if matches!(state.phase, Phase::Done) {
                stats.terminal_states += 1;
                stats.full_commit_terminals += usize::from(state.committed == (1 << ROUNDS) - 1);
            }
            for (label, next, outcome) in self.successors(&state) {
                stats.transitions += 1;
                let known = seen.len() as u32;
                let index = *seen.entry(self.fingerprint(&next)).or_insert(known);
                if index == known {
                    parents.push((at, label));
                    frontier.push_back((index, next));
                }
                if let Err((kind, detail)) = outcome {
                    let trace = trace(&parents, index);
                    stats.violations.push(Violation {
                        kind,
                        detail,
                        trace,
                    });
                }
            }
        }
        stats.states = seen.len();
        stats
    }
}

/// Exhaustively explores one scenario over a fresh default [`Fixture`], the
/// machines deciding by `R`: [`Paper`], or one of [`broken`] as a self-test.
pub fn explore<R: Rules + Clone + Hash>(scenario: Scenario) -> ExploreStats {
    let fx = Fixture::default();
    Run { fx: &fx, scenario }.explore::<R>()
}

/// Runs `scenario` over `fx` on the one schedule that delivers every message
/// in the order it was sent, up to the end of the first pass's Algorithm 3 —
/// what `run_intra_consensus` produces over the same committee on a network
/// whose legs all take equally long.
/// Returns the decision vector the vote tallied and the instance that
/// certified it, ready to close.
pub fn first_pass_in_send_order(fx: &Fixture, scenario: Scenario) -> (Vec<i8>, Instance<'_>) {
    let run = Run { fx, scenario };
    let mut state = run.initial::<Paper>();
    loop {
        match state.phase {
            Phase::Alg3(decision, instance) if state.pending.is_empty() => {
                return (decision, instance)
            }
            _ => {}
        }
        let (_, next, outcome) = run.successors(&state).swap_remove(0);
        outcome.expect("the paper's rules break no invariant");
        state = next;
    }
}
