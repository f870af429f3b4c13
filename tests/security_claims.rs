//! Integration tests pinning the paper's security claims (Section V) to code:
//! Theorem 2 (semi-commitments), Claims 3 & 4 (recovery completeness and
//! soundness), Theorem 5 (intra-committee detection), Theorem 8 (inter-committee
//! safety), and the §V-A randomness properties.

use cycledger::consensus::{semi_commitment, CommitmentMismatchEvidence, Witness};
use cycledger::crypto::pvss;
use cycledger::crypto::scalar::Scalar;
use cycledger::crypto::schnorr::{sign, Keypair};
use cycledger::ledger::{
    AccountId, GeneratedTx, Transaction, TxOutput, UtxoSet, Workload, WorkloadConfig,
};
use cycledger::net::{FaultPlan, NodeId, Phase};
use cycledger::protocol::engine::{run_pipeline_observed, RoundArena, RoundEnv};
use cycledger::protocol::{
    AdversaryConfig, Behavior, Committee, ProtocolConfig, RecoveryOutcome, RoundContext,
    RoundObserver, Simulation,
};

fn config(seed: u64) -> ProtocolConfig {
    ProtocolConfig {
        committees: 2,
        committee_size: 8,
        partial_set_size: 2,
        referee_size: 5,
        txs_per_round: 40,
        cross_shard_ratio: 0.3,
        invalid_ratio: 0.0,
        accounts_per_shard: 32,
        pow_difficulty: 2,
        seed,
        ..ProtocolConfig::default()
    }
}

/// Claim 3 (completeness): a faulty leader is always detected and evicted.
#[test]
fn claim3_faulty_leaders_are_always_detected() {
    for behavior in [
        Behavior::SilentLeader,
        Behavior::EquivocatingLeader,
        Behavior::MismatchedCommitment,
    ] {
        let mut sim = Simulation::new(config(21)).expect("valid configuration");
        let victim = sim.assignment().committees[1].leader;
        sim.registry_mut().set_behavior(victim, behavior);
        let report = sim.run_round().clone();
        assert!(
            report.evicted_leaders.iter().any(|(_, n)| *n == victim),
            "{behavior:?}: leader {victim:?} must be evicted, got {:?}",
            report.evicted_leaders
        );
        // Punishment: the evicted leader's reputation never exceeds the best
        // honest member's.
        let best_honest = sim
            .registry()
            .iter()
            .filter(|n| n.is_honest())
            .map(|n| sim.reputation().get(n.id))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(sim.reputation().get(victim) <= best_honest + 1e-9);
    }
}

/// Claim 4 (soundness): an honest leader is never evicted, even when a
/// malicious partial-set member tries to frame it.
#[test]
fn claim4_honest_leaders_are_never_framed() {
    let mut cfg = config(22);
    cfg.adversary = AdversaryConfig::with_behavior(0.3, Behavior::FalseAccuser);
    let mut sim = Simulation::new(cfg).expect("valid configuration");
    // Claim 4's premise is honest-majority committees, an honest-majority
    // referee committee and honest leaders; false accusers sit among members
    // / partial sets. Enforce the premise explicitly (tiny test committees
    // cannot rely on w.h.p. arguments), and seat one false accuser at the
    // head of every partial set without growing the adversary: another false
    // accuser of the same committee, if there is one, turns honest instead.
    let committees = sim.assignment().committees.clone();
    let referees = sim.assignment().referee.clone();
    for c in &committees {
        let seat = c.partial_set[0];
        let registry = sim.registry_mut();
        registry.set_behavior(c.leader, Behavior::Honest);
        if registry.node(seat).behavior != Behavior::FalseAccuser {
            let accuser = |&n: &NodeId| registry.node(n).behavior == Behavior::FalseAccuser;
            if let Some(other) = c.members.iter().copied().find(accuser) {
                registry.set_behavior(other, Behavior::Honest);
            }
            registry.set_behavior(seat, Behavior::FalseAccuser);
        }
    }
    for r in &referees {
        sim.registry_mut().set_behavior(*r, Behavior::Honest);
    }
    let mut watch = Framing::default();
    let report = sim.run_round_observed(&mut watch).clone();
    for c in &committees {
        let accuser = Some(c.partial_set[0]);
        assert!(
            report.recovery_log.iter().any(|r| r.prosecutor == accuser
                && r.accused == c.leader
                && r.outcome == RecoveryOutcome::Rejected),
            "committee {}'s false accuser prosecutes and is rejected: {:?}",
            c.index,
            report.recovery_log
        );
    }
    assert!(
        report.evicted_leaders.is_empty(),
        "no honest leader may be evicted on fabricated evidence: {:?}",
        report.recovery_log
    );
    assert!(report.block_produced);
    let leaders: Vec<NodeId> = committees.iter().map(|c| c.leader).collect();
    assert_eq!(
        watch.leaders,
        vec![leaders; 2],
        "every leader keeps its seat"
    );
    assert_eq!(
        watch.reputations[0], watch.reputations[1],
        "and its reputation"
    );
}

/// The leaders and their reputations as the semi-commitment phase — where
/// false accusers prosecute — starts and as it ends.
#[derive(Default)]
struct Framing {
    leaders: Vec<Vec<NodeId>>,
    reputations: Vec<Vec<f64>>,
}

impl Framing {
    fn look(&mut self, ctx: &RoundContext<'_>) {
        let leaders: Vec<NodeId> = ctx.committees.iter().map(|c| c.leader).collect();
        self.reputations
            .push(leaders.iter().map(|&l| ctx.reputation.get(l)).collect());
        self.leaders.push(leaders);
    }
}

impl RoundObserver for Framing {
    fn on_phase_start(&mut self, _: &'static str, ctx: &RoundContext<'_>) {
        if ctx.phase == Phase::SemiCommitmentExchange {
            self.look(ctx);
        }
    }

    fn on_phase_end(&mut self, _: &'static str, ctx: &RoundContext<'_>) {
        if ctx.phase == Phase::SemiCommitmentExchange {
            self.look(ctx);
        }
    }
}

/// Theorem 2: a leader cannot commit to a forged member list without being
/// caught — and the witness only verifies against the cheating leader's key.
#[test]
fn theorem2_forged_member_lists_yield_unforgeable_witnesses() {
    let leader = Keypair::from_seed(b"integration-leader");
    let other = Keypair::from_seed(b"integration-other");
    let list = b"node-1,node-2,node-3".to_vec();
    let signature = sign(
        &leader.secret,
        &cycledger::consensus::member_list_signing_bytes(3, 1, &list),
    );
    let witness = Witness::CommitmentMismatch(CommitmentMismatchEvidence {
        round: 3,
        committee: 1,
        leader: NodeId(7),
        member_list: list.clone(),
        list_signature: signature,
        recorded_commitment: cycledger::crypto::sha256(b"a forged commitment"),
    });
    assert!(witness.verify(&leader.public), "real cheating is provable");
    assert!(
        !witness.verify(&other.public),
        "the witness cannot be re-targeted at another leader"
    );
    // And a consistent commitment yields no witness at all.
    let honest = Witness::CommitmentMismatch(CommitmentMismatchEvidence {
        round: 3,
        committee: 1,
        leader: NodeId(7),
        member_list: list.clone(),
        list_signature: sign(
            &leader.secret,
            &cycledger::consensus::member_list_signing_bytes(3, 1, &list),
        ),
        recorded_commitment: semi_commitment(&list),
    });
    assert!(!honest.verify(&leader.public));
}

/// §V-A: the randomness beacon completes and is unpredictable-looking as long
/// as the referee committee keeps an honest majority, and excludes cheaters.
#[test]
fn beacon_liveness_and_dealer_exclusion() {
    // 7 referees, 3 corrupt dealers: beacon still completes, cheaters excluded.
    let honesty = vec![true, false, true, false, true, false, true];
    let (output, qualified) = pvss::run_beacon(7, 4, &honesty, b"integration-round").unwrap();
    assert_eq!(qualified, vec![0, 2, 4, 6]);
    // Different round tags give different outputs.
    let (other, _) = pvss::run_beacon(7, 4, &honesty, b"integration-round-2").unwrap();
    assert_ne!(output, other);
    // Reconstruction agrees regardless of which honest majority subset is used.
    let dealing = pvss::deal(&Scalar::from_u64(123456), 7, 4, b"shares").unwrap();
    let a = pvss::reconstruct(&dealing.shares[..4], 4).unwrap();
    let b = pvss::reconstruct(&dealing.shares[3..], 4).unwrap();
    assert_eq!(a, b);
}

/// Theorem 8 flavour: with censoring leaders on the cross-shard path, the
/// transactions still complete (via the partial set) and the censoring leaders
/// are evicted — honest leaders on the destination side are untouched.
#[test]
fn theorem8_cross_shard_safety_under_censoring_leaders() {
    let mut cfg = config(23);
    cfg.cross_shard_ratio = 0.8;
    let mut sim = Simulation::new(cfg).expect("valid configuration");
    let censor = sim.assignment().committees[0].leader;
    let honest_dest = sim.assignment().committees[1].leader;
    sim.registry_mut()
        .set_behavior(censor, Behavior::CensoringLeader);
    let report = sim.run_round().clone();
    assert!(report.block_produced);
    assert!(
        report.censorship_reports > 0,
        "the censoring leader must be reported"
    );
    assert!(
        report.evicted_leaders.iter().any(|(_, n)| *n == censor),
        "the censoring leader must be evicted"
    );
    assert!(
        !report
            .evicted_leaders
            .iter()
            .any(|(_, n)| *n == honest_dest),
        "the honest destination leader must not be framed (Lemma 7)"
    );
    assert!(
        report.txs_packed_cross_shard > 0,
        "cross-shard transactions still complete via the partial set (Lemma 6)"
    );
}

/// `invalid` with its payee moved to another shard. The closed-loop
/// generator keeps an invalid transaction inside its input's shard, so this
/// is what makes it cross-shard.
fn paying_another_shard(invalid: GeneratedTx, m: usize) -> GeneratedTx {
    let source = invalid.tx.inputs()[0].owner.shard(m);
    let payee = (0..).map(AccountId).find(|a| a.shard(m) != source).unwrap();
    let pay = |output: &TxOutput| TxOutput {
        owner: payee,
        ..*output
    };
    let outputs = invalid.tx.outputs().iter().map(pay).collect();
    let tx = Transaction::new(invalid.tx.inputs().to_vec(), outputs, invalid.tx.nonce());
    GeneratedTx { tx, ..invalid }
}

/// What the inter-committee phase accepted, checked against the state it
/// was accepted on: every cross-shard transaction offered, and how many of
/// them were invalid at their source shard and how many of those accepted.
#[derive(Default)]
struct CrossShardAudit {
    offered_invalid: usize,
    accepted: usize,
    accepted_invalid: usize,
}

impl RoundObserver for CrossShardAudit {
    fn on_phase_end(&mut self, _: &'static str, ctx: &RoundContext<'_>) {
        if ctx.phase != Phase::InterCommitteeConsensus {
            return;
        }
        let sets: &[UtxoSet] = ctx.utxo_sets;
        let m = sets.len();
        let invalid = |tx: &Transaction| sets[tx.inputs()[0].owner.shard(m)].validate(tx).is_err();
        self.offered_invalid = ctx.cross_shard.iter().filter(|g| invalid(&g.tx)).count();
        let inter = ctx.inter.as_ref().expect("the phase ran");
        let accepted = inter.accepted.iter().flatten();
        self.accepted = accepted.clone().count();
        self.accepted_invalid = accepted.filter(|tx| invalid(tx)).count();
    }
}

/// Theorem 8 (safety): a cross-shard transaction is accepted only if it is
/// valid at the shard that owns its input — the committee that votes on it.
/// A quarter of the closed-loop workload is invalid, each such transaction
/// paying into another shard; the round's accepted cross-shard set is read
/// when the inter-committee phase ends, before the block's re-validation
/// could hide a bad acceptance.
#[test]
fn theorem8_every_accepted_cross_shard_transaction_is_valid_at_its_source() {
    let mut cfg = config(29);
    (cfg.committees, cfg.txs_per_round) = (3, 90);
    (cfg.cross_shard_ratio, cfg.invalid_ratio) = (0.8, 0.25);
    let sim = Simulation::new(cfg).expect("valid configuration");
    let mut workload = Workload::new(WorkloadConfig {
        num_shards: cfg.committees,
        accounts_per_shard: cfg.accounts_per_shard,
        genesis_amount: 1_000,
        cross_shard_ratio: cfg.cross_shard_ratio,
        invalid_ratio: cfg.invalid_ratio,
        seed: cfg.seed,
    });
    let mut utxo_sets = workload.build_genesis_utxo_sets();
    let m = cfg.committees;
    let offered: Vec<GeneratedTx> = workload
        .generate_batch(cfg.txs_per_round)
        .into_iter()
        .map(|g| {
            if g.kind.is_valid() {
                g
            } else {
                paying_another_shard(g, m)
            }
        })
        .collect();

    let referee = Committee::referee(&sim.assignment().referee, sim.registry());
    let plan = FaultPlan::default();
    let env = RoundEnv {
        config: sim.config(),
        registry: sim.registry(),
        referee: &referee,
        plan: &plan,
        round: sim.assignment().round,
    };
    let (mut reputation, mut arena) = (sim.reputation().clone(), RoundArena::new());
    let mut ctx = RoundContext::new(
        env,
        sim.assignment(),
        sim.executor(),
        sim.chain(),
        &mut utxo_sets,
        &mut reputation,
        &mut arena,
    );
    ctx.offer(offered);
    let mut audit = CrossShardAudit::default();
    run_pipeline_observed(&mut ctx, &mut audit);
    assert!(
        audit.offered_invalid > 0,
        "invalid cross-shard transactions were offered"
    );
    assert!(audit.accepted > 0, "valid ones were accepted");
    assert_eq!(
        audit.accepted_invalid, 0,
        "an accepted cross-shard transaction must validate at its source shard"
    );
}
