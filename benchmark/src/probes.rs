//! Per-layer probes: each times one public operation of one crate at the
//! workload's own sizes (committee size `c`, `capacity / m` transactions per
//! committee, the workload's accounts and state backend). A probe is a span
//! under `probes`, so the trace shows what the per-layer numbers cost.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cycledger_consensus::{
    verify_certs_batch, Alg3Message, ConsensusId, QuorumCertificate, Vote, VoteList, VoteVector,
};
use cycledger_crypto::schnorr::{batch_verify, sign, verify, BatchEntry};
use cycledger_crypto::sha256::{hash_parts, sha256, sha256_many, Digest};
use cycledger_crypto::{pvss, verify_proof, vrf, Keypair, MerkleTree, Puzzle};
use cycledger_ledger::smt::key_digest;
use cycledger_ledger::{
    AccountId, Block, OutPoint, StateBackend, Store, Transaction, TxOutput, WorkloadConfig,
};
use cycledger_net::latency::LinkClass;
use cycledger_net::network::SimNetwork;
use cycledger_net::time::SimDuration;
use cycledger_net::topology::NodeId;
use cycledger_protocol::committee::run_inside_consensus;
use cycledger_protocol::{
    assign_round, AdversaryConfig, AssignmentParams, Committee, LeaderFault, NodeRegistry,
    ProtocolConfig,
};
use cycledger_reputation::{score_all, ReputationTable};

use crate::metrics::MetricSet;
use crate::trace::Tracer;
use crate::workloads::Workload;

/// Wall time each probe repeats its operation for.
const PROBE_BUDGET: Duration = Duration::from_millis(120);

/// Mean nanoseconds per call of `op`: one untimed warm-up call, then calls
/// until [`PROBE_BUDGET`] is spent (three at least).
fn time_ns(mut op: impl FnMut()) -> f64 {
    op();
    let mut calls = 0u32;
    let start = Instant::now();
    loop {
        op();
        calls += 1;
        let elapsed = start.elapsed();
        if calls >= 3 && elapsed >= PROBE_BUDGET {
            return elapsed.as_nanos() as f64 / f64::from(calls);
        }
    }
}

/// Runs every probe for `workload`, recording a span and a metric for each.
pub fn run_probes(workload: &Workload, seed: u64, tracer: &mut Tracer, set: &mut MetricSet) {
    let mut probes = Probes {
        config: workload.config(seed),
        tracer,
        set,
    };
    probes.tracer.open("probes", None, 0);
    probes.net();
    let committee = probes.consensus();
    probes.crypto(&committee);
    probes.ledger();
    probes.reputation();
    probes.tracer.close("probes", 0);
}

struct Probes<'a> {
    config: ProtocolConfig,
    tracer: &'a mut Tracer,
    set: &'a mut MetricSet,
}

/// Deterministic probe outpoint `n`, in a domain the protocol never mints.
fn outpoint(n: u64) -> OutPoint {
    OutPoint {
        tx_id: hash_parts(&[b"cycledger/benchmark-probe", &n.to_be_bytes()]),
        index: (n % 4) as u32,
    }
}

fn output(n: u64) -> TxOutput {
    TxOutput {
        owner: AccountId(n),
        amount: 1 + n % 997,
    }
}

impl Probes<'_> {
    /// Runs `op` under a span named after the metric it feeds.
    fn span<T>(&mut self, name: &'static str, op: impl FnOnce() -> T) -> T {
        self.tracer.open(name, None, 0);
        let result = op();
        self.tracer.close(name, 0);
        result
    }

    /// Times `op` under a span and records `scale × mean ns per call` as
    /// the metric's value.
    fn timed(&mut self, name: &'static str, scale: f64, op: impl FnMut()) {
        let ns = self.span(name, || time_ns(op));
        self.set.set(name, ns * scale);
    }

    /// Runs `op` once under a span, adding its wall time to `total_ns`; for
    /// probes whose stages interleave.
    fn staged<T>(&mut self, name: &'static str, total_ns: &mut u128, op: impl FnOnce() -> T) -> T {
        self.span(name, || {
            let start = Instant::now();
            let result = op();
            *total_ns += start.elapsed().as_nanos();
            result
        })
    }

    /// Transactions one committee handles per round.
    fn txs_per_committee(&self) -> usize {
        self.config.txs_per_round / self.config.committees
    }

    fn net(&mut self) {
        const ENVELOPES: usize = 100_000;
        const BATCH: usize = 1_000;
        let latency = self.config.latency;
        let seed = self.config.seed;
        // send + next_event per envelope: what every committee message pays
        // on the message-driven plane.
        let per_envelope = self.span("net.probe.send_deliver_ns", || {
            let mut net: SimNetwork<u64> = SimNetwork::new(latency, seed);
            let start = Instant::now();
            for batch in 0..ENVELOPES / BATCH {
                for i in 0..BATCH {
                    let from = NodeId((i % 64) as u32);
                    let to = NodeId(((i + 1 + batch) % 64) as u32);
                    net.send(from, to, LinkClass::IntraCommittee, i as u64, 128);
                }
                while let Some(event) = net.next_event() {
                    black_box(event);
                }
            }
            start.elapsed().as_nanos() as f64 / ENVELOPES as f64
        });
        self.set.set("net.probe.send_deliver_ns", per_envelope);

        let per_timer = self.span("net.probe.timer_ns", || {
            let mut net: SimNetwork<u64> = SimNetwork::new(latency, seed);
            let start = Instant::now();
            for _ in 0..ENVELOPES / BATCH {
                for i in 0..BATCH {
                    let after = SimDuration::from_micros(1 + (i as u64 * 7919) % 1000);
                    net.schedule_timer(after, i as u64);
                }
                while let Some(event) = net.next_event() {
                    black_box(event);
                }
            }
            start.elapsed().as_nanos() as f64 / ENVELOPES as f64
        });
        self.set.set("net.probe.timer_ns", per_timer);
    }

    /// Returns one committee's key pairs, so the crypto probes run at the
    /// same committee size.
    fn consensus(&mut self) -> Vec<Keypair> {
        let config = self.config;
        // An all-honest registry: the probes time full participation.
        let registry = NodeRegistry::generate(
            config.total_nodes(),
            &AdversaryConfig::default(),
            config.base_compute_capacity,
            config.compute_capacity_spread,
            config.seed,
        );
        let assignment = assign_round(
            &registry,
            &registry.ids(),
            AssignmentParams {
                committees: config.committees,
                partial_set_size: config.partial_set_size,
                referee_size: config.referee_size,
            },
            0,
            hash_parts(&[b"cycledger/benchmark-probe", &config.seed.to_be_bytes()]),
            &ReputationTable::with_members(registry.ids()),
        );
        let committees: Vec<Committee> = assignment
            .committees
            .iter()
            .map(|a| Committee::from_assignment(a, &registry))
            .collect();
        // Sortition sizes committees unevenly (11 to 20 members at c = 16)
        // and an instance costs O(c^2) messages: probe the one closest to c.
        let typical = (0..committees.len())
            .min_by_key(|&k| committees[k].size().abs_diff(config.committee_size))
            .expect("at least one committee");
        let committee = &committees[typical];
        // A certified transaction-id list: 32 bytes per transaction.
        let payload = vec![0xA5u8; 32 * self.txs_per_committee()];
        let mut seq = 0u64;
        let mut instance = |committee: &Committee, verify: bool| {
            seq += 1;
            let mut net: SimNetwork<Alg3Message> = SimNetwork::new(config.latency, config.seed);
            let outcome = run_inside_consensus(
                &mut net,
                committee,
                &registry,
                ConsensusId { round: 0, seq },
                payload.clone(),
                LeaderFault::None,
                verify,
            );
            assert!(outcome.certificate.is_some(), "honest instance certifies");
            outcome
        };

        self.timed("consensus.probe.alg3_instance_ms", 1e-6, || {
            black_box(instance(committee, true));
        });
        self.timed("consensus.probe.alg3_unverified_ms", 1e-6, || {
            black_box(instance(committee, false));
        });
        let messages = instance(committee, true).messages;
        self.set.set("consensus.probe.alg3_msgs", messages as f64);
        let certs: Vec<QuorumCertificate> = committees
            .iter()
            .map(|c| instance(c, true).certificate.expect("asserted above"))
            .collect();

        self.timed("consensus.probe.cert_verify_batch_us", 1e-3, || {
            assert!(certs[typical]
                .verify_batch_majority(&committee.keys)
                .is_ok());
        });
        let batch: Vec<_> = certs
            .iter()
            .zip(&committees)
            .map(|(cert, c)| (cert, &c.keys, c.majority()))
            .collect();
        let per_cert = 1e-3 / certs.len() as f64;
        self.timed("consensus.probe.certs_batch_us_per_cert", per_cert, || {
            assert!(verify_certs_batch(&batch).iter().all(Result::is_ok));
        });

        let txs = self.txs_per_committee();
        let mut votes = VoteList::new((0..txs as u64).map(|n| outpoint(n).tx_id).collect());
        for (v, &voter) in committee.members.iter().enumerate() {
            let row = (0..txs)
                .map(|k| {
                    if (k + v) % 7 == 0 {
                        Vote::No
                    } else {
                        Vote::Yes
                    }
                })
                .collect();
            votes.record(VoteVector::new(voter, row));
        }
        let size = committee.size();
        self.timed("consensus.probe.tally_us", 1e-3, || {
            black_box(votes.tally(size));
        });

        committee
            .members
            .iter()
            .map(|&n| registry.node(n).keypair)
            .collect()
    }

    fn crypto(&mut self, committee: &[Keypair]) {
        let keypair = committee[0];
        let message = b"a consensus message of typical size padded to sixty-four bytes!";
        self.timed("crypto.probe.sign_us", 1e-3, || {
            black_box(sign(&keypair.secret, message));
        });
        let signature = sign(&keypair.secret, message);
        self.timed("crypto.probe.verify_us", 1e-3, || {
            assert!(verify(&keypair.public, message, &signature));
        });
        // One committee's worth of distinct signers, as a certificate carries.
        let signatures: Vec<_> = committee
            .iter()
            .map(|kp| sign(&kp.secret, message))
            .collect();
        let entries: Vec<BatchEntry<'_>> = committee
            .iter()
            .zip(&signatures)
            .map(|(kp, signature)| BatchEntry {
                public_key: &kp.public,
                message,
                signature,
            })
            .collect();
        let per_sig = 1e-3 / entries.len() as f64;
        self.timed("crypto.probe.batch_verify_us_per_sig", per_sig, || {
            assert!(batch_verify(&entries));
        });

        // 65 bytes is the sparse-Merkle node preimage, the lane-batched
        // hasher's main customer.
        let preimages: Vec<[u8; 65]> = (0..1024u32)
            .map(|i| {
                let mut buf = [0u8; 65];
                buf[..4].copy_from_slice(&i.to_be_bytes());
                buf
            })
            .collect();
        let slices: Vec<&[u8]> = preimages.iter().map(|p| p.as_slice()).collect();
        let mut digests: Vec<Digest> = Vec::with_capacity(slices.len());
        let per_msg = 1.0 / slices.len() as f64;
        self.timed("crypto.probe.sha256_many_ns_per_msg", per_msg, || {
            digests.clear();
            sha256_many(&slices, &mut digests);
            black_box(&digests);
        });
        let mib = vec![0xABu8; 1 << 20];
        let ns_per_mib = self.span("crypto.probe.sha256_mib_per_s", || {
            time_ns(|| {
                black_box(sha256(black_box(&mib)));
            })
        });
        self.set
            .set("crypto.probe.sha256_mib_per_s", 1e9 / ns_per_mib);

        // A round's transaction root: one ~100-byte leaf per packed tx.
        let leaves: Vec<Vec<u8>> = (0..self.config.txs_per_round as u64)
            .map(|n| n.to_be_bytes().repeat(12))
            .collect();
        self.timed("crypto.probe.merkle_build_us", 1e-3, || {
            black_box(MerkleTree::build(&leaves).root());
        });

        let input = b"COMMON_MEMBER|7|seed";
        self.timed("crypto.probe.vrf_evaluate_us", 1e-3, || {
            black_box(vrf::evaluate(&keypair.secret, input));
        });
        let evaluated = vrf::evaluate(&keypair.secret, input);
        self.timed("crypto.probe.vrf_verify_us", 1e-3, || {
            assert!(vrf::verify(&keypair.public, input, &evaluated));
        });

        // The selection phase's beacon: every referee deals, threshold n/2+1.
        let referees = self.config.referee_size;
        let honest = vec![true; referees];
        self.timed("crypto.probe.pvss_beacon_ms", 1e-6, || {
            black_box(pvss::run_beacon(referees, referees / 2 + 1, &honest, b"probe").unwrap());
        });

        let puzzle = Puzzle::new(1, sha256(b"probe"), self.config.pow_difficulty);
        let mut solver = 0usize;
        self.timed("crypto.probe.pow_solve_us", 1e-3, || {
            solver = (solver + 1) % committee.len();
            black_box(puzzle.solve(&committee[solver].public, 0, 1 << 22));
        });

        // A light client's check against a tree as large as one shard's.
        let entries = self.config.accounts_per_shard as u64;
        let store = seeded_smt(entries);
        let root = store.state_root().expect("smt has a root");
        let target = outpoint(entries / 2);
        let key = key_digest(&target);
        let proof = store.prove(&target).expect("smt proves");
        self.timed("crypto.probe.smt_verify_proof_us", 1e-3, || {
            assert!(verify_proof(&root, &key, &proof).is_ok());
        });
    }

    fn ledger(&mut self) {
        let config = self.config;
        let m = config.committees;
        let mut generator = cycledger_ledger::Workload::new(WorkloadConfig {
            num_shards: m,
            accounts_per_shard: config.accounts_per_shard,
            genesis_amount: 1_000,
            cross_shard_ratio: config.cross_shard_ratio,
            invalid_ratio: config.invalid_ratio,
            seed: config.seed,
        });
        let mut sets = generator.build_genesis_utxo_sets_with(config.state_backend);

        // Rounds of generate -> validate -> apply -> commit -> tx root, each
        // stage its own span, in the order the engine issues them.
        let mut stage_ns = [0u128; 5];
        let mut valid_txs = 0u64;
        let mut generated = 0u64;
        let mut rounds = 0u64;
        let start = Instant::now();
        while rounds < 3 || start.elapsed() < 4 * PROBE_BUDGET {
            let batch = self.staged("ledger.probe.generate_us_per_tx", &mut stage_ns[0], || {
                generator.generate_batch(config.txs_per_round)
            });
            generated += batch.len() as u64;
            let txs: Vec<Transaction> = batch
                .into_iter()
                .filter(|g| g.kind.is_valid())
                .map(|g| g.tx)
                .collect();
            valid_txs += txs.len() as u64;
            self.staged("ledger.probe.validate_ns_per_tx", &mut stage_ns[1], || {
                for tx in &txs {
                    for shard in tx.input_shards(m) {
                        assert!(sets[shard].validate(tx).is_ok());
                    }
                }
            });
            self.staged("ledger.probe.apply_ns_per_tx", &mut stage_ns[2], || {
                for tx in &txs {
                    for shard in tx.touched_shards(m) {
                        black_box(sets[shard].apply(tx));
                    }
                }
            });
            self.staged("ledger.probe.commit_ms_per_round", &mut stage_ns[3], || {
                for set in sets.iter_mut() {
                    black_box(set.commit_round(rounds));
                }
            });
            self.staged("ledger.probe.tx_root_us", &mut stage_ns[4], || {
                black_box(Block::tx_root(&txs));
            });
            generator.confirm_pending();
            rounds += 1;
        }
        let [generate, validate, apply, commit, tx_root] = stage_ns.map(|ns| ns as f64);
        self.set.set(
            "ledger.probe.generate_us_per_tx",
            generate / generated as f64 / 1e3,
        );
        self.set.set(
            "ledger.probe.validate_ns_per_tx",
            validate / valid_txs as f64,
        );
        self.set
            .set("ledger.probe.apply_ns_per_tx", apply / valid_txs as f64);
        self.set.set(
            "ledger.probe.commit_ms_per_round",
            commit / rounds as f64 / 1e6,
        );
        self.set
            .set("ledger.probe.tx_root_us", tx_root / rounds as f64 / 1e3);

        // Proofs and tree growth, on the authenticated backend at one
        // shard's size whichever backend the workload runs on: what the
        // sparse-Merkle store costs (or would cost) at this state size.
        let entries = config.accounts_per_shard as u64;
        let mut store = seeded_smt(entries);
        let target = outpoint(entries / 2);
        self.timed("ledger.probe.prove_us", 1e-3, || {
            black_box(store.prove(&target));
        });
        const WRITES: u64 = 1024;
        let before = allocated_nodes(&store);
        for n in 0..WRITES / 2 {
            store.remove(&outpoint(n));
            store.insert(outpoint(entries + n), output(entries + n));
        }
        store.commit(1);
        self.set.set(
            "ledger.probe.smt_nodes_per_write",
            (allocated_nodes(&store) - before) as f64 / WRITES as f64,
        );
    }

    fn reputation(&mut self) {
        let config = self.config;
        let txs = self.txs_per_committee();
        let decision: Vec<i8> = (0..txs).map(|k| if k % 5 == 0 { -1 } else { 1 }).collect();
        let votes: Vec<Vec<i8>> = (0..config.committee_size)
            .map(|v| {
                (0..txs)
                    .map(|k| if (k + v) % 7 == 0 { -1 } else { 1 })
                    .collect()
            })
            .collect();
        self.timed("reputation.probe.score_all_us", 1e-3, || {
            black_box(score_all(&votes, &decision));
        });

        let nodes: Vec<NodeId> = (0..config.total_nodes() as u32).map(NodeId).collect();
        let mut table = ReputationTable::with_members(nodes.iter().copied());
        for &node in &nodes {
            table.add_score(node, f64::from(node.0 % 13) / 13.0);
        }
        self.timed("reputation.probe.distribute_us", 1e-3, || {
            black_box(table.distribute_fees(&nodes, 10_000));
        });
        self.timed("reputation.probe.select_leaders_us", 1e-3, || {
            black_box(table.select_leaders(&nodes, config.committees));
        });
    }
}

/// A sparse-Merkle store holding `entries` committed probe outputs.
fn seeded_smt(entries: u64) -> Store {
    let mut store = Store::with_capacity(StateBackend::Smt, entries as usize);
    for n in 0..entries {
        store.insert(outpoint(n), output(n));
    }
    store.commit(0);
    store
}

/// Tree nodes (internal + leaf) the copy-on-write store has allocated so far.
fn allocated_nodes(store: &Store) -> usize {
    match store {
        Store::Smt(smt) => {
            let (internal, leaves) = smt.allocated_nodes();
            internal + leaves
        }
        Store::Map(_) => 0,
    }
}
