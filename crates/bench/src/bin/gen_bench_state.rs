//! Emits `BENCH_state.json`-shaped numbers for the pluggable state-store
//! layer: the flat-map and sparse-Merkle backends measured head to head over
//! pre-seeded UTXO sets of 10^5 / 10^6 / 10^7 entries.
//!
//! Per tier and backend the sweep measures the operations the protocol
//! actually issues, at the store layer (`cycledger_ledger::Store`, the same
//! statically-dispatched enum `UtxoSet` runs on):
//!
//! * **lookup** — random-order point `get`s over the live set, the per-input
//!   hot path of the authentication function `V`;
//! * **apply** — one round's write batch (512 spends + 512 credits, keeping
//!   the set size constant), issued entry by entry exactly as block
//!   application does;
//! * **commit** — sealing the round's batch into a versioned state root
//!   (a no-op on the map backend). Each committed write pays O(log n)
//!   hashes where a map write pays one probe, so the commit-to-map-apply
//!   ratio is regression-gated against its committed value rather than
//!   capped: the 3x hard cap applies to the per-transaction hot paths
//!   (lookup and apply), which is where a cap is physically meaningful;
//! * **prove / verify** — inclusion and exclusion proofs against the latest
//!   root, checked with the crypto-crate verifier a light client would run
//!   (SMT only).
//!
//! Both backends are seeded first and then run through one loop: lookups in
//! chunks of [`LOOKUP_CHUNK`], one chunk on each backend in turn, then churn
//! rounds in pairs, a map round and an SMT round (apply, then commit), the
//! backend that goes first swapping every chunk and every round. So neither
//! store runs more than two rounds in a row or stays cache-warm through
//! hundreds of its own, and a host that slows down for a while slows both
//! sides alike. Each `*_over_*` ratio is taken over the whole loop.
//!
//! Flags:
//!
//! * `--smoke` — CI perf-gate mode: the 10^6 tier only, short measured runs.
//!   `scripts/perf_gate.py --state` compares the emitted `tracked.*` ratios
//!   and allocation count against the committed `BENCH_state.json`, fails
//!   the job on >20% regression, and additionally enforces the hard caps:
//!   3.0 on the lookup ratio, 2.2 on the apply ratio, and 3.0 arena slots
//!   per live UTXO after the write rounds (the tree's resident size must
//!   follow the live set, not the number of rounds committed).
//!
//! The binary installs [`alloccount::CountingAllocator`] so per-round
//! allocation counts are exact and machine-independent; all harness
//! bookkeeping (outpoint minting, sample tables) is pre-allocated outside
//! the measured loop.
//!
//! Run with `cargo run --release -p cycledger-bench --bin gen_bench_state`;
//! the JSON is printed to stdout so it can be folded into `BENCH_state.json`
//! at the repository root.

use std::hint::black_box;
use std::time::Instant;

use cycledger_bench::{Args, Flag, Json};
use cycledger_crypto::sha256::{hash_parts, Digest};
use cycledger_crypto::{verify_proof, ProofTerminal, StateProof};
use cycledger_ledger::smt::key_digest;
use cycledger_ledger::{AccountId, OutPoint, StateBackend, Store, TxOutput};

#[global_allocator]
static ALLOC: alloccount::CountingAllocator = alloccount::CountingAllocator;

/// One round's write batch: 512 spends + 512 credits. Comparable to the
/// heavier end of a per-shard round delta and large enough for the SMT
/// fold to amortize path hashing across the batch.
const ROUND_SPENDS: usize = 512;
/// Churn rounds stop here even if the time floor is not reached (bounds the
/// pre-minted fresh-outpoint table).
const MAX_ROUNDS: u64 = 4096;
/// Odd and coprime to every power-of-ten tier size, so striding by it
/// visits lookup targets in a cache-hostile pseudo-random order.
const STRIDE: usize = 0x9E37_79B1;
/// Lookups a backend runs before the other takes its turn.
const LOOKUP_CHUNK: usize = 10_000;

/// Measurement effort: full sweep vs the CI smoke sample. `lookups` is per
/// backend; `min_secs` and `min_rounds` bound the churn loop, both backends'
/// rounds together.
struct Effort {
    lookups: usize,
    proofs: usize,
    min_secs: f64,
    min_rounds: u64,
}

const FULL: Effort = Effort {
    lookups: 1_000_000,
    proofs: 1024,
    min_secs: 2.0,
    min_rounds: 32,
};

const SMOKE: Effort = Effort {
    lookups: 200_000,
    proofs: 256,
    min_secs: 1.0,
    min_rounds: 8,
};

/// Proof-path numbers, present only on the authenticated backend.
struct ProofSeries {
    prove_us: f64,
    verify_us: f64,
    mean_siblings: f64,
    internal_nodes: usize,
    leaf_nodes: usize,
}

/// One backend's measurements at one tier.
struct StateSeries {
    seed_secs: f64,
    lookup_ns: f64,
    apply_us_per_round: f64,
    commit_us_per_round: f64,
    allocations_per_round: f64,
    rounds_measured: u64,
    proof: Option<ProofSeries>,
}

/// Deterministic bench outpoint `n` (domain-separated from every digest the
/// protocol itself mints).
fn outpoint(n: u64) -> OutPoint {
    OutPoint {
        tx_id: hash_parts(&[b"cycledger/bench-state", &n.to_be_bytes()]),
        index: (n % 4) as u32,
    }
}

fn outpoint_range(start: u64, count: usize) -> Vec<OutPoint> {
    (0..count as u64).map(|i| outpoint(start + i)).collect()
}

fn output_for(n: u64) -> TxOutput {
    TxOutput {
        owner: AccountId(n),
        amount: 1 + n % 997,
    }
}

/// One backend's store at one tier, with its place in the churn sequence
/// and what its rounds and lookups have measured so far.
struct Tier<'a> {
    backend: StateBackend,
    store: Store,
    seeds: &'a [OutPoint],
    fresh: &'a [OutPoint],
    seed_secs: f64,
    lookup_ns: u128,
    lookups: usize,
    apply_ns: u128,
    commit_ns: u128,
    allocations: u64,
    spent: usize,
    minted: usize,
    rounds: u64,
}

impl<'a> Tier<'a> {
    /// Seeds the store with `seeds` and commits it. `seeds`/`fresh` are
    /// pre-minted outside every measured loop and shared by both backends
    /// so they see the identical operation sequence.
    fn seed(backend: StateBackend, seeds: &'a [OutPoint], fresh: &'a [OutPoint]) -> Self {
        let n = seeds.len();
        let mut store = Store::with_capacity(backend, n);
        let t = Instant::now();
        for (i, op) in seeds.iter().enumerate() {
            store.insert(*op, output_for(i as u64));
        }
        store.commit(0);
        let seed_secs = t.elapsed().as_secs_f64();
        assert_eq!(store.len(), n);
        Tier {
            backend,
            store,
            seeds,
            fresh,
            seed_secs,
            lookup_ns: 0,
            lookups: 0,
            apply_ns: 0,
            commit_ns: 0,
            allocations: 0,
            spent: 0,
            minted: 0,
            rounds: 0,
        }
    }

    /// `k` lookups. The walk continues the previous chunk's: stride order
    /// defeats both the prefetcher and any accidental correlation between
    /// insertion and probe order.
    fn lookups(&mut self, k: usize) {
        let n = self.seeds.len();
        let mut idx = self.lookups * STRIDE % n;
        let mut held = 0u64;
        let t = Instant::now();
        for _ in 0..k {
            idx = (idx + STRIDE) % n;
            if let Some(output) = self.store.get(&self.seeds[idx]) {
                held += output.amount;
            }
        }
        let ns = t.elapsed().as_nanos();
        assert!(black_box(held) > 0);
        self.lookup_ns += ns;
        self.lookups += k;
    }

    /// One churn round: spend the oldest live entries, credit fresh ones,
    /// seal the batch. The set size stays exactly `n` throughout.
    fn round(&mut self) {
        let n = self.seeds.len();
        let start_alloc = alloccount::snapshot();
        let t = Instant::now();
        for _ in 0..ROUND_SPENDS {
            let victim = if self.spent < n {
                &self.seeds[self.spent]
            } else {
                &self.fresh[self.spent - n]
            };
            self.store.remove(victim);
            self.store.insert(
                self.fresh[self.minted],
                output_for((n + self.minted) as u64),
            );
            self.spent += 1;
            self.minted += 1;
        }
        self.apply_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        self.rounds += 1;
        self.store.commit(self.rounds);
        self.commit_ns += t.elapsed().as_nanos();
        self.allocations += alloccount::snapshot().since(&start_alloc).allocations;
        assert_eq!(self.store.len(), n, "churn must keep the set size constant");
    }

    /// Inclusion and exclusion proofs (SMT only), then the series.
    fn finish(self, absent: &[OutPoint], effort: &Effort) -> StateSeries {
        let Tier {
            backend,
            store,
            seeds,
            fresh,
            seed_secs,
            lookup_ns,
            lookups,
            apply_ns,
            commit_ns,
            allocations,
            spent,
            minted,
            rounds,
        } = self;
        let n = seeds.len();
        let proof = (backend == StateBackend::Smt).then(|| {
            // Present samples come from the still-live window (everything at
            // or beyond the spend cursor), exclusion samples from a disjoint
            // outpoint range; key digests are precomputed so the timed verify
            // loop is the pure proof check a light client pays per proof.
            let window: &[OutPoint] = if spent < n {
                &seeds[spent..]
            } else {
                &fresh[spent - n..minted]
            };
            let step = (window.len() / effort.proofs).max(1);
            let present: Vec<OutPoint> = window
                .iter()
                .step_by(step)
                .take(effort.proofs)
                .copied()
                .collect();
            let samples: Vec<OutPoint> = present
                .iter()
                .chain(absent.iter().take(effort.proofs))
                .copied()
                .collect();
            let keys: Vec<Digest> = samples.iter().map(key_digest).collect();

            let mut proofs: Vec<StateProof> = Vec::with_capacity(samples.len());
            let t = Instant::now();
            for op in &samples {
                proofs.push(store.prove(op).expect("smt backend always proves"));
            }
            let prove_us = t.elapsed().as_micros() as f64 / samples.len() as f64;

            let root = store.state_root().expect("smt backend has a root");
            let mut verified = 0usize;
            let t = Instant::now();
            for (proof, key) in proofs.iter().zip(&keys) {
                verified += usize::from(verify_proof(&root, key, proof).is_ok());
            }
            let verify_us = t.elapsed().as_micros() as f64 / proofs.len() as f64;
            assert_eq!(verified, proofs.len(), "every sampled proof must verify");
            let included = proofs
                .iter()
                .take(present.len())
                .filter(|p| matches!(p.terminal, ProofTerminal::Included { .. }))
                .count();
            assert_eq!(included, present.len(), "live samples must prove inclusion");
            let excluded = proofs
                .iter()
                .skip(present.len())
                .filter(|p| !matches!(p.terminal, ProofTerminal::Included { .. }))
                .count();
            assert_eq!(
                excluded,
                proofs.len() - present.len(),
                "absent samples must prove exclusion"
            );

            let siblings: usize = proofs.iter().map(|p| p.siblings.len()).sum();
            let (internal_nodes, leaf_nodes) = match &store {
                Store::Smt(smt) => smt.allocated_nodes(),
                Store::Map(_) => unreachable!("proof series is SMT-only"),
            };
            ProofSeries {
                prove_us,
                verify_us,
                mean_siblings: siblings as f64 / proofs.len() as f64,
                internal_nodes,
                leaf_nodes,
            }
        });

        StateSeries {
            seed_secs,
            lookup_ns: lookup_ns as f64 / lookups as f64,
            apply_us_per_round: apply_ns as f64 / 1000.0 / rounds as f64,
            commit_us_per_round: commit_ns as f64 / 1000.0 / rounds as f64,
            allocations_per_round: allocations as f64 / rounds as f64,
            rounds_measured: rounds,
            proof,
        }
    }
}

impl StateSeries {
    fn json(&self) -> Json {
        let mut entries = vec![
            ("seed_secs", Json::Num(self.seed_secs, 3)),
            ("lookup_ns", Json::Num(self.lookup_ns, 1)),
            ("apply_us_per_round", Json::Num(self.apply_us_per_round, 1)),
            (
                "commit_us_per_round",
                Json::Num(self.commit_us_per_round, 1),
            ),
            (
                "allocations_per_round",
                Json::Num(self.allocations_per_round, 0),
            ),
        ];
        if let Some(proof) = &self.proof {
            entries.extend([
                ("prove_us", Json::Num(proof.prove_us, 2)),
                ("verify_us", Json::Num(proof.verify_us, 2)),
                ("mean_proof_siblings", Json::Num(proof.mean_siblings, 1)),
                ("internal_nodes", Json::Int(proof.internal_nodes as u64)),
                ("leaf_nodes", Json::Int(proof.leaf_nodes as u64)),
            ]);
        }
        entries.push(("rounds_measured", Json::Int(self.rounds_measured)));
        Json::obj(entries)
    }
}

/// One tier: both backends' series.
struct Both {
    map: StateSeries,
    smt: StateSeries,
}

impl Both {
    fn lookup_ratio(&self) -> f64 {
        self.smt.lookup_ns / self.map.lookup_ns
    }

    fn apply_ratio(&self) -> f64 {
        self.smt.apply_us_per_round / self.map.apply_us_per_round
    }

    fn commit_ratio(&self) -> f64 {
        self.smt.commit_us_per_round / self.map.apply_us_per_round
    }
}

/// Runs both backends at one tier over a shared operation sequence, in one
/// loop that alternates them chunk by chunk and round by round.
fn run_both(utxos: usize, effort: &Effort) -> Both {
    let seeds = outpoint_range(0, utxos);
    let fresh = outpoint_range(utxos as u64, MAX_ROUNDS as usize * ROUND_SPENDS);
    let absent = outpoint_range(1 << 40, effort.proofs);
    // The SMT first, so its genesis fold's scratch is freed before the map
    // is built beside it.
    let smt = Tier::seed(StateBackend::Smt, &seeds, &fresh);
    let map = Tier::seed(StateBackend::Map, &seeds, &fresh);
    let mut tiers = [map, smt];
    // The backend that goes first swaps every chunk and every round. Every
    // lookup runs before the first churn round, which spends seeds.
    let order = |turn: usize| [turn % 2, 1 - turn % 2];
    for chunk in 0..effort.lookups.min(utxos) / LOOKUP_CHUNK {
        for i in order(chunk) {
            tiers[i].lookups(LOOKUP_CHUNK);
        }
    }
    let start = Instant::now();
    for round in 0.. {
        for i in order(round) {
            tiers[i].round();
        }
        let enough = start.elapsed().as_secs_f64() >= effort.min_secs;
        let rounds = tiers[0].rounds;
        if (enough && rounds >= effort.min_rounds)
            || rounds >= MAX_ROUNDS
            || tiers[0].minted + ROUND_SPENDS > fresh.len()
        {
            break;
        }
    }
    let [map, smt] = tiers.map(|tier| tier.finish(&absent, effort));
    Both { map, smt }
}

fn tracked(utxos: usize, both: &Both) -> Json {
    let Both { map, smt, .. } = both;
    // Arena slots (free ones included) per live entry once the write rounds
    // have run: what the tree keeps resident per UTXO it holds.
    let proof = smt.proof.as_ref().expect("the SMT series carries one");
    let arena_slots = (proof.internal_nodes + proof.leaf_nodes) as f64 / utxos as f64;
    Json::obj([
        ("utxos", Json::Int(utxos as u64)),
        ("map_lookup_ns", Json::Num(map.lookup_ns, 1)),
        ("smt_lookup_ns", Json::Num(smt.lookup_ns, 1)),
        (
            "smt_lookup_over_map_lookup",
            Json::Num(both.lookup_ratio(), 3),
        ),
        (
            "map_apply_us_per_round",
            Json::Num(map.apply_us_per_round, 1),
        ),
        (
            "smt_apply_us_per_round",
            Json::Num(smt.apply_us_per_round, 1),
        ),
        ("smt_apply_over_map_apply", Json::Num(both.apply_ratio(), 3)),
        (
            "smt_commit_us_per_round",
            Json::Num(smt.commit_us_per_round, 1),
        ),
        (
            "smt_commit_over_map_apply",
            Json::Num(both.commit_ratio(), 3),
        ),
        (
            "smt_allocations_per_round",
            Json::Num(smt.allocations_per_round, 0),
        ),
        ("smt_arena_slots_per_live_utxo", Json::Num(arena_slots, 3)),
    ])
}

fn bench_config(effort: &Effort) -> String {
    format!(
        "single-shard Store sweep; {} writes/round ({ROUND_SPENDS} spends + \
         {ROUND_SPENDS} credits), commit once per round; {} stride-ordered \
         lookups a backend in chunks of {LOOKUP_CHUNK} and churn rounds \
         alternated between the backends one by one, ratios over the whole \
         loop; {} inclusion + {} exclusion proofs; outpoints minted in the \
         cycledger/bench-state domain",
        2 * ROUND_SPENDS,
        effort.lookups,
        effort.proofs,
        effort.proofs
    )
}

fn main() {
    assert!(
        alloccount::counting_enabled(),
        "bench must be built with the alloccount `count` feature"
    );
    // The smoke run (CI perf gate) measures the tracked 10^6 tier only;
    // scripts/perf_gate.py --state compares the tracked ratios and
    // allocation count against BENCH_state.json and additionally enforces
    // the hard caps (lookup, apply, arena slots per live UTXO).
    let smoke = Args::parse("gen_bench_state", &[Flag::Smoke]).smoke;
    let (effort, tiers): (Effort, &[usize]) = if smoke {
        (SMOKE, &[1_000_000])
    } else {
        (FULL, &[100_000, 1_000_000, 10_000_000])
    };
    let mut sweep = Vec::new();
    let mut tracked_tier = None;
    for &utxos in tiers {
        let both = run_both(utxos, &effort);
        assert!(
            !smoke || both.smt.allocations_per_round > 0.0,
            "counting allocator saw no allocations"
        );
        sweep.push(Json::obj([
            ("utxos", Json::Int(utxos as u64)),
            ("map", both.map.json()),
            ("smt", both.smt.json()),
            (
                "smt_commit_over_map_apply",
                Json::Num(both.commit_ratio(), 3),
            ),
        ]));
        if utxos == 1_000_000 {
            tracked_tier = Some(tracked(utxos, &both));
        }
    }
    let mut doc = vec![("bench_config", Json::Str(bench_config(&effort)))];
    if !smoke {
        doc.push(("tiers", Json::Arr(sweep)));
    }
    doc.push((
        "tracked",
        tracked_tier.expect("the 10^6 tier is always swept"),
    ));
    println!("{}", Json::obj(doc));
}
