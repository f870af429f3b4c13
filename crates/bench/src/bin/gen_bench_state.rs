//! Emits `BENCH_state.json`'s `tracked` block for the pluggable state-store
//! layer: the flat-map and sparse-Merkle backends measured head to head over
//! one pre-seeded UTXO set of 10^6 entries.
//!
//! Per backend the run measures the operations the protocol actually
//! issues, at the store layer (`cycledger_ledger::Store`, the same
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
//!   capped: the hard caps apply to the per-transaction hot paths (lookup
//!   and apply), which is where a cap is physically meaningful;
//! * **arena** — the tree's node slots, free ones included, after the write
//!   rounds (SMT only), once sampled inclusion and exclusion proofs have
//!   been checked against the latest root with the crypto-crate verifier a
//!   light client would run.
//!
//! Both backends are seeded first and then run through one loop: lookups in
//! chunks of [`LOOKUP_CHUNK`], one chunk on each backend in turn, then churn
//! rounds in pairs, a map round and an SMT round (apply, then commit), the
//! backend that goes first swapping every chunk and every round. So neither
//! store runs more than two rounds in a row or stays cache-warm through
//! hundreds of its own, and a host that slows down for a while slows both
//! sides alike. Each `*_over_*` ratio is taken over the whole loop.
//!
//! `scripts/perf_gate.py --state` runs it and checks the emitted
//! `tracked.*` fields: the commit ratio against the committed
//! `BENCH_state.json` (>20% regression fails), and hard caps of 3.0 on the
//! lookup ratio, 2.2 on the apply ratio, 3.0 arena slots per live UTXO
//! after the write rounds (the tree's resident size must follow the live
//! set, not the number of rounds committed) and zero allocations in the
//! SMT's counted churn rounds.
//!
//! The binary installs [`alloccount::CountingAllocator`] so allocation
//! counts are exact and machine-independent; all harness bookkeeping
//! (outpoint minting, sample tables) is pre-allocated outside the measured
//! loop. A backend's allocations are counted over a fixed span of its churn
//! rounds, [`ALLOC_ROUNDS`] after its first, whatever the wall-clock loop
//! went on to hold.
//!
//! Run with `cargo run --release -p cycledger-bench --bin gen_bench_state`;
//! the JSON is printed to stdout so it can be folded into `BENCH_state.json`
//! at the repository root (`tracked` there holds the median of each field
//! over many runs).

use std::hint::black_box;
use std::time::Instant;

use cycledger_bench::Json;
use cycledger_crypto::sha256::hash_parts;
use cycledger_crypto::{verify_proof, ProofTerminal};
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
/// Live UTXOs in each store.
const UTXOS: usize = 1_000_000;
/// Odd and coprime to [`UTXOS`], so striding by it visits lookup targets in
/// a cache-hostile pseudo-random order.
const STRIDE: usize = 0x9E37_79B1;
/// Lookups a backend runs, in total and before the other takes its turn.
const LOOKUPS: usize = 200_000;
const LOOKUP_CHUNK: usize = 10_000;
/// Inclusion proofs, and as many exclusion proofs, checked on the SMT.
const PROOFS: usize = 256;
/// Churn rounds a backend's allocations are counted over, after its first:
/// the seeding commit folds the whole set in bulk and drops the fold's
/// buffers, so the first churn round builds them again.
const ALLOC_ROUNDS: u64 = 100;
/// The churn loop runs at least this long and this many rounds a backend.
const MIN_SECS: f64 = 1.0;
const MIN_ROUNDS: u64 = 1 + ALLOC_ROUNDS;

/// One backend's measurements.
struct StateSeries {
    lookup_ns: f64,
    apply_us_per_round: f64,
    commit_us_per_round: f64,
    /// Allocations over the [`ALLOC_ROUNDS`] counted churn rounds, per round.
    allocations_per_round: f64,
    /// Internal plus leaf arena slots (SMT only; 0 on the map).
    arena_slots: usize,
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

/// One backend's store, with its place in the churn sequence and what its
/// rounds and lookups have measured so far.
struct Side<'a> {
    store: Store,
    seeds: &'a [OutPoint],
    fresh: &'a [OutPoint],
    lookup_ns: u128,
    lookups: usize,
    apply_ns: u128,
    commit_ns: u128,
    allocations: u64,
    spent: usize,
    minted: usize,
    rounds: u64,
}

impl<'a> Side<'a> {
    /// Seeds the store with `seeds` and commits it. `seeds`/`fresh` are
    /// pre-minted outside every measured loop and shared by both backends
    /// so they see the identical operation sequence.
    fn seed(backend: StateBackend, seeds: &'a [OutPoint], fresh: &'a [OutPoint]) -> Self {
        let n = seeds.len();
        let mut store = Store::with_capacity(backend, n);
        for (i, op) in seeds.iter().enumerate() {
            store.insert(*op, output_for(i as u64));
        }
        store.commit(0);
        assert_eq!(store.len(), n);
        Side {
            store,
            seeds,
            fresh,
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
        if (2..=1 + ALLOC_ROUNDS).contains(&self.rounds) {
            self.allocations += alloccount::snapshot().since(&start_alloc).allocations;
        }
        assert_eq!(self.store.len(), n, "churn must keep the set size constant");
    }

    /// Inclusion and exclusion proofs and the arena (SMT only), then the
    /// series.
    fn finish(self, absent: &[OutPoint]) -> StateSeries {
        let Side {
            store,
            seeds,
            fresh,
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
        let arena_slots = match &store {
            Store::Map(_) => 0,
            Store::Smt(smt) => {
                // Present samples come from the still-live window
                // (everything at or beyond the spend cursor), exclusion
                // samples from a disjoint outpoint range.
                let window: &[OutPoint] = if spent < n {
                    &seeds[spent..]
                } else {
                    &fresh[spent - n..minted]
                };
                let step = (window.len() / PROOFS).max(1);
                let present = window.iter().step_by(step).take(PROOFS);
                let root = store.state_root().expect("smt backend has a root");
                for (op, live) in present
                    .map(|op| (op, true))
                    .chain(absent.iter().map(|op| (op, false)))
                {
                    let proof = store.prove(op).expect("smt backend always proves");
                    assert!(
                        verify_proof(&root, &key_digest(op), &proof).is_ok(),
                        "every sampled proof must verify"
                    );
                    let included = matches!(proof.terminal, ProofTerminal::Included { .. });
                    assert_eq!(
                        included, live,
                        "live samples prove inclusion, absent ones exclusion"
                    );
                }
                let (internal_nodes, leaf_nodes) = smt.allocated_nodes();
                internal_nodes + leaf_nodes
            }
        };
        StateSeries {
            lookup_ns: lookup_ns as f64 / lookups as f64,
            apply_us_per_round: apply_ns as f64 / 1000.0 / rounds as f64,
            commit_us_per_round: commit_ns as f64 / 1000.0 / rounds as f64,
            allocations_per_round: allocations as f64 / ALLOC_ROUNDS as f64,
            arena_slots,
        }
    }
}

/// Both backends' series.
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

/// Runs both backends over a shared operation sequence, in one loop that
/// alternates them chunk by chunk and round by round.
fn run_both() -> Both {
    let seeds = outpoint_range(0, UTXOS);
    let fresh = outpoint_range(UTXOS as u64, MAX_ROUNDS as usize * ROUND_SPENDS);
    let absent = outpoint_range(1 << 40, PROOFS);
    // The SMT first, so its genesis fold's scratch is freed before the map
    // is built beside it.
    let smt = Side::seed(StateBackend::Smt, &seeds, &fresh);
    let map = Side::seed(StateBackend::Map, &seeds, &fresh);
    let mut sides = [map, smt];
    // The backend that goes first swaps every chunk and every round. Every
    // lookup runs before the first churn round, which spends seeds.
    let order = |turn: usize| [turn % 2, 1 - turn % 2];
    for chunk in 0..LOOKUPS / LOOKUP_CHUNK {
        for i in order(chunk) {
            sides[i].lookups(LOOKUP_CHUNK);
        }
    }
    let start = Instant::now();
    for round in 0.. {
        for i in order(round) {
            sides[i].round();
        }
        let enough = start.elapsed().as_secs_f64() >= MIN_SECS;
        let rounds = sides[0].rounds;
        if (enough && rounds >= MIN_ROUNDS)
            || rounds >= MAX_ROUNDS
            || sides[0].minted + ROUND_SPENDS > fresh.len()
        {
            break;
        }
    }
    let [map, smt] = sides.map(|side| side.finish(&absent));
    Both { map, smt }
}

fn tracked(both: &Both) -> Json {
    let Both { map, smt } = both;
    // Arena slots (free ones included) per live entry once the write rounds
    // have run: what the tree keeps resident per UTXO it holds.
    let arena_slots = smt.arena_slots as f64 / UTXOS as f64;
    Json::obj([
        ("utxos", Json::Int(UTXOS as u64)),
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
        // Two places print any count over the 100 counted rounds exactly.
        (
            "smt_allocations_per_round",
            Json::Num(smt.allocations_per_round, 2),
        ),
        ("smt_arena_slots_per_live_utxo", Json::Num(arena_slots, 3)),
    ])
}

fn bench_config() -> String {
    format!(
        "single-shard Store run over {UTXOS} UTXOs; {} writes/round \
         ({ROUND_SPENDS} spends + {ROUND_SPENDS} credits), commit once per \
         round; {LOOKUPS} stride-ordered lookups a backend in chunks of \
         {LOOKUP_CHUNK} and churn rounds alternated between the backends one \
         by one, ratios over the whole loop; {PROOFS} inclusion + {PROOFS} \
         exclusion proofs checked; outpoints minted in the \
         cycledger/bench-state domain; allocations counted over {ALLOC_ROUNDS} churn \
         rounds after the first",
        2 * ROUND_SPENDS
    )
}

fn main() {
    assert!(
        alloccount::counting_enabled(),
        "bench must be built with the alloccount `count` feature"
    );
    let start = alloccount::snapshot();
    let both = run_both();
    assert!(
        alloccount::snapshot().since(&start).allocations > 0,
        "counting allocator saw no allocations"
    );
    println!(
        "{}",
        Json::obj([
            ("bench_config", Json::Str(bench_config())),
            ("tracked", tracked(&both)),
        ])
    );
}
