//! Per-shard UTXO sets and the authentication function `V`.
//!
//! Each committee maintains the UTXOs owned by accounts of its shard (§III-D).
//! Validation of a transaction therefore splits naturally:
//!
//! * every *input* must exist unspent in the UTXO set of the shard that owns it
//!   (checked by that shard's committee), and
//! * the transaction as a whole must conserve value (`Σ inputs ≥ Σ outputs`) and
//!   must not spend the same outpoint twice.
//!
//! For intra-shard transactions one committee checks everything; for cross-shard
//! transactions each involved committee checks its own inputs and the referee
//! committee combines the verdicts.

use std::sync::atomic::{AtomicU64, Ordering};

use cycledger_crypto::fxhash::{FxHashMap, FxHashSet};
use cycledger_crypto::sha256::Digest;
use cycledger_crypto::smt::StateProof;

use crate::store::{StateBackend, Store};
use crate::transaction::{OutPoint, Transaction, TxOutput};

/// Why a transaction failed validation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ValidationError {
    /// An input refers to an outpoint this shard does not hold (missing or
    /// already spent).
    MissingInput,
    /// The same outpoint appears twice among the inputs.
    DoubleSpendWithinTx,
    /// An input's claimed owner or amount disagrees with the UTXO set.
    InputMismatch,
    /// Outputs exceed inputs.
    ValueCreated,
    /// The transaction has no outputs (disallowed for non-genesis payments).
    Empty,
}

/// The UTXO set of a single shard.
///
/// Entries live in a [`Store`]: by default the seed's flat map, or the
/// authenticated sparse-Merkle backend when the simulation asks for state
/// roots. Nothing protocol-visible iterates the store unordered —
/// [`UtxoSet::sorted_outpoints`] sorts first.
#[derive(Debug, Default)]
pub struct UtxoSet {
    /// Which shard this set belongs to.
    shard: usize,
    /// Number of shards in the system (for ownership routing).
    num_shards: usize,
    store: Store,
    /// Maintained Σ amount over the held entries; `total_value` is called at
    /// report time, where a full-map scan would be a 10^7-entry walk at
    /// target scale.
    total: u64,
    /// Counts calls to [`UtxoSet::sorted_outpoints`] — the call is O(n log n)
    /// and restricted to report-time; a regression test pins that `apply` and
    /// `validate` never touch it.
    sorted_queries: AtomicU64,
}

impl Clone for UtxoSet {
    fn clone(&self) -> Self {
        UtxoSet {
            shard: self.shard,
            num_shards: self.num_shards,
            store: self.store.clone(),
            total: self.total,
            sorted_queries: AtomicU64::new(self.sorted_queries.load(Ordering::Relaxed)),
        }
    }
}

impl UtxoSet {
    /// Creates an empty UTXO set for `shard` out of `num_shards`.
    pub fn new(shard: usize, num_shards: usize) -> Self {
        Self::with_capacity(shard, num_shards, 0)
    }

    /// Creates an empty UTXO set pre-sized for `capacity` outpoints, so the
    /// steady-state working set never pays rehash-and-move churn.
    pub fn with_capacity(shard: usize, num_shards: usize, capacity: usize) -> Self {
        Self::with_backend(shard, num_shards, capacity, StateBackend::Map)
    }

    /// Creates an empty UTXO set on the chosen state backend.
    pub fn with_backend(
        shard: usize,
        num_shards: usize,
        capacity: usize,
        backend: StateBackend,
    ) -> Self {
        assert!(num_shards > 0 && shard < num_shards);
        UtxoSet {
            shard,
            num_shards,
            store: Store::with_capacity(backend, capacity),
            total: 0,
            sorted_queries: AtomicU64::new(0),
        }
    }

    /// The shard index this set serves.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Number of UTXOs held.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if no UTXOs are held.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Total value held by this shard — O(1), maintained on every
    /// credit/spend.
    pub fn total_value(&self) -> u64 {
        debug_assert_eq!(
            self.store.live().values().map(|o| o.amount).sum::<u64>(),
            self.total,
            "maintained total_value diverged from the full scan"
        );
        self.total
    }

    /// Looks up an outpoint.
    pub fn get(&self, outpoint: &OutPoint) -> Option<&TxOutput> {
        self.store.get(outpoint)
    }

    /// Inserts an output if its owner belongs to this shard; returns whether it
    /// was inserted. Used both at genesis and when applying a block.
    pub fn credit(&mut self, outpoint: OutPoint, output: TxOutput) -> bool {
        if output.owner.shard(self.num_shards) != self.shard {
            return false;
        }
        if let Some(old) = self.store.insert(outpoint, output) {
            self.total -= old.amount;
        }
        self.total += output.amount;
        true
    }

    /// Seals the writes applied since the previous commit into a versioned
    /// state root recorded for `round`. Returns the root on authenticated
    /// backends, `None` on the flat map.
    pub fn commit_round(&mut self, round: u64) -> Option<Digest> {
        self.store.commit(round)
    }

    /// Folds genesis credits into the authenticated tree without recording a
    /// round version (no-op on the flat map).
    pub fn commit_genesis(&mut self) -> Option<Digest> {
        self.store.commit_genesis()
    }

    /// The most recently committed state root, if the backend has one.
    pub fn state_root(&self) -> Option<Digest> {
        self.store.state_root()
    }

    /// The root committed at the latest round `<= round`, if any.
    pub fn root_at_round(&self, round: u64) -> Option<Digest> {
        self.store.root_at_round(round)
    }

    /// An inclusion/exclusion proof for `outpoint` against the latest
    /// committed root (`None` on unauthenticated backends).
    pub fn prove(&self, outpoint: &OutPoint) -> Option<StateProof> {
        self.store.prove(outpoint)
    }

    /// Validates the parts of `tx` that concern this shard (the paper's `V`).
    ///
    /// Only inputs owned by this shard are checked against the set; inputs owned
    /// by other shards are ignored here and validated by their own committees.
    /// Structural checks (double-spend-within-tx, value conservation, non-empty
    /// outputs) are performed by every shard since they need no state.
    pub fn validate(&self, tx: &Transaction) -> Result<(), ValidationError> {
        validate_for_shard(tx, self.num_shards, self.shard, |outpoint| {
            self.store.get(outpoint)
        })
    }

    /// Applies a validated transaction: removes the inputs this shard owns and
    /// credits the outputs whose owners live in this shard.
    ///
    /// Returns the number of UTXOs spent plus created locally. The caller is
    /// responsible for only applying transactions that passed [`Self::validate`]
    /// on every involved shard (that is exactly what block application does).
    pub fn apply(&mut self, tx: &Transaction) -> usize {
        let mut touched = 0;
        for input in tx.inputs() {
            if input.owner.shard(self.num_shards) != self.shard {
                continue;
            }
            if let Some(spent) = self.store.remove(&input.outpoint) {
                self.total -= spent.amount;
                touched += 1;
            }
        }
        // Credit outputs owned by this shard straight from the memoized id —
        // no intermediate created-utxos vector on the apply hot path.
        let id = tx.id();
        for (index, output) in tx.outputs().iter().enumerate() {
            let outpoint = OutPoint {
                tx_id: id,
                index: index as u32,
            };
            if self.credit(outpoint, *output) {
                touched += 1;
            }
        }
        touched
    }

    /// Iterates over held outpoints (sorted, for deterministic snapshots).
    ///
    /// O(n log n) per call: **report-time only**. The per-round pipeline
    /// (`validate`, `apply`, block application) must never call this — a
    /// regression test checks the call counter stays at zero across heavy
    /// validate/apply traffic.
    pub fn sorted_outpoints(&self) -> Vec<OutPoint> {
        self.sorted_queries.fetch_add(1, Ordering::Relaxed);
        let mut keys: Vec<OutPoint> = self.store.live().keys().copied().collect();
        keys.sort();
        keys
    }

    /// Number of times [`UtxoSet::sorted_outpoints`] has been called on this
    /// set (regression instrumentation for the report-time-only restriction).
    pub fn sorted_outpoint_queries(&self) -> u64 {
        self.sorted_queries.load(Ordering::Relaxed)
    }
}

/// The authentication function `V` as shard `shard` of `num_shards` runs it,
/// with `lookup` resolving an outpoint in that shard's state: the state-free
/// checks (non-empty outputs, no duplicate inputs, conservation of value),
/// then every input the shard owns must resolve to exactly the output it
/// claims. Shared by the per-shard [`UtxoSet::validate`] and the overlay
/// validation used during block assembly; only the lookup differs.
fn validate_for_shard<'a>(
    tx: &Transaction,
    num_shards: usize,
    shard: usize,
    lookup: impl Fn(&OutPoint) -> Option<&'a TxOutput>,
) -> Result<(), ValidationError> {
    if tx.outputs().is_empty() {
        return Err(ValidationError::Empty);
    }
    let inputs = tx.inputs();
    for (i, a) in inputs.iter().enumerate() {
        for b in &inputs[i + 1..] {
            if a.outpoint == b.outpoint {
                return Err(ValidationError::DoubleSpendWithinTx);
            }
        }
    }
    // Conservation of value over claimed amounts; the stateful existence
    // checks pin the claims to the actual UTXO sets.
    if !tx.is_genesis() && tx.output_sum() > tx.input_sum() {
        return Err(ValidationError::ValueCreated);
    }
    for input in inputs {
        if input.owner.shard(num_shards) != shard {
            continue;
        }
        match lookup(&input.outpoint) {
            None => return Err(ValidationError::MissingInput),
            Some(existing) if existing.owner != input.owner || existing.amount != input.amount => {
                return Err(ValidationError::InputMismatch)
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// A copy-free view of "the UTXO state after applying these candidates" used
/// by the referee committee while it assembles a block.
///
/// The overlay records only the round's
/// deltas — outpoints spent and outputs created by already-accepted
/// candidates — and resolves lookups as `created − spent` over the untouched
/// base sets. `clear()` keeps the allocations for the next round, making the
/// referee's re-validation allocation-free at steady state.
#[derive(Debug, Default)]
pub struct UtxoOverlay {
    spent: FxHashSet<OutPoint>,
    created: FxHashMap<OutPoint, TxOutput>,
}

impl UtxoOverlay {
    /// Creates an empty overlay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets all deltas but keeps the allocated capacity.
    pub fn clear(&mut self) {
        self.spent.clear();
        self.created.clear();
    }

    /// True when no deltas are recorded.
    pub fn is_empty(&self) -> bool {
        self.spent.is_empty() && self.created.is_empty()
    }

    /// Resolves `outpoint` as shard `shard` of `base` would see it after the
    /// recorded deltas.
    fn lookup<'a>(
        &'a self,
        base: &'a [UtxoSet],
        shard: usize,
        outpoint: &OutPoint,
    ) -> Option<&'a TxOutput> {
        if self.spent.contains(outpoint) {
            return None;
        }
        if let Some(created) = self.created.get(outpoint) {
            // Created outputs are routed to their owner's shard, mirroring
            // `UtxoSet::credit`'s refusal to hold foreign outputs.
            if created.owner.shard(base.len()) == shard {
                return Some(created);
            }
            return None;
        }
        base[shard].get(outpoint)
    }

    /// Validates `tx` against every involved shard as
    /// [`validate_across_shards`] does, but over `base + deltas` instead of a
    /// cloned working copy.
    pub fn validate_across(
        &self,
        tx: &Transaction,
        base: &[UtxoSet],
    ) -> Result<(), ValidationError> {
        let m = base.len();
        let check = |shard| validate_for_shard(tx, m, shard, |op| self.lookup(base, shard, op));
        for shard in tx.input_shard_iter(m) {
            check(shard)?;
        }
        if !tx.is_genesis() && tx.inputs().is_empty() {
            return Err(ValidationError::Empty);
        }
        if tx.inputs().is_empty() && !base.is_empty() {
            // Covers genesis transactions: run the structural checks once,
            // exactly as `validate_across_shards` does via the first shard.
            check(base[0].shard())?;
        }
        Ok(())
    }

    /// Records an accepted transaction's deltas: all inputs become spent, all
    /// created outputs become visible to their owners' shards.
    pub fn apply(&mut self, tx: &Transaction) {
        for input in tx.inputs() {
            self.spent.insert(input.outpoint);
        }
        let id = tx.id();
        for (index, output) in tx.outputs().iter().enumerate() {
            self.created.insert(
                OutPoint {
                    tx_id: id,
                    index: index as u32,
                },
                *output,
            );
        }
    }
}

/// Validates a transaction against every involved shard's UTXO set, as the
/// referee committee conceptually does when it combines committee verdicts.
pub fn validate_across_shards(tx: &Transaction, shards: &[UtxoSet]) -> Result<(), ValidationError> {
    for shard_idx in tx.input_shard_iter(shards.len()) {
        shards[shard_idx].validate(tx)?;
    }
    // A transaction with no inputs in any shard (non-genesis) cannot be valid.
    if !tx.is_genesis() && tx.inputs().is_empty() {
        return Err(ValidationError::Empty);
    }
    // Still run the structural checks at least once even if it has no inputs in
    // range (covers genesis and fully-foreign transactions).
    if tx.inputs().is_empty() {
        if let Some(first) = shards.first() {
            first.validate(tx)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{AccountId, TxInput};

    /// Builds `m` shard UTXO sets seeded with one 100-value UTXO per account 0..n.
    fn setup(m: usize, accounts: u64) -> (Vec<UtxoSet>, Vec<(OutPoint, TxOutput)>) {
        let mut shards: Vec<UtxoSet> = (0..m).map(|s| UtxoSet::new(s, m)).collect();
        let genesis = Transaction::genesis(
            (0..accounts)
                .map(|a| TxOutput {
                    owner: AccountId(a),
                    amount: 100,
                })
                .collect(),
            0,
        );
        let created = genesis.created_utxos();
        for (outpoint, output) in &created {
            let shard = output.owner.shard(m);
            assert!(shards[shard].credit(*outpoint, *output));
        }
        (shards, created)
    }

    fn spend(from: (OutPoint, TxOutput), to: AccountId, amount: u64) -> Transaction {
        Transaction::new(
            vec![TxInput {
                outpoint: from.0,
                owner: from.1.owner,
                amount: from.1.amount,
            }],
            vec![
                TxOutput { owner: to, amount },
                TxOutput {
                    owner: from.1.owner,
                    amount: from.1.amount - amount - 1, // 1 unit fee
                },
            ],
            1,
        )
    }

    #[test]
    fn credit_routes_by_shard() {
        let (shards, created) = setup(4, 40);
        let total: usize = shards.iter().map(|s| s.len()).sum();
        assert_eq!(total, 40);
        let value: u64 = shards.iter().map(|s| s.total_value()).sum();
        assert_eq!(value, 4000);
        // Outputs were routed to the owner's shard.
        for (outpoint, output) in &created {
            let s = output.owner.shard(4);
            assert_eq!(shards[s].get(outpoint), Some(output));
        }
        // Crediting to the wrong shard is refused.
        let mut wrong = UtxoSet::new((created[0].1.owner.shard(4) + 1) % 4, 4);
        assert!(!wrong.credit(created[0].0, created[0].1));
    }

    #[test]
    fn valid_spend_passes_and_applies() {
        let (mut shards, created) = setup(2, 10);
        let tx = spend(created[0], AccountId(5), 40);
        let owner_shard = created[0].1.owner.shard(2);
        assert_eq!(shards[owner_shard].validate(&tx), Ok(()));
        assert_eq!(validate_across_shards(&tx, &shards), Ok(()));
        let before: u64 = shards.iter().map(|s| s.total_value()).sum();
        for s in shards.iter_mut() {
            s.apply(&tx);
        }
        let after: u64 = shards.iter().map(|s| s.total_value()).sum();
        assert_eq!(before - after, tx.fee(), "only the fee leaves the UTXO set");
        // The spent outpoint is gone.
        assert!(shards[owner_shard].get(&created[0].0).is_none());
    }

    #[test]
    fn missing_input_rejected() {
        let (mut shards, created) = setup(2, 10);
        let tx = spend(created[0], AccountId(5), 40);
        for s in shards.iter_mut() {
            s.apply(&tx);
        }
        // Spending the same UTXO again fails.
        assert_eq!(
            validate_across_shards(&tx, &shards),
            Err(ValidationError::MissingInput)
        );
    }

    #[test]
    fn double_spend_within_tx_rejected() {
        let (shards, created) = setup(2, 10);
        let (outpoint, output) = created[0];
        let tx = Transaction::new(
            vec![
                TxInput {
                    outpoint,
                    owner: output.owner,
                    amount: output.amount,
                },
                TxInput {
                    outpoint,
                    owner: output.owner,
                    amount: output.amount,
                },
            ],
            vec![TxOutput {
                owner: AccountId(9),
                amount: 150,
            }],
            0,
        );
        assert_eq!(
            validate_across_shards(&tx, &shards),
            Err(ValidationError::DoubleSpendWithinTx)
        );
    }

    #[test]
    fn value_creation_rejected() {
        let (shards, created) = setup(2, 10);
        let (outpoint, output) = created[0];
        let tx = Transaction::new(
            vec![TxInput {
                outpoint,
                owner: output.owner,
                amount: output.amount,
            }],
            vec![TxOutput {
                owner: AccountId(3),
                amount: output.amount + 1,
            }],
            0,
        );
        assert_eq!(
            validate_across_shards(&tx, &shards),
            Err(ValidationError::ValueCreated)
        );
    }

    #[test]
    fn mismatched_claim_rejected() {
        let (shards, created) = setup(2, 10);
        let (outpoint, output) = created[0];
        let tx = Transaction::new(
            vec![TxInput {
                outpoint,
                owner: output.owner,
                amount: output.amount + 50, // inflated claim
            }],
            vec![TxOutput {
                owner: AccountId(3),
                amount: 120,
            }],
            0,
        );
        assert_eq!(
            validate_across_shards(&tx, &shards),
            Err(ValidationError::InputMismatch)
        );
    }

    #[test]
    fn empty_outputs_rejected() {
        let (shards, created) = setup(2, 10);
        let (outpoint, output) = created[0];
        let tx = Transaction::new(
            vec![TxInput {
                outpoint,
                owner: output.owner,
                amount: output.amount,
            }],
            vec![],
            0,
        );
        assert_eq!(shards[0].validate(&tx), Err(ValidationError::Empty));
    }

    #[test]
    fn cross_shard_spend_checks_owning_shard_only() {
        let m = 4;
        let (shards, created) = setup(m, 40);
        // Pick a UTXO and pay an account in a different shard.
        let (outpoint, output) = created[0];
        let other = (0..200u64)
            .map(AccountId)
            .find(|a| a.shard(m) != output.owner.shard(m))
            .unwrap();
        let tx = Transaction::new(
            vec![TxInput {
                outpoint,
                owner: output.owner,
                amount: output.amount,
            }],
            vec![TxOutput {
                owner: other,
                amount: 99,
            }],
            0,
        );
        assert!(!tx.is_intra_shard(m));
        assert_eq!(validate_across_shards(&tx, &shards), Ok(()));
        // The receiving shard alone cannot see the input, but it is not asked to.
        assert_eq!(tx.input_shards(m), vec![output.owner.shard(m)]);
    }

    #[test]
    fn sorted_outpoints_are_deterministic() {
        let (shards, _) = setup(2, 20);
        let a = shards[0].sorted_outpoints();
        let b = shards[0].sorted_outpoints();
        assert_eq!(a, b);
        assert_eq!(a.len(), shards[0].len());
    }

    #[test]
    fn apply_and_validate_never_call_sorted_outpoints() {
        // Regression: sorted_outpoints is O(n log n) and report-time only.
        // Heavy validate/apply traffic must leave its call counter untouched.
        let (mut shards, created) = setup(2, 40);
        for (i, from) in created.iter().enumerate().take(30) {
            let tx = spend(*from, AccountId((i as u64 + 1) % 40), 40);
            let _ = validate_across_shards(&tx, &shards);
            for s in shards.iter_mut() {
                s.validate(&tx).unwrap();
                s.apply(&tx);
            }
        }
        for s in &shards {
            assert_eq!(
                s.sorted_outpoint_queries(),
                0,
                "validate/apply must not sort the UTXO set"
            );
        }
        // An explicit report-time call is counted.
        let _ = shards[0].sorted_outpoints();
        assert_eq!(shards[0].sorted_outpoint_queries(), 1);
    }

    mod differential {
        use super::*;
        use crate::smt::SmtStore;
        use crate::store::StateBackend;
        use proptest::prelude::*;

        /// Applies one genesis-style credit to every set of both fleets.
        fn credit_both(fleets: [&mut Vec<UtxoSet>; 2], tx: &Transaction) {
            for sets in fleets {
                for set in sets.iter_mut() {
                    set.apply(tx);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The differential contract of the state layer: a random
            /// credit/spend/commit sequence drives a map-backed and an
            /// SMT-backed fleet; both must agree on every lookup, `len`,
            /// `total_value` and the sorted-outpoint listing, and the SMT
            /// roots must be independent of insertion order and batch
            /// partitioning.
            #[test]
            fn prop_backends_agree_under_random_churn(
                raw in proptest::collection::vec(0u64..1_000_000, 1..160),
            ) {
                let m = 2usize;
                let mut map_sets: Vec<UtxoSet> =
                    (0..m).map(|s| UtxoSet::new(s, m)).collect();
                let mut smt_sets: Vec<UtxoSet> = (0..m)
                    .map(|s| UtxoSet::with_backend(s, m, 0, StateBackend::Smt))
                    .collect();
                let mut live: Vec<(OutPoint, TxOutput)> = Vec::new();
                let mut nonce = 0u64;
                let mut round = 0u64;
                for v in raw {
                    match v % 4 {
                        0 | 1 => {
                            // Credit: a fresh genesis-style mint.
                            nonce += 1;
                            let tx = Transaction::genesis(
                                vec![TxOutput {
                                    owner: AccountId(v % 64),
                                    amount: 1 + v % 500,
                                }],
                                nonce,
                            );
                            live.extend(tx.created_utxos());
                            credit_both([&mut map_sets, &mut smt_sets], &tx);
                        }
                        2 => {
                            // Spend: consume one live UTXO, mint one output.
                            if live.is_empty() {
                                continue;
                            }
                            let idx = (v as usize / 4) % live.len();
                            let (outpoint, output) = live.swap_remove(idx);
                            let tx = Transaction::new(
                                vec![TxInput {
                                    outpoint,
                                    owner: output.owner,
                                    amount: output.amount,
                                }],
                                vec![TxOutput {
                                    owner: AccountId((v / 7) % 64),
                                    amount: output.amount,
                                }],
                                v,
                            );
                            live.extend(tx.created_utxos());
                            credit_both([&mut map_sets, &mut smt_sets], &tx);
                        }
                        _ => {
                            // Commit: seal the batch accumulated so far.
                            for (ms, ss) in map_sets.iter_mut().zip(smt_sets.iter_mut()) {
                                prop_assert_eq!(ms.commit_round(round), None);
                                prop_assert!(ss.commit_round(round).is_some());
                            }
                            round += 1;
                        }
                    }
                }
                for (ms, ss) in map_sets.iter_mut().zip(smt_sets.iter_mut()) {
                    prop_assert_eq!(ms.len(), ss.len());
                    prop_assert_eq!(ms.total_value(), ss.total_value());
                    let listing = ms.sorted_outpoints();
                    prop_assert_eq!(&listing, &ss.sorted_outpoints());
                    for outpoint in &listing {
                        prop_assert_eq!(ms.get(outpoint), ss.get(outpoint));
                    }
                    // Order independence: one fresh batch holding the same
                    // final entries — inserted forward and reverse — commits
                    // to the same root the incremental churn arrived at.
                    prop_assert!(ss.commit_round(round).is_some());
                    let entries: Vec<(OutPoint, TxOutput)> = listing
                        .iter()
                        .map(|op| (*op, *ss.get(op).unwrap()))
                        .collect();
                    let mut fwd = SmtStore::default();
                    let mut rev = SmtStore::default();
                    for (op, out) in &entries {
                        fwd.insert(*op, *out);
                    }
                    for (op, out) in entries.iter().rev() {
                        rev.insert(*op, *out);
                    }
                    let fwd_root = fwd.commit(0);
                    prop_assert_eq!(fwd_root, rev.commit(0));
                    prop_assert_eq!(Some(fwd_root), ss.state_root());
                }
            }
        }
    }

    #[test]
    fn overlay_matches_cloned_working_sets() {
        // The overlay must reach exactly the verdicts — accept, or reject for
        // the same reason — that the clone-and-apply working copy reaches,
        // over valid spends, double submissions, chained spends and one
        // candidate per way `V` can fail.
        let m = 3;
        let (shards, created) = setup(m, 30);
        let input = |(outpoint, output): (OutPoint, TxOutput)| TxInput {
            outpoint,
            owner: output.owner,
            amount: output.amount,
        };
        let pay = |to: u64, amount: u64| TxOutput {
            owner: AccountId(to),
            amount,
        };
        let account = |same_shard: bool, of: AccountId| {
            (0..200u64)
                .map(AccountId)
                .find(|a| *a != of && (a.shard(m) == of.shard(m)) == same_shard)
                .unwrap()
        };
        let mut candidates: Vec<Transaction> = Vec::new();
        for (i, from) in created.iter().enumerate().take(12) {
            let tx = spend(*from, AccountId((i as u64 + 7) % 30), 40);
            if i % 3 == 0 {
                // Duplicate submission: second copy must be rejected.
                candidates.push(tx.clone());
            }
            candidates.push(tx);
        }
        // Chained spends of an output an earlier candidate created: claiming
        // the wrong amount; claiming an owner of another shard, which does
        // not hold the output (it went to its real owner's shard); valid.
        let child = candidates[0].created_utxos()[0];
        let (owner, amount) = (child.1.owner, child.1.amount);
        let wrong_amount = TxInput {
            amount: amount + 1,
            ..input(child)
        };
        let foreign_owner = TxInput {
            owner: account(false, owner),
            ..input(child)
        };
        candidates.push(Transaction::new(
            vec![wrong_amount],
            vec![pay(2, amount)],
            900,
        ));
        candidates.push(Transaction::new(
            vec![foreign_owner],
            vec![pay(2, amount)],
            901,
        ));
        candidates.push(Transaction::new(
            vec![input(child)],
            vec![pay(2, amount - 1)],
            902,
        ));
        // Genesis UTXOs no candidate touched yet: the wrong owner of the
        // right shard, value created, one input spent twice, no outputs, and
        // an owner of another shard.
        let claim_owner = |n: usize, same_shard: bool| TxInput {
            owner: account(same_shard, created[n].1.owner),
            ..input(created[n])
        };
        let (a, b, c, d) = (
            input(created[21]),
            input(created[22]),
            input(created[23]),
            claim_owner(24, false),
        );
        candidates.push(Transaction::new(
            vec![claim_owner(20, true)],
            vec![pay(3, 50)],
            903,
        ));
        candidates.push(Transaction::new(vec![a], vec![pay(3, 101)], 904));
        candidates.push(Transaction::new(vec![b, b], vec![pay(3, 150)], 905));
        candidates.push(Transaction::new(vec![c], vec![], 906));
        candidates.push(Transaction::new(vec![d], vec![pay(3, 50)], 907));

        // Reference: clone the sets and apply incrementally (the seed's way).
        let mut working: Vec<UtxoSet> = shards.to_vec();
        let mut expected = Vec::new();
        for tx in &candidates {
            let verdict = validate_across_shards(tx, &working);
            if verdict.is_ok() {
                for set in working.iter_mut() {
                    set.apply(tx);
                }
            }
            expected.push(verdict);
        }
        use ValidationError::*;
        let reasons = [
            MissingInput,
            InputMismatch,
            ValueCreated,
            DoubleSpendWithinTx,
            Empty,
        ];
        for want in reasons.map(Err).into_iter().chain([Ok(())]) {
            assert!(expected.contains(&want), "no candidate yields {want:?}");
        }

        // Overlay: same verdicts, no cloned sets.
        let mut overlay = UtxoOverlay::new();
        for (tx, want) in candidates.iter().zip(&expected) {
            let got = overlay.validate_across(tx, &shards);
            assert_eq!(&got, want, "overlay verdict diverged for {:?}", tx.id());
            if got.is_ok() {
                overlay.apply(tx);
            }
        }
        assert!(!overlay.is_empty());
        overlay.clear();
        assert!(overlay.is_empty());
    }
}
