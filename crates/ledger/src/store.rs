//! The pluggable state-store layer behind [`crate::utxo::UtxoSet`].
//!
//! The paper's authentication function `V` only needs point lookups, so the
//! seed stored each shard's UTXOs in a flat [`FxHashMap`]. That answers
//! `get` in O(1) but can neither prove membership to a light client nor
//! publish a state commitment. This module splits the storage decision out
//! behind the [`StateStore`] trait with two backends:
//!
//! * [`MapStore`] — the flat map, still the default: zero behavioural change
//!   and byte-identical goldens for every pre-existing scenario;
//! * [`crate::smt::SmtStore`] — a compressed sparse Merkle tree updated in
//!   place by per-round batch commits, with one root digest kept per round
//!   and inclusion/exclusion proofs against the latest, at the cost of
//!   hashing each round's delta.
//!
//! Both backends sit behind the [`Store`] enum so the per-input lookup hot
//! path stays statically dispatched (one predictable branch, no vtable).

use cycledger_crypto::fxhash::{FxBuildHasher, FxHashMap};
use cycledger_crypto::sha256::Digest;
use cycledger_crypto::smt::StateProof;

use crate::smt::SmtStore;
use crate::transaction::{OutPoint, TxOutput};

/// Which state store a UTXO set (and hence a simulation) uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StateBackend {
    /// Flat hash map: O(1) everything, no authentication (the default).
    #[default]
    Map,
    /// Sparse Merkle tree: authenticated roots and proofs, per-round commits.
    Smt,
}

impl StateBackend {
    /// The spec/TOML name of this backend.
    pub fn name(self) -> &'static str {
        match self {
            StateBackend::Map => "map",
            StateBackend::Smt => "smt",
        }
    }

    /// Parses a spec/TOML name.
    pub fn from_name(name: &str) -> Option<StateBackend> {
        match name {
            "map" => Some(StateBackend::Map),
            "smt" => Some(StateBackend::Smt),
            _ => None,
        }
    }
}

/// The operations a UTXO state store must support.
///
/// `insert`/`remove` are the write path (block application); `commit` seals
/// one round's batch of writes into the state root recorded for that round —
/// a no-op returning `None` for unauthenticated backends. Proof queries
/// answer against the *latest committed* tree, never the uncommitted batch
/// and never an earlier round's: of history a store keeps root digests only.
pub trait StateStore {
    /// Point lookup (the `V` hot path).
    fn get(&self, outpoint: &OutPoint) -> Option<&TxOutput>;
    /// Inserts or replaces an entry, returning the previous value if any.
    fn insert(&mut self, outpoint: OutPoint, output: TxOutput) -> Option<TxOutput>;
    /// Removes an entry, returning it if it existed.
    fn remove(&mut self, outpoint: &OutPoint) -> Option<TxOutput>;
    /// Number of live entries.
    fn len(&self) -> usize;
    /// True when no entries are held.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Calls `f` on every live entry (iteration order unspecified).
    fn for_each(&self, f: &mut dyn FnMut(&OutPoint, &TxOutput));
    /// Seals the writes since the previous commit into the tree and records
    /// the resulting root digest for `round`; returns the root, or `None`
    /// for backends without authentication.
    fn commit(&mut self, round: u64) -> Option<Digest>;
    /// The most recently committed state root, if the backend has one.
    fn state_root(&self) -> Option<Digest>;
    /// The root committed at the latest round `<= round`, if any.
    fn root_at_round(&self, round: u64) -> Option<Digest>;
    /// An inclusion/exclusion proof for `outpoint` against the latest
    /// committed root (`None` for backends without authentication).
    fn prove(&self, outpoint: &OutPoint) -> Option<StateProof>;
}

/// The flat-map backend: the seed's `FxHashMap`, unchanged semantics.
///
/// Outpoints are SHA-256 digests the protocol itself admitted (not
/// attacker-chosen map keys), so the SipHash DoS defence of the std hasher
/// buys nothing on this per-input-lookup hot path.
#[derive(Clone, Debug, Default)]
pub struct MapStore {
    entries: FxHashMap<OutPoint, TxOutput>,
}

impl MapStore {
    /// An empty store pre-sized for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> MapStore {
        MapStore {
            entries: FxHashMap::with_capacity_and_hasher(capacity, FxBuildHasher::default()),
        }
    }
}

impl StateStore for MapStore {
    fn get(&self, outpoint: &OutPoint) -> Option<&TxOutput> {
        self.entries.get(outpoint)
    }

    fn insert(&mut self, outpoint: OutPoint, output: TxOutput) -> Option<TxOutput> {
        self.entries.insert(outpoint, output)
    }

    fn remove(&mut self, outpoint: &OutPoint) -> Option<TxOutput> {
        self.entries.remove(outpoint)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn for_each(&self, f: &mut dyn FnMut(&OutPoint, &TxOutput)) {
        for (outpoint, output) in &self.entries {
            f(outpoint, output);
        }
    }

    fn commit(&mut self, _round: u64) -> Option<Digest> {
        None
    }

    fn state_root(&self) -> Option<Digest> {
        None
    }

    fn root_at_round(&self, _round: u64) -> Option<Digest> {
        None
    }

    fn prove(&self, _outpoint: &OutPoint) -> Option<StateProof> {
        None
    }
}

/// Static-dispatch holder of the chosen backend; forwards the
/// [`StateStore`] surface with a single match instead of a vtable call.
#[derive(Clone, Debug)]
pub enum Store {
    /// Flat-map backend.
    Map(MapStore),
    /// Sparse-Merkle backend.
    Smt(SmtStore),
}

impl Store {
    /// Builds an empty store of the given backend, pre-sized where the
    /// backend supports it.
    pub fn with_capacity(backend: StateBackend, capacity: usize) -> Store {
        match backend {
            StateBackend::Map => Store::Map(MapStore::with_capacity(capacity)),
            StateBackend::Smt => Store::Smt(SmtStore::with_capacity(capacity)),
        }
    }

    /// Which backend this store is.
    pub fn backend(&self) -> StateBackend {
        match self {
            Store::Map(_) => StateBackend::Map,
            Store::Smt(_) => StateBackend::Smt,
        }
    }

    fn as_store(&self) -> &dyn StateStore {
        match self {
            Store::Map(s) => s,
            Store::Smt(s) => s,
        }
    }

    fn as_store_mut(&mut self) -> &mut dyn StateStore {
        match self {
            Store::Map(s) => s,
            Store::Smt(s) => s,
        }
    }

    /// Point lookup (statically dispatched on the hot path).
    #[inline]
    pub fn get(&self, outpoint: &OutPoint) -> Option<&TxOutput> {
        match self {
            Store::Map(s) => s.get(outpoint),
            Store::Smt(s) => s.get(outpoint),
        }
    }

    /// Inserts or replaces an entry, returning the previous value if any.
    #[inline]
    pub fn insert(&mut self, outpoint: OutPoint, output: TxOutput) -> Option<TxOutput> {
        match self {
            Store::Map(s) => s.insert(outpoint, output),
            Store::Smt(s) => s.insert(outpoint, output),
        }
    }

    /// Removes an entry, returning it if it existed.
    #[inline]
    pub fn remove(&mut self, outpoint: &OutPoint) -> Option<TxOutput> {
        match self {
            Store::Map(s) => s.remove(outpoint),
            Store::Smt(s) => s.remove(outpoint),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.as_store().len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.as_store().is_empty()
    }

    /// Calls `f` on every live entry (iteration order unspecified).
    pub fn for_each(&self, f: &mut dyn FnMut(&OutPoint, &TxOutput)) {
        self.as_store().for_each(f)
    }

    /// Seals the writes since the previous commit for `round`.
    pub fn commit(&mut self, round: u64) -> Option<Digest> {
        self.as_store_mut().commit(round)
    }

    /// The most recently committed state root, if any.
    pub fn state_root(&self) -> Option<Digest> {
        self.as_store().state_root()
    }

    /// The root committed at the latest round `<= round`, if any.
    pub fn root_at_round(&self, round: u64) -> Option<Digest> {
        self.as_store().root_at_round(round)
    }

    /// A proof for `outpoint` against the latest committed root, if the
    /// backend is authenticated.
    pub fn prove(&self, outpoint: &OutPoint) -> Option<StateProof> {
        self.as_store().prove(outpoint)
    }
}

impl Default for Store {
    fn default() -> Store {
        Store::Map(MapStore::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::AccountId;
    use cycledger_crypto::sha256::hash_parts;

    fn op(n: u64) -> OutPoint {
        OutPoint {
            tx_id: hash_parts(&[b"store-test", &n.to_be_bytes()]),
            index: 0,
        }
    }

    fn out(owner: u64, amount: u64) -> TxOutput {
        TxOutput {
            owner: AccountId(owner),
            amount,
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for backend in [StateBackend::Map, StateBackend::Smt] {
            assert_eq!(StateBackend::from_name(backend.name()), Some(backend));
        }
        assert_eq!(StateBackend::from_name("jellyfish"), None);
        assert_eq!(StateBackend::default(), StateBackend::Map);
    }

    #[test]
    fn map_store_has_no_authentication_surface() {
        let mut store = Store::with_capacity(StateBackend::Map, 4);
        assert_eq!(store.backend(), StateBackend::Map);
        assert!(store.insert(op(1), out(1, 10)).is_none());
        assert_eq!(store.insert(op(1), out(1, 20)), Some(out(1, 10)));
        assert_eq!(store.len(), 1);
        assert_eq!(store.commit(0), None);
        assert_eq!(store.state_root(), None);
        assert_eq!(store.root_at_round(0), None);
        assert!(store.prove(&op(1)).is_none());
        assert_eq!(store.remove(&op(1)), Some(out(1, 20)));
        assert!(store.is_empty());
    }

    #[test]
    fn for_each_visits_every_entry() {
        let mut store = Store::with_capacity(StateBackend::Map, 4);
        for n in 0..8 {
            store.insert(op(n), out(n, n + 1));
        }
        let mut total = 0u64;
        store.for_each(&mut |_, o| total += o.amount);
        assert_eq!(total, (1..=8).sum::<u64>());
    }
}
