//! The structures under test, behind one trait the driver is generic over.

use bdhtm_core::{EpochSys, LiveBlock};
use hashtable::BdSpash;
use htm_sim::Htm;
use skiplist::BdlSkiplist;
use std::sync::Arc;
use veb::PhtmVeb;

/// A buffered-durable key-value structure as the benchmark drives it:
/// built on a formatted epoch system, rebuilt from a recovered one, and
/// queried only through its public operations.
///
/// Unlike `bdhtm_core::BdlKv`, the universe is a run parameter (PHTM-vEB
/// needs it at construction), so the benchmark can size every structure
/// to the workload's key space.
pub trait KvBackend: Send + Sync + Sized + 'static {
    /// An empty structure over keys `0..2^universe_bits`.
    fn create(universe_bits: u32, esys: Arc<EpochSys>, htm: Arc<Htm>) -> Self;

    /// Rebuilds the structure from the live blocks of a recovered epoch
    /// system (single-threaded rebuild).
    fn recover(universe_bits: u32, esys: Arc<EpochSys>, htm: Arc<Htm>, live: &[LiveBlock]) -> Self;

    fn get(&self, key: u64) -> Option<u64>;

    /// Inserts or updates; `true` if the key was absent.
    fn insert(&self, key: u64, value: u64) -> bool;

    /// Removes; `true` if the key was present.
    fn remove(&self, key: u64) -> bool;

    /// Structural invariant check (call while quiescent).
    fn validate(&self) -> Result<(), String>;

    /// Returns the per-thread preallocated blocks (clean shutdown).
    fn drain_preallocated(&self);
}

impl KvBackend for PhtmVeb {
    fn create(universe_bits: u32, esys: Arc<EpochSys>, htm: Arc<Htm>) -> Self {
        PhtmVeb::new(universe_bits, esys, htm)
    }

    fn recover(universe_bits: u32, esys: Arc<EpochSys>, htm: Arc<Htm>, live: &[LiveBlock]) -> Self {
        PhtmVeb::recover(universe_bits, esys, htm, live, 1)
    }

    fn get(&self, key: u64) -> Option<u64> {
        PhtmVeb::get(self, key)
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        PhtmVeb::insert(self, key, value)
    }

    fn remove(&self, key: u64) -> bool {
        PhtmVeb::remove(self, key)
    }

    fn validate(&self) -> Result<(), String> {
        PhtmVeb::validate(self)
    }

    fn drain_preallocated(&self) {
        PhtmVeb::drain_preallocated(self)
    }
}

impl KvBackend for BdSpash {
    fn create(_universe_bits: u32, esys: Arc<EpochSys>, htm: Arc<Htm>) -> Self {
        BdSpash::new(esys, htm)
    }

    fn recover(
        _universe_bits: u32,
        esys: Arc<EpochSys>,
        htm: Arc<Htm>,
        live: &[LiveBlock],
    ) -> Self {
        BdSpash::recover(esys, htm, live)
    }

    fn get(&self, key: u64) -> Option<u64> {
        BdSpash::get(self, key)
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        BdSpash::insert(self, key, value)
    }

    fn remove(&self, key: u64) -> bool {
        BdSpash::remove(self, key)
    }

    fn validate(&self) -> Result<(), String> {
        BdSpash::validate(self)
    }

    fn drain_preallocated(&self) {
        BdSpash::drain_preallocated(self)
    }
}

impl KvBackend for BdlSkiplist {
    fn create(_universe_bits: u32, esys: Arc<EpochSys>, htm: Arc<Htm>) -> Self {
        BdlSkiplist::new(esys, htm)
    }

    fn recover(
        _universe_bits: u32,
        esys: Arc<EpochSys>,
        htm: Arc<Htm>,
        live: &[LiveBlock],
    ) -> Self {
        BdlSkiplist::recover(esys, htm, live, 1)
    }

    fn get(&self, key: u64) -> Option<u64> {
        BdlSkiplist::get(self, key)
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        BdlSkiplist::insert(self, key, value)
    }

    fn remove(&self, key: u64) -> bool {
        BdlSkiplist::remove(self, key)
    }

    fn validate(&self) -> Result<(), String> {
        BdlSkiplist::validate(self)
    }

    fn drain_preallocated(&self) {
        BdlSkiplist::drain_preallocated(self)
    }
}
