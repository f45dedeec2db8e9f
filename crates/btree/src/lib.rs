//! # btree: the persistent tree baselines of Fig. 3
//!
//! The paper compares PHTM-vEB against three state-of-the-art persistent
//! search trees. This crate implements their algorithmic essentials — the
//! persistence discipline and memory placement that the comparison hinges
//! on — with a documented simplification of the fine-grained concurrency
//! control (DESIGN.md §8): leaf-level operations run under striped leaf
//! locks with the tree structure guarded by a reader-writer lock whose
//! write side is taken only for splits (rare with 60-entry leaves).
//! Lock-free lookups validate their leaf scan against a per-stripe
//! version word (a seqlock), so a reader never returns a pair torn by a
//! concurrent remove.
//!
//! * [`LbTree`] — LB+Tree (Liu et al., VLDB 2020): inner nodes in DRAM
//!   for fast traversal, leaves in NVM with unsorted entries and
//!   strict per-update write-back; the inner tree is rebuilt from the
//!   leaf layer after a crash.
//! * [`OccAbTree`] — OCC-ABTree (Srivastava & Brown, PPoPP 2022): fully
//!   persistent — inner nodes and leaves both in NVM (zero DRAM for
//!   data, Table 3), optimistic reads, strict durability.
//! * [`ElimAbTree`] — Elim-ABTree (same authors): adds *publishing
//!   elimination*: concurrent updates that target the same leaf combine
//!   under one lock acquisition and one write-back batch, reducing both
//!   the number of operations and NVM writes on skewed workloads.
//!
//! The NVM cost model charges one media-read latency per *node visited*
//! (a node is a handful of cache lines) rather than per word, matching
//! how the other structures in this reproduction are charged.

mod lbtree;
mod occ;
mod stripes;

pub use lbtree::{LbTree, LBTREE_LEAF_TAG};
pub use occ::{ElimAbTree, OccAbTree, OCC_NODE_TAG};

/// Entries per leaf (and keys per inner node) for all trees here.
pub const LEAF_CAP: usize = 60;

#[cfg(test)]
mod tests {
    #[test]
    fn leaf_cap_fits_a_class3_block() {
        // [count, next, pad] + 60 pairs = 123 <= 124 payload words.
        const { assert!(3 + 2 * super::LEAF_CAP <= 124) }
    }

    /// A tree's map surface, for the shared contended-oracle check.
    pub(crate) trait Map: Sync {
        fn insert(&self, key: u64, value: u64) -> Option<u64>;
        fn remove(&self, key: u64) -> Option<u64>;
        fn get(&self, key: u64) -> Option<u64>;
    }

    /// Four threads hammer 64 keys (one or two leaves). Each thread owns
    /// the keys `≡ tid (mod 4)`, so a per-thread oracle predicts every
    /// insert, remove and get on its own keys exactly: a reader that
    /// misses a key moved by another thread's swap-with-last remove, or
    /// pairs a key with a moved neighbour's value, diverges. Gets on
    /// foreign keys must still return a value written for that key.
    pub(crate) fn contended_oracle_check(t: &impl Map) {
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                s.spawn(move || {
                    let mut oracle = std::collections::BTreeMap::new();
                    let mut rng = tid + 41;
                    for i in 0..6000u64 {
                        rng ^= rng >> 12;
                        rng ^= rng << 25;
                        rng ^= rng >> 27;
                        let key = (rng >> 8) % 64;
                        if key % 4 != tid {
                            if let Some(v) = t.get(key) {
                                assert_eq!(v >> 32, key, "get({key}) returned a foreign value");
                            }
                            continue;
                        }
                        match rng % 3 {
                            0 => {
                                let v = key << 32 | i;
                                assert_eq!(t.insert(key, v), oracle.insert(key, v), "insert {key}");
                            }
                            1 => assert_eq!(t.remove(key), oracle.remove(&key), "remove {key}"),
                            _ => assert_eq!(t.get(key), oracle.get(&key).copied(), "get {key}"),
                        }
                    }
                });
            }
        });
    }

    /// Four threads insert and remove the same eight keys, so two
    /// threads' opposite updates on one key can be pending together.
    /// No oracle predicts the interleaving; every value a call returns
    /// must still be one written for its key.
    pub(crate) fn contended_shared_keys_check(t: &impl Map) {
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                s.spawn(move || {
                    let mut rng = tid + 7;
                    for i in 0..4000u64 {
                        rng ^= rng >> 12;
                        rng ^= rng << 25;
                        rng ^= rng >> 27;
                        let key = (rng >> 8) % 8;
                        let got = match rng % 3 {
                            0 => t.insert(key, key << 32 | tid << 16 | i),
                            1 => t.remove(key),
                            _ => t.get(key),
                        };
                        if let Some(v) = got {
                            assert_eq!(v >> 32, key, "key {key} returned a foreign value");
                        }
                    }
                });
            }
        });
    }
}
