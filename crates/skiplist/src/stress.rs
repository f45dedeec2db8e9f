//! Deterministic mixed-op stress workloads, shared between the in-tree
//! concurrency tests and the CI chaos stress gate (`bin/chaos_stress`).
//!
//! These are the two historically flaky workloads that used to sit in
//! quarantine: four threads hammer a fresh skiplist with a seeded
//! insert/remove/get mix and assert the per-key value invariant on every
//! read. Each run builds its own heap and list, so iterations are
//! independent; determinism (given a chaos seed) comes from the
//! per-thread xorshift streams and the chaos harness's seeded decisions.

use crate::{BdlSkiplist, DlSkiplist, PersistMode};
use bdhtm_core::{EpochConfig, EpochSys};
use htm_sim::{Htm, HtmConfig};
use nvm_sim::{NvmConfig, NvmHeap};
use std::sync::Arc;

#[inline]
fn xorshift(rng: &mut u64) -> u64 {
    *rng ^= *rng >> 12;
    *rng ^= *rng << 25;
    *rng ^= *rng >> 27;
    *rng
}

/// The DL-Skiplist mixed-ops workload: every present key `k` must map to
/// `k * 13` (bit 63 cleared) — a violated read panics. Covers the PMwCAS
/// helping protocol (`Strict`) and the HTM-MwCAS variant.
pub fn dl_mixed_ops(mode: PersistMode, threads: u64, ops_per_thread: u64, keyspace: u64) {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(32 << 20)));
    let l = Arc::new(DlSkiplist::new(heap, mode));
    std::thread::scope(|s| {
        for t in 0..threads {
            let l = Arc::clone(&l);
            s.spawn(move || {
                htm_sim::chaos::enlist();
                let mut rng = t * 31 + 1;
                for _ in 0..ops_per_thread {
                    let r = xorshift(&mut rng);
                    let k = r % keyspace;
                    let v = k.wrapping_mul(13) & !(1 << 63);
                    match r % 3 {
                        0 => {
                            l.insert(k, v);
                        }
                        1 => {
                            l.remove(k);
                        }
                        _ => {
                            if let Some(got) = l.get(k) {
                                assert_eq!(got, v, "per-key invariant violated for key {k}");
                            }
                        }
                    }
                }
            });
        }
    });
}

/// The BDL-Skiplist mixed-ops workload (per-key invariant `v == k * 11`)
/// with a concurrent epoch-advancer driving retirement/reclamation.
pub fn bdl_mixed_ops(threads: u64, ops_per_thread: u64, keyspace: u64, advances: u64) {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(32 << 20)));
    let esys = EpochSys::format(heap, EpochConfig::manual());
    let l = Arc::new(BdlSkiplist::new(
        esys,
        Arc::new(Htm::new(HtmConfig::for_tests())),
    ));
    std::thread::scope(|s| {
        for t in 0..threads {
            let l = Arc::clone(&l);
            s.spawn(move || {
                htm_sim::chaos::enlist();
                let mut rng = t * 131 + 7;
                for _ in 0..ops_per_thread {
                    let r = xorshift(&mut rng);
                    let k = 1 + r % keyspace;
                    match r % 3 {
                        0 => {
                            l.insert(k, k * 11);
                        }
                        1 => {
                            l.remove(k);
                        }
                        _ => {
                            if let Some(v) = l.get(k) {
                                assert_eq!(v, k * 11, "per-key invariant violated for key {k}");
                            }
                        }
                    }
                }
            });
        }
        let l2 = Arc::clone(&l);
        s.spawn(move || {
            htm_sim::chaos::enlist();
            for _ in 0..advances {
                l2.epoch_sys().advance();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
    });
}
