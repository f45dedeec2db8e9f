//! Striped leaf locks with a seqlock version word per stripe, shared by
//! the tree baselines.
//!
//! Writers mutate a leaf under its stripe's lock; the lock guard makes
//! the stripe's version odd while held and even again on release, so a
//! lock-free reader that sees the same even version before and after
//! its scan read a leaf no writer touched in between. Without the check
//! a reader can pair a key with the value of the neighbour a
//! swap-with-last remove moved into its slot, or miss a key moved
//! behind its scan position. The versions live in DRAM beside the
//! locks: NVM traffic and the Table 3 footprints are unchanged.

use htm_sim::sync::{Mutex, MutexGuard};
use nvm_sim::NvmAddr;
use std::sync::atomic::{fence, AtomicU64, Ordering};

pub(crate) const STRIPES: usize = 512;

pub(crate) struct LeafStripes {
    locks: Box<[Mutex<()>]>,
    versions: Box<[AtomicU64]>,
}

/// A held stripe lock; the stripe's version is odd until it drops.
pub(crate) struct LeafGuard<'a> {
    version: &'a AtomicU64,
    _lock: MutexGuard<'a, ()>,
}

impl LeafStripes {
    pub(crate) fn new() -> Self {
        LeafStripes {
            locks: (0..STRIPES).map(|_| Mutex::new(())).collect(),
            versions: (0..STRIPES).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The stripe guarding `leaf`.
    pub(crate) fn stripe(leaf: NvmAddr) -> usize {
        (leaf.0 as usize * 0x9E37) % STRIPES
    }

    pub(crate) fn lock(&self, leaf: NvmAddr) -> LeafGuard<'_> {
        let i = Self::stripe(leaf);
        self.enter(i, self.locks[i].lock())
    }

    pub(crate) fn try_lock(&self, leaf: NvmAddr) -> Option<LeafGuard<'_>> {
        let i = Self::stripe(leaf);
        Some(self.enter(i, self.locks[i].try_lock()?))
    }

    fn enter<'a>(&'a self, i: usize, lock: MutexGuard<'a, ()>) -> LeafGuard<'a> {
        let version = &self.versions[i];
        version.fetch_add(1, Ordering::Relaxed);
        // Orders the odd version before the leaf writes that follow.
        fence(Ordering::Release);
        LeafGuard {
            version,
            _lock: lock,
        }
    }

    /// Runs the lock-free `scan` of `leaf` until no writer held the
    /// leaf's stripe at any point during it.
    pub(crate) fn read<R>(&self, leaf: NvmAddr, mut scan: impl FnMut() -> R) -> R {
        let version = &self.versions[Self::stripe(leaf)];
        let mut attempts = 0u32;
        loop {
            let before = version.load(Ordering::Acquire);
            if before & 1 == 0 {
                let r = scan();
                fence(Ordering::Acquire);
                if version.load(Ordering::Relaxed) == before {
                    return r;
                }
            }
            attempts += 1;
            if attempts.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

impl Drop for LeafGuard<'_> {
    fn drop(&mut self) {
        // Even again (Release: after the leaf writes), before the lock
        // field drops.
        self.version.fetch_add(1, Ordering::Release);
    }
}
