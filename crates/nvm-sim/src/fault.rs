//! Deterministic crash-point enumeration for the NVM layer.
//!
//! Every operation with a media effect — `clwb` write-back, `sfence`,
//! extent formatting, background eviction — passes through a numbered
//! *crash point*. A [`FaultPlan`] armed on the heap either counts those
//! points ([`FaultPlan::count`]) or crashes the simulated machine at
//! exactly one of them ([`FaultPlan::crash_at`]): the triggering
//! operation does **not** take effect, a [`CrashImage`] is captured as
//! of that instant, and the workload is torn down by unwinding with a
//! [`CrashTriggered`] payload the sweep driver catches.
//!
//! The enumerate-then-replay protocol (run once in count mode to learn
//! N, then replay the same seeded workload N times crashing at point
//! 0..N) is the systematic analogue of the hand-placed crash tests: it
//! visits *every* persist boundary the workload crosses, including the
//! ones inside epoch advancement and inside recovery itself.
//!
//! With [`FaultPlan::with_torn_writes`], a seeded subset of the dirty
//! words drains to media just before the image is captured — modelling
//! cache lines racing out of the write-pending queue at power-fail time,
//! including *partial* (torn) multi-word lines. ADR guarantees 8-byte
//! atomicity and nothing more, so any word subset is a legal outcome.

use crate::heap::{CrashImage, NvmHeap};
use htm_sim::sync::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Which persist-relevant operation a crash point interrupted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrashPointKind {
    /// A `clwb` line write-back (also reached via `persist_range` and
    /// `write_persist`, which are built from `clwb` + `fence`).
    Clwb = 0,
    /// An `sfence` draining prior write-backs.
    Fence = 1,
    /// One line of a bulk `format_region` (allocator bootstrap).
    FormatLine = 2,
    /// One line chosen by background cache eviction.
    EvictLine = 3,
}

impl CrashPointKind {
    const ALL: [CrashPointKind; 4] = [
        CrashPointKind::Clwb,
        CrashPointKind::Fence,
        CrashPointKind::FormatLine,
        CrashPointKind::EvictLine,
    ];

    /// Numeric code, as carried by a flight-recorder `FaultInjected` event.
    pub fn code(self) -> u64 {
        self as u64
    }

    /// The kind with numeric `code`, if any.
    pub fn from_code(code: u64) -> Option<CrashPointKind> {
        Self::ALL.get(code as usize).copied()
    }

    pub fn name(self) -> &'static str {
        match self {
            CrashPointKind::Clwb => "clwb",
            CrashPointKind::Fence => "fence",
            CrashPointKind::FormatLine => "format_line",
            CrashPointKind::EvictLine => "evict_line",
        }
    }
}

/// Counting or crashing.
#[derive(Clone, Copy, Debug)]
enum FaultMode {
    /// Pass through every point, recording only the total.
    Count,
    /// Crash the machine at the numbered point.
    CrashAt(u64),
}

/// Panic payload thrown when an armed plan triggers. Sweep drivers catch
/// it with `std::panic::catch_unwind` and fetch the captured image from
/// [`FaultPlan::take_image`].
#[derive(Clone, Copy, Debug)]
pub struct CrashTriggered {
    /// The crash-point number that fired.
    pub point: u64,
    /// The operation kind it interrupted.
    pub kind: CrashPointKind,
}

/// A crash schedule threaded through an [`NvmHeap`] via
/// [`NvmHeap::arm_fault_plan`].
pub struct FaultPlan {
    mode: FaultMode,
    torn_seed: Option<u64>,
    counter: AtomicU64,
    fired: AtomicBool,
    image: Mutex<Option<CrashImage>>,
}

impl FaultPlan {
    /// A plan that counts crash points without crashing.
    pub fn count() -> Self {
        Self::with_mode(FaultMode::Count)
    }

    /// A plan that crashes the heap at crash point `point` (0-based).
    pub fn crash_at(point: u64) -> Self {
        Self::with_mode(FaultMode::CrashAt(point))
    }

    fn with_mode(mode: FaultMode) -> Self {
        FaultPlan {
            mode,
            torn_seed: None,
            counter: AtomicU64::new(0),
            fired: AtomicBool::new(false),
            image: Mutex::new(None),
        }
    }

    /// Additionally drains a `seed`-chosen subset of dirty words to media
    /// at the crash instant (torn multi-word writes).
    pub fn with_torn_writes(mut self, seed: u64) -> Self {
        self.torn_seed = Some(seed);
        self
    }

    /// Crash points observed so far (after a count-mode run: N).
    pub fn points(&self) -> u64 {
        self.counter.load(Ordering::SeqCst)
    }

    /// Whether the crash fired (false if the workload finished first,
    /// e.g. when replaying a point number beyond the actual count).
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// The image captured when the plan fired.
    pub fn take_image(&self) -> Option<CrashImage> {
        self.image.lock().take()
    }

    /// Called by the heap at every crash point. Diverges (unwinds with
    /// [`CrashTriggered`]) when the armed point is reached.
    pub(crate) fn observe(&self, heap: &NvmHeap, kind: CrashPointKind) {
        let i = self.counter.fetch_add(1, Ordering::SeqCst);
        if let FaultMode::CrashAt(target) = self.mode {
            if i == target && !self.fired.swap(true, Ordering::SeqCst) {
                if let Some(seed) = self.torn_seed {
                    heap.torn_writeback(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                }
                *self.image.lock() = Some(heap.crash());
                std::panic::panic_any(CrashTriggered { point: i, kind });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NvmConfig;
    use std::sync::Arc;

    #[test]
    fn crash_point_kinds_round_trip_their_codes() {
        for kind in CrashPointKind::ALL {
            assert_eq!(CrashPointKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(CrashPointKind::from_code(4), None);
    }

    #[test]
    fn count_then_crash_at_each_point() {
        // Workload: write+persist three separate lines.
        let run = |plan: Arc<FaultPlan>| -> Result<NvmHeap, CrashImage> {
            let h = NvmHeap::new(NvmConfig::for_tests(1 << 16));
            h.arm_fault_plan(Arc::clone(&plan));
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for i in 0..3u64 {
                    let a = h.base().offset(i * 8);
                    h.write(a, 100 + i);
                    h.clwb(a);
                    h.fence();
                }
            }));
            match r {
                Ok(()) => Ok(h),
                Err(p) => {
                    assert!(p.downcast_ref::<CrashTriggered>().is_some());
                    Err(plan.take_image().expect("image captured at crash"))
                }
            }
        };

        let counter = Arc::new(FaultPlan::count());
        assert!(
            run(Arc::clone(&counter)).is_ok(),
            "count mode must not crash"
        );
        let n = counter.points();
        assert_eq!(n, 6, "3 clwb + 3 fence");

        for i in 0..n {
            let plan = Arc::new(FaultPlan::crash_at(i));
            let Err(img) = run(Arc::clone(&plan)) else {
                panic!("point {i}: must crash");
            };
            assert!(plan.fired());
            // Persist op i never took effect: the i-th line write-back is
            // point 2*k (clwb), so value k survives iff 2*k < i.
            for k in 0..3u64 {
                let want = if 2 * k < i { 100 + k } else { 0 };
                assert_eq!(img.word(NvmAddr(64 + k * 8)), want, "point {i}, line {k}");
            }
        }
    }

    use crate::NvmAddr;

    #[test]
    fn torn_writeback_persists_a_word_subset() {
        let h = NvmHeap::new(NvmConfig::for_tests(1 << 16));
        for i in 0..64u64 {
            h.write(h.base().offset(i), i + 1);
        }
        h.torn_writeback(0xFEED);
        let img = h.crash();
        let survived = (0..64u64)
            .filter(|&i| img.word(h.base().offset(i)) == i + 1)
            .count();
        // Statistically certain for any seed: some words drain, some tear.
        assert!(survived > 0, "no words drained");
        assert!(survived < 64, "torn write-back drained everything");
    }

    #[test]
    fn same_plan_same_schedule() {
        let run = |seed: u64| {
            let plan = Arc::new(FaultPlan::count());
            let h = NvmHeap::new(NvmConfig::for_tests(1 << 16));
            h.arm_fault_plan(Arc::clone(&plan));
            let mut s = seed;
            for _ in 0..50 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = h.base().offset(s % 512);
                h.write(a, s);
                if s.is_multiple_of(3) {
                    h.clwb(a);
                }
                if s.is_multiple_of(7) {
                    h.fence();
                }
                if s.is_multiple_of(11) {
                    h.evict_random_lines(2, s);
                }
            }
            plan.points()
        };
        assert_eq!(
            run(42),
            run(42),
            "identical seed must give identical schedule"
        );
        assert_ne!(run(42), run(43), "different workloads should differ");
    }
}
