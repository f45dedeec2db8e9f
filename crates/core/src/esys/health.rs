//! Runtime health machinery: the activity counters every layer reports
//! into, the one-way `Ok → Degraded → Failed` ladder (§5 runtime faults
//! — graceful degradation instead of wedging), and the seeded jitter
//! stream of persist retries.
//!
//! Ordering notes: the health code is ratcheted with a SeqCst CAS loop
//! (transitions are rare and must be totally ordered against the
//! persist path's freeze check); the hot-path read in `try_begin_op`
//! is Relaxed because rejection only needs to be *eventually*
//! observed. All stats counters are Relaxed — they are monotone
//! telemetry, never control flow.

use crate::error::{HealthState, PersistError};
use crate::obs::EventKind;
use std::sync::atomic::{AtomicU64, Ordering};

use super::facade::EpochSys;

/// Volatile counters describing epoch-system activity. Read through
/// [`EpochStats::snapshot`], like the HTM and NVM stats types.
#[derive(Default)]
pub struct EpochStats {
    pub(crate) advances: AtomicU64,
    pub(crate) blocks_persisted: AtomicU64,
    pub(crate) words_persisted: AtomicU64,
    pub(crate) blocks_reclaimed: AtomicU64,
    pub(crate) backpressure_advances: AtomicU64,
    pub(crate) pipeline_stalls: AtomicU64,
    pub(crate) persist_retries: AtomicU64,
    pub(crate) coalesced_flushes: AtomicU64,
    pub(crate) degradations: AtomicU64,
    pub(crate) watchdog_fires: AtomicU64,
}

impl EpochStats {
    /// Aggregates the counters into an owned snapshot.
    pub fn snapshot(&self) -> EpochStatsSnapshot {
        EpochStatsSnapshot {
            advances: self.advances.load(Ordering::Relaxed),
            blocks_persisted: self.blocks_persisted.load(Ordering::Relaxed),
            words_persisted: self.words_persisted.load(Ordering::Relaxed),
            blocks_reclaimed: self.blocks_reclaimed.load(Ordering::Relaxed),
            backpressure_advances: self.backpressure_advances.load(Ordering::Relaxed),
            pipeline_stalls: self.pipeline_stalls.load(Ordering::Relaxed),
            persist_retries: self.persist_retries.load(Ordering::Relaxed),
            coalesced_flushes: self.coalesced_flushes.load(Ordering::Relaxed),
            degradations: self.degradations.load(Ordering::Relaxed),
            watchdog_fires: self.watchdog_fires.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every counter (between benchmark phases).
    pub fn reset(&self) {
        self.advances.store(0, Ordering::Relaxed);
        self.blocks_persisted.store(0, Ordering::Relaxed);
        self.words_persisted.store(0, Ordering::Relaxed);
        self.blocks_reclaimed.store(0, Ordering::Relaxed);
        self.backpressure_advances.store(0, Ordering::Relaxed);
        self.pipeline_stalls.store(0, Ordering::Relaxed);
        self.persist_retries.store(0, Ordering::Relaxed);
        self.coalesced_flushes.store(0, Ordering::Relaxed);
        self.degradations.store(0, Ordering::Relaxed);
        self.watchdog_fires.store(0, Ordering::Relaxed);
    }
}

/// Aggregated view of [`EpochStats`].
#[derive(Clone, Copy, Default, Debug)]
pub struct EpochStatsSnapshot {
    /// Completed epoch advances.
    pub advances: u64,
    /// Blocks flushed by background persistence.
    pub blocks_persisted: u64,
    /// Words covered by those flushes (buffered-bytes-per-epoch model,
    /// §5.1).
    pub words_persisted: u64,
    /// Retired blocks physically reclaimed.
    pub blocks_reclaimed: u64,
    /// Epoch advances initiated by [`EpochSys::begin_op`] backpressure
    /// (buffered set over `EpochConfig::max_buffered_words`).
    pub backpressure_advances: u64,
    /// Advances that found `EpochConfig::pipeline_depth` batches in
    /// flight and stalled the clock until the persister caught up.
    pub pipeline_stalls: u64,
    /// Batch write-back attempts retried after a transient
    /// [`DeviceError`](nvm_sim::DeviceError).
    pub persist_retries: u64,
    /// Ranged flushes saved by merging word-contiguous blocks in a
    /// batch's flush plan (each merge retires one `persist_range` call;
    /// the device still sees every line).
    pub coalesced_flushes: u64,
    /// Health-ladder downgrades (`Ok → Degraded` and
    /// `Degraded → Failed` each count once).
    pub degradations: u64,
    /// Times an attached [`Watchdog`](crate::Watchdog) detected a stall.
    pub watchdog_fires: u64,
}

impl EpochStatsSnapshot {
    /// Difference of two snapshots (self - earlier). Saturating per
    /// field: a `reset()` between the two snapshots yields zeros
    /// instead of a debug-build underflow panic.
    pub fn since(&self, e: &EpochStatsSnapshot) -> EpochStatsSnapshot {
        EpochStatsSnapshot {
            advances: self.advances.saturating_sub(e.advances),
            blocks_persisted: self.blocks_persisted.saturating_sub(e.blocks_persisted),
            words_persisted: self.words_persisted.saturating_sub(e.words_persisted),
            blocks_reclaimed: self.blocks_reclaimed.saturating_sub(e.blocks_reclaimed),
            backpressure_advances: self
                .backpressure_advances
                .saturating_sub(e.backpressure_advances),
            pipeline_stalls: self.pipeline_stalls.saturating_sub(e.pipeline_stalls),
            persist_retries: self.persist_retries.saturating_sub(e.persist_retries),
            coalesced_flushes: self.coalesced_flushes.saturating_sub(e.coalesced_flushes),
            degradations: self.degradations.saturating_sub(e.degradations),
            watchdog_fires: self.watchdog_fires.saturating_sub(e.watchdog_fires),
        }
    }
}

/// Seeded randomness of the epoch system's retry paths.
pub(super) struct FaultInjector {
    /// SplitMix64 state for persist-retry backoff jitter (fixed seed:
    /// jitter only decorrelates contending persisters, it carries no
    /// experiment semantics).
    backoff_rng: AtomicU64,
}

impl FaultInjector {
    pub(super) fn new() -> Self {
        Self {
            backoff_rng: AtomicU64::new(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// One draw from the backoff-jitter stream (CAS-stepped, seeded).
    pub(super) fn backoff_draw(&self) -> u64 {
        self.backoff_rng
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |mut s| {
                htm_sim::rng::splitmix64(&mut s);
                Some(s)
            })
            .unwrap_or(0)
    }
}

impl EpochSys {
    // ----- runtime health -------------------------------------------------

    /// Current position on the `Ok → Degraded → Failed` health ladder
    /// (see [`HealthState`] for the transition rules).
    pub fn health(&self) -> HealthState {
        HealthState::from_code(self.health.load(Ordering::SeqCst))
    }

    /// The raw health code, read Relaxed — the begin-op fast path,
    /// where eventual observation suffices.
    pub(super) fn health_code_relaxed(&self) -> u8 {
        self.health.load(Ordering::Relaxed)
    }

    /// The typed persist failure behind the most recent health
    /// downgrade, if any.
    pub fn last_persist_error(&self) -> Option<PersistError> {
        *self
            .last_persist_error
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Ratchets the health ladder up to `to` (never down), recording
    /// `cause`, counting the degradation and emitting a
    /// [`DegradedToSync`](EventKind::DegradedToSync) event. Pipeline
    /// waiters are woken so nobody keeps waiting for a background
    /// persister that just lost its job (every wait loop re-checks the
    /// pipelined predicate).
    pub(crate) fn escalate_health(&self, to: HealthState, cause: Option<PersistError>) {
        let mut cur = self.health.load(Ordering::SeqCst);
        loop {
            if cur >= to as u8 {
                return; // already at or past `to`: ratchet only moves up
            }
            match self
                .health
                .compare_exchange(cur, to as u8, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
        if let Some(err) = cause {
            *self
                .last_persist_error
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = Some(err);
        }
        self.stats().degradations.fetch_add(1, Ordering::Relaxed);
        self.obs().event(
            EventKind::DegradedToSync,
            to as u64,
            cause.map_or(u64::MAX, |c| c.epoch),
        );
        self.pipeline.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::fresh;
    use super::super::Persisted;
    use crate::config::EpochConfig;
    use nvm_sim::{DeviceFaults, NvmConfig, NvmHeap};
    use persist_alloc::Header;
    use std::sync::Arc;

    /// The degradation ladder, end to end: a batch exhausting its retry
    /// budget ratchets `Ok → Degraded` (durable prefix untouched, typed
    /// error published, batch re-queued — not lost), a second
    /// exhaustion ratchets `Degraded → Failed` (queue frozen), and a
    /// healed device still cannot un-fail the one-way ratchet.
    #[test]
    fn retry_exhaustion_degrades_then_fails_without_losing_prefix() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
        let es = crate::EpochSys::format(
            Arc::clone(&heap),
            EpochConfig::manual()
                .with_persist_retries(2)
                .with_persist_backoff_spins(1),
        );
        let _rt = crate::Runtime::manual(Arc::clone(&es)); // hand-driven pipelined mode
        for _ in 0..2 {
            let e = es.begin_op();
            let blk = es.p_new(1);
            Header::set_epoch(es.heap(), blk, e);
            es.p_track(blk);
            es.end_op();
            es.advance();
        }
        assert_eq!(
            es.persist_step(0),
            Persisted::Chunk,
            "healthy device: first batch ok"
        );
        let f0 = es.persisted_frontier();
        assert_eq!(es.health(), crate::HealthState::Ok);

        // A device that fails every write-back: the second batch burns
        // its whole budget (1 initial + 2 retries) and degrades.
        heap.arm_device_faults(Arc::new(DeviceFaults::new(7).with_writeback_failures(1000)));
        assert_eq!(es.persist_step(0), Persisted::Failed);
        assert_eq!(es.health(), crate::HealthState::Degraded);
        assert_eq!(es.persisted_frontier(), f0, "durable prefix untouched");
        assert_eq!(
            es.batches_in_flight(),
            1,
            "failed batch re-queued, not lost"
        );
        let err = es.last_persist_error().expect("typed error published");
        assert_eq!(err.attempts, 3);
        let snap = es.stats().snapshot();
        assert_eq!(snap.persist_retries, 2);
        assert_eq!(snap.degradations, 1);

        // Exhaustion while already degraded: fail-stop, queue frozen.
        assert_eq!(es.persist_step(0), Persisted::Failed);
        assert_eq!(es.health(), crate::HealthState::Failed);
        heap.disarm_device_faults();
        assert_eq!(
            es.persist_step(0),
            Persisted::Nothing,
            "Failed freezes the queue even with a healed device"
        );
        assert_eq!(es.persisted_frontier(), f0);
    }

    /// Degraded (not Failed) keeps the system fully usable: the
    /// re-queued batch drains inline once the transient fault clears,
    /// and the frontier catches back up to clock − 2.
    #[test]
    fn degraded_system_recovers_durability_inline() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
        let es = crate::EpochSys::format(
            Arc::clone(&heap),
            EpochConfig::manual()
                .with_persist_retries(1)
                .with_persist_backoff_spins(1),
        );
        let _rt = crate::Runtime::manual(Arc::clone(&es));
        es.advance();
        heap.arm_device_faults(Arc::new(DeviceFaults::new(9).with_writeback_failures(1000)));
        assert_eq!(es.persist_step(0), Persisted::Failed);
        assert_eq!(es.health(), crate::HealthState::Degraded);
        heap.disarm_device_faults();
        // Degraded ⇒ pipelined() is false ⇒ advances drain inline,
        // including the re-queued batch, in epoch order.
        es.advance();
        es.advance();
        assert_eq!(es.persisted_frontier(), es.current_epoch() - 2);
        assert_eq!(es.batches_in_flight(), 0);
        assert_eq!(es.health(), crate::HealthState::Degraded, "ratchet holds");
    }

    /// `Failed` poisons `begin_op` with a typed, downcastable payload
    /// and `try_begin_op` with a typed error — never a wedge.
    #[test]
    fn failed_system_rejects_new_ops_with_typed_error() {
        let es = fresh();
        es.begin_op();
        es.end_op(); // ops work while healthy
        es.escalate_health(crate::HealthState::Failed, None);
        let rej = es.try_begin_op().expect_err("Failed must reject");
        assert_eq!(rej.health, crate::HealthState::Failed);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| es.begin_op()))
            .expect_err("begin_op must unwind on a failed system");
        let rej = payload
            .downcast_ref::<crate::OpRejected>()
            .expect("panic payload must downcast to OpRejected");
        assert_eq!(rej.health, crate::HealthState::Failed);
        // The announcement slot stayed clean: nothing was registered.
        assert_eq!(es.announced_epoch(), super::super::EMPTY_EPOCH);
    }
}
