//! The seal → persist pipeline: sealed [`EpochBatch`]es, the bounded
//! in-flight queue, and the one persist step that writes them back (the
//! §3 "step 2" of an epoch transition, split off the clock path so the
//! [`Runtime`](crate::Runtime)'s persist role can run it).
//!
//! Ordering here is deliberately boring: everything cross-thread goes
//! through one std mutex plus one condvar (so waiters block instead of
//! spinning), and the only atomics are the persist-worker head-count
//! (Acquire/Release) and the stats counters (Relaxed). Nothing in this
//! module participates in the clock's Dekker handshake — by the time a
//! batch exists, its epoch has already quiesced.
//!
//! A sealed batch reaches media by one path, [`EpochSys::persist_step`]:
//! take the oldest batch (splitting its flush plan into one chunk per
//! persist worker, see [`plan`](super::plan)) or claim the next chunk
//! of the batch being written, and write that chunk back. The step
//! completing a batch's last chunk fences, publishes the frontier and
//! reclaims; only then is the next batch taken, so frontier publishes
//! stay in epoch order however many threads step — persist workers,
//! hand-driven tests, or the synchronous drain on the advancing thread.
//!
//! Fault model: each chunk gets its own `1 + persist_retries` budget on
//! the shared backoff ladder; any chunk exhausting it fails the whole
//! batch, which is re-queued untouched (every device op here is
//! idempotent) and ratchets the health ladder. A step unwinding
//! mid-chunk (a fault-plan crash point) counts as a failed chunk, so
//! the next step still finishes the batch.

use crate::error::HealthState;
use crate::obs::EventKind;
use htm_sim::sync::CachePadded;
use htm_sim::{backoff_ladder, backoff_spin};
use nvm_sim::{DeviceError, DeviceOpKind, NvmAddr};
use persist_alloc::HDR_WORDS;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex as StdMutex, MutexGuard};
use std::time::{Duration, Instant};

use super::facade::{EpochSys, ROOT_FRONTIER};
use super::plan::{partition_plan, FlushRange};
use crate::config::MAX_PERSIST_WORKERS;

/// A sealed snapshot of everything one closed epoch tracked, ready for
/// write-back once normalized (sorted + deduplicated) at persist intake.
///
/// Sealing happens on the advancing thread under the advance lock (the
/// cheap foreground half of an epoch transition) and is a plain
/// move-plus-sum — the sort/dedup runs at the pipeline's intake, on
/// whichever thread takes the batch. The write-back, fence, frontier
/// publish, and reclamation happen when the batch is *persisted* by
/// [`EpochSys::persist_step`].
pub(super) struct EpochBatch {
    /// The epoch this batch closes: once persisted, the durable
    /// frontier becomes exactly this value.
    pub(super) epoch: u64,
    /// Tracked blocks; after [`normalize`](Self::normalize), unique and
    /// in address order (address order is cache line order). The second
    /// field is the word count accounted against the buffered set.
    pub(super) persist: Vec<(NvmAddr, u64)>,
    pub(super) retire: Vec<NvmAddr>,
    /// Words to refund from the buffered-set account when the batch
    /// persists. Raw sum at seal time; `normalize` subtracts the
    /// duplicate-tracking excess it refunds early.
    pub(super) accounted: u64,
    /// Whether `normalize` has run (it is idempotent; a re-queued batch
    /// arrives at intake already normalized).
    pub(super) normalized: bool,
}

impl EpochBatch {
    /// Seals the drained buffers as-is: a move plus an accounting sum,
    /// cheap enough for the foreground advance path. Sorting and
    /// duplicate merging are deferred to [`normalize`](Self::normalize)
    /// at persist intake, off the sealing thread.
    pub(super) fn seal(epoch: u64, persist: Vec<(NvmAddr, u64)>, retire: Vec<NvmAddr>) -> Self {
        let accounted =
            persist.iter().map(|&(_, w)| w).sum::<u64>() + retire.len() as u64 * HDR_WORDS;
        EpochBatch {
            epoch,
            persist,
            retire,
            accounted,
            normalized: false,
        }
    }

    /// Sorts and dedups the tracked blocks, returning the *excess*
    /// words double-counted by duplicate `p_track` calls so the caller
    /// can refund them — the fix for the historical double-accounting
    /// bug: a block tracked N times in one epoch used to hit media N
    /// times and inflate the buffered-word account N-fold; now it
    /// persists once and the N−1 duplicate accountings are refunded at
    /// intake. Idempotent: the second call returns 0.
    pub(super) fn normalize(&mut self) -> u64 {
        if self.normalized {
            return 0;
        }
        self.normalized = true;
        self.persist.sort_unstable_by_key(|&(blk, _)| blk);
        let mut excess = 0u64;
        self.persist.dedup_by(|dup, kept| {
            if dup.0 == kept.0 {
                excess += dup.1;
                true
            } else {
                false
            }
        });
        self.accounted -= excess;
        excess
    }
}

/// The batch being written back: its flush plan, split into chunks
/// that persist steps claim one at a time.
struct WriteBack {
    batch: EpochBatch,
    chunks: Vec<Vec<FlushRange>>,
    /// Next unclaimed chunk.
    next: usize,
    /// Claimed chunks still being written.
    running: usize,
    /// Words written back by completed chunks.
    words: u64,
    /// First chunk failure: (attempts, cause).
    failed: Option<(u32, DeviceError)>,
    t0: Instant,
}

/// Shared state of the seal→persist pipeline, guarded by a std mutex so
/// waiters can block on the [`Condvar`] instead of spinning.
pub(super) struct PipelineQueue {
    pub(super) batches: VecDeque<EpochBatch>,
    /// The batch being written back, once its chunks are planned.
    active: Option<WriteBack>,
    /// Some step owns the batch popped last (planning, writing or
    /// publishing it): nobody takes the next batch until it publishes.
    writing: bool,
}

impl PipelineQueue {
    /// Sealed batches not yet fully persisted: the queue plus the batch
    /// being written back. This — not the queue length — is what
    /// `EpochConfig::pipeline_depth` bounds.
    pub(super) fn in_flight(&self) -> usize {
        self.batches.len() + usize::from(self.writing)
    }
}

pub(super) struct Pipeline {
    q: StdMutex<PipelineQueue>,
    /// Signaled on every pipeline change — a batch sealed, chunks
    /// planned, a batch persisted or re-queued, a persist worker gone,
    /// a health downgrade. Every waiter re-checks its own predicate.
    pub(super) changed: Condvar,
    /// Attached persist workers ([`Runtime`](crate::Runtime)s with the
    /// persist role). Pipelining engages only while this is non-zero;
    /// otherwise every advance drains the queue inline, so programs
    /// that never start a persister keep the synchronous behavior. It
    /// is also the number of chunks a batch's flush plan is split into.
    pub(super) persisters: AtomicU64,
    /// Cumulative words written back per worker slot (obs v4 gauge).
    worker_words: Box<[CachePadded<AtomicU64>]>,
}

impl Pipeline {
    pub(super) fn new() -> Self {
        Pipeline {
            q: StdMutex::new(PipelineQueue {
                batches: VecDeque::new(),
                active: None,
                writing: false,
            }),
            changed: Condvar::new(),
            persisters: AtomicU64::new(0),
            worker_words: (0..MAX_PERSIST_WORKERS)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Queue lock, immune to poisoning: a fault-plan crash can unwind a
    /// persist step, and the pipeline state stays coherent across an
    /// unwind (a claimed chunk is marked failed before it resumes).
    pub(super) fn lock(&self) -> MutexGuard<'_, PipelineQueue> {
        self.q.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Waits on [`changed`](Self::changed) for at most `timeout`.
    pub(super) fn wait<'a>(
        &self,
        q: MutexGuard<'a, PipelineQueue>,
        timeout: Duration,
    ) -> MutexGuard<'a, PipelineQueue> {
        self.changed
            .wait_timeout(q, timeout)
            .unwrap_or_else(|e| e.into_inner())
            .0
    }
}

/// What one [`EpochSys::persist_step`] did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Persisted {
    /// Nothing to claim: no sealed batch, or every chunk of the current
    /// one is taken, or the system has failed.
    Nothing,
    /// Wrote one chunk back (and, if it was the last, published).
    Chunk,
    /// Finished a batch that failed: it is re-queued at the front and
    /// the health ladder ratcheted.
    Failed,
}

impl EpochSys {
    /// Sealed batches currently in flight (queued or being written
    /// back). Watchdog/diagnostic introspection.
    pub fn batches_in_flight(&self) -> usize {
        self.pipeline.lock().in_flight()
    }

    /// Whether sealed batches go to background persist workers (at
    /// least one is attached, and the system has not degraded to
    /// synchronous inline persistence).
    pub(super) fn pipelined(&self) -> bool {
        self.pipeline.persisters.load(Ordering::Acquire) > 0
            && self.health.load(Ordering::Acquire) == HealthState::Ok as u8
    }

    /// Registers a persist worker: advances switch from inline
    /// write-back to seal-and-enqueue. Called by
    /// [`Runtime`](crate::Runtime) when it takes the persist role.
    pub(crate) fn attach_persist_worker(&self) {
        self.pipeline.persisters.fetch_add(1, Ordering::AcqRel);
    }

    /// Deregisters a persist worker and wakes every pipeline waiter so
    /// none keeps waiting on a worker that no longer exists.
    pub(crate) fn detach_persist_worker(&self) {
        self.pipeline.persisters.fetch_sub(1, Ordering::AcqRel);
        self.pipeline.changed.notify_all();
    }

    /// Attached persist workers (0 when everything persists inline).
    pub fn persist_pool_workers(&self) -> u64 {
        self.pipeline.persisters.load(Ordering::Acquire)
    }

    /// Cumulative words written back per worker slot (slot 0 is the
    /// first persist worker, hand-driven steps and inline drains). The
    /// obs v4 `persist_worker_words` gauge.
    pub fn persist_worker_words(&self) -> [u64; MAX_PERSIST_WORKERS] {
        std::array::from_fn(|i| self.pipeline.worker_words[i].load(Ordering::Relaxed))
    }

    /// Blocks a persist worker until a step may find work — a chunk to
    /// claim, a fully written batch to finish, or a batch to take — or
    /// `timeout` elapses.
    pub(crate) fn wait_persist_work(&self, timeout: Duration) {
        let q = self.pipeline.lock();
        let work = match &q.active {
            Some(wb) => wb.next < wb.chunks.len() || wb.running == 0,
            None => !q.writing && !q.batches.is_empty(),
        };
        if !work {
            drop(self.pipeline.wait(q, timeout));
        }
    }

    /// One persist step: claim and write back one chunk of the oldest
    /// sealed batch, taking (and planning) that batch first if no batch
    /// is being written. The step that completes a batch's last chunk
    /// also fences, publishes the durable frontier, and reclaims — or,
    /// if any chunk failed, re-queues the batch at the front (epoch
    /// order preserved, nothing durable lost) and ratchets the health
    /// ladder (`Ok → Degraded`, then `Degraded → Failed`). Once
    /// [`HealthState::Failed`], the queue is frozen: this does nothing
    /// and the durable frontier stays at the last fully persisted epoch.
    ///
    /// `slot` is the caller's column in
    /// [`persist_worker_words`](Self::persist_worker_words).
    pub(crate) fn persist_step(&self, slot: usize) -> Persisted {
        if self.health.load(Ordering::SeqCst) == HealthState::Failed as u8 {
            return Persisted::Nothing;
        }
        let mut q = self.pipeline.lock();
        if !q.writing {
            let Some(batch) = q.batches.pop_front() else {
                return Persisted::Nothing;
            };
            q.writing = true;
            drop(q);
            q = self.plan_batch(batch);
        }
        let Some(wb) = q.active.as_mut() else {
            return Persisted::Nothing; // another step is planning or publishing
        };
        if wb.next == wb.chunks.len() {
            if wb.running > 0 {
                return Persisted::Nothing; // the last writer finishes
            }
            // Every chunk is accounted for but the writer of the last
            // one unwound: finish the batch on its behalf.
            let wb = q.active.take().expect("checked above");
            drop(q);
            return self.finish_batch(wb);
        }
        let epoch = wb.batch.epoch;
        let ranges = std::mem::take(&mut wb.chunks[wb.next]);
        wb.next += 1;
        wb.running += 1;
        drop(q);

        // The chunk gets the full `1 + persist_retries` budget.
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.retry_device(epoch, || {
                let mut words = 0u64;
                for r in &ranges {
                    self.heap().try_persist_range(r.start, r.words)?;
                    words += r.words;
                }
                Ok(words)
            })
        }));
        let mut q = self.pipeline.lock();
        let wb = q.active.as_mut().expect("a claimed chunk keeps its batch");
        wb.running -= 1;
        match result {
            Ok(Ok(words)) => {
                wb.words += words;
                self.pipeline.worker_words[slot.min(MAX_PERSIST_WORKERS - 1)]
                    .fetch_add(words, Ordering::Relaxed);
            }
            Ok(Err(e)) => {
                wb.failed.get_or_insert(e);
            }
            Err(payload) => {
                // Unwound mid-chunk (a crash point): one failed attempt.
                let op = DeviceOpKind::Writeback;
                wb.failed.get_or_insert((1, DeviceError { op, seq: 0 }));
                drop(q);
                resume_unwind(payload);
            }
        }
        if wb.next < wb.chunks.len() || wb.running > 0 {
            return Persisted::Chunk;
        }
        let wb = q.active.take().expect("checked above");
        drop(q);
        self.finish_batch(wb)
    }

    /// Intake of a popped batch: normalize it (refunding the
    /// duplicate-tracking excess before write-back begins), build its
    /// flush plan, and split the plan into one chunk per attached
    /// persist worker. Returns the queue lock with the batch installed.
    fn plan_batch(&self, mut batch: EpochBatch) -> MutexGuard<'_, PipelineQueue> {
        let excess = batch.normalize();
        if excess != 0 {
            self.account.drain(excess);
        }
        let t0 = Instant::now();
        let (plan, coalesced) = self.build_flush_plan(&batch);
        if coalesced != 0 {
            self.stats()
                .coalesced_flushes
                .fetch_add(coalesced, Ordering::Relaxed);
        }
        let parts = self.persist_pool_workers().max(1) as usize;
        let chunks = partition_plan(plan, parts);
        self.obs().persist_chunks.record(chunks.len() as u64);
        let mut q = self.pipeline.lock();
        if chunks.len() > 1 {
            // Wake idle workers to claim the other chunks.
            self.pipeline.changed.notify_all();
        }
        q.active = Some(WriteBack {
            batch,
            chunks,
            next: 0,
            running: 0,
            words: 0,
            failed: None,
            t0,
        });
        q
    }

    /// Completes a batch whose chunks are all written: fence and
    /// publish the frontier, or re-queue it if any chunk failed.
    fn finish_batch(&self, wb: WriteBack) -> Persisted {
        let r = wb.batch.epoch;
        let published = match wb.failed {
            Some(e) => Err(e),
            None => self.publish_frontier_device(r),
        };
        match published {
            Ok(()) => {
                self.complete_batch(wb.batch, wb.words, wb.t0);
                Persisted::Chunk
            }
            Err((attempts, cause)) => {
                let mut q = self.pipeline.lock();
                q.batches.push_front(wb.batch);
                q.writing = false;
                drop(q);
                self.pipeline.changed.notify_all();
                let next = match self.health() {
                    HealthState::Ok => HealthState::Degraded,
                    _ => HealthState::Failed,
                };
                let err = crate::PersistError {
                    epoch: r,
                    attempts,
                    cause,
                };
                self.escalate_health(next, Some(err));
                Persisted::Failed
            }
        }
    }

    /// Writes every sealed batch back on the calling thread, waiting
    /// out a batch another thread is writing: the synchronous path of
    /// an advance, and [`Runtime::drain`](crate::Runtime::drain).
    /// Returns once nothing sealed is left, or at the first failed
    /// batch (re-queued, health ratcheted), or on a failed system.
    pub(crate) fn drain_sealed(&self) {
        loop {
            match self.persist_step(0) {
                Persisted::Chunk => {}
                Persisted::Failed => return,
                Persisted::Nothing => {
                    let q = self.pipeline.lock();
                    if (q.batches.is_empty() && !q.writing) || self.health() == HealthState::Failed
                    {
                        return;
                    }
                    drop(self.pipeline.wait(q, Duration::from_millis(1)));
                }
            }
        }
    }

    /// The write-back tail, run by the step that completed a batch's
    /// last chunk once every chunk succeeded: fence the block flushes,
    /// persist the frontier record, fence again. Has its own retry budget — the chunks' words are
    /// already on media, so only these three device ops re-run.
    fn publish_frontier_device(&self, r: u64) -> Result<(), (u32, DeviceError)> {
        debug_assert!(self.clock.frontier() <= r, "frontier regression");
        self.retry_device(r, || {
            let heap = self.heap();
            heap.try_fence()?;
            // Frontier record: epochs ≤ r are durable once this line is
            // flushed and fenced.
            heap.write(heap.root(ROOT_FRONTIER), r);
            heap.try_clwb(heap.root(ROOT_FRONTIER))?;
            heap.try_fence()?;
            Ok(())
        })
    }

    /// The shared retry ladder: runs `op` up to `1 + persist_retries`
    /// times, backing off exponentially with seeded jitter between
    /// attempts. Used per chunk and for the frontier tail.
    fn retry_device<T>(
        &self,
        epoch: u64,
        mut op: impl FnMut() -> Result<T, DeviceError>,
    ) -> Result<T, (u32, DeviceError)> {
        let mut attempt: u32 = 0;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(cause) => {
                    attempt += 1;
                    if attempt > self.config().persist_retries {
                        return Err((attempt, cause));
                    }
                    self.stats().persist_retries.fetch_add(1, Ordering::Relaxed);
                    self.obs()
                        .event(EventKind::PersistRetry, epoch, attempt as u64);
                    let spins = backoff_ladder(self.config().persist_backoff_spins, attempt - 1);
                    if spins != 0 {
                        // Seeded jitter in [0, spins/2) decorrelates
                        // contending persisters without perturbing
                        // replay determinism (fixed seed, CAS-stepped).
                        let draw = self.faults.backoff_draw();
                        backoff_spin(spins + draw % (spins / 2 + 1));
                    }
                }
            }
        }
    }

    /// The volatile half of a successful write-back: publish the
    /// frontier mirror, reclaim, refund accounting, record stats and
    /// events, and release the pipeline slot.
    fn complete_batch(&self, batch: EpochBatch, words: u64, t0: std::time::Instant) {
        let r = batch.epoch;
        // Fold commit→durable spans for epoch r *before* the frontier
        // mirror moves: a committer that later observes frontier ≥ r
        // can then safely recycle r's lag slot as already-folded. Every
        // epoch-r commit happens-before this point (commit → Release
        // deregister → SeqCst straggler scan → seal → pipeline mutex),
        // and this runs on the pipelined, synchronous, and Degraded
        // inline-drain paths alike, so lag is attributed uniformly
        // across persist modes.
        self.obs().fold_epoch_lag(r);
        self.clock.publish_frontier(r);

        // Reclaim retired blocks — their deletion records are durable,
        // so recovery can never resurrect them.
        let reclaimed = batch.retire.len() as u64;
        for &blk in &batch.retire {
            self.alloc.free(blk);
        }

        self.account.drain(batch.accounted);
        self.stats()
            .blocks_persisted
            .fetch_add(batch.persist.len() as u64, Ordering::Relaxed);
        self.stats()
            .words_persisted
            .fetch_add(words, Ordering::Relaxed);
        self.stats()
            .blocks_reclaimed
            .fetch_add(reclaimed, Ordering::Relaxed);
        self.obs()
            .batch_persist_ns
            .record(t0.elapsed().as_nanos() as u64);
        self.obs()
            .persist_batch_blocks
            .record(batch.persist.len() as u64);
        self.obs()
            .event(EventKind::BatchPersisted, r, batch.persist.len() as u64);

        self.pipeline.lock().writing = false;
        self.pipeline.changed.notify_all();
    }

    /// Advances until every epoch `≤ epoch` is durable, helping with
    /// persist steps on the calling thread — alongside any persist
    /// workers, so this returns on a hand-stepped system too. It steps
    /// instead of advancing whenever the pipeline is full (an advance
    /// would stall on workers nobody may be stepping) or the batch
    /// closing `epoch` is sealed, and re-checks the frontier after every
    /// step, so it stops as soon as `epoch` is durable even while a
    /// ticker keeps sealing. (With a permanent injected failure rate of
    /// 1.0 this spins forever — injected faults are a test facility.)
    pub fn advance_until(&self, epoch: u64) {
        while !self.is_disabled() && self.persisted_frontier() < epoch {
            // Fail-stop freezes the persist queue: the frontier can
            // never reach `epoch`, so return instead of wedging (the
            // caller observes the shortfall via `persisted_frontier`).
            if self.health() == HealthState::Failed {
                return;
            }
            let full = self.pipelined()
                && self.pipeline.lock().in_flight() >= self.config().pipeline_depth.max(1);
            if self.current_epoch() < epoch + 2 && !full {
                // The batch closing `epoch` is not sealed yet.
                self.advance();
            } else if self.persist_step(0) == Persisted::Nothing {
                // Every chunk is claimed by another thread: wait for it.
                let q = self.pipeline.lock();
                if self.persisted_frontier() < epoch {
                    drop(self.pipeline.wait(q, Duration::from_millis(1)));
                }
            }
        }
    }

    /// Makes everything completed so far durable (two transitions).
    pub fn flush_all(&self) {
        if self.is_disabled() {
            return;
        }
        let e = self.current_epoch();
        self.advance_until(e);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::fresh;
    use super::super::{payload, EPOCH_START};
    use super::Persisted;
    use crate::config::EpochConfig;
    use crate::{EpochSys, Runtime};
    use nvm_sim::{FaultPlan, NvmConfig, NvmHeap};
    use persist_alloc::Header;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::time::Duration;

    /// With a persist worker attached, `try_advance` performs no
    /// `persist_range` on the calling thread — it seals, enqueues, and
    /// bumps the clock; write-back and the frontier publish happen in
    /// persist steps.
    #[test]
    fn pipelined_advance_keeps_writeback_off_the_caller() {
        let es = fresh();
        let rt = Runtime::manual(Arc::clone(&es));
        let e = es.begin_op();
        let blk = es.p_new(2);
        es.payload_word(blk, 0).store(0xBEEF, Ordering::Release);
        Header::set_epoch(es.heap(), blk, e);
        es.p_track(blk);
        es.end_op();

        es.advance(); // seals (empty) epoch EPOCH_START−1
        let flushes_before = es.heap().stats().snapshot().flushes;
        let frontier_before = es.persisted_frontier();
        es.advance(); // seals epoch EPOCH_START — the tracked block
        assert_eq!(
            es.heap().stats().snapshot().flushes,
            flushes_before,
            "advance must not flush on the calling thread"
        );
        assert_eq!(
            es.persisted_frontier(),
            frontier_before,
            "the frontier only moves when a batch actually persists"
        );
        assert_eq!(es.current_epoch(), EPOCH_START + 2);

        // Drain by hand — exactly what a Persister thread does.
        rt.drain();
        assert!(es.heap().stats().snapshot().flushes > flushes_before);
        assert_eq!(es.persisted_frontier(), EPOCH_START);
        assert_eq!(es.buffered_words(), 0);
        let img = es.heap().crash();
        assert_eq!(img.word(payload(blk, 0)), 0xBEEF);
    }

    /// Tracking the same block twice in one epoch used to double-count
    /// the buffered-word account and hit media twice. Intake-time
    /// normalization (the sort+dedup now runs where the batch is
    /// persisted, not where it is sealed) must make the accounting
    /// match one write-back.
    #[test]
    fn intake_dedups_double_tracked_blocks() {
        let es = fresh();
        let e = es.begin_op();
        let blk = es.p_new(2);
        Header::set_epoch(es.heap(), blk, e);
        es.p_track(blk);
        es.p_track(blk); // second track of the same block, same epoch
        es.end_op();
        assert!(es.buffered_words() > 0);
        es.advance();
        es.advance();
        let s = es.stats().snapshot();
        assert_eq!(s.blocks_persisted, 1, "one media write-back after dedup");
        assert_eq!(
            es.buffered_words(),
            0,
            "intake-time refund plus persist-time refund must drain the account exactly"
        );
    }

    /// The dedup refund also lands when a batch waits in the pipeline:
    /// the sealing advance leaves the duplicate words buffered (seal no
    /// longer normalizes), and the hand-driven persist refunds both the
    /// excess and the batch's own accounting.
    #[test]
    fn pipelined_intake_refunds_duplicate_accounting() {
        let es = fresh();
        let rt = Runtime::manual(Arc::clone(&es));
        let e = es.begin_op();
        let blk = es.p_new(2);
        Header::set_epoch(es.heap(), blk, e);
        es.p_track(blk);
        es.p_track(blk);
        es.end_op();
        let buffered = es.buffered_words();
        es.advance();
        es.advance(); // seals the double-tracked epoch; nothing persists yet
        assert_eq!(
            es.buffered_words(),
            buffered,
            "raw seal keeps the duplicate accounting until intake"
        );
        rt.drain();
        assert_eq!(es.buffered_words(), 0);
        assert_eq!(es.stats().snapshot().blocks_persisted, 1);
    }

    /// Contiguous neighbor blocks of one batch collapse into a single
    /// ranged flush; the device sees fewer flush calls but the same
    /// lines, and obs counts the merges.
    #[test]
    fn contiguous_blocks_coalesce_into_ranged_flushes() {
        let es = fresh();
        let e = es.begin_op();
        // Same size class, allocated back-to-back from a fresh extent:
        // word-contiguous by construction.
        let a = es.p_new(2);
        let b = es.p_new(2);
        Header::set_epoch(es.heap(), a, e);
        Header::set_epoch(es.heap(), b, e);
        es.p_track(a);
        es.p_track(b);
        es.end_op();
        es.advance();
        es.advance();
        let s = es.stats().snapshot();
        assert_eq!(s.blocks_persisted, 2);
        assert_eq!(
            s.coalesced_flushes, 1,
            "two contiguous blocks merge into one ranged flush"
        );
        assert_eq!(es.persisted_frontier(), EPOCH_START);
        assert_eq!(es.buffered_words(), 0);
    }

    /// A full pipeline stalls the *clock* (the advancing thread), never
    /// the persister; the stall resolves as soon as a batch completes.
    #[test]
    fn full_pipeline_stalls_clock_until_batch_done() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
        let es = EpochSys::format(heap, EpochConfig::manual().with_pipeline_depth(1));
        let rt = Runtime::manual(Arc::clone(&es));
        es.advance(); // fills the depth-1 pipeline
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                rt.drain();
            });
            es.advance(); // must stall until the drainer frees a slot
        });
        assert!(
            es.stats().snapshot().pipeline_stalls > 0,
            "the second advance must have recorded a stall"
        );
        assert_eq!(es.current_epoch(), EPOCH_START + 2);
        rt.drain();
        assert_eq!(es.persisted_frontier(), EPOCH_START);
    }

    /// With several persist workers attached, one batch splits into a
    /// chunk per worker; each step writes one chunk, and only the step
    /// writing the last one publishes the frontier.
    #[test]
    fn batch_chunks_are_claimed_one_step_at_a_time() {
        let es = fresh();
        let rts: Vec<Runtime> = (0..3).map(|_| Runtime::manual(Arc::clone(&es))).collect();
        let e = es.begin_op();
        for _ in 0..12 {
            let blk = es.p_new(6); // one line each: a splittable plan
            Header::set_epoch(es.heap(), blk, e);
            es.p_track(blk);
        }
        es.end_op();
        es.advance();
        rts[0].drain(); // the empty batch closing EPOCH_START − 1
        es.advance(); // seals the 12-block batch
        let before = es.persisted_frontier();
        assert_eq!(es.persist_step(0), Persisted::Chunk);
        assert_eq!(es.persist_step(1), Persisted::Chunk);
        assert_eq!(
            es.persisted_frontier(),
            before,
            "a chunk is still unwritten"
        );
        assert_eq!(es.persist_step(2), Persisted::Chunk);
        assert_eq!(
            es.persisted_frontier(),
            EPOCH_START,
            "the last chunk publishes"
        );
        assert_eq!(es.persist_step(0), Persisted::Nothing);
        let words = es.persist_worker_words();
        assert!(words[..3].iter().all(|&w| w > 0), "{words:?}");
        assert_eq!(es.buffered_words(), 0);
    }

    /// A step unwinding mid-chunk (a crash point) marks its chunk
    /// failed; the step that finishes the batch's last chunk then
    /// re-queues the batch and degrades instead of publishing, and a
    /// later drain persists it — nobody waits on the dead step.
    #[test]
    fn unwound_chunk_fails_its_batch_without_wedging_the_rest() {
        let es = fresh();
        let _rts: Vec<Runtime> = (0..2).map(|_| Runtime::manual(Arc::clone(&es))).collect();
        let e = es.begin_op();
        for _ in 0..8 {
            let blk = es.p_new(6);
            Header::set_epoch(es.heap(), blk, e);
            es.p_track(blk);
        }
        es.end_op();
        es.advance();
        es.drain_sealed(); // the empty batch closing EPOCH_START − 1
        es.advance(); // seals the 8-block batch: two chunks
        let plan = Arc::new(FaultPlan::crash_at(0));
        es.heap().arm_fault_plan(Arc::clone(&plan));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| es.persist_step(0)));
        es.heap().disarm_fault_plan();
        assert!(
            unwound.is_err() && plan.fired(),
            "chunk 0 crashed mid-write"
        );
        let frontier = es.persisted_frontier();
        assert_eq!(
            es.persist_step(1),
            Persisted::Failed,
            "the last chunk finds its sibling failed"
        );
        assert_eq!(es.health(), crate::HealthState::Degraded);
        assert_eq!(es.persisted_frontier(), frontier);
        assert_eq!(es.batches_in_flight(), 1, "re-queued, not lost");
        es.drain_sealed();
        assert_eq!(es.persisted_frontier(), EPOCH_START);
        assert_eq!(es.buffered_words(), 0);
    }
}
