//! The shared Listing-1 operation lifecycle: one place that owns the
//! `begin_op` → prealloc-`take` → HTM-retry → `abort_op`-on-
//! [`OLD_SEE_NEW`] → post-commit effects choreography every BDL
//! structure follows.
//!
//! Before this module, each structure (PHTM-vEB, BDL-Skiplist,
//! BD-Spash, the Listing-1 table) hand-rolled the identical bracket and
//! had to get three §5 invariants right independently:
//!
//! 1. the preallocated block's epoch is claimed **inside** the
//!    transaction, before the linearization point (Listing 1 line 17);
//! 2. persistence ([`EpochSys::p_track`]) and reclamation
//!    ([`EpochSys::p_retire`]) happen **strictly after commit**
//!    (Listing 1 lines 31–38, the `op_done` block);
//! 3. a preallocated block is never reused while carrying a stale
//!    epoch (the [`PreallocSlots`] invariant).
//!
//! [`run_op`] enforces all three: the structure's closure contains only
//! structure logic (search, link, classify) and *describes* its
//! post-commit obligations as a [`CommitEffects`] value; the combinator
//! applies them exactly once, in a fixed order, after the transaction
//! has committed. Failure paths (explicit [`OLD_SEE_NEW`] aborts,
//! panics unwinding through the bracket) are funneled through
//! [`OpGuard`]'s drop glue, so an interrupted operation always returns
//! its block to the slot (epoch reset) and clears its epoch
//! announcement — exactly the `retry_regist` path of Listing 1 lines
//! 39–41.

use crate::esys::{EpochSys, PreallocSlots, OLD_SEE_NEW};
use crate::obs::{EventKind, ABORT_RESTART, ABORT_UNWIND};
use htm_sim::RunError;
use nvm_sim::{CrashTriggered, NvmAddr};
use persist_alloc::{Header, CLASS_WORDS};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// A deferred fix-up an operation wants to run *after* its registration
/// is cleanly aborted but *before* the retry (e.g. BD-Spash splitting a
/// full segment — splitting under an open registration would deadlock
/// the epoch advance the split may wait on).
pub type RestartFn<'a> = Box<dyn FnOnce() + 'a>;

/// What one attempt of an operation body decided.
pub enum OpStep<'a, R> {
    /// The transaction committed: apply these effects and return.
    Commit(CommitEffects<R>),
    /// Abort the registration and retry from `begin_op`, optionally
    /// running a fix-up (see [`RestartFn`]) in between.
    Restart(Option<RestartFn<'a>>),
}

impl<'a, R> OpStep<'a, R> {
    /// The attempt committed with `effects`.
    pub fn commit(effects: CommitEffects<R>) -> Result<Self, RunError> {
        Ok(OpStep::Commit(effects))
    }

    /// Retry the operation under a fresh registration.
    pub fn restart() -> Result<Self, RunError> {
        Ok(OpStep::Restart(None))
    }

    /// Retry after running `fixup` outside the operation bracket.
    pub fn restart_after(fixup: impl FnOnce() + 'a) -> Result<Self, RunError> {
        Ok(OpStep::Restart(Some(Box::new(fixup))))
    }
}

/// The post-commit obligations of one committed attempt (Listing 1's
/// `op_done` block, lines 31–38), applied by [`run_op`] in a fixed
/// order: retire → persist → return the unused prealloc → `end_op`.
#[must_use]
pub struct CommitEffects<R> {
    result: R,
    retire: Option<NvmAddr>,
    track: Option<NvmAddr>,
    persist_now: Option<NvmAddr>,
    keep_prealloc: bool,
}

impl<R> CommitEffects<R> {
    /// Effects that only return `result` (a read-like or no-op commit).
    pub fn of(result: R) -> Self {
        CommitEffects {
            result,
            retire: None,
            track: None,
            persist_now: None,
            keep_prealloc: false,
        }
    }

    /// Retire `blk` (the replaced/removed block) after commit — its
    /// reclamation becomes durable with the operation's epoch.
    pub fn retire(mut self, blk: NvmAddr) -> Self {
        self.retire = Some(blk);
        self
    }

    /// Track `blk` in the operation's epoch buffer: the background
    /// flusher persists it when the epoch closes.
    pub fn track(mut self, blk: NvmAddr) -> Self {
        self.track = Some(blk);
        self
    }

    /// Persist `blk` eagerly (write-back + fence, off the transactional
    /// path) instead of tracking it — the §4.3 large-cold policy.
    /// Recovery visibility is still gated by the epoch frontier.
    pub fn persist_now(mut self, blk: NvmAddr) -> Self {
        self.persist_now = Some(blk);
        self
    }

    /// The preallocated block went unused (e.g. an in-place update):
    /// stash it, epoch reset, for the thread's next operation.
    pub fn keep_prealloc(mut self) -> Self {
        self.keep_prealloc = true;
        self
    }
}

/// RAII bracket around one registered operation attempt.
///
/// Created by [`run_op`] (or [`OpGuard::begin`] for hand-rolled
/// drivers): registers the operation ([`EpochSys::begin_op`]) and takes
/// the thread's preallocated block. Until defused by
/// [`OpGuard::finish`] or [`OpGuard::abort`], dropping the guard —
/// including a panic or injected-crash unwind mid-operation, or inside
/// the prealloc take itself — returns the block to its slot and clears
/// the epoch announcement, so an interrupted operation can never stall
/// a future epoch advance or leak a stale-epoch block.
///
/// Every attempt leaves exactly one flight record: an `OpCommit`,
/// `OpAbort` or `OpPanicked` span from the attempt's start.
pub struct OpGuard<'a> {
    esys: &'a EpochSys,
    epoch: u64,
    prealloc: Option<(&'a PreallocSlots, NvmAddr)>,
    armed: bool,
    /// Start of this attempt and of the op's first attempt, on the
    /// [`Obs`](crate::Obs) clock.
    t0_ns: u64,
    first_t0_ns: u64,
    /// Restarts before this attempt.
    restarts: u64,
    /// The span an unfinished attempt closes with: `OpAbort` with
    /// [`ABORT_UNWIND`] unless `run_op` names a restart, an explicit
    /// abort, or a panic.
    end: (EventKind, u64),
}

impl<'a> OpGuard<'a> {
    /// Registers an operation in the current epoch and, when `prealloc`
    /// is given, takes the thread's spare block (Listing 1 lines 7–12).
    pub fn begin(esys: &'a EpochSys, prealloc: Option<&'a PreallocSlots>) -> OpGuard<'a> {
        let t0_ns = esys.obs().now_ns();
        let mut op = OpGuard {
            esys,
            epoch: esys.begin_op(),
            prealloc: None,
            armed: true,
            t0_ns,
            first_t0_ns: t0_ns,
            restarts: 0,
            end: (EventKind::OpAbort, ABORT_UNWIND),
        };
        // Taken through the live guard: a crash point inside the take
        // unwinds through its drop glue and still leaves the record.
        op.prealloc = prealloc.map(|slots| (slots, slots.take(esys)));
        op
    }

    /// The epoch this attempt registered in (`op_epoch`).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The preallocated block (`new_blk`), epoch reset to invalid.
    ///
    /// # Panics
    ///
    /// Panics if the operation was started without a [`PreallocSlots`].
    pub fn blk(&self) -> NvmAddr {
        self.prealloc
            .expect("operation was started without a prealloc slot")
            .1
    }

    /// The epoch system this operation is registered with.
    pub fn esys(&self) -> &'a EpochSys {
        self.esys
    }

    /// Aborts the attempt: the prealloc block goes back to its slot
    /// (epoch reset) and the registration is cleared, refunding any
    /// buffered tracking (Listing 1 lines 39–41).
    pub fn abort(mut self) {
        self.release();
    }

    /// The abort path shared by [`abort`](Self::abort) and the drop
    /// glue: closes the attempt's span, returns the block, deregisters.
    fn release(&mut self) {
        self.armed = false;
        let (kind, b) = self.end;
        self.esys.obs().op_span(self.t0_ns, kind, self.epoch, b);
        if let Some((slots, blk)) = self.prealloc {
            slots.put_back(self.esys, blk);
        }
        self.esys.abort_op();
    }

    /// Commits the attempt: applies `effects` in the canonical
    /// post-commit order and ends the operation. Returns the body's
    /// result.
    pub fn finish<R>(mut self, effects: CommitEffects<R>) -> R {
        self.armed = false;
        self.esys.obs().commit(
            self.first_t0_ns,
            self.t0_ns,
            self.epoch,
            self.restarts,
            self.esys.persisted_frontier(),
        );
        if let Some(old) = effects.retire {
            self.esys.p_retire(old);
        }
        if let Some(blk) = effects.persist_now {
            // Eager write-back (§4.3): data reaches media immediately
            // and the epoch flusher skips it entirely.
            let heap = self.esys.heap();
            let class = Header::state(heap, blk).map(|(_, c)| c).unwrap_or(0);
            heap.persist_range(blk, CLASS_WORDS[class]);
            heap.fence();
        }
        if let Some(blk) = effects.track {
            self.esys.p_track(blk);
        }
        if effects.keep_prealloc {
            let (slots, blk) = self
                .prealloc
                .expect("keep_prealloc on an operation without a prealloc slot");
            slots.put_back(self.esys, blk);
        }
        self.esys.end_op();
        effects.result
    }
}

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        // Unwind path only (finish/abort defuse the guard): behave like
        // an abort so a panic mid-operation — e.g. an injected crash —
        // leaves no stale announcement and no stale-epoch block.
        if self.armed {
            self.release();
        }
    }
}

/// Runs one BDL operation to completion: registration, preallocation,
/// the structure's `body`, and the post-commit effects — retrying on
/// [`OLD_SEE_NEW`] with a fresh registration each time, exactly the
/// Listing 1 protocol.
///
/// The `body` runs its own hardware transaction(s) against
/// [`OpGuard::epoch`] and [`OpGuard::blk`] and returns:
///
/// * `Ok(OpStep::Commit(effects))` — the transaction committed; the
///   combinator applies `effects` (retire → persist → put-back →
///   `end_op`) and returns the result.
/// * `Ok(OpStep::Restart(fixup))` — abort the registration cleanly,
///   run `fixup` (if any) outside the bracket, and retry.
/// * `Err(RunError(OLD_SEE_NEW))` — the transaction saw state from a
///   newer epoch and aborted explicitly; retry in a newer epoch.
///
/// Any other explicit abort code is a protocol bug: handle it in the
/// body (as the Listing-1 table does for its capacity abort, turning it
/// into a `Restart` whose fixup panics).
pub fn run_op<'a, R>(
    esys: &'a EpochSys,
    prealloc: Option<&'a PreallocSlots>,
    mut body: impl FnMut(&OpGuard<'a>) -> Result<OpStep<'a, R>, RunError>,
) -> R {
    let mut first_t0_ns = None;
    let mut restarts = 0u64;
    loop {
        let mut op = OpGuard::begin(esys, prealloc);
        op.first_t0_ns = *first_t0_ns.get_or_insert(op.t0_ns);
        op.restarts = restarts;
        // A panicking body must not take the whole process down with an
        // HTM transaction open and an epoch announced: catch it, let the
        // guard's drop glue abort the registration (returning the block,
        // clearing the announcement — other threads keep advancing), and
        // resurface the panic to the caller. The HTM layer's own exit
        // guard unwinds `TXN_DEPTH`, so a panic inside a transaction
        // aborts it rather than leaking speculative state. Injected
        // crash points are the fault sweep's machine-death model, not an
        // op failure — those close as an unwind abort instead.
        let step = match catch_unwind(AssertUnwindSafe(|| body(&op))) {
            Ok(step) => step,
            Err(payload) => {
                if payload.downcast_ref::<CrashTriggered>().is_none() {
                    op.end = (EventKind::OpPanicked, restarts);
                }
                drop(op);
                resume_unwind(payload);
            }
        };
        match step {
            Ok(OpStep::Commit(effects)) => return op.finish(effects),
            Ok(OpStep::Restart(fixup)) => {
                op.end = (EventKind::OpAbort, ABORT_RESTART);
                op.abort();
                if let Some(f) = fixup {
                    f();
                }
            }
            Err(RunError(code)) => {
                debug_assert_eq!(
                    code, OLD_SEE_NEW,
                    "unhandled explicit abort code {code:#x} escaped an operation body"
                );
                op.end = (EventKind::OpAbort, 1 + code as u64);
                op.abort();
            }
        }
        restarts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EpochConfig;
    use crate::esys::payload;
    use htm_sim::{FallbackLock, Htm, HtmConfig, MemAccess};
    use nvm_sim::{NvmConfig, NvmHeap};
    use std::sync::Arc;

    fn setup() -> (Arc<EpochSys>, Arc<Htm>) {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
        let esys = EpochSys::format(heap, EpochConfig::manual());
        (esys, Arc::new(Htm::new(HtmConfig::for_tests())))
    }

    #[test]
    fn commit_applies_track_and_survives_crash() {
        let (esys, htm) = setup();
        let slots = PreallocSlots::new(1);
        let lock = FallbackLock::new();
        let blk = run_op(&esys, Some(&slots), |op| {
            let blk = op.blk();
            esys.heap()
                .word(payload(blk, 0))
                .store(77, std::sync::atomic::Ordering::Release);
            let epoch = op.epoch();
            htm.run(&lock, |m: &mut dyn MemAccess| {
                esys.set_epoch(m, blk, epoch)?;
                Ok(())
            })?;
            OpStep::commit(CommitEffects::of(blk).track(blk))
        });
        esys.advance();
        esys.advance();
        let img = esys.heap().crash();
        let heap2 = Arc::new(NvmHeap::from_image(img));
        let (_esys2, live) = EpochSys::recover(Arc::clone(&heap2), EpochConfig::manual(), 1);
        assert!(live.iter().any(|b| b.addr == blk), "tracked block lost");
    }

    #[test]
    fn restart_runs_fixup_between_registrations() {
        let (esys, _htm) = setup();
        let slots = PreallocSlots::new(1);
        let mut attempts = 0;
        let fixups = std::cell::Cell::new(0);
        let r = run_op(&esys, Some(&slots), |_op| {
            attempts += 1;
            if attempts < 3 {
                // The fixup must observe a closed registration.
                OpStep::restart_after(|| {
                    assert_eq!(esys.announced_epoch(), crate::esys::EMPTY_EPOCH);
                    fixups.set(fixups.get() + 1);
                })
            } else {
                OpStep::commit(CommitEffects::of(attempts).keep_prealloc())
            }
        });
        assert_eq!(r, 3);
        assert_eq!(fixups.get(), 2);
        // Ended cleanly: the next advance must not stall.
        esys.advance();
    }

    #[test]
    fn old_see_new_retries_with_fresh_epoch() {
        let (esys, _htm) = setup();
        let mut attempts = 0;
        let epochs = std::cell::RefCell::new(Vec::new());
        run_op(&esys, None, |op| {
            epochs.borrow_mut().push(op.epoch());
            attempts += 1;
            if attempts == 1 {
                esys.advance(); // next registration lands in a newer epoch
                return Err(RunError(OLD_SEE_NEW));
            }
            OpStep::commit(CommitEffects::of(()))
        });
        let epochs = epochs.into_inner();
        assert_eq!(epochs.len(), 2);
        assert!(epochs[1] > epochs[0], "retry must re-register, not reuse");
    }

    #[test]
    fn panic_unwind_releases_registration_and_block() {
        let (esys, _htm) = setup();
        let slots = PreallocSlots::new(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_op(&esys, Some(&slots), |_op| -> Result<OpStep<()>, RunError> {
                panic!("mid-op crash")
            })
        }));
        assert!(r.is_err());
        // The guard's drop glue must have cleared the announcement (an
        // advance would otherwise deadlock) and re-stashed the block.
        assert_eq!(esys.announced_epoch(), crate::esys::EMPTY_EPOCH);
        esys.advance();
        let reused = run_op(&esys, Some(&slots), |op| {
            OpStep::commit(CommitEffects::of(op.blk()).keep_prealloc())
        });
        assert_eq!(
            Header::epoch(esys.heap(), reused),
            persist_alloc::INVALID_EPOCH,
            "re-stashed block must carry an invalid epoch"
        );
    }

    #[test]
    fn each_attempt_leaves_one_span() {
        let (esys, _htm) = setup();
        let slots = PreallocSlots::new(1);
        let mut attempts = 0;
        run_op(&esys, Some(&slots), |_op| {
            attempts += 1;
            if attempts < 3 {
                OpStep::restart()
            } else {
                OpStep::commit(CommitEffects::of(()).keep_prealloc())
            }
        });
        let d = esys.obs().dump(usize::MAX);
        let records: Vec<_> = d.iter().map(|e| (e.kind, e.b)).collect();
        assert_eq!(
            records,
            [
                (EventKind::OpAbort, ABORT_RESTART),
                (EventKind::OpAbort, ABORT_RESTART),
                (EventKind::OpCommit, 2),
            ]
        );
        assert!(
            d.windows(2).all(|w| w[0].t_ns <= w[1].t0_ns),
            "attempt spans follow each other: {d:?}"
        );
        let latency = esys.obs().op_latency_ns().snapshot();
        assert_eq!(latency.count, 1);
        assert_eq!(
            latency.sum,
            d[2].t_ns - d[0].t0_ns,
            "latency runs from the first attempt's start to the commit span's end"
        );
        assert_eq!(esys.obs().op_restarts().snapshot().sum, 2);
    }

    #[test]
    fn crash_inside_the_prealloc_take_leaves_an_unwind_span() {
        let (esys, _htm) = setup();
        let slots = PreallocSlots::new(1);
        // The first crash point of the op is the allocation behind the
        // empty slot's take, before the body runs.
        esys.heap()
            .arm_fault_plan(Arc::new(nvm_sim::FaultPlan::crash_at(0)));
        let ran = std::cell::Cell::new(false);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_op(&esys, Some(&slots), |_op| {
                ran.set(true);
                OpStep::commit(CommitEffects::of(()))
            })
        }));
        esys.heap().disarm_fault_plan();
        let payload = r.expect_err("the armed crash point must fire");
        assert!(payload.downcast_ref::<CrashTriggered>().is_some());
        assert!(!ran.get(), "the crash fired inside the take");
        let records: Vec<_> = esys
            .obs()
            .dump(usize::MAX)
            .iter()
            .map(|e| (e.kind, e.b))
            .collect();
        assert_eq!(records, [(EventKind::OpAbort, ABORT_UNWIND)]);
        assert_eq!(esys.announced_epoch(), crate::esys::EMPTY_EPOCH);
    }

    #[test]
    fn op_panic_is_recorded_and_leaves_system_live() {
        let (esys, _htm) = setup();
        let slots = PreallocSlots::new(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_op(&esys, Some(&slots), |_op| -> Result<OpStep<()>, RunError> {
                panic!("op body bug")
            })
        }));
        // The panic resurfaces to the caller (not swallowed) ...
        let payload = r.unwrap_err();
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("op body bug"),
            "original payload must survive the catch/rethrow"
        );
        // ... the flight recorder knows about it, as the attempt's one
        // record ...
        let records: Vec<_> = esys
            .obs()
            .dump(usize::MAX)
            .iter()
            .map(|e| (e.kind, e.b))
            .collect();
        assert_eq!(records, [(EventKind::OpPanicked, 0)]);
        // ... and the epoch machinery is fully live afterwards: no
        // stale announcement, advances move the clock and frontier.
        assert_eq!(esys.announced_epoch(), crate::esys::EMPTY_EPOCH);
        let e0 = esys.current_epoch();
        esys.advance();
        esys.advance();
        assert_eq!(esys.current_epoch(), e0 + 2);
        assert_eq!(esys.persisted_frontier(), e0);
    }
}
