//! The maintenance runtime: the one background job buffered durability
//! needs — "a background thread increments the value of a global clock
//! every few milliseconds" (§3), and each closed epoch is written back
//! to media off the critical path — as one steppable state machine.
//!
//! A [`Runtime`] over an [`EpochSys`] plays three roles. Each
//! [`step`](Runtime::step) performs at most one due action for one role
//! and returns when that role is next due:
//!
//! | role | one step | next due |
//! |---|---|---|
//! | [`Role::Tick`] | advance the clock | `epoch_len` after that advance *ended* |
//! | [`Role::Persist`] | claim and write back one chunk of the oldest sealed batch; the step finishing a batch's last chunk fences, publishes the frontier and reclaims | now while work remains, else after a short idle wait |
//! | [`Role::Watch`] | take one watchdog progress sample (see [`crate::watchdog`]) | `watchdog_period` later |
//!
//! Production runs each role on its own worker threads — so the clock
//! never queues behind a write-back — all looping through one private
//! harness: [`EpochTicker`] (tick), [`Persister`] (`persist_workers`
//! persist threads) and [`Watchdog`] (watch). Tests and the fault
//! sweeps step a [`Runtime::manual`] by hand on one thread, so a seed
//! fixes every decision. With no persist worker attached, or once
//! health is `Degraded`, the advancing thread runs the same persist
//! step inline.

use crate::error::HealthState;
use crate::esys::{EpochSys, Persisted};
use crate::obs::{MetricsRegistry, MetricsReport};
use crate::watchdog::WatchState;
use nvm_sim::CrashTriggered;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle persist worker waits for a sealed batch before it
/// looks again (a seal wakes it sooner).
const PERSIST_IDLE: Duration = Duration::from_millis(5);

/// Longest uninterrupted sleep of a worker, so a stop request never
/// waits out a full (possibly multi-second) period.
const SLEEP_SLICE: Duration = Duration::from_millis(20);

/// One of the runtime's maintenance jobs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// Advance the epoch clock every
    /// [`EpochConfig::epoch_len`](crate::EpochConfig::epoch_len).
    Tick,
    /// Write back one chunk of the oldest sealed batch.
    Persist,
    /// Take one progress sample every
    /// [`EpochConfig::watchdog_period`](crate::EpochConfig::watchdog_period).
    Watch,
}

/// The steppable maintenance runtime of one [`EpochSys`] (see the
/// module docs).
pub struct Runtime {
    esys: Arc<EpochSys>,
    /// Telemetry slot while attached as a persist worker.
    persist_slot: Option<usize>,
    due: Mutex<Due>,
}

/// Per-role schedule and the watch role's state.
struct Due {
    tick: Instant,
    watch: Instant,
    watch_state: WatchState,
}

impl Runtime {
    /// A runtime stepped by hand. It counts as one attached persist
    /// worker: advances only seal and enqueue, and the caller's
    /// [`Role::Persist`] steps (or [`drain`](Self::drain)) write the
    /// batches back — the deterministic stand-in for a [`Persister`].
    /// Dropping it detaches, returning the system to synchronous
    /// inline persistence.
    pub fn manual(esys: Arc<EpochSys>) -> Runtime {
        Runtime::new(esys, Some(0))
    }

    fn new(esys: Arc<EpochSys>, persist_slot: Option<usize>) -> Runtime {
        if persist_slot.is_some() {
            esys.attach_persist_worker();
        }
        let now = Instant::now();
        let due = Due {
            tick: now + esys.config().epoch_len,
            watch: now + esys.config().watchdog_period,
            watch_state: WatchState::new(&esys),
        };
        Runtime {
            esys,
            persist_slot,
            due: Mutex::new(due),
        }
    }

    /// The epoch system this runtime maintains.
    pub fn epoch_sys(&self) -> &Arc<EpochSys> {
        &self.esys
    }

    fn due(&self) -> MutexGuard<'_, Due> {
        self.due.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Performs at most one due action for `role` at time `now`, and
    /// returns when `role` is next due (`now` itself when more work is
    /// ready at once). A tick or watch step before its due time does
    /// nothing; a persist step is always due.
    pub fn step(&self, role: Role, now: Instant) -> Instant {
        match role {
            Role::Tick => {
                let due = self.due().tick;
                if now < due {
                    return due;
                }
                self.esys.advance();
                // Counted from the end of the advance, so a slow advance
                // never shortens the next epoch.
                let due = Instant::now() + self.esys.config().epoch_len;
                self.due().tick = due;
                due
            }
            Role::Persist => match self.esys.persist_step(self.persist_slot.unwrap_or(0)) {
                Persisted::Nothing => now + PERSIST_IDLE,
                Persisted::Chunk | Persisted::Failed => now,
            },
            Role::Watch => {
                let mut d = self.due();
                if now >= d.watch {
                    d.watch_state.sample(&self.esys);
                    d.watch = now + self.esys.config().watchdog_period;
                }
                d.watch
            }
        }
    }

    /// Runs persist steps on the calling thread until nothing sealed is
    /// left, a batch fails (it stays queued and health ratchets), or the
    /// system has failed.
    pub fn drain(&self) {
        self.esys.drain_sealed();
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        if self.persist_slot.is_some() {
            self.esys.detach_persist_worker();
        }
    }
}

/// A worker thread's loop: step `role` whenever it is due, wait in
/// between, until stopped. Persist workers drain everything sealed
/// before the stop, and retire when health leaves `Ok` (the ratchet is
/// one-way, so advances persist inline from then on).
fn run_role(rt: Runtime, role: Role, stop: &AtomicBool) {
    let spin = role == Role::Tick && rt.esys.config().epoch_len < Duration::from_millis(1);
    loop {
        let stopping = stop.load(Ordering::Relaxed);
        if stopping && role != Role::Persist {
            return;
        }
        let now = Instant::now();
        let due = rt.step(role, now);
        if role != Role::Persist {
            sleep_until(due, stop, spin);
        } else if rt.esys.health() != HealthState::Ok || (stopping && due > now) {
            return;
        } else if due > now {
            rt.esys.wait_persist_work(due - now);
        }
    }
}

/// Waits until `due`, returning early on a stop request: spins when
/// `spin` (the paper's sub-millisecond epochs), else sleeps in bounded
/// slices.
fn sleep_until(due: Instant, stop: &AtomicBool, spin: bool) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        if spin {
            std::hint::spin_loop();
        } else if stop.load(Ordering::Relaxed) {
            return;
        } else {
            std::thread::sleep((due - now).min(SLEEP_SLICE));
        }
    }
}

/// Background threads, each running one loop, stopped and joined on
/// drop: the one spawn/stop/join harness behind [`EpochTicker`],
/// [`Persister`], [`Watchdog`] and [`Sampler`].
struct Workers {
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl Workers {
    /// Starts one thread per body. If the OS cannot spawn a thread
    /// (resource exhaustion) it logs a warning and starts no more: the
    /// handle runs narrower, or inert. That degrades latency but loses
    /// nothing — epochs still advance by hand or by backpressure, and
    /// batches persist inline on the advancing thread.
    ///
    /// A fault-plan crash point firing inside a body
    /// ([`CrashTriggered`]) models machine death: the thread vanishes
    /// quietly. Any other panic is a real bug and is re-raised.
    fn start<F>(what: &str, bodies: impl IntoIterator<Item = F>) -> Workers
    where
        F: FnOnce(&AtomicBool) + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for (i, body) in bodies.into_iter().enumerate() {
            let stop2 = Arc::clone(&stop);
            let spawned = std::thread::Builder::new()
                .name(format!("bdhtm-{what}-{i}"))
                .spawn(move || {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(&stop2))) {
                        if payload.downcast_ref::<CrashTriggered>().is_none() {
                            std::panic::resume_unwind(payload);
                        }
                    }
                });
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    eprintln!(
                        "bdhtm: failed to spawn {what} thread: {e}; continuing with {} thread(s)",
                        handles.len()
                    );
                    break;
                }
            }
        }
        Workers { stop, handles }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Starts `n` worker threads running `role`; persist workers attach
/// (in slot order) before their thread starts.
fn start_role(what: &str, esys: &Arc<EpochSys>, role: Role, n: usize) -> Workers {
    Workers::start(
        what,
        (0..n).map(|i| {
            let rt = Runtime::new(Arc::clone(esys), (role == Role::Persist).then_some(i));
            move |stop: &AtomicBool| run_role(rt, role, stop)
        }),
    )
}

/// The background epoch advancer: one thread running [`Role::Tick`].
/// Stops (and joins) on drop.
pub struct EpochTicker(Workers);

impl EpochTicker {
    /// Starts the tick thread. With sub-millisecond epoch lengths (the
    /// paper's 1 µs sweep points) it spins instead of sleeping.
    pub fn spawn(esys: Arc<EpochSys>) -> EpochTicker {
        EpochTicker(start_role("ticker", &esys, Role::Tick, 1))
    }

    /// Stops the ticker and waits for it to exit.
    pub fn stop(self) {
        drop(self.0);
    }
}

/// The background write-back pool:
/// [`EpochConfig::persist_workers`](crate::EpochConfig) threads (the
/// default auto-sizes from the machine) running [`Role::Persist`].
///
/// While a persister runs, [`EpochSys::advance`] only seals and
/// enqueues; each batch splits into one chunk per thread, and the
/// thread writing the last chunk fences, publishes the durable frontier
/// and reclaims, batch by batch in epoch order. Stops (and joins) on
/// drop after draining every queued batch, so a clean shutdown leaves
/// the frontier at `clock − 2`.
pub struct Persister(Workers);

impl Persister {
    /// Starts the pool; each thread attaches before this returns, so
    /// advances switch to seal-and-enqueue immediately.
    pub fn spawn(esys: Arc<EpochSys>) -> Persister {
        let n = esys.config().effective_persist_workers();
        Persister(start_role("persist", &esys, Role::Persist, n))
    }

    /// Stops the pool after it drains the queue, and joins every thread.
    pub fn stop(self) {
        drop(self.0);
    }
}

/// The background stall detector: one thread running [`Role::Watch`],
/// escalating up to
/// [`EpochConfig::watchdog_policy`](crate::EpochConfig). Stops (and
/// joins) on drop.
pub struct Watchdog(Workers);

impl Watchdog {
    /// Starts the watch thread.
    pub fn spawn(esys: Arc<EpochSys>) -> Watchdog {
        Watchdog(start_role("watchdog", &esys, Role::Watch, 1))
    }

    /// Stops the watchdog and waits for it to exit.
    pub fn stop(self) {
        drop(self.0);
    }
}

/// The background metrics sampler: one thread that snapshots a
/// [`MetricsRegistry`] every `interval` and hands the delta against the
/// previous snapshot ([`MetricsReport::since`]) to a sink — the bench
/// harness streams them as JSON-lines (`--metrics-series`, one
/// [`series_line`](crate::obs::series_line) per sample), showing *when*
/// durability lag spiked or health ratcheted. Sampling is read-only and
/// off every hot path. Stops (and joins) on drop; the final partial
/// interval is always flushed, so even a run shorter than one interval
/// produces at least one sample.
pub struct Sampler(Workers);

impl Sampler {
    /// Starts the sampler thread.
    pub fn spawn(
        registry: MetricsRegistry,
        interval: Duration,
        mut sink: impl FnMut(u64, u64, &MetricsReport) + Send + 'static,
    ) -> Sampler {
        let interval = interval.max(Duration::from_millis(1));
        // Baseline on the caller's thread, before the worker exists:
        // every event after spawn() returns lands in some delta, even
        // ones racing the worker's startup.
        let origin = Instant::now();
        let mut baseline = registry.report();
        Sampler(Workers::start(
            "sampler",
            [move |stop: &AtomicBool| {
                for seq in 0.. {
                    sleep_until(Instant::now() + interval, stop, false);
                    let stopping = stop.load(Ordering::Relaxed);
                    let now = registry.report();
                    sink(
                        origin.elapsed().as_nanos() as u64,
                        seq,
                        &now.since(&baseline),
                    );
                    baseline = now;
                    if stopping {
                        break;
                    }
                }
            }],
        ))
    }

    /// Stops the sampler, flushes the final partial interval, and joins.
    pub fn stop(self) {
        drop(self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpochConfig, WatchdogPolicy};
    use nvm_sim::{NvmConfig, NvmHeap};
    use persist_alloc::Header;

    fn system(config: EpochConfig) -> Arc<EpochSys> {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(4 << 20)));
        EpochSys::format(heap, config)
    }

    fn publish(es: &EpochSys) {
        let e = es.begin_op();
        let blk = es.p_new(1);
        Header::set_epoch(es.heap(), blk, e);
        es.p_track(blk);
        es.end_op();
    }

    #[test]
    fn ticker_advances_epochs() {
        let es = system(EpochConfig::manual().with_epoch_len(Duration::from_millis(2)));
        let before = es.current_epoch();
        let ticker = EpochTicker::spawn(Arc::clone(&es));
        std::thread::sleep(Duration::from_millis(60));
        ticker.stop();
        let after = es.current_epoch();
        assert!(
            after >= before + 5,
            "expected several epoch advances, got {before} -> {after}"
        );
    }

    #[test]
    fn ticker_survives_injected_advance_failures() {
        let es = system(EpochConfig::manual().with_epoch_len(Duration::from_millis(2)));
        // A burst of failures longer than one advance()'s retry budget:
        // the ticker must absorb it across ticks and keep advancing.
        es.inject_advance_failures(10);
        let before = es.current_epoch();
        let ticker = EpochTicker::spawn(Arc::clone(&es));
        std::thread::sleep(Duration::from_millis(120));
        ticker.stop();
        assert_eq!(
            es.stats().snapshot().advance_failures,
            10,
            "every injected failure must have been consumed"
        );
        assert!(
            es.current_epoch() >= before + 3,
            "ticker must advance past the fault burst"
        );
    }

    #[test]
    fn persister_drains_on_stop_leaving_frontier_caught_up() {
        let es = system(EpochConfig::manual());
        let persister = Persister::spawn(Arc::clone(&es));
        // A few operations interleaved with advances: every batch goes
        // through the background workers.
        for _ in 0..6 {
            publish(&es);
            es.advance();
        }
        // Two more advances seal the last op's epoch and its successor.
        es.advance();
        es.advance();
        persister.stop(); // joins after draining the queue
        assert_eq!(
            es.persisted_frontier(),
            es.current_epoch() - 2,
            "clean shutdown leaves no sealed batch behind"
        );
        assert_eq!(es.buffered_words(), 0);
        assert!(es.stats().snapshot().blocks_persisted >= 6);
    }

    #[test]
    fn ticker_and_persister_together_keep_frontier_moving() {
        let es = system(EpochConfig::manual().with_epoch_len(Duration::from_millis(2)));
        let persister = Persister::spawn(Arc::clone(&es));
        let ticker = EpochTicker::spawn(Arc::clone(&es));
        let f0 = es.persisted_frontier();
        std::thread::sleep(Duration::from_millis(80));
        ticker.stop();
        persister.stop();
        assert!(
            es.persisted_frontier() >= f0 + 5,
            "background pipeline must move the durable frontier"
        );
        assert_eq!(es.persisted_frontier(), es.current_epoch() - 2);
    }

    /// Tick and watch steps act only when due; the tick's next due time
    /// counts from the end of its advance.
    #[test]
    fn timed_roles_act_only_when_due() {
        let es = system(EpochConfig::manual().with_epoch_len(Duration::from_millis(50)));
        let rt = Runtime::manual(Arc::clone(&es));
        let e0 = es.current_epoch();
        let t0 = Instant::now();
        let due = rt.step(Role::Tick, t0);
        assert_eq!(es.current_epoch(), e0, "not due yet");
        let next = rt.step(Role::Tick, due);
        assert_eq!(es.current_epoch(), e0 + 1);
        // Due again one epoch after the advance really ended.
        assert!(next >= t0 + Duration::from_millis(50));
        assert_eq!(rt.step(Role::Tick, t0), next);
        let watch_due = rt.step(Role::Watch, t0);
        assert_eq!(rt.step(Role::Watch, t0), watch_due);
    }

    /// The watch role stepped by hand on synthetic time: no sleeping,
    /// and the escalation ladder is a pure function of the samples.
    #[test]
    fn hand_stepped_watch_escalates_a_wedged_persister() {
        let period = Duration::from_millis(100);
        let es = system(
            EpochConfig::manual()
                .with_watchdog_period(period)
                .with_watchdog_policy(WatchdogPolicy::Degrade),
        );
        let rt = Runtime::manual(Arc::clone(&es));
        es.advance();
        es.advance(); // sealed batches that nobody persists

        // Not due yet: the step only reports the first due time.
        let mut now = rt.step(Role::Watch, Instant::now());
        // The first due sample sees the batches arrive (progress); the
        // next two see them stuck and fire, and the second firing
        // degrades.
        for _ in 0..3 {
            now = rt.step(Role::Watch, now);
        }
        assert_eq!(es.stats().snapshot().watchdog_fires, 2);
        assert_eq!(es.health(), HealthState::Degraded);
    }

    /// `flush_all` returns on a hand-stepped system: with the pipeline
    /// full (the default depth), an advance would stall on a persist
    /// worker that only moves when stepped, so the flushing thread
    /// writes the sealed backlog back itself first.
    #[test]
    fn flush_all_returns_on_a_hand_stepped_system() {
        let es = system(EpochConfig::manual());
        let rt = Runtime::manual(Arc::clone(&es));
        let depth = es.config().pipeline_depth;
        for _ in 0..depth {
            publish(&es);
            es.advance();
        }
        assert_eq!(es.batches_in_flight(), depth, "a full pipeline");
        let (tx, rx) = std::sync::mpsc::channel();
        let es2 = Arc::clone(&es);
        std::thread::spawn(move || {
            es2.flush_all();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(20))
            .expect("flush_all wedged on a hand-stepped system");
        assert_eq!(es.persisted_frontier(), es.current_epoch() - 2);
        assert_eq!(es.batches_in_flight(), 0);
        drop(rt);
    }

    /// `advance_until` stops helping once its epoch is durable; later
    /// sealed batches stay queued for the persist workers.
    #[test]
    fn advance_until_stops_at_its_epoch() {
        let es = system(EpochConfig::manual().with_pipeline_depth(16));
        let _rt = Runtime::manual(Arc::clone(&es));
        for _ in 0..6 {
            publish(&es);
            es.advance();
        }
        let target = es.current_epoch() - 5;
        es.advance_until(target);
        assert_eq!(es.persisted_frontier(), target);
        assert_eq!(es.batches_in_flight(), 3, "later batches left queued");
    }

    #[test]
    fn sampler_emits_deltas_and_flushes_on_stop() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(4 << 20)));
        let es = EpochSys::format(heap, EpochConfig::manual());
        let mut reg = MetricsRegistry::new();
        reg.attach_esys(Arc::clone(&es));

        let lines: Arc<Mutex<Vec<(u64, u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let lines2 = Arc::clone(&lines);
        let sampler = Sampler::spawn(reg, Duration::from_millis(10), move |t_ns, seq, delta| {
            let advances = delta.epoch.map(|e| e.advances).unwrap_or(0);
            lines2.lock().unwrap().push((t_ns, seq, advances));
        });

        es.advance();
        es.advance();
        std::thread::sleep(Duration::from_millis(35));
        es.advance();
        sampler.stop();

        let lines = lines.lock().unwrap();
        assert!(!lines.is_empty(), "stop must flush at least one sample");
        // Sequence numbers are dense and timestamps monotone.
        for (i, &(_, seq, _)) in lines.iter().enumerate() {
            assert_eq!(seq, i as u64);
        }
        assert!(lines.windows(2).all(|w| w[0].0 <= w[1].0));
        // Deltas, not totals: advances across all samples sum to the
        // true count instead of each sample repeating it.
        let total: u64 = lines.iter().map(|&(_, _, a)| a).sum();
        assert_eq!(total, es.stats().snapshot().advances);
    }

    #[test]
    fn short_run_still_produces_a_sample() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(2 << 20)));
        let es = EpochSys::format(heap, EpochConfig::manual());
        let mut reg = MetricsRegistry::new();
        reg.attach_esys(Arc::clone(&es));
        let n = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let sampler = Sampler::spawn(reg, Duration::from_secs(3600), move |_, _, _| {
            n2.fetch_add(1, Ordering::Relaxed);
        });
        sampler.stop(); // stop long before the interval elapses
        assert_eq!(n.load(Ordering::Relaxed), 1);
    }
}
