//! Deadline watchdog: the watch role of the [`Runtime`](crate::Runtime)
//! (a [`Watchdog`](crate::Watchdog) thread, or hand-driven steps)
//! samples epoch-system progress every
//! [`EpochConfig::watchdog_period`](crate::EpochConfig) and fires when two
//! consecutive samples show none.
//!
//! Three stall shapes are detected, each mapping to a liveness hazard of
//! the buffered-durability runtime:
//!
//! * **Stalled advance** ([`STALL_ADVANCE`]) — the clock did not move
//!   while the buffered set sits above its backpressure bound: the
//!   ticker died or advances keep failing, and dirty state is piling up.
//! * **Hung straggler** ([`STALL_STRAGGLER`]) — a thread has been
//!   announced in an epoch behind the clock for a whole period:
//!   [`EpochSys::advance`](crate::EpochSys::advance) is (or will be)
//!   spinning in its quiesce loop on an operation that never ends.
//! * **Wedged persister** ([`STALL_PERSISTER`]) — sealed batches stayed
//!   in flight while the durable frontier did not move: the write-back
//!   worker is stuck and durability is no longer advancing.
//!
//! Each firing dumps the flight recorder to stderr, bumps the
//! `watchdog_fires` counter and emits a
//! [`WatchdogFired`](crate::obs::EventKind::WatchdogFired) event;
//! *consecutive* firings escalate along the configured
//! [`WatchdogPolicy`] ceiling: log only, then degrade to synchronous
//! persistence, then fail-stop.

use crate::error::HealthState;
use crate::esys::{EpochSys, EMPTY_EPOCH};
use crate::obs::EventKind;
use std::sync::atomic::Ordering;

/// Stall reason code carried in a `WatchdogFired` event's `a` field.
pub const STALL_ADVANCE: u64 = 0;
/// See [`STALL_ADVANCE`].
pub const STALL_STRAGGLER: u64 = 1;
/// See [`STALL_ADVANCE`].
pub const STALL_PERSISTER: u64 = 2;

/// How far an attached [`Watchdog`](crate::Watchdog) may escalate on
/// consecutive firings. The ladder below the ceiling always runs: a
/// `FailStop` watchdog still logs on the first firing and degrades on
/// the second.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum WatchdogPolicy {
    /// Only log (and count) firings; never touch the health ladder.
    Log,
    /// After two consecutive firings, ratchet health to
    /// [`HealthState::Degraded`] (synchronous inline persistence).
    Degrade,
    /// After three consecutive firings, ratchet health to
    /// [`HealthState::Failed`] (reject new operations) — for
    /// deployments that prefer fail-stop over silent stall.
    FailStop,
}

/// One progress sample; stalls are judged by comparing two of them.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Sample {
    clock: u64,
    frontier: u64,
    in_flight: usize,
    buffered: u64,
    announce: Vec<u64>,
}

impl Sample {
    fn take(esys: &EpochSys) -> Sample {
        Sample {
            clock: esys.current_epoch(),
            frontier: esys.persisted_frontier(),
            in_flight: esys.batches_in_flight(),
            buffered: esys.buffered_words(),
            announce: esys.announced_epochs(),
        }
    }
}

/// Compares two consecutive samples; `Some(reason)` when no progress
/// shape explains the standstill.
fn detect_stall(prev: &Sample, cur: &Sample, backpressure_bound: u64) -> Option<u64> {
    // Wedged persister: batches stayed in flight across the whole
    // period and durability did not advance.
    if prev.in_flight > 0 && cur.in_flight > 0 && cur.frontier == prev.frontier {
        return Some(STALL_PERSISTER);
    }
    // Hung straggler: same thread announced in the same behind-the-clock
    // epoch at both samples. (A thread re-announcing the same epoch for
    // back-to-back short ops is indistinguishable — acceptable: the
    // first escalation step is a log line, not a downgrade.)
    for (p, c) in prev.announce.iter().zip(cur.announce.iter()) {
        if *c != EMPTY_EPOCH && *c == *p && *c < cur.clock {
            return Some(STALL_STRAGGLER);
        }
    }
    // Stalled advance: neither clock nor frontier moved while the
    // buffered set is past the bound that should have forced an
    // advance. (Frontier progress means a batch just completed, which
    // will shrink the buffered set — give it the next period.)
    if backpressure_bound != 0
        && cur.clock == prev.clock
        && cur.frontier == prev.frontier
        && cur.buffered > backpressure_bound
    {
        return Some(STALL_ADVANCE);
    }
    None
}

/// Log text of each stall reason, indexed by its `STALL_*` code.
const REASONS: [&str; 3] = [
    "stalled epoch advance",
    "hung straggler quiesce",
    "wedged persister",
];

/// The log text of a `STALL_*` reason code (`"?"` for an unknown one).
pub(crate) fn reason_text(code: u64) -> &'static str {
    REASONS.get(code as usize).copied().unwrap_or("?")
}

/// The watch role's state: the previous progress sample and the run of
/// consecutive firings.
pub(crate) struct WatchState {
    prev: Sample,
    consecutive: u64,
}

impl WatchState {
    pub(crate) fn new(esys: &EpochSys) -> WatchState {
        WatchState {
            prev: Sample::take(esys),
            consecutive: 0,
        }
    }

    /// Takes one sample and judges it against the previous one: a
    /// stall fires (log, count, flight-recorder dump) and consecutive
    /// firings escalate up to the configured [`WatchdogPolicy`].
    pub(crate) fn sample(&mut self, esys: &EpochSys) {
        if esys.is_disabled() {
            return; // eADR: no epochs, nothing to watch
        }
        let cur = Sample::take(esys);
        let prev = std::mem::replace(&mut self.prev, cur);
        let cur = &self.prev;
        // A fail-stopped system is *intentionally* still — nothing to
        // detect, and escalating further is meaningless.
        if esys.health() == HealthState::Failed {
            self.consecutive = 0;
            return;
        }
        let Some(reason) = detect_stall(&prev, cur, esys.config().max_buffered_words) else {
            self.consecutive = 0;
            return;
        };
        self.consecutive += 1;
        let consecutive = self.consecutive;
        esys.stats().watchdog_fires.fetch_add(1, Ordering::Relaxed);
        esys.obs()
            .event(EventKind::WatchdogFired, reason, consecutive);
        eprintln!(
            "bdhtm watchdog: {} (firing #{consecutive}; clock={} frontier={} \
             in_flight={} buffered={})",
            reason_text(reason),
            cur.clock,
            cur.frontier,
            cur.in_flight,
            cur.buffered
        );
        for ev in esys.obs().dump(32) {
            eprintln!("bdhtm watchdog:   {}", ev.render());
        }
        let policy = esys.config().watchdog_policy;
        if consecutive >= 3 && policy >= WatchdogPolicy::FailStop {
            esys.escalate_health(HealthState::Failed, None);
        } else if consecutive >= 2 && policy >= WatchdogPolicy::Degrade {
            esys.escalate_health(HealthState::Degraded, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(clock: u64, frontier: u64, in_flight: usize, buffered: u64) -> Sample {
        Sample {
            clock,
            frontier,
            in_flight,
            buffered,
            announce: vec![EMPTY_EPOCH; 4],
        }
    }

    #[test]
    fn progress_in_any_dimension_is_not_a_stall() {
        let a = sample(10, 8, 1, 500);
        let mut b = sample(10, 9, 1, 500); // frontier moved
        assert_eq!(detect_stall(&a, &b, 100), None);
        b = sample(11, 8, 0, 500); // clock moved, pipeline drained
        assert_eq!(detect_stall(&a, &b, 100), None);
    }

    #[test]
    fn wedged_persister_detected() {
        let a = sample(10, 8, 2, 0);
        let b = sample(11, 8, 1, 0); // clock moves but durability does not
        assert_eq!(detect_stall(&a, &b, 0), Some(STALL_PERSISTER));
    }

    #[test]
    fn hung_straggler_detected() {
        let mut a = sample(10, 8, 0, 0);
        let mut b = sample(11, 9, 0, 0);
        a.announce[2] = 9;
        b.announce[2] = 9; // same old epoch a full period later
        assert_eq!(detect_stall(&a, &b, 0), Some(STALL_STRAGGLER));
        // A *current*-epoch announcement is a live op, not a straggler.
        a.announce[2] = 11;
        b.announce[2] = 11;
        assert_eq!(detect_stall(&a, &b, 0), None);
    }

    #[test]
    fn watchdog_escalates_a_wedged_persister_to_fail_stop() {
        use crate::{EpochConfig, Runtime, Watchdog};
        use nvm_sim::{NvmConfig, NvmHeap};
        use std::sync::Arc;
        use std::time::{Duration, Instant};

        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(2 << 20)));
        let es = EpochSys::format(
            heap,
            EpochConfig::manual()
                .with_watchdog_period(Duration::from_millis(5))
                .with_watchdog_policy(WatchdogPolicy::FailStop),
        );
        // Attached but never stepped: the exact wedged-persister shape.
        let rt = Runtime::manual(Arc::clone(&es));
        es.advance();
        es.advance();
        assert!(es.batches_in_flight() > 0);
        let wd = Watchdog::spawn(Arc::clone(&es));
        let t = Instant::now();
        while es.health() != HealthState::Failed && t.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(5));
        }
        wd.stop();
        assert_eq!(
            es.health(),
            HealthState::Failed,
            "log → degrade → fail-stop must run the whole ladder"
        );
        assert!(es.stats().snapshot().watchdog_fires >= 3);
        assert!(es.stats().snapshot().degradations >= 2);
        drop(rt);
    }

    #[test]
    fn stalled_advance_needs_a_backpressure_bound() {
        let a = sample(10, 8, 0, 5_000);
        let b = sample(10, 8, 0, 6_000);
        assert_eq!(detect_stall(&a, &b, 1_000), Some(STALL_ADVANCE));
        assert_eq!(detect_stall(&a, &b, 0), None, "bound 0 disables the check");
    }
}
