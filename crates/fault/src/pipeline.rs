//! Crash coverage for the persist pipeline: the seal → persist →
//! frontier-publish window.
//!
//! The synchronous sweep in [`mod@crate::sweep`] crosses every persist
//! boundary *inside* `advance` — but with a persister attached, those
//! boundaries move off the advancing thread, the clock runs ahead of
//! the durable frontier, and a crash can land while sealed batches are
//! still in flight. This module sweeps exactly that regime, and keeps
//! the replay deterministic by standing in for the persister worker:
//! the driver enters pipelined mode with a [`Runtime::manual`], so
//! `advance` only seals and enqueues, and writes batches back by hand
//! with [`Role::Persist`] steps on a seeded cadence that lets
//! batches linger in flight across operations. Every crash point — in
//! the workload's evictions, in a batch's write-backs, in the frontier
//! publish itself — fires on the driving thread, so the count→replay
//! protocol carries over unchanged.
//!
//! The oracle also carries over: the recovered state must equal the
//! fold of the mutation log up to the *recovered frontier* `R`. That
//! the clock may have been arbitrarily far past `R` at the crash is
//! precisely what's under test — recovery keys off the frontier, never
//! off `clock − 2`.

use crate::sweep::{
    check_recovered, recover, silence_crash_panics, Mutation, ReplayVerdict, SweepConfig,
    SweepReport, SweepTarget,
};
use bdhtm_core::{EpochConfig, EpochSys, Role, Runtime};
use hashtable::BdSpash;
use htm_sim::{Htm, SplitMix64};
use nvm_sim::{CrashTriggered, FaultPlan, NvmConfig, NvmHeap};
use skiplist::BdlSkiplist;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use veb::PhtmVeb;

/// Pipeline depth used by the deterministic driver. The drain cadence
/// below keeps at most three batches in flight, so the depth is never
/// hit and `advance` never waits on a persister that doesn't exist.
const DRIVER_DEPTH: usize = 4;

fn setup_pipelined<T: SweepTarget>(cfg: &SweepConfig) -> (Arc<NvmHeap>, Runtime, T) {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(cfg.heap_bytes)));
    let esys = EpochSys::format(
        Arc::clone(&heap),
        EpochConfig::manual().with_pipeline_depth(DRIVER_DEPTH),
    );
    let rt = Runtime::manual(Arc::clone(&esys));
    let t = T::new(esys, Arc::new(Htm::new(cfg.htm.clone())));
    (heap, rt, t)
}

/// The sweep workload, pipelined: same seeded operation mix as the
/// synchronous sweep, but epoch advances only seal batches, and a
/// seeded drain cadence persists them later — sometimes one period
/// later, so the crash schedule includes instants with several epochs
/// of sealed-but-unpersisted state.
fn run_workload_pipelined<T: SweepTarget>(
    t: &T,
    rt: &Runtime,
    cfg: &SweepConfig,
    log: &mut Vec<(u64, Mutation)>,
) {
    let esys = rt.epoch_sys();
    let mut rng = SplitMix64::new(cfg.seed);
    let mut drain_rng = SplitMix64::new(cfg.seed ^ 0xD7_A14B_A7C4_5EED);
    let mut deferred = false;
    for i in 0..cfg.ops {
        if cfg.evict_every != 0 && i % cfg.evict_every == cfg.evict_every - 1 {
            esys.heap()
                .evict_random_lines(cfg.evict_lines, rng.next_u64());
        }
        let key = 1 + rng.next_below(cfg.keys);
        let value = rng.next_u64() | 1;
        match rng.next_below(8) {
            0..=3 => {
                log.push((esys.current_epoch(), Mutation::Insert(key, value)));
                t.insert(key, value);
            }
            4..=5 => {
                log.push((esys.current_epoch(), Mutation::Remove(key)));
                t.remove(key);
            }
            _ => {
                t.get(key);
            }
        }
        if i % cfg.advance_every == cfg.advance_every - 1 {
            esys.advance();
        }
        // Drain half a period after each seal (the manual runtime is the
        // only persist worker, so one step writes one whole batch).
        // Occasionally defer a batch for a whole period (bounded at one
        // deferral, so in-flight stays below DRIVER_DEPTH): the next
        // drain then writes back two batches in a row, and crash points
        // fall both while the frontier trails by one epoch and while it
        // trails by several.
        if i % cfg.advance_every == cfg.advance_every / 2 {
            if !deferred && drain_rng.next_below(2) == 0 {
                deferred = true;
            } else {
                rt.step(Role::Persist, Instant::now());
                if deferred {
                    rt.step(Role::Persist, Instant::now());
                    deferred = false;
                }
            }
        }
    }
    // End of run: seal the tail epochs and drain everything, as a clean
    // shutdown (Persister::stop) would.
    esys.advance();
    rt.drain();
}

/// Counts the pipelined workload's crash points without crashing.
pub fn enumerate_points_pipelined<T: SweepTarget>(cfg: &SweepConfig) -> u64 {
    let (heap, rt, t) = setup_pipelined::<T>(cfg);
    let plan = Arc::new(FaultPlan::count());
    heap.arm_fault_plan(Arc::clone(&plan));
    let mut log = Vec::new();
    run_workload_pipelined(&t, &rt, cfg, &mut log);
    heap.disarm_fault_plan();
    plan.points()
}

/// One pipelined replay: crash at `point` (possibly mid-batch, with the
/// clock several epochs past the frontier), recover, and check the
/// frontier-prefix property plus structural invariants.
pub fn replay_pipelined<T: SweepTarget>(
    cfg: &SweepConfig,
    point: u64,
) -> Result<ReplayVerdict, String> {
    silence_crash_panics();
    let (heap, rt, t) = setup_pipelined::<T>(cfg);
    let mut plan = FaultPlan::crash_at(point);
    if cfg.torn {
        plan = plan.with_torn_writes(cfg.seed ^ point.rotate_left(23));
    }
    let plan = Arc::new(plan);
    heap.arm_fault_plan(Arc::clone(&plan));
    let mut log = Vec::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_workload_pipelined(&t, &rt, cfg, &mut log);
    }));
    heap.disarm_fault_plan();
    let (img, fired) = match outcome {
        Ok(()) => (heap.crash(), false),
        Err(payload) => {
            assert!(
                payload.downcast_ref::<CrashTriggered>().is_some(),
                "pipelined workload panicked with something other than an injected crash"
            );
            (
                plan.take_image().expect("fired plan must capture an image"),
                true,
            )
        }
    };
    let ctx = format!(
        "{} pipelined point {point}{}",
        T::NAME,
        if cfg.torn { " (torn)" } else { "" },
    );
    let (_esys2, t2, frontier) = recover::<T>(img);
    check_recovered(&t2, &log, frontier, cfg, &ctx)?;
    Ok(ReplayVerdict {
        fired,
        double_crashed: false,
    })
}

/// Count→replay over the pipelined workload for one structure family.
pub fn sweep_pipelined<T: SweepTarget>(cfg: &SweepConfig) -> SweepReport {
    silence_crash_panics();
    let points = enumerate_points_pipelined::<T>(cfg);
    let mut report = SweepReport {
        structure: T::NAME,
        points,
        replays: 0,
        fired: 0,
        double_crashes: 0,
        failures: Vec::new(),
        flight_dump: Vec::new(),
        flight_events: Vec::new(),
    };
    let chosen: Vec<u64> = if cfg.max_replays == 0 || points <= cfg.max_replays {
        (0..points).collect()
    } else {
        (0..cfg.max_replays)
            .map(|i| i * points / cfg.max_replays)
            .collect()
    };
    for point in chosen {
        report.replays += 1;
        match replay_pipelined::<T>(cfg, point) {
            Ok(v) => report.fired += v.fired as u64,
            Err(e) => report.failures.push(e),
        }
    }
    report
}

/// Pipelined sweep of all three BDL structure families.
pub fn sweep_all_pipelined(cfg: &SweepConfig) -> Vec<SweepReport> {
    vec![
        sweep_pipelined::<PhtmVeb>(cfg),
        sweep_pipelined::<BdlSkiplist>(cfg),
        sweep_pipelined::<BdSpash>(cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_schedule_is_deterministic() {
        let cfg = SweepConfig::quick(0xBA7C4);
        let a = enumerate_points_pipelined::<PhtmVeb>(&cfg);
        let b = enumerate_points_pipelined::<PhtmVeb>(&cfg);
        assert_eq!(a, b, "same seed, same pipelined schedule");
        assert!(a >= 50, "the drains must cross many persist boundaries");
    }

    #[test]
    fn pipelined_run_develops_frontier_lag() {
        // The count pass is also a convenient place to assert the
        // driver actually exercises the regime under test: at some
        // instant the clock must be more than 2 epochs past the
        // frontier (sealed batches in flight).
        let cfg = SweepConfig::quick(0xBA7C5);
        let (_heap, rt, t) = setup_pipelined::<BdSpash>(&cfg);
        let esys = rt.epoch_sys();
        let mut rng = SplitMix64::new(cfg.seed);
        let mut max_lag = 0;
        for i in 0..cfg.ops {
            let key = 1 + rng.next_below(cfg.keys);
            t.insert(key, rng.next_u64() | 1);
            if i % cfg.advance_every == cfg.advance_every - 1 {
                esys.advance();
            }
            // Drain *two* batches every other period: seals outpace
            // drains for a whole period (lag grows past 2), then the
            // double drain restores balance without ever filling the
            // depth-4 pipeline.
            if i % (2 * cfg.advance_every) == cfg.advance_every / 2 {
                rt.step(Role::Persist, Instant::now());
                rt.step(Role::Persist, Instant::now());
            }
            max_lag = max_lag.max(esys.current_epoch() - esys.persisted_frontier());
        }
        rt.drain();
        assert!(
            max_lag > 2,
            "driver must let the clock outrun the frontier, max lag {max_lag}"
        );
    }

    #[test]
    fn single_pipelined_replay_round_trips() {
        let cfg = SweepConfig::quick(33);
        let v = replay_pipelined::<BdSpash>(&cfg, 3).expect("replay at point 3");
        assert!(v.fired, "an early point must fire");
    }

    #[test]
    fn mid_batch_crash_recovers_to_old_frontier() {
        // Crash points are dominated by the drains' clwb/fence traffic,
        // so a torn mid-schedule point lands inside a batch write-back
        // with near-certainty; sweep a stride of them.
        let cfg = SweepConfig::quick(0x5EA1).with_torn_writes();
        let points = enumerate_points_pipelined::<PhtmVeb>(&cfg);
        for point in (0..points).step_by((points as usize / 12).max(1)) {
            replay_pipelined::<PhtmVeb>(&cfg, point)
                .unwrap_or_else(|e| panic!("pipelined torn replay failed: {e}"));
        }
    }
}
