//! Per-layer metrics, measured from outside: diffs of every layer's
//! public stats over the measured window, unit costs timed against the
//! same device configuration, and the outside-in ledger that multiplies
//! the two.

use crate::run::{Metric, Report};
use crate::spans::SpanLog;
use crate::stats::{hist_quantile, ratio};
use bdhtm_core::{EpochConfig, EpochStatsSnapshot, EpochSys};
use htm_sim::{AbortCause, FallbackLock, HistSnapshot, Htm, HtmConfig, StatsSnapshot};
use nvm_sim::{NvmConfig, NvmHeap, NvmStatsSnapshot};
use persist_alloc::Header;
use std::hint::black_box;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

/// The public stats of every layer at one instant.
pub struct Snap {
    pub at: Instant,
    pub htm: StatsSnapshot,
    pub backoff: HistSnapshot,
    pub nvm: NvmStatsSnapshot,
    pub epoch: EpochStatsSnapshot,
    pub advance_ns: HistSnapshot,
    pub batch_persist_ns: HistSnapshot,
    pub persist_chunks: HistSnapshot,
    pub op_restarts: HistSnapshot,
}

impl Snap {
    pub fn take(esys: &EpochSys, htm: &Htm) -> Snap {
        let obs = esys.obs();
        Snap {
            at: Instant::now(),
            htm: htm.stats().snapshot(),
            backoff: htm.backoff_hist().snapshot(),
            nvm: esys.heap().stats().snapshot(),
            epoch: esys.stats().snapshot(),
            advance_ns: obs.advance_ns().snapshot(),
            batch_persist_ns: obs.batch_persist_ns().snapshot(),
            persist_chunks: obs.persist_chunks().snapshot(),
            op_restarts: obs.op_restarts().snapshot(),
        }
    }

    /// `self − earlier`, field by field (`at` stays `self.at`).
    pub fn since(&self, earlier: &Snap) -> Snap {
        Snap {
            at: self.at,
            htm: self.htm.since(&earlier.htm),
            backoff: self.backoff.since(&earlier.backoff),
            nvm: self.nvm.since(&earlier.nvm),
            epoch: self.epoch.since(&earlier.epoch),
            advance_ns: self.advance_ns.since(&earlier.advance_ns),
            batch_persist_ns: self.batch_persist_ns.since(&earlier.batch_persist_ns),
            persist_chunks: self.persist_chunks.since(&earlier.persist_chunks),
            op_restarts: self.op_restarts.since(&earlier.op_restarts),
        }
    }
}

/// What the traced run measured, besides the stats deltas.
pub struct Window<'a> {
    pub delta: &'a Snap,
    pub wall_s: f64,
    pub ops: u64,
    pub inserts: u64,
    pub removes: u64,
    pub live_keys: u64,
    pub nvm_in_use: f64,
    pub live_blocks: i64,
    pub scan_s: f64,
    pub rebuild_s: f64,
    pub recovered_live: u64,
    pub traced_ops: u64,
    pub traced_mean_ns: f64,
    pub crossings: u64,
    pub ops_per_s: f64,
    pub traced_ops_per_s: f64,
}

/// Unit costs, ns per call, each the median of several timed batches.
pub struct Probes {
    pub htm_empty_txn: f64,
    pub htm_8r8w_txn: f64,
    pub epoch_begin_end: f64,
    pub epoch_publish_cycle: f64,
    pub nvm_read: f64,
    pub nvm_clwb_fence: f64,
}

/// Median over `batches` of the mean ns per call of `iters` calls.
fn time_ns(batches: usize, iters: u64, mut f: impl FnMut(), mut between: impl FnMut()) -> f64 {
    let mut per = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        per.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        between();
    }
    crate::stats::median(&per)
}

/// Times the unit costs on a small heap with the run's device latencies.
pub fn probe(nvm: &NvmConfig) -> Probes {
    let cfg = NvmConfig {
        capacity_bytes: 16 << 20,
        ..nvm.clone()
    };
    let htm = Htm::new(HtmConfig::default());
    let lock = FallbackLock::new();
    let cells: Vec<AtomicU64> = (0..128).map(|_| AtomicU64::new(0)).collect();
    let htm_empty_txn = time_ns(15, 4096, || htm.attempt(|_| Ok(())).unwrap_or(()), || {});
    // Reads and writes on distinct lines, as a structure's node visits are.
    let htm_8r8w_txn = time_ns(
        15,
        2048,
        || {
            let _ = htm.run(&lock, |m| {
                for i in 0..8 {
                    let v = m.load(&cells[i * 8])?;
                    m.store(&cells[64 + i * 8], v + 1)?;
                }
                Ok(())
            });
        },
        || {},
    );

    let heap = Arc::new(NvmHeap::new(cfg));
    let esys = EpochSys::format(Arc::clone(&heap), EpochConfig::default());
    let epoch_begin_end = time_ns(
        15,
        4096,
        || {
            esys.begin_op();
            esys.end_op();
        },
        || {},
    );
    // The Listing-1 shell of a write: begin, preallocate, tag, track,
    // retire the previous block, end. Advances (which persist inline
    // here) run between the timed batches.
    let mut prev = None;
    let epoch_publish_cycle = time_ns(
        15,
        1024,
        || {
            let e = esys.begin_op();
            let blk = esys.p_new(2);
            Header::set_epoch(esys.heap(), blk, e);
            esys.p_track(blk);
            if let Some(p) = prev.replace(blk) {
                esys.p_retire(p);
            }
            esys.end_op();
        },
        || esys.advance(),
    );
    let a = heap.base();
    let nvm_read = time_ns(
        15,
        1024,
        || {
            black_box(heap.read(a));
        },
        || {},
    );
    let nvm_clwb_fence = time_ns(
        15,
        512,
        || {
            heap.write(a, black_box(7));
            heap.clwb(a);
            heap.fence();
        },
        || {},
    );
    Probes {
        htm_empty_txn,
        htm_8r8w_txn,
        epoch_begin_end,
        epoch_publish_cycle,
        nvm_read,
        nvm_clwb_fence,
    }
}

/// Pushes every per-layer metric of a traced run onto `report`.
pub fn per_layer(w: &Window, p: &Probes, spans: &[SpanLog], report: &mut Report) {
    let d = w.delta;
    let ops = w.ops as f64;
    let writes = (w.inserts + w.removes) as f64;
    let batches = d.batch_persist_ns.count as f64;
    let mut m = |name: &str, value: f64, unit: &'static str| {
        report.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };

    // htm-sim.
    let attempts = d.htm.attempts() as f64;
    m("htm.attempts_per_op", ratio(attempts, ops), "1/op");
    m("htm.commit_ratio", d.htm.commit_ratio(), "ratio");
    let per_op = |c: AbortCause| ratio(d.htm.aborts_of(c) as f64, ops);
    m(
        "htm.abort_conflict_per_op",
        per_op(AbortCause::Conflict),
        "1/op",
    );
    m(
        "htm.abort_explicit_per_op",
        per_op(AbortCause::Explicit(0)),
        "1/op",
    );
    m(
        "htm.abort_lock_per_op",
        per_op(AbortCause::FallbackLocked),
        "1/op",
    );
    m(
        "htm.fallback_per_op",
        ratio(d.htm.fallbacks as f64, ops),
        "1/op",
    );
    m(
        "htm.backoff_spins_per_op",
        ratio(d.backoff.sum as f64, ops),
        "spins/op",
    );

    // nvm-sim.
    let media_reads = ratio(d.nvm.reads as f64, ops);
    m("nvm.media_reads_per_op", media_reads, "1/op");
    m(
        "nvm.lines_written_back_per_write",
        ratio(d.nvm.lines_written_back as f64, writes),
        "1/write",
    );
    m(
        "nvm.xplines_per_write",
        ratio(d.nvm.xplines_touched as f64, writes),
        "1/write",
    );
    // All fences: the persister's, and the allocator's metadata flushes
    // on both the client (insert) and persister (reclaim) paths.
    m(
        "nvm.fences_per_batch",
        ratio(d.nvm.fences as f64, batches),
        "1/batch",
    );

    // persist-alloc (after the clean shutdown).
    m(
        "alloc.bytes_per_live_key",
        ratio(w.nvm_in_use, w.live_keys as f64),
        "B/key",
    );
    m("alloc.live_blocks", w.live_blocks as f64, "count");

    // Epoch system.
    m(
        "epoch.advances_per_s",
        ratio(d.epoch.advances as f64, w.wall_s),
        "1/s",
    );
    m(
        "epoch.advance_p50_us",
        hist_quantile(&d.advance_ns, 0.50) / 1e3,
        "us",
    );
    m(
        "epoch.advance_p99_us",
        hist_quantile(&d.advance_ns, 0.99) / 1e3,
        "us",
    );
    m(
        "epoch.pipeline_stalls",
        d.epoch.pipeline_stalls as f64,
        "count",
    );
    m(
        "epoch.backpressure_advances",
        d.epoch.backpressure_advances as f64,
        "count",
    );
    m(
        "epoch.words_tracked_per_write",
        ratio(d.epoch.words_persisted as f64, writes),
        "1/write",
    );
    m(
        "epoch.reclaimed_per_remove",
        ratio(d.epoch.blocks_reclaimed as f64, w.removes as f64),
        "1/remove",
    );

    // Structure.
    let restarts = ratio(d.op_restarts.sum as f64, ops);
    m("kv.restarts_per_op", restarts, "1/op");

    // Persister pool.
    m(
        "persist.batch_p50_ms",
        hist_quantile(&d.batch_persist_ns, 0.50) / 1e6,
        "ms",
    );
    m(
        "persist.batch_p99_ms",
        hist_quantile(&d.batch_persist_ns, 0.99) / 1e6,
        "ms",
    );
    m(
        "persist.busy_frac",
        ratio(d.batch_persist_ns.sum as f64 / 1e9, w.wall_s),
        "ratio",
    );
    m(
        "persist.chunks_per_batch",
        d.persist_chunks.mean(),
        "1/batch",
    );
    m(
        "persist.coalesced_per_batch",
        ratio(d.epoch.coalesced_flushes as f64, batches),
        "1/batch",
    );
    m("persist.retries", d.epoch.persist_retries as f64, "count");

    // Recovery.
    m("recovery.scan_s", w.scan_s, "s");
    m("recovery.rebuild_s", w.rebuild_s, "s");
    m("recovery.live_blocks", w.recovered_live as f64, "count");

    // Unit costs.
    m("probe.htm_empty_txn_ns", p.htm_empty_txn, "ns");
    m("probe.htm_8r8w_txn_ns", p.htm_8r8w_txn, "ns");
    m("probe.epoch_begin_end_ns", p.epoch_begin_end, "ns");
    m("probe.epoch_publish_cycle_ns", p.epoch_publish_cycle, "ns");
    m("probe.nvm_read_ns", p.nvm_read, "ns");
    m("probe.nvm_clwb_fence_ns", p.nvm_clwb_fence, "ns");

    // Ledger: count per op × unit cost, and what is left of the
    // measured op time. Every insert runs the publish shell (its
    // allocation flushes and fences on the client's path); write-back
    // itself is off the client's path (persister).
    let ledger = [
        (
            "ledger.htm_ns_per_op",
            ratio(attempts, ops) * p.htm_empty_txn,
        ),
        ("ledger.nvm_read_ns_per_op", media_reads * p.nvm_read),
        (
            "ledger.epoch_ns_per_op",
            (1.0 + restarts) * p.epoch_begin_end,
        ),
        (
            "ledger.publish_ns_per_op",
            ratio(w.inserts as f64, ops) * (p.epoch_publish_cycle - p.epoch_begin_end).max(0.0),
        ),
    ];
    let accounted: f64 = ledger.iter().map(|&(_, v)| v).sum();
    for &(name, v) in &ledger {
        m(name, v, "ns");
    }
    m("ledger.op_ns", w.traced_mean_ns, "ns");
    let residual = w.traced_mean_ns - accounted;
    m("ledger.residual_ns_per_op", residual, "ns");

    // Tracing.
    m(
        "trace.overhead_frac",
        1.0 - ratio(w.traced_ops_per_s, w.ops_per_s),
        "ratio",
    );
    m(
        "trace.advance_crossing_frac",
        ratio(w.crossings as f64, w.traced_ops as f64),
        "ratio",
    );
    let slowest: Vec<_> = spans.iter().flat_map(|s| s.slowest()).collect();
    let crossed = slowest
        .iter()
        .filter(|s| s.epoch_end != s.epoch_begin)
        .count();
    m(
        "trace.tail_advance_crossing_frac",
        ratio(crossed as f64, slowest.len() as f64),
        "ratio",
    );

    let mut ranked: Vec<(&str, f64)> = ledger.to_vec();
    ranked.push(("ledger.residual_ns_per_op", residual));
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    report.notes.push(format!(
        "ledger ({:.0} ns/op measured), largest first: {}",
        w.traced_mean_ns,
        ranked
            .iter()
            .map(|(n, v)| format!("{n}={v:.0}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
}
