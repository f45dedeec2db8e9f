//! Ablation: where does PHTM-vEB's overhead relative to HTM-vEB come
//! from? (The DESIGN.md design-choice question behind Fig. 1; the paper
//! attributes most of it to NVM memory management for KV pairs.)
//!
//! Four configurations, single workload (uniform write-heavy):
//!   1. HTM-vEB — transient baseline.
//!   2. PHTM-vEB, free NVM — epoch system + allocator on a zero-latency
//!      heap: isolates the *mechanism* cost (allocation, tracking,
//!      out-of-place updates).
//!   3. PHTM-vEB, Optane model — adds the device cost model: isolates
//!      the *latency* contribution.
//!   4. PHTM-vEB, 1 µs epochs — pathologically short epochs: isolates
//!      epoch-churn cost (OldSeeNew restarts, constant flushing).
//!
//! ```sh
//! cargo run --release -p bench --bin ablation_bdl
//! ```

use bdhtm_core::{EpochConfig, EpochSys, EpochTicker};
use bench::*;
use htm_sim::{Htm, HtmConfig};
use nvm_sim::{NvmConfig, NvmHeap};
use std::sync::Arc;
use std::time::Duration;
use veb::{HtmVeb, PhtmVeb};
use ycsb_gen::{Mix, WorkloadSpec};

fn main() {
    let ubits = 26 - scale_down_bits();
    let threads = thread_counts();
    let w = WorkloadSpec::uniform(1 << ubits, Mix::write_heavy()).build();
    // --metrics-json captures the last configuration run (1 µs epochs,
    // final thread count) — the epoch-churn extreme.
    let mut sink = MetricsSink::from_args();
    println!("# Ablation: PHTM-vEB overhead decomposition, universe 2^{ubits} (Mops/s)");
    header("configuration", &threads);

    // 1. Transient.
    let mut vals = Vec::new();
    for &t in &threads {
        let tree = Arc::new(HtmVeb::new(ubits, Arc::new(Htm::new(HtmConfig::default()))));
        let b = Arc::new(HtmVebBackend(tree));
        prefill(b.as_ref(), &w);
        vals.push(throughput(b, &w, t));
    }
    row("HTM-vEB (transient)", &vals);

    // 2–4. PHTM-vEB variants.
    for (label, cfg, epoch) in [
        (
            "PHTM-vEB, free NVM",
            NvmConfig::for_tests(512 << 20),
            Duration::from_millis(50),
        ),
        (
            "PHTM-vEB, Optane model",
            NvmConfig::optane(512 << 20),
            Duration::from_millis(50),
        ),
        (
            "PHTM-vEB, 1us epochs",
            NvmConfig::optane(512 << 20),
            Duration::from_micros(1),
        ),
    ] {
        let mut vals = Vec::new();
        for &t in &threads {
            let heap = Arc::new(NvmHeap::new(cfg.clone()));
            let esys = EpochSys::format(
                heap,
                sink.epoch_config(EpochConfig::default().with_epoch_len(epoch)),
            );
            let htm = Arc::new(Htm::new(HtmConfig::default()));
            sink.attach_htm(&htm);
            sink.attach_esys(&esys);
            let tree = Arc::new(PhtmVeb::new(ubits, Arc::clone(&esys), htm));
            let b: Arc<dyn KvBackend> = tree;
            prefill(b.as_ref(), &w);
            let ticker = EpochTicker::spawn(esys);
            vals.push(throughput(b, &w, t));
            ticker.stop();
        }
        row(label, &vals);
    }
    sink.write();
}
