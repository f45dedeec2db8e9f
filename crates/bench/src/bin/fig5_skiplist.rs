//! Fig. 5: persistent lock-free skiplist variants, uniform keys,
//! read:write = 2:8, thread sweep. Expected ordering (paper):
//! T-Skiplist > BDL-Skiplist > P-Skiplist-HTM-MwCAS > P-Skiplist-no-flush
//! > DL-Skiplist, with BDL ~3x DL and T-Skiplist only ~20% above BDL.
//!
//! ```sh
//! cargo run --release -p bench --bin fig5_skiplist
//! ```

use bdhtm_core::{EpochConfig, EpochSys, EpochTicker};
use bench::*;
use htm_sim::{Htm, HtmConfig};
use nvm_sim::{NvmConfig, NvmHeap};
use skiplist::{BdlSkiplist, DlSkiplist, PersistMode};
use std::sync::Arc;
use std::time::Duration;
use ycsb_gen::{Mix, WorkloadSpec};

fn main() {
    let ubits = 20 - scale_down_bits() / 2;
    let universe = 1u64 << ubits;
    let threads = thread_counts();
    // --metrics-json captures the last BDL-Skiplist configuration run
    // (final thread count).
    let mut sink = MetricsSink::from_args();
    println!("# Fig 5: skiplists, uniform, R:W=2:8, universe 2^{ubits} (Mops/s)");
    header("variant", &threads);
    let w = WorkloadSpec::uniform(universe, Mix::fig5()).build();

    // Strict DL-Skiplist and its two transient ablations, all-NVM.
    for (name, mode) in [
        ("DL-Skiplist", PersistMode::Strict),
        ("P-Skiplist-no-flush", PersistMode::NoFlush),
        ("P-Skiplist-HTM-MwCAS", PersistMode::HtmMwcas),
    ] {
        let mut vals = Vec::new();
        for &t in &threads {
            let heap = Arc::new(NvmHeap::new(NvmConfig::optane(512 << 20)));
            let list = Arc::new(DlSkiplist::new(heap, mode));
            let backend = Arc::new(DlSkiplistBackend(list));
            prefill(backend.as_ref(), &w);
            vals.push(throughput(backend, &w, t));
        }
        row(name, &vals);
    }

    // BDL-Skiplist: towers in DRAM, KV in NVM, epoch system.
    {
        let mut vals = Vec::new();
        for &t in &threads {
            let heap = Arc::new(NvmHeap::new(NvmConfig::optane(512 << 20)));
            let esys = EpochSys::format(
                heap,
                sink.epoch_config(EpochConfig::default().with_epoch_len(Duration::from_millis(50))),
            );
            let htm = Arc::new(Htm::new(HtmConfig::default()));
            sink.attach_htm(&htm);
            sink.attach_esys(&esys);
            let list = Arc::new(BdlSkiplist::new(Arc::clone(&esys), htm));
            let backend: Arc<dyn KvBackend> = list;
            prefill(backend.as_ref(), &w);
            let ticker = EpochTicker::spawn(esys);
            vals.push(throughput(backend, &w, t));
            ticker.stop();
        }
        row("BDL-Skiplist", &vals);
    }

    // T-Skiplist: the no-flush algorithm on a zero-latency "DRAM" heap.
    {
        let mut vals = Vec::new();
        for &t in &threads {
            let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(512 << 20)));
            let list = Arc::new(DlSkiplist::new(heap, PersistMode::NoFlush));
            let backend = Arc::new(DlSkiplistBackend(list));
            prefill(backend.as_ref(), &w);
            vals.push(throughput(backend, &w, t));
        }
        row("T-Skiplist (DRAM)", &vals);
    }
    sink.write();
}
