//! Fig. 1: throughput of transient HTM-vEB vs buffered-durable PHTM-vEB,
//! write-heavy workload (80% writes), uniform and Zipfian(0.99) keys,
//! thread sweep. The paper finds PHTM-vEB within ~2–3x of HTM-vEB.
//!
//! ```sh
//! cargo run --release -p bench --bin fig1_veb_overhead
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
    let universe = 1u64 << ubits;
    // --metrics-json captures the last configuration run: the final
    // thread count of the zipfian PHTM-vEB series.
    let mut sink = MetricsSink::from_args();
    println!(
        "# Fig 1: HTM-vEB vs PHTM-vEB, write-heavy (80% writes), universe 2^{ubits}, epoch 50ms"
    );
    header("series (Mops/s)", &threads);

    for (dist_name, spec) in [
        (
            "uniform",
            WorkloadSpec::uniform(universe, Mix::write_heavy()),
        ),
        (
            "zipfian(0.99)",
            WorkloadSpec::zipfian(universe, 0.99, Mix::write_heavy()),
        ),
    ] {
        let w = spec.build();

        // Transient HTM-vEB.
        let mut vals = Vec::new();
        for &t in &threads {
            let htm = Arc::new(Htm::new(HtmConfig::default()));
            let tree = Arc::new(HtmVeb::new(ubits, htm));
            let backend = Arc::new(HtmVebBackend(Arc::clone(&tree)));
            prefill(backend.as_ref(), &w);
            vals.push(throughput(backend, &w, t));
        }
        row(&format!("HTM-vEB {dist_name}"), &vals);

        // Buffered-durable PHTM-vEB on an Optane-latency heap.
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
            let tree = Arc::new(PhtmVeb::new(ubits, Arc::clone(&esys), htm));
            let backend: Arc<dyn KvBackend> = Arc::clone(&tree) as _;
            prefill(backend.as_ref(), &w);
            let ticker = EpochTicker::spawn(esys);
            vals.push(throughput(backend, &w, t));
            ticker.stop();
        }
        row(&format!("PHTM-vEB {dist_name}"), &vals);
    }
    sink.write();
}
