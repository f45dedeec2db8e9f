//! Fig. 3: persistent-tree throughput — PHTM-vEB vs LB+Tree vs
//! OCC-ABTree vs Elim-ABTree — in four quadrants: {uniform,
//! Zipfian(0.99)} x {write-heavy, read-heavy}. The paper reports
//! PHTM-vEB ahead of LB+Tree by 1.2–2.8x and of the (a,b)-trees by
//! 1.6–4x.
//!
//! ```sh
//! cargo run --release -p bench --bin fig3_tree_comparison
//! ```

use bdhtm_core::{EpochConfig, EpochSys, EpochTicker};
use bench::*;
use btree::{ElimAbTree, LbTree, OccAbTree};
use htm_sim::{Htm, HtmConfig};
use nvm_sim::{NvmConfig, NvmHeap};
use std::sync::Arc;
use std::time::Duration;
use veb::PhtmVeb;
use ycsb_gen::{Mix, Workload, WorkloadSpec};

fn phtm_series(ubits: u32, w: &Workload, threads: &[usize], sink: &mut MetricsSink) -> Vec<f64> {
    let mut vals = Vec::new();
    for &t in threads {
        let heap = Arc::new(NvmHeap::new(NvmConfig::optane(512 << 20)));
        let esys = EpochSys::format(
            heap,
            sink.epoch_config(EpochConfig::default().with_epoch_len(Duration::from_millis(50))),
        );
        let htm = Arc::new(Htm::new(HtmConfig::default()));
        sink.attach_htm(&htm);
        sink.attach_esys(&esys);
        let tree = Arc::new(PhtmVeb::new(ubits, Arc::clone(&esys), htm));
        let backend: Arc<dyn KvBackend> = tree;
        prefill(backend.as_ref(), w);
        let ticker = EpochTicker::spawn(esys);
        vals.push(throughput(backend, w, t));
        ticker.stop();
    }
    vals
}

fn baseline_series(
    w: &Workload,
    threads: &[usize],
    make: impl Fn(Arc<NvmHeap>) -> Arc<dyn KvBackend>,
) -> Vec<f64> {
    let mut vals = Vec::new();
    for &t in threads {
        let heap = Arc::new(NvmHeap::new(NvmConfig::optane(512 << 20)));
        let backend = make(heap);
        prefill(backend.as_ref(), w);
        vals.push(throughput(backend, w, t));
    }
    vals
}

fn main() {
    let ubits = 26 - scale_down_bits();
    let universe = 1u64 << ubits;
    let threads = thread_counts();
    // --metrics-json captures the last PHTM-vEB configuration run (the
    // final thread count of the last quadrant).
    let mut sink = MetricsSink::from_args();
    println!("# Fig 3: persistent trees, universe 2^{ubits} (Mops/s)");

    for (dist_name, zipf) in [("uniform", None), ("zipfian(0.99)", Some(0.99))] {
        for (mix_name, mix) in [
            ("write-heavy", Mix::write_heavy()),
            ("read-heavy", Mix::read_heavy()),
        ] {
            println!("\n## {dist_name} / {mix_name}");
            header("tree", &threads);
            let spec = match zipf {
                None => WorkloadSpec::uniform(universe, mix),
                Some(theta) => WorkloadSpec::zipfian(universe, theta, mix),
            };
            let w = spec.build();
            row("PHTM-vEB", &phtm_series(ubits, &w, &threads, &mut sink));
            row(
                "LB+Tree",
                &baseline_series(&w, &threads, |heap| {
                    Arc::new(LbTreeBackend(Arc::new(LbTree::new(heap))))
                }),
            );
            row(
                "OCC-ABTree",
                &baseline_series(&w, &threads, |heap| {
                    Arc::new(OccBackend(Arc::new(OccAbTree::new(heap))))
                }),
            );
            row(
                "Elim-ABTree",
                &baseline_series(&w, &threads, |heap| {
                    Arc::new(ElimBackend(Arc::new(ElimAbTree::new(heap))))
                }),
            );
        }
    }
    sink.write();
}
