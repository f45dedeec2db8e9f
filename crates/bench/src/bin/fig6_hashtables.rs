//! Fig. 6: persistent hash tables — BD-Spash vs Spash (on eADR) vs CCEH
//! vs Plush — in four quadrants: {uniform, Zipfian(0.99)} x
//! {write-heavy, read-heavy}. The paper: BD-Spash essentially matches
//! Spash; CCEH and Plush trail because of strict-DL costs, with Plush's
//! logging hurting most under skewed writes.
//!
//! ```sh
//! cargo run --release -p bench --bin fig6_hashtables
//! ```

use bdhtm_core::{EpochConfig, EpochSys, EpochTicker};
use bench::*;
use hashtable::{BdSpash, Cceh, Plush, Spash};
use htm_sim::{Htm, HtmConfig};
use nvm_sim::{NvmConfig, NvmHeap};
use std::sync::Arc;
use std::time::Duration;
use ycsb_gen::{Mix, Workload, WorkloadSpec};

fn series(
    w: &Workload,
    threads: &[usize],
    mut make: impl FnMut() -> (Arc<dyn KvBackend>, Option<EpochTicker>),
) -> Vec<f64> {
    let mut vals = Vec::new();
    for &t in threads {
        let (backend, ticker) = make();
        prefill(backend.as_ref(), w);
        vals.push(throughput(backend, w, t));
        drop(ticker);
    }
    vals
}

fn main() {
    let ubits = 26 - scale_down_bits();
    let universe = 1u64 << ubits;
    let threads = thread_counts();
    // --metrics-json captures the last BD-Spash configuration run (the
    // final thread count of the last quadrant).
    let mut sink = MetricsSink::from_args();
    println!("# Fig 6: persistent hash tables, universe 2^{ubits} (Mops/s)");

    for (dist_name, zipf) in [("uniform", None), ("zipfian(0.99)", Some(0.99))] {
        for (mix_name, mix) in [
            ("write-heavy", Mix::write_heavy()),
            ("read-heavy", Mix::read_heavy()),
        ] {
            println!("\n## {dist_name} / {mix_name}");
            header("table", &threads);
            let spec = match zipf {
                None => WorkloadSpec::uniform(universe, mix),
                Some(theta) => WorkloadSpec::zipfian(universe, theta, mix),
            };
            let w = spec.build();

            row(
                "Spash (eADR)",
                &series(&w, &threads, || {
                    let heap = Arc::new(NvmHeap::new(NvmConfig::optane_eadr(512 << 20)));
                    let htm = Arc::new(Htm::new(HtmConfig::default()));
                    (
                        Arc::new(SpashBackend(Arc::new(Spash::new(heap, htm)))) as _,
                        None,
                    )
                }),
            );
            row(
                "BD-Spash (ADR)",
                &series(&w, &threads, || {
                    let heap = Arc::new(NvmHeap::new(NvmConfig::optane(512 << 20)));
                    let esys = EpochSys::format(
                        heap,
                        sink.epoch_config(
                            EpochConfig::default().with_epoch_len(Duration::from_millis(50)),
                        ),
                    );
                    let htm = Arc::new(Htm::new(HtmConfig::default()));
                    sink.attach_htm(&htm);
                    sink.attach_esys(&esys);
                    let t = Arc::new(BdSpash::new(Arc::clone(&esys), htm));
                    let ticker = EpochTicker::spawn(esys);
                    (t as _, Some(ticker))
                }),
            );
            row(
                "CCEH",
                &series(&w, &threads, || {
                    let heap = Arc::new(NvmHeap::new(NvmConfig::optane(512 << 20)));
                    (Arc::new(CcehBackend(Arc::new(Cceh::new(heap)))) as _, None)
                }),
            );
            row(
                "Plush",
                &series(&w, &threads, || {
                    let heap = Arc::new(NvmHeap::new(NvmConfig::optane(512 << 20)));
                    (
                        Arc::new(PlushBackend(Arc::new(Plush::new(heap)))) as _,
                        None,
                    )
                }),
            );
        }
    }
    sink.write();
}
