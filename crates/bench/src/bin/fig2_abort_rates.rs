//! Fig. 2: HTM commit and abort-cause percentages for HTM-vEB and
//! PHTM-vEB, including the MEMTYPE-anomaly machine and the
//! non-transactional "pre-walk" mitigation (the paper's red bars).
//!
//! ```sh
//! cargo run --release -p bench --bin fig2_abort_rates
//! ```

use bdhtm_core::{EpochConfig, EpochSys, EpochTicker};
use bench::*;
use htm_sim::{AbortCause, Htm, HtmConfig, StatsSnapshot};
use nvm_sim::{NvmConfig, NvmHeap};
use std::sync::Arc;
use std::time::Duration;
use veb::{HtmVeb, PhtmVeb};
use ycsb_gen::{Mix, WorkloadSpec};

fn pct(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * part as f64 / total as f64
    }
}

fn report(label: &str, s: &StatsSnapshot) {
    let a = s.attempts();
    println!(
        "{label:<34} commit {:>5.1}%  conflict {:>5.1}%  capacity {:>4.1}%  memtype {:>5.1}%  lock {:>4.1}%  fallback-ops {:>6}",
        pct(s.commits, a),
        pct(s.aborts_of(AbortCause::Conflict), a),
        pct(s.aborts_of(AbortCause::Capacity), a),
        pct(s.aborts_of(AbortCause::MemType), a),
        pct(s.aborts_of(AbortCause::FallbackLocked), a),
        s.fallbacks,
    );
}

fn main() {
    let ubits = 26 - scale_down_bits();
    let universe = 1u64 << ubits;
    let threads = thread_counts();
    // --metrics-json captures the last buffered-durable configuration
    // (final thread count, zipfian PHTM-vEB).
    let mut sink = MetricsSink::from_args();
    println!("# Fig 2: HTM commit/abort breakdown, universe 2^{ubits}");

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
        for &t in &threads {
            // Transient tree.
            let htm = Arc::new(Htm::new(HtmConfig::default()));
            let tree = Arc::new(HtmVeb::new(ubits, Arc::clone(&htm)));
            let backend = Arc::new(HtmVebBackend(tree));
            prefill(backend.as_ref(), &w);
            htm.stats().reset();
            throughput(backend, &w, t);
            report(
                &format!("HTM-vEB  {dist_name} {t}T"),
                &htm.stats().snapshot(),
            );

            // Buffered-durable tree.
            let heap = Arc::new(NvmHeap::new(NvmConfig::optane(512 << 20)));
            let esys = EpochSys::format(
                heap,
                sink.epoch_config(EpochConfig::default().with_epoch_len(Duration::from_millis(50))),
            );
            let htm = Arc::new(Htm::new(HtmConfig::default()));
            sink.attach_htm(&htm);
            sink.attach_esys(&esys);
            let tree = Arc::new(PhtmVeb::new(ubits, Arc::clone(&esys), Arc::clone(&htm)));
            let backend: Arc<dyn KvBackend> = tree;
            prefill(backend.as_ref(), &w);
            let ticker = EpochTicker::spawn(esys);
            htm.stats().reset();
            throughput(backend, &w, t);
            ticker.stop();
            report(
                &format!("PHTM-vEB {dist_name} {t}T"),
                &htm.stats().snapshot(),
            );
        }
    }

    // The ABORTED_MEMTYPE anomaly (single-socket machine, low threads):
    // up to half of transactions abort MEMTYPE without mitigation; the
    // pre-walk retry (red bars) suppresses the repeat.
    println!("\n# MEMTYPE anomaly machine (injection p=0.5, 1 thread):");
    let w = WorkloadSpec::uniform(universe, Mix::write_heavy()).build();
    for prewalk in [false, true] {
        let htm = Arc::new(Htm::new(HtmConfig::default().with_memtype_anomaly(0.5)));
        let mut tree = HtmVeb::new(ubits, Arc::clone(&htm));
        tree.prewalk_on_memtype = prewalk;
        let backend = Arc::new(HtmVebBackend(Arc::new(tree)));
        prefill(backend.as_ref(), &w);
        htm.stats().reset();
        throughput(backend, &w, 1);
        report(
            &format!("HTM-vEB memtype prewalk={prewalk}"),
            &htm.stats().snapshot(),
        );
    }
    sink.write();
}
