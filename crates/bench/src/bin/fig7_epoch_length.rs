//! Fig. 7: single-thread PHTM-vEB throughput as a function of epoch
//! length (1 µs – 10 s) and workload skew (uniform, Zipfian 0.9 / 0.99),
//! 80% writes. The paper: longer epochs help skewed workloads (less
//! cache-invalidating background flushing of hot lines) with diminishing
//! returns past ~10 ms; uniform workloads barely care.
//!
//! ```sh
//! cargo run --release -p bench --bin fig7_epoch_length
//! cargo run --release -p bench --bin fig7_epoch_length -- --pipeline=sync
//! ```
//!
//! `--pipeline=bg` (the default) runs each data point with a
//! [`Persister`] worker next to the ticker, so epoch advances only seal
//! and enqueue; `--pipeline=sync` forces inline write-back on the
//! advancing thread. ci.sh runs both and compares the `advance_ns`
//! histograms (see `metrics_check --compare-pipeline`).
//!
//! `--gate-advances N` is the comparison-gate mode: instead of the full
//! sweep it runs only the instrumented point (zipfian 0.99, 1 ms
//! epochs) and drives exactly `N` advances by hand, so a sync run and a
//! pipelined run produce `advance_ns` histograms with identical sample
//! counts. A fixed-duration run cannot do that — sync advances are
//! slower, so fewer of them fit in the window, and the two p99s end up
//! computed over different population sizes.

use bdhtm_core::{EpochConfig, EpochSys, EpochTicker, Persister};
use bench::*;
use htm_sim::{Htm, HtmConfig};
use nvm_sim::{NvmConfig, NvmHeap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use veb::PhtmVeb;
use ycsb_gen::{Mix, Rng64, WorkloadSpec};

fn pipeline_mode() -> bool {
    let mut bg = true;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let val = if a == "--pipeline" {
            args.next()
        } else {
            a.strip_prefix("--pipeline=").map(|s| s.to_string())
        };
        match val.as_deref() {
            Some("bg") => bg = true,
            Some("sync") => bg = false,
            Some(other) if a.starts_with("--pipeline") => {
                eprintln!("fig7_epoch_length: unknown --pipeline mode {other:?} (want sync|bg)");
                std::process::exit(2);
            }
            _ => {}
        }
    }
    bg
}

fn gate_advances() -> Option<u64> {
    let mut n = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let val = if a == "--gate-advances" {
            args.next()
        } else {
            a.strip_prefix("--gate-advances=").map(|s| s.to_string())
        };
        if let Some(v) = val {
            match v.parse::<u64>() {
                Ok(parsed) if parsed > 0 => n = Some(parsed),
                _ => {
                    eprintln!("fig7_epoch_length: --gate-advances wants a positive count");
                    std::process::exit(2);
                }
            }
        }
    }
    n
}

/// The `--gate-advances` mode: one mutator thread runs the zipfian-0.99
/// workload while this thread drives exactly `advances` epoch advances
/// at the 1 ms cadence. The metrics snapshot is taken *before* the
/// final drain, so the report carries one `advance_ns` sample per
/// driven advance — the same count in sync and pipelined mode, which is
/// what makes their p99s comparable.
fn run_advance_gate(bg: bool, advances: u64, sink: &mut MetricsSink, ubits: u32) {
    let universe = 1u64 << ubits;
    let epoch_len = Duration::from_millis(1);
    let w = WorkloadSpec::zipfian(universe, 0.99, Mix::reads(0.2)).build();
    let heap = Arc::new(NvmHeap::new(NvmConfig::optane(512 << 20)));
    let esys = EpochSys::format(
        heap,
        sink.epoch_config(EpochConfig::default().with_epoch_len(epoch_len)),
    );
    let htm = Arc::new(Htm::new(HtmConfig::default()));
    sink.attach_htm(&htm);
    sink.attach_esys(&esys);
    let tree = Arc::new(PhtmVeb::new(ubits, Arc::clone(&esys), htm));
    let backend: Arc<dyn KvBackend> = tree;
    prefill(backend.as_ref(), &w);

    let persister = bg.then(|| Persister::spawn(Arc::clone(&esys)));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        {
            let backend = Arc::clone(&backend);
            let w = w.clone();
            let stop = &stop;
            s.spawn(move || {
                let mut rng = Rng64::new(0xB0B0);
                while !stop.load(Ordering::Relaxed) {
                    backend.run_op(&w.next_op(&mut rng));
                }
            });
        }
        for _ in 0..advances {
            std::thread::sleep(epoch_len);
            esys.advance();
        }
        stop.store(true, Ordering::Relaxed);
    });
    let n = esys.stats().snapshot().advances;
    // Snapshot before the shutdown drain: the report must see exactly
    // the driven advances, in either mode.
    sink.write();
    if let Some(p) = persister {
        p.stop();
    }
    println!(
        "# Fig 7 gate: {n} advances, persist={}",
        if bg { "bg" } else { "sync" }
    );
}

fn main() {
    let bg = pipeline_mode();
    let ubits = 22 - scale_down_bits() / 2;
    if let Some(n) = gate_advances() {
        // The unconsumed mode flags land in CommonArgs::rest, which the
        // sink ignores.
        let mut sink = MetricsSink::from_args();
        run_advance_gate(bg, n, &mut sink, ubits);
        return;
    }
    let universe = 1u64 << ubits;
    // 1 µs .. 10 s, log-spaced as in the paper (10 s capped to keep runs
    // bounded — at that point the ticker never fires within a data point,
    // which is exactly the paper's "unacceptable data-loss window").
    let epochs = [
        ("1us", Duration::from_micros(1)),
        ("100us", Duration::from_micros(100)),
        ("1ms", Duration::from_millis(1)),
        ("10ms", Duration::from_millis(10)),
        ("100ms", Duration::from_millis(100)),
        ("1s", Duration::from_secs(1)),
        ("10s", Duration::from_secs(10)),
    ];
    // --metrics-json captures the zipfian(0.99) run at the 1 ms epoch
    // point — short enough that the ticker fires many advances within a
    // data point, so the advance_ns histogram is well populated for the
    // sync-vs-pipelined comparison gate.
    let mut sink = MetricsSink::from_args();
    println!(
        "# Fig 7: single-thread PHTM-vEB vs epoch length, universe 2^{ubits}, 80% writes (Mops/s), persist={}",
        if bg { "bg" } else { "sync" }
    );
    print!("{:<16}", "distribution");
    for (name, _) in &epochs {
        print!(" {name:>8}");
    }
    println!();

    for (dist_name, theta) in [
        ("uniform", None),
        ("zipfian(0.9)", Some(0.9)),
        ("zipfian(0.99)", Some(0.99)),
    ] {
        let spec = match theta {
            None => WorkloadSpec::uniform(universe, Mix::reads(0.2)),
            Some(t) => WorkloadSpec::zipfian(universe, t, Mix::reads(0.2)),
        };
        let w = spec.build();
        print!("{dist_name:<16}");
        for (name, len) in &epochs {
            let heap = Arc::new(NvmHeap::new(NvmConfig::optane(512 << 20)));
            let esys = EpochSys::format(
                heap,
                sink.epoch_config(EpochConfig::default().with_epoch_len(*len)),
            );
            let htm = Arc::new(Htm::new(HtmConfig::default()));
            if *name == "1ms" {
                sink.attach_htm(&htm);
                sink.attach_esys(&esys);
            }
            let tree = Arc::new(PhtmVeb::new(ubits, Arc::clone(&esys), htm));
            let backend: Arc<dyn KvBackend> = tree;
            prefill(backend.as_ref(), &w);
            let persister = bg.then(|| Persister::spawn(Arc::clone(&esys)));
            let ticker = EpochTicker::spawn(esys);
            let mops = throughput(backend, &w, 1);
            ticker.stop();
            if let Some(p) = persister {
                p.stop();
            }
            print!(" {mops:>8.3}");
        }
        println!();
    }
    sink.write();
}
