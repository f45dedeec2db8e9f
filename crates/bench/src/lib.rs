//! Shared benchmark-harness machinery for the figure/table binaries.
//!
//! Every experiment binary (`src/bin/fig*.rs`, `table3_space.rs`,
//! `recovery_time.rs`) reproduces one table or figure of the paper: it
//! builds the paper's workload, sweeps the paper's parameter, and prints
//! the same rows/series the paper reports. Absolute numbers differ (the
//! substrates are simulators and this machine is not a 40-core
//! Optane box); EXPERIMENTS.md records the shape comparison.
//!
//! Scaling knobs (environment variables, so `cargo run` lines stay
//! copy-pasteable):
//!
//! * `BDHTM_SECS` — seconds per data point (default 0.5).
//! * `BDHTM_THREADS` — comma-separated thread counts (default "1,2,4").
//! * `BDHTM_SCALE` — workload-size divisor exponent: key-space bits are
//!   reduced by this amount from the paper's (default 6, i.e. 2^26 →
//!   2^20) so runs finish on laptop-class containers.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use ycsb_gen::{Op, OpKind, Rng64, Workload};

pub mod cli;
pub use cli::CommonArgs;

/// Seconds per throughput data point.
pub fn secs_per_point() -> f64 {
    std::env::var("BDHTM_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5)
}

/// Thread counts to sweep.
pub fn thread_counts() -> Vec<usize> {
    std::env::var("BDHTM_THREADS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4])
}

/// Bits subtracted from the paper's key-space sizes.
pub fn scale_down_bits() -> u32 {
    std::env::var("BDHTM_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(6)
}

/// A key-value structure under test.
pub trait KvBackend: Send + Sync {
    fn read(&self, key: u64);
    fn insert(&self, key: u64, value: u64);
    fn remove(&self, key: u64);

    #[inline]
    fn run_op(&self, op: &Op) {
        match op.kind {
            OpKind::Read => self.read(op.key),
            OpKind::Insert => self.insert(op.key, op.value),
            OpKind::Remove => self.remove(op.key),
        }
    }
}

/// Prefills `backend` with half the key space (the paper's setup).
pub fn prefill(backend: &dyn KvBackend, workload: &Workload) {
    for k in workload.prefill_keys() {
        backend.insert(k, ycsb_gen::value_of(k));
    }
}

/// Runs `threads` workers against `backend` for [`secs_per_point`]
/// seconds and returns throughput in Mops/s.
pub fn throughput(backend: Arc<dyn KvBackend>, workload: &Workload, threads: usize) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));
    let dur = Duration::from_secs_f64(secs_per_point());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let backend = Arc::clone(&backend);
            let workload = workload.clone();
            let stop = Arc::clone(&stop);
            let ops = Arc::clone(&ops);
            s.spawn(move || {
                let mut rng = Rng64::new(0xB0B0 + tid as u64);
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    backend.run_op(&workload.next_op(&mut rng));
                    n += 1;
                }
                ops.fetch_add(n, Ordering::Relaxed);
            });
        }
        std::thread::sleep(dur);
        stop.store(true, Ordering::Relaxed);
    });
    ops.load(Ordering::Relaxed) as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// Flight-recorder events per thread in `--trace-out` runs. The default
/// ring keeps only each thread's last instants, so a trace of a figure
/// run would hold almost no durability-lag arrows (an arrow needs both
/// an epoch's last commit and its frontier publish); this many slots
/// cover a figure data point's whole window at 6 MiB per recording
/// thread.
pub const TRACE_FLIGHT_SLOTS: usize = 1 << 17;

/// Shared observability-output handling for the figure binaries (see
/// [`cli::CommonArgs`] for the flags).
///
/// Every experiment binary constructs one sink from its argv, attaches
/// the substrate objects of the configuration it wants captured (by
/// convention the *last* configuration it builds, i.e. the final series
/// of the figure), and calls [`MetricsSink::write`] before exiting.
/// When no flag is present the sink is inert and costs nothing.
///
/// With `--metrics-series`, a background [`Sampler`](bdhtm_core::Sampler)
/// streams delta reports as JSON-lines while the run executes. Each
/// `attach_*` call restarts the sampler over the enlarged registry, so
/// the stream always covers every attached source; the line sequence
/// number and timestamp origin are shared across restarts, keeping the
/// stream monotone. With `--trace-out`, [`write`](Self::write) exports
/// the attached epoch system's flight recorder as a Perfetto trace;
/// build that system from [`epoch_config`](Self::epoch_config) so the
/// recorder is large enough to cover the run.
#[derive(Default)]
pub struct MetricsSink {
    metrics_json: Option<String>,
    trace_out: Option<String>,
    registry: bdhtm_core::MetricsRegistry,
    esys: Option<Arc<bdhtm_core::EpochSys>>,
    series: Option<SeriesStream>,
    sampler: Option<bdhtm_core::Sampler>,
}

/// The `--metrics-series` output state shared across sampler restarts.
struct SeriesStream {
    path: String,
    file: Arc<Mutex<std::fs::File>>,
    seq: Arc<AtomicU64>,
    origin: Instant,
    interval: Duration,
}

impl MetricsSink {
    /// Builds a sink from the process arguments.
    pub fn from_args() -> MetricsSink {
        Self::from_common(&CommonArgs::parse())
    }

    /// Builds a sink from already-parsed [`CommonArgs`] (for binaries
    /// that also consume [`CommonArgs::rest`]).
    pub fn from_common(args: &CommonArgs) -> MetricsSink {
        let series = args.metrics_series.as_ref().map(|path| {
            let file = match std::fs::File::create(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("error: cannot create metrics series {path}: {e}");
                    std::process::exit(1);
                }
            };
            SeriesStream {
                path: path.clone(),
                file: Arc::new(Mutex::new(file)),
                seq: Arc::new(AtomicU64::new(0)),
                origin: Instant::now(),
                interval: Duration::from_millis(args.series_interval_ms.max(1)),
            }
        });
        MetricsSink {
            metrics_json: args.metrics_json.clone(),
            trace_out: args.trace_out.clone(),
            registry: bdhtm_core::MetricsRegistry::new(),
            esys: None,
            series,
            sampler: None,
        }
    }

    /// `cfg` for an epoch system this sink may attach: with
    /// `--trace-out`, its flight recorder keeps [`TRACE_FLIGHT_SLOTS`]
    /// events per thread so the exported trace covers the whole run;
    /// otherwise `cfg` unchanged.
    pub fn epoch_config(&self, cfg: bdhtm_core::EpochConfig) -> bdhtm_core::EpochConfig {
        match self.trace_out {
            Some(_) => cfg.with_flight_slots(TRACE_FLIGHT_SLOTS),
            None => cfg,
        }
    }

    /// True when any observability output was requested.
    pub fn enabled(&self) -> bool {
        self.metrics_json.is_some() || self.trace_out.is_some() || self.series.is_some()
    }

    /// Attaches the epoch system whose stats the report should capture
    /// (and whose flight recorder `--trace-out` exports).
    pub fn attach_esys(&mut self, esys: &Arc<bdhtm_core::EpochSys>) {
        if self.enabled() {
            self.registry.attach_esys(Arc::clone(esys));
            self.esys = Some(Arc::clone(esys));
            self.restart_sampler();
        }
    }

    /// Attaches the HTM domain whose stats the report should capture.
    pub fn attach_htm(&mut self, htm: &Arc<htm_sim::Htm>) {
        if self.enabled() {
            self.registry.attach_htm(Arc::clone(htm));
            self.restart_sampler();
        }
    }

    /// Attaches a bare NVM heap (for binaries without an epoch system).
    pub fn attach_heap(&mut self, heap: &Arc<nvm_sim::NvmHeap>) {
        if self.enabled() {
            self.registry.attach_heap(Arc::clone(heap));
            self.restart_sampler();
        }
    }

    /// (Re)starts the series sampler over the current registry. The
    /// closure ignores the sampler's own timestamp/sequence and uses the
    /// stream's shared origin and counter, so a stream spanning several
    /// sampler generations stays monotone with dense sequence numbers.
    fn restart_sampler(&mut self) {
        let Some(series) = &self.series else { return };
        if let Some(old) = self.sampler.take() {
            old.stop();
        }
        let file = Arc::clone(&series.file);
        let seq = Arc::clone(&series.seq);
        let origin = series.origin;
        self.sampler = Some(bdhtm_core::Sampler::spawn(
            self.registry.clone(),
            series.interval,
            move |_, _, delta| {
                let t_ns = origin.elapsed().as_nanos() as u64;
                let n = seq.fetch_add(1, Ordering::Relaxed);
                let line = bdhtm_core::series_line(t_ns, n, delta);
                let mut f = file.lock().unwrap();
                if writeln!(f, "{line}").is_err() {
                    // Keep running: a full disk should not kill the bench.
                }
            },
        ));
    }

    /// Snapshots the attached sources and writes every requested
    /// output: stops the series sampler (flushing its final sample),
    /// writes the `--metrics-json` report, and exports the
    /// `--trace-out` Perfetto trace. Call once, at the end of the run.
    pub fn write(&mut self) {
        if let Some(sampler) = self.sampler.take() {
            sampler.stop();
        }
        if let Some(series) = &self.series {
            eprintln!("metrics series written to {}", series.path);
        }
        if let Some(path) = &self.metrics_json {
            let json = self.registry.report().to_json();
            match std::fs::write(path, &json) {
                Ok(()) => eprintln!("metrics written to {path}"),
                Err(e) => {
                    eprintln!("error: cannot write metrics to {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = &self.trace_out {
            let Some(esys) = &self.esys else {
                eprintln!("error: --trace-out needs an epoch system attached; no trace written");
                std::process::exit(1);
            };
            let json = bdhtm_core::trace::chrome_trace_from_obs(esys.obs());
            match std::fs::write(path, &json) {
                Ok(()) => eprintln!("trace written to {path}"),
                Err(e) => {
                    eprintln!("error: cannot write trace to {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

/// Prints a series row: `label  v1  v2  v3 ...`.
pub fn row(label: &str, values: &[f64]) {
    let mut out = std::io::stdout().lock();
    let _ = write!(out, "{label:<28}");
    for v in values {
        let _ = write!(out, " {v:>9.3}");
    }
    let _ = writeln!(out);
}

/// Prints the thread-count header matching [`row`].
pub fn header(first: &str, threads: &[usize]) {
    let mut out = std::io::stdout().lock();
    let _ = write!(out, "{first:<28}");
    for t in threads {
        let _ = write!(out, " {:>8}T", t);
    }
    let _ = writeln!(out);
}

// ---------------------------------------------------------------------
// Backend adapters.
//
// Every BDL structure is a backend for free: the `BdlKv` trait carries
// exactly the surface the harness drives. Figure binaries pass the
// structure's `Arc` straight to `throughput` — no wrapper type.

impl<T: bdhtm_core::BdlKv> KvBackend for T {
    #[inline]
    fn read(&self, key: u64) {
        let _ = bdhtm_core::BdlKv::get(self, key);
    }
    #[inline]
    fn insert(&self, key: u64, value: u64) {
        bdhtm_core::BdlKv::insert(self, key, value);
    }
    #[inline]
    fn remove(&self, key: u64) {
        bdhtm_core::BdlKv::remove(self, key);
    }
}

// Non-BDL baselines (DRAM-only, undo-log, OCC...) lack the trait and
// keep their hand-written adapter wrappers.

macro_rules! kv_adapter {
    ($name:ident, $inner:ty, $read:expr, $ins:expr, $rem:expr) => {
        pub struct $name(pub Arc<$inner>);
        impl KvBackend for $name {
            #[inline]
            fn read(&self, key: u64) {
                #[allow(clippy::redundant_closure_call)]
                let _ = ($read)(&self.0, key);
            }
            #[inline]
            fn insert(&self, key: u64, value: u64) {
                #[allow(clippy::redundant_closure_call)]
                let _ = ($ins)(&self.0, key, value);
            }
            #[inline]
            fn remove(&self, key: u64) {
                #[allow(clippy::redundant_closure_call)]
                let _ = ($rem)(&self.0, key);
            }
        }
    };
}

kv_adapter!(
    HtmVebBackend,
    veb::HtmVeb,
    |t: &veb::HtmVeb, k| t.get(k),
    |t: &veb::HtmVeb, k, v| t.insert(k, v),
    |t: &veb::HtmVeb, k| t.remove(k)
);
kv_adapter!(
    LbTreeBackend,
    btree::LbTree,
    |t: &btree::LbTree, k| t.get(k),
    |t: &btree::LbTree, k, v| t.insert(k, v),
    |t: &btree::LbTree, k| t.remove(k)
);
kv_adapter!(
    OccBackend,
    btree::OccAbTree,
    |t: &btree::OccAbTree, k| t.get(k),
    |t: &btree::OccAbTree, k, v| t.insert(k, v),
    |t: &btree::OccAbTree, k| t.remove(k)
);
kv_adapter!(
    ElimBackend,
    btree::ElimAbTree,
    |t: &btree::ElimAbTree, k| t.get(k),
    |t: &btree::ElimAbTree, k, v| t.insert(k, v),
    |t: &btree::ElimAbTree, k| t.remove(k)
);
kv_adapter!(
    DlSkiplistBackend,
    skiplist::DlSkiplist,
    |t: &skiplist::DlSkiplist, k| t.get(k),
    |t: &skiplist::DlSkiplist, k, v| t.insert(k, v & !(1 << 63)),
    |t: &skiplist::DlSkiplist, k| t.remove(k)
);
kv_adapter!(
    SpashBackend,
    hashtable::Spash,
    |t: &hashtable::Spash, k| t.get(k),
    |t: &hashtable::Spash, k, v| t.insert(k, v),
    |t: &hashtable::Spash, k| t.remove(k)
);
kv_adapter!(
    CcehBackend,
    hashtable::Cceh,
    |t: &hashtable::Cceh, k| t.get(k),
    |t: &hashtable::Cceh, k, v| t.insert(k, v),
    |t: &hashtable::Cceh, k| t.remove(k)
);
kv_adapter!(
    PlushBackend,
    hashtable::Plush,
    |t: &hashtable::Plush, k| t.get(k),
    |t: &hashtable::Plush, k, v| t.insert(k, v & !(1 << 63)),
    |t: &hashtable::Plush, k| t.remove(k)
);

#[cfg(test)]
mod tests {
    use super::*;
    use bdhtm_core::{EpochConfig, EpochSys};
    use htm_sim::{Htm, HtmConfig};
    use nvm_sim::{NvmConfig, NvmHeap};
    use ycsb_gen::{Mix, WorkloadSpec};

    #[test]
    fn harness_drives_a_backend() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(32 << 20)));
        let esys = EpochSys::format(heap, EpochConfig::default());
        let htm = Arc::new(Htm::new(HtmConfig::default()));
        let backend: Arc<dyn KvBackend> = Arc::new(veb::PhtmVeb::new(12, esys, htm));
        let w = WorkloadSpec::uniform(1 << 12, Mix::write_heavy()).build();
        prefill(backend.as_ref(), &w);
        std::env::set_var("BDHTM_SECS", "0.05");
        let mops = throughput(backend, &w, 2);
        assert!(mops > 0.0);
    }
}
