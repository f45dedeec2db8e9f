//! One benchmark run: set-up, closed-loop clients over pre-generated op
//! streams, clean shutdown, crash and recovery, and the output checks.
//!
//! Layers are measured from outside: the driver times its own calls into
//! the structure and diffs the public stats snapshots of every layer
//! over the measured window (see [`crate::layers`]).

use crate::backend::KvBackend;
use crate::layers::{self, Snap};
use crate::spans::{SpanLog, SpanRecord};
use crate::stats::{median, quantile, ratio};
use bdhtm_core::{EpochConfig, EpochSys, EpochTicker, Persister};
use htm_sim::{Htm, HtmConfig};
use nvm_sim::{NvmConfig, NvmHeap};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use ycsb_gen::{value_of, Mix, OpKind, Rng64, WorkloadSpec};

/// Key distribution of a workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Keys {
    Uniform,
    /// YCSB scrambled Zipfian with this constant.
    Zipf(f64),
}

/// Everything one run depends on besides the structure type.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: String,
    pub universe_bits: u32,
    pub keys: Keys,
    pub read_fraction: f64,
    pub clients: usize,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Untimed ops before the window (caches, lazy set-up, allocator
    /// free lists).
    pub warmup_seconds: f64,
    /// Pre-generated ops per client; a client that exhausts its stream
    /// starts it again.
    pub stream_ops: usize,
    pub nvm: NvmConfig,
    pub epoch: EpochConfig,
    /// Set-up repeats at least `min_setups` times and until it has taken
    /// [`RunConfig::min_repeat_seconds`] (or `MAX_REPEATS` times); the
    /// same for recovery with `min_recoveries`. Medians are reported.
    pub min_setups: usize,
    pub min_recoveries: usize,
    pub min_repeat_seconds: f64,
    /// Traced run: the window is split into untraced and traced halves,
    /// per-op spans are kept, and per-layer metrics are reported.
    pub trace: bool,
    /// Where the traced run writes its span file.
    pub trace_dir: PathBuf,
}

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Debug, Default)]
pub struct Report {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Checked outcomes: ops issued (warm-up and window), keys compared
    /// after recovery, and `validate()` calls.
    pub attempted: u64,
    /// Checked outcomes that were wrong.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Human-readable lines (sample counts, the ledger ranking).
    pub notes: Vec<String>,
    pub trace_file: Option<PathBuf>,
}

impl Report {
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted.max(1) as f64)
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// Cap on set-up and recovery repeats (reached only by small heaps).
const MAX_REPEATS: usize = 50;

/// A pre-generated op is one word: the kind in the top two bits, the
/// key below.
const KIND_SHIFT: u32 = 62;
const KEY_MASK: u64 = (1 << KIND_SHIFT) - 1;
const READ: u64 = 0;
const INSERT: u64 = 1;
const REMOVE: u64 = 2;

fn pack(kind: OpKind, key: u64) -> u64 {
    let k = match kind {
        OpKind::Read => READ,
        OpKind::Insert => INSERT,
        OpKind::Remove => REMOVE,
    };
    (k << KIND_SHIFT) | key
}

/// Pre-generates every client's op stream from the seed (before any
/// timing starts; the structure only ever sees these inputs).
pub fn op_streams(cfg: &RunConfig) -> Vec<Vec<u64>> {
    let (universe, mix) = (1 << cfg.universe_bits, Mix::reads(cfg.read_fraction));
    let spec = match cfg.keys {
        Keys::Uniform => WorkloadSpec::uniform(universe, mix),
        Keys::Zipf(theta) => WorkloadSpec::zipfian(universe, theta, mix),
    };
    let workload = spec.build();
    (0..cfg.clients)
        .map(|c| {
            let mut rng = Rng64::new(cfg.seed ^ ((c as u64 + 1) << 40));
            (0..cfg.stream_ops)
                .map(|_| {
                    let op = workload.next_op(&mut rng);
                    pack(op.kind, op.key)
                })
                .collect()
        })
        .collect()
}

/// The production topology: a formatted heap, the epoch system with one
/// ticker and one persister, and the structure, prefilled with every
/// even key (half the key space, the paper's set-up).
struct System<B> {
    heap: Arc<NvmHeap>,
    esys: Arc<EpochSys>,
    htm: Arc<Htm>,
    kv: Arc<B>,
    ticker: Option<EpochTicker>,
    persister: Option<Persister>,
    /// Taken just before `EpochSys::format`, so within microseconds of
    /// the flight recorder's time origin; span timestamps count from it.
    origin: Instant,
}

impl<B: KvBackend> System<B> {
    fn set_up(cfg: &RunConfig) -> System<B> {
        let heap = Arc::new(NvmHeap::new(cfg.nvm.clone()));
        let origin = Instant::now();
        let esys = EpochSys::format(Arc::clone(&heap), cfg.epoch.clone());
        let htm = Arc::new(Htm::new(HtmConfig::default()));
        let kv = Arc::new(B::create(
            cfg.universe_bits,
            Arc::clone(&esys),
            Arc::clone(&htm),
        ));
        let persister = Persister::spawn(Arc::clone(&esys));
        let ticker = EpochTicker::spawn(Arc::clone(&esys));
        for key in (0..1u64 << cfg.universe_bits).step_by(2) {
            kv.insert(key, value_of(key));
        }
        esys.flush_all();
        System {
            heap,
            esys,
            htm,
            kv,
            ticker: Some(ticker),
            persister: Some(persister),
            origin,
        }
    }

    /// Clean shutdown: stop the clock, return preallocated blocks, make
    /// everything completed durable, and drain the persister.
    fn shut_down(&mut self) {
        if let Some(t) = self.ticker.take() {
            t.stop();
        }
        self.kv.drain_preallocated();
        self.esys.flush_all();
        if let Some(p) = self.persister.take() {
            p.stop();
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    Warmup,
    Measure,
    Traced,
}

fn plan(cfg: &RunConfig) -> Vec<(Mode, Duration)> {
    let mut plan = vec![(Mode::Warmup, Duration::from_secs_f64(cfg.warmup_seconds))];
    if cfg.trace {
        let q = Duration::from_secs_f64(cfg.seconds / 4.0);
        for _ in 0..2 {
            plan.extend([(Mode::Measure, q), (Mode::Traced, q)]);
        }
    } else {
        // Sub-windows of about a second each.
        let n = (cfg.seconds.round() as usize).max(1);
        let d = Duration::from_secs_f64(cfg.seconds / n as f64);
        plan.extend(std::iter::repeat_n((Mode::Measure, d), n));
    }
    plan
}

/// What one client measured in one phase.
#[derive(Default)]
struct PhaseOut {
    ops: u64,
    inserts: u64,
    removes: u64,
    elapsed: Duration,
    /// Op latencies by kind, ns.
    reads: Vec<u32>,
    writes: Vec<u32>,
    /// Ops whose span saw the epoch clock move (traced phases).
    crossings: u64,
}

/// One closed-loop client: issues its next op only after the previous
/// one returned, checks every result, and tracks commit→durable lag.
struct Client<'a, B> {
    id: usize,
    kv: &'a B,
    esys: &'a EpochSys,
    origin: Instant,
    stream: &'a [u64],
    pos: usize,
    /// Exact key presence; only with a single client, where it is the
    /// whole history.
    oracle: Option<Vec<bool>>,
    /// Writes of measured phases not yet seen durable: (epoch at
    /// return, time of return, phase).
    pending: VecDeque<(u64, Instant, usize)>,
    /// Commit→durable lags of measured-phase writes, ns, by the phase
    /// that issued the write.
    lags: Vec<Vec<u32>>,
    spans: SpanLog,
    checked: u64,
    failures: Vec<String>,
    failed: u64,
}

impl<B: KvBackend> Client<'_, B> {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    fn run_phase(&mut self, phase: usize, mode: Mode, dur: Duration) -> PhaseOut {
        let mut out = PhaseOut {
            reads: Vec::with_capacity(1 << 16),
            writes: Vec::with_capacity(1 << 16),
            ..PhaseOut::default()
        };
        let traced = mode == Mode::Traced;
        let start = Instant::now();
        let deadline = start + dur;
        let mut last = start;
        while last < deadline {
            let op = self.stream[self.pos];
            self.pos = (self.pos + 1) % self.stream.len();
            let key = op & KEY_MASK;
            let kind = op >> KIND_SHIFT;
            let e0 = if traced { self.esys.current_epoch() } else { 0 };
            let t0 = Instant::now();
            let (got, flag) = match kind {
                READ => (self.kv.get(key), false),
                INSERT => (None, self.kv.insert(key, value_of(key))),
                _ => (None, self.kv.remove(key)),
            };
            let t1 = Instant::now();
            last = t1;
            let ns = u32::try_from((t1 - t0).as_nanos()).unwrap_or(u32::MAX);
            out.ops += 1;
            self.checked += 1;
            self.check(kind, key, got, flag);
            if kind == READ {
                out.reads.push(ns);
            } else {
                if kind == INSERT {
                    out.inserts += 1;
                } else {
                    out.removes += 1;
                }
                out.writes.push(ns);
                if mode == Mode::Measure {
                    self.pending
                        .push_back((self.esys.current_epoch(), t1, phase));
                }
            }
            self.poll_durable(t1);
            if traced {
                let e1 = self.esys.current_epoch();
                out.crossings += u64::from(e1 != e0);
                self.spans.push(SpanRecord {
                    client: self.id as u32,
                    kind: kind as u32,
                    key,
                    start_ns: (t0 - self.origin).as_nanos() as u64,
                    dur_ns: ns,
                    epoch_begin: e0,
                    epoch_end: e1,
                });
            }
        }
        out.elapsed = last - start;
        out
    }

    /// Ends the lag of every pending write whose epoch the durable
    /// frontier has reached, stamped with the time the client saw it.
    fn poll_durable(&mut self, now: Instant) {
        let frontier = self.esys.persisted_frontier();
        while let Some(&(epoch, t, phase)) = self.pending.front() {
            if epoch > frontier {
                break;
            }
            self.lags[phase].push(u32::try_from((now - t).as_nanos()).unwrap_or(u32::MAX));
            self.pending.pop_front();
        }
    }

    /// After the window: keep polling (issuing no ops) until every
    /// measured write is durable, so late writes are not dropped from
    /// the lag distribution.
    fn drain_lags(&mut self) {
        let give_up = Instant::now() + Duration::from_secs(5);
        while !self.pending.is_empty() {
            let now = Instant::now();
            if now > give_up {
                let n = self.pending.len();
                self.fail(format!(
                    "client {}: {n} writes not durable 5 s after the window",
                    self.id
                ));
                self.pending.clear();
                break;
            }
            self.poll_durable(now);
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    fn check(&mut self, kind: u64, key: u64, got: Option<u64>, flag: bool) {
        match (&mut self.oracle, kind) {
            (Some(present), READ) => {
                let want = present[key as usize].then(|| value_of(key));
                if got != want {
                    self.fail(format!("get({key}) = {got:?}, expected {want:?}"));
                }
            }
            (Some(present), INSERT) => {
                let was = std::mem::replace(&mut present[key as usize], true);
                if flag == was {
                    self.fail(format!("insert({key}) = {flag}, key present: {was}"));
                }
            }
            (Some(present), _) => {
                let was = std::mem::replace(&mut present[key as usize], false);
                if flag != was {
                    self.fail(format!("remove({key}) = {flag}, key present: {was}"));
                }
            }
            (None, READ) => {
                if got.is_some_and(|v| v != value_of(key)) {
                    self.fail(format!("get({key}) = {got:?}, not the value of the key"));
                }
            }
            (None, _) => {}
        }
    }
}

/// Runs one configuration end to end and checks its outputs.
pub fn run<B: KvBackend>(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    let universe = 1u64 << cfg.universe_bits;
    let streams = op_streams(cfg);

    let t0 = Instant::now();
    let mut sys = System::<B>::set_up(cfg);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];

    let phases = plan(cfg);
    let Driven {
        clients,
        delta,
        wall_s,
    } = drive(cfg, &sys, &streams, &phases);

    for (c, _) in &clients {
        report.attempted += c.checked;
        report.failed += c.failed;
        report.failures.extend(c.failures.iter().cloned());
    }

    // Window aggregates. End-to-end figures are medians over the
    // measured sub-windows, so a burst of outside load on a shared host
    // moves one sub-window, not the run.
    let (mut ops, mut inserts, mut removes, mut crossings, mut traced_ops) = (0, 0, 0, 0, 0);
    let mut traced_lat_sum = 0u64;
    let mut sub: Vec<[f64; 7]> = Vec::new();
    let mut traced_rates = Vec::new();
    let (mut n_reads, mut n_writes, mut n_lags) = (0, 0, 0);
    for (p, &(mode, _)) in phases.iter().enumerate() {
        if mode == Mode::Warmup {
            continue;
        }
        // Closed-loop throughput: the sum of the clients' rates.
        let rate: f64 = clients
            .iter()
            .map(|(_, o)| ratio(o[p].ops as f64, o[p].elapsed.as_secs_f64()))
            .sum();
        let (mut reads, mut writes, mut lags) = (Vec::new(), Vec::new(), Vec::new());
        for (c, outs) in &clients {
            let o = &outs[p];
            lags.extend_from_slice(&c.lags[p]);
            ops += o.ops;
            inserts += o.inserts;
            removes += o.removes;
            crossings += o.crossings;
            reads.extend_from_slice(&o.reads);
            writes.extend_from_slice(&o.writes);
        }
        if mode == Mode::Traced {
            traced_rates.push(rate);
            traced_ops += (reads.len() + writes.len()) as u64;
            traced_lat_sum += reads.iter().chain(&writes).map(|&n| n as u64).sum::<u64>();
            continue;
        }
        reads.sort_unstable();
        writes.sort_unstable();
        lags.sort_unstable();
        n_reads += reads.len();
        n_writes += writes.len();
        n_lags += lags.len();
        sub.push([
            rate,
            quantile(&reads, 0.50),
            quantile(&reads, 0.99),
            quantile(&writes, 0.50),
            quantile(&writes, 0.99),
            quantile(&lags, 0.50),
            quantile(&lags, 0.99),
        ]);
    }
    let sub_median = |i: usize| median(&sub.iter().map(|s| s[i]).collect::<Vec<_>>());
    let ops_per_s = sub_median(0);
    let traced_ops_per_s = median(&traced_rates);
    let rates: Vec<f64> = sub.iter().map(|s| s[0]).collect();
    if !rates.is_empty() {
        report.notes.push(format!(
            "sub-window ops/s: min {:.0}, median {ops_per_s:.0}, max {:.0}",
            rates.iter().copied().fold(f64::INFINITY, f64::min),
            rates.iter().copied().fold(0.0, f64::max)
        ));
    }
    let us = |v: f64| v / 1e3;
    report.notes.push(format!(
        "samples: {n_reads} reads, {n_writes} writes and {n_lags} durable-lag spans over {} sub-windows",
        sub.len()
    ));

    // Expected contents: the oracle on one client, a quiescent scan
    // (every value checked) on two.
    let mut spans: Vec<SpanLog> = Vec::new();
    let mut expected: Vec<bool> = Vec::new();
    for (c, _) in clients {
        if let Some(o) = c.oracle {
            expected = o;
        }
        spans.push(c.spans);
    }
    if expected.is_empty() {
        report.attempted += universe;
        expected = (0..universe)
            .map(|k| {
                let got = sys.kv.get(k);
                if got.is_some_and(|v| v != value_of(k)) {
                    report.fail(format!(
                        "quiescent get({k}) = {got:?}, not the value of the key"
                    ));
                }
                got.is_some()
            })
            .collect();
    }
    let live_keys = expected.iter().filter(|&&p| p).count() as u64;

    // Traced run: export spans with the flight recorder while the epoch
    // system that owns it is still alive.
    if cfg.trace {
        match crate::spans::export(cfg, &sys.esys, &spans) {
            Ok(path) => report.trace_file = Some(path),
            Err(e) => report.fail(format!("span file: {e}")),
        }
        report.attempted += 1;
    }

    sys.shut_down();
    let alloc = sys.esys.alloc_stats();
    let nvm_in_use = alloc.bytes_in_use() as f64;
    let live_blocks: i64 = alloc.live_blocks.iter().sum();

    let rec = recover_repeatedly::<B>(cfg, &sys.heap);
    verify_recovered(cfg, &rec.kv, &expected, &mut report);
    drop(sys);

    let write_count = inserts + removes;
    if !cfg.trace {
        time_more_setups::<B>(cfg, &mut setup_s);
        report.e2e("ops_per_s", ops_per_s, "1/s");
        report.e2e("read_p50_us", us(sub_median(1)), "us");
        report.e2e("read_p99_us", us(sub_median(2)), "us");
        report.e2e("write_p50_us", us(sub_median(3)), "us");
        report.e2e("write_p99_us", us(sub_median(4)), "us");
        report.e2e("durable_lag_p50_ms", sub_median(5) / 1e6, "ms");
        report.e2e("durable_lag_p99_ms", sub_median(6) / 1e6, "ms");
        report.e2e(
            "media_bytes_per_user_byte",
            ratio(delta.nvm.media_bytes() as f64, 16.0 * write_count as f64),
            "ratio",
        );
        report.e2e(
            "space_amp",
            ratio(nvm_in_use, 16.0 * live_keys as f64),
            "ratio",
        );
        report.e2e("recovery_s", median(&rec.total_s), "s");
        report.e2e("setup_s", median(&setup_s), "s");
        report.notes.push(format!(
            "repeats: {} set-ups, {} recoveries (medians reported)",
            setup_s.len(),
            rec.total_s.len()
        ));
    } else {
        let window = layers::Window {
            delta: &delta,
            wall_s,
            ops,
            inserts,
            removes,
            live_keys,
            nvm_in_use,
            live_blocks,
            scan_s: median(&rec.scan_s),
            rebuild_s: median(&rec.rebuild_s),
            recovered_live: rec.live_blocks,
            traced_ops,
            traced_mean_ns: ratio(traced_lat_sum as f64, traced_ops as f64),
            crossings,
            ops_per_s,
            traced_ops_per_s,
        };
        let probes = layers::probe(&cfg.nvm);
        layers::per_layer(&window, &probes, &spans, &mut report);
    }
    report
}

/// The clients after the window, each with its per-phase results, and
/// every layer's stats delta over the measured phases with its wall time.
struct Driven<'a, B> {
    clients: Vec<(Client<'a, B>, Vec<PhaseOut>)>,
    delta: Snap,
    wall_s: f64,
}

/// Runs the clients through the phase plan.
fn drive<'a, B: KvBackend>(
    cfg: &RunConfig,
    sys: &'a System<B>,
    streams: &'a [Vec<u64>],
    phases: &[(Mode, Duration)],
) -> Driven<'a, B> {
    let universe = 1u64 << cfg.universe_bits;
    let start = Barrier::new(cfg.clients + 1);
    let end = Barrier::new(cfg.clients + 1);
    let span_capacity = if cfg.trace {
        cfg.epoch.flight_slots / 2
    } else {
        0
    };
    let (mut snap0, mut snap1) = (None, None);
    let clients = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(id, stream)| {
                let (start, end) = (&start, &end);
                let oracle = (cfg.clients == 1)
                    .then(|| (0..universe).map(|k| k % 2 == 0).collect::<Vec<bool>>());
                s.spawn(move || {
                    let mut c = Client {
                        id,
                        kv: &*sys.kv,
                        esys: &sys.esys,
                        origin: sys.origin,
                        stream,
                        pos: 0,
                        oracle,
                        pending: VecDeque::new(),
                        lags: vec![Vec::new(); phases.len()],
                        spans: SpanLog::new(span_capacity),
                        checked: 0,
                        failures: Vec::new(),
                        failed: 0,
                    };
                    let mut outs = Vec::new();
                    for (p, &(mode, dur)) in phases.iter().enumerate() {
                        start.wait();
                        outs.push(c.run_phase(p, mode, dur));
                        end.wait();
                    }
                    c.drain_lags();
                    (c, outs)
                })
            })
            .collect();
        for &(mode, _) in phases {
            if mode != Mode::Warmup && snap0.is_none() {
                snap0 = Some(Snap::take(&sys.esys, &sys.htm));
            }
            start.wait();
            end.wait();
        }
        snap1 = Some(Snap::take(&sys.esys, &sys.htm));
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let snap0 = snap0.expect("the plan has a measured phase");
    let snap1 = snap1.expect("taken after the last phase");
    let wall_s = (snap1.at - snap0.at).as_secs_f64();
    Driven {
        clients,
        delta: snap1.since(&snap0),
        wall_s,
    }
}

/// True once a repeated measurement has `n ≥ min` samples and has run
/// for [`RunConfig::min_repeat_seconds`], or has hit [`MAX_REPEATS`].
/// Short repeats are spaced evenly over that time, so their median
/// samples a shared host over seconds, not over one burst of
/// milliseconds.
fn repeated_enough(cfg: &RunConfig, n: usize, min: usize, since: Instant) -> bool {
    let elapsed = since.elapsed().as_secs_f64();
    if n >= min && (elapsed >= cfg.min_repeat_seconds || n >= MAX_REPEATS) {
        return true;
    }
    let due = cfg.min_repeat_seconds * n as f64 / MAX_REPEATS as f64;
    if due > elapsed {
        std::thread::sleep(Duration::from_secs_f64(due - elapsed));
    }
    false
}

/// Further set-ups for the `setup_s` median, each shut down at once.
/// They run after the window and the recovery: the epoch system walks
/// per-thread slots up to the highest thread id ever issued, so the
/// ticker and persister threads they start must not precede the window.
fn time_more_setups<B: KvBackend>(cfg: &RunConfig, setup_s: &mut Vec<f64>) {
    let since = Instant::now();
    while !repeated_enough(cfg, setup_s.len(), cfg.min_setups, since) {
        let t0 = Instant::now();
        let mut sys = System::<B>::set_up(cfg);
        setup_s.push(t0.elapsed().as_secs_f64());
        sys.shut_down();
    }
}

/// Recovery times of every repeat, and the last recovered structure.
struct Recovered<B> {
    kv: B,
    total_s: Vec<f64>,
    scan_s: Vec<f64>,
    rebuild_s: Vec<f64>,
    live_blocks: u64,
}

/// Crashes the (cleanly shut down) heap and recovers it, repeatedly.
fn recover_repeatedly<B: KvBackend>(cfg: &RunConfig, crashed: &NvmHeap) -> Recovered<B> {
    let (mut total_s, mut scan_s, mut rebuild_s) = (Vec::new(), Vec::new(), Vec::new());
    let since = Instant::now();
    loop {
        // Copying the media image into a fresh simulated heap stands in
        // for a reboot; real NVM survives in place, so timing starts at
        // the recovery procedure: the §5.2 scan, then the rebuild.
        let heap = Arc::new(NvmHeap::from_image(crashed.crash()));
        // Each repeat recovers on a fresh thread, as a restarted process
        // would: per-thread state left by earlier phases (allocator
        // arenas, the skiplist's tower-height generator) stays out of it.
        let (t0, t1, t2, kv, live) = std::thread::scope(|s| {
            s.spawn(|| {
                let t0 = Instant::now();
                let (esys, live) = EpochSys::recover(heap, cfg.epoch.clone(), 1);
                let t1 = Instant::now();
                let htm = Arc::new(Htm::new(HtmConfig::default()));
                let kv = B::recover(cfg.universe_bits, esys, htm, &live);
                (t0, t1, Instant::now(), kv, live.len())
            })
            .join()
            .expect("recovery thread panicked")
        });
        total_s.push((t2 - t0).as_secs_f64());
        scan_s.push((t1 - t0).as_secs_f64());
        rebuild_s.push((t2 - t1).as_secs_f64());
        if repeated_enough(cfg, total_s.len(), cfg.min_recoveries, since) {
            return Recovered {
                kv,
                total_s,
                scan_s,
                rebuild_s,
                live_blocks: live as u64,
            };
        }
    }
}

/// The recovered structure must pass `validate()` and hold exactly the
/// pre-crash contents.
fn verify_recovered<B: KvBackend>(cfg: &RunConfig, kv: &B, expected: &[bool], report: &mut Report) {
    report.attempted += 1;
    if let Err(e) = kv.validate() {
        report.fail(format!("recovered structure fails validate(): {e}"));
    }
    for key in 0..1u64 << cfg.universe_bits {
        report.attempted += 1;
        let got = kv.get(key);
        let want = expected[key as usize].then(|| value_of(key));
        if got != want {
            report.fail(format!(
                "after recovery get({key}) = {got:?}, before crash {want:?}"
            ));
        }
    }
}
