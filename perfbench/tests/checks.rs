//! The benchmark's output checks must not be vacuous: a structure that
//! returns one wrong value, or loses one key across recovery, has to
//! show up as a nonzero `error_rate`. Small configurations (2^10 keys,
//! zero device latency, fractions of a second) keep these fast.

use bdhtm_core::{EpochConfig, EpochSys, JsonValue, LiveBlock};
use htm_sim::Htm;
use nvm_sim::NvmConfig;
use perfbench::{run, Keys, KvBackend, Report, RunConfig};
use skiplist::BdlSkiplist;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use veb::PhtmVeb;

fn small(clients: usize, trace: bool) -> RunConfig {
    RunConfig {
        workload: format!("checks-{clients}"),
        universe_bits: 10,
        keys: Keys::Zipf(0.99),
        read_fraction: 0.5,
        clients,
        seed: 3,
        seconds: 0.2,
        warmup_seconds: 0.05,
        stream_ops: 1 << 14,
        nvm: NvmConfig::for_tests(16 << 20),
        epoch: EpochConfig::default().with_flight_slots(1 << 10),
        min_setups: 1,
        min_recoveries: 1,
        min_repeat_seconds: 0.0,
        trace,
        trace_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    }
}

/// Delegates to `B` but returns a corrupted value from one successful
/// read in the measured stream.
struct CorruptOneRead<B> {
    inner: B,
    hits: AtomicU64,
}

/// Delegates to `B` but loses one key when rebuilt after a crash.
struct DropKeyOnRecover<B>(B);

impl<B: KvBackend> KvBackend for CorruptOneRead<B> {
    fn create(bits: u32, esys: Arc<EpochSys>, htm: Arc<Htm>) -> Self {
        CorruptOneRead {
            inner: B::create(bits, esys, htm),
            hits: AtomicU64::new(0),
        }
    }

    fn recover(bits: u32, esys: Arc<EpochSys>, htm: Arc<Htm>, live: &[LiveBlock]) -> Self {
        CorruptOneRead {
            inner: B::recover(bits, esys, htm, live),
            hits: AtomicU64::new(u64::MAX / 2),
        }
    }

    fn get(&self, key: u64) -> Option<u64> {
        let v = self.inner.get(key);
        if v.is_some() && self.hits.fetch_add(1, Ordering::Relaxed) == 100 {
            return v.map(|v| v ^ 1);
        }
        v
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        self.inner.insert(key, value)
    }

    fn remove(&self, key: u64) -> bool {
        self.inner.remove(key)
    }

    fn validate(&self) -> Result<(), String> {
        self.inner.validate()
    }

    fn drain_preallocated(&self) {
        self.inner.drain_preallocated()
    }
}

impl<B: KvBackend> KvBackend for DropKeyOnRecover<B> {
    fn create(bits: u32, esys: Arc<EpochSys>, htm: Arc<Htm>) -> Self {
        DropKeyOnRecover(B::create(bits, esys, htm))
    }

    fn recover(bits: u32, esys: Arc<EpochSys>, htm: Arc<Htm>, live: &[LiveBlock]) -> Self {
        let kv = B::recover(bits, esys, htm, live);
        let lost = (0..1u64 << bits).find(|&k| kv.remove(k));
        assert!(
            lost.is_some(),
            "nothing to lose: recovered structure is empty"
        );
        DropKeyOnRecover(kv)
    }

    fn get(&self, key: u64) -> Option<u64> {
        self.0.get(key)
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        self.0.insert(key, value)
    }

    fn remove(&self, key: u64) -> bool {
        self.0.remove(key)
    }

    fn validate(&self) -> Result<(), String> {
        self.0.validate()
    }

    fn drain_preallocated(&self) {
        self.0.drain_preallocated()
    }
}

fn assert_clean(r: &Report) {
    assert_eq!(r.failed, 0, "failures: {:?}", r.failures);
    assert!(r.attempted > 1000);
}

fn assert_caught(r: &Report) {
    assert!(r.failed > 0, "a faulty structure passed every check");
    assert!(r.error_rate() > 0.0);
}

#[test]
fn correct_structures_run_clean() {
    assert_clean(&run::<PhtmVeb>(&small(1, false)));
    assert_clean(&run::<BdlSkiplist>(&small(2, false)));
}

#[test]
fn a_corrupted_read_is_caught_by_the_oracle() {
    assert_caught(&run::<CorruptOneRead<PhtmVeb>>(&small(1, false)));
}

#[test]
fn a_corrupted_read_is_caught_without_an_oracle() {
    assert_caught(&run::<CorruptOneRead<BdlSkiplist>>(&small(2, false)));
}

#[test]
fn a_key_lost_in_recovery_is_caught() {
    assert_caught(&run::<DropKeyOnRecover<PhtmVeb>>(&small(1, false)));
    assert_caught(&run::<DropKeyOnRecover<BdlSkiplist>>(&small(2, false)));
}

/// The metric names a run reports are exactly the ones `BENCHMARK.json`
/// declares, and the traced run's span file loads as a trace.
#[test]
fn reported_metrics_match_the_declared_ones() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let decl = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        decl.get(key)
            .and_then(JsonValue::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    let untraced = run::<PhtmVeb>(&small(1, false));
    assert_clean(&untraced);
    let got: Vec<String> = untraced.end_to_end.iter().map(|m| m.name.clone()).collect();
    assert_eq!(got, names("end_to_end"));

    let traced = run::<BdlSkiplist>(&small(2, true));
    assert_clean(&traced);
    let got: Vec<String> = traced.per_layer.iter().map(|m| m.name.clone()).collect();
    assert_eq!(got, names("per_layer"));
    let path = traced.trace_file.expect("traced run writes a span file");
    let trace =
        JsonValue::parse(&std::fs::read_to_string(path).expect("span file")).expect("parses");
    let events = trace
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("events");
    assert!(events
        .iter()
        .any(|e| e.get("cat").and_then(JsonValue::as_str) == Some("exemplar")));
}
