//! Validates the observability outputs of the experiment binaries:
//! parses them with the in-tree JSON reader, checks the schema headers,
//! and asserts the coherence invariants that hold for any correctly
//! assembled output. Used by ci.sh as the metrics smoke gate.
//!
//! ```sh
//! cargo run --release -q --example quickstart -- --metrics-json m.json
//! cargo run --release -p bench --bin metrics_check -- m.json
//! cargo run --release -p bench --bin metrics_check -- --series s.jsonl
//! cargo run --release -p bench --bin metrics_check -- --trace t.json
//! cargo run --release -p bench --bin metrics_check -- \
//!     --compare-pipeline sync.json pipe.json --out BENCH_pipeline.json
//! ```
//!
//! Exits 0 and prints a one-line summary on success; exits 1 with a
//! diagnostic on the first violated invariant.
//!
//! `--series` validates a `--metrics-series` JSON-lines stream: every
//! line must carry the series schema header, sequence numbers must be
//! dense from 0, timestamps monotone, and each embedded delta report
//! must satisfy the same invariants as a full report (deltas inherit
//! them: counts difference, the running max bounds the delta quantiles).
//!
//! `--trace` validates a `--trace-out` Chrome trace_event file: the
//! document must parse, every event must carry a known phase, complete
//! spans need non-negative durations, spans on one (pid, tid) track
//! must not overlap (a thread runs one op attempt at a time, and each
//! attempt is one span), and durability-lag flow arrows must come in
//! matched start/finish pairs. The summary line reports the arrow
//! count, which ci.sh requires to be nonzero.
//!
//! `--compare-pipeline` validates two reports from the same workload —
//! one with synchronous (inline) epoch persistence, one with the
//! background persister — and gates the pipeline's perf claims:
//! the two `advance_ns` histograms must carry the *same sample count*
//! (produce them with `fig7_epoch_length --gate-advances N`; quantiles
//! over different population sizes are not comparable), pipelined
//! `advance_ns` p99 must beat the synchronous p99, and the intake-time
//! dedup means write amplification must not regress (≤ 1.10× the
//! synchronous run's). The comparison is written as JSON to the
//! `--out` path.

use bdhtm_core::obs::{JsonValue, METRICS_SCHEMA, METRICS_SERIES_SCHEMA, METRICS_VERSION};
use std::collections::HashMap;

fn fail(msg: &str) -> ! {
    eprintln!("metrics_check: {msg}");
    std::process::exit(1);
}

fn req<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
    v.get(key)
        .unwrap_or_else(|| fail(&format!("missing key {key:?}")))
}

fn req_u64(v: &JsonValue, key: &str) -> u64 {
    req(v, key)
        .as_u64()
        .unwrap_or_else(|| fail(&format!("key {key:?} is not a non-negative integer")))
}

fn check_hist(name: &str, h: &JsonValue) {
    let count = req_u64(h, "count");
    let max = req_u64(h, "max");
    let p50 = req_u64(h, "p50");
    let p95 = req_u64(h, "p95");
    let p99 = req_u64(h, "p99");
    if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
        fail(&format!(
            "histogram {name}: quantiles not monotone (p50={p50} p95={p95} p99={p99} max={max})"
        ));
    }
    let bucket_total: u64 = req(h, "buckets")
        .as_arr()
        .unwrap_or_else(|| fail(&format!("histogram {name}: buckets is not an array")))
        .iter()
        .map(|pair| {
            let pair = pair
                .as_arr()
                .unwrap_or_else(|| fail(&format!("histogram {name}: bucket entry not a pair")));
            if pair.len() != 2 {
                fail(&format!("histogram {name}: bucket entry not a pair"));
            }
            pair[1]
                .as_u64()
                .unwrap_or_else(|| fail(&format!("histogram {name}: bucket count not an integer")))
        })
        .sum();
    if bucket_total != count {
        fail(&format!(
            "histogram {name}: bucket counts sum to {bucket_total}, count says {count}"
        ));
    }
}

/// Loads a report and runs every single-file invariant check on it.
/// Returns the parsed document plus the summary fragments.
fn load_and_check(path: &str) -> (JsonValue, Vec<String>) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let doc = JsonValue::parse(&text).unwrap_or_else(|e| fail(&format!("invalid JSON: {e}")));
    let summary = check_report(&doc);
    (doc, summary)
}

/// Runs every invariant check on an already-parsed report document
/// (a standalone `--metrics-json` file, or one embedded `delta` of a
/// series line). Returns the summary fragments.
fn check_report(doc: &JsonValue) -> Vec<String> {
    // Schema header.
    if req(doc, "schema").as_str() != Some(METRICS_SCHEMA) {
        fail(&format!("schema is not {METRICS_SCHEMA:?}"));
    }
    // Only the current schema version is accepted: every producer is
    // in this repository and writes it.
    let version = req_u64(doc, "version");
    if version != METRICS_VERSION {
        fail(&format!("version {version} is not {METRICS_VERSION}"));
    }

    // HTM coherence: attempts = commits + sum of abort causes.
    let mut summary = Vec::new();
    if let Some(htm) = doc.get("htm") {
        let attempts = req_u64(htm, "attempts");
        let commits = req_u64(htm, "commits");
        let aborts: u64 = match req(htm, "aborts") {
            JsonValue::Obj(members) => members
                .iter()
                .map(|(cause, n)| {
                    n.as_u64()
                        .unwrap_or_else(|| fail(&format!("abort count {cause:?} not an integer")))
                })
                .sum(),
            _ => fail("htm.aborts is not an object"),
        };
        if attempts != commits + aborts {
            fail(&format!(
                "htm incoherent: attempts={attempts} != commits={commits} + aborts={aborts}"
            ));
        }
        summary.push(format!("htm attempts={attempts}"));
    }

    // Derived gauges: the frontier never passes the clock.
    if let Some(d) = doc.get("derived") {
        let current = req_u64(d, "current_epoch");
        let frontier = req_u64(d, "persisted_frontier");
        let lag = req_u64(d, "frontier_lag");
        if frontier > current {
            fail(&format!(
                "derived incoherent: persisted_frontier={frontier} > current_epoch={current}"
            ));
        }
        if lag != current - frontier {
            fail(&format!(
                "derived incoherent: frontier_lag={lag} != {current} - {frontier}"
            ));
        }
        summary.push(format!("frontier_lag={lag}"));
        // Lag gauges: quantiles monotone, consistent with the
        // durability_lag_ns histogram when both are present.
        let p50 = req_u64(d, "durability_lag_p50");
        let p99 = req_u64(d, "durability_lag_p99");
        let max = req_u64(d, "durability_lag_max");
        if !(p50 <= p99 && p99 <= max) {
            fail(&format!(
                "derived incoherent: durability lag quantiles not monotone \
                 (p50={p50} p99={p99} max={max})"
            ));
        }
        let _ = req_u64(d, "lag_spans_dropped");
        let _ = req_u64(d, "flight_events_dropped");
        summary.push(format!("lag_p99={p99}ns"));
        // Pool gauges: the worker count (a gauge of *attached* pool
        // threads — legitimately 0 in inline-persist mode) and a
        // well-formed per-worker write-back array. (No
        // sum-vs-words_persisted cross-check: the columns advance at
        // chunk completion, the total at batch completion, so a
        // mid-flight batch legitimately puts them out of step within
        // one sample.)
        let workers = req_u64(d, "persist_workers");
        let per_worker = req(d, "persist_worker_words")
            .as_arr()
            .unwrap_or_else(|| fail("persist_worker_words is not an array"));
        for w in per_worker {
            if w.as_u64().is_none() {
                fail("persist_worker_words entry not a non-negative integer");
            }
        }
        if let Some(e) = doc.get("epoch") {
            let _ = req_u64(e, "coalesced_flushes");
        }
        summary.push(format!("persist_workers={workers}"));
    }

    // Histograms: monotone quantiles, bucket counts sum to count.
    match req(doc, "histograms") {
        JsonValue::Obj(members) => {
            for (name, h) in members {
                check_hist(name, h);
            }
            if doc.get("derived").is_some() {
                for required in ["durability_lag_ns", "persist_chunks"] {
                    if !members.iter().any(|(n, _)| n == required) {
                        fail(&format!("report with an epoch system lacks {required}"));
                    }
                }
            }
            summary.push(format!("{} histograms", members.len()));
        }
        _ => fail("histograms is not an object"),
    }

    summary
}

/// The `--series` gate: validates a sampler JSON-lines stream.
fn check_series(path: &str) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let mut prev_t = 0u64;
    let mut n = 0u64;
    for (i, line) in text.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        let doc = JsonValue::parse(line)
            .unwrap_or_else(|e| fail(&format!("line {}: invalid JSON: {e}", i + 1)));
        if req(&doc, "schema").as_str() != Some(METRICS_SERIES_SCHEMA) {
            fail(&format!(
                "line {}: schema is not {METRICS_SERIES_SCHEMA:?}",
                i + 1
            ));
        }
        let version = req_u64(&doc, "version");
        if version != METRICS_VERSION {
            fail(&format!(
                "line {}: version {version} is not {METRICS_VERSION}",
                i + 1
            ));
        }
        let seq = req_u64(&doc, "seq");
        if seq != i as u64 {
            fail(&format!(
                "line {}: seq {seq} not dense (expected {i})",
                i + 1
            ));
        }
        let t = req_u64(&doc, "t_ns");
        if t < prev_t {
            fail(&format!(
                "line {}: t_ns {t} goes backwards (previous {prev_t})",
                i + 1
            ));
        }
        prev_t = t;
        check_report(req(&doc, "delta"));
        n += 1;
    }
    if n == 0 {
        fail("series is empty: a run must emit at least its final flush sample");
    }
    println!(
        "metrics_check: series OK ({n} samples over {:.1} ms)",
        prev_t as f64 / 1e6
    );
}

/// The `--trace` gate: validates a Chrome trace_event export.
fn check_trace(path: &str) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let doc = JsonValue::parse(&text).unwrap_or_else(|e| fail(&format!("invalid JSON: {e}")));
    let events = req(&doc, "traceEvents")
        .as_arr()
        .unwrap_or_else(|| fail("traceEvents is not an array"));
    if events.is_empty() {
        fail("trace has no events");
    }
    // Fractional-µs timestamps back to integer ns, so abutting spans
    // compare exactly.
    let ns = |us: f64| (us * 1000.0).round() as i64;
    let mut tracks: HashMap<(u64, u64), Vec<(i64, i64)>> = HashMap::new();
    let mut spans = 0u64;
    let mut instants = 0u64;
    let mut flow_starts = 0u64;
    let mut flow_finishes = 0u64;
    for (i, e) in events.iter().enumerate() {
        let ph = req(e, "ph")
            .as_str()
            .unwrap_or_else(|| fail(&format!("event {i}: ph is not a string")));
        match ph {
            "X" => {
                spans += 1;
                let dur = req(e, "dur").as_f64().unwrap_or_else(|| {
                    fail(&format!("event {i}: complete span without a duration"))
                });
                if dur < 0.0 {
                    fail(&format!("event {i}: span duration {dur} is negative"));
                }
                let ts = req(e, "ts")
                    .as_f64()
                    .unwrap_or_else(|| fail(&format!("event {i}: missing timestamp")));
                tracks
                    .entry((req_u64(e, "pid"), req_u64(e, "tid")))
                    .or_default()
                    .push((ns(ts), ns(dur)));
            }
            "i" => instants += 1,
            "s" => flow_starts += 1,
            "f" => flow_finishes += 1,
            "M" => {
                if req(e, "args")
                    .get("name")
                    .and_then(|n| n.as_str())
                    .is_none()
                {
                    fail(&format!("event {i}: metadata record without a name"));
                }
                continue; // metadata carries no timestamp
            }
            other => fail(&format!("event {i}: unknown phase {other:?}")),
        }
        if req(e, "ts").as_f64().is_none() {
            fail(&format!("event {i}: missing timestamp"));
        }
        let _ = req(e, "tid");
    }
    if flow_starts != flow_finishes {
        fail(&format!(
            "durability-lag arrows unbalanced: {flow_starts} starts, {flow_finishes} finishes"
        ));
    }
    for ((pid, tid), mut track) in tracks {
        track.sort_unstable();
        for w in track.windows(2) {
            let ((t0, d0), (t1, _)) = (w[0], w[1]);
            if t1 < t0 + d0 {
                fail(&format!(
                    "track pid {pid} tid {tid}: span at {t1} ns starts inside the span \
                     {t0}+{d0} ns"
                ));
            }
        }
    }
    let meta = req(&doc, "metadata");
    let dropped = req_u64(meta, "events_dropped");
    println!(
        "metrics_check: trace OK ({spans} spans, {instants} instants, \
         {flow_starts} lag arrows, {dropped} events dropped)"
    );
}

/// Pulls `histograms.<name>.<field>` out of a validated report.
fn hist_u64(doc: &JsonValue, ctx: &str, name: &str, field: &str) -> u64 {
    let h = req(doc, "histograms")
        .get(name)
        .unwrap_or_else(|| fail(&format!("{ctx}: missing histogram {name:?}")));
    req_u64(h, field)
}

fn write_amplification(doc: &JsonValue, ctx: &str) -> f64 {
    let nvm = doc
        .get("nvm")
        .unwrap_or_else(|| fail(&format!("{ctx}: report has no nvm section")));
    req(nvm, "write_amplification")
        .as_f64()
        .unwrap_or_else(|| fail(&format!("{ctx}: write_amplification is not a number")))
}

/// The sync-vs-pipelined perf gate (see module docs).
fn compare_pipeline(sync_path: &str, pipe_path: &str, out: Option<&str>) {
    let (sync_doc, _) = load_and_check(sync_path);
    let (pipe_doc, _) = load_and_check(pipe_path);

    let sync_n = hist_u64(&sync_doc, sync_path, "advance_ns", "count");
    let pipe_n = hist_u64(&pipe_doc, pipe_path, "advance_ns", "count");
    if sync_n == 0 || pipe_n == 0 {
        fail(&format!(
            "advance_ns is empty (sync count={sync_n}, pipelined count={pipe_n}); \
             the runs must actually advance epochs for the comparison to mean anything"
        ));
    }
    if sync_n != pipe_n {
        fail(&format!(
            "advance_ns sample counts differ (sync {sync_n}, pipelined {pipe_n}); \
             quantiles over different population sizes are not comparable — \
             produce the reports with fig7_epoch_length --gate-advances N"
        ));
    }
    let sync_p99 = hist_u64(&sync_doc, sync_path, "advance_ns", "p99");
    let pipe_p99 = hist_u64(&pipe_doc, pipe_path, "advance_ns", "p99");
    if pipe_p99 >= sync_p99 {
        fail(&format!(
            "pipelined advance_ns p99 ({pipe_p99} ns) does not beat synchronous ({sync_p99} ns)"
        ));
    }

    let sync_wa = write_amplification(&sync_doc, sync_path);
    let pipe_wa = write_amplification(&pipe_doc, pipe_path);
    if pipe_wa > sync_wa * 1.10 {
        fail(&format!(
            "pipelined write_amplification ({pipe_wa:.4}) regresses past 1.10x synchronous ({sync_wa:.4})"
        ));
    }

    let json = format!(
        "{{\"comparison\":\"pipeline\",\"sync\":{{\"advance_ns_p99\":{sync_p99},\
         \"advance_ns_count\":{sync_n},\"write_amplification\":{sync_wa:.6}}},\
         \"pipelined\":{{\"advance_ns_p99\":{pipe_p99},\"advance_ns_count\":{pipe_n},\
         \"write_amplification\":{pipe_wa:.6}}},\
         \"advance_p99_speedup\":{:.4}}}",
        sync_p99 as f64 / pipe_p99.max(1) as f64
    );
    if let Some(path) = out {
        std::fs::write(path, &json).unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
    }
    println!(
        "metrics_check: pipeline OK (advance p99 {sync_p99} -> {pipe_p99} ns, \
         WA {sync_wa:.3} -> {pipe_wa:.3})"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match (args.first().map(String::as_str), args.get(1)) {
        (Some("--series"), Some(path)) => {
            check_series(path);
            return;
        }
        (Some("--trace"), Some(path)) => {
            check_trace(path);
            return;
        }
        (Some("--series" | "--trace"), None) => {
            fail("usage: metrics_check --series <series.jsonl> | --trace <trace.json>");
        }
        _ => {}
    }
    if args.first().map(String::as_str) == Some("--compare-pipeline") {
        let mut rest = args[1..].iter();
        let sync_path = rest.next();
        let pipe_path = rest.next();
        let (Some(sync_path), Some(pipe_path)) = (sync_path, pipe_path) else {
            fail("usage: metrics_check --compare-pipeline <sync.json> <pipelined.json> [--out <path>]");
        };
        let mut out = None;
        while let Some(a) = rest.next() {
            match a.as_str() {
                "--out" => out = rest.next().map(String::as_str),
                other => fail(&format!("unknown argument {other:?}")),
            }
        }
        compare_pipeline(sync_path, pipe_path, out);
        return;
    }
    let Some(path) = args.first() else {
        fail(
            "usage: metrics_check <report.json> | --series <s.jsonl> | --trace <t.json> \
             | --compare-pipeline ...",
        );
    };
    let (_, summary) = load_and_check(path);
    println!("metrics_check: OK ({})", summary.join(", "));
}
