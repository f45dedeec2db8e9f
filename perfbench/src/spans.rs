//! Per-op spans of the traced run, kept in memory and written out with
//! the program's flight recorder as one Chrome `trace_event` file.

use crate::run::RunConfig;
use bdhtm_core::{EpochSys, JsonValue};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::PathBuf;

/// Slowest spans kept per client, verbatim, over the whole traced window.
const EXEMPLARS: usize = 32;

/// One client op as the benchmark saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanRecord {
    pub client: u32,
    /// 0 = get, 1 = insert, 2 = remove (the packed op kinds).
    pub kind: u32,
    pub key: u64,
    /// Nanoseconds since the epoch system was built (the flight
    /// recorder's clock, to within the few µs `EpochSys::format` takes).
    pub start_ns: u64,
    pub dur_ns: u32,
    /// Active epoch just before the call and just after it returned.
    pub epoch_begin: u64,
    pub epoch_end: u64,
}

/// A client's spans: the most recent `capacity` (matching the flight
/// recorder's window) plus the slowest [`EXEMPLARS`] of the window.
pub struct SpanLog {
    ring: Vec<SpanRecord>,
    next: usize,
    capacity: usize,
    slowest: BinaryHeap<Reverse<(u32, SpanRecord)>>,
}

impl SpanLog {
    pub fn new(capacity: usize) -> SpanLog {
        SpanLog {
            ring: Vec::with_capacity(capacity),
            next: 0,
            capacity,
            slowest: BinaryHeap::with_capacity(EXEMPLARS + 1),
        }
    }

    #[inline]
    pub fn push(&mut self, s: SpanRecord) {
        if self.capacity == 0 {
            return;
        }
        if self.ring.len() < self.capacity {
            self.ring.push(s);
        } else {
            self.ring[self.next] = s;
        }
        self.next = (self.next + 1) % self.capacity;
        if self.slowest.len() < EXEMPLARS {
            self.slowest.push(Reverse((s.dur_ns, s)));
        } else if self
            .slowest
            .peek()
            .is_some_and(|Reverse((d, _))| s.dur_ns > *d)
        {
            self.slowest.pop();
            self.slowest.push(Reverse((s.dur_ns, s)));
        }
    }

    /// The recent window, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &SpanRecord> {
        let (a, b) = self.ring.split_at(self.next.min(self.ring.len()));
        b.iter().chain(a)
    }

    /// The slowest spans of the whole traced window.
    pub fn slowest(&self) -> Vec<SpanRecord> {
        self.slowest.iter().map(|Reverse((_, s))| *s).collect()
    }
}

fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn event(s: &SpanRecord, cat: &str, tid: u32) -> String {
    let name = ["get", "insert", "remove"][s.kind as usize % 3];
    format!(
        "    {{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":2,\"tid\":{tid},\
         \"args\":{{\"key\":{},\"epoch_begin\":{},\"epoch_end\":{},\"crossed_advance\":{}}}}}",
        us(s.start_ns),
        us(s.dur_ns as u64),
        s.key,
        s.epoch_begin,
        s.epoch_end,
        s.epoch_begin != s.epoch_end
    )
}

/// Writes the client spans and the program's flight recorder
/// (`trace::chrome_trace_from_obs`) into one trace file per workload (a
/// later traced run replaces it, so repeated runs do not pile up tens of
/// MB each), checks that it parses, and returns its path. Client ops sit in process 2, one track
/// per client plus one track of slowest-op exemplars per client; the
/// program's own tracks stay in process 1.
pub fn export(cfg: &RunConfig, esys: &EpochSys, logs: &[SpanLog]) -> Result<PathBuf, String> {
    let program = bdhtm_core::trace::chrome_trace_from_obs(esys.obs());
    let marker = "\"traceEvents\": [\n";
    let at = program
        .find(marker)
        .ok_or("flight-recorder trace has no traceEvents array")?
        + marker.len();
    let mut mine: Vec<String> = vec![
        "    {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"perfbench clients\"}}"
            .to_string(),
    ];
    for (c, log) in logs.iter().enumerate() {
        let c = c as u32;
        mine.push(format!(
            "    {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":{c},\"args\":{{\"name\":\"client-{c}\"}}}}"
        ));
        mine.push(format!(
            "    {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":{},\"args\":{{\"name\":\"client-{c} slowest\"}}}}",
            100 + c
        ));
        mine.extend(log.recent().map(|s| event(s, "op", c)));
        mine.extend(log.slowest().iter().map(|s| event(s, "exemplar", 100 + c)));
    }
    let text = format!(
        "{}{},\n{}",
        &program[..at],
        mine.join(",\n"),
        &program[at..]
    );
    let doc = JsonValue::parse(&text).map_err(|e| format!("span file does not parse: {e}"))?;
    let n = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .map_or(0, <[JsonValue]>::len);
    if n < mine.len() {
        return Err(format!(
            "span file holds {n} events, fewer than the {} written",
            mine.len()
        ));
    }
    std::fs::create_dir_all(&cfg.trace_dir).map_err(|e| e.to_string())?;
    let path = cfg.trace_dir.join(format!("trace-{}.json", cfg.workload));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
