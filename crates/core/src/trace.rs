//! Chrome `trace_event` / Perfetto export of the flight recorder.
//!
//! [`chrome_trace`] converts a [`FlightRecorder`](crate::FlightRecorder)
//! dump into the JSON object format consumed by `chrome://tracing` and
//! <https://ui.perfetto.dev>: one track per worker thread showing each
//! operation as a complete ("X") span from `OpBegin` to its
//! commit/abort/panic, three virtual tracks for the epoch clock, the
//! persist pipeline, and health events, and one flow arrow per epoch
//! from its last commit to the `BatchPersisted` that made it durable —
//! the durability lag of §3, drawn.
//!
//! Timestamps are the recorder's shared monotonic clock (µs in the
//! output, as the format requires), so span edges, epoch seals, and the
//! lag arrows all line up on one timeline. The trace `metadata` block
//! carries `events_dropped` / `lag_spans_dropped` so a reader knows
//! when ring wrap truncated the window (raise
//! [`EpochConfig::flight_slots`](crate::EpochConfig::with_flight_slots)
//! to widen it).

use crate::obs::{EventKind, FlightEvent, Obs, ABORT_RESTART, ABORT_UNWIND};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Virtual track ids for events that belong to the system, not a worker.
const TID_EPOCH: usize = 1000;
const TID_PERSIST: usize = 1001;
const TID_HEALTH: usize = 1002;

/// Run-level facts embedded in the trace `metadata` object.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceMeta {
    /// Flight-ring events overwritten by wrap (missing from the trace).
    pub events_dropped: u64,
    /// Commit→durable spans whose epoch never published (see
    /// [`DerivedGauges::lag_spans_dropped`](crate::obs::DerivedGauges)).
    pub lag_spans_dropped: u64,
}

/// Escapes a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Microsecond timestamp with nanosecond precision, as the format's
/// fractional-µs convention expects.
fn us(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1000, t_ns % 1000)
}

struct Events(String);

impl Events {
    fn push(&mut self, body: &str) {
        if !self.0.is_empty() {
            self.0.push_str(",\n");
        }
        self.0.push_str("    {");
        self.0.push_str(body);
        self.0.push('}');
    }

    /// A complete ("X") span.
    fn span(&mut self, name: &str, cat: &str, tid: usize, t_ns: u64, dur_ns: u64, args: &str) {
        self.push(&format!(
            "\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{{}}}",
            esc(name), cat, us(t_ns), us(dur_ns), tid, args
        ));
    }

    /// A thread-scoped instant ("i").
    fn instant(&mut self, name: &str, cat: &str, tid: usize, t_ns: u64, args: &str) {
        self.push(&format!(
            "\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{{}}}",
            esc(name), cat, us(t_ns), tid, args
        ));
    }

    /// A flow start ("s") or finish ("f", binding to the enclosing
    /// slice's end) — one arrow per epoch, commit → frontier publish.
    fn flow(&mut self, phase: char, id: u64, tid: usize, t_ns: u64) {
        let bp = if phase == 'f' { ",\"bp\":\"e\"" } else { "" };
        self.push(&format!(
            "\"name\":\"durability-lag\",\"cat\":\"lag\",\"ph\":\"{}\",\"id\":{}{},\"ts\":{},\"pid\":1,\"tid\":{}",
            phase, id, bp, us(t_ns), tid
        ));
    }

    /// A metadata ("M") record naming a process or thread.
    fn name_meta(&mut self, what: &str, tid: Option<usize>, name: &str) {
        let tid_field = tid.map(|t| format!(",\"tid\":{t}")).unwrap_or_default();
        self.push(&format!(
            "\"name\":\"{}\",\"ph\":\"M\",\"pid\":1{},\"args\":{{\"name\":\"{}\"}}",
            what,
            tid_field,
            esc(name)
        ));
    }
}

fn abort_cause(tag: u64) -> String {
    match tag {
        ABORT_RESTART => "\"restart\"".to_string(),
        ABORT_UNWIND => "\"unwind\"".to_string(),
        tag => format!("\"explicit({:#04x})\"", tag - 1),
    }
}

/// Renders a flight-recorder dump as a Chrome `trace_event` JSON
/// document. `events` must be timestamp-ordered, as
/// [`FlightRecorder::dump`](crate::FlightRecorder::dump) returns them.
pub fn chrome_trace(events: &[FlightEvent], meta: &TraceMeta) -> String {
    let mut out = Events(String::new());

    // Track names. Worker tracks appear in tid order; virtual tracks
    // sit above them (Perfetto sorts by name within a process, so the
    // 1000+ ids keep them grouped at the bottom).
    out.name_meta("process_name", None, "bd-htm");
    let mut tids: Vec<usize> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for &tid in &tids {
        out.name_meta("thread_name", Some(tid), &format!("worker-{tid:02}"));
    }
    out.name_meta("thread_name", Some(TID_EPOCH), "epoch clock");
    out.name_meta("thread_name", Some(TID_PERSIST), "persist pipeline");
    out.name_meta("thread_name", Some(TID_HEALTH), "health");

    // One pass for the flow endpoints: per epoch, the LAST commit (the
    // span the histogram's max tracks) and the frontier publish.
    let mut last_commit: HashMap<u64, (usize, u64)> = HashMap::new();
    let mut published: HashMap<u64, u64> = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::OpCommit => {
                last_commit.insert(e.a, (e.tid, e.t_ns));
            }
            EventKind::BatchPersisted => {
                published.entry(e.a).or_insert(e.t_ns);
            }
            _ => {}
        }
    }

    // Per-thread open op, for pairing OpBegin with its terminal event.
    let mut open: HashMap<usize, u64> = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::OpBegin => {
                // A begin with a still-open predecessor means the
                // terminal event was lost to ring wrap; render the
                // orphan as an instant so it stays visible.
                if let Some(t0) = open.insert(e.tid, e.t_ns) {
                    out.instant(
                        "op (end lost)",
                        "op",
                        e.tid,
                        t0,
                        &format!("\"epoch\":{}", e.a),
                    );
                }
            }
            EventKind::OpCommit | EventKind::OpAbort | EventKind::OpPanicked => {
                let (name, args) = match e.kind {
                    EventKind::OpCommit => {
                        ("op", format!("\"epoch\":{},\"restarts\":{}", e.a, e.b))
                    }
                    EventKind::OpAbort => (
                        "op (abort)",
                        format!("\"epoch\":{},\"cause\":{}", e.a, abort_cause(e.b)),
                    ),
                    _ => (
                        "op (panic)",
                        format!("\"epoch\":{},\"restarts\":{}", e.a, e.b),
                    ),
                };
                match open.remove(&e.tid) {
                    Some(t0) => out.span(name, "op", e.tid, t0, e.t_ns.saturating_sub(t0), &args),
                    // Begin lost to ring wrap: zero-width span at the end.
                    None => out.span(name, "op", e.tid, e.t_ns, 0, &args),
                }
                // Durability-lag arrow: from the epoch's last commit to
                // the instant its frontier published.
                if e.kind == EventKind::OpCommit
                    && last_commit.get(&e.a) == Some(&(e.tid, e.t_ns))
                    && published.contains_key(&e.a)
                {
                    out.flow('s', e.a, e.tid, e.t_ns);
                }
            }
            EventKind::EpochAdvance => out.instant(
                "epoch-advance",
                "epoch",
                TID_EPOCH,
                e.t_ns,
                &format!("\"epoch\":{},\"frontier\":{}", e.a, e.b),
            ),
            EventKind::BatchSealed => out.instant(
                "batch-sealed",
                "epoch",
                TID_EPOCH,
                e.t_ns,
                &format!("\"blocks\":{},\"words\":{}", e.a, e.b),
            ),
            EventKind::PipelineStall => out.instant(
                "pipeline-stall",
                "epoch",
                TID_EPOCH,
                e.t_ns,
                &format!("\"in_flight\":{},\"depth\":{}", e.a, e.b),
            ),
            EventKind::BatchPersisted => {
                out.instant(
                    "frontier-publish",
                    "persist",
                    TID_PERSIST,
                    e.t_ns,
                    &format!("\"frontier\":{},\"blocks\":{}", e.a, e.b),
                );
                if published.get(&e.a) == Some(&e.t_ns) && last_commit.contains_key(&e.a) {
                    out.flow('f', e.a, TID_PERSIST, e.t_ns);
                }
            }
            EventKind::PersistRetry => out.instant(
                "persist-retry",
                "persist",
                TID_PERSIST,
                e.t_ns,
                &format!("\"epoch\":{},\"attempt\":{}", e.a, e.b),
            ),
            EventKind::Backpressure => out.instant(
                "backpressure",
                "health",
                TID_HEALTH,
                e.t_ns,
                &format!("\"buffered\":{},\"bound\":{}", e.a, e.b),
            ),
            EventKind::DegradedToSync => out.instant(
                "health-ratchet",
                "health",
                TID_HEALTH,
                e.t_ns,
                &format!(
                    "\"to\":\"{}\",\"cause_epoch\":{}",
                    crate::HealthState::from_code(e.a.min(u8::MAX as u64) as u8).as_str(),
                    e.b
                ),
            ),
            EventKind::WatchdogFired => out.instant(
                "watchdog-fired",
                "health",
                TID_HEALTH,
                e.t_ns,
                &format!("\"reason\":{},\"consecutive\":{}", e.a, e.b),
            ),
            EventKind::FaultInjected => out.instant(
                "fault-injected",
                "health",
                TID_HEALTH,
                e.t_ns,
                &format!("\"point\":{},\"kind\":{}", e.a, e.b),
            ),
        }
    }
    // Ops still open at the end of the window (e.g. a crashed run).
    for (tid, t0) in open {
        out.instant("op (unfinished)", "op", tid, t0, "");
    }

    format!(
        "{{\n\"traceEvents\": [\n{}\n],\n\"displayTimeUnit\": \"ns\",\n\"metadata\": {{\"schema\": \"bdhtm-trace\", \"events\": {}, \"events_dropped\": {}, \"lag_spans_dropped\": {}}}\n}}\n",
        out.0,
        events.len(),
        meta.events_dropped,
        meta.lag_spans_dropped
    )
}

/// [`chrome_trace`] over everything an [`Obs`] currently holds.
pub fn chrome_trace_from_obs(obs: &Obs) -> String {
    let events = obs.dump(usize::MAX);
    chrome_trace(
        &events,
        &TraceMeta {
            events_dropped: obs.flight_events_dropped(),
            lag_spans_dropped: obs.lag_spans_dropped(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::JsonValue;

    fn ev(t_ns: u64, tid: usize, kind: EventKind, a: u64, b: u64) -> FlightEvent {
        FlightEvent {
            t_ns,
            tid,
            kind,
            a,
            b,
        }
    }

    #[test]
    fn trace_parses_and_pairs_op_spans() {
        let events = vec![
            ev(1_000, 0, EventKind::OpBegin, 2, 0),
            ev(5_000, 0, EventKind::OpCommit, 2, 1),
            ev(6_000, 1, EventKind::OpBegin, 2, 0),
            ev(7_000, 1, EventKind::OpAbort, 2, ABORT_RESTART),
            ev(9_000, 0, EventKind::EpochAdvance, 3, 0),
            ev(12_000, 2, EventKind::BatchPersisted, 2, 4),
        ];
        let json = chrome_trace(
            &events,
            &TraceMeta {
                events_dropped: 3,
                lag_spans_dropped: 1,
            },
        );
        let v = JsonValue::parse(&json).expect("trace must be valid JSON");
        let evs = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();

        // The commit became an X span of 4 µs on tid 0.
        let span = evs
            .iter()
            .find(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    && e.get("tid").and_then(|t| t.as_u64()) == Some(0)
            })
            .expect("commit span");
        assert_eq!(span.get("dur").and_then(|d| d.as_f64()), Some(4.0));

        // The lag arrow exists: one flow start on the committer, one
        // flow finish on the persist track, same id (the epoch).
        let start = evs
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("s"))
            .expect("flow start");
        let finish = evs
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("f"))
            .expect("flow finish");
        assert_eq!(start.get("id").and_then(|i| i.as_u64()), Some(2));
        assert_eq!(finish.get("id").and_then(|i| i.as_u64()), Some(2));
        assert_eq!(
            finish.get("tid").and_then(|t| t.as_u64()),
            Some(TID_PERSIST as u64)
        );

        // Dropped-event counts survive into metadata.
        let meta = v.get("metadata").unwrap();
        assert_eq!(meta.get("events_dropped").and_then(|d| d.as_u64()), Some(3));
        assert_eq!(
            meta.get("lag_spans_dropped").and_then(|d| d.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn orphan_terminal_becomes_zero_width_span() {
        let events = vec![ev(2_000, 0, EventKind::OpCommit, 2, 0)];
        let json = chrome_trace(&events, &TraceMeta::default());
        let v = JsonValue::parse(&json).unwrap();
        let evs = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        let span = evs
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .unwrap();
        assert_eq!(span.get("dur").and_then(|d| d.as_f64()), Some(0.0));
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
