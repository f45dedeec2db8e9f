//! Chrome `trace_event` / Perfetto export of the flight recorder.
//!
//! [`chrome_trace`] converts a [`FlightRecorder`](crate::FlightRecorder)
//! dump into the JSON object format consumed by `chrome://tracing` and
//! <https://ui.perfetto.dev>: one track per worker thread showing each
//! op attempt as a complete ("X") span — one flight record, from the
//! attempt's start to its commit/abort/panic — three virtual tracks for
//! the epoch clock, the persist pipeline, and health events, and one
//! flow arrow per epoch from its last commit to the `BatchPersisted`
//! that made it durable — the durability lag of §3, drawn.
//!
//! Each event's name is its [`EventKind`], and its track and `args` come
//! from [`FlightEvent::decode`], the decoder the postmortem dump uses
//! too. Timestamps are the recorder's shared monotonic clock (µs in the
//! output, as the format requires), so span edges, epoch seals, and the
//! lag arrows all line up on one timeline. The trace `metadata` block
//! carries `events_dropped` / `lag_spans_dropped` so a reader knows
//! when ring wrap truncated the window (raise
//! [`EpochConfig::flight_slots`](crate::EpochConfig::with_flight_slots)
//! to widen it).

use crate::obs::{EventKind, Field, FlightEvent, Obs, Track};
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

/// Decoded fields as the members of a JSON `args` object.
fn args(fields: &[(&str, Field)]) -> String {
    let members: Vec<String> = fields
        .iter()
        .map(|(name, value)| match value {
            Field::Num(n) => format!("\"{name}\":{n}"),
            Field::Text(s) => format!("\"{name}\":\"{}\"", esc(s)),
        })
        .collect();
    members.join(",")
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
        if e.kind == EventKind::OpCommit {
            last_commit.insert(e.a, (e.tid, e.t_ns));
        } else if e.kind == EventKind::BatchPersisted {
            published.entry(e.a).or_insert(e.t_ns);
        }
    }

    for e in events {
        let (track, fields) = e.decode();
        let (tid, cat) = match track {
            Track::Thread => (e.tid, "op"),
            Track::Epoch => (TID_EPOCH, "epoch"),
            Track::Persist => (TID_PERSIST, "persist"),
            Track::Health => (TID_HEALTH, "health"),
        };
        let (name, args) = (format!("{:?}", e.kind), args(&fields));
        if track == Track::Thread {
            out.push(&format!(
                "\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid},\"args\":{{{args}}}",
                us(e.t0_ns),
                us(e.t_ns.saturating_sub(e.t0_ns)),
            ));
        } else {
            out.push(&format!(
                "\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{tid},\"args\":{{{args}}}",
                us(e.t_ns),
            ));
        }
        // Durability-lag arrow: from the epoch's last commit to the
        // instant its frontier published.
        if e.kind == EventKind::OpCommit
            && last_commit.get(&e.a) == Some(&(e.tid, e.t_ns))
            && published.contains_key(&e.a)
        {
            out.flow('s', e.a, tid, e.t_ns);
        } else if e.kind == EventKind::BatchPersisted
            && published.get(&e.a) == Some(&e.t_ns)
            && last_commit.contains_key(&e.a)
        {
            out.flow('f', e.a, tid, e.t_ns);
        }
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
    use crate::obs::{JsonValue, ABORT_RESTART};

    fn ev(t0_ns: u64, t_ns: u64, tid: usize, kind: EventKind, a: u64, b: u64) -> FlightEvent {
        FlightEvent {
            t0_ns,
            t_ns,
            tid,
            kind,
            a,
            b,
        }
    }

    fn trace_events(json: &str) -> Vec<JsonValue> {
        let v = JsonValue::parse(json).expect("trace must be valid JSON");
        v.get("traceEvents")
            .and_then(|e| e.as_arr())
            .unwrap()
            .to_vec()
    }

    #[test]
    fn trace_parses_and_draws_op_spans() {
        let events = vec![
            ev(1_000, 5_000, 0, EventKind::OpCommit, 2, 1),
            ev(6_000, 7_000, 1, EventKind::OpAbort, 2, ABORT_RESTART),
            ev(9_000, 9_000, 0, EventKind::EpochAdvance, 3, 0),
            ev(12_000, 12_000, 2, EventKind::BatchPersisted, 2, 4),
        ];
        let json = chrome_trace(
            &events,
            &TraceMeta {
                events_dropped: 3,
                lag_spans_dropped: 1,
            },
        );
        assert!(
            json.starts_with("{\n\"traceEvents\": [\n"),
            "the document header is what span splicers match"
        );
        let v = JsonValue::parse(&json).unwrap();
        let evs = trace_events(&json);

        // The commit record became an X span of 4 µs on tid 0.
        let span = evs
            .iter()
            .find(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    && e.get("tid").and_then(|t| t.as_u64()) == Some(0)
            })
            .expect("commit span");
        assert_eq!(span.get("ts").and_then(|d| d.as_f64()), Some(1.0));
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

    /// The dump line and the trace event of every kind carry the same
    /// decoded fields, including the text fields: the abort cause, the
    /// crash-point kind, an absent cause epoch and the watchdog reason.
    #[test]
    fn dump_and_trace_carry_the_same_fields() {
        let events: Vec<FlightEvent> = EventKind::ALL
            .into_iter()
            .enumerate()
            .map(|(i, kind)| {
                let t = 1_000 * (i as u64 + 1);
                let (t0, a, b) = match kind {
                    EventKind::OpAbort => (t - 500, 5, 1 + crate::esys::OLD_SEE_NEW as u64),
                    EventKind::OpCommit | EventKind::OpPanicked => (t - 500, 5, 1),
                    EventKind::FaultInjected => (t, 7, nvm_sim::CrashPointKind::Clwb.code()),
                    EventKind::DegradedToSync => (t, 1, u64::MAX),
                    EventKind::WatchdogFired => (t, crate::watchdog::STALL_ADVANCE, 1),
                    _ => (t, 3, 4),
                };
                ev(t0, t, 0, kind, a, b)
            })
            .collect();
        let evs = trace_events(&chrome_trace(&events, &TraceMeta::default()));
        for e in &events {
            let name = format!("{:?}", e.kind);
            let traced = evs
                .iter()
                .find(|t| t.get("name").and_then(|n| n.as_str()) == Some(name.as_str()))
                .unwrap_or_else(|| panic!("{name} missing from the trace"));
            let args = traced.get("args").unwrap();
            let line = e.render();
            let (_, fields) = e.decode();
            let JsonValue::Obj(members) = args else {
                panic!("{name}: args is not an object")
            };
            assert_eq!(members.len(), fields.len(), "{name}: {line}");
            for (key, value) in &fields {
                let in_trace = match value {
                    Field::Num(n) => args.get(key).and_then(|v| v.as_u64()) == Some(*n),
                    Field::Text(s) => args.get(key).and_then(|v| v.as_str()) == Some(s.as_str()),
                };
                assert!(in_trace, "{name}: trace lacks {key}={value}");
                assert!(
                    line.contains(&format!(" {key}={value}")),
                    "{name}: dump lacks {key}={value}: {line}"
                );
            }
        }
        let arg = |kind: EventKind, key: &str| {
            let name = format!("{kind:?}");
            evs.iter()
                .find(|t| t.get("name").and_then(|n| n.as_str()) == Some(name.as_str()))
                .and_then(|t| t.get("args"))
                .and_then(|a| a.get(key))
                .cloned()
        };
        let text = |s: &str| Some(JsonValue::Str(s.to_string()));
        assert_eq!(arg(EventKind::OpAbort, "cause"), text("old_see_new(0xa1)"));
        assert_eq!(arg(EventKind::FaultInjected, "kind"), text("clwb"));
        assert_eq!(arg(EventKind::DegradedToSync, "cause_epoch"), None);
        assert_eq!(
            arg(EventKind::WatchdogFired, "reason"),
            text("stalled epoch advance")
        );
        let dump: Vec<String> = events.iter().map(FlightEvent::render).collect();
        assert!(dump[0].contains("cause=old_see_new(0xa1)"), "{}", dump[0]);
        assert!(dump.iter().any(|l| l.contains("kind=clwb")));
        assert!(dump.iter().all(|l| !l.contains("cause_epoch")));
        assert!(dump
            .iter()
            .any(|l| l.contains("reason=\"stalled epoch advance\"")));
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
