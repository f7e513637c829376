//! Chrome Trace Event Format export and validation.
//!
//! [`chrome_trace`] renders a captured event stream as Trace Event Format
//! JSON (the `{"traceEvents":[...]}` object form) that loads directly in
//! `chrome://tracing` and Perfetto. [`validate_chrome_trace`] is the inverse
//! gate used by tests and the CI `trace_check` binary: it parses a trace
//! file with [`crate::json`] and checks the structural rules the viewers
//! rely on (required fields, known phases, balanced begin/end per track).

use crate::json::Json;
use crate::Event;

fn args_obj(args: &[(String, String)]) -> Json {
    Json::obj(args.iter().map(|(k, v)| (k.as_str(), v.as_str().into())))
}

fn buckets_obj(buckets: &[(String, u64)]) -> Json {
    Json::obj(
        buckets
            .iter()
            .map(|(label, n)| (label.as_str(), (*n).into())),
    )
}

/// Renders one event as a standalone JSON object (the JSON-lines format
/// written by [`crate::JsonLinesSink`]).
pub fn event_json(event: &Event) -> Json {
    let str = |s: &str| Json::from(s);
    let (kind, fields) = match event {
        Event::SpanBegin { id, name, cat, .. } => (
            "span_begin",
            vec![("id", (*id).into()), ("name", str(name)), ("cat", str(cat))],
        ),
        Event::SpanEnd { id, name, .. } => {
            ("span_end", vec![("id", (*id).into()), ("name", str(name))])
        }
        Event::Instant {
            name, cat, args, ..
        } => (
            "instant",
            vec![
                ("name", str(name)),
                ("cat", str(cat)),
                ("args", args_obj(args)),
            ],
        ),
        Event::Counter { name, value, .. } => (
            "counter",
            vec![("name", str(name)), ("value", (*value).into())],
        ),
        Event::Histogram { name, buckets, .. } => (
            "histogram",
            vec![("name", str(name)), ("buckets", buckets_obj(buckets))],
        ),
        Event::Decision { record, .. } => ("decision", vec![("record", record.json())]),
    };
    let stamp = [("ts_us", event.ts_us().into()), ("tid", event.tid().into())];
    Json::obj([("type", str(kind))].into_iter().chain(fields).chain(stamp))
}

fn trace_event(event: &Event) -> Json {
    let (name, cat, ph, args) = match event {
        Event::SpanBegin { name, cat, .. } => (name.clone(), Some(*cat), "B", None),
        Event::SpanEnd { name, .. } => (name.clone(), None, "E", None),
        Event::Instant {
            name, cat, args, ..
        } => (name.clone(), Some(*cat), "i", Some(args_obj(args))),
        Event::Counter { name, value, .. } => {
            let args = Json::obj([("value", Json::from(*value))]);
            (name.clone(), None, "C", Some(args))
        }
        Event::Histogram { name, buckets, .. } => {
            (name.clone(), None, "C", Some(buckets_obj(buckets)))
        }
        Event::Decision { record, .. } => {
            let args = Json::obj([
                ("site", Json::from(record.site_label.as_str())),
                ("contour", record.contour.as_str().into()),
                ("callee", record.callee.as_str().into()),
                ("verdict", record.verdict.to_string().into()),
                ("reason", record.reason.to_string().into()),
            ]);
            let name = format!("decision:{}", record.reason.key());
            (name, Some("decision"), "i", Some(args))
        }
    };
    let mut members = vec![("name", Json::from(name))];
    members.extend(cat.map(|cat| ("cat", cat.into())));
    members.push(("ph", ph.into()));
    if ph == "i" {
        members.push(("s", "t".into())); // instants are thread-scoped
    }
    members.extend([
        ("ts", event.ts_us().into()),
        ("pid", 1u64.into()),
        ("tid", event.tid().into()),
    ]);
    members.extend(args.map(|args| ("args", args)));
    Json::obj(members)
}

/// Renders an event stream as Trace Event Format JSON (object form), sorted
/// by timestamp. Load the result in `chrome://tracing` or Perfetto.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut ordered: Vec<&Event> = events.iter().collect();
    // Stable by-timestamp sort: per-thread order is preserved (each thread's
    // timestamps are non-decreasing), which keeps B/E nesting valid.
    ordered.sort_by_key(|e| e.ts_us());
    Json::obj([
        (
            "traceEvents",
            Json::Arr(ordered.into_iter().map(trace_event).collect()),
        ),
        ("displayTimeUnit", "ms".into()),
    ])
    .to_string()
}

/// What [`validate_chrome_trace`] found in a well-formed trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total trace events.
    pub events: usize,
    /// Completed spans (matched begin/end pairs).
    pub spans: usize,
    /// Instant events.
    pub instants: usize,
    /// Counter samples.
    pub counters: usize,
    /// Instants in the `decision` category.
    pub decisions: usize,
    /// Deepest span nesting observed on any track.
    pub max_depth: usize,
}

/// Validates `text` against the Trace Event Format rules this crate's
/// traces (and the viewers) rely on:
///
/// - the document is a JSON object with a `traceEvents` array;
/// - every event is an object carrying `ph` (a known phase), numeric
///   non-negative `ts`, numeric `pid`/`tid`, and a string `name` (except
///   `E` events, where it is optional);
/// - `B`/`E` events balance per `(pid, tid)` track, with matching names.
///
/// Returns a [`TraceSummary`] on success, or a description of the first
/// violation.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    use std::collections::HashMap;

    let doc = crate::json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing \"traceEvents\" key")?
        .as_arr()
        .ok_or("\"traceEvents\" is not an array")?;

    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    let mut stacks: HashMap<(u64, u64), Vec<String>> = HashMap::new();

    for (i, ev) in events.iter().enumerate() {
        let fail = |what: &str| Err(format!("event #{i}: {what}"));
        if ev.as_obj().is_none() {
            return fail("not an object");
        }
        let ph = match ev.get("ph").and_then(|v| v.as_str()) {
            Some(p) => p,
            None => return fail("missing string \"ph\""),
        };
        if !matches!(
            ph,
            "B" | "E" | "X" | "i" | "I" | "C" | "M" | "b" | "e" | "n" | "s" | "t" | "f"
        ) {
            return Err(format!("event #{i}: unknown phase {ph:?}"));
        }
        let ts = match ev.get("ts").and_then(|v| v.as_num()) {
            Some(t) => t,
            None => return fail("missing numeric \"ts\""),
        };
        if !ts.is_finite() || ts < 0.0 {
            return fail("negative or non-finite \"ts\"");
        }
        let pid = match ev.get("pid").and_then(|v| v.as_num()) {
            Some(p) => p,
            None => return fail("missing numeric \"pid\""),
        };
        let tid = match ev.get("tid").and_then(|v| v.as_num()) {
            Some(t) => t,
            None => return fail("missing numeric \"tid\""),
        };
        let name = ev.get("name").and_then(|v| v.as_str());
        if name.is_none() && ph != "E" {
            return fail("missing string \"name\"");
        }
        if ph == "i" || ph == "I" {
            summary.instants += 1;
            if ev.get("cat").and_then(|v| v.as_str()) == Some("decision") {
                summary.decisions += 1;
            }
        }
        if ph == "C" {
            summary.counters += 1;
        }

        let track = (pid.to_bits(), tid.to_bits());
        match ph {
            "B" => {
                let stack = stacks.entry(track).or_default();
                stack.push(name.unwrap().to_string());
                summary.max_depth = summary.max_depth.max(stack.len());
            }
            "E" => {
                let stack = stacks.entry(track).or_default();
                match stack.pop() {
                    None => {
                        return Err(format!("event #{i}: \"E\" with no open span on tid {tid}"))
                    }
                    Some(open) => {
                        if let Some(n) = name {
                            if n != open {
                                return Err(format!(
                                    "event #{i}: \"E\" for {n:?} but open span is {open:?}"
                                ));
                            }
                        }
                        summary.spans += 1;
                    }
                }
            }
            _ => {}
        }
    }

    for ((_, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "unclosed span {open:?} on tid {}",
                f64::from_bits(*tid)
            ));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DecisionReason, DecisionRecord, RingSink, Telemetry, REASON_KEYS};
    use std::sync::Arc;

    fn sample_events() -> Vec<Event> {
        let sink = Arc::new(RingSink::with_capacity(256));
        let tel = Telemetry::with_collector(sink.clone());
        {
            let _p = tel.span("pipeline", "pass");
            {
                let _a = tel.span("analyze", "pass");
                tel.counter("cfa.steps", 120);
                tel.histogram("cfa.valset", &[("1", 10), ("2-3", 4)]);
            }
            tel.instant("cache.parse", "engine", &[("hit", "true".to_string())]);
            tel.decision(&DecisionRecord {
                site_label: "l4".to_string(),
                contour: "·".to_string(),
                callee: "f".to_string(),
                verdict: crate::Verdict::Inlined,
                reason: DecisionReason::Inlined {
                    specialized_size: 7,
                },
            });
        }
        sink.snapshot()
    }

    #[test]
    fn exported_trace_validates() {
        let trace = chrome_trace(&sample_events());
        let summary = validate_chrome_trace(&trace).expect("trace validates");
        assert_eq!(summary.events, 8);
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.instants, 2);
        assert_eq!(summary.counters, 2);
        assert_eq!(summary.decisions, 1);
        assert_eq!(summary.max_depth, 2);
    }

    #[test]
    fn validator_rejects_structural_violations() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"events\":[]}").is_err());
        // Unknown phase.
        let bad = r#"{"traceEvents":[{"name":"x","ph":"Z","ts":0,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("phase"));
        // End without begin.
        let bad = r#"{"traceEvents":[{"name":"x","ph":"E","ts":0,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("no open span"));
        // Unclosed begin.
        let bad = r#"{"traceEvents":[{"name":"x","ph":"B","cat":"t","ts":0,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("unclosed"));
        // Mismatched nesting.
        let bad = r#"{"traceEvents":[
            {"name":"a","ph":"B","cat":"t","ts":0,"pid":1,"tid":1},
            {"name":"b","ph":"E","ts":1,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("open span"));
        // Missing ts.
        let bad = r#"{"traceEvents":[{"name":"x","ph":"i","s":"t","pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("ts"));
    }

    #[test]
    fn jsonl_event_encoding_parses_back() {
        for ev in sample_events() {
            let line = event_json(&ev).to_string();
            let doc = crate::json::parse(&line).expect("event_json output parses");
            assert!(doc.get("type").is_some(), "{line}");
        }
    }

    #[test]
    fn decision_trace_names_use_stable_keys() {
        let trace = chrome_trace(&sample_events());
        assert!(trace.contains("\"decision:inlined\""));
        assert!(REASON_KEYS.contains(&"inlined"));
    }
}
