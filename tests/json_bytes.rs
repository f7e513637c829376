//! Byte-identity of the JSON documents that hold only strings, integers and
//! booleans: a stored artifact payload, a flight-recorder line, the
//! JSON-lines encoding of every telemetry event kind, and a Chrome trace.
//!
//! These bytes live on disk (`objects/`, `flight/requests.jsonl`, trace
//! files) and are read back by other processes and other versions, so a
//! writer change must leave them alone. The expected strings were recorded
//! from the hand-spliced emitters that the `Json` writer replaced.

use fdi_engine::StoredOutput;
use fdi_telemetry::trace::event_json;
use fdi_telemetry::{
    chrome_trace, DecisionReason, DecisionRecord, DecisionTotals, Event, FlightEntry, Verdict,
};

fn stored() -> StoredOutput {
    let mut decisions = DecisionTotals::default();
    decisions.add("inlined", 3);
    decisions.add("open_procedure", 2);
    StoredOutput {
        optimized: "(define (f x) (display \"a\\b\"))\n(f 1)\t\u{1}é".to_string(),
        baseline_size: 40,
        optimized_size: 30,
        sites_inlined: 3,
        fuel_used: 97,
        decisions,
    }
}

/// One event of each kind, timestamps in emission order, small `tid`s.
fn events() -> Vec<Event> {
    vec![
        Event::SpanBegin {
            id: 1,
            name: "pipeline".to_string(),
            cat: "pass",
            ts_us: 0,
            tid: 7,
        },
        Event::Instant {
            name: "cache.parse".to_string(),
            cat: "engine",
            args: vec![
                ("hit".to_string(), "true".to_string()),
                ("key".to_string(), "a\"b".to_string()),
            ],
            ts_us: 3,
            tid: 7,
        },
        Event::Counter {
            name: "cfa.steps".to_string(),
            value: 120,
            ts_us: 4,
            tid: 9,
        },
        Event::Histogram {
            name: "cfa.valset".to_string(),
            buckets: vec![("1".to_string(), 10), ("2-3".to_string(), 4)],
            ts_us: 5,
            tid: 9,
        },
        Event::Decision {
            record: DecisionRecord {
                site_label: "l4".to_string(),
                contour: "·".to_string(),
                callee: "f".to_string(),
                verdict: Verdict::Rejected,
                reason: DecisionReason::ThresholdExceeded { size: 9, limit: 4 },
            },
            ts_us: 6,
            tid: 7,
        },
        Event::SpanEnd {
            id: 1,
            name: "pipeline".to_string(),
            ts_us: 8,
            tid: 7,
        },
    ]
}

#[test]
fn stored_output_payload_keeps_its_bytes() {
    assert_eq!(
        stored().to_json(),
        concat!(
            r#"{"v":1,"optimized":"(define (f x) (display \"a\\b\"))\n(f 1)\t\u0001é","#,
            r#""baseline_size":40,"optimized_size":30,"sites_inlined":3,"fuel_used":97,"#,
            r#""decisions":{"inlined":3,"non_unique_closure":0,"threshold_exceeded":0,"#,
            r#""open_procedure":2,"loop_guard":0,"budget_denied":0,"size_budget_exhausted":0}}"#,
        )
    );
}

#[test]
fn flight_entry_line_keeps_its_bytes() {
    let entry = FlightEntry {
        trace_id: "00c0ffee00c0ffee".to_string(),
        what: "bench:fib@6 \"q\"".to_string(),
        outcome: "ok".to_string(),
        duration_us: 1500,
        ts_us: 42,
    };
    assert_eq!(
        entry.json().to_string(),
        r#"{"trace_id":"00c0ffee00c0ffee","what":"bench:fib@6 \"q\"","outcome":"ok","duration_us":1500,"ts_us":42}"#
    );
}

#[test]
fn event_lines_keep_their_bytes() {
    let lines: Vec<String> = events().iter().map(|e| event_json(e).to_string()).collect();
    assert_eq!(
        lines,
        [
            r#"{"type":"span_begin","id":1,"name":"pipeline","cat":"pass","ts_us":0,"tid":7}"#,
            r#"{"type":"instant","name":"cache.parse","cat":"engine","args":{"hit":"true","key":"a\"b"},"ts_us":3,"tid":7}"#,
            r#"{"type":"counter","name":"cfa.steps","value":120,"ts_us":4,"tid":9}"#,
            r#"{"type":"histogram","name":"cfa.valset","buckets":{"1":10,"2-3":4},"ts_us":5,"tid":9}"#,
            r#"{"type":"decision","record":{"site":"l4","contour":"·","callee":"f","verdict":"rejected","reason":"threshold_exceeded","size":9,"limit":4},"ts_us":6,"tid":7}"#,
            r#"{"type":"span_end","id":1,"name":"pipeline","ts_us":8,"tid":7}"#,
        ]
    );
}

#[test]
fn chrome_trace_keeps_its_bytes() {
    assert_eq!(
        chrome_trace(&events()),
        concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"pipeline","cat":"pass","ph":"B","ts":0,"pid":1,"tid":7},"#,
            r#"{"name":"cache.parse","cat":"engine","ph":"i","s":"t","ts":3,"pid":1,"tid":7,"args":{"hit":"true","key":"a\"b"}},"#,
            r#"{"name":"cfa.steps","ph":"C","ts":4,"pid":1,"tid":9,"args":{"value":120}},"#,
            r#"{"name":"cfa.valset","ph":"C","ts":5,"pid":1,"tid":9,"args":{"1":10,"2-3":4}},"#,
            r#"{"name":"decision:threshold_exceeded","cat":"decision","ph":"i","s":"t","ts":6,"pid":1,"tid":7,"#,
            r#""args":{"site":"l4","contour":"·","callee":"f","verdict":"rejected","reason":"threshold-exceeded(size=9, limit=4)"}},"#,
            r#"{"name":"pipeline","ph":"E","ts":8,"pid":1,"tid":7}"#,
            r#"],"displayTimeUnit":"ms"}"#,
        )
    );
}
