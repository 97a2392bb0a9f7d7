//! The Chrome `chrome://tracing` JSON exporter and the inverse parse
//! ([`from_chrome_json`]) used by `fcma report`.
//!
//! The Chrome export uses the trace-event *object* format: spans become
//! complete (`"ph":"X"`) events, instant events `"ph":"i"`, with
//! microsecond timestamps as the format requires. Counters and
//! histograms ride along in the extra top-level keys `fcmaCounters` /
//! `fcmaHistograms` (the object format explicitly allows unknown
//! top-level members), so one `trace.json` is self-contained: it opens
//! in `chrome://tracing` / Perfetto *and* round-trips back into a
//! [`TraceReport`] for `fcma report --check`. A histogram is exported as
//! its count, sum, min and max; the parse ignores members it does not
//! read, so older files with `fcmaLabeledCounters` or per-histogram
//! `buckets` still load.

// An input boundary: product code here returns typed errors (DESIGN.md §10).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable
)]

use crate::json::{self, Value};
use crate::report::{AttrValue, Histogram, SpanRecord, TraceReport};
use std::fmt::Write as _;

fn push_attr_value(out: &mut String, v: &AttrValue) {
    match v {
        AttrValue::U64(x) => {
            let _ = write!(out, "{x}");
        }
        AttrValue::I64(x) => {
            let _ = write!(out, "{x}");
        }
        AttrValue::F64(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                json::escape_into(out, &x.to_string());
            }
        }
        AttrValue::Bool(x) => {
            let _ = write!(out, "{x}");
        }
        AttrValue::Str(s) => json::escape_into(out, s),
    }
}

/// Serialize a report as Chrome trace JSON (object format).
pub fn to_chrome_json(report: &TraceReport) -> String {
    let mut out = String::with_capacity(4096 + report.spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in report.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::escape_into(&mut out, &s.name);
        let _ = write!(out, ",\"cat\":\"fcma\",\"pid\":1,\"tid\":{},\"id\":{}", s.tid, s.id);
        // Chrome wants microseconds; keep sub-µs precision as a decimal.
        let _ = write!(out, ",\"ts\":{}.{:03}", s.start_ns / 1_000, s.start_ns % 1_000);
        match s.dur_ns {
            Some(d) => {
                let _ = write!(out, ",\"ph\":\"X\",\"dur\":{}.{:03}", d / 1_000, d % 1_000);
            }
            None => {
                out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
            }
        }
        out.push_str(",\"args\":{");
        let mut first = true;
        if let Some(parent) = s.parent {
            let _ = write!(out, "\"parent\":{parent}");
            first = false;
        }
        for (k, v) in &s.attrs {
            if !first {
                out.push(',');
            }
            first = false;
            json::escape_into(&mut out, k);
            out.push(':');
            push_attr_value(&mut out, v);
        }
        out.push_str("}}");
    }
    out.push_str("],\"fcmaCounters\":{");
    for (i, (name, value)) in report.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::escape_into(&mut out, name);
        let _ = write!(out, ":{value}");
    }
    out.push_str("},\"fcmaHistograms\":{");
    for (i, (name, h)) in report.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::escape_into(&mut out, name);
        let (min, max) = if h.count == 0 { (0.0, 0.0) } else { (h.min, h.max) };
        let _ =
            write!(out, ":{{\"count\":{},\"sum\":{},\"min\":{min},\"max\":{max}}}", h.count, h.sum);
    }
    out.push_str("}}");
    out
}

fn attr_from_value(v: &Value) -> AttrValue {
    match v {
        Value::Bool(b) => AttrValue::Bool(*b),
        Value::Number(n) => {
            if let Some(u) = v.as_u64() {
                AttrValue::U64(u)
            } else if n.fract() == 0.0 && (-9_007_199_254_740_992.0..0.0).contains(n) {
                // cast is exact here: guarded: negative integral f64 within i64 range
                AttrValue::I64(*n as i64)
            } else {
                AttrValue::F64(*n)
            }
        }
        Value::String(s) => AttrValue::Str(s.clone()),
        other => AttrValue::Str(format!("{other:?}")),
    }
}

/// Event `i`'s `key` member, decimal microseconds, as integer ns; an
/// error when it is missing, not a number, negative or past `u64`.
fn ns_of(ev: &Value, key: &str, i: usize) -> Result<u64, String> {
    match ev.get(key).and_then(Value::as_f64).map(|us| (us * 1_000.0).round()) {
        // cast is exact here: an integral value in [0, 2^64)
        Some(ns) if (0.0..2f64.powi(64)).contains(&ns) => Ok(ns as u64),
        _ => Err(format!("traceEvents[{i}]: {key} is not a finite, non-negative number")),
    }
}

/// Parse a Chrome trace JSON produced by [`to_chrome_json`] back into a
/// [`TraceReport`].
///
/// # Errors
/// Returns a description of the first structural problem: invalid JSON,
/// missing `traceEvents`, or malformed event members.
pub fn from_chrome_json(input: &str) -> Result<TraceReport, String> {
    let doc = json::parse(input)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing traceEvents array".to_owned())?;
    let mut report = TraceReport::default();
    for (i, ev) in events.iter().enumerate() {
        let obj = ev.as_object().ok_or_else(|| format!("traceEvents[{i}] is not an object"))?;
        let name = obj
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("traceEvents[{i}] has no name"))?
            .to_owned();
        let start_ns = ns_of(ev, "ts", i)?;
        let ph = obj.get("ph").and_then(Value::as_str).unwrap_or("X");
        let dur_ns = match ph {
            "X" => Some(ns_of(ev, "dur", i)?),
            "i" | "I" => None,
            other => return Err(format!("traceEvents[{i}]: unsupported phase {other:?}")),
        };
        let mut parent = None;
        let mut attrs = Vec::new();
        if let Some(args) = obj.get("args").and_then(Value::as_object) {
            for (k, v) in args {
                if k == "parent" {
                    parent = v.as_u64();
                } else {
                    attrs.push((k.clone(), attr_from_value(v)));
                }
            }
        }
        report.spans.push(SpanRecord {
            name,
            tid: obj.get("tid").and_then(Value::as_u64).unwrap_or(0),
            id: obj.get("id").and_then(Value::as_u64).unwrap_or(0),
            parent,
            start_ns,
            dur_ns,
            attrs,
        });
    }
    report.spans.sort_by_key(|s| (s.start_ns, s.id));
    if let Some(counters) = doc.get("fcmaCounters").and_then(Value::as_object) {
        for (name, value) in counters {
            let v = value
                .as_u64()
                .ok_or_else(|| format!("counter {name} is not a non-negative integer"))?;
            report.counters.insert(name.clone(), v);
        }
    }
    if let Some(histograms) = doc.get("fcmaHistograms").and_then(Value::as_object) {
        for (name, value) in histograms {
            let Some(count) = value.get("count").and_then(Value::as_u64) else {
                return Err(format!("fcmaHistograms.{name}: count is not a non-negative integer"));
            };
            let finite = |key: &str| match value.get(key).and_then(Value::as_f64) {
                Some(v) if v.is_finite() => Ok(v),
                _ => Err(format!("fcmaHistograms.{name}: {key} is not a finite number")),
            };
            let mut h =
                Histogram { count, sum: finite("sum")?, min: finite("min")?, max: finite("max")? };
            if h.count == 0 {
                h.min = f64::INFINITY;
                h.max = f64::NEG_INFINITY;
            }
            report.histograms.insert(name.clone(), h);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample_report() -> TraceReport {
        let mut counters = BTreeMap::new();
        counters.insert("cluster.tasks.dispatched".to_owned(), 7);
        counters.insert("stage1.flops".to_owned(), 123_456);
        let mut histograms = BTreeMap::new();
        let mut h = Histogram::default();
        h.record(3.0);
        h.record(17.0);
        histograms.insert("svm.smo.iterations_per_solve".to_owned(), h);
        TraceReport {
            spans: vec![
                SpanRecord {
                    name: "stage1.corr".to_owned(),
                    tid: 0,
                    id: 1,
                    parent: None,
                    start_ns: 1_500,
                    dur_ns: Some(2_000_250),
                    attrs: vec![
                        ("voxels".to_owned(), AttrValue::U64(64)),
                        ("kernel".to_owned(), AttrValue::Str("tall_skinny".to_owned())),
                    ],
                },
                SpanRecord {
                    name: "cluster.condemn".to_owned(),
                    tid: 1,
                    id: 2,
                    parent: Some(1),
                    start_ns: 9_000,
                    dur_ns: None,
                    attrs: vec![("worker".to_owned(), AttrValue::U64(3))],
                },
            ],
            counters,
            histograms,
        }
    }

    /// Golden-file check: the Chrome export is byte-stable for a fixed
    /// report (determinism matters for CI diffs).
    #[test]
    fn chrome_json_matches_golden() {
        let got = to_chrome_json(&sample_report());
        let want = concat!(
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[",
            "{\"name\":\"stage1.corr\",\"cat\":\"fcma\",\"pid\":1,\"tid\":0,\"id\":1,",
            "\"ts\":1.500,\"ph\":\"X\",\"dur\":2000.250,",
            "\"args\":{\"voxels\":64,\"kernel\":\"tall_skinny\"}},",
            "{\"name\":\"cluster.condemn\",\"cat\":\"fcma\",\"pid\":1,\"tid\":1,\"id\":2,",
            "\"ts\":9.000,\"ph\":\"i\",\"s\":\"t\",",
            "\"args\":{\"parent\":1,\"worker\":3}}",
            "],\"fcmaCounters\":{",
            "\"cluster.tasks.dispatched\":7,\"stage1.flops\":123456",
            "},\"fcmaHistograms\":{",
            "\"svm.smo.iterations_per_solve\":{\"count\":2,\"sum\":20,\"min\":3,\"max\":17}",
            "}}"
        );
        assert_eq!(got, want);
    }

    #[test]
    fn chrome_json_round_trips() {
        let mut report = sample_report();
        let mut parsed = from_chrome_json(&to_chrome_json(&report)).unwrap();
        // JSON objects are unordered; normalize attr order before comparing.
        for s in report.spans.iter_mut().chain(parsed.spans.iter_mut()) {
            s.attrs.sort_by(|a, b| a.0.cmp(&b.0));
        }
        assert_eq!(parsed.spans, report.spans);
        assert_eq!(parsed.counters, report.counters);
        assert_eq!(parsed.histograms, report.histograms);
    }

    /// Traces written while the exporter still emitted per-worker
    /// labeled counters and log₂ histogram buckets read back: the parse
    /// skips both members and keeps everything else.
    #[test]
    fn from_chrome_json_reads_the_older_trace_shape() {
        let old = concat!(
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[",
            "{\"name\":\"cluster.dispatch\",\"cat\":\"fcma\",\"pid\":1,\"tid\":0,\"id\":1,",
            "\"ts\":1.500,\"ph\":\"X\",\"dur\":2000.250,\"args\":{\"attempt\":1,\"task\":0}}",
            "],\"fcmaCounters\":{",
            "\"cluster.tasks.completed\":1,\"cluster.tasks.dispatched\":1,",
            "\"cluster.tasks.total\":1,\"pool.steals\":1,\"pool.tasks.run\":4,\"svm.smo.solves\":2",
            "},\"fcmaLabeledCounters\":{",
            "\"pool.worker.tasks\":{\"label\":\"worker\",\"values\":{\"0\":3,\"1\":1}}",
            "},\"fcmaHistograms\":{",
            "\"svm.smo.iterations_per_solve\":",
            "{\"count\":2,\"sum\":20,\"min\":3,\"max\":17,\"buckets\":[0,1,0,0,1]}",
            "}}"
        );
        let parsed = from_chrome_json(old).unwrap();
        let dispatch = SpanRecord {
            name: "cluster.dispatch".to_owned(),
            tid: 0,
            id: 1,
            parent: None,
            start_ns: 1_500,
            dur_ns: Some(2_000_250),
            attrs: vec![
                ("attempt".to_owned(), AttrValue::U64(1)),
                ("task".to_owned(), AttrValue::U64(0)),
            ],
        };
        assert_eq!(parsed.spans, [dispatch]);
        let counters: Vec<(&str, u64)> =
            parsed.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(
            counters,
            [
                ("cluster.tasks.completed", 1),
                ("cluster.tasks.dispatched", 1),
                ("cluster.tasks.total", 1),
                ("pool.steals", 1),
                ("pool.tasks.run", 4),
                ("svm.smo.solves", 2),
            ]
        );
        let want = Histogram { count: 2, sum: 20.0, min: 3.0, max: 17.0 };
        assert_eq!(parsed.histograms.len(), 1);
        assert_eq!(parsed.histograms["svm.smo.iterations_per_solve"], want);
        assert!(parsed.check_consistency().is_empty(), "{:?}", parsed.check_consistency());
    }

    #[test]
    fn from_chrome_json_rejects_malformed_input() {
        assert!(from_chrome_json("not json").is_err());
        assert!(from_chrome_json("{\"noTraceEvents\": []}").is_err());
        assert!(
            from_chrome_json("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err(),
            "event without a name must be rejected"
        );
        // Timing that used to read as 0 ns: missing, not a number,
        // negative, or infinite.
        let ok = "{\"name\":\"x\",\"ph\":\"X\",\"ts\":1,\"dur\":2}";
        for (bad, key) in [
            ("{\"name\":\"x\",\"ph\":\"X\",\"ts\":-5,\"dur\":\"abc\"}", "ts"),
            ("{\"name\":\"x\",\"ph\":\"X\",\"ts\":5,\"dur\":\"abc\"}", "dur"),
            ("{\"name\":\"x\",\"ph\":\"X\",\"ts\":5}", "dur"),
            ("{\"name\":\"x\",\"ph\":\"X\",\"ts\":5,\"dur\":-1}", "dur"),
            ("{\"name\":\"x\",\"ph\":\"i\"}", "ts"),
            ("{\"name\":\"x\",\"ph\":\"i\",\"ts\":1e400}", "ts"),
            ("{\"name\":\"x\",\"ph\":\"i\",\"ts\":null}", "ts"),
        ] {
            assert_eq!(
                from_chrome_json(&format!("{{\"traceEvents\":[{ok},{bad}]}}")).unwrap_err(),
                format!("traceEvents[1]: {key} is not a finite, non-negative number"),
                "{bad}"
            );
        }
        assert_eq!(
            from_chrome_json("{\"traceEvents\":[],\"fcmaCounters\":{\"x\":1e20}}").unwrap_err(),
            "counter x is not a non-negative integer",
            "a counter past u64 must not saturate"
        );
        // Histogram members that used to read as 0.
        let full = "\"count\":5,\"sum\":10,\"min\":1,\"max\":3";
        for (bad, want) in [
            (full.replace("5", "\"five\""), "count is not a non-negative integer"),
            (full.replace("5", "-5"), "count is not a non-negative integer"),
            (full.replace("\"count\":5,", ""), "count is not a non-negative integer"),
            (full.replace("10", "\"ten\""), "sum is not a finite number"),
            (full.replace("1,", "1e999,"), "min is not a finite number"),
            (full.replace(",\"max\":3", ""), "max is not a finite number"),
        ] {
            let trace = format!("{{\"traceEvents\":[],\"fcmaHistograms\":{{\"h.x\":{{{bad}}}}}}}");
            assert_eq!(
                from_chrome_json(&trace).unwrap_err(),
                format!("fcmaHistograms.h.x: {want}")
            );
        }
    }

    /// `fcma report --check` inputs that used to pass: an SMO histogram
    /// with no solves counter, and causal contexts or dispatch
    /// identities that are missing or not integers.
    #[test]
    fn check_refuses_incomplete_accounting_and_malformed_contexts() {
        let check = |trace: &str| from_chrome_json(trace).unwrap().check_consistency();
        let smo = "{\"traceEvents\":[],\"fcmaHistograms\":{\"svm.smo.iterations_per_solve\":\
                   {\"count\":5,\"sum\":10,\"min\":1,\"max\":3}}}";
        assert_eq!(check(smo), ["svm.smo.iterations_per_solve count (5) != svm.smo.solves (0)"]);
        let record = |name: &str, ph: &str, args: &str| {
            format!("{{\"traceEvents\":[{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"ts\":1,\"dur\":1,\"args\":{{{args}}}}}]}}")
        };
        for (trace, want) in [
            (record("x", "X", "\"ctx_task\":5"), "malformed causal context"),
            (
                record("x", "X", "\"ctx_task\":\"5\",\"ctx_attempt\":\"1\""),
                "malformed causal context",
            ),
            (record("x", "X", "\"ctx_task\":5,\"ctx_attempt\":1"), "no matching cluster.dispatch"),
            (record("cluster.dispatch", "X", "\"task\":5"), "without integer task and attempt"),
            (record("cluster.fence", "i", "\"task\":5,\"attempt\":\"1\""), "without integer task"),
        ] {
            let violations = check(&trace);
            assert!(
                violations.len() == 1 && violations[0].contains(want),
                "{trace}: {violations:?}"
            );
        }
    }
}
