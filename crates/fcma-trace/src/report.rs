//! Trace data model and human-facing analysis.
//!
//! A drained [`crate::Collector`] yields a [`TraceReport`]: the flat list
//! of completed [`SpanRecord`]s (spans and instant events), the
//! monotonic counters, and the value [`Histogram`]s (count, sum, min and
//! max — what the summary and the consistency audit read). This module also
//! turns a report into the two things humans actually ask of a trace —
//! a `perf report`-style per-stage summary table ([`TraceReport::summary_table`])
//! and a pass/fail consistency audit of the scheduler counters
//! ([`TraceReport::check_consistency`], used by `fcma report --check`
//! and CI), which `fcma report --check` pairs with an audit of the names
//! against the taxonomy ([`TraceReport::check_names`]).

use crate::names::{known, Kind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;

/// A typed attribute value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (also the landing type for `usize`).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (static labels like kernel names, or owned values).
    Str(String),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
            AttrValue::Str(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! attr_from {
    ($($ty:ty => $variant:ident via $conv:expr),* $(,)?) => {
        $(impl From<$ty> for AttrValue {
            fn from(v: $ty) -> Self {
                AttrValue::$variant($conv(v))
            }
        })*
    };
}

attr_from! {
    u64 => U64 via (|v| v),
    u32 => U64 via u64::from,
    i64 => I64 via (|v| v),
    i32 => I64 via i64::from,
    f64 => F64 via (|v| v),
    f32 => F64 via f64::from,
    bool => Bool via (|v| v),
    String => Str via (|v| v),
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(u64::try_from(v).unwrap_or(u64::MAX))
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}

/// One completed span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Dotted snake-case name from the documented taxonomy
    /// (e.g. `stage1.corr`).
    pub name: String,
    /// Trace-local thread id (sequential, not the OS tid).
    pub tid: u64,
    /// Process-unique span id.
    pub id: u64,
    /// Id of the innermost span open on the same thread at start.
    pub parent: Option<u64>,
    /// Start, in nanoseconds since the collector's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds; `None` marks an instant event.
    pub dur_ns: Option<u64>,
    /// Typed key/value attributes.
    pub attrs: Vec<(String, AttrValue)>,
}

impl SpanRecord {
    /// Whether this record is an instant event rather than a span.
    pub(crate) fn is_event(&self) -> bool {
        self.dur_ns.is_none()
    }

    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A fixed-footprint distribution: count, sum, min and max.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value (`f64::INFINITY` when empty).
    pub min: f64,
    /// Largest recorded value (`f64::NEG_INFINITY` when empty).
    pub max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }
}

impl Histogram {
    /// Record one value.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            // cast is exact here: count is a tally, f64 mantissa suffices
            self.sum / self.count as f64
        }
    }
}

/// Everything one collector recorded, merged and ready for export.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Completed spans and instant events, sorted by start time.
    pub spans: Vec<SpanRecord>,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

/// Aggregate of all same-named spans, one row of the summary table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpanAggregate {
    /// Span name.
    pub name: String,
    /// Number of completed spans with this name.
    pub count: u64,
    /// Total wall time across them, nanoseconds.
    pub total_ns: u64,
    /// Mean wall time, nanoseconds.
    pub mean_ns: u64,
    /// `total_ns` as a fraction of the trace wall span (0..=1).
    pub share: f64,
}

impl TraceReport {
    /// A counter's value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Count of instant events with this name.
    pub fn event_count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.is_event() && s.name == name).count() as u64
    }

    /// Count of completed (non-event) spans with this name.
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| !s.is_event() && s.name == name).count() as u64
    }

    /// Wall-clock extent of the trace: from the earliest span start to
    /// the latest span end, in nanoseconds.
    pub(crate) fn wall_ns(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let end = self
            .spans
            .iter()
            .map(|s| s.start_ns.saturating_add(s.dur_ns.unwrap_or(0)))
            .max()
            .unwrap_or(0);
        end.saturating_sub(start)
    }

    /// Aggregate spans by name, sorted by total time descending.
    pub(crate) fn aggregates(&self) -> Vec<SpanAggregate> {
        let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            if let Some(dur) = s.dur_ns {
                let slot = by_name.entry(&s.name).or_insert((0, 0));
                slot.0 += 1;
                slot.1 = slot.1.saturating_add(dur);
            }
        }
        let wall = self.wall_ns().max(1);
        let mut rows: Vec<SpanAggregate> = by_name
            .into_iter()
            .map(|(name, (count, total_ns))| SpanAggregate {
                name: name.to_owned(),
                count,
                total_ns,
                mean_ns: total_ns / count.max(1),
                // cast is exact here: ratio of tallies for display only
                share: total_ns as f64 / wall as f64,
            })
            .collect();
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        rows
    }

    /// Render the `perf report`-style per-stage summary: span aggregates
    /// (count, total, mean, share of wall) followed by counters and
    /// histograms.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let wall = self.wall_ns();
        let _ = writeln!(out, "trace wall time: {}", fmt_ns(wall));
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12} {:>12} {:>7}",
            "span", "count", "total", "mean", "share"
        );
        let _ = writeln!(out, "{}", "-".repeat(72));
        for row in self.aggregates() {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>12} {:>12} {:>6.1}%",
                row.name,
                row.count,
                fmt_ns(row.total_ns),
                fmt_ns(row.mean_ns),
                row.share * 100.0
            );
        }
        let events: BTreeMap<&str, u64> =
            self.spans.iter().filter(|s| s.is_event()).fold(BTreeMap::new(), |mut m, s| {
                *m.entry(s.name.as_str()).or_insert(0) += 1;
                m
            });
        if !events.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "{:<40} {:>8}", "event", "count");
            let _ = writeln!(out, "{}", "-".repeat(49));
            for (name, count) in events {
                let _ = writeln!(out, "{name:<40} {count:>8}");
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "{:<40} {:>16}", "counter", "value");
            let _ = writeln!(out, "{}", "-".repeat(57));
            for (name, value) in &self.counters {
                let _ = writeln!(out, "{name:<40} {value:>16}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "{:<34} {:>8} {:>10} {:>10} {:>10}",
                "histogram", "count", "mean", "min", "max"
            );
            let _ = writeln!(out, "{}", "-".repeat(76));
            for (name, h) in &self.histograms {
                let (min, max) = if h.count == 0 { (0.0, 0.0) } else { (h.min, h.max) };
                let _ = writeln!(
                    out,
                    "{:<34} {:>8} {:>10.1} {:>10.1} {:>10.1}",
                    name,
                    h.count,
                    h.mean(),
                    min,
                    max
                );
            }
        }
        out
    }

    /// Audit the scheduler counters for self-consistency. Returns the
    /// list of violated invariants (empty = consistent). Invariants are
    /// only checked when the counters that feed them are present, so a
    /// pipeline-only trace (no cluster run) passes trivially.
    pub fn check_consistency(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let c = |name: &str| self.counter(name);
        let has_cluster = self.counters.keys().any(|k| k.starts_with("cluster.tasks."));
        if has_cluster {
            let dispatched = c("cluster.tasks.dispatched");
            let resolved = c("cluster.tasks.completed")
                + c("cluster.tasks.discarded")
                + c("cluster.tasks.failed")
                + c("cluster.tasks.condemned")
                + c("cluster.tasks.cancelled");
            if dispatched != resolved {
                violations.push(format!(
                    "cluster.tasks.dispatched ({dispatched}) != completed + discarded + \
                     failed + condemned + cancelled ({resolved})"
                ));
            }
            // A failed run's `cluster.abort` event names the tasks it
            // left unfinished.
            let unfinished: u64 = self
                .spans
                .iter()
                .filter(|s| s.is_event() && s.name == "cluster.abort")
                .filter_map(|s| attr_u64(s, "unfinished"))
                .sum();
            let total = c("cluster.tasks.total");
            let done = c("cluster.tasks.completed") + c("cluster.tasks.resumed") + unfinished;
            if done != total {
                violations.push(format!(
                    "cluster.tasks.completed + resumed + unfinished ({done}) != \
                     cluster.tasks.total ({total})"
                ));
            }
            let dispatch_spans = self.span_count("cluster.dispatch");
            if dispatch_spans != dispatched {
                violations.push(format!(
                    "cluster.dispatch span count ({dispatch_spans}) != \
                     cluster.tasks.dispatched ({dispatched})"
                ));
            }
            let condemn_events = self.event_count("cluster.condemn");
            let condemned = c("cluster.tasks.condemned");
            if condemn_events != condemned {
                violations.push(format!(
                    "cluster.condemn event count ({condemn_events}) != \
                     cluster.tasks.condemned ({condemned})"
                ));
            }
        }
        if let Some(h) = self.histograms.get("svm.smo.iterations_per_solve") {
            // The solver emits the counter and the histogram sample
            // together, so a histogram without solves is a violation too.
            let solves = c("svm.smo.solves");
            if h.count != solves {
                violations.push(format!(
                    "svm.smo.iterations_per_solve count ({}) != svm.smo.solves ({solves})",
                    h.count
                ));
            }
        }
        violations.extend(self.check_causality());
        violations
    }

    /// Names the taxonomy does not list for their kind: a span, event,
    /// counter or histogram must be a row of [`crate::names::NAMES`] of
    /// that kind. The probe macros hold the pipeline to the table at
    /// compile time; a trace file read back may name anything. Names
    /// under `bench.` (the benchmark's wrapper spans, ROADMAP item 1)
    /// pass. Returns one violation per unknown `(kind, name)`.
    pub fn check_names(&self) -> Vec<String> {
        let spans = self.spans.iter().map(|s| {
            let kind = if s.is_event() { Kind::Event } else { Kind::Span };
            (kind, s.name.as_str())
        });
        let counters = self.counters.keys().map(|n| (Kind::Counter, n.as_str()));
        let histograms = self.histograms.keys().map(|n| (Kind::Histogram, n.as_str()));
        let unknown: BTreeSet<(String, &str)> = spans
            .chain(counters)
            .chain(histograms)
            .filter(|&(kind, name)| !name.starts_with("bench.") && !known(name, kind))
            .map(|(kind, name)| (format!("{kind:?}").to_lowercase(), name))
            .collect();
        unknown
            .into_iter()
            .map(|(kind, name)| format!("{kind} {name:?} is not in the trace taxonomy"))
            .collect()
    }

    /// Cross-thread causality invariants over the `ctx_*` attributes the
    /// collector stamps from the installed [`crate::TraceCtx`]:
    ///
    /// 1. every record carrying a causal context links to a live parent
    ///    dispatch — a `cluster.dispatch` span with the same
    ///    `(task, attempt)`;
    /// 2. a fenced attempt is silent after the fence — no record with a
    ///    `cluster.fence` event's `(task, attempt)` context starts after
    ///    the fence fires.
    ///
    /// Traces with no causal contexts (serial pipeline runs) pass
    /// trivially. Folded into [`TraceReport::check_consistency`].
    pub fn check_causality(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let identity = |s: &SpanRecord| Some((attr_u64(s, "task")?, attr_u64(s, "attempt")?));
        let mut dispatches = std::collections::BTreeSet::new();
        let mut fences = Vec::new();
        for s in &self.spans {
            let is_dispatch = !s.is_event() && s.name == "cluster.dispatch";
            let is_fence = s.is_event() && s.name == "cluster.fence";
            if !(is_dispatch || is_fence) {
                continue;
            }
            let Some(pair) = identity(s) else {
                violations.push(format!("record {:?} without integer task and attempt", s.name));
                continue;
            };
            if is_dispatch {
                dispatches.insert(pair);
            } else {
                fences.push((pair, s.start_ns));
            }
        }
        let mut orphaned = std::collections::BTreeSet::new();
        for s in &self.spans {
            let Some(pair) = ctx_pair(s) else {
                if s.attrs.iter().any(|(k, _)| k.starts_with("ctx_")) {
                    violations.push(format!(
                        "record {:?} carries a malformed causal context (ctx_task and \
                         ctx_attempt must both be non-negative integers)",
                        s.name
                    ));
                }
                continue;
            };
            if !dispatches.contains(&pair) && orphaned.insert(pair) {
                violations.push(format!(
                    "record {:?} carries ctx task={} attempt={} with no matching \
                     cluster.dispatch span",
                    s.name, pair.0, pair.1
                ));
            }
        }
        for ((task, attempt), fenced_ns) in fences {
            for s in &self.spans {
                if ctx_pair(s) == Some((task, attempt)) && s.start_ns > fenced_ns {
                    violations.push(format!(
                        "record {:?} (ctx task={task} attempt={attempt}) starts after its \
                         attempt was fenced",
                        s.name
                    ));
                }
            }
        }
        violations
    }
}

/// An attribute as `u64`, whatever integer variant it landed in.
fn attr_u64(s: &SpanRecord, key: &str) -> Option<u64> {
    match s.attr(key)? {
        AttrValue::U64(v) => Some(*v),
        AttrValue::I64(v) => u64::try_from(*v).ok(),
        _ => None,
    }
}

/// The `(ctx_task, ctx_attempt)` causal identity of a record, if the
/// collector stamped one.
fn ctx_pair(s: &SpanRecord) -> Option<(u64, u64)> {
    Some((attr_u64(s, "ctx_task")?, attr_u64(s, "ctx_attempt")?))
}

/// Render nanoseconds with an adaptive unit (ns/µs/ms/s).
fn fmt_ns(ns: u64) -> String {
    // cast is exact here: display-only unit scaling
    let ns_f = ns as f64;
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns_f / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns_f / 1e6)
    } else {
        format!("{:.3}s", ns_f / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, dur: Option<u64>) -> SpanRecord {
        SpanRecord {
            name: name.to_owned(),
            tid: 0,
            id: start + 1,
            parent: None,
            start_ns: start,
            dur_ns: dur,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn histogram_tracks_moments() {
        let mut h = Histogram::default();
        for v in [1.0, 3.0, 9.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert!((h.sum - 113.0).abs() < 1e-9);
        assert!((h.mean() - 28.25).abs() < 1e-9);
        assert!((h.min - 1.0).abs() < 1e-9);
        assert!((h.max - 100.0).abs() < 1e-9);
    }

    #[test]
    fn aggregates_sort_by_total_time() {
        let report = TraceReport {
            spans: vec![
                span("a.x", 0, Some(100)),
                span("b.y", 10, Some(500)),
                span("a.x", 20, Some(100)),
            ],
            ..TraceReport::default()
        };
        let rows = report.aggregates();
        assert_eq!(rows[0].name, "b.y");
        assert_eq!(rows[0].count, 1);
        assert_eq!(rows[1].name, "a.x");
        assert_eq!(rows[1].count, 2);
        assert_eq!(rows[1].total_ns, 200);
        assert_eq!(rows[1].mean_ns, 100);
    }

    #[test]
    fn consistency_flags_unbalanced_dispatches() {
        let mut report = TraceReport::default();
        report.counters.insert("cluster.tasks.dispatched".into(), 5);
        report.counters.insert("cluster.tasks.completed".into(), 3);
        report.counters.insert("cluster.tasks.total".into(), 3);
        // 5 dispatched but only 3 resolved → two violations (dispatch
        // balance and span-count mismatch).
        let violations = report.check_consistency();
        assert!(violations.iter().any(|v| v.contains("dispatched")));
    }

    #[test]
    fn consistency_passes_balanced_trace() {
        let dispatch = |task: u64, start: u64| SpanRecord {
            attrs: vec![
                ("task".into(), AttrValue::U64(task)),
                ("attempt".into(), AttrValue::U64(1)),
            ],
            ..span("cluster.dispatch", start, Some(10))
        };
        let mut report =
            TraceReport { spans: vec![dispatch(0, 0), dispatch(16, 5)], ..TraceReport::default() };
        report.counters.insert("cluster.tasks.total".into(), 2);
        report.counters.insert("cluster.tasks.dispatched".into(), 2);
        report.counters.insert("cluster.tasks.completed".into(), 2);
        assert!(report.check_consistency().is_empty());
    }

    #[test]
    fn consistency_counts_an_aborted_runs_unfinished_tasks() {
        let dispatch = SpanRecord {
            attrs: vec![("task".into(), AttrValue::U64(0)), ("attempt".into(), AttrValue::U64(1))],
            ..span("cluster.dispatch", 0, Some(10))
        };
        let abort = |unfinished: u64| SpanRecord {
            attrs: vec![
                ("error".into(), AttrValue::from("all_workers_failed")),
                ("unfinished".into(), AttrValue::U64(unfinished)),
            ],
            ..span("cluster.abort", 20, None)
        };
        let mut report = TraceReport { spans: vec![dispatch], ..TraceReport::default() };
        report.counters.insert("cluster.tasks.total".into(), 3);
        report.counters.insert("cluster.tasks.dispatched".into(), 1);
        report.counters.insert("cluster.tasks.failed".into(), 1);
        let completion = |r: &TraceReport| {
            r.check_consistency().iter().filter(|v| v.contains("+ unfinished")).count()
        };
        assert_eq!(completion(&report), 1, "three tasks, none accounted for");
        for (unfinished, violations) in [(3, 0), (2, 1)] {
            let mut r = report.clone();
            r.spans.push(abort(unfinished));
            assert_eq!(completion(&r), violations, "abort with {unfinished} unfinished");
        }
        report.spans.push(abort(3));
        assert!(report.check_consistency().is_empty(), "{:?}", report.check_consistency());
    }

    #[test]
    fn names_outside_the_taxonomy_are_violations() {
        let event = |name: &str| span(name, 40, None);
        let mut report = TraceReport {
            spans: vec![
                span("stage1.corr", 0, Some(10)),
                span("bench.core.process", 0, Some(20)),
                event("cluster.condemn"),
            ],
            ..TraceReport::default()
        };
        report.counters.insert("svm.smo.solves".into(), 1);
        report.histograms.entry("svm.smo.iterations_per_solve".into()).or_default().record(7.0);
        assert!(report.check_names().is_empty(), "{:?}", report.check_names());
        // One seeded name per kind: a misspelt span, an event recorded
        // under a span's name, a counter no probe emits and a histogram
        // named like a counter. A repeated unknown span is reported once.
        let seeded = |edit: &dyn Fn(&mut TraceReport), want: &str| {
            let mut r = report.clone();
            edit(&mut r);
            let violations = r.check_names();
            assert!(violations.len() == 1 && violations[0].starts_with(want), "{violations:?}");
        };
        seeded(
            &|r| r.spans.extend([span("stage1.cor", 1, Some(3)), span("stage1.cor", 5, Some(3))]),
            "span \"stage1.cor\" is not in the trace taxonomy",
        );
        seeded(&|r| r.spans.push(event("stage1.corr")), "event \"stage1.corr\" is not");
        seeded(
            &|r| {
                r.counters.insert("stage1.flop".into(), 2);
            },
            "counter \"stage1.flop\" is not",
        );
        seeded(
            &|r| r.histograms.entry("svm.smo.solves".into()).or_default().record(1.0),
            "histogram \"svm.smo.solves\" is not",
        );
    }

    #[test]
    fn summary_table_mentions_every_section() {
        let mut report = TraceReport {
            spans: vec![span("stage1.corr", 0, Some(1_500)), span("cluster.condemn", 3, None)],
            ..TraceReport::default()
        };
        report.counters.insert("cluster.tasks.dispatched".into(), 1);
        report.histograms.entry("svm.smo.iterations_per_solve".into()).or_default().record(7.0);
        let table = report.summary_table();
        assert!(table.contains("stage1.corr"));
        assert!(table.contains("cluster.condemn"));
        assert!(table.contains("cluster.tasks.dispatched"));
        assert!(table.contains("svm.smo.iterations_per_solve"));
        assert!(table.contains("share"));
    }
}
