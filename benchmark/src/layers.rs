//! The benchmark's own spans around calls into each product layer, and
//! what is derived from them after the single drain.
//!
//! Every call into a layer's public function goes through [`call`],
//! which opens a `bench.<layer>.<fn>` span. With no collector installed
//! (the untraced run) the span is a disabled guard and only the
//! `Instant` pair remains. The product's own spans nest beneath the
//! bench spans through parent ids; they stay in the trace file for
//! inspection but no metric is defined on them.

use fcma_trace::{AttrValue, SpanRecord, TraceReport};
use std::collections::BTreeMap;
use std::time::Instant;

/// Run `f` inside the bench span `name`; returns its result and wall
/// seconds.
pub fn call<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    call_tagged(name, Vec::new(), f)
}

/// [`call`] with span attributes, for telling configurations of one
/// function apart (see [`durations_where`]).
pub fn call_tagged<R>(
    name: &'static str,
    attrs: Vec<(&'static str, AttrValue)>,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    debug_assert!(name.starts_with("bench."));
    let span = fcma_trace::start_span(name, attrs);
    let t = Instant::now();
    let r = f();
    let secs = t.elapsed().as_secs_f64();
    drop(span);
    (r, secs)
}

/// Durations, in seconds, of every completed span called `name`.
pub fn durations(report: &TraceReport, name: &str) -> Vec<f64> {
    durations_where(report, name, &[])
}

/// [`durations`] restricted to spans carrying every `(key, value)` tag.
pub fn durations_where(report: &TraceReport, name: &str, tags: &[(&str, usize)]) -> Vec<f64> {
    report
        .spans
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| tags.iter().all(|&(k, v)| s.attr(k) == Some(&AttrValue::from(v))))
        .filter_map(|s| s.dur_ns)
        .map(|ns| ns as f64 / 1e9)
        .collect()
}

fn is_bench(s: &SpanRecord) -> bool {
    s.dur_ns.is_some() && s.name.starts_with("bench.")
}

/// The layer of a bench span: `bench.<layer>.<fn>`.
fn layer_of(name: &str) -> &str {
    name.split('.').nth(1).unwrap_or("")
}

/// Self time per bench span: its duration minus the durations of its
/// nearest bench descendants (product spans in between are skipped, so
/// their time stays with the bench span that called them).
pub struct SelfTimes {
    /// `(span index in report.spans, self seconds, has a bench ancestor)`
    rows: Vec<(usize, f64, bool)>,
}

impl SelfTimes {
    pub fn of(report: &TraceReport) -> SelfTimes {
        let by_id: BTreeMap<u64, usize> =
            report.spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        // Nearest bench ancestor of each bench span.
        let bench_parent = |s: &SpanRecord| {
            let mut cur = s.parent;
            while let Some(i) = cur.and_then(|id| by_id.get(&id).copied()) {
                if is_bench(&report.spans[i]) {
                    return Some(i);
                }
                cur = report.spans[i].parent;
            }
            None
        };
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        let mut rows = Vec::new();
        for (i, s) in report.spans.iter().enumerate().filter(|(_, s)| is_bench(s)) {
            let parent = bench_parent(s);
            if let Some(p) = parent {
                *child_ns.entry(p).or_default() += s.dur_ns.unwrap_or(0);
            }
            rows.push((i, 0.0, parent.is_some()));
        }
        for (i, self_s, _) in &mut rows {
            let dur = report.spans[*i].dur_ns.unwrap_or(0);
            let children = child_ns.get(i).copied().unwrap_or(0);
            *self_s = dur.saturating_sub(children) as f64 / 1e9;
        }
        SelfTimes { rows }
    }

    /// Total self seconds per layer.
    pub fn by_layer(&self, report: &TraceReport) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for &(i, self_s, _) in &self.rows {
            *out.entry(layer_of(&report.spans[i].name).to_owned()).or_default() += self_s;
        }
        out
    }

    /// `(Σ self seconds, Σ root-span seconds)`. Children of one thread
    /// never overlap, so the two agree unless parent ids are broken.
    pub fn totals(&self, report: &TraceReport) -> (f64, f64) {
        let self_sum = self.rows.iter().map(|r| r.1).sum();
        let root_sum = self
            .rows
            .iter()
            .filter(|r| !r.2)
            .map(|r| report.spans[r.0].dur_ns.unwrap_or(0) as f64 / 1e9)
            .sum();
        (self_sum, root_sum)
    }
}
