//! Runtime observability for the FCMA reproduction: hierarchical spans,
//! monotonic counters, value histograms, and a Chrome-trace exporter —
//! std-only, with a near-no-op disabled path.
//!
//! The paper's optimization story is measurement-driven (per-stage
//! wall-clock breakdowns and hardware-counter profiles motivate every
//! kernel change), and the cluster scheduler's fault handling is only
//! trustworthy if its decisions are visible. This crate provides the
//! runtime side of that: instrument code with [`span!`], [`event!`],
//! [`counter!`], and [`histogram!`]; install a [`Collector`] around the
//! region of interest; [`Collector::drain`] the merged [`TraceReport`];
//! and export it as Chrome `chrome://tracing` JSON
//! ([`export::to_chrome_json`]) or a `perf report`-style summary
//! ([`TraceReport::summary_table`]).
//!
//! # Scoping
//!
//! A collector is installed on a thread ([`Collector::install_scoped`])
//! and inherited by threads forked from it through the `fcma-sync`
//! facade (pool regions and `fcma_sync::thread::spawn`). Threads
//! created any other way are uninstrumented. Nothing is process-global,
//! so two instrumented runs in one process produce two disjoint reports.
//!
//! The flight recorder ([`recorder::FlightLog`]) is scoped the same
//! way by ownership instead of installation: each cluster run creates
//! its own bounded log, shares it with its workers, and drops it on
//! return, so a [`postmortem`] dump holds that run's events only.
//!
//! # Cost model
//!
//! With no collector current on the thread every macro reduces to one
//! thread-local read — attribute expressions are **not evaluated** and
//! nothing allocates, so instrumentation can stay in the pipeline
//! permanently. With a collector current, span records are buffered per
//! thread and merged only at drain, so recording never contends across
//! worker threads.
//!
//! # Span taxonomy
//!
//! Span, event, counter, and histogram names form a stable dotted
//! snake-case contract: the [`names`] table, documented in DESIGN.md
//! §11. Each macro checks its name and kind against the table at
//! compile time, so an unknown name fails the build.
//!
//! ```
//! use fcma_trace::{span, counter, Collector};
//!
//! let collector = Collector::new();
//! let scope = collector.install_scoped();
//! {
//!     let _span = span!("stage1.corr", voxels = 64, epochs = 12);
//!     counter!("stage1.flops", 1_234_u64);
//! }
//! let report = scope.drain();
//! assert_eq!(report.span_count("stage1.corr"), 1);
//! assert_eq!(report.counter("stage1.flops"), 1_234);
//! ```

#![cfg_attr(test, expect(clippy::disallowed_methods, reason = "tests sleep on real threads"))]

mod collector;
pub mod ctx;
pub mod export;
pub mod json;
pub mod names;
pub mod postmortem;
pub mod recorder;
mod report;

pub use collector::{
    add_counter, instant, is_enabled, record_span_elapsed, record_value, start_span, Collector,
    SpanGuard,
};
pub use collector::{IntoCount, ScopedCollector};
pub use ctx::{CtxGuard, TraceCtx, TraceOrigin};
pub use report::{AttrValue, Histogram, SpanRecord, TraceReport};

/// Fail the build unless `$name` is a `$kind` row of [`names::NAMES`]: a
/// `const` item, which rustc evaluates under `cargo check` and clippy too.
#[doc(hidden)]
#[macro_export]
macro_rules! __known_name {
    ($name:literal, $kind:ident) => {
        const _: () = assert!(
            $crate::names::known($name, $crate::names::Kind::$kind),
            concat!("trace name not in the taxonomy: ", $name)
        );
    };
}

/// Open a hierarchical span; it records its wall time when the returned
/// guard drops. Attributes are `key = value` pairs, where values are
/// anything convertible to [`AttrValue`] (integers, floats, bools,
/// strings). When no collector is installed the attribute expressions
/// are not evaluated.
///
/// ```
/// # use fcma_trace::span;
/// let _guard = span!("stage2.normalize", voxels = 64_usize, schedule = "merged");
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal $(, $key:ident = $value:expr)* $(,)?) => {{
        $crate::__known_name!($name, Span);
        if $crate::is_enabled() {
            #[expect(clippy::disallowed_methods, reason = "name checked above")]
            let guard = $crate::start_span(
                $name,
                vec![$((stringify!($key), $crate::AttrValue::from($value))),*],
            );
            guard
        } else {
            $crate::SpanGuard::disabled()
        }
    }};
}

/// Record an instant event (a point in time, not a duration), attached
/// to the innermost open span on this thread.
///
/// ```
/// # use fcma_trace::event;
/// event!("cluster.condemn", worker = 3_usize);
/// ```
#[macro_export]
macro_rules! event {
    ($name:literal $(, $key:ident = $value:expr)* $(,)?) => {{
        $crate::__known_name!($name, Event);
        if $crate::is_enabled() {
            #[expect(clippy::disallowed_methods, reason = "name checked above")]
            let () = $crate::instant(
                $name,
                vec![$((stringify!($key), $crate::AttrValue::from($value))),*],
            );
        }
    }};
}

/// Add a delta to a named monotonic counter. Accepts `u64`, `u32`, or
/// `usize` deltas (via [`IntoCount`]), so pipeline code needs no casts.
///
/// ```
/// # use fcma_trace::counter;
/// counter!("svm.cv.folds", 12_usize);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:literal, $delta:expr) => {{
        $crate::__known_name!($name, Counter);
        if $crate::is_enabled() {
            #[expect(clippy::disallowed_methods, reason = "name checked above")]
            let () = $crate::add_counter($name, $delta);
        }
    }};
}

/// Record a value into a named histogram.
///
/// ```
/// # use fcma_trace::histogram;
/// histogram!("svm.smo.iterations_per_solve", 41.0);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:literal, $value:expr) => {{
        $crate::__known_name!($name, Histogram);
        if $crate::is_enabled() {
            #[expect(clippy::disallowed_methods, reason = "name checked above")]
            let () = $crate::record_value($name, $value);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_macros_do_not_evaluate_attrs() {
        // Nothing is installed on this thread, whatever sibling tests do.
        assert!(!is_enabled());
        let mut evaluated = false;
        let _g = span!(
            "stage1.corr",
            voxels = {
                evaluated = true;
                1_usize
            }
        );
        counter!("stage1.flops", {
            evaluated = true;
            1_u64
        });
        assert!(!evaluated, "disabled macros must not evaluate attribute expressions");
    }

    #[test]
    fn span_nesting_records_parents() {
        let collector = Collector::new();
        let scope = collector.install_scoped();
        {
            let outer = span!("analysis.sweep", voxels = 8_usize);
            let outer_id = outer.id().unwrap();
            {
                let inner = span!("stage1.corr");
                assert_ne!(inner.id().unwrap(), outer_id);
            }
            event!("cluster.checkpoint", records = 2_usize);
        }
        let report = scope.drain();
        assert_eq!(report.spans.len(), 3);
        let sweep = report.spans.iter().find(|s| s.name == "analysis.sweep").unwrap();
        let corr = report.spans.iter().find(|s| s.name == "stage1.corr").unwrap();
        let ckpt = report.spans.iter().find(|s| s.name == "cluster.checkpoint").unwrap();
        assert_eq!(sweep.parent, None);
        assert_eq!(corr.parent, Some(sweep.id));
        assert_eq!(ckpt.parent, Some(sweep.id), "events attach to the open span");
        assert!(ckpt.is_event());
        assert_eq!(sweep.attr("voxels"), Some(&AttrValue::U64(8)));
    }

    #[test]
    fn drain_orders_spans_by_start_time_across_threads() {
        let collector = Collector::new();
        let scope = collector.install_scoped();
        {
            let _first = span!("stage1.corr");
            std::thread::sleep(Duration::from_millis(2));
        }
        let (tx, rx) = fcma_sync::channel::unbounded();
        fcma_sync::thread::spawn(move || {
            {
                let _worker = span!("stage2.normalize");
                std::thread::sleep(Duration::from_millis(1));
            }
            tx.send(()).expect("parent holds the receiver");
        });
        rx.recv().expect("child reports");
        {
            let _last = span!("stage3.score");
        }
        let report = scope.drain();
        let names: Vec<&str> = report.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["stage1.corr", "stage2.normalize", "stage3.score"]);
        let tids: Vec<u64> = report.spans.iter().map(|s| s.tid).collect();
        assert_ne!(tids[0], tids[1], "worker thread gets its own trace tid");
    }

    #[test]
    fn counters_merge_across_threads() {
        let collector = Collector::new();
        let scope = collector.install_scoped();
        fcma_sync::Pool::new(4).run(vec![(); 4], |_i, ()| {
            counter!("svm.smo.iterations", 10_u64);
            histogram!("svm.smo.iterations_per_solve", 10.0);
        });
        let report = scope.drain();
        assert_eq!(report.counter("svm.smo.iterations"), 40);
        assert_eq!(report.histograms["svm.smo.iterations_per_solve"].count, 4);
    }

    #[test]
    fn drain_excludes_spans_still_open_then_sees_them_later() {
        let collector = Collector::new();
        let scope = collector.install_scoped();
        let open = span!("svm.cv.loso");
        let mid = scope.drain();
        assert_eq!(mid.span_count("svm.cv.loso"), 0, "open span not yet recorded");
        drop(open);
        let done = scope.drain();
        assert_eq!(done.span_count("svm.cv.loso"), 1);
    }

    #[test]
    fn reinstalling_a_collector_keeps_accumulating() {
        let collector = Collector::new();
        for _ in 0..3 {
            let _scope = collector.install_scoped();
            let _g = span!("stage1.corr");
            counter!("stage1.flops", 5_u64);
        }
        let report = collector.drain();
        assert_eq!(report.span_count("stage1.corr"), 3);
        assert_eq!(report.counter("stage1.flops"), 15);
    }

    #[test]
    fn facade_forked_threads_inherit_the_collector_without_a_ctx() {
        let collector = Collector::new();
        let scope = collector.install_scoped();
        assert_eq!(TraceCtx::current(), None);
        let (tx, rx) = fcma_sync::channel::unbounded();
        fcma_sync::thread::spawn(move || {
            drop(span!("task.process"));
            tx.send(()).expect("parent holds the receiver");
        });
        rx.recv().expect("child reports");
        // A barrier-like rendezvous: no task finishes until all three
        // have started, so three distinct threads each run one.
        let started = fcma_sync::Mutex::new(0_usize);
        let all_started = fcma_sync::Condvar::new();
        fcma_sync::Pool::new(3).run(vec![(); 3], |_i, ()| {
            let _g = span!("stage3.score");
            let mut n = started.lock();
            *n += 1;
            all_started.notify_all();
            while *n < 3 {
                all_started.wait(&mut n);
            }
        });
        let report = scope.drain();
        assert_eq!(report.span_count("task.process"), 1);
        assert_eq!(report.span_count("stage3.score"), 3);
        let mut tids: Vec<u64> =
            report.spans.iter().filter(|s| s.name == "stage3.score").map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "each pool worker records under its own tid");
        assert!(report.spans.iter().all(|s| s.attr("ctx_task").is_none()));
    }
}
