//! The trace-name taxonomy: every span, event, counter and histogram
//! name the pipeline records, with its kind. DESIGN.md §11 documents
//! the same names, and a test holds the two together.
//!
//! [`span!`](crate::span), [`event!`](crate::event),
//! [`counter!`](crate::counter) and [`histogram!`](crate::histogram)
//! check their name against this table at compile time, so a
//! misspelled name, or a span name used as a counter, fails the build:
//!
//! ```compile_fail
//! fcma_trace::counter!("stage1.flop", 1_u64);
//! ```

/// What a trace name names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A duration ([`span!`](crate::span)).
    Span,
    /// An instant ([`event!`](crate::event)).
    Event,
    /// A monotonic counter ([`counter!`](crate::counter)).
    Counter,
    /// A value histogram ([`histogram!`](crate::histogram)).
    Histogram,
}

/// Every trace name with its kind.
pub const NAMES: &[(&str, Kind)] = &[
    ("analysis.sweep", Kind::Span),
    ("task.process", Kind::Span),
    ("stage1.corr", Kind::Span),
    ("stage12.fused", Kind::Span),
    ("stage2.normalize", Kind::Span),
    ("stage3.score", Kind::Span),
    ("svm.kernel.precompute", Kind::Span),
    ("svm.cv.loso", Kind::Span),
    ("cluster.run", Kind::Span),
    ("cluster.dispatch", Kind::Span),
    ("cluster.condemn", Kind::Event),
    ("cluster.fence", Kind::Event),
    ("cluster.checkpoint", Kind::Event),
    ("cluster.resume_missing", Kind::Event),
    ("cluster.tasks.total", Kind::Counter),
    ("cluster.tasks.resumed", Kind::Counter),
    ("cluster.tasks.dispatched", Kind::Counter),
    ("cluster.tasks.completed", Kind::Counter),
    ("cluster.tasks.discarded", Kind::Counter),
    ("cluster.tasks.failed", Kind::Counter),
    ("cluster.tasks.condemned", Kind::Counter),
    ("cluster.tasks.requeued", Kind::Counter),
    ("cluster.tasks.cancelled", Kind::Counter),
    ("cluster.checkpoint.records", Kind::Counter),
    ("svm.smo.solves", Kind::Counter),
    ("svm.smo.iterations", Kind::Counter),
    ("svm.cv.folds", Kind::Counter),
    ("stage1.flops", Kind::Counter),
    ("stage1.mem_refs", Kind::Counter),
    ("stage3.voxels", Kind::Counter),
    ("pool.tasks.run", Kind::Counter),
    ("pool.steals", Kind::Counter),
    ("pool.idle.parks", Kind::Counter),
    ("svm.smo.iterations_per_solve", Kind::Histogram),
    ("cluster.dispatch.wall_ms", Kind::Histogram),
];

/// Is `name` in [`NAMES`] as a `kind`? A `const fn`, so the probe
/// macros evaluate it at compile time.
pub const fn known(name: &str, kind: Kind) -> bool {
    let mut i = 0;
    while i < NAMES.len() {
        let (row, row_kind) = NAMES[i];
        // The discriminant casts are exact: `Kind` has four fieldless variants.
        if row_kind as u8 == kind as u8 && same_bytes(row.as_bytes(), name.as_bytes()) {
            return true;
        }
        i += 1;
    }
    false
}

const fn same_bytes(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two or more `[a-z][a-z0-9_]*` segments joined by dots.
    fn is_snake_dotted(name: &str) -> bool {
        name.contains('.')
            && name.split('.').all(|s| {
                s.starts_with(|c: char| c.is_ascii_lowercase())
                    && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            })
    }

    #[test]
    fn names_are_unique_snake_dotted_and_known_by_kind() {
        for (i, &(name, kind)) in NAMES.iter().enumerate() {
            assert!(is_snake_dotted(name), "`{name}` is not snake.dotted");
            assert!(NAMES[..i].iter().all(|(n, _)| *n != name), "`{name}` is listed twice");
            assert!(known(name, kind));
        }
        for bad in ["stage1", "Stage1.corr", "stage1..corr", "stage1.corr-x", "1stage.corr"] {
            assert!(!is_snake_dotted(bad), "{bad}");
        }
        assert!(!known("stage1.corr", Kind::Counter), "a span is not a counter");
        assert!(!known("stage1.flop", Kind::Counter) && !known("stage1.flopss", Kind::Counter));
    }
}
