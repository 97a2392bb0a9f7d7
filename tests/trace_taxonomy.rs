//! DESIGN.md §11 against `fcma_trace::names::NAMES`, per kind and in
//! both directions: the span table's first column, and the names the
//! Events, Counters and Histograms paragraphs backtick. The table is the
//! source of truth (the probe macros check against it at compile time);
//! this test keeps the prose in step with it.

use std::collections::BTreeSet;
use std::path::Path;

use fcma_trace::names::{Kind, NAMES};

/// A backticked token that has the shape of a trace name.
fn is_trace_name(token: &str) -> bool {
    token.contains('.')
        && token
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
}

/// The names §11 of `design` documents as `kind`.
fn documented(design: &str, kind: Kind) -> BTreeSet<&str> {
    let section = design.split("\n## ").find(|s| s.starts_with("11.")).unwrap_or_default();
    let lead = match kind {
        Kind::Span => "| span |",
        Kind::Event => "Events (instants):",
        Kind::Counter => "Counters:",
        Kind::Histogram => "Histograms:",
    };
    let Some(paragraph) = section.split("\n\n").find(|p| p.starts_with(lead)) else {
        return BTreeSet::new();
    };
    let text: Vec<&str> = if kind == Kind::Span {
        // The first cell of each table row.
        paragraph.lines().filter_map(|row| row.split('|').nth(1)).collect()
    } else {
        vec![paragraph]
    };
    text.iter()
        .flat_map(|t| t.split('`').skip(1).step_by(2))
        .filter(|token| is_trace_name(token))
        .collect()
}

/// Every disagreement between `names` and §11 of `design`.
fn taxonomy_errors(design: &str, names: &[(&str, Kind)]) -> Vec<String> {
    let mut errors = Vec::new();
    for kind in [Kind::Span, Kind::Event, Kind::Counter, Kind::Histogram] {
        let table: BTreeSet<&str> =
            names.iter().filter(|(_, k)| *k == kind).map(|(n, _)| *n).collect();
        let doc = documented(design, kind);
        for name in table.difference(&doc) {
            errors.push(format!("{kind:?} `{name}` is in fcma_trace::names but not in §11"));
        }
        for name in doc.difference(&table) {
            errors.push(format!("{kind:?} `{name}` is in §11 but not in fcma_trace::names"));
        }
    }
    errors
}

fn design_md() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md");
    std::fs::read_to_string(path).expect("DESIGN.md is readable")
}

#[test]
fn design_md_documents_exactly_the_names_table() {
    let design = design_md();
    for kind in [Kind::Span, Kind::Event, Kind::Counter, Kind::Histogram] {
        assert!(!documented(&design, kind).is_empty(), "§11 documents no {kind:?}");
    }
    assert_eq!(taxonomy_errors(&design, NAMES), Vec::<String>::new());
}

#[test]
fn a_dropped_row_or_a_renamed_counter_is_caught() {
    let design = design_md();
    let dropped: Vec<(&str, Kind)> =
        NAMES.iter().copied().filter(|(n, _)| *n != "cluster.run").collect();
    assert_eq!(
        taxonomy_errors(&design, &dropped),
        ["Span `cluster.run` is in §11 but not in fcma_trace::names"]
    );
    let renamed = design.replace("`svm.smo.solves`", "`svm.smo.solve_count`");
    assert_eq!(
        taxonomy_errors(&renamed, NAMES),
        [
            "Counter `svm.smo.solves` is in fcma_trace::names but not in §11",
            "Counter `svm.smo.solve_count` is in §11 but not in fcma_trace::names",
        ]
    );
}
