//! Keeps the prose honest about host numbers: every host metric
//! EXPERIMENTS.md cites is one `BENCHMARK.json` declares,
//! `BENCH_history.jsonl` holds a full-length record of every workload in
//! both modes, and no document points back at the retired criterion
//! layer. Plain substring checks; the files are the repository's own.

use std::collections::BTreeSet;
use std::path::Path;

const LAYERS: [&str; 9] =
    ["host.", "fmri.", "linalg.", "core.", "svm.", "pool.", "cluster.", "sim.", "trace."];
const WORKLOADS: [&str; 4] = ["task-facescene", "task-attention", "sweep-cohort", "online-session"];
const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "results/README.md",
    ".claude/skills/verify/SKILL.md",
];
const RETIRED: [&str; 9] = [
    "criterion",
    "cargo bench",
    "bench_gemm",
    "bench_syrk",
    "bench_svm",
    "bench_pipeline",
    "bench_normalization",
    "bench_cluster",
    "bench_trace",
];

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn experiments_md_cites_only_declared_metrics() {
    let declared = read("BENCHMARK.json");
    let prose = read("EXPERIMENTS.md");
    // Odd-numbered pieces of a split on '`' are the back-ticked tokens.
    let cited: BTreeSet<&str> = prose
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|tok| LAYERS.iter().any(|layer| tok.starts_with(layer)))
        .collect();
    for name in &cited {
        assert!(
            declared.contains(&format!("\"name\": \"{name}\"")),
            "EXPERIMENTS.md cites `{name}`, which BENCHMARK.json does not declare"
        );
    }
    assert!(cited.len() >= 8, "EXPERIMENTS.md cites only {} benchmark metrics", cited.len());
}

#[test]
fn bench_history_records_every_workload_in_both_modes() {
    let history = read("BENCH_history.jsonl");
    for (i, line) in history.lines().enumerate() {
        for field in ["\"smoke\":false", "\"correct\":true", "\"failed\":0"] {
            assert!(line.contains(field), "BENCH_history.jsonl line {} lacks {field}", i + 1);
        }
    }
    for workload in WORKLOADS {
        for mode in ["\"trace\":0,", "\"trace\":1,"] {
            let key = format!("\"workload\":\"{workload}\"");
            assert!(
                history.lines().any(|l| l.contains(&key) && l.contains(mode)),
                "BENCH_history.jsonl has no {workload} record with {mode}"
            );
        }
    }
}

#[test]
fn no_document_names_the_retired_criterion_layer() {
    for doc in DOCS {
        let text = read(doc);
        for word in RETIRED {
            assert!(!text.contains(word), "{doc} still mentions `{word}`");
        }
    }
}
