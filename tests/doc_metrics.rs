//! Keeps the prose honest about its numbers: every host metric
//! EXPERIMENTS.md cites is one `BENCHMARK.json` declares,
//! `BENCH_history.jsonl` holds a full-length record of every workload in
//! both modes, every number EXPERIMENTS.md quotes as ours is one the
//! `fcma-repro` record `results/repro_all.txt` prints in the table of
//! the same title, and no document points back at the retired
//! criterion layer, the retired metrics
//! exporter, SLO gate and trace subcommands, the retired mutation
//! engine, the retired model save/load, the cluster driver's retired
//! backup copies of running tasks or the retired audit tool and its
//! allow markers, the work-stealing pool's retired seed and statistics,
//! the cluster driver's retired flight log and postmortem dumps, or
//! `fcma-repro`'s retired host timings and options. Plain substring
//! checks; the files are the repository's own.

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
const RETIRED: [&str; 42] = [
    "criterion",
    "cargo bench",
    "bench_gemm",
    "bench_syrk",
    "bench_svm",
    "bench_pipeline",
    "bench_normalization",
    "bench_cluster",
    "bench_trace",
    "--metrics-out",
    "--slo",
    "slo.toml",
    "fcma top",
    "fcma postmortem",
    "--postmortem",
    "fcma-postmortem",
    "FlightLog",
    "Prometheus",
    "cargo run -p fcma-mut",
    "mutation-baseline.json",
    "audit: equivalent(",
    "fcma-audit -- mutants",
    "save_model",
    "speculate_after",
    "cluster.speculate",
    "recorder.speculate",
    "TaskControls",
    "cargo run -p fcma-audit",
    "audit-baseline.json",
    "with_seed",
    "PoolStats",
    "pool.steals",
    "pool.idle.parks",
    "VirtualClock",
    "now_virtual_nanos",
    "ablate-block",
    "ablate-panel",
    "--reps",
    "--scaled-voxels",
    "--sample-voxels",
    "(host, scaled)",
    // Split so that this line is not itself a marker.
    concat!("// audit", ": allow("),
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

/// The numbers in `text`: maximal runs of digits and dots that start
/// with a digit, less a sentence's closing dot.
fn numbers(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices().chain([(text.len(), ' ')]) {
        match (c.is_ascii_digit() || (c == '.' && start.is_some()), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                out.push(text[s..i].trim_end_matches('.'));
                start = None;
            }
            _ => {}
        }
    }
    out
}

/// The cells of EXPERIMENTS.md's tables that quote our reproduction:
/// those under a header naming "ours", and those after a row label
/// naming it (`| | ours (model) | 3457.93 | …`). Each comes with the
/// title of its section, the `## ` heading up to its dash (`Table 3`,
/// `Fig. 10`).
fn ours_cells(prose: &str) -> Vec<(&str, &str)> {
    let mut cells = Vec::new();
    let mut title = "";
    let mut header: Option<Vec<bool>> = None;
    for line in prose.lines() {
        if let Some(heading) = line.strip_prefix("## ") {
            title = heading.split(" — ").next().unwrap_or(heading);
        }
        let Some(row) = line.strip_prefix('|') else {
            header = None;
            continue;
        };
        let row: Vec<&str> =
            row.trim_end().trim_end_matches('|').split('|').map(str::trim).collect();
        let Some(ours_column) = &header else {
            header = Some(row.iter().map(|c| c.contains("ours")).collect());
            continue;
        };
        let label = row.iter().position(|c| c.contains("ours"));
        for (i, cell) in row.iter().enumerate() {
            if ours_column.get(i).copied().unwrap_or(false) || label.is_some_and(|l| i > l) {
                cells.push((title, *cell));
            }
        }
    }
    cells
}

/// The table `fcma-repro` prints under `title`: from its `== title:`
/// line to the next `== ` line.
fn repro_table<'a>(record: &'a str, title: &str) -> Option<&'a str> {
    let table = &record[record.find(&format!("== {title}:"))?..];
    Some(&table[..table[1..].find("\n== ").map_or(table.len(), |end| end + 1)])
}

#[test]
fn experiments_md_quotes_the_repro_record() {
    let record = read("results/repro_all.txt");
    let prose = read("EXPERIMENTS.md");
    let mut quoted = 0;
    for (title, cell) in ours_cells(&prose) {
        let table = repro_table(&record, title).unwrap_or_else(|| {
            panic!("EXPERIMENTS.md quotes ours under `{title}`; results/repro_all.txt has no such table")
        });
        let printed: BTreeSet<&str> = numbers(table).into_iter().collect();
        for n in numbers(cell) {
            assert!(
                printed.contains(n),
                "EXPERIMENTS.md's {title} quotes {n} as ours; results/repro_all.txt's {title} \
                 does not print it"
            );
            quoted += 1;
        }
    }
    assert!(quoted >= 60, "EXPERIMENTS.md quotes only {quoted} numbers as ours");
    // The fenced blocks quote the record's end-to-end lines whole.
    for (i, block) in prose.split("```").enumerate().skip(1).step_by(2) {
        for line in block.lines().filter(|l| !l.trim().is_empty()) {
            assert!(
                record.lines().any(|r| r == line),
                "EXPERIMENTS.md fenced block {} quotes a line results/repro_all.txt lacks: {line}",
                i / 2 + 1
            );
        }
    }
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
