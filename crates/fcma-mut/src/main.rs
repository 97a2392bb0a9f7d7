//! Command-line driver for the mutation-analysis engine.
//!
//! Usage: `fcma-mut run [--root DIR] [--seed N] [--sample K]
//! [--classes a,b,c] [--disable-pass P] [--check FILE]
//! [--format human|json]`.
//!
//! With no `--root`, the workspace root is resolved from the location
//! of this crate at compile time (two levels above its manifest), so
//! `cargo run -p fcma-mut -- run` works from any directory inside the
//! workspace.
//!
//! Exit codes: 0 — every sampled mutant is killed, covered or triaged, the
//! matrix matches the baseline (when `--check` is given), and every
//! DESIGN.md §17 minimum score holds; 1 — untriaged survivors, baseline
//! drift, or a §17 score violation; 2 — usage error, I/O failure, or
//! malformed DESIGN.md contract rows.

use std::path::PathBuf;
use std::process::ExitCode;

use fcma_audit::format::json_str;
use fcma_audit::mutants::MUTANT_CLASSES;
use fcma_audit::passes::PASS_NAMES;
use fcma_audit::Format;
use fcma_mut::engine::{run_on, RunConfig, Verdict};
use fcma_mut::{parse_matrix, render_matrix, render_matrix_delta};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Human;
    let mut command: Option<String> = None;
    let mut cfg = RunConfig::default();
    let mut baseline: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage_error("--root requires a directory argument"),
            },
            "--format" => match it.next().and_then(|v| Format::parse(v)) {
                Some(f) => format = f,
                None => return usage_error("--format requires `human` or `json`"),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.seed = n,
                None => return usage_error("--seed requires an integer argument"),
            },
            "--sample" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.sample = n,
                None => return usage_error("--sample requires an integer (0 = exhaustive)"),
            },
            "--check" => match it.next() {
                Some(path) => baseline = Some(PathBuf::from(path)),
                None => return usage_error("--check requires a baseline file argument"),
            },
            "--disable-pass" => match it.next() {
                Some(p) if PASS_NAMES.contains(&p.as_str()) => cfg.disabled_passes.push(p.clone()),
                Some(p) => {
                    eprintln!("fcma-mut: unknown pass `{p}` (known: {})", PASS_NAMES.join(", "));
                    return ExitCode::from(2);
                }
                None => return usage_error("--disable-pass requires a pass name"),
            },
            "--classes" => match it.next() {
                Some(list) => {
                    let classes: Vec<String> = list.split(',').map(str::to_owned).collect();
                    for c in &classes {
                        if !MUTANT_CLASSES.contains(&c.as_str()) {
                            eprintln!(
                                "fcma-mut: unknown mutant class `{c}` (known: {})",
                                MUTANT_CLASSES.join(", ")
                            );
                            return ExitCode::from(2);
                        }
                    }
                    cfg.classes = Some(classes);
                }
                None => return usage_error("--classes requires a comma-separated class list"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if command.is_none() => command = Some(other.to_owned()),
            other => {
                eprintln!("fcma-mut: unexpected argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    match command.as_deref() {
        Some("run") => {}
        Some(other) => {
            eprintln!("fcma-mut: unknown command `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
        None => {
            eprintln!("fcma-mut: missing command\n{USAGE}");
            return ExitCode::from(2);
        }
    }

    let root =
        root.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(".."));
    let ws = match fcma_audit::analyze(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("fcma-mut: error: {e}");
            return ExitCode::from(2);
        }
    };
    if !ws.contracts.errors.is_empty() {
        for e in &ws.contracts.errors {
            eprintln!("fcma-mut: {e}");
        }
        eprintln!(
            "fcma-mut: {} malformed DESIGN.md contract row(s); fix the document",
            ws.contracts.errors.len()
        );
        return ExitCode::from(2);
    }

    let analysis = run_on(&ws, &cfg);
    let mut failed = false;

    // Per-mutant report: survivors always; the full classification in
    // JSON mode (machine consumers get the whole kill matrix).
    for c in &analysis.classified {
        let m = &c.mutant;
        match format {
            Format::Json => println!(
                "{{\"id\":{},\"class\":{},\"file\":{},\"line\":{},\"verdict\":{},\
                 \"detail\":{}}}",
                json_str(&m.id()),
                json_str(m.class),
                json_str(&m.rel_path),
                m.line + 1,
                json_str(c.verdict.label()),
                json_str(&verdict_detail(&c.verdict))
            ),
            Format::Human => {
                if c.verdict == Verdict::Surviving {
                    println!(
                        "{}:{}: surviving: [{}] {} ({})",
                        m.rel_path,
                        m.line + 1,
                        m.class,
                        m.description,
                        verdict_detail(&c.verdict)
                    );
                }
            }
        }
        if c.verdict == Verdict::Surviving {
            failed = true;
        }
    }

    let current = &analysis.matrix;
    let sampled: usize = current.iter().map(|r| r.total).sum();
    if format == Format::Human {
        println!(
            "fcma-mut: {} mutant(s) sampled of {} enumerated (seed {}, {} per class{})",
            sampled,
            analysis.enumerated,
            cfg.seed,
            if cfg.sample == 0 { "all".to_owned() } else { cfg.sample.to_string() },
            if cfg.disabled_passes.is_empty() {
                String::new()
            } else {
                format!(", disabled: {}", cfg.disabled_passes.join(","))
            }
        );
        print!("{}", render_matrix(current));
    }

    // DESIGN.md §17 minimum kill scores, for the classes this run
    // sampled.
    if let Some(rows) = ws.contracts.mutation.as_ref() {
        for row in rows {
            let Some(cur) = current.iter().find(|c| c.class == row.class) else {
                continue;
            };
            if cur.score() < row.min_score {
                eprintln!(
                    "fcma-mut: class `{}` scores {}% below the DESIGN.md §17 minimum of {}%",
                    row.class,
                    cur.score(),
                    row.min_score
                );
                failed = true;
            }
        }
    }

    if let Some(path) = baseline {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fcma-mut: cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let Some(base) = parse_matrix(&text) else {
            eprintln!(
                "fcma-mut: baseline {} is not a kill-matrix document (regenerate it with \
                 `fcma-mut run --format json > {}`... see README)",
                path.display(),
                path.display()
            );
            return ExitCode::from(2);
        };
        let delta = render_matrix_delta(&base, current);
        if delta.is_empty() {
            println!("fcma-mut: kill matrix matches {}", path.display());
        } else {
            println!("fcma-mut: kill matrix drifts against {}:", path.display());
            print!("{delta}");
            println!(
                "regenerate with `cargo run -p fcma-mut -- run --seed {} --sample {} | tail -n +2`",
                cfg.seed, cfg.sample
            );
            failed = true;
        }
    }

    if failed {
        ExitCode::from(1)
    } else {
        if format == Format::Human {
            println!("fcma-mut: every sampled mutant killed, covered or triaged");
        }
        ExitCode::SUCCESS
    }
}

/// The verdict's detail string for JSON output.
fn verdict_detail(v: &Verdict) -> String {
    match v {
        Verdict::KilledByAudit { pass } => format!("pass {pass}"),
        Verdict::Surviving => String::from("no oracle fires"),
        Verdict::Covered => String::from("call-graph reachable from a tier-1 test, not executed"),
        Verdict::Triaged => String::from("audit: equivalent marker at site"),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("fcma-mut: {msg}");
    ExitCode::from(2)
}

const USAGE: &str = "usage: fcma-mut run [--root DIR] [--seed N] [--sample K] [--classes a,b,c]
                    [--disable-pass P] [--check FILE] [--format human|json]

Seeds typed semantic mutants through the fcma-audit model, applies each
via an in-memory overlay, and classifies it: killed-by-audit (a pass
fires), covered (call-graph reachable from a tier-1 test, not
executed), triaged (`// audit: equivalent(<class>) — <reason>` marker
at the site), or surviving (a gap; exits 1).

options:
  --seed N          sampling seed (default 7)
  --sample K        mutants sampled per class; 0 = exhaustive (default 4)
  --classes a,b,c   restrict to the named mutant classes
  --disable-pass P  exclude an audit pass from the oracle set (repeatable);
                    `--disable-pass atomicorder` demonstrates the
                    ordering-weaken class degrading to surviving
  --check FILE      compare the kill matrix against FILE (the committed
                    mutation-baseline.json); drift exits 1 with a delta
                    table sorted by class
  --format human    survivors + matrix + verdict summary (default)
  --format json     one JSON object per sampled mutant

mutant classes:
  arith-swap        binary arithmetic operator swapped (`+`↔`-`, …)
  cmp-flip          comparison flipped (`<`↔`<=`, `==`↔`!=`)
  off-by-one        for-loop range widened (`a..b` → `a..=b`)
  accum-reorder     float-accumulating loop reversed (summation order)
  ordering-weaken   `Ordering::*` weakened to `Relaxed` where DESIGN.md
                    §16 does not permit it
  band-shift        `split_at_mut` band boundary moved by one
  match-arm-delete  a driver protocol match arm retargeted off its variant

DESIGN.md §17 (\"Mutation contracts\") declares the expected killer and
the minimum killed-or-covered share per class; scoring below it exits 1.";
