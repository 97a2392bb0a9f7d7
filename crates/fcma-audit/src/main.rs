//! Command-line driver for the FCMA static-analysis audit.
//!
//! Usage: `fcma-audit check [--root DIR] [--format human|json]
//! [--passes a,b,c] [--changed [--since REF]]`,
//! `fcma-audit stats [--root DIR] [--check FILE]`, or
//! `fcma-audit mutants [--root DIR] [--format human|json]`.
//!
//! With no `--root`, the workspace root is resolved from the location
//! of this crate at compile time (two levels above its manifest), so
//! `cargo run -p fcma-audit -- check` works from any directory inside
//! the workspace.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fcma_audit::format::json_str;
use fcma_audit::passes::{ESCAPABLE_PASSES, PASS_NAMES};
use fcma_audit::Format;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Human;
    let mut command: Option<String> = None;
    let mut passes: Option<Vec<String>> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut changed = false;
    let mut since: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("fcma-audit: --root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--changed" => changed = true,
            "--since" => match it.next() {
                Some(r) => since = Some(r.clone()),
                None => {
                    eprintln!("fcma-audit: --since requires a git ref argument");
                    return ExitCode::from(2);
                }
            },
            "--format" => match it.next().and_then(|v| Format::parse(v)) {
                Some(f) => format = f,
                None => {
                    eprintln!("fcma-audit: --format requires `human` or `json`");
                    return ExitCode::from(2);
                }
            },
            "--passes" => match it.next() {
                Some(list) => {
                    passes = Some(list.split(',').map(str::to_owned).collect());
                }
                None => {
                    eprintln!("fcma-audit: --passes requires a comma-separated pass list");
                    return ExitCode::from(2);
                }
            },
            "--check" => match it.next() {
                Some(path) => baseline = Some(PathBuf::from(path)),
                None => {
                    eprintln!("fcma-audit: --check requires a baseline file argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if command.is_none() => command = Some(other.to_owned()),
            other => {
                eprintln!("fcma-audit: unexpected argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let selected: Vec<&str> = match &passes {
        None => PASS_NAMES.to_vec(),
        Some(list) => {
            let mut sel = Vec::new();
            for p in list {
                match PASS_NAMES.iter().find(|known| **known == p.as_str()) {
                    Some(known) => sel.push(*known),
                    None => {
                        eprintln!(
                            "fcma-audit: unknown pass `{p}` (known: {})",
                            PASS_NAMES.join(", ")
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            sel
        }
    };

    match command.as_deref() {
        Some("check") => {
            if baseline.is_some() {
                eprintln!("fcma-audit: --check belongs to the `stats` command");
                return ExitCode::from(2);
            }
        }
        Some("stats") => {
            if passes.is_some() {
                eprintln!("fcma-audit: `stats` always covers every pass; drop --passes");
                return ExitCode::from(2);
            }
        }
        Some("mutants") => {
            if passes.is_some() || baseline.is_some() {
                eprintln!("fcma-audit: `mutants` takes only --root and --format");
                return ExitCode::from(2);
            }
        }
        Some(other) => {
            eprintln!("fcma-audit: unknown command `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
        None => {
            eprintln!("fcma-audit: missing command\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    if (changed || since.is_some()) && command.as_deref() != Some("check") {
        eprintln!("fcma-audit: --changed/--since belong to the `check` command");
        return ExitCode::from(2);
    }
    if since.is_some() && !changed {
        eprintln!("fcma-audit: --since requires --changed");
        return ExitCode::from(2);
    }

    let root =
        root.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(".."));

    // Analysis first: selection validation below is data-driven (it
    // needs the workspace's actual markers, not just the pass list).
    let ws = match fcma_audit::analyze(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("fcma-audit: error: {e}");
            return ExitCode::from(2);
        }
    };

    // A malformed DESIGN.md contract row is a tool-level failure for
    // every command: the passes would otherwise run against a silently
    // weaker contract than the one the document appears to declare.
    if !ws.contracts.errors.is_empty() {
        for e in &ws.contracts.errors {
            eprintln!("fcma-audit: {e}");
        }
        eprintln!(
            "fcma-audit: {} malformed DESIGN.md contract row(s); fix the document",
            ws.contracts.errors.len()
        );
        return ExitCode::from(2);
    }

    if command.as_deref() == Some("mutants") {
        let mutants = fcma_audit::mutants::enumerate(&ws);
        for m in &mutants {
            match format {
                Format::Human => {
                    println!("{}:{}: {}: {}", m.rel_path, m.line + 1, m.class, m.description);
                }
                Format::Json => println!(
                    "{{\"id\":{},\"class\":{},\"file\":{},\"line\":{},\"fn\":{},\
                     \"description\":{}}}",
                    json_str(&m.id()),
                    json_str(m.class),
                    json_str(&m.rel_path),
                    m.line + 1,
                    json_str(m.fn_name.as_deref().unwrap_or("")),
                    json_str(&m.description)
                ),
            }
        }
        if format == Format::Human {
            println!("fcma-audit: {} mutant(s) enumerated", mutants.len());
        }
        return ExitCode::SUCCESS;
    }

    if command.as_deref() == Some("stats") {
        let stats = ws.stats();
        let Some(path) = baseline else {
            print!("{}", fcma_audit::render_stats(&stats));
            return ExitCode::SUCCESS;
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fcma-audit: cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let Some(base) = fcma_audit::parse_stats(&text) else {
            eprintln!(
                "fcma-audit: baseline {} is not a stats document (regenerate it with \
                 `fcma-audit stats`)",
                path.display()
            );
            return ExitCode::from(2);
        };
        let delta = fcma_audit::render_stats_delta(&base, &stats);
        return if delta.is_empty() {
            println!("fcma-audit: stats match {}", path.display());
            ExitCode::SUCCESS
        } else {
            println!("fcma-audit: stats drift against {}:", path.display());
            print!("{delta}");
            println!("regenerate with `cargo run -p fcma-audit -- stats > {}`", path.display());
            ExitCode::from(1)
        };
    }

    // `unusedallow` decides staleness from which markers the other
    // passes consumed; excluding a pass whose markers exist in the tree
    // would flag those markers as stale only because their pass did not
    // run. Reject exactly those selections, naming the stranded markers.
    if passes.is_some() && selected.contains(&"unusedallow") {
        let mut stranded = Vec::new();
        for f in &ws.files {
            for m in f.markers() {
                if ESCAPABLE_PASSES.contains(&m.pass.as_str())
                    && !selected.contains(&m.pass.as_str())
                {
                    stranded.push(format!("{}:{}: allow({})", f.rel_path, m.line + 1, m.pass));
                }
            }
        }
        if !stranded.is_empty() {
            eprintln!(
                "fcma-audit: `unusedallow` is selected but --passes excludes passes whose \
                 markers exist in the tree (they would be reported stale only because their \
                 pass did not run); select those passes too, or drop `unusedallow`:"
            );
            for s in stranded {
                eprintln!("  {s}");
            }
            return ExitCode::from(2);
        }
    }

    let mut violations = ws.run_selected(&selected);
    if changed {
        match changed_files(&root, since.as_deref().unwrap_or("HEAD")) {
            Some(files) => {
                violations.retain(|v| files.contains(&v.file));
            }
            None => eprintln!(
                "fcma-audit: --changed: git unavailable or not a repository; \
                 reporting the full run"
            ),
        }
    }
    print!("{}", fcma_audit::render(&violations, format));
    if violations.is_empty() {
        // JSON consumers get a silent empty stream; humans get a
        // confirmation line.
        if format == Format::Human {
            println!("fcma-audit: clean");
        }
        ExitCode::SUCCESS
    } else {
        if format == Format::Human {
            println!("fcma-audit: {} violation(s)", violations.len());
        }
        ExitCode::from(1)
    }
}

/// Workspace-relative paths changed against `reference`, per
/// `git diff --name-only` plus untracked files; `None` when git is
/// unavailable or the root is not a repository, in which case the
/// caller falls back to the full run (a scoping aid must never hide
/// violations just because git is missing).
fn changed_files(root: &Path, reference: &str) -> Option<std::collections::BTreeSet<String>> {
    let run = |args: &[&str]| {
        let out = std::process::Command::new("git").arg("-C").arg(root).args(args).output().ok()?;
        out.status.success().then(|| String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let diff = run(&["diff", "--name-only", reference])?;
    let untracked = run(&["ls-files", "--others", "--exclude-standard"]).unwrap_or_default();
    Some(diff.lines().chain(untracked.lines()).map(str::to_owned).collect())
}

const USAGE: &str = "usage: fcma-audit check [--root DIR] [--format human|json] [--passes a,b,c]
                        [--changed [--since REF]]
       fcma-audit stats [--root DIR] [--check FILE]
       fcma-audit mutants [--root DIR] [--format human|json]

commands:
  check    run the audit passes and print violations (exit 1 if any)
  stats    print per-pass violation and allow-marker counts as JSON;
           with --check FILE, compare against the committed baseline and
           print a per-pass delta table on drift (exit 1)
  mutants  enumerate the semantic mutants the fcma-mut engine would
           apply, as file:line: class: description (or --format json);
           the classification itself lives in `cargo run -p fcma-mut`

any command exits 2 when DESIGN.md contains malformed contract rows
(bad atomics/mutation table entries are named errors, never
silent skips)

output:
  --format human  file:line: pass: message (default)
  --format json   one JSON object per violation:
                  {\"file\":…,\"line\":…,\"pass\":…,\"message\":…}
  --passes a,b,c  run only the named passes; selecting `unusedallow`
                  while excluding a pass whose allow markers exist in
                  the tree is rejected (stranded markers would read as
                  stale)
  --check FILE    (stats) compare against FILE instead of printing
  --changed       (check) report only violations in files changed per
                  `git diff --name-only` against --since REF (default
                  HEAD) plus untracked files; every pass still runs over
                  the whole tree, so cross-file analyses stay sound.
                  Falls back to the full report when git is unavailable

passes:
  cast         no `as` numeric casts in kernel crates (fcma-linalg, fcma-core)
  proptest     every pub fn kernel in fcma-linalg has a property test
  tracename    every span!/event!/counter!/histogram! name is snake.dotted
               and documented in DESIGN.md §Observability
  layering     Cargo.toml edges and fcma_*:: references obey the crate
               DAG in DESIGN.md §Architecture contracts
  panicpath    no library pub fn reaches panic!/unwrap/expect/[idx]
               (call-graph transitive; `# Panics` docs excuse a fn)
  protocol     ToWorker/FromWorker variants ↔ driver match arms ↔ the
               DESIGN.md §Architecture contracts protocol table
  deadpub      no workspace-pub item without cross-crate references
  syncfacade   no raw std::sync/std::thread outside the fcma-sync
               facade (Arc/Weak stay allowed)
  atomicorder  every Ordering::* site matches a DESIGN.md §16 atomics
               contract row (orderings allowed, site count)
  unusedallow  every allow marker must suppress something

escape markers (same line or the line above; reason mandatory):
  // audit: allow(cast) — <reason>
  // audit: allow(proptest) — <reason>
  // audit: allow(tracename) — <reason>
  // audit: allow(panicpath) — <reason>
  // audit: allow(deadpub) — <reason>
  // audit: allow(syncfacade) — <reason>
  // audit: allow(atomicorder) — <reason>

mutation-triage markers (same line or the line above; reason mandatory):
  // audit: equivalent(<mutant class>) — <reason>
                  declares that the mutant fcma-mut seeds at this site is
                  semantically equivalent to the original program, so no
                  oracle can kill it; unknown classes, missing reasons,
                  and markers with no enumerated mutant under them fail
                  unusedallow";
