//! Command-line driver for the FCMA static-analysis audit.
//!
//! Usage: `fcma-audit check [--root DIR] [--format human|json]`,
//! or `fcma-audit stats [--root DIR] [--check FILE]`.
//!
//! With no `--root`, the workspace root is resolved from the location
//! of this crate at compile time (two levels above its manifest), so
//! `cargo run -p fcma-audit -- check` works from any directory inside
//! the workspace.

use std::path::PathBuf;
use std::process::ExitCode;

use fcma_audit::Format;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Human;
    let mut command: Option<String> = None;
    let mut baseline: Option<PathBuf> = None;

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
            "--format" => match it.next().and_then(|v| Format::parse(v)) {
                Some(f) => format = f,
                None => {
                    eprintln!("fcma-audit: --format requires `human` or `json`");
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

    match command.as_deref() {
        Some("check") => {
            if baseline.is_some() {
                eprintln!("fcma-audit: --check belongs to the `stats` command");
                return ExitCode::from(2);
            }
        }
        Some("stats") => {}
        Some(other) => {
            eprintln!("fcma-audit: unknown command `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
        None => {
            eprintln!("fcma-audit: missing command\n{USAGE}");
            return ExitCode::from(2);
        }
    }

    let root =
        root.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(".."));

    let ws = match fcma_audit::analyze(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("fcma-audit: error: {e}");
            return ExitCode::from(2);
        }
    };

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

    let violations = ws.run_all();
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

const USAGE: &str = "usage: fcma-audit check [--root DIR] [--format human|json]
       fcma-audit stats [--root DIR] [--check FILE]

commands:
  check    run the audit passes and print violations (exit 1 if any)
  stats    print per-pass violation and allow-marker counts as JSON;
           with --check FILE, compare against the committed baseline and
           print a per-pass delta table on drift (exit 1)

output:
  --format human  file:line: pass: message (default)
  --format json   one JSON object per violation:
                  {\"file\":…,\"line\":…,\"pass\":…,\"message\":…}
  --check FILE    (stats) compare against FILE instead of printing

passes (in run order):
  proptest     every pub fn kernel in fcma-linalg has a property test
  tracename    every span!/event!/counter!/histogram! name (and the name
               passed to add_counter/start_span/instant/record_value/
               record_span_elapsed) is snake.dotted and documented in
               DESIGN.md §Observability
  panicpath    no library pub fn reaches panic!/unwrap/expect/[idx]
               (call-graph transitive; `# Panics` docs excuse a fn)
  unusedallow  every allow marker must suppress something, and every
               `// audit:` comment must be an allow marker

escape markers (same line or the line above; reason mandatory):
  // audit: allow(proptest) — <reason>
  // audit: allow(tracename) — <reason>
  // audit: allow(panicpath) — <reason>

casts, raw std::sync/std::thread, atomic::Ordering and stale lint
attributes are clippy's (clippy::as_conversions, clippy.toml, #[expect]);
the crate layering of DESIGN.md §12 is `cargo test -p fcma-audit --test
layering`; see DESIGN.md §10";
