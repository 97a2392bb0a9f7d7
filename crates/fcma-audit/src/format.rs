//! Violation rendering: the human `file:line: pass: message` format and
//! a line-delimited JSON format for CI and editor consumption. Both are
//! golden-tested so the shapes stay stable.

use crate::passes::Violation;

/// Output format for `fcma-audit check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `file:line: pass: message`, one per line.
    Human,
    /// One JSON object per line: `{"file":…,"line":…,"pass":…,"message":…}`.
    Json,
}

impl Format {
    /// Parse a `--format` argument value.
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "human" => Some(Format::Human),
            "json" => Some(Format::Json),
            _ => None,
        }
    }
}

/// Render violations in the given format, one per line, with a trailing
/// newline when non-empty.
pub fn render(violations: &[Violation], format: Format) -> String {
    let mut out = String::new();
    for v in violations {
        match format {
            Format::Human => {
                out.push_str(&v.to_string());
            }
            Format::Json => {
                out.push_str(&format!(
                    "{{\"file\":{},\"line\":{},\"pass\":{},\"message\":{}}}",
                    json_str(&v.file),
                    v.line,
                    json_str(v.pass),
                    json_str(&v.message)
                ));
            }
        }
        out.push('\n');
    }
    out
}

/// Render per-pass statistics as a deterministic pretty-printed JSON
/// object (pass run order), for `fcma-audit stats` and the committed
/// `audit-baseline.json` that CI diffs against byte for byte.
pub fn render_stats(stats: &[(&'static str, usize, usize)]) -> String {
    let mut out = String::from("{\n");
    for (i, (pass, violations, allows)) in stats.iter().enumerate() {
        out.push_str(&format!(
            "  {}: {{\"violations\": {violations}, \"allows\": {allows}}}",
            json_str(pass)
        ));
        out.push_str(if i + 1 < stats.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Parse a stats document previously emitted by [`render_stats`] (the
/// committed `audit-baseline.json`). Accepts only that exact shape —
/// one `"pass": {"violations": N, "allows": M}` entry per line — and
/// returns `None` on anything else, so a hand-mangled baseline fails
/// loudly instead of comparing as empty.
pub fn parse_stats(json: &str) -> Option<Vec<(String, usize, usize)>> {
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() || line == "{" || line == "}" {
            continue;
        }
        let rest = line.strip_prefix('"')?;
        let (pass, rest) = rest.split_once('"')?;
        let body = rest.trim_start().strip_prefix(':')?.trim_start();
        let body = body.strip_prefix('{')?.strip_suffix('}')?;
        let (mut violations, mut allows) = (None, None);
        for field in body.split(',') {
            let (k, v) = field.split_once(':')?;
            let n: usize = v.trim().parse().ok()?;
            match k.trim().trim_matches('"') {
                "violations" => violations = Some(n),
                "allows" => allows = Some(n),
                _ => return None,
            }
        }
        out.push((pass.to_owned(), violations?, allows?));
    }
    Some(out)
}

/// Render the per-pass drift between a parsed baseline and the current
/// stats — the reviewable replacement for diffing two JSON blobs.
/// Passes whose counts match are omitted; identical stats render as the
/// empty string. Unchanged columns print a single number, changed ones
/// `old → new`, and passes present on only one side are labelled. Rows
/// are sorted lexicographically by pass name so the table is stable
/// across runs even when passes appear or disappear.
pub fn render_stats_delta(
    baseline: &[(String, usize, usize)],
    current: &[(&'static str, usize, usize)],
) -> String {
    let cell = |b: Option<usize>, c: Option<usize>| match (b, c) {
        (Some(b), Some(c)) if b == c => b.to_string(),
        (Some(b), Some(c)) => format!("{b} \u{2192} {c}"),
        (None, Some(c)) => format!("(new) {c}"),
        (Some(b), None) => format!("{b} (gone)"),
        (None, None) => String::new(),
    };
    let mut rows: Vec<[String; 3]> = Vec::new();
    for &(pass, v, a) in current {
        match baseline.iter().find(|(p, ..)| p == pass) {
            Some(&(_, bv, ba)) if bv == v && ba == a => {}
            Some(&(_, bv, ba)) => {
                rows.push([pass.to_owned(), cell(Some(bv), Some(v)), cell(Some(ba), Some(a))]);
            }
            None => rows.push([pass.to_owned(), cell(None, Some(v)), cell(None, Some(a))]),
        }
    }
    for (p, bv, ba) in baseline {
        if !current.iter().any(|(c, ..)| c == p) {
            rows.push([p.clone(), cell(Some(*bv), None), cell(Some(*ba), None)]);
        }
    }
    if rows.is_empty() {
        return String::new();
    }
    rows.sort_by(|a, b| a[0].cmp(&b[0]));
    let header = ["pass", "violations", "allows"];
    let width = |i: usize| {
        rows.iter().map(|r| r[i].chars().count()).chain([header[i].len()]).max().unwrap_or(0)
    };
    let (w0, w1, w2) = (width(0), width(1), width(2));
    let mut out = format!("{:<w0$}  {:>w1$}  {:>w2$}\n", header[0], header[1], header[2]);
    for r in &rows {
        out.push_str(&format!("{:<w0$}  {:>w1$}  {:>w2$}\n", r[0], r[1], r[2]));
    }
    out
}

/// Minimal JSON string escaping (std-only, like the fcma-trace exporter).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Violation> {
        vec![
            Violation {
                file: "crates/fcma-linalg/src/mat.rs".to_owned(),
                line: 27,
                pass: "panicpath",
                message: "pub fn `zeros` can panic (`panic!` at mat.rs:27)".to_owned(),
            },
            Violation {
                file: "DESIGN.md".to_owned(),
                line: 1,
                pass: "layering",
                message: "table lists `fcma-gone\u{2014}with \"quotes\"`".to_owned(),
            },
            Violation {
                file: "crates/fcma-cluster/src/driver.rs".to_owned(),
                line: 9,
                pass: "tracename",
                message: "trace name `cluster.rogue` is not documented".to_owned(),
            },
        ]
    }

    #[test]
    fn human_format_golden() {
        let got = render(&sample(), Format::Human);
        let want = "crates/fcma-linalg/src/mat.rs:27: panicpath: pub fn `zeros` can panic \
                    (`panic!` at mat.rs:27)\n\
                    DESIGN.md:1: layering: table lists `fcma-gone\u{2014}with \"quotes\"`\n\
                    crates/fcma-cluster/src/driver.rs:9: tracename: trace name `cluster.rogue` \
                    is not documented\n";
        assert_eq!(got, want);
    }

    #[test]
    fn json_format_golden() {
        let got = render(&sample(), Format::Json);
        let want =
            "{\"file\":\"crates/fcma-linalg/src/mat.rs\",\"line\":27,\"pass\":\"panicpath\",\
                    \"message\":\"pub fn `zeros` can panic (`panic!` at mat.rs:27)\"}\n\
                    {\"file\":\"DESIGN.md\",\"line\":1,\"pass\":\"layering\",\
                    \"message\":\"table lists `fcma-gone\u{2014}with \\\"quotes\\\"`\"}\n\
                    {\"file\":\"crates/fcma-cluster/src/driver.rs\",\"line\":9,\
                    \"pass\":\"tracename\",\"message\":\"trace name `cluster.rogue` is not \
                    documented\"}\n";
        assert_eq!(got, want);
    }

    #[test]
    fn empty_renders_empty() {
        assert_eq!(render(&[], Format::Human), "");
        assert_eq!(render(&[], Format::Json), "");
    }

    #[test]
    fn json_escapes_control_chars() {
        assert_eq!(json_str("a\nb\t\"c\"\\"), "\"a\\nb\\t\\\"c\\\"\\\\\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn stats_format_golden() {
        let got = render_stats(&[("proptest", 0, 0), ("cast", 2, 5), ("unusedallow", 1, 0)]);
        let want = "{\n  \"proptest\": {\"violations\": 0, \"allows\": 0},\n  \
                    \"cast\": {\"violations\": 2, \"allows\": 5},\n  \
                    \"unusedallow\": {\"violations\": 1, \"allows\": 0}\n}\n";
        assert_eq!(got, want);
    }

    #[test]
    fn stats_parse_roundtrips_render() {
        let stats = vec![("proptest", 0usize, 0usize), ("cast", 2, 5), ("unusedallow", 1, 0)];
        let parsed = parse_stats(&render_stats(&stats)).expect("own output parses");
        let want: Vec<(String, usize, usize)> =
            stats.iter().map(|&(p, v, a)| (p.to_owned(), v, a)).collect();
        assert_eq!(parsed, want);
        assert!(parse_stats("{\n  \"cast\": {\"violations\": x}\n}\n").is_none());
        assert!(parse_stats("not json").is_none());
    }

    #[test]
    fn stats_delta_golden() {
        let baseline = vec![
            ("proptest".to_owned(), 0usize, 0usize),
            ("cast".to_owned(), 2, 5),
            ("gone".to_owned(), 1, 1),
        ];
        let current = [("proptest", 0usize, 0usize), ("cast", 3, 5), ("syncfacade", 0, 3)];
        let got = render_stats_delta(&baseline, &current);
        let want = "pass        violations    allows\n\
                    cast             2 \u{2192} 3         5\n\
                    gone          1 (gone)  1 (gone)\n\
                    syncfacade     (new) 0   (new) 3\n";
        assert_eq!(got, want, "delta rows sort lexicographically by pass name");
    }

    #[test]
    fn stats_delta_empty_when_identical() {
        let baseline = vec![("proptest".to_owned(), 0usize, 0usize), ("cast".to_owned(), 2, 5)];
        let current = [("proptest", 0usize, 0usize), ("cast", 2, 5)];
        assert_eq!(render_stats_delta(&baseline, &current), "");
    }

    #[test]
    fn format_parse() {
        assert_eq!(Format::parse("human"), Some(Format::Human));
        assert_eq!(Format::parse("json"), Some(Format::Json));
        assert_eq!(Format::parse("yaml"), None);
    }
}
