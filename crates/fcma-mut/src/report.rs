//! Kill-matrix rendering: the committed `mutation-baseline.json`
//! format, its parser, and the strict delta table CI prints on drift —
//! the same shapes `fcma-audit stats --check` uses for violation
//! counts, extended to the five per-class counters.

use fcma_audit::format::json_str;

/// One class's kill counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassRow {
    /// Mutant class name.
    pub class: String,
    /// Sampled mutants of this class.
    pub total: usize,
    /// Killed by an audit pass.
    pub audit: usize,
    /// Covered: call-graph reachable from a tier-1 test, not executed.
    pub covered: usize,
    /// Surviving but triaged equivalent.
    pub triaged: usize,
    /// Surviving untriaged — gaps.
    pub surviving: usize,
}

impl ClassRow {
    /// Killed-or-covered share in percent over the non-triaged sample:
    /// triaged mutants are unkillable by construction, so they shrink
    /// the denominator rather than count as misses. An all-triaged
    /// class scores 100. Only `audit` is an executed oracle; for the
    /// deterministic classes this is a coverage figure.
    pub fn score(&self) -> u32 {
        let denom = self.total - self.triaged;
        if denom == 0 {
            return 100;
        }
        let counted = self.audit + self.covered;
        u32::try_from(counted * 100 / denom).unwrap_or(0)
    }

    /// The five counters in field order, paired with their JSON keys.
    fn fields(&self) -> [(&'static str, usize); 5] {
        [
            ("total", self.total),
            ("audit", self.audit),
            ("covered", self.covered),
            ("triaged", self.triaged),
            ("surviving", self.surviving),
        ]
    }
}

/// Render the matrix as deterministic pretty-printed JSON, one class
/// per line — the committed `mutation-baseline.json` that CI diffs
/// byte for byte. Rows render in the order given (enumeration order is
/// already sorted by class).
pub fn render_matrix(rows: &[ClassRow]) -> String {
    let mut out = String::from("{\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!("  {}: {{", json_str(&row.class)));
        for (j, (key, value)) in row.fields().iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{key}\": {value}"));
        }
        out.push('}');
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Parse a matrix previously emitted by [`render_matrix`]. Accepts only
/// that exact shape and returns `None` on anything else, so a
/// hand-mangled baseline fails loudly instead of comparing as empty.
pub fn parse_matrix(json: &str) -> Option<Vec<ClassRow>> {
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() || line == "{" || line == "}" {
            continue;
        }
        let rest = line.strip_prefix('"')?;
        let (class, rest) = rest.split_once('"')?;
        let body = rest.trim_start().strip_prefix(':')?.trim_start();
        let body = body.strip_prefix('{')?.strip_suffix('}')?;
        let mut row = ClassRow {
            class: class.to_owned(),
            total: 0,
            audit: 0,
            covered: 0,
            triaged: 0,
            surviving: 0,
        };
        let mut seen = 0usize;
        for field in body.split(',') {
            let (k, v) = field.split_once(':')?;
            let n: usize = v.trim().parse().ok()?;
            match k.trim().trim_matches('"') {
                "total" => row.total = n,
                "audit" => row.audit = n,
                "covered" => row.covered = n,
                "triaged" => row.triaged = n,
                "surviving" => row.surviving = n,
                _ => return None,
            }
            seen += 1;
        }
        if seen != 5 {
            return None;
        }
        out.push(row);
    }
    Some(out)
}

/// Render the per-class drift between a parsed baseline and the current
/// matrix. Classes whose counters all match are omitted; identical
/// matrices render as the empty string. Rows are sorted
/// lexicographically by class name so the table is stable across runs.
pub fn render_matrix_delta(baseline: &[ClassRow], current: &[ClassRow]) -> String {
    let cell = |b: Option<usize>, c: Option<usize>| match (b, c) {
        (Some(b), Some(c)) if b == c => b.to_string(),
        (Some(b), Some(c)) => format!("{b} \u{2192} {c}"),
        (None, Some(c)) => format!("(new) {c}"),
        (Some(b), None) => format!("{b} (gone)"),
        (None, None) => String::new(),
    };
    let mut rows: Vec<[String; 6]> = Vec::new();
    let row_cells = |b: Option<&ClassRow>, c: Option<&ClassRow>, class: &str| {
        let pick = |f: fn(&ClassRow) -> usize| cell(b.map(f), c.map(f));
        [
            class.to_owned(),
            pick(|r| r.total),
            pick(|r| r.audit),
            pick(|r| r.covered),
            pick(|r| r.triaged),
            pick(|r| r.surviving),
        ]
    };
    for c in current {
        match baseline.iter().find(|b| b.class == c.class) {
            Some(b) if b == c => {}
            b => rows.push(row_cells(b, Some(c), &c.class)),
        }
    }
    for b in baseline {
        if !current.iter().any(|c| c.class == b.class) {
            rows.push(row_cells(Some(b), None, &b.class));
        }
    }
    if rows.is_empty() {
        return String::new();
    }
    rows.sort_by(|a, b| a[0].cmp(&b[0]));
    let header = ["class", "total", "audit", "covered", "triaged", "surviving"];
    let width = |i: usize| {
        rows.iter().map(|r| r[i].chars().count()).chain([header[i].len()]).max().unwrap_or(0)
    };
    let w: Vec<usize> = (0..6).map(width).collect();
    let render_row = |cells: &[String]| {
        let mut line = format!("{:<w0$}", cells[0], w0 = w[0]);
        for (i, c) in cells.iter().enumerate().skip(1) {
            line.push_str(&format!("  {:>wi$}", c, wi = w[i]));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = header.iter().map(|&h| h.to_owned()).collect();
    let mut out = render_row(&header_cells);
    for r in &rows {
        out.push_str(&render_row(&r[..]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<ClassRow> {
        vec![
            ClassRow {
                class: "arith-swap".into(),
                total: 4,
                audit: 0,
                covered: 4,
                triaged: 0,
                surviving: 0,
            },
            ClassRow {
                class: "ordering-weaken".into(),
                total: 3,
                audit: 3,
                covered: 0,
                triaged: 0,
                surviving: 0,
            },
        ]
    }

    #[test]
    fn matrix_golden_and_roundtrip() {
        let got = render_matrix(&sample());
        let want = "{\n  \"arith-swap\": {\"total\": 4, \"audit\": 0, \"covered\": 4, \
                    \"triaged\": 0, \"surviving\": 0},\n  \
                    \"ordering-weaken\": {\"total\": 3, \"audit\": 3, \"covered\": 0, \
                    \"triaged\": 0, \"surviving\": 0}\n}\n";
        assert_eq!(got, want);
        assert_eq!(parse_matrix(&got).expect("own output parses"), sample());
        assert!(parse_matrix("not json").is_none());
        assert!(parse_matrix("{\n  \"a\": {\"total\": 1}\n}\n").is_none(), "all five required");
    }

    #[test]
    fn score_excludes_triaged_from_the_denominator() {
        let mut r = sample().remove(0);
        assert_eq!(r.score(), 100);
        r.covered = 3;
        r.triaged = 1;
        assert_eq!(r.score(), 100, "3 kills / (4 - 1 triaged)");
        r.triaged = 0;
        r.surviving = 1;
        assert_eq!(r.score(), 75);
        let all_triaged = ClassRow {
            class: "x".into(),
            total: 2,
            audit: 0,
            covered: 0,
            triaged: 2,
            surviving: 0,
        };
        assert_eq!(all_triaged.score(), 100);
    }

    #[test]
    fn delta_golden_sorted_and_empty_when_identical() {
        let base = sample();
        assert_eq!(render_matrix_delta(&base, &sample()), "");
        let mut cur = sample();
        cur[0].covered = 3;
        cur[0].surviving = 1;
        cur.remove(1);
        cur.push(ClassRow {
            class: "band-shift".into(),
            total: 1,
            audit: 0,
            covered: 1,
            triaged: 0,
            surviving: 0,
        });
        let got = render_matrix_delta(&base, &cur);
        // The exact column widths depend on cell contents; assert the
        // load-bearing properties instead of a brittle golden string.
        let lines: Vec<&str> = got.lines().collect();
        assert_eq!(lines.len(), 4, "{got}");
        assert!(lines[0].starts_with("class"));
        assert!(lines[1].starts_with("arith-swap"), "sorted: {got}");
        assert!(lines[2].starts_with("band-shift"), "sorted: {got}");
        assert!(lines[3].starts_with("ordering-weaken"), "sorted: {got}");
        assert!(lines[1].contains("4 \u{2192} 3"));
        assert!(lines[2].contains("(new) 1"));
        assert!(lines[3].contains("3 (gone)"));
    }
}
