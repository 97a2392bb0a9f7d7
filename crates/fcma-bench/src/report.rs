//! Plain-text table rendering for the reproduction harness.

/// Render an aligned table with a title, header row, and data rows.
///
/// # Panics
/// If a row has a different number of cells than `headers`.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "row arity mismatch in table '{title}'");
        for (c, cell) in row.iter().enumerate() {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (c, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", cell, w = widths[c]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(std::string::ToString::to_string).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * ncols;
    println!("{}", "-".repeat(total.min(100)));
    for row in rows {
        line(row);
    }
}

/// Format a float with engineering-style significance.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e9 {
        format!("{:.2}B", v / 1e9)
    } else if v.abs() >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v.abs() >= 1e4 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Format a millisecond value.
pub fn fmt_ms(v: f64) -> String {
    if v >= 10_000.0 {
        format!("{:.1} s", v / 1e3)
    } else {
        format!("{v:.0} ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(3.456), "3.46");
        assert_eq!(fmt(34.56), "34.6");
        assert_eq!(fmt(34_858_368_500.0), "34.86B");
        assert_eq!(fmt(121_800_000.0), "121.8M");
    }

    #[test]
    fn fmt_ms_switches_units() {
        assert_eq!(fmt_ms(390.0), "390 ms");
        assert_eq!(fmt_ms(54_506_000.0), "54506.0 s");
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            "demo",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn print_table_checks_arity() {
        print_table("bad", &["a"], &[vec!["1".into(), "2".into()]]);
    }
}
