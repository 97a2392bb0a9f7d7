//! `compare A B`: two sets of run records against the bounds declared
//! in `BENCHMARK.json`. Everything is parsed with `fcma_trace::json`.

use crate::repo_root;
use crate::stats::median;
use fcma_trace::json::{parse, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// One declared end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Bound>,
    /// `(name, unit)`
    pub per_layer: Vec<(String, String)>,
}

fn number(v: &Value, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(Value::Number(n)) => Ok(*n),
        _ => Err(format!("missing number \"{key}\"")),
    }
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    v.get(key).and_then(Value::as_str).map(str::to_owned).ok_or(format!("missing string \"{key}\""))
}

fn array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match v.get(key) {
        Some(Value::Array(items)) => Ok(items),
        _ => Err(format!("missing array \"{key}\"")),
    }
}

impl Declared {
    /// Read `BENCHMARK.json` at the repository root.
    ///
    /// # Errors
    /// If the file is missing or not of the declared shape.
    pub fn load() -> Result<Declared, String> {
        let path = repo_root().join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Declared::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Declared, String> {
        let doc = parse(text)?;
        let end_to_end = array(&doc, "end_to_end")?
            .iter()
            .map(|m| {
                let better = string(m, "better")?;
                Ok(Bound {
                    name: string(m, "name")?,
                    unit: string(m, "unit")?,
                    lower_is_better: match better.as_str() {
                        "lower" => true,
                        "higher" => false,
                        other => return Err(format!("better: {other}")),
                    },
                    bound: number(m, "bound")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Declared {
            run_seconds: number(&doc, "run_seconds")?,
            workloads: array(&doc, "workloads")?
                .iter()
                .map(|w| string(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end,
            per_layer: array(&doc, "per_layer")?
                .iter()
                .map(|m| Ok((string(m, "name")?, string(m, "unit")?)))
                .collect::<Result<_, String>>()?,
        })
    }
}

/// Per-layer counts that repeat exactly on one commit: a difference
/// between two sets is a behaviour change, not noise.
const EXACT: [&str; 4] =
    ["svm.smo_iterations", "cluster.tasks_dispatched", "sim.stage1_flops", "sim.stage1_mem_refs"];

/// The records of one file, per `(workload, metric)`: each metric's
/// values over the file's runs (end-to-end metrics from untraced runs,
/// the [`EXACT`] counts from traced ones), and operations attempted and
/// failed.
#[derive(Debug, Default)]
struct Set {
    metrics: BTreeMap<(String, String), Vec<f64>>,
    attempted: f64,
    failed: f64,
}

fn read_set(path: &Path) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = Set::default();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let at = |e: String| format!("{}:{}: {e}", path.display(), i + 1);
        let rec = parse(line).map_err(at)?;
        let traced = number(&rec, "trace").map_err(at)? != 0.0;
        let workload = string(&rec, "workload").map_err(at)?;
        set.attempted += number(&rec, "attempted").map_err(at)?;
        set.failed += number(&rec, "failed").map_err(at)?;
        let Some(Value::Object(metrics)) = rec.get("metrics") else {
            return Err(at("missing object \"metrics\"".into()));
        };
        for (name, m) in metrics.iter().filter(|(n, _)| !traced || EXACT.contains(&n.as_str())) {
            let value = number(m, "value").map_err(at)?;
            set.metrics.entry((workload.clone(), name.clone())).or_default().push(value);
        }
    }
    if set.metrics.is_empty() {
        return Err(format!("{}: no run records", path.display()));
    }
    Ok(set)
}

/// Print one row per (workload, end-to-end metric); returns how many
/// are worse in B than in A beyond their bound.
fn compare(declared: &Declared, a: &Set, b: &Set) -> usize {
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7}  unit",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    let mut worse = 0;
    for workload in &declared.workloads {
        for m in &declared.end_to_end {
            let key = (workload.clone(), m.name.clone());
            let (Some(va), Some(vb)) = (a.metrics.get(&key), b.metrics.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let regressed = if m.lower_is_better {
                mb > ma * (1.0 + m.bound)
            } else {
                mb < ma * (1.0 - m.bound)
            };
            worse += usize::from(regressed);
            println!(
                "{workload:<16} {:<20} {ma:>14.5} {mb:>14.5} {:>9.4} {:>6.0}%  {} (n={}/{}){}",
                m.name,
                mb / ma,
                m.bound * 100.0,
                m.unit,
                va.len(),
                vb.len(),
                if regressed { "  WORSE" } else { "" }
            );
        }
    }
    for workload in &declared.workloads {
        for name in EXACT {
            let key = (workload.clone(), name.to_owned());
            let (Some(va), Some(vb)) = (a.metrics.get(&key), b.metrics.get(&key)) else {
                continue;
            };
            // 0 = a layer this workload does not drive
            if va.iter().chain(vb).all(|v| *v == 0.0) {
                continue;
            }
            let differs = va.iter().chain(vb).any(|v| *v != va[0]);
            worse += usize::from(differs);
            println!(
                "{workload:<16} {name:<28} {:>14} {:>14}  exact{}",
                va[0],
                vb[0],
                if differs { "  DIFFERS" } else { "" }
            );
        }
    }
    let frac = |s: &Set| s.failed / s.attempted.max(1.0);
    let rose = frac(b) > frac(a);
    println!(
        "failed operations: A {}/{}  B {}/{}{}",
        a.failed,
        a.attempted,
        b.failed,
        b.attempted,
        if rose { "  WORSE" } else { "" }
    );
    worse + usize::from(rose)
}

/// Compare record files `a` and `b`; returns how many rows are worse.
///
/// # Errors
/// If `BENCHMARK.json` or either file cannot be read or parsed.
pub fn run(a: &Path, b: &Path) -> Result<usize, String> {
    let declared = Declared::load()?;
    Ok(compare(&declared, &read_set(a)?, &read_set(b)?))
}

pub fn main(a: &Path, b: &Path) -> ExitCode {
    match run(a, b) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(n) => {
            println!("{n} worse beyond bound or differing");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
