//! What a run prints and writes: every metric by name with its unit and
//! sample count, the host block, the Chrome-trace file of a traced run,
//! the optional record line, and the one-line result the driver reads.

use crate::layers::SelfTimes;
use crate::run::{Env, Outcome};
use crate::spec::{Measured, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// A declared metric with its measured value.
type Row = (&'static str, &'static str, Measured);

/// Append `s` as a JSON string literal.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The declared metrics of this run's kind with their measured values.
/// A per-layer metric the workload does not exercise reads 0 with no
/// samples; a missing end-to-end metric is an error.
fn declared_values(env: &Env<'_>, outcome: &Outcome) -> Result<Vec<Row>, String> {
    let declared = if env.params.traced { PER_LAYER } else { END_TO_END };
    declared
        .iter()
        .map(|&(name, unit)| match outcome.metrics.get(name) {
            Some(m) if m.value.is_finite() => Ok((name, unit, m)),
            Some(m) => Err(format!("metric {name} is {}", m.value)),
            None if env.params.traced => Ok((name, unit, Measured { value: 0.0, samples: 0 })),
            None => Err(format!("workload did not measure {name}")),
        })
        .collect()
}

/// Print and write everything; returns whether the run was correct.
///
/// # Errors
/// If a declared metric is missing or not finite, or a file under
/// `out/` cannot be written.
pub fn emit(env: &Env<'_>, outcome: &Outcome, record: Option<&Path>) -> Result<bool, String> {
    let p = env.params;
    let h = env.host;
    let values = declared_values(env, outcome)?;
    let correct = outcome.checks.failed == 0;

    println!(
        "workload {}  seed {}  trace {}  seconds {}{}",
        p.workload,
        p.seed,
        u8::from(p.traced),
        p.seconds,
        if p.smoke { "  (smoke shapes)" } else { "" }
    );
    println!(
        "host: nproc {}  cpu \"{}\" @ {} MHz  L2 {} KiB  LLC {} KiB  mem {} MiB  commit {}",
        h.nproc,
        h.cpu_model,
        h.cpu_mhz,
        h.l2_bytes >> 10,
        h.llc_bytes >> 10,
        h.mem_total_bytes >> 20,
        h.git_commit
    );
    if let Some(pr) = &outcome.probes {
        println!(
            "probes: peak {:.2} GFLOP/s (1 thread)  triad {:.2} GB/s \
             (3 arrays of {} MiB; 4 x LLC would be {} MiB)",
            pr.peak_gflops,
            pr.triad_gbs,
            pr.triad_array_bytes >> 20,
            pr.triad_wanted_bytes >> 20
        );
    }
    let notes: Vec<String> = outcome.notes.iter().map(|(k, v)| format!("{k} {v}")).collect();
    println!("shape: {}\n", notes.join("  "));
    for (name, unit, m) in &values {
        println!("{name:<32} {:>16.6} {unit:<10} n={}", m.value, m.samples);
    }

    if let Some(report) = &outcome.report {
        println!("\nself time of the bench spans, by layer:");
        for (layer, secs) in SelfTimes::of(report).by_layer(report) {
            println!("  {layer:<10} {secs:>10.4} s");
        }
        let path = p.out_dir.join(format!("{}.trace.json", p.workload));
        std::fs::write(&path, fcma_trace::export::to_chrome_json(report))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("trace: {}", path.display());
    }

    println!("\nchecks: {} attempted, {} failed", outcome.checks.attempted, outcome.checks.failed);
    for f in &outcome.checks.failures {
        println!("  FAILED {f}");
    }

    if let Some(path) = record {
        let line = record_line(env, outcome, &values, correct);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        writeln!(file, "{line}").map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    // The result line: exactly these four keys, last on stdout.
    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.checks.attempted.max(1),
        outcome.checks.failed
    );
    for (i, (name, unit, m)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(line, "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", m.value);
    }
    line.push_str("}}");
    println!("{line}");
    Ok(correct)
}

/// The full record of a run, one JSON object on one line: what
/// `compare` reads.
fn record_line(env: &Env<'_>, outcome: &Outcome, values: &[Row], correct: bool) -> String {
    let p = env.params;
    let h = env.host;
    let mut s = String::from("{\"workload\":");
    json_string(&mut s, &p.workload);
    let _ = write!(
        s,
        ",\"seed\":{},\"trace\":{},\"smoke\":{},\"seconds\":{},\"host\":{{\"nproc\":{},\"cpu_model\":",
        p.seed,
        u8::from(p.traced),
        p.smoke,
        p.seconds,
        h.nproc
    );
    json_string(&mut s, &h.cpu_model);
    let _ = write!(
        s,
        ",\"cpu_mhz\":{},\"l2_bytes\":{},\"llc_bytes\":{},\"mem_total_bytes\":{},\"git_commit\":",
        h.cpu_mhz, h.l2_bytes, h.llc_bytes, h.mem_total_bytes
    );
    json_string(&mut s, &h.git_commit);
    s.push('}');
    if let Some(pr) = &outcome.probes {
        let _ = write!(
            s,
            ",\"probes\":{{\"peak_gflops\":{},\"triad_gbs\":{},\"triad_array_bytes\":{},\
             \"triad_wanted_bytes\":{}}}",
            pr.peak_gflops, pr.triad_gbs, pr.triad_array_bytes, pr.triad_wanted_bytes
        );
    }
    s.push_str(",\"shape\":{");
    for (i, (k, v)) in outcome.notes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        json_string(&mut s, k);
        s.push(':');
        json_string(&mut s, v);
    }
    let _ = write!(
        s,
        "}},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"failures\":[",
        outcome.checks.attempted, outcome.checks.failed
    );
    for (i, f) in outcome.checks.failures.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        json_string(&mut s, f);
    }
    s.push_str("],\"metrics\":{");
    for (i, (name, unit, m)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\",\"samples\":{}}}",
            m.value, m.samples
        );
    }
    s.push_str("}}");
    s
}
