//! Host descriptor and the two peak probes the per-layer rates are
//! divided by. Everything is read from procfs/sysfs or measured in safe
//! Rust under the same build flags as the product crates.

use crate::stats::{median, time};
use std::fs;
use std::hint::black_box;
use std::path::Path;

/// What the numbers of a run were measured on. Written into every
/// record so results from unlike hosts are never compared silently.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub cpu_mhz: f64,
    /// Per-core L2 and last-level cache sizes in bytes (0 if sysfs does
    /// not say).
    pub l2_bytes: usize,
    pub llc_bytes: usize,
    pub mem_total_bytes: u64,
    pub git_commit: String,
}

/// Results of the peak probes (traced runs only).
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    pub peak_gflops: f64,
    pub triad_gbs: f64,
    /// Bytes per triad array, and the 4 x LLC size it was capped from.
    pub triad_array_bytes: usize,
    pub triad_wanted_bytes: usize,
}

/// Largest triad array: 4 x LLC would be 1 GiB on the reference host
/// (a 260 MiB L3 shared with other guests), three arrays of which cost
/// more first-touch time than a whole run may take.
const TRIAD_CAP_BYTES: usize = 128 << 20;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

impl Host {
    pub fn describe(repo_root: &Path) -> Host {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        };
        let (l2_bytes, llc_bytes) = cache_sizes();
        let mem_total_bytes = fs::read_to_string("/proc/meminfo")
            .ok()
            .and_then(|s| status_kb(&s, "MemTotal:"))
            .map_or(0, |kb| kb * 1024);
        Host {
            nproc: nproc(),
            cpu_model: field("model name").unwrap_or_else(|| "unknown".into()),
            cpu_mhz: field("cpu MHz").and_then(|v| v.parse().ok()).unwrap_or(0.0),
            l2_bytes,
            llc_bytes,
            mem_total_bytes,
            git_commit: git_commit(repo_root),
        }
    }
}

/// `(L2, last level)` data/unified cache sizes of cpu0 from sysfs.
fn cache_sizes() -> (usize, usize) {
    let mut l2 = 0;
    let mut llc = (0u32, 0usize);
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size), Some(kind)) = (read("level"), read("size"), read("type"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let Ok(level) = level.trim().parse::<u32>() else { continue };
        let bytes = parse_size(size.trim());
        if level == 2 {
            l2 = bytes;
        }
        if level > llc.0 {
            llc = (level, bytes);
        }
    }
    (l2, llc.1)
}

/// `"4096K"` / `"260M"` / `"512"` to bytes.
fn parse_size(s: &str) -> usize {
    let (digits, shift) = match s.as_bytes().last() {
        Some(b'K') => (&s[..s.len() - 1], 10),
        Some(b'M') => (&s[..s.len() - 1], 20),
        Some(b'G') => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    digits.parse::<usize>().map_or(0, |n| n << shift)
}

/// The value of a `Key:   123 kB` line of a procfs status file.
fn status_kb(text: &str, key: &str) -> Option<u64> {
    text.lines().find(|l| l.starts_with(key))?.split_whitespace().nth(1)?.parse().ok()
}

/// Commit of the checkout, read from `.git` without running git (the
/// driver's checkout is not a repository: "unknown" there).
fn git_commit(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_owned(),
        Some(r) => fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| format!("unresolved {r}")),
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_kb(&s, "VmHWM:"))
        .map_or(0.0, |kb| kb as f64 / 1000.0)
}

/// Single-thread multiply-add throughput. `CHAINS` independent
/// accumulators, enough to cover the multiply and add latencies of
/// both FP ports; the compiler vectorises the inner loop at whatever
/// width the product's build flags allow.
pub fn probe_peak_gflops() -> f64 {
    const CHAINS: usize = 64;
    const ITERS: usize = 4_000_000;
    let run = || {
        let mul = black_box(0.999_999_f32);
        let add = black_box(1.0e-6_f32);
        let mut acc = [1.0f32; CHAINS];
        for _ in 0..ITERS {
            for a in &mut acc {
                *a = *a * mul + add;
            }
        }
        black_box(acc);
    };
    run();
    let secs: Vec<f64> = (0..3).map(|_| time(run).1).collect();
    2.0 * (CHAINS * ITERS) as f64 / median(&secs) / 1e9
}

/// Stream triad `a = b + s * c` over three arrays far larger than the
/// caches; GB/s counts the three arrays once each (computed bytes).
pub fn probe_triad(llc_bytes: usize) -> (f64, usize, usize) {
    let wanted = 4 * llc_bytes.max(1 << 20);
    let bytes = wanted.min(TRIAD_CAP_BYTES);
    let n = bytes / 4;
    let b = vec![1.5f32; n];
    let c = vec![0.5f32; n];
    let mut a = vec![0.0f32; n];
    let s = black_box(3.0f32);
    let mut pass = || {
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + s * *z;
        }
        black_box(&mut a);
    };
    pass();
    let secs: Vec<f64> = (0..5).map(|_| time(&mut pass).1).collect();
    (3.0 * bytes as f64 / median(&secs) / 1e9, bytes, wanted)
}

pub fn run_probes(host: &Host) -> Probes {
    let peak_gflops = probe_peak_gflops();
    let (triad_gbs, triad_array_bytes, triad_wanted_bytes) = probe_triad(host.llc_bytes);
    Probes { peak_gflops, triad_gbs, triad_array_bytes, triad_wanted_bytes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size("4096K"), 4 << 20);
        assert_eq!(parse_size("260M"), 260 << 20);
        assert_eq!(parse_size("512"), 512);
        assert_eq!(status_kb("VmHWM:\t  1234 kB\n", "VmHWM:"), Some(1234));
    }
}
