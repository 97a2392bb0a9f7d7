//! Machine models: the Intel Xeon Phi 5110P coprocessor and the Xeon
//! E5-2670 processor of the paper's testbed (§2, §5.1, §5.5).

use crate::cache::CacheConfig;

/// Architectural parameters the time and counter models consume.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Human-readable name.
    pub name: &'static str,
    /// Physical cores.
    pub cores: usize,
    /// Hardware threads per core (4 on the Phi, 2 with hyper-threading on
    /// the Xeon).
    pub threads_per_core: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Single-precision lanes per vector register (16 on the Phi's 512-bit
    /// VPU, 8 for AVX on the Xeon).
    pub vpu_lanes: usize,
    /// Per-core private last-level cache the kernels block for (the Phi's
    /// 512 KB L2; the Xeon's per-core share of LLC, ~1.28 MB/thread
    /// per §5.5 — modeled as 2.5 MB/core).
    pub l2_per_core: CacheConfig,
    /// Average exposed latency of an L2/LLC miss, in nanoseconds
    /// (~300 ns on the Phi per [Fang et al.]; ~85 ns to DRAM on the Xeon).
    pub l2_miss_latency_ns: f64,
    /// Peak single-precision GFLOP/s (2,020 for the 5110P per §2;
    /// 8 cores × 2.6 GHz × 8 lanes × 2 FMA = 332.8 for the E5-2670).
    pub peak_sp_gflops: f64,
    /// Sustained instructions per cycle achievable by a *single* thread.
    /// A KNC core cannot issue from the same thread in consecutive
    /// cycles and is in-order (~0.25 effective); the out-of-order Xeon
    /// sustains well above 1. Drives the per-voxel serial SVM stage.
    pub ipc_per_thread: f64,
    /// Usable device memory in bytes (~6 GB on the Phi after the on-board
    /// OS reservation; host memory is effectively unconstrained and the
    /// Xeon model uses the node's 256 GB).
    pub usable_memory_bytes: u64,
}

impl MachineConfig {
    /// Total hardware threads.
    pub(crate) fn total_threads(&self) -> usize {
        self.cores * self.threads_per_core
    }

    /// Aggregate instruction-issue throughput in instructions/second,
    /// modeling one (vector) instruction issued per core per cycle.
    pub(crate) fn issue_rate(&self) -> f64 {
        self.cores as f64 * self.clock_ghz * 1e9
    }
}

/// The Intel Xeon Phi 5110P coprocessor (paper §2, Fig. 2): 60 in-order
/// cores at 1053 MHz, 4 threads/core, 512 KB 8-way L2 per core, 512-bit
/// VPU, 2.02 SP TFLOPS peak, ~6 GB usable of 8 GB GDDR.
pub fn phi_5110p() -> MachineConfig {
    MachineConfig {
        name: "Xeon Phi 5110P",
        cores: 60,
        threads_per_core: 4,
        clock_ghz: 1.053,
        vpu_lanes: 16,
        l2_per_core: CacheConfig { size_bytes: 512 * 1024, line_bytes: 64, associativity: 8 },
        l2_miss_latency_ns: 300.0,
        peak_sp_gflops: 2020.0,
        ipc_per_thread: 0.25,
        usable_memory_bytes: 6 * 1024 * 1024 * 1024,
    }
}

/// The Intel Xeon E5-2670 (paper §5.1, §5.5): 8 out-of-order cores at
/// 2.6 GHz, 2-way hyper-threading, 20 MB shared LLC (≈1.28 MB per
/// thread), 256-bit AVX.
pub fn xeon_e5_2670() -> MachineConfig {
    MachineConfig {
        name: "Xeon E5-2670",
        cores: 8,
        threads_per_core: 2,
        clock_ghz: 2.6,
        vpu_lanes: 8,
        // Per-core LLC share: 20 MB / 8 cores = 2.5 MB, 20-way like SNB LLC.
        l2_per_core: CacheConfig { size_bytes: 2560 * 1024, line_bytes: 64, associativity: 20 },
        l2_miss_latency_ns: 85.0,
        peak_sp_gflops: 332.8,
        ipc_per_thread: 1.5,
        usable_memory_bytes: 256 * 1024 * 1024 * 1024,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_matches_paper_section2() {
        let m = phi_5110p();
        assert_eq!(m.cores, 60);
        assert_eq!(m.total_threads(), 240);
        assert_eq!(m.vpu_lanes, 16);
        assert_eq!(m.l2_per_core.size_bytes, 512 * 1024);
        assert_eq!(m.l2_per_core.line_bytes, 64);
        // Peak SP performance ~2.02 TFLOPS.
        assert!((m.peak_sp_gflops - 2020.0).abs() < 1.0);
        // 60 cores x 1.053 GHz x 16 lanes x 2 (FMA) ≈ 2022 GFLOPS —
        // consistent with the quoted peak.
        let derived = m.cores as f64 * m.clock_ghz * m.vpu_lanes as f64 * 2.0;
        assert!((derived - m.peak_sp_gflops).abs() / m.peak_sp_gflops < 0.01);
    }

    #[test]
    fn xeon_matches_paper_section55() {
        let m = xeon_e5_2670();
        assert_eq!(m.total_threads(), 16);
        assert_eq!(m.vpu_lanes, 8);
        // 20MB LLC / 16 threads = 1.25MB per thread ≈ paper's 1.28MB figure.
        let per_thread = (m.l2_per_core.size_bytes * m.cores) as f64 / m.total_threads() as f64;
        assert!(per_thread >= 1.2 * 1024.0 * 1024.0);
    }

    #[test]
    fn phi_cache_geometry_is_valid() {
        // n_sets() panics on inconsistent geometry.
        assert!(phi_5110p().l2_per_core.n_sets() > 0);
        assert!(xeon_e5_2670().l2_per_core.n_sets() > 0);
    }

    #[test]
    fn issue_rate_scales_with_cores() {
        let phi = phi_5110p();
        assert!((phi.issue_rate() - 60.0 * 1.053e9).abs() < 1e6);
    }
}
