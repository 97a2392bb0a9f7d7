//! Roofline-style execution-time model.
//!
//! Converts kernel counters into estimated wall time on a machine model:
//!
//! ```text
//!   t = cpi · instructions / issue_rate  +  misses · latency / (cores · threads)
//! ```
//!
//! * The **issue term** models one (vector) instruction per core per cycle
//!   scaled by a CPI factor covering in-order stalls and dependency
//!   chains.
//! * The **memory term** models L2 miss latency overlapped across all
//!   hardware threads (each thread can have one outstanding miss — the
//!   simple latency-hiding model appropriate to the in-order Phi).
//!
//! Throughput-limited workloads (the baseline's SVM stage, where one
//! thread owns one voxel and memory pressure caps the voxel count) are
//! handled by [`TimeModel::limited_ms`], which scales the estimate by the
//! active-thread fraction — the §3.3.3 thread-starvation effect.
//!
//! The model is intentionally coarse: the reproduction's claims are about
//! *ratios* (optimized vs. baseline, merged vs. separated), which depend
//! on the counters, not on the absolute calibration.

use crate::counters::KernelCounters;
use crate::machine::MachineConfig;

/// The time model. `cpi` is the average cycles-per-instruction factor.
#[derive(Debug, Clone, Copy)]
pub struct TimeModel {
    /// Cycles per (vector) instruction; ~2 for the in-order Phi running
    /// well-pipelined kernels.
    pub cpi: f64,
}

impl Default for TimeModel {
    fn default() -> Self {
        TimeModel { cpi: 2.0 }
    }
}

impl TimeModel {
    /// Estimated milliseconds for a fully-parallel kernel.
    pub fn kernel_ms(&self, c: &KernelCounters, m: &MachineConfig) -> f64 {
        self.limited_ms(c, m, m.total_threads())
    }

    /// Estimated milliseconds when only `active_threads` of the machine's
    /// hardware threads have work (≥ total threads means fully parallel).
    ///
    /// # Panics
    /// If `active_threads == 0`.
    pub fn limited_ms(&self, c: &KernelCounters, m: &MachineConfig, active_threads: usize) -> f64 {
        assert!(active_threads > 0, "limited_ms: no active threads");
        let util = (active_threads.min(m.total_threads()) as f64) / m.total_threads() as f64;
        let t_issue_s = self.cpi * c.vpu_instructions as f64 / m.issue_rate() / util;
        let t_mem_s =
            c.l2_misses as f64 * m.l2_miss_latency_ns * 1e-9 / (m.total_threads() as f64 * util);
        (t_issue_s + t_mem_s) * 1e3
    }

    /// Achieved GFLOP/s implied by the model for this kernel.
    pub fn gflops(&self, c: &KernelCounters, m: &MachineConfig) -> f64 {
        c.gflops(self.kernel_ms(c, m))
    }

    /// Milliseconds for a *single thread* to execute this counter bundle
    /// serially — the per-voxel SVM cross-validation regime, where one
    /// thread owns one voxel's problem (§4.4). The thread runs at the
    /// machine's single-thread IPC and eats its misses un-overlapped.
    pub fn per_thread_ms(&self, c: &KernelCounters, m: &MachineConfig) -> f64 {
        let t_issue_s = c.vpu_instructions as f64 / (m.clock_ghz * 1e9 * m.ipc_per_thread);
        let t_mem_s = c.l2_misses as f64 * m.l2_miss_latency_ns * 1e-9;
        (t_issue_s + t_mem_s) * 1e3
    }

    /// Wall time of an SVM CV stage processing `voxels` independent
    /// problems, one per thread: the per-voxel serial time times the
    /// number of thread waves needed.
    pub fn svm_stage_ms(
        &self,
        per_voxel: &KernelCounters,
        voxels: usize,
        m: &MachineConfig,
    ) -> f64 {
        let waves = voxels.div_ceil(m.total_threads()).max(1);
        self.per_thread_ms(per_voxel, m) * waves as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{self, face_scene_task};
    use crate::machine::{phi_5110p, xeon_e5_2670};

    #[test]
    fn issue_bound_kernel_scales_with_instructions() {
        let m = phi_5110p();
        let tm = TimeModel::default();
        let c1 = KernelCounters { vpu_instructions: 1_000_000_000, ..Default::default() };
        let c2 = KernelCounters { vpu_instructions: 2_000_000_000, ..Default::default() };
        let t1 = tm.kernel_ms(&c1, &m);
        let t2 = tm.kernel_ms(&c2, &m);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_kernel_scales_with_misses() {
        let m = phi_5110p();
        let tm = TimeModel::default();
        let c = KernelCounters { l2_misses: 240_000_000, ..Default::default() };
        // 240M misses x 300ns / 240 threads = 300 ms.
        let t = tm.kernel_ms(&c, &m);
        assert!((t - 300.0).abs() < 1.0, "t = {t}");
    }

    #[test]
    fn thread_starvation_inflates_time() {
        let m = phi_5110p();
        let tm = TimeModel::default();
        let c = KernelCounters {
            vpu_instructions: 1_000_000_000,
            l2_misses: 10_000_000,
            ..Default::default()
        };
        let full = tm.limited_ms(&c, &m, 240);
        let half = tm.limited_ms(&c, &m, 120);
        let quarter = tm.limited_ms(&c, &m, 60);
        assert!((half / full - 2.0).abs() < 1e-6);
        assert!((quarter / full - 4.0).abs() < 1e-6);
    }

    /// Table 5 regime check: the modeled times for the four matmul cases
    /// must reproduce the paper's ordering and rough factors
    /// (ours: 170 / 400 ms; MKL: 230 / 1600 ms).
    #[test]
    fn table5_orderings_hold() {
        let m = phi_5110p();
        let tm = TimeModel::default();
        let t_corr_opt = tm.kernel_ms(&analytic::corr_optimized(&face_scene_task::corr(), &m), &m);
        let t_corr_mkl = tm.kernel_ms(&analytic::corr_mkl(&face_scene_task::corr(), &m), &m);
        let t_syrk_opt = tm.kernel_ms(&analytic::syrk_optimized(&face_scene_task::syrk(), &m), &m);
        let t_syrk_mkl = tm.kernel_ms(&analytic::syrk_mkl(&face_scene_task::syrk(), &m), &m);

        // Winners.
        assert!(t_corr_opt < t_corr_mkl, "corr: {t_corr_opt} !< {t_corr_mkl}");
        assert!(t_syrk_opt < t_syrk_mkl, "syrk: {t_syrk_opt} !< {t_syrk_mkl}");
        // The paper's big factor is on the SYRK side (4x); ours should be
        // in a comparable band.
        let syrk_ratio = t_syrk_mkl / t_syrk_opt;
        assert!((2.0..8.0).contains(&syrk_ratio), "syrk ratio {syrk_ratio}");
        // Absolute times within the right order of magnitude (paper: 170,
        // 230, 400, 1600 ms).
        assert!((50.0..500.0).contains(&t_corr_opt), "corr opt {t_corr_opt}");
        assert!((800.0..4000.0).contains(&t_syrk_mkl), "syrk mkl {t_syrk_mkl}");
    }

    /// The paper's SYRK achieves 430 GFLOPS (21% of peak); MKL 108. Check
    /// the model lands both in sane bands.
    #[test]
    fn table5_gflops_bands() {
        let m = phi_5110p();
        let tm = TimeModel::default();
        let opt = analytic::syrk_optimized(&face_scene_task::syrk(), &m);
        let mkl = analytic::syrk_mkl(&face_scene_task::syrk(), &m);
        let g_opt = tm.gflops(&opt, &m);
        let g_mkl = tm.gflops(&mkl, &m);
        assert!(g_opt > 2.0 * g_mkl, "opt {g_opt} vs mkl {g_mkl}");
        assert!((150.0..800.0).contains(&g_opt), "opt gflops {g_opt}");
        assert!((40.0..250.0).contains(&g_mkl), "mkl gflops {g_mkl}");
    }

    /// Fig. 10/11 direction: the same optimization gap must shrink on the
    /// Xeon (bigger caches, narrower vectors).
    #[test]
    fn optimization_gap_smaller_on_xeon() {
        let phi = phi_5110p();
        let xeon = xeon_e5_2670();
        let tm = TimeModel::default();
        let gap_on = |m: &crate::machine::MachineConfig| {
            let opt = analytic::corr_optimized(&face_scene_task::corr(), m)
                + analytic::syrk_optimized(&face_scene_task::syrk(), m);
            let mkl = analytic::corr_mkl(&face_scene_task::corr(), m)
                + analytic::syrk_mkl(&face_scene_task::syrk(), m);
            tm.kernel_ms(&mkl, m) / tm.kernel_ms(&opt, m)
        };
        let gap_phi = gap_on(&phi);
        let gap_xeon = gap_on(&xeon);
        assert!(gap_xeon < gap_phi, "xeon gap {gap_xeon} !< phi gap {gap_phi}");
    }
}
