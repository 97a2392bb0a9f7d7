//! The benchmark's declared surface: workload names, metric names and
//! units. `BENCHMARK.json` repeats these; the tests hold the two equal.

use std::collections::BTreeMap;

/// The four workloads, in the order `aa.sh` runs them.
pub const WORKLOADS: [&str; 4] =
    ["task-facescene", "task-attention", "sweep-cohort", "online-session"];

/// End-to-end metrics `(name, unit)`: printed by every workload's
/// untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("startup_s", "s"),
    ("voxels_per_s", "voxels/s"),
    ("voxels_per_s_pooled", "voxels/s"),
    ("response_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`: printed by every workload's traced
/// run (`--trace 1`). A workload that does not drive a layer prints 0
/// with `n=0` for that layer's metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    // host probes — denominators
    ("host.peak_gflops", "GFLOP/s"),
    ("host.triad_gbs", "GB/s"),
    ("host.nproc", "count"),
    // fcma-fmri
    ("fmri.load_s", "s"),
    ("fmri.load_gbs", "GB/s"),
    ("fmri.normalize_epochs_s", "s"),
    ("fmri.normalize_epochs_gbs", "GB/s"),
    ("fmri.assigned_blocks_ms", "ms"),
    ("fmri.cold_startup_s", "s"),
    // fcma-linalg
    ("linalg.microkernel_gflops", "GFLOP/s"),
    ("linalg.gemm_ts_ms", "ms"),
    ("linalg.gemm_ts_gflops", "GFLOP/s"),
    ("linalg.gemm_ts_frac_roofline", "fraction"),
    ("linalg.ts_vs_generic", "ratio"),
    ("linalg.syrk_panel_ms", "ms"),
    ("linalg.syrk_panel_gflops", "GFLOP/s"),
    ("linalg.syrk_frac_roofline", "fraction"),
    ("linalg.syrk_panel_vs_dot", "ratio"),
    // fcma-core
    ("core.stage12_ms", "ms"),
    ("core.stage12_share", "fraction"),
    ("core.merged_vs_separated", "ratio"),
    ("core.stage2_norm_gbs", "GB/s"),
    ("core.stage3_ms", "ms"),
    ("core.stage3_share", "fraction"),
    ("core.task_overhead_ms", "ms"),
    ("core.optimized_vs_baseline", "ratio"),
    ("core.select_ms", "ms"),
    ("core.roi_recovery", "fraction"),
    ("core.online_train_s", "s"),
    ("core.online_select_s", "s"),
    ("core.session_snapshot_ms", "ms"),
    ("core.feedback_ms_p90", "ms"),
    ("core.feedback_accuracy", "fraction"),
    // fcma-svm
    ("svm.precompute_ms", "ms"),
    ("svm.cv_ms", "ms"),
    ("svm.cv_share", "fraction"),
    ("svm.smo_iterations", "count"),
    ("svm.smo_ns_per_iter", "ns"),
    ("svm.phisvm_vs_libsvm", "ratio"),
    // fcma-sync
    ("pool.region_overhead_us", "us"),
    ("pool.task_speedup_2t", "ratio"),
    ("pool.tasks_run", "count"),
    ("pool.steal_frac", "fraction"),
    ("pool.parks", "count"),
    // fcma-cluster
    ("cluster.scaling_eff_2w", "fraction"),
    ("cluster.scaling_eff_2t", "fraction"),
    ("cluster.worker_busy_frac", "fraction"),
    ("cluster.idle_tail_s", "s"),
    ("cluster.task_wall_ms_p50", "ms"),
    ("cluster.tasks_dispatched", "count"),
    ("cluster.attempts_per_task", "ratio"),
    // fcma-sim
    ("sim.stage1_flops", "count"),
    ("sim.stage1_mem_refs", "count"),
    ("sim.stage1_host_vs_model", "ratio"),
    // fcma-trace
    ("trace.overhead_frac", "fraction"),
    ("trace.spans_recorded", "count"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
}

/// Metric values of one run, keyed by declared name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, Measured>);

impl Metrics {
    /// Record `name`. Panics on a name that is in neither declared list:
    /// that is a bug in the benchmark, not a measurement outcome.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared in spec.rs"
        );
        self.0.insert(name, Measured { value, samples });
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.0.get(name).copied()
    }
}
