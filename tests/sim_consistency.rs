//! Integration tests pinning the simulator layers together: analytic
//! counter models vs trace-driven cache simulation, time-model orderings,
//! and the cluster model's asymptotics — the invariants behind every
//! modeled table in the reproduction.

use fcma::sim::analytic::{self, face_scene_task, SvmImpl};
use fcma::sim::trace;
use fcma::sim::{phi_5110p, xeon_e5_2670, CacheConfig, CorrShape, SyrkShape, TimeModel};

fn small_l2() -> CacheConfig {
    CacheConfig { size_bytes: 32 * 1024, line_bytes: 64, associativity: 8 }
}

#[test]
fn analytic_corr_model_validated_by_trace_across_shapes() {
    let phi = phi_5110p();
    for (v, n, m) in [(8u64, 512u64, 6u64), (16, 768, 8), (24, 1024, 4)] {
        let s = CorrShape { v, n, m, k: 12 };
        let t = trace::trace_corr_optimized(&s, small_l2(), 128, 4);
        let model = analytic::corr_optimized(&s, &phi).l2_misses;
        let ratio = t.misses as f64 / model as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "corr {v}x{n}x{m}: trace {} vs model {model}",
            t.misses
        );
    }
}

#[test]
fn analytic_syrk_model_validated_by_trace_across_shapes() {
    let phi = phi_5110p();
    for (m, n) in [(16u64, 768u64), (24, 960), (32, 1920)] {
        let s = SyrkShape { m, n, voxels: 1 };
        let t = trace::trace_syrk_optimized(&s, small_l2(), 96);
        let model = analytic::syrk_optimized(&s, &phi).l2_misses;
        let ratio = t.misses as f64 / model as f64;
        assert!((0.4..2.5).contains(&ratio), "syrk {m}x{n}: trace {} vs model {model}", t.misses);
    }
}

#[test]
fn every_paper_ordering_holds_in_the_model() {
    let phi = phi_5110p();
    let tm = TimeModel::default();
    let corr_opt = analytic::corr_optimized(&face_scene_task::corr(), &phi);
    let corr_mkl = analytic::corr_mkl(&face_scene_task::corr(), &phi);
    let syrk_opt = analytic::syrk_optimized(&face_scene_task::syrk(), &phi);
    let syrk_mkl = analytic::syrk_mkl(&face_scene_task::syrk(), &phi);
    let norm_m = analytic::norm_merged(&face_scene_task::norm(), &phi);
    let norm_s = analytic::norm_separated(&face_scene_task::norm(), &phi);
    let norm_b = analytic::norm_baseline(&face_scene_task::norm(), &phi);

    // Table 5: our kernels beat MKL's on both stages.
    assert!(tm.kernel_ms(&corr_opt, &phi) < tm.kernel_ms(&corr_mkl, &phi));
    assert!(tm.kernel_ms(&syrk_opt, &phi) < tm.kernel_ms(&syrk_mkl, &phi));
    // Table 7: merged < separated < baseline.
    let t_merged = tm.kernel_ms(&(corr_opt + norm_m), &phi);
    let t_sep = tm.kernel_ms(&(corr_opt + norm_s), &phi);
    let t_base = tm.kernel_ms(&(corr_opt + norm_b), &phi);
    assert!(t_merged < t_sep, "{t_merged} !< {t_sep}");
    assert!(t_sep < t_base, "{t_sep} !< {t_base}");
    // Paper's ~24% merged gain: ours should be at least 15%.
    assert!(t_sep / t_merged > 1.15, "merge gain only {:.2}x", t_sep / t_merged);

    // Table 8 ordering, per-voxel serial model with equal iterations.
    let s = fcma::sim::SvmShape { l: 192, folds: 17, voxels: 1, iters: 5000 };
    let t_lib = tm.per_thread_ms(&analytic::svm_cv(SvmImpl::LibSvm, &s, &phi), &phi);
    let t_opt = tm.per_thread_ms(&analytic::svm_cv(SvmImpl::OptimizedLibSvm, &s, &phi), &phi);
    let t_phi = tm.per_thread_ms(&analytic::svm_cv(SvmImpl::PhiSvm, &s, &phi), &phi);
    assert!(t_lib > t_opt && t_opt > t_phi, "{t_lib} / {t_opt} / {t_phi}");
    // Paper: LibSVM ~9x slower than PhiSVM; ours within a broad band.
    assert!((3.0..30.0).contains(&(t_lib / t_phi)), "SVM gap {}", t_lib / t_phi);
}

#[test]
fn xeon_model_shows_smaller_gains_than_phi() {
    let phi = phi_5110p();
    let xeon = xeon_e5_2670();
    let tm = TimeModel::default();
    let gap = |m: &fcma::sim::MachineConfig| {
        let opt = analytic::corr_optimized(&face_scene_task::corr(), m)
            + analytic::syrk_optimized(&face_scene_task::syrk(), m)
            + analytic::norm_merged(&face_scene_task::norm(), m);
        let base = analytic::corr_mkl(&face_scene_task::corr(), m)
            + analytic::syrk_mkl(&face_scene_task::syrk(), m)
            + analytic::norm_baseline(&face_scene_task::norm(), m);
        tm.kernel_ms(&base, m) / tm.kernel_ms(&opt, m)
    };
    let g_phi = gap(&phi);
    let g_xeon = gap(&xeon);
    assert!(g_xeon > 1.0, "optimizations must help the Xeon too: {g_xeon}");
    assert!(g_xeon < g_phi, "Fig. 10/11 direction violated: {g_xeon} !< {g_phi}");
}

#[test]
fn cluster_model_is_near_linear_then_bends() {
    let model = fcma::prelude::ClusterModel { data_bytes: 0.48e9, ..Default::default() };
    let tasks = vec![2.0f64; 144 * 18];
    let t1 = model.simulate(&tasks, 1);
    let t8 = model.simulate(&tasks, 8);
    let t96 = model.simulate(&tasks, 96);
    let s8 = t1 / t8;
    let s96 = t1 / t96;
    assert!(s8 > 7.0, "8-node speedup {s8}");
    assert!((45.0..96.0).contains(&s96), "96-node speedup {s96}");
    // Efficiency decreases with node count (the Fig. 8 bend).
    assert!(s96 / 96.0 < s8 / 8.0);
}

#[test]
fn trace_and_analytic_agree_that_merging_saves_misses() {
    let s = fcma::sim::NormShape { elems: 16 * 8 * 768 };
    let merged = trace::trace_norm_merged(&s, small_l2(), 0, 512);
    let separated = trace::trace_norm_separated(&s, small_l2(), 0);
    assert!(
        separated.misses > merged.misses,
        "trace: separated {} !> merged {}",
        separated.misses,
        merged.misses
    );
    let phi = phi_5110p();
    let am = analytic::norm_merged(&s, &phi);
    let asep = analytic::norm_separated(&s, &phi);
    assert!(asep.l2_misses > am.l2_misses);
}

/// A traced stage 1 reports the analytic model's counts, summed over
/// epochs: `fcma-core` computes them itself so that it does not link the
/// simulator. Every term of the tile model is exercised: voxel counts on
/// both sides of the Phi's 8-row tile (and of the host's 4-row one), a
/// brain that is not a multiple of the 16-wide tile, and epochs of
/// unequal length.
#[test]
fn stage1_trace_counters_are_the_analytic_model_per_epoch() {
    use fcma::core::{corr_baseline, corr_optimized, TaskContext, VoxelTask};
    use fcma::fmri::Dataset;
    use fcma::linalg::tall_skinny::TallSkinnyOpts;
    use fcma::trace::{Collector, TraceReport};
    use fcma_sync::pool::Pool;

    // N = 100 voxels, not a multiple of the tile's 16.
    let mut config = fcma::fmri::presets::tiny();
    config.n_voxels = 100;
    let (d, _) = config.generate();
    let mut epochs = d.epochs().to_vec();
    for (e, ep) in epochs.iter_mut().enumerate() {
        ep.len -= e % 4; // 12, 11, 10, 9, 12, … time points
    }
    let lens: Vec<usize> = epochs.iter().map(|ep| ep.len).collect();
    let ctx = TaskContext::full(&Dataset::new(d.data().clone(), epochs).unwrap());
    let traced = |f: &dyn Fn()| -> TraceReport {
        let collector = Collector::new();
        let scope = collector.install_scoped();
        f();
        drop(scope);
        collector.drain()
    };

    let phi = phi_5110p();
    for v in [1u64, 3, 8, 9] {
        let task = VoxelTask { start: 2, count: v as usize };
        let model = lens.iter().fold((0, 0), |(flops, refs), &k| {
            let shape = CorrShape { v, n: 100, m: 1, k: k as u64 };
            let c = analytic::corr_optimized(&shape, &phi);
            (flops + c.flops, refs + c.mem_refs)
        });
        let optimized = traced(&|| drop(corr_optimized(&ctx, task, TallSkinnyOpts::default())));
        let got = (optimized.counter("stage1.flops"), optimized.counter("stage1.mem_refs"));
        assert_eq!(got, model, "corr_optimized at V = {v}: (flops, mem_refs)");
        let baseline = traced(&|| drop(corr_baseline(&ctx, task, &Pool::default())));
        assert_eq!(baseline.counter("stage1.flops"), model.0, "corr_baseline at V = {v}");
        assert!(!baseline.counters.contains_key("stage1.mem_refs"), "corr_baseline at V = {v}");
    }
}
