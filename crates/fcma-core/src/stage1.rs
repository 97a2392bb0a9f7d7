//! Stage 1 — correlation computation.
//!
//! A worker computes, for its assigned voxel block, the Pearson
//! correlation vector against the whole brain for every epoch, storing
//! the results grouped by voxel (row `v·M + e`). Two implementations:
//!
//! * [`corr_baseline`] — the paper's §3.2 baseline: one generic blocked
//!   GEMM call per epoch, using the output leading dimension to interleave
//!   (the `cblas_sgemm`+`ldc` trick), banded over the task's voxels
//!   across the pool's workers;
//! * [`corr_optimized`] — the paper's §4.2 kernel: tall-skinny-specialized
//!   blocking via [`fcma_linalg::corr_tall_skinny`].

use crate::context::TaskContext;
use crate::task::VoxelTask;
use fcma_linalg::tall_skinny::{EpochPair, TallSkinnyOpts};
use fcma_linalg::{
    corr_tall_skinny, gemm_blocked_scratch, BlockSizes, CorrLayout, GemmScratch, Mat,
};
use fcma_sync::pool::{Pool, PoolStats, WorkerLane};
use fcma_trace::{counter, labeled_counter, span};

/// Bridge one parallel region's [`PoolStats`] into the trace counters.
/// The pool itself is trace-free (fcma-sync stays a leaf crate), so the
/// kernel call sites own the `pool.*` counter taxonomy (DESIGN.md §11).
/// Region totals land in plain counters; the per-worker lanes land in
/// `worker`-labeled series so load imbalance (one worker stealing or
/// parking far more than its peers) survives the aggregation.
pub(crate) fn bridge_pool_counters(stats: &PoolStats) {
    counter!("pool.tasks.run", stats.tasks);
    counter!("pool.steals", stats.steals);
    counter!("pool.idle.parks", stats.idle_parks);
    let lanes: &[WorkerLane] = &stats.per_worker;
    for (wid, lane) in lanes.iter().enumerate() {
        labeled_counter!("pool.worker.tasks", worker = wid, lane.tasks);
        labeled_counter!("pool.worker.steals", worker = wid, lane.steals);
        labeled_counter!("pool.worker.parks", worker = wid, lane.parks);
    }
}

/// Run `job(state, band, (v0, v1, rows))` once per band of a task's `v`
/// voxels: one pool region whose bands are contiguous, start on
/// multiples of `align`, and each own `rows` — the band's `stride`
/// floats per voxel of the voxel-interleaved `buf` — outright, so there
/// is no cross-thread reduction and the output is bit-identical at every
/// thread count provided `job` is insensitive to `align`-aligned banding
/// (DESIGN.md §15). At one thread this is one band, `0..v`, run inline
/// on the caller: the serial path is this path.
pub(crate) fn run_voxel_bands<S>(
    pool: &Pool,
    buf: &mut [f32],
    v: usize,
    stride: usize,
    align: usize,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize, (usize, usize, &mut [f32])) + Sync,
) {
    let n_groups = v.div_ceil(align);
    let bands = pool.threads().min(n_groups).max(1);
    let mut tasks: Vec<(usize, usize, &mut [f32])> = Vec::with_capacity(bands);
    let mut rest: &mut [f32] = buf;
    let mut v0 = 0usize;
    for band in 0..bands {
        let groups = n_groups / bands + usize::from(band < n_groups % bands);
        let v1 = (v0 + groups * align).min(v);
        let (head, tail) = rest.split_at_mut((v1 - v0) * stride);
        tasks.push((v0, v1, head));
        rest = tail;
        v0 = v1;
    }
    let (_, stats) = pool.run_init_stats(tasks, init, job);
    bridge_pool_counters(&stats);
}

/// Widen a shape dimension for the stage-1 counters.
fn dim(x: usize) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

/// `stage1.flops` (DESIGN.md §11): the task's multiply-adds, 2·V·N·k
/// per epoch, summed over epochs because their lengths may differ.
fn stage1_flops(assigned: &[Mat], v: usize, n: usize) -> u64 {
    assigned.iter().map(|a| 2 * dim(v) * dim(n) * dim(a.cols())).sum()
}

/// `stage1.mem_refs` (DESIGN.md §11): the memory-reference instructions
/// the paper's tall-skinny kernel retires on the Phi, per epoch — one
/// `B` vector load and `MR` broadcasts per `MR × NR` tile and k-step,
/// `MR` stores per tile, and one load and one store per packed vector of
/// either operand. The tile is the Phi's 8 × 16, not this build's
/// [`fcma_linalg::microkernel::MR`]: this is `fcma-sim`'s analytic
/// `corr_optimized` at one epoch, inlined so the pipeline does not call
/// into the simulator (`tests/sim_consistency.rs` holds the two equal).
fn stage1_mem_refs(assigned: &[Mat], v: usize, n: usize) -> u64 {
    const MR: u64 = 8;
    const NR: u64 = 16;
    let (v, n) = (dim(v), dim(n));
    assigned
        .iter()
        .map(|a| {
            let k = dim(a.cols());
            let tiles = v.div_ceil(MR) * n.div_ceil(NR);
            tiles * (k * (1 + MR) + MR) + 2 * n * k / NR + v.div_ceil(MR) * 2 * k
        })
        .sum()
}

/// The interleaved correlation buffer for one task: `V·M` rows of `N`
/// floats, row `v·M + e` holding voxel `v`'s correlation vector for
/// epoch `e`.
#[derive(Debug, Clone)]
// audit: allow(deadpub) — part of a referenced public signature; demotion trips private_interfaces
pub struct CorrData {
    /// Backing buffer.
    pub buf: Vec<f32>,
    /// Shape descriptor.
    pub layout: CorrLayout,
}

impl CorrData {
    /// Voxel `v`'s full `M × N` correlation data matrix (rows are epochs)
    /// — exactly the stage-3 SVM data matrix, contiguous by construction.
    ///
    /// # Panics
    /// If `v` is out of range for the layout.
    pub fn voxel_matrix(&self, v: usize) -> &[f32] {
        let m = self.layout.n_epochs;
        let n = self.layout.n_brain;
        &self.buf[v * m * n..(v + 1) * m * n]
    }

    /// Mutable row for (voxel, epoch).
    ///
    /// # Panics
    /// If `(v, e)` is out of range for the layout.
    pub fn row_mut(&mut self, v: usize, e: usize) -> &mut [f32] {
        let n = self.layout.n_brain;
        let r = self.layout.row(v, e);
        &mut self.buf[r * n..(r + 1) * n]
    }

    /// Row for (voxel, epoch).
    ///
    /// # Panics
    /// If `(v, e)` is out of range for the layout.
    pub fn row(&self, v: usize, e: usize) -> &[f32] {
        let n = self.layout.n_brain;
        let r = self.layout.row(v, e);
        &self.buf[r * n..(r + 1) * n]
    }
}

/// Extract the per-epoch assigned-voxel matrices for a task.
pub(crate) fn assigned_blocks(ctx: &TaskContext, task: VoxelTask) -> Vec<Mat> {
    ctx.norm.assigned_blocks(task.range())
}

/// Pair each epoch's assigned-voxel matrix with its whole-brain matrix —
/// the operands of the tall-skinny family.
pub(crate) fn epoch_pairs<'a>(ctx: &'a TaskContext, assigned: &'a [Mat]) -> Vec<EpochPair<'a>> {
    assigned
        .iter()
        .enumerate()
        .map(|(e, a)| EpochPair { assigned: a, brain: ctx.norm.brain(e) })
        .collect()
}

/// Baseline stage 1: per-epoch generic blocked GEMM with interleaved
/// output via the leading dimension.
///
/// One pool region per task: the task's voxels are split into
/// `mc`-aligned bands, and each worker multiplies every epoch for its
/// band's rows through one [`GemmScratch`] (DESIGN.md §14: the band
/// driver owns the scratch, so the epoch loop never allocates). Band boundaries
/// coincide with the kernel's own `mc` row blocking, so the output is
/// bit-identical at every thread count (DESIGN.md §15); serial callers
/// pass `&Pool::default()`.
///
/// # Panics
/// If `task` is out of range for `ctx`.
pub fn corr_baseline(ctx: &TaskContext, task: VoxelTask, pool: &Pool) -> CorrData {
    let v = task.count;
    let n = ctx.n_voxels();
    let m = ctx.n_epochs();
    let layout = CorrLayout { n_assigned: v, n_epochs: m, n_brain: n };
    let mut buf = vec![0.0f32; layout.out_len()];
    let assigned = assigned_blocks(ctx, task);
    let _span = span!("stage1.corr", voxels = v, brain = n, epochs = m, kernel = "baseline");
    counter!("stage1.flops", stage1_flops(&assigned, v, n));
    let bs = BlockSizes::default();
    run_voxel_bands(
        pool,
        &mut buf,
        v,
        m * n,
        bs.mc,
        || GemmScratch::new(bs),
        |scratch, _band, (v0, v1, rows)| {
            for (e, a) in assigned.iter().enumerate() {
                let b = ctx.norm.brain(e);
                let k = a.cols();
                let lda = k.max(1);
                gemm_blocked_scratch(
                    v1 - v0,
                    n,
                    k,
                    &a.as_slice()[v0 * lda..],
                    lda,
                    b.as_slice(),
                    n,
                    &mut rows[e * n..],
                    m * n,
                    scratch,
                );
            }
        },
    );
    fcma_linalg::debug_assert_finite!(&buf, "stage1 baseline correlation output");
    CorrData { buf, layout }
}

/// Optimized stage 1: the tall-skinny strip-blocked kernel.
pub fn corr_optimized(ctx: &TaskContext, task: VoxelTask, opts: TallSkinnyOpts) -> CorrData {
    let v = task.count;
    let n = ctx.n_voxels();
    let m = ctx.n_epochs();
    let layout = CorrLayout { n_assigned: v, n_epochs: m, n_brain: n };
    let mut buf = vec![0.0f32; layout.out_len()];
    let assigned = assigned_blocks(ctx, task);
    let _span = span!("stage1.corr", voxels = v, brain = n, epochs = m, kernel = "tall_skinny");
    counter!("stage1.flops", stage1_flops(&assigned, v, n));
    counter!("stage1.mem_refs", stage1_mem_refs(&assigned, v, n));
    let got = corr_tall_skinny(&epoch_pairs(ctx, &assigned), &mut buf, opts);
    debug_assert_eq!(got, layout);
    fcma_linalg::debug_assert_finite!(&buf, "stage1 optimized correlation output");
    CorrData { buf, layout }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcma_fmri::presets;
    use fcma_linalg::dot;

    fn ctx() -> TaskContext {
        let (d, _) = presets::tiny().generate();
        TaskContext::full(&d)
    }

    #[test]
    fn baseline_and_optimized_agree() {
        let ctx = ctx();
        let task = VoxelTask { start: 8, count: 13 };
        let a = corr_baseline(&ctx, task, &Pool::default());
        let b = corr_optimized(&ctx, task, TallSkinnyOpts::default());
        assert_eq!(a.buf.len(), b.buf.len());
        for (i, (x, y)) in a.buf.iter().zip(&b.buf).enumerate() {
            assert!((x - y).abs() < 1e-4, "idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn self_correlation_is_one() {
        let ctx = ctx();
        let task = VoxelTask { start: 0, count: 6 };
        let c = corr_optimized(&ctx, task, TallSkinnyOpts::default());
        for v in 0..6 {
            for e in 0..ctx.n_epochs() {
                let r = c.row(v, e)[task.start + v];
                assert!((r - 1.0).abs() < 1e-3, "voxel {v} epoch {e}: self-corr {r}");
            }
        }
    }

    #[test]
    fn correlations_match_direct_dot_products() {
        let ctx = ctx();
        let task = VoxelTask { start: 3, count: 2 };
        let c = corr_baseline(&ctx, task, &Pool::default());
        for e in [0usize, 5] {
            let b = ctx.norm.brain(e);
            for vi in 0..2 {
                let col_a: Vec<f32> = (0..b.rows()).map(|t| b.get(t, 3 + vi)).collect();
                for j in [0usize, 17, 95] {
                    let col_b: Vec<f32> = (0..b.rows()).map(|t| b.get(t, j)).collect();
                    let want = dot(&col_a, &col_b);
                    let got = c.row(vi, e)[j];
                    assert!((got - want).abs() < 1e-4, "v{vi} e{e} j{j}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn voxel_matrix_is_contiguous_epoch_rows() {
        let ctx = ctx();
        let task = VoxelTask { start: 0, count: 3 };
        let c = corr_baseline(&ctx, task, &Pool::default());
        let m = ctx.n_epochs();
        let n = ctx.n_voxels();
        let vm = c.voxel_matrix(1);
        assert_eq!(vm.len(), m * n);
        for e in 0..m {
            assert_eq!(&vm[e * n..(e + 1) * n], c.row(1, e));
        }
    }

    #[test]
    fn correlations_bounded_by_one() {
        let ctx = ctx();
        let task = VoxelTask { start: 0, count: 4 };
        let c = corr_optimized(&ctx, task, TallSkinnyOpts::default());
        for &x in &c.buf {
            assert!(x.abs() <= 1.0 + 1e-3, "correlation {x} out of range");
        }
    }
}
