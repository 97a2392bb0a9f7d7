//! LibSVM-replica SMO solver — the baseline the paper measures against.
//!
//! The paper's baseline feeds precomputed kernel matrices to LibSVM and
//! observes three inefficiencies on the coprocessor (§3.3.3):
//!
//! 1. data stored in a **sparse index set instead of a dense matrix** —
//!    kernel values live in `(index, value)` node arrays, so the hot
//!    loops walk twice the memory and defeat the vectorizer;
//! 2. **unnecessary type conversions and `f64` in the hot loops** — every
//!    `f32` kernel entry is widened to double on entry;
//! 3. per-row kernel (`Q`) computation guarded by an **LRU row cache**
//!    rather than direct indexing.
//!
//! This module reproduces those design decisions faithfully (including
//! LibSVM's second-order working-set selection, its stopping rule, and its
//! `calculate_rho`), so that the optimized solvers in [`crate::smo`] are
//! compared against a real algorithmic twin of LibSVM rather than a straw
//! man. Shrinking is omitted, matching the paper's usage on
//! few-hundred-sample problems.

use crate::kernel::KernelMatrix;

/// LibSVM node: explicit `(index, value)` pair, the sparse representation
/// the paper calls out. `index` is kept even though our data is dense —
/// that redundancy *is* the measured inefficiency.
#[derive(Debug, Clone, Copy)]
struct Node {
    index: i32,
    value: f64,
}

/// Parameters of the replica solver.
#[derive(Debug, Clone, Copy)]
pub struct LibSvmParams {
    /// Box constraint `C`.
    pub c: f64,
    /// Stopping tolerance (LibSVM default 1e-3).
    pub eps: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Q-row LRU cache capacity, in rows (LibSVM sizes its cache in MB;
    /// rows is the equivalent knob for precomputed kernels).
    pub cache_rows: usize,
}

impl Default for LibSvmParams {
    fn default() -> Self {
        LibSvmParams { c: 1.0, eps: 1e-3, max_iter: 100_000, cache_rows: 64 }
    }
}

/// Result of a replica solve.
#[derive(Debug, Clone)]
pub struct LibSvmResult {
    /// Dual variables (double precision, as in LibSVM).
    pub alpha: Vec<f64>,
    /// Bias.
    pub rho: f64,
    /// Final dual objective.
    pub objective: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Q-row cache misses (each miss recomputes a full row).
    pub cache_misses: usize,
}

/// Simple LRU cache of computed `Q` rows, mirroring `libsvm`'s `Cache`.
struct RowCache {
    capacity: usize,
    /// (row index, row data), most recently used last.
    entries: Vec<(usize, Vec<f64>)>,
    misses: usize,
}

impl RowCache {
    fn new(capacity: usize) -> Self {
        RowCache { capacity: capacity.max(2), entries: Vec::new(), misses: 0 }
    }

    /// Fetch row `i`, computing it with `make` on a miss.
    fn get(&mut self, i: usize, make: impl FnOnce() -> Vec<f64>) -> &[f64] {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == i) {
            let e = self.entries.remove(pos);
            self.entries.push(e);
        } else {
            self.misses += 1;
            if self.entries.len() >= self.capacity {
                self.entries.remove(0);
            }
            self.entries.push((i, make()));
        }
        // audit: allow(panicpath) — an entry was pushed on both branches above
        &self.entries.last().expect("just pushed").1
    }
}

const TAU: f64 = 1e-12;

/// Train a binary C-SVC on a precomputed kernel, LibSVM-style.
///
/// `idx` are the global kernel indices of the training samples, `y` their
/// ±1 targets (parallel to `idx`).
///
/// # Panics
/// Panics on length mismatches, non-±1 targets, or a single-class problem.
pub fn train_precomputed(
    kernel: &KernelMatrix,
    idx: &[usize],
    y: &[f32],
    params: &LibSvmParams,
) -> LibSvmResult {
    let l = idx.len();
    assert_eq!(y.len(), l, "libsvm: idx/targets length mismatch");
    assert!(l >= 2, "libsvm: need at least two samples");
    assert!(y.iter().all(|&v| v == 1.0 || v == -1.0), "libsvm: targets must be ±1");
    assert!(y.contains(&1.0) && y.iter().any(|&v| v == -1.0), "libsvm: need both classes");

    // Build the node arrays: each training sample is the (sparse-encoded)
    // row of kernel values against all training samples — LibSVM's
    // precomputed-kernel representation, f32 → f64 widening included.
    let rows: Vec<Vec<Node>> = idx
        .iter()
        .map(|&gi| {
            let src = kernel.row(gi);
            idx.iter()
                .enumerate()
                .map(|(t, &gt)| Node { index: t as i32, value: src[gt] as f64 })
                .collect()
        })
        .collect();
    let y64: Vec<f64> = y.iter().map(|&v| v as f64).collect();
    let qd: Vec<f64> = (0..l).map(|t| kernel_eval(&rows, t, t)).collect();

    let c = params.c;
    let mut alpha = vec![0.0f64; l];
    let mut g = vec![-1.0f64; l];
    let mut cache = RowCache::new(params.cache_rows);
    let mut iter = 0usize;

    // Numeric-convergence guard (see `smo::solve`): stop when a window of
    // iterations yields no objective decrease at f64 precision.
    const STALL_WINDOW: usize = 128;
    let mut stall_obj: f64 = 0.0;

    while iter < params.max_iter {
        // --- second-order working set selection (LibSVM's default) ---
        let mut gmax = f64::NEG_INFINITY;
        let mut i = usize::MAX;
        for t in 0..l {
            if in_i_up(y64[t], alpha[t], c) {
                let v = -y64[t] * g[t];
                if v > gmax {
                    gmax = v;
                    i = t;
                }
            }
        }
        if i == usize::MAX {
            break;
        }
        let mut gmin = f64::INFINITY;
        let mut j = usize::MAX;
        let mut best = f64::INFINITY;
        for t in 0..l {
            if in_i_low(y64[t], alpha[t], c) {
                let v = -y64[t] * g[t];
                gmin = gmin.min(v);
                let b = gmax - v;
                if b > 0.0 {
                    let a = (qd[i] + qd[t] - 2.0 * kernel_eval(&rows, i, t)).max(TAU);
                    let score = -(b * b) / a;
                    if score < best {
                        best = score;
                        j = t;
                    }
                }
            }
        }
        if j == usize::MAX || gmax - gmin <= params.eps {
            break;
        }

        // --- analytic two-variable step ---
        let eta = (qd[i] + qd[j] - 2.0 * kernel_eval(&rows, i, j)).max(TAU);
        let e_i = y64[i] * g[i];
        let e_j = y64[j] * g[j];
        let old_ai = alpha[i];
        let old_aj = alpha[j];
        let mut aj = old_aj + y64[j] * (e_i - e_j) / eta;
        let (lo, hi) = if y64[i] != y64[j] {
            ((old_aj - old_ai).max(0.0), (c + old_aj - old_ai).min(c))
        } else {
            ((old_ai + old_aj - c).max(0.0), (old_ai + old_aj).min(c))
        };
        aj = aj.clamp(lo, hi);
        let ai = old_ai + y64[i] * y64[j] * (old_aj - aj);
        alpha[i] = ai;
        alpha[j] = aj;

        // --- gradient update through the cached Q rows ---
        let dai = ai - old_ai;
        let daj = aj - old_aj;
        // Q rows are fetched one at a time (the cache borrows mutably), so
        // the inner update walks each row separately — another layout cost
        // of the replica relative to the fused dense loop in `smo`.
        {
            let qi: Vec<f64> = cache.get(i, || q_row(&rows, &y64, i)).to_vec();
            for t in 0..l {
                g[t] += qi[t] * dai;
            }
        }
        {
            let qj: Vec<f64> = cache.get(j, || q_row(&rows, &y64, j)).to_vec();
            for t in 0..l {
                g[t] += qj[t] * daj;
            }
        }
        iter += 1;
        if iter.is_multiple_of(STALL_WINDOW) {
            let obj: f64 = alpha.iter().zip(&g).map(|(&a, &gt)| a * (gt - 1.0)).sum::<f64>() * 0.5;
            let decrease = stall_obj - obj;
            if iter > STALL_WINDOW && decrease <= 1e-12 + 1e-10 * obj.abs() {
                break;
            }
            stall_obj = obj;
        }
    }

    let rho = calculate_rho(&y64, &alpha, &g, c);
    let objective: f64 = alpha.iter().zip(&g).map(|(&a, &gt)| a * (gt - 1.0)).sum::<f64>() * 0.5;
    LibSvmResult { alpha, rho, objective, iterations: iter, cache_misses: cache.misses }
}

/// Kernel evaluation through the node representation: find local index `b`
/// in row `a`'s node array. Dense data makes this a direct index, but the
/// node indirection (and the index check LibSVM performs) is retained.
#[inline]
fn kernel_eval(rows: &[Vec<Node>], a: usize, b: usize) -> f64 {
    let node = &rows[a][b];
    debug_assert_eq!(node.index as usize, b, "node array out of order");
    node.value
}

/// Compute one full `Q` row: `Q_i[t] = y_i y_t K_it`, walking nodes.
fn q_row(rows: &[Vec<Node>], y: &[f64], i: usize) -> Vec<f64> {
    let yi = y[i];
    rows[i].iter().map(|n| yi * y[n.index as usize] * n.value).collect()
}

#[inline]
fn in_i_up(y: f64, a: f64, c: f64) -> bool {
    (y > 0.0 && a < c) || (y < 0.0 && a > 0.0)
}

#[inline]
fn in_i_low(y: f64, a: f64, c: f64) -> bool {
    (y > 0.0 && a > 0.0) || (y < 0.0 && a < c)
}

fn calculate_rho(y: &[f64], alpha: &[f64], g: &[f64], c: f64) -> f64 {
    let mut ub = f64::INFINITY;
    let mut lb = f64::NEG_INFINITY;
    let mut sum_free = 0.0f64;
    let mut n_free = 0usize;
    for t in 0..y.len() {
        let yg = y[t] * g[t];
        if alpha[t] >= c {
            if y[t] < 0.0 {
                ub = ub.min(yg);
            } else {
                lb = lb.max(yg);
            }
        } else if alpha[t] <= 0.0 {
            if y[t] > 0.0 {
                ub = ub.min(yg);
            } else {
                lb = lb.max(yg);
            }
        } else {
            n_free += 1;
            sum_free += yg;
        }
    }
    if n_free > 0 {
        sum_free / n_free as f64
    } else {
        (ub + lb) / 2.0
    }
}

/// Decision value for global kernel sample `x` under a replica model
/// trained on `idx`/`y`.
///
/// # Panics
/// If `x` or any index in `idx` is out of range for `kernel`.
pub fn decision(
    kernel: &KernelMatrix,
    result: &LibSvmResult,
    idx: &[usize],
    y: &[f32],
    x: usize,
) -> f64 {
    let row = kernel.row(x);
    let mut s = 0.0f64;
    for ((&a, &gi), &yy) in result.alpha.iter().zip(idx).zip(y) {
        s += a * yy as f64 * row[gi] as f64;
    }
    s - result.rho
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcma_linalg::Mat;

    fn kernel_from_points(xs: &[(f32, f32)]) -> KernelMatrix {
        let l = xs.len();
        KernelMatrix::from_mat(Mat::from_fn(l, l, |r, c| xs[r].0 * xs[c].0 + xs[r].1 * xs[c].1))
    }

    #[test]
    fn two_point_analytic_solution() {
        let k = kernel_from_points(&[(2.0, 0.0), (-2.0, 0.0)]);
        let y = [1.0f32, -1.0];
        let r = train_precomputed(&k, &[0, 1], &y, &LibSvmParams::default());
        assert!((r.alpha[0] - 0.125).abs() < 1e-6, "{:?}", r.alpha);
        assert!((r.alpha[1] - 0.125).abs() < 1e-6);
        assert!(r.rho.abs() < 1e-6);
    }

    #[test]
    fn matches_dense_f32_solver() {
        // The replica and the PhiSVM core must find the same optimum.
        let xs: Vec<(f32, f32)> = (0..20)
            .map(|i| {
                let t = i as f32 * 0.9;
                (t.sin() + if i % 2 == 0 { 1.0 } else { -1.0 }, t.cos() * 0.7)
            })
            .collect();
        let y: Vec<f32> = (0..20).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let k = kernel_from_points(&xs);
        let idx: Vec<usize> = (0..20).collect();

        let r_ref = train_precomputed(&k, &idx, &y, &LibSvmParams::default());
        let sub = k.sub_kernel(&idx);
        let r_opt = crate::smo::solve(
            &sub,
            &y,
            &crate::smo::SmoParams { wss: crate::smo::WssMode::SecondOrder, ..Default::default() },
        );
        assert!(
            (r_ref.objective - r_opt.objective).abs() < 1e-2 * r_ref.objective.abs().max(1.0),
            "objective {} vs {}",
            r_ref.objective,
            r_opt.objective
        );
        assert!((r_ref.rho - r_opt.rho as f64).abs() < 5e-2, "rho {} vs {}", r_ref.rho, r_opt.rho);
    }

    #[test]
    fn respects_subset_training() {
        let xs: Vec<(f32, f32)> = vec![(2.0, 0.0), (9.0, 9.0), (-2.0, 0.0), (-9.0, -9.0)];
        let k = kernel_from_points(&xs);
        // Train only on samples 0 and 2.
        let r = train_precomputed(&k, &[0, 2], &[1.0, -1.0], &LibSvmParams::default());
        // Decisions on the held-out extremes follow their side.
        assert!(decision(&k, &r, &[0, 2], &[1.0, -1.0], 1) > 0.0);
        assert!(decision(&k, &r, &[0, 2], &[1.0, -1.0], 3) < 0.0);
    }

    #[test]
    fn cache_miss_accounting() {
        let xs: Vec<(f32, f32)> = (0..12)
            .map(|i| ((i as f32 * 1.3).sin() * 2.0, if i % 2 == 0 { 1.0 } else { -1.0 }))
            .collect();
        let y: Vec<f32> = (0..12).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let k = kernel_from_points(&xs);
        let idx: Vec<usize> = (0..12).collect();
        // Tiny cache forces recomputation; big cache should miss at most
        // once per distinct row.
        let small =
            train_precomputed(&k, &idx, &y, &LibSvmParams { cache_rows: 2, ..Default::default() });
        let big = train_precomputed(
            &k,
            &idx,
            &y,
            &LibSvmParams { cache_rows: 1024, ..Default::default() },
        );
        assert_eq!(small.iterations, big.iterations, "cache must not change the math");
        assert!(big.cache_misses <= 12);
        assert!(small.cache_misses >= big.cache_misses);
        for (a, b) in small.alpha.iter().zip(&big.alpha) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn equality_constraint_and_box() {
        let xs: Vec<(f32, f32)> =
            (0..14).map(|i| ((i as f32 - 7.0) * 0.5, (i as f32 * 0.77).sin())).collect();
        let y: Vec<f32> = xs.iter().map(|p| if p.0 >= 0.0 { 1.0 } else { -1.0 }).collect();
        let k = kernel_from_points(&xs);
        let idx: Vec<usize> = (0..14).collect();
        let c = 3.0;
        let r = train_precomputed(&k, &idx, &y, &LibSvmParams { c, ..Default::default() });
        let s: f64 = r.alpha.iter().zip(&y).map(|(a, &yy)| a * yy as f64).sum();
        assert!(s.abs() < 1e-9, "yᵀα = {s}");
        assert!(r.alpha.iter().all(|&a| (-1e-12..=c + 1e-9).contains(&a)));
    }
}
