//! Sequential Minimal Optimization over a precomputed dense kernel —
//! the PhiSVM solver core (paper §4.4).
//!
//! Solves the binary C-SVC dual
//!
//! ```text
//!   min_α  ½ αᵀQα − eᵀα    s.t.  0 ≤ α_i ≤ C,  yᵀα = 0
//! ```
//!
//! with `Q_ij = y_i y_j K_ij`, by repeatedly choosing a two-variable
//! working set, solving it analytically, and updating the full gradient —
//! the "computationally intensive part" the paper vectorizes.
//!
//! Working-set selection supports all three modes the paper compares:
//! * [`WssMode::FirstOrder`] — maximal violating pair (Keerthi et al.);
//! * [`WssMode::SecondOrder`] — Fan/Chen/Lin 2005, LibSVM's default;
//! * [`WssMode::Adaptive`] — PhiSVM's rule: periodically sample both
//!   heuristics and commit to whichever converges faster per unit cost
//!   (derived from the GPU SVM of Catanzaro et al., the paper's ref \[5\]).
//!
//! Everything here is `f32` and dense, and one iteration is a few
//! branch-free loops over `LANES`-wide chunks of vectors that stay in
//! L1 (a [`SmoScratch`]): the gradient update fused with the value
//! reductions of the next selection (`m(α)` over `I_up`, `M(α)` over
//! `I_low`), and the second-order `j` scan. A loop reduces *values* lane
//! by lane — exactly one reduction per loop, which is the shape LLVM
//! turns into `maxps` / `minps` — and the index is recovered afterwards
//! as the first element equal to the reduced value. That is what a
//! scalar first-wins scan selects: ties go to the lowest index and a NaN
//! is never chosen, so the pair sequence is the scalar solver's
//! (`tests/golden_oracle.rs` pins it across commits). Set membership
//! (`I_up`, `I_low`) is cached as additive masks that change only at the
//! two updated variables, and the kernel diagonal is read once per
//! solve. DESIGN.md §8 lists the vectoriser traps behind these choices.

use crate::model::WssStats;
use fcma_linalg::Mat;
use fcma_trace::{counter, histogram};
use std::array;

/// Guard against zero curvature in the two-variable subproblem.
const TAU: f32 = 1e-12;

/// Lane width of the selection and gradient passes. Every per-sample
/// vector of a solve, and every row of its kernel block, is padded to a
/// multiple of it, so a pass is one loop over whole chunks; the padding
/// belongs to neither index set and is never selected.
const LANES: usize = 8;

/// Working-set-selection heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WssMode {
    /// Maximal violating pair (first-order information only).
    FirstOrder,
    /// Second-order rule of Fan, Chen & Lin (2005).
    SecondOrder,
    /// PhiSVM's adaptive sampling between the two.
    #[default]
    Adaptive,
}

/// SMO solver parameters.
#[derive(Debug, Clone, Copy)]
pub struct SmoParams {
    /// Box constraint `C`.
    pub c: f32,
    /// KKT violation tolerance (LibSVM's default 1e-3).
    pub eps: f32,
    /// Iteration cap (a safety net; FCMA problems converge in hundreds).
    pub max_iter: usize,
    /// Working-set heuristic.
    pub wss: WssMode,
}

impl Default for SmoParams {
    fn default() -> Self {
        SmoParams { c: 1.0, eps: 1e-3, max_iter: 100_000, wss: WssMode::Adaptive }
    }
}

/// Result of a dual solve.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// Optimal dual variables.
    pub alpha: Vec<f32>,
    /// Bias term.
    pub rho: f32,
    /// Final dual objective.
    pub objective: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Heuristic usage.
    pub wss: WssStats,
}

/// What [`SmoScratch::solve`] reports; the dual variables stay in the
/// scratch ([`SmoScratch::alpha`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Solved {
    /// Bias term.
    pub(crate) rho: f32,
    /// Final dual objective.
    pub(crate) objective: f64,
    /// Iterations executed.
    pub(crate) iterations: usize,
    /// Heuristic usage.
    pub(crate) wss: WssStats,
}

/// Iterations per adaptive sampling phase.
const PHASE: usize = 32;
/// Phases to commit to the winning heuristic before re-sampling.
const COMMIT_PHASES: usize = 8;
/// Relative per-iteration cost of the second-order rule (its selection
/// loop touches the `K_i` row once more than the first-order rule).
const SECOND_ORDER_COST: f64 = 1.25;

/// Solve the dual over a dense `l × l` kernel block `k` with targets `y`
/// (entries ±1), through a fresh [`SmoScratch`].
///
/// # Panics
/// Panics if shapes disagree, `y` contains non-±1 entries, or only one
/// class is present.
pub fn solve(k: &Mat, y: &[f32], params: &SmoParams) -> SolveResult {
    let l = y.len();
    assert_eq!(k.rows(), l, "smo: kernel rows != targets");
    assert_eq!(k.cols(), l, "smo: kernel not square");
    let mut scratch = SmoScratch::default();
    scratch.copy_block(k);
    let Solved { rho, objective, iterations, wss } = scratch.solve(y, params);
    SolveResult { alpha: scratch.alpha().to_vec(), rho, objective, iterations, wss }
}

/// Every buffer of a solve: the padded training block of the kernel, the
/// dual variables and gradient, the cached set-membership masks and the
/// per-pass value buffers. One per worker, reused across folds and
/// voxels; a solve overwrites all of it, so what an earlier solve left
/// behind never reaches a result.
#[derive(Debug, Default)]
pub struct SmoScratch {
    /// Samples of the problem the block was last sized for.
    l: usize,
    /// `l` rounded up to a multiple of [`LANES`]: the length of every
    /// vector below and the row stride of `block`.
    stride: usize,
    /// The `l × stride` training block of the kernel.
    block: Vec<f32>,
    /// Dual variables.
    alpha: Vec<f32>,
    /// Gradient `G = Qα − e`.
    g: Vec<f32>,
    /// `−y`, zero in the padding.
    neg_y: Vec<f32>,
    /// Kernel diagonal.
    diag: Vec<f32>,
    /// `I_up` membership as an additive mask: [`IN_SET`] on it, `−∞`
    /// off it.
    up: Vec<f32>,
    /// `I_low` membership likewise: [`IN_SET`] on it, `+∞` off it.
    low: Vec<f32>,
    /// `−y_t G_t` on `I_up`; `−∞` or NaN off it.
    v_up: Vec<f32>,
    /// `−y_t G_t` on `I_low`; `+∞` or NaN off it.
    v_low: Vec<f32>,
    /// The second-order rule's `−b²/a` per candidate, `+∞` elsewhere.
    scores: Vec<f32>,
    /// Indices kept out of the `i` role by the zero-progress guard.
    banned: Vec<bool>,
}

impl SmoScratch {
    /// Size the kernel block for an `l`-sample problem and hand it out to
    /// be filled, with its row stride: row `a` is `stride` floats, the
    /// kernel row in the first `l` and padding (written as zeros by both
    /// fillers) behind it.
    ///
    /// # Panics
    /// Panics if `l` is below two.
    pub(crate) fn block_mut(&mut self, l: usize) -> (&mut [f32], usize) {
        assert!(l >= 2, "smo: need at least two samples");
        self.l = l;
        self.stride = l.next_multiple_of(LANES);
        self.block.resize(l * self.stride, 0.0);
        (&mut self.block, self.stride)
    }

    /// Size the block for the square matrix `k` and copy it in.
    fn copy_block(&mut self, k: &Mat) {
        let l = k.rows();
        let (block, stride) = self.block_mut(l);
        for (dst, src) in block.chunks_exact_mut(stride).zip(k.as_slice().chunks_exact(l)) {
            let (row, pad) = dst.split_at_mut(l);
            row.copy_from_slice(src);
            pad.fill(0.0);
        }
    }

    /// Dual variables of the last solve.
    pub(crate) fn alpha(&self) -> &[f32] {
        &self.alpha[..self.l]
    }

    /// Solve the dual over the block last filled through
    /// [`Self::block_mut`], with targets `y` (entries ±1).
    ///
    /// # Panics
    /// Panics if `y` does not match the block, contains non-±1 entries,
    /// or only one class is present.
    pub(crate) fn solve(&mut self, y: &[f32], params: &SmoParams) -> Solved {
        let l = self.l;
        assert_eq!(y.len(), l, "smo: kernel rows != targets");
        assert!(y.iter().all(|&v| v == 1.0 || v == -1.0), "smo: targets must be ±1");
        assert!(y.contains(&1.0) && y.iter().any(|&v| v == -1.0), "smo: need both classes");
        assert!(params.c > 0.0, "smo: C must be positive");

        let c = params.c;
        self.reset(y, c);

        let mut stats = WssStats::default();
        let mut iter = 0usize;

        // Adaptive-mode state.
        let mut adaptive = AdaptiveState::new(params.wss);
        let mut phase_start_obj = self.objective();

        // Numeric-convergence guard: FCMA kernels have diagonals of order
        // `N` (squared norms of z-scored correlation vectors), so the f32
        // gradient noise floor can sit above an absolute KKT tolerance. The
        // dual objective is monotone under SMO; when a whole window of
        // iterations produces no measurable decrease, the solve has converged
        // to machine precision and we stop.
        const STALL_WINDOW: usize = 128;
        let mut stall_obj = phase_start_obj;

        // Zero-progress guard: in f32, a variable can sit one ulp inside the
        // box so that its selected pair clamps to *exactly* no movement; the
        // same pair would then be re-selected forever. Such an index is banned
        // from the `i` role until any real progress occurs.
        let mut any_banned = false;

        // What the coming iteration selects from — `i` with `m(α)`, and
        // `M(α)`: from the scalar rule at the start and (`i` alone) after
        // a ban, from the fused gradient pass otherwise.
        let mut next_i = self.select_i();
        let mut gmin = self.v_low.iter().fold(f32::INFINITY, |acc, &v| lane_min(v, acc));
        while iter < params.max_iter {
            let use_second = adaptive.use_second_order();
            let Some((i, gmax)) = next_i else {
                break; // optimal (or every violator is pinned at f32 resolution)
            };
            let picked =
                if use_second { self.select_j_second(i, gmax) } else { self.select_j_first(gmin) };
            let Some(j) = picked else {
                break;
            };
            if gmax - gmin <= params.eps {
                break;
            }
            if use_second {
                stats.second_order_iters += 1;
            } else {
                stats.first_order_iters += 1;
            }

            // --- two-variable analytic subproblem (Platt's update) ---
            let (yi, yj) = (y[i], y[j]);
            let kij = self.block[i * self.stride + j];
            let eta = (self.diag[i] + self.diag[j] - 2.0 * kij).max(TAU);
            // E_t = y_t · G_t ; step along α_j.
            let e_i = yi * self.g[i];
            let e_j = yj * self.g[j];
            let old_ai = self.alpha[i];
            let old_aj = self.alpha[j];
            let step = old_aj + yj * (e_i - e_j) / eta;
            let (lo, hi) = if yi != yj {
                ((old_aj - old_ai).max(0.0), (c + old_aj - old_ai).min(c))
            } else {
                ((old_ai + old_aj - c).max(0.0), (old_ai + old_aj).min(c))
            };
            let (ai, aj) = if lo <= hi {
                let aj = step.clamp(lo, hi);
                (old_ai + yi * yj * (old_aj - aj), aj)
            } else {
                // f32 rounding of earlier updates left α_i or α_j an ulp
                // outside the box, so the pair's feasible segment is
                // empty. Pull both back into the box and take no step
                // along it; the gradient update below accounts for the
                // move like any other.
                (old_ai.clamp(0.0, c), old_aj.clamp(0.0, c))
            };
            self.alpha[i] = ai;
            self.alpha[j] = aj;

            let dai = ai - old_ai;
            let daj = aj - old_aj;
            if dai == 0.0 && daj == 0.0 {
                // Fully clamped pair: ban `i` so selection moves on. The
                // gradient, and with it both value buffers, is unchanged.
                self.banned[i] = true;
                any_banned = true;
                iter += 1;
                next_i = self.select_i();
                continue;
            }
            if any_banned {
                // Real progress reopens previously banned indices.
                self.banned.fill(false);
                any_banned = false;
            }
            self.set_membership(i, yi, ai, c);
            self.set_membership(j, yj, aj, c);
            (next_i, gmin) = self.update_gradient_select_i(i, j, dai * yi, daj * yj);

            iter += 1;
            let phase_end = adaptive.is_adaptive() && iter.is_multiple_of(PHASE);
            let window_end = iter.is_multiple_of(STALL_WINDOW);
            if phase_end || window_end {
                // One objective serves both checks when they coincide
                // (every window end of an adaptive solve).
                let obj = self.objective();
                if phase_end {
                    adaptive.end_phase(phase_start_obj - obj);
                    phase_start_obj = obj;
                }
                if window_end {
                    let decrease = stall_obj - obj;
                    // Threshold sits just above the f64-accumulated f32
                    // rounding noise of the objective: real progress,
                    // however slow, continues; a frozen gradient stops
                    // within one window.
                    if decrease <= 1e-9 + 1e-7 * obj.abs() {
                        break;
                    }
                    stall_obj = obj;
                }
            }
        }

        let rho = calculate_rho(y, &self.alpha[..l], &self.g[..l], c);
        let objective = self.objective();
        counter!("svm.smo.solves", 1_u64);
        counter!("svm.smo.iterations", iter);
        if fcma_trace::is_enabled() {
            histogram!("svm.smo.iterations_per_solve", f64_from_iter(iter));
        }
        Solved { rho, objective, iterations: iter, wss: stats }
    }

    /// Start a solve at `α = 0`: `G = −e`, membership and values from
    /// `y` alone, the diagonal gathered from the block.
    fn reset(&mut self, y: &[f32], c: f32) {
        let n = self.stride;
        refill(&mut self.alpha, [], n, 0.0);
        refill(&mut self.g, [], n, -1.0);
        refill(&mut self.banned, [], n, false);
        refill(&mut self.scores, [], n, f32::INFINITY);
        refill(&mut self.neg_y, y.iter().map(|&v| -v), n, 0.0);
        refill(&mut self.diag, self.block.iter().step_by(n + 1).copied().take(y.len()), n, 0.0);
        refill(&mut self.up, y.iter().map(|&v| up_mask(v, 0.0, c)), n, f32::NEG_INFINITY);
        refill(&mut self.low, y.iter().map(|&v| low_mask(v, 0.0, c)), n, f32::INFINITY);
        // −y_t G_t at G_t = −1 is y_t; under each mask (padding included).
        let value = |(&ny, &mask): (&f32, &f32)| -ny + mask;
        refill(&mut self.v_up, self.neg_y.iter().zip(&self.up).map(value), n, f32::NEG_INFINITY);
        refill(&mut self.v_low, self.neg_y.iter().zip(&self.low).map(value), n, f32::INFINITY);
    }

    /// Dual objective `½αᵀQα − eᵀα = ½ Σ α_t (G_t − 1)`.
    fn objective(&self) -> f64 {
        let (alpha, g) = (&self.alpha[..self.l], &self.g[..self.l]);
        alpha.iter().zip(g).map(|(&a, &gt)| a as f64 * (gt as f64 - 1.0)).sum::<f64>() * 0.5
    }

    /// Re-derive `t`'s membership masks after `α_t` moved to `a`.
    fn set_membership(&mut self, t: usize, y: f32, a: f32, c: f32) {
        self.up[t] = up_mask(y, a, c);
        self.low[t] = low_mask(y, a, c);
    }

    /// `i = argmax_{t ∈ I_up, t not banned} −y_t G_t` with its value
    /// `m(α)`: the scalar rule, for the first iteration and after a ban
    /// (the gradient pass ignores `banned`, which is all-false whenever
    /// it runs).
    fn select_i(&self) -> Option<(usize, f32)> {
        let mut best = None;
        let mut gmax = f32::NEG_INFINITY;
        for (t, (&v, &banned)) in self.v_up.iter().zip(&self.banned).enumerate() {
            if !banned && v > gmax {
                gmax = v;
                best = Some((t, v));
            }
        }
        best
    }

    /// The gradient update `G_t += y_t (c_i K_it + c_j K_jt)` fused with
    /// the next iteration's value reductions: refreshes both value
    /// buffers from the new gradient and returns `i` with `m(α)`, and
    /// `M(α)`.
    fn update_gradient_select_i(
        &mut self,
        i: usize,
        j: usize,
        coef_i: f32,
        coef_j: f32,
    ) -> (Option<(usize, f32)>, f32) {
        let n = self.stride;
        let ki = self.block[i * n..(i + 1) * n].as_chunks::<LANES>().0;
        let kj = self.block[j * n..(j + 1) * n].as_chunks::<LANES>().0;
        let g = self.g.as_chunks_mut::<LANES>().0;
        let v_up = self.v_up.as_chunks_mut::<LANES>().0;
        let neg_y = self.neg_y.as_chunks::<LANES>().0;
        let up = self.up.as_chunks::<LANES>().0;
        let mut max_up = [f32::NEG_INFINITY; LANES];
        // One reduction per loop: with `m(α)` and `M(α)` in the same loop
        // the compare masks get packed together and neither becomes a
        // `maxps` / `minps`.
        for (((((g, v_up), &ny), &up), &ki), &kj) in
            g.iter_mut().zip(v_up).zip(neg_y).zip(up).zip(ki).zip(kj)
        {
            // `g − (−y)·x` is `g + y·x` to the bit.
            *g = array::from_fn(|t| g[t] - ny[t] * (coef_i * ki[t] + coef_j * kj[t]));
            *v_up = array::from_fn(|t| ny[t] * g[t] + up[t]);
            max_up = array::from_fn(|t| lane_max(v_up[t], max_up[t]));
        }
        let g = self.g.as_chunks::<LANES>().0;
        let v_low = self.v_low.as_chunks_mut::<LANES>().0;
        let low = self.low.as_chunks::<LANES>().0;
        let mut min_low = [f32::INFINITY; LANES];
        for (((v_low, &g), &ny), &low) in v_low.iter_mut().zip(g).zip(neg_y).zip(low) {
            *v_low = array::from_fn(|t| ny[t] * g[t] + low[t]);
            min_low = array::from_fn(|t| lane_min(v_low[t], min_low[t]));
        }
        let gmax = max_up.iter().fold(f32::NEG_INFINITY, |acc, &v| lane_max(v, acc));
        let gmin = min_low.iter().fold(f32::INFINITY, |acc, &v| lane_min(v, acc));
        let next_i = if gmax > f32::NEG_INFINITY { first_eq(&self.v_up, gmax) } else { None };
        (next_i, gmin)
    }

    /// First-order `j = argmin_{t ∈ I_low} −y_t G_t` (maximal violating
    /// pair), given that minimum `M(α)`.
    fn select_j_first(&self, gmin: f32) -> Option<usize> {
        if gmin < f32::INFINITY {
            first_eq(&self.v_low, gmin).map(|(j, _)| j)
        } else {
            None
        }
    }

    /// Second-order `j`: minimizes `−b²/a` among `t ∈ I_low` with
    /// `−y_t G_t < m(α)`.
    fn select_j_second(&mut self, i: usize, gmax: f32) -> Option<usize> {
        let n = self.stride;
        let kii = self.diag[i];
        let ki = self.block[i * n..(i + 1) * n].as_chunks::<LANES>().0;
        let scores = self.scores.as_chunks_mut::<LANES>().0;
        let v_low = self.v_low.as_chunks::<LANES>().0;
        let diag = self.diag.as_chunks::<LANES>().0;
        let mut best = [f32::INFINITY; LANES];
        for (((s, &v), &ki), &ktt) in scores.iter_mut().zip(v_low).zip(ki).zip(diag) {
            // Off `I_low` `v` is +∞ or NaN, so `b > 0` fails and the
            // lane drops out.
            *s = array::from_fn(|t| {
                let b = gmax - v[t];
                let a = (kii + ktt[t] - 2.0 * ki[t]).max(TAU);
                select(mask_of(b > 0.0), -(b * b) / a, f32::INFINITY)
            });
            best = array::from_fn(|t| lane_min(s[t], best[t]));
        }
        let best = best.iter().fold(f32::INFINITY, |acc, &v| lane_min(v, acc));
        if best < f32::INFINITY {
            first_eq(&self.scores, best).map(|(j, _)| j)
        } else {
            None
        }
    }
}

/// Overwrite `buf` with `head` followed by `pad` up to length `n`,
/// keeping its allocation.
fn refill<T: Copy>(buf: &mut Vec<T>, head: impl IntoIterator<Item = T>, n: usize, pad: T) {
    buf.clear();
    buf.extend(head);
    buf.resize(n, pad);
}

/// On-set value of the additive membership masks. `v + −0.0` is `v` to
/// the bit for every `v`, signed zeros and NaN included, while an
/// off-set `∓∞` sends every finite `v` to `∓∞` and the opposite infinity
/// to NaN — neither of which a first-wins `>` / `<` scan ever selects.
/// One `addps` where a bit select takes three operations.
const IN_SET: f32 = -0.0;

/// Additive `I_up` mask of a sample with target `y` and dual variable `a`.
fn up_mask(y: f32, a: f32, c: f32) -> f32 {
    if in_i_up(y, a, c) {
        IN_SET
    } else {
        f32::NEG_INFINITY
    }
}

/// Additive `I_low` mask likewise.
fn low_mask(y: f32, a: f32, c: f32) -> f32 {
    if in_i_low(y, a, c) {
        IN_SET
    } else {
        f32::INFINITY
    }
}

/// All-ones for `true`, zero for `false`.
fn mask_of(b: bool) -> u32 {
    u32::from(b).wrapping_neg()
}

/// `v` under an all-ones `mask`, `other` under a zero one. A bit select:
/// an `if` between two `f32` lanes is lowered to a branch per lane on
/// SSE2, which unrolls the pass into scalar code.
fn select(mask: u32, v: f32, other: f32) -> f32 {
    f32::from_bits((v.to_bits() & mask) | (other.to_bits() & !mask))
}

/// The larger of `v` and `acc`, `acc` when `v` is NaN (one `maxps`).
fn lane_max(v: f32, acc: f32) -> f32 {
    if v > acc {
        v
    } else {
        acc
    }
}

/// The smaller of `v` and `acc`, `acc` when `v` is NaN (one `minps`).
fn lane_min(v: f32, acc: f32) -> f32 {
    if v < acc {
        v
    } else {
        acc
    }
}

/// Index and value of the first element of `buf` equal to `target`: one
/// branch-free compare per chunk, then a scan of the chunk that hit.
fn first_eq(buf: &[f32], target: f32) -> Option<(usize, f32)> {
    for (c, chunk) in buf.as_chunks::<LANES>().0.iter().enumerate() {
        let hits: [u32; LANES] = array::from_fn(|t| mask_of(chunk[t] == target));
        if hits.iter().fold(0, |any, &hit| any | hit) != 0 {
            let lane = hits.iter().position(|&hit| hit != 0)?;
            return Some((c * LANES + lane, chunk[lane]));
        }
    }
    None
}

/// Widen an iteration count for histogram recording (f64 mantissa is
/// ample for any reachable `max_iter`).
fn f64_from_iter(iter: usize) -> f64 {
    // cast is exact here: tally → f64, far below 2^53
    iter as f64
}

/// Membership tests for the violating-pair index sets.
#[inline]
fn in_i_up(y: f32, a: f32, c: f32) -> bool {
    (y == 1.0 && a < c) || (y == -1.0 && a > 0.0)
}

#[inline]
fn in_i_low(y: f32, a: f32, c: f32) -> bool {
    (y == 1.0 && a > 0.0) || (y == -1.0 && a < c)
}

/// Bias via LibSVM's rule: average `y_t G_t` over free support vectors,
/// falling back to the midpoint of the bound-derived bracket.
fn calculate_rho(y: &[f32], alpha: &[f32], g: &[f32], c: f32) -> f32 {
    let mut ub = f32::INFINITY;
    let mut lb = f32::NEG_INFINITY;
    let mut sum_free = 0.0f32;
    let mut n_free = 0usize;
    for t in 0..y.len() {
        let yg = y[t] * g[t];
        if alpha[t] >= c {
            if y[t] == -1.0 {
                ub = ub.min(yg);
            } else {
                lb = lb.max(yg);
            }
        } else if alpha[t] <= 0.0 {
            if y[t] == 1.0 {
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
        sum_free / n_free as f32
    } else {
        (ub + lb) / 2.0
    }
}

/// PhiSVM's adaptive heuristic chooser.
///
/// Deterministic version of the Catanzaro-style adaptivity: sampling
/// phases alternate heuristics and measure objective decrease per
/// cost-weighted iteration; the faster rule is committed for
/// [`COMMIT_PHASES`] phases before re-sampling. Fixed modes degenerate to
/// a constant answer.
struct AdaptiveState {
    mode: WssMode,
    /// Phase schedule position (adaptive mode only).
    phase: usize,
    /// Rates measured for the most recent sampling pair.
    rate_first: f64,
    rate_second: f64,
    /// Currently committed choice during commit phases.
    committed_second: bool,
}

impl AdaptiveState {
    fn new(mode: WssMode) -> Self {
        AdaptiveState { mode, phase: 0, rate_first: 0.0, rate_second: 0.0, committed_second: true }
    }

    fn is_adaptive(&self) -> bool {
        self.mode == WssMode::Adaptive
    }

    /// Which heuristic should the current iteration use?
    fn use_second_order(&self) -> bool {
        match self.mode {
            WssMode::FirstOrder => false,
            WssMode::SecondOrder => true,
            WssMode::Adaptive => {
                // Schedule: phase 0 samples first-order, phase 1 samples
                // second-order, then COMMIT_PHASES phases of the winner.
                match self.phase_kind() {
                    PhaseKind::SampleFirst => false,
                    PhaseKind::SampleSecond => true,
                    PhaseKind::Committed => self.committed_second,
                }
            }
        }
    }

    fn phase_kind(&self) -> PhaseKind {
        match self.phase % (2 + COMMIT_PHASES) {
            0 => PhaseKind::SampleFirst,
            1 => PhaseKind::SampleSecond,
            _ => PhaseKind::Committed,
        }
    }

    /// Record the objective decrease achieved by the phase that just ended.
    fn end_phase(&mut self, decrease: f64) {
        match self.phase_kind() {
            PhaseKind::SampleFirst => self.rate_first = decrease.max(0.0),
            PhaseKind::SampleSecond => {
                self.rate_second = decrease.max(0.0) / SECOND_ORDER_COST;
                self.committed_second = self.rate_second >= self.rate_first;
            }
            PhaseKind::Committed => {}
        }
        self.phase += 1;
    }
}

#[derive(PartialEq, Eq)]
enum PhaseKind {
    SampleFirst,
    SampleSecond,
    Committed,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated 1-D points: α = [a, a] with the margin pair both
    /// support vectors; the analytic solution is easy to verify.
    fn two_point_problem() -> (Mat, Vec<f32>) {
        // x0 = +2, x1 = −2 (1-D linear kernel) → K = [[4,−4],[−4,4]]
        let k = Mat::from_vec(2, 2, vec![4.0, -4.0, -4.0, 4.0]);
        let y = vec![1.0, -1.0];
        (k, y)
    }

    #[test]
    fn two_points_analytic_solution() {
        let (k, y) = two_point_problem();
        let r = solve(&k, &y, &SmoParams::default());
        // Optimal α solves min ½ αᵀQα − Σα with α0 = α1 = a:
        // Q = y yᵀ ∘ K = [[4,4],[4,4]] → obj = 8a² − 2a → a = 1/8.
        assert!((r.alpha[0] - 0.125).abs() < 1e-4, "alpha {:?}", r.alpha);
        assert!((r.alpha[1] - 0.125).abs() < 1e-4);
        // Decision boundary is x = 0 → rho = 0.
        assert!(r.rho.abs() < 1e-3, "rho {}", r.rho);
        assert!((r.objective - (-0.125)).abs() < 1e-4, "obj {}", r.objective);
    }

    #[test]
    fn box_constraint_caps_alpha() {
        let (k, y) = two_point_problem();
        let r = solve(&k, &y, &SmoParams { c: 0.05, ..Default::default() });
        assert!((r.alpha[0] - 0.05).abs() < 1e-5);
        assert!((r.alpha[1] - 0.05).abs() < 1e-5);
    }

    /// 1-D points {+1, +3} vs {−1, −3}: hard-margin solution uses only the
    /// inner pair.
    #[test]
    fn inner_points_are_the_support_vectors() {
        let xs = [1.0f32, 3.0, -1.0, -3.0];
        let y = vec![1.0, 1.0, -1.0, -1.0];
        let k = Mat::from_fn(4, 4, |r, c| xs[r] * xs[c]);
        let r = solve(&k, &y, &SmoParams { c: 100.0, ..Default::default() });
        // margin pair x=±1: α = 1/2 each, others 0 (w = 1, margin 1).
        assert!((r.alpha[0] - 0.5).abs() < 1e-3, "{:?}", r.alpha);
        assert!((r.alpha[2] - 0.5).abs() < 1e-3, "{:?}", r.alpha);
        assert!(r.alpha[1].abs() < 1e-3);
        assert!(r.alpha[3].abs() < 1e-3);
        assert!(r.rho.abs() < 1e-3);
    }

    #[test]
    fn equality_constraint_holds() {
        let xs = [0.5f32, 2.0, 1.5, -1.0, -0.2, -2.5];
        let y = vec![1.0, 1.0, 1.0, -1.0, -1.0, -1.0];
        let k = Mat::from_fn(6, 6, |r, c| xs[r] * xs[c] + 1.0);
        for mode in [WssMode::FirstOrder, WssMode::SecondOrder, WssMode::Adaptive] {
            let r = solve(&k, &y, &SmoParams { c: 10.0, wss: mode, ..Default::default() });
            let s: f32 = r.alpha.iter().zip(&y).map(|(a, yy)| a * yy).sum();
            assert!(s.abs() < 1e-3, "{mode:?}: yᵀα = {s}");
            assert!(r.alpha.iter().all(|&a| (-1e-6..=10.0 + 1e-4).contains(&a)));
        }
    }

    #[test]
    fn all_wss_modes_reach_same_objective() {
        // Random-ish separable-with-overlap problem.
        let l = 24;
        let xs: Vec<(f32, f32)> = (0..l)
            .map(|i| {
                let t = i as f32 * 0.7;
                let side = if i % 2 == 0 { 1.0 } else { -1.0 };
                (side * (1.0 + (t.sin() * 0.8)), t.cos() * 0.9)
            })
            .collect();
        let y: Vec<f32> = (0..l).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let k = Mat::from_fn(l, l, |r, c| xs[r].0 * xs[c].0 + xs[r].1 * xs[c].1);
        let p = SmoParams { c: 1.0, eps: 1e-4, ..Default::default() };
        let o1 = solve(&k, &y, &SmoParams { wss: WssMode::FirstOrder, ..p }).objective;
        let o2 = solve(&k, &y, &SmoParams { wss: WssMode::SecondOrder, ..p }).objective;
        let oa = solve(&k, &y, &SmoParams { wss: WssMode::Adaptive, ..p }).objective;
        assert!((o1 - o2).abs() < 1e-2 * o1.abs().max(1.0), "{o1} vs {o2}");
        assert!((oa - o2).abs() < 1e-2 * o2.abs().max(1.0), "{oa} vs {o2}");
    }

    #[test]
    fn kkt_conditions_at_solution() {
        // After convergence every free SV must have |y_t G_t − rho| ≈ 0
        // ... equivalently m(α) − M(α) ≤ eps, checked directly.
        let l = 16;
        let xs: Vec<f32> = (0..l).map(|i| (i as f32 - 7.5) * 0.4).collect();
        let y: Vec<f32> = xs.iter().map(|&x| if x > 0.0 { 1.0 } else { -1.0 }).collect();
        let k = Mat::from_fn(l, l, |r, c| xs[r] * xs[c] + 0.5);
        let p = SmoParams { c: 5.0, eps: 1e-4, ..Default::default() };
        let r = solve(&k, &y, &p);
        // Recompute gradient from scratch.
        let mut g = vec![-1.0f32; l];
        for t in 0..l {
            for s in 0..l {
                g[t] += y[t] * y[s] * k.get(t, s) * r.alpha[s];
            }
        }
        let mut m_up = f32::NEG_INFINITY;
        let mut m_low = f32::INFINITY;
        for t in 0..l {
            if in_i_up(y[t], r.alpha[t], p.c) {
                m_up = m_up.max(-y[t] * g[t]);
            }
            if in_i_low(y[t], r.alpha[t], p.c) {
                m_low = m_low.min(-y[t] * g[t]);
            }
        }
        assert!(m_up - m_low <= 5e-3, "KKT gap {}", m_up - m_low);
    }

    #[test]
    fn second_order_needs_no_more_iterations_than_first() {
        let l = 40;
        let xs: Vec<(f32, f32)> = (0..l)
            .map(|i| {
                let a = i as f32 * 0.37;
                (a.sin() + if i % 2 == 0 { 1.2 } else { -1.2 }, a.cos())
            })
            .collect();
        let y: Vec<f32> = (0..l).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let k = Mat::from_fn(l, l, |r, c| xs[r].0 * xs[c].0 + xs[r].1 * xs[c].1);
        let p = SmoParams { c: 1.0, eps: 1e-3, ..Default::default() };
        let r1 = solve(&k, &y, &SmoParams { wss: WssMode::FirstOrder, ..p });
        let r2 = solve(&k, &y, &SmoParams { wss: WssMode::SecondOrder, ..p });
        assert!(
            r2.iterations <= r1.iterations,
            "second-order {} iters > first-order {}",
            r2.iterations,
            r1.iterations
        );
    }

    #[test]
    fn adaptive_mode_uses_both_heuristics() {
        // A problem slow enough to get past the sampling phases.
        let l = 64;
        let xs: Vec<(f32, f32)> = (0..l)
            .map(|i| {
                let a = i as f32 * 0.61;
                (a.sin() * 2.0 + if i % 2 == 0 { 0.3 } else { -0.3 }, (a * 1.3).cos() * 2.0)
            })
            .collect();
        let y: Vec<f32> = (0..l).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let k = Mat::from_fn(l, l, |r, c| xs[r].0 * xs[c].0 + xs[r].1 * xs[c].1);
        let r = solve(&k, &y, &SmoParams { c: 2.0, eps: 1e-5, ..Default::default() });
        assert!(r.wss.first_order_iters > 0, "adaptive never tried first-order");
        assert!(r.wss.second_order_iters > 0, "adaptive never tried second-order");
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn rejects_single_class() {
        let k = Mat::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let _ = solve(&k, &[1.0, 1.0], &SmoParams::default());
    }

    #[test]
    #[should_panic(expected = "±1")]
    fn rejects_bad_targets() {
        let k = Mat::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let _ = solve(&k, &[1.0, 0.5], &SmoParams::default());
    }

    /// Checkerboard-of-fives targets over an `l × n` LCG feature matrix
    /// (the recipe of `tests/golden_oracle.rs`).
    fn lcg_problem(l: usize, n: usize, scale: f32, seed: u64) -> (Mat, Vec<f32>) {
        let y: Vec<f32> =
            (0..l).map(|i| if (i % 2 == 0) ^ ((i / 5) % 2 == 0) { 1.0 } else { -1.0 }).collect();
        let mut s = seed;
        let x = Mat::from_fn(l, n, |_, _| {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            scale * (((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0)
        });
        let k = Mat::from_fn(l, l, |a, b| fcma_linalg::dot(x.row(a.max(b)), x.row(a.min(b))));
        (k, y)
    }

    /// Two inputs on which f32 drift leaves a dual variable an ulp outside
    /// the box, so the next pair's `[lo, hi]` is empty: `clamp(lo, hi)`
    /// used to panic there (`min > max`), losing the worker's task.
    #[test]
    fn empty_feasible_segment_is_clipped_not_a_panic() {
        for (l, n, scale, seed, c) in
            [(255, 10, 1.0, 11_002, 100.0f32), (127, 50, 100.0, 9_003, 0.01)]
        {
            let (k, y) = lcg_problem(l, n, scale, seed);
            let r =
                solve(&k, &y, &SmoParams { c, wss: WssMode::SecondOrder, ..Default::default() });
            let ulp = c * f32::EPSILON;
            assert!(
                r.alpha.iter().all(|&a| (-ulp..=c + ulp).contains(&a)),
                "l = {l}: α left the box"
            );
            assert!(r.objective.is_finite() && r.objective <= 0.0, "l = {l}: {}", r.objective);
            assert!(r.rho.is_finite(), "l = {l}: rho {}", r.rho);
        }
    }

    /// The scalar working-set selection the lane passes replaced, kept
    /// as their reference. Returns `(i, j, m(α), M(α))`, or `None` when
    /// no feasible pair exists.
    fn select_working_set(
        k: &Mat,
        y: &[f32],
        alpha: &[f32],
        g: &[f32],
        c: f32,
        second_order: bool,
        banned: &[bool],
    ) -> Option<(usize, usize, f32, f32)> {
        let l = y.len();
        // i = argmax_{t ∈ I_up} −y_t G_t
        let mut gmax = f32::NEG_INFINITY;
        let mut i = usize::MAX;
        for t in 0..l {
            if !banned[t] && in_i_up(y[t], alpha[t], c) {
                let v = -y[t] * g[t];
                if v > gmax {
                    gmax = v;
                    i = t;
                }
            }
        }
        if i == usize::MAX {
            return None;
        }

        let mut gmin = f32::INFINITY;
        let mut j = usize::MAX;
        if second_order {
            // j minimizes −b²/a among t ∈ I_low with −y_t G_t < m(α).
            let ki = k.row(i);
            let kii = k.get(i, i);
            let mut best = f32::INFINITY;
            for t in 0..l {
                if in_i_low(y[t], alpha[t], c) {
                    let v = -y[t] * g[t];
                    gmin = gmin.min(v);
                    let b = gmax - v;
                    if b > 0.0 {
                        let a = (kii + k.get(t, t) - 2.0 * ki[t]).max(TAU);
                        let score = -(b * b) / a;
                        if score < best {
                            best = score;
                            j = t;
                        }
                    }
                }
            }
        } else {
            // j = argmin_{t ∈ I_low} −y_t G_t (maximal violating pair).
            for t in 0..l {
                if in_i_low(y[t], alpha[t], c) {
                    let v = -y[t] * g[t];
                    if v < gmin {
                        gmin = v;
                        j = t;
                    }
                }
            }
        }
        if j == usize::MAX {
            return None;
        }
        Some((i, j, gmax, gmin))
    }

    /// A solver state mid-solve, built to provoke the passes: samples
    /// duplicated outright (kernel rows, targets, `α` and `G` all equal,
    /// so their selection values tie exactly), dual variables at both
    /// bounds and inside, and gradients that are ±∞ or NaN.
    struct State {
        k: Mat,
        y: Vec<f32>,
        alpha: Vec<f32>,
        g: Vec<f32>,
        banned: Vec<bool>,
        c: f32,
    }

    fn state(l: usize, seed: u64) -> State {
        let mut s = seed | 1;
        let mut draw = move |n: u64| {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (s >> 33) % n
        };
        let c = [0.5f32, 1.0, 10.0][draw(3) as usize];
        // Sample `t` copies `source[t]`, itself for an original.
        let source: Vec<usize> = (0..l)
            .map(|t| if t > 0 && draw(3) == 0 { draw(t as u64) as usize } else { t })
            .collect();
        let mut x = vec![(0.0f32, 0.0f32); l];
        let mut y = vec![0.0f32; l];
        let mut alpha = vec![0.0f32; l];
        let mut g = vec![0.0f32; l];
        for t in 0..l {
            let o = source[t];
            if o != t {
                (x[t], y[t], alpha[t], g[t]) = (x[o], y[o], alpha[o], g[o]);
                continue;
            }
            x[t] = (draw(2001) as f32 / 500.0 - 2.0, draw(2001) as f32 / 500.0 - 2.0);
            y[t] = if draw(2) == 0 { 1.0 } else { -1.0 };
            alpha[t] = match draw(4) {
                0 => 0.0,
                1 => c,
                _ => c * (1 + draw(99)) as f32 / 100.0,
            };
            g[t] = match draw(16) {
                0 => f32::INFINITY,
                1 => f32::NEG_INFINITY,
                2 => f32::NAN,
                // a coarse grid, so that distinct samples tie as well
                _ => draw(9) as f32 * 0.25 - 1.0,
            };
        }
        (y[0], y[1]) = (1.0, -1.0); // both classes, whatever was drawn
        let banned = (0..l).map(|_| draw(4) == 0).collect();
        let k = Mat::from_fn(l, l, |a, b| x[a].0 * x[b].0 + x[a].1 * x[b].1);
        State { k, y, alpha, g, banned, c }
    }

    /// Load `st` into a scratch the way a solve would have reached it:
    /// the block, then membership from `α`, then both value buffers
    /// through the gradient pass with zero coefficients (which leaves `G`
    /// as it is). Returns what that pass selected.
    fn load(st: &State, scratch: &mut SmoScratch) -> (Option<(usize, f32)>, f32) {
        let l = st.y.len();
        scratch.copy_block(&st.k);
        scratch.reset(&st.y, st.c);
        scratch.alpha[..l].copy_from_slice(&st.alpha);
        scratch.g[..l].copy_from_slice(&st.g);
        for t in 0..l {
            scratch.set_membership(t, st.y[t], st.alpha[t], st.c);
        }
        scratch.update_gradient_select_i(0, 1, 0.0, 0.0)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// The lane passes select what the scalar loop selected: the same
        /// `i` and `j` (lowest index on exact ties, never a NaN), the
        /// same `m(α)` and `M(α)`, at every `l` modulo the lane width,
        /// with and without banned indices, under both `j` rules.
        #[test]
        fn lane_passes_select_what_the_scalar_loop_selected(
            l in 2usize..42,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let st = state(l, seed);
            let mut scratch = SmoScratch::default();
            let (fused_i, gmin) = load(&st, &mut scratch);
            let no_ban = vec![false; l];
            for second_order in [false, true] {
                for banned in [&no_ban, &st.banned] {
                    scratch.banned[..l].copy_from_slice(banned);
                    let next_i = scratch.select_i();
                    if banned.iter().all(|&b| !b) {
                        proptest::prop_assert_eq!(next_i.map(|(i, _)| i), fused_i.map(|(i, _)| i));
                    }
                    let got = next_i.and_then(|(i, gmax)| {
                        let j = if second_order {
                            scratch.select_j_second(i, gmax)
                        } else {
                            scratch.select_j_first(gmin)
                        };
                        j.map(|j| (i, j, gmax, gmin))
                    });
                    let want = select_working_set(
                        &st.k, &st.y, &st.alpha, &st.g, st.c, second_order, banned,
                    );
                    proptest::prop_assert_eq!(got.is_some(), want.is_some());
                    if let (Some(got), Some(want)) = (got, want) {
                        proptest::prop_assert_eq!((got.0, got.1), (want.0, want.1));
                        proptest::prop_assert_eq!(got.2.to_bits(), want.2.to_bits());
                        proptest::prop_assert!(got.3 == want.3, "M(α) {} vs {}", got.3, want.3);
                    }
                }
            }
        }
    }
}
