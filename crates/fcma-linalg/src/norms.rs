//! Vector primitives shared by the FCMA kernels.
//!
//! These are the building blocks of the within-subject normalization stage
//! (Fisher transform + z-scoring, paper Eqs. 4–5) and of the SVM inner
//! loops. They are written as flat-slice loops so LLVM can autovectorize
//! them; the per-16-element chunking mirrors the paper's SIMD width on the
//! Xeon Phi (16 single-precision lanes).

/// Dot product of two equal-length slices.
///
/// Accumulates in eight partial sums so the reduction does not serialize on
/// one register — this is the scalar analogue of the paper's vectorization
/// idea #3 and lets the compiler keep 8 SIMD accumulators in flight.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch {} vs {}", x.len(), y.len());
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let chunks = x.len() / LANES;
    for i in 0..chunks {
        let xo = &x[i * LANES..(i + 1) * LANES];
        let yo = &y[i * LANES..(i + 1) * LANES];
        for l in 0..LANES {
            acc[l] += xo[l] * yo[l];
        }
    }
    let mut s = acc.iter().sum::<f32>();
    for i in chunks * LANES..x.len() {
        s += x[i] * y[i];
    }
    s
}

/// `y += alpha * x` (BLAS `saxpy`).
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `Σx` and `Σx²` of `x`, accumulated in `f64` in element order.
#[inline]
fn sums(x: &[f32]) -> (f64, f64) {
    let mut s = 0.0f64;
    let mut s2 = 0.0f64;
    for &v in x {
        let v = f64::from(v);
        s += v;
        s2 += v * v;
    }
    (s, s2)
}

/// Mean and (population) variance of `len` values from their `f64` sums
/// `Σx` and `Σx²`, the `E[X²] − E[X]²` formulation the paper uses in its
/// normalization kernel (§4.3).
///
/// `len == 0` returns `(0, 0)`. The variance is clamped at zero to absorb
/// the formulation's susceptibility to tiny negative results from
/// rounding.
#[inline]
fn mean_var_of_sums(sum: f64, sum_sq: f64, len: usize) -> (f32, f32) {
    if len == 0 {
        return (0.0, 0.0);
    }
    let n = crate::cast::f64_from_usize(len);
    let mean = sum / n;
    let var = (sum_sq / n - mean * mean).max(0.0);
    (crate::cast::f32_from_f64(mean), crate::cast::f32_from_f64(var))
}

/// Fast `ln` for strictly positive finite `f32`, accurate to ~2 ulp of
/// f32 over the FCMA range.
///
/// The Xeon Phi evaluates `logf` in its extended math unit as part of the
/// vector pipeline (§4.3); libm's scalar `ln` would serialize the Fisher
/// pass on a host CPU, so this branch-free polynomial version — exponent
/// extraction plus the `atanh`-series log of the normalized mantissa —
/// keeps the transform autovectorizable.
///
/// Domain: `x > 0`, finite, normal. Out-of-domain inputs give unspecified
/// finite garbage (callers clamp first).
#[inline]
pub fn fast_ln(x: f32) -> f32 {
    const LN2: f32 = std::f32::consts::LN_2;
    let bits = x.to_bits();
    // Normalize the mantissa into [2/3, 4/3) so |t| <= 0.2 below: if the
    // mantissa's top bit pattern puts m >= 4/3, halve it and bump e.
    // Branch-free (a data-dependent branch here would block
    // autovectorization of the Fisher pass).
    #[expect(clippy::as_conversions, reason = "masked to 8 bits, always fits i32 exactly")]
    let e_raw = ((bits >> 23) & 0xff) as i32 - 127;
    let m_raw = f32::from_bits((bits & 0x007f_ffff) | 0x3f80_0000); // [1, 2)
    let big = i32::from(m_raw >= 4.0 / 3.0);
    #[expect(clippy::as_conversions, reason = "big is 0 or 1, exact in f32")]
    let m = m_raw * (1.0 - 0.5 * big as f32);
    #[expect(clippy::as_conversions, reason = "e_raw + big is in [-127, 129], exact in f32")]
    let e = (e_raw + big) as f32;
    // ln(m) = 2·atanh(t) with t = (m−1)/(m+1), |t| ≤ 0.2.
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    // 2(t + t³/3 + t⁵/5 + t⁷/7): error < 1e-7 over |t| ≤ 0.2.
    let ln_m = 2.0 * t * (1.0 + t2 * (1.0 / 3.0 + t2 * (0.2 + t2 * (1.0 / 7.0))));
    ln_m + e * LN2
}

/// The Fisher r-to-z transform `z = ½·ln((1+r)/(1−r))` (paper Eq. 4),
/// equal to `atanh(r)`.
///
/// Correlations of exactly ±1 would map to ±∞; FCMA only feeds this
/// function self-correlations of ±1 on the diagonal, which downstream code
/// masks out, but to keep the pipeline total we clamp `r` into
/// `[-RMAX, RMAX]` first, as BrainIAK's implementation does.
#[inline]
pub fn fisher_z(r: f32) -> f32 {
    const RMAX: f32 = 0.999_999_4; // largest f32 < 1 that keeps atanh finite
    let r = r.clamp(-RMAX, RMAX);
    0.5 * fast_ln((1.0 + r) / (1.0 - r))
}

/// Apply [`fisher_z`] to a slice in place (the vectorizable Fisher pass).
#[inline]
pub fn fisher_z_slice(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = fisher_z(*v);
    }
}

/// The `(mean, 1 / rss)` pair of paper Eq. 2 for a time epoch of `len`
/// values, given their `f64` sums `Σx` and `Σx²` accumulated in time
/// order; `rss` is the root sum of squares of the mean-centered epoch.
/// `None` for a constant (zero-variance) epoch, which has no such scale.
///
/// [`normalize_epoch`] is this applied to one vector; a caller that keeps
/// the sums of many epochs side by side gets the same bits from it.
#[inline]
pub fn epoch_scale(sum: f64, sum_sq: f64, len: usize) -> Option<(f32, f32)> {
    let (mean, var) = mean_var_of_sums(sum, sum_sq, len);
    let n = crate::cast::f32_from_usize(len);
    // √(Σx² − n·x̄²) = √(n·var): root sum of squares of the centered vector.
    let rss = (n * var).sqrt();
    if rss <= f32::MIN_POSITIVE {
        return None;
    }
    Some((mean, 1.0 / rss))
}

/// Normalize a time-epoch vector per paper Eq. 2: subtract the mean, then
/// divide by the root sum of squares of the mean-centered vector, so that
/// the Pearson correlation of two normalized vectors is their dot product.
///
/// A constant (zero-variance) epoch normalizes to the zero vector, making
/// its correlation with everything 0 — the conventional treatment of dead
/// voxels.
#[inline]
pub fn normalize_epoch(x: &mut [f32]) {
    let (s, s2) = sums(x);
    let Some((mean, inv)) = epoch_scale(s, s2, x.len()) else {
        x.fill(0.0);
        return;
    };
    for v in x.iter_mut() {
        *v = (*v - mean) * inv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() <= tol, "{a} !~ {b} (tol {tol})");
    }

    /// Mean and population variance of `x`, as `epoch_scale` derives them.
    fn mean_var(x: &[f32]) -> (f32, f32) {
        let (s, s2) = sums(x);
        mean_var_of_sums(s, s2, x.len())
    }

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f32> = (0..37).map(|i| i as f32 * 0.25).collect();
        let y: Vec<f32> = (0..37).map(|i| (i as f32).sin()).collect();
        let naive: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert_close(dot(&x, &y), naive, 1e-3);
    }

    #[test]
    fn dot_handles_short_and_empty() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[2.0], &[3.0]), 6.0);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_mismatched_lengths() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 10.0, 10.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 14.0, 16.0]);
    }

    #[test]
    fn mean_var_simple() {
        let (m, v) = mean_var(&[1.0, 2.0, 3.0, 4.0]);
        assert_close(m, 2.5, 1e-6);
        assert_close(v, 1.25, 1e-6);
    }

    #[test]
    fn mean_var_constant_input_zero_variance() {
        let (m, v) = mean_var(&[5.0; 100]);
        assert_close(m, 5.0, 1e-6);
        assert_close(v, 0.0, 1e-6);
    }

    #[test]
    fn mean_var_empty() {
        assert_eq!(mean_var(&[]), (0.0, 0.0));
    }

    #[test]
    fn fisher_matches_atanh() {
        for &r in &[0.0f32, 0.1, -0.5, 0.9, -0.99] {
            assert_close(fisher_z(r), r.atanh(), 2e-5);
        }
    }

    #[test]
    fn fast_ln_matches_std_over_fisher_range() {
        // (1+r)/(1−r) spans ~[5e-7, 3.3e6] over the clamped r range.
        let mut x = 5e-7f32;
        while x < 3.5e6 {
            let got = fast_ln(x);
            let want = x.ln();
            assert!(
                (got - want).abs() <= 1e-5 * want.abs().max(1.0),
                "fast_ln({x}) = {got}, std = {want}"
            );
            x *= 1.37;
        }
    }

    #[test]
    fn fast_ln_exact_landmarks() {
        assert_close(fast_ln(1.0), 0.0, 1e-7);
        assert_close(fast_ln(std::f32::consts::E), 1.0, 1e-5);
        assert_close(fast_ln(2.0), std::f32::consts::LN_2, 1e-6);
    }

    #[test]
    fn fisher_is_finite_at_unit_correlation() {
        assert!(fisher_z(1.0).is_finite());
        assert!(fisher_z(-1.0).is_finite());
        assert!(fisher_z(1.0) > 7.0); // atanh near 1 is large but bounded here
    }

    #[test]
    fn fisher_is_odd() {
        for &r in &[0.2f32, 0.5, 0.77] {
            assert_close(fisher_z(-r), -fisher_z(r), 1e-6);
        }
    }

    #[test]
    fn normalize_epoch_makes_self_dot_one() {
        let mut x: Vec<f32> = (0..12).map(|i| (i as f32 * 1.3).cos() + 2.0).collect();
        normalize_epoch(&mut x);
        assert_close(dot(&x, &x), 1.0, 1e-5);
        let (m, _) = mean_var(&x);
        assert_close(m, 0.0, 1e-6);
    }

    #[test]
    fn normalize_epoch_correlation_equals_pearson() {
        // corr(X,Y) via normalized dot product must equal the textbook
        // Pearson formula.
        let xv: Vec<f32> = vec![1.0, 3.0, 2.0, 5.0, 4.0, 7.0];
        let yv: Vec<f32> = vec![2.0, 2.5, 1.0, 4.0, 5.0, 6.5];
        let mut xn = xv.clone();
        let mut yn = yv.clone();
        normalize_epoch(&mut xn);
        normalize_epoch(&mut yn);
        let got = dot(&xn, &yn);

        let (mx, vx) = mean_var(&xv);
        let (my, vy) = mean_var(&yv);
        let n = xv.len() as f32;
        let cov: f32 = xv.iter().zip(&yv).map(|(a, b)| (a - mx) * (b - my)).sum::<f32>() / n;
        let pearson = cov / (vx.sqrt() * vy.sqrt());
        assert_close(got, pearson, 1e-5);
    }

    #[test]
    fn normalize_dead_voxel_is_zero() {
        let mut x = vec![4.2f32; 12];
        normalize_epoch(&mut x);
        assert!(x.iter().all(|&v| v == 0.0));
    }
}
