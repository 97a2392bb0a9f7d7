//! Reference GEMM: the correctness oracle for every optimized kernel.
//!
//! A plain triple loop over row-major operands with an explicit leading
//! dimension on every matrix, mirroring the `cblas_sgemm` calling
//! convention the paper's baseline uses. All optimized kernels in this
//! crate are tested against this implementation.

/// `C[0..m, 0..n] = A[0..m, 0..k] · B[0..k, 0..n]` (row-major, overwrite).
///
/// `lda`, `ldb`, `ldc` are leading dimensions (row strides) of the
/// respective buffers; they let callers write into interleaved output
/// layouts exactly the way the paper drives `cblas_sgemm` with a custom
/// `ldc` to group correlation rows by voxel (§3.2).
///
/// # Panics
/// Panics if any leading dimension is smaller than the logical row width
/// or any buffer is too short for the access pattern.
#[expect(clippy::too_many_arguments, reason = "BLAS-style signature")]
pub fn gemm_ref(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    check_gemm_dims(m, n, k, a.len(), lda, b.len(), ldb, c.len(), ldc);
    for i in 0..m {
        let arow = &a[i * lda..i * lda + k];
        let crow = &mut c[i * ldc..i * ldc + n];
        crow.fill(0.0);
        for (l, &ail) in arow.iter().enumerate() {
            let brow = &b[l * ldb..l * ldb + n];
            for j in 0..n {
                crow[j] += ail * brow[j];
            }
        }
    }
}

/// Validate GEMM buffer shapes; shared by every kernel in this crate.
#[inline]
#[expect(clippy::too_many_arguments, reason = "mirrors the BLAS call it validates")]
pub(crate) fn check_gemm_dims(
    m: usize,
    n: usize,
    k: usize,
    a_len: usize,
    lda: usize,
    b_len: usize,
    ldb: usize,
    c_len: usize,
    ldc: usize,
) {
    assert!(lda >= k, "gemm: lda {lda} < k {k}");
    assert!(ldb >= n, "gemm: ldb {ldb} < n {n}");
    assert!(ldc >= n, "gemm: ldc {ldc} < n {n}");
    if m > 0 {
        assert!(a_len >= (m - 1) * lda + k, "gemm: A buffer too short");
        assert!(c_len >= (m - 1) * ldc + n, "gemm: C buffer too short");
    }
    if k > 0 {
        assert!(b_len >= (k - 1) * ldb + n, "gemm: B buffer too short");
    }
}

/// Reference symmetric rank-k update: `C[0..m, 0..m] = A · Aᵀ` where `A`
/// is `m × n` row-major with leading dimension `lda`.
///
/// Computes the full (symmetric) matrix; optimized SYRK kernels may compute
/// one triangle and mirror it, which this oracle verifies.
///
/// # Panics
/// If `lda < n`, `ldc < m`, or either buffer is shorter than the
/// leading-dimension layout requires.
pub fn syrk_ref(m: usize, n: usize, a: &[f32], lda: usize, c: &mut [f32], ldc: usize) {
    assert!(lda >= n, "syrk: lda {lda} < n {n}");
    assert!(ldc >= m, "syrk: ldc {ldc} < m {m}");
    if m > 0 {
        assert!(a.len() >= (m - 1) * lda + n, "syrk: A buffer too short");
        assert!(c.len() >= (m - 1) * ldc + m, "syrk: C buffer too short");
    }
    for i in 0..m {
        for j in 0..=i {
            let mut s = 0.0f32;
            let ai = &a[i * lda..i * lda + n];
            let aj = &a[j * lda..j * lda + n];
            for l in 0..n {
                s += ai[l] * aj[l];
            }
            c[i * ldc + j] = s;
            c[j * ldc + i] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mat;

    #[test]
    fn identity_times_matrix_is_matrix() {
        let m = 4;
        let a = Mat::from_fn(m, m, |r, c| if r == c { 1.0 } else { 0.0 });
        let b = Mat::from_fn(m, m, |r, c| (r * m + c) as f32);
        let mut c = Mat::zeros(m, m);
        gemm_ref(m, m, m, a.as_slice(), m, b.as_slice(), m, c.as_mut_slice(), m);
        assert_eq!(c, b);
    }

    #[test]
    fn known_2x2_product() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0; 4];
        gemm_ref(2, 2, 2, &a, 2, &b, 2, &mut c, 2);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn overwrites_rather_than_accumulates() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [1.0, 2.0, 3.0, 4.0];
        let mut c = [99.0; 4];
        gemm_ref(2, 2, 2, &a, 2, &b, 2, &mut c, 2);
        assert_eq!(c, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn respects_ldc_interleaving() {
        // Two 1x2 results written with ldc=4 into a 2x4 buffer: rows land
        // at offsets 0 and 4, leaving columns 2..4 untouched.
        let a = [1.0, 1.0];
        let b = [1.0, 2.0, 10.0, 20.0];
        let mut c = [7.0; 8];
        gemm_ref(1, 2, 2, &a, 2, &b, 2, &mut c, 4);
        assert_eq!(c, [11.0, 22.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0]);
    }

    #[test]
    fn zero_k_yields_zero_matrix() {
        let mut c = [5.0; 4];
        gemm_ref(2, 2, 0, &[], 0, &[], 2, &mut c, 2);
        assert_eq!(c, [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "lda")]
    fn rejects_small_lda() {
        let mut c = [0.0; 4];
        gemm_ref(2, 2, 3, &[0.0; 6], 2, &[0.0; 6], 2, &mut c, 2);
    }

    #[test]
    fn syrk_matches_explicit_gram() {
        let a = Mat::from_fn(3, 5, |r, c| ((r + 1) * (c + 2)) as f32 * 0.1);
        let mut c = Mat::zeros(3, 3);
        syrk_ref(3, 5, a.as_slice(), 5, c.as_mut_slice(), 3);
        let at = a.transposed();
        let mut expect = Mat::zeros(3, 3);
        gemm_ref(3, 3, 5, a.as_slice(), 5, at.as_slice(), 3, expect.as_mut_slice(), 3);
        assert!(c.max_abs_diff(&expect) < 1e-4);
    }

    #[test]
    fn syrk_output_is_symmetric() {
        let a = Mat::from_fn(4, 7, |r, c| ((r * 13 + c * 7) % 5) as f32 - 2.0);
        let mut c = Mat::zeros(4, 4);
        syrk_ref(4, 7, a.as_slice(), 7, c.as_mut_slice(), 4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(c.get(i, j), c.get(j, i));
            }
        }
    }
}
