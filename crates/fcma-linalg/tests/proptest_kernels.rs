//! Property-based tests pinning every optimized kernel to the reference
//! implementations across randomized shapes and data.

use fcma_linalg::gemm_blocked::BlockSizes;
use fcma_linalg::tall_skinny::{EpochPair, StripScratch, TallSkinnyOpts, MR};
use fcma_linalg::*;
use proptest::prelude::*;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

fn close(a: f32, b: f32, scale: f32) -> bool {
    (a - b).abs() <= 1e-3 * scale.max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gemm_blocked_matches_reference(
        m in 1usize..24,
        n in 1usize..70,
        k in 0usize..40,
        seed in any::<u64>(),
    ) {
        let mut rng_state = seed;
        let mut next = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let a: Vec<f32> = (0..m * k.max(1)).map(|_| next()).collect();
        let b: Vec<f32> = (0..k.max(1) * n).map(|_| next()).collect();
        let mut got = vec![f32::NAN; m * n];
        let mut expect = vec![0.0; m * n];
        gemm_blocked(m, n, k, &a, k.max(1), &b, n, &mut got, n);
        gemm_ref(m, n, k, &a, k.max(1), &b, n, &mut expect, n);
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!(close(*g, *e, k as f32), "{g} vs {e}");
        }
    }

    #[test]
    fn gemm_blocked_matches_reference_weird_blocks(
        m in 1usize..20,
        n in 1usize..50,
        k in 1usize..30,
        mc in 8usize..32,
        kc in 1usize..16,
        nc in 16usize..64,
    ) {
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 17 + 5) % 23) as f32 - 11.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 13 + 7) % 19) as f32 - 9.0).collect();
        let mut got = vec![0.0; m * n];
        let mut expect = vec![0.0; m * n];
        let mut scratch = GemmScratch::new(BlockSizes { mc, kc, nc });
        gemm_blocked_scratch(m, n, k, &a, k, &b, n, &mut got, n, &mut scratch);
        gemm_ref(m, n, k, &a, k, &b, n, &mut expect, n);
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!(close(*g, *e, (k * 23) as f32));
        }
    }

    #[test]
    fn syrk_panel_matches_reference(
        m in 1usize..24,
        n in 1usize..220,
        seed in any::<u32>(),
    ) {
        let a: Vec<f32> = (0..m * n)
            .map(|i| (((i as u32).wrapping_mul(seed | 1) >> 16) % 100) as f32 / 50.0 - 1.0)
            .collect();
        let mut got = vec![f32::NAN; m * m];
        let mut expect = vec![0.0; m * m];
        syrk_panel_scratch(m, n, &a, n, &mut got, m, &mut SyrkScratch::new(m, PANEL_K));
        syrk_ref(m, n, &a, n, &mut expect, m);
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!(close(*g, *e, n as f32), "{g} vs {e}");
        }
    }

    #[test]
    fn syrk_outputs_agree_across_variants(
        m in 1usize..16,
        n in 1usize..150,
    ) {
        let a: Vec<f32> = (0..m * n).map(|i| ((i * 31 + 11) % 17) as f32 * 0.1 - 0.8).collect();
        let mut dotv = vec![0.0; m * m];
        let mut pan = vec![0.0; m * m];
        syrk_dot(m, n, &a, n, &mut dotv, m);
        syrk_panel_scratch(m, n, &a, n, &mut pan, m, &mut SyrkScratch::new(m, PANEL_K));
        for i in 0..m * m {
            prop_assert!(close(dotv[i], pan[i], n as f32));
        }
    }

    #[test]
    fn syrk_panel_scratch_bit_identical_to_fresh(
        m in 1usize..20,
        n in 1usize..180,
        panel_k in 1usize..64,
        seed in any::<u32>(),
    ) {
        let a: Vec<f32> = (0..m * n)
            .map(|i| (((i as u32).wrapping_mul(seed | 1) >> 16) % 100) as f32 / 50.0 - 1.0)
            .collect();
        let mut fresh = vec![0.0; m * m];
        syrk_panel_scratch(m, n, &a, n, &mut fresh, m, &mut SyrkScratch::new(m, panel_k));
        // Dirty the scratch with an unrelated product first: reuse must
        // still reproduce the fresh-scratch result bit for bit.
        let decoy: Vec<f32> = a.iter().map(|v| v.mul_add(-1.5, 0.3)).collect();
        let mut scratch = SyrkScratch::new(m, panel_k);
        let mut junk = vec![0.0; m * m];
        syrk_panel_scratch(m, n, &decoy, n, &mut junk, m, &mut scratch);
        let mut reused = vec![f32::NAN; m * m];
        syrk_panel_scratch(m, n, &a, n, &mut reused, m, &mut scratch);
        for (r, f) in reused.iter().zip(&fresh) {
            prop_assert_eq!(r.to_bits(), f.to_bits(), "m={} n={} panel_k={}", m, n, panel_k);
        }
    }

    #[test]
    fn syrk_strip_by_strip_bit_identical_to_one_call(
        m in 1usize..20,
        n in 1usize..400,
        panel_k in 1usize..64,
        panels_per_strip in 1usize..5,
        seed in any::<u32>(),
    ) {
        // The fused executor's use of the three steps: zero, one
        // accumulate per column strip (each copied out at lda = its
        // width, strips a whole number of panels wide, the last one
        // ragged), mirror — over a scratch left dirty by the call before.
        let a: Vec<f32> = (0..m * n)
            .map(|i| (((i as u32).wrapping_mul(seed | 1) >> 16) % 100) as f32 / 50.0 - 1.0)
            .collect();
        let mut scratch = SyrkScratch::new(m, panel_k);
        let mut whole = vec![f32::NAN; m * m];
        syrk_panel_scratch(m, n, &a, n, &mut whole, m, &mut scratch);
        let w_max = panels_per_strip * panel_k;
        let mut c = vec![f32::NAN; m * m];
        syrk_zero(m, &mut c, m);
        for j0 in (0..n).step_by(w_max) {
            let w = w_max.min(n - j0);
            let strip: Vec<f32> =
                (0..m).flat_map(|i| a[i * n + j0..i * n + j0 + w].iter().copied()).collect();
            syrk_accumulate(m, w, &strip, w, &mut c, m, &mut scratch);
        }
        syrk_mirror(m, &mut c, m);
        for (s, f) in c.iter().zip(&whole) {
            prop_assert_eq!(s.to_bits(), f.to_bits(), "m={} n={} w_max={}", m, n, w_max);
        }
    }

    #[test]
    fn gemm_blocked_scratch_bit_identical_to_fresh(
        m in 1usize..20,
        n in 1usize..50,
        k in 0usize..30,
        mc in 8usize..32,
        kc in 1usize..16,
        nc in 16usize..64,
        seed in any::<u64>(),
    ) {
        let bs = BlockSizes { mc, kc, nc };
        let mut rng_state = seed;
        let mut next = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let a: Vec<f32> = (0..m * k.max(1)).map(|_| next()).collect();
        let b: Vec<f32> = (0..k.max(1) * n).map(|_| next()).collect();
        let mut fresh = vec![0.0; m * n];
        gemm_blocked_scratch(m, n, k, &a, k.max(1), &b, n, &mut fresh, n, &mut GemmScratch::new(bs));
        // Same dirty-reuse discipline as the SYRK property above.
        let decoy_a: Vec<f32> = a.iter().map(|v| v.mul_add(-2.0, 0.1)).collect();
        let decoy_b: Vec<f32> = b.iter().map(|v| v.mul_add(0.5, -0.2)).collect();
        let mut scratch = GemmScratch::new(bs);
        let mut junk = vec![0.0; m * n];
        gemm_blocked_scratch(m, n, k, &decoy_a, k.max(1), &decoy_b, n, &mut junk, n, &mut scratch);
        let mut reused = vec![f32::NAN; m * n];
        gemm_blocked_scratch(m, n, k, &a, k.max(1), &b, n, &mut reused, n, &mut scratch);
        for (r, f) in reused.iter().zip(&fresh) {
            prop_assert_eq!(r.to_bits(), f.to_bits(), "({}x{}x{})", m, n, k);
        }
    }

    #[test]
    fn corr_tall_skinny_matches_reference(
        v in 1usize..12,
        n in 1usize..80,
        m_epochs in 1usize..5,
        k in 1usize..14,
        tile in 16usize..64,
    ) {
        let assigned: Vec<Mat> = (0..m_epochs)
            .map(|e| Mat::from_fn(v, k, |r, c| ((r * 7 + c * 3 + e) % 13) as f32 * 0.2 - 1.0))
            .collect();
        let brain: Vec<Mat> = (0..m_epochs)
            .map(|e| Mat::from_fn(k, n, |r, c| ((r * 5 + c * 11 + e * 2) % 17) as f32 * 0.1 - 0.7))
            .collect();
        let eps: Vec<EpochPair<'_>> = assigned
            .iter()
            .zip(&brain)
            .map(|(a, b)| EpochPair { assigned: a, brain: b })
            .collect();
        let mut got = vec![f32::NAN; v * m_epochs * n];
        let mut expect = vec![0.0; v * m_epochs * n];
        corr_tall_skinny(&eps, &mut got, TallSkinnyOpts { tile_cols: tile });
        corr_reference(&eps, &mut expect);
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!(close(*g, *e, k as f32));
        }
    }

    #[test]
    fn normalize_epoch_idempotent_direction(mut x in finite_vec(12)) {
        // Normalizing twice gives the same vector as normalizing once
        // (the vector is already zero-mean unit-RSS after one pass).
        normalize_epoch(&mut x);
        let once = x.clone();
        normalize_epoch(&mut x);
        for (a, b) in x.iter().zip(&once) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn epoch_scale_of_the_sums_is_normalize_epoch(
        x in finite_vec(12),
        constant in any::<bool>(),
    ) {
        // A caller that keeps the time-ordered f64 sums itself gets
        // normalize_epoch's bits, the dead-voxel branch included.
        let x = if constant { vec![x[0]; 12] } else { x };
        let (mut s, mut s2) = (0.0f64, 0.0f64);
        for &v in &x {
            s += f64::from(v);
            s2 += f64::from(v) * f64::from(v);
        }
        let scale = epoch_scale(s, s2, x.len());
        let mut want = x.clone();
        normalize_epoch(&mut want);
        for (&raw, want) in x.iter().zip(&want) {
            let got = scale.map_or(0.0, |(mean, inv)| (raw - mean) * inv);
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn pearson_via_dot_is_bounded(x in finite_vec(12), y in finite_vec(12)) {
        let mut xn = x.clone();
        let mut yn = y.clone();
        normalize_epoch(&mut xn);
        normalize_epoch(&mut yn);
        let r = dot(&xn, &yn);
        prop_assert!(r.abs() <= 1.0 + 1e-4, "correlation {r} out of range");
    }

    #[test]
    fn fisher_z_monotone(a in -0.99f32..0.99, b in -0.99f32..0.99) {
        if a < b {
            prop_assert!(fisher_z(a) < fisher_z(b));
        } else if a > b {
            prop_assert!(fisher_z(a) > fisher_z(b));
        }
    }

    #[test]
    fn zscore_then_stats_are_standard(x in proptest::collection::vec(-100.0f32..100.0, 4..64)) {
        let spread = x.iter().copied().fold(f32::MIN, f32::max)
            - x.iter().copied().fold(f32::MAX, f32::min);
        prop_assume!(spread > 1e-3);
        let mut z = x.clone();
        zscore(&mut z);
        let (m, v) = mean_var_onepass(&z);
        prop_assert!(m.abs() < 1e-3, "mean {m}");
        prop_assert!((v - 1.0).abs() < 1e-2, "var {v}");
    }
}

// Coverage for the remaining public kernels (`pub_fn_coverage.rs`
// requires every top-level `pub fn` of this crate to be named under
// tests/): microkernels and panel packing, BLAS-1/2 helpers, the SYRK
// panel-depth knob, the merged-pipeline tile primitive, and the checked
// cast helpers.

use fcma_linalg::microkernel::{microkernel, microkernel_clipped, pack_a_panel, pack_b_panel, NR};
use fcma_linalg::norms::axpy;

fn pseudo(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u32 << 24) as f32) - 0.5
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn microkernel_with_packing_matches_reference(k in 1usize..64, seed in any::<u64>()) {
        const MR: usize = 8;
        const NR: usize = 16;
        let a = pseudo(MR * k, seed);
        let b = pseudo(k * NR, seed ^ 0x9e37);
        let mut a_panel = vec![0.0; k * MR];
        let mut b_panel = vec![0.0; k * NR];
        pack_a_panel::<MR>(&a, k, MR, k, &mut a_panel);
        pack_b_panel::<NR>(&b, NR, k, NR, &mut b_panel);
        let mut got = vec![f32::NAN; MR * NR];
        microkernel::<MR, NR>(k, &a_panel, &b_panel, &mut got, NR, false);
        let mut expect = vec![0.0; MR * NR];
        gemm_ref(MR, NR, k, &a, k, &b, NR, &mut expect, NR);
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!(close(*g, *e, k as f32), "{g} vs {e}");
        }
    }

    #[test]
    fn microkernel_clipped_matches_reference(
        k in 1usize..32,
        mr in 1usize..=MR,
        nr in 1usize..=NR,
        seed in any::<u64>(),
    ) {
        let a = pseudo(mr * k, seed);
        let b = pseudo(k * nr, seed ^ 0x51f0);
        let mut a_panel = vec![0.0; k * MR];
        let mut b_panel = vec![0.0; k * NR];
        pack_a_panel::<MR>(&a, k, mr, k, &mut a_panel);
        pack_b_panel::<NR>(&b, nr, k, nr, &mut b_panel);
        let mut got = vec![f32::NAN; mr * nr];
        microkernel_clipped(k, mr, nr, &a_panel, &b_panel, NR, &mut got, nr, false);
        let mut expect = vec![0.0; mr * nr];
        gemm_ref(mr, nr, k, &a, k, &b, nr, &mut expect, nr);
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!(close(*g, *e, k as f32), "{g} vs {e}");
        }
    }

    #[test]
    fn axpy_matches_scalar_loop(alpha in -4.0f32..4.0, x in finite_vec(23), y0 in finite_vec(23)) {
        let mut y = y0.clone();
        axpy(alpha, &x, &mut y);
        for i in 0..x.len() {
            prop_assert!(close(y[i], y0[i] + alpha * x[i], 40.0));
        }
    }

    #[test]
    fn fast_ln_tracks_std_ln(x in 1e-6f32..1e6) {
        let got = fast_ln(x);
        let want = x.ln();
        prop_assert!((got - want).abs() <= 1e-5 * want.abs().max(1.0), "ln({x}): {got} vs {want}");
    }

    #[test]
    fn fisher_z_slice_matches_scalar(mut x in proptest::collection::vec(-0.999f32..0.999, 1..32)) {
        let scalar: Vec<f32> = x.iter().map(|&r| fisher_z(r)).collect();
        fisher_z_slice(&mut x);
        for (a, b) in x.iter().zip(&scalar) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn zscore_with_centers_and_scales(x in proptest::collection::vec(-50.0f32..50.0, 4..48)) {
        let (mean, var) = mean_var_onepass(&x);
        prop_assume!(var > 1e-4);
        let std = var.sqrt();
        let mut z = x.clone();
        zscore_with(&mut z, mean, std);
        for (zi, xi) in z.iter().zip(&x) {
            prop_assert!(close(*zi, (xi - mean) / std, 50.0));
        }
        // Degenerate std collapses to the zero vector by convention.
        let mut dead = x.clone();
        zscore_with(&mut dead, mean, 0.0);
        prop_assert!(dead.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gemv_matches_row_dots(m in 1usize..12, n in 1usize..20, seed in any::<u64>()) {
        let a = Mat::from_vec(m, n, pseudo(m * n, seed));
        let x = pseudo(n, seed ^ 0xa5a5);
        let mut y = vec![f32::NAN; m];
        gemv(&a, &x, &mut y);
        for (r, &got) in y.iter().enumerate() {
            let naive: f32 = a.row(r).iter().zip(&x).map(|(p, q)| p * q).sum();
            prop_assert!(close(got, naive, n as f32));
        }
    }

    #[test]
    fn gemv_t_matches_explicit_transpose(m in 1usize..12, n in 1usize..20, seed in any::<u64>()) {
        let a = Mat::from_vec(m, n, pseudo(m * n, seed));
        let x = pseudo(m, seed ^ 0x77);
        let mut got = vec![f32::NAN; n];
        gemv_t(&a, &x, &mut got);
        let mut expect = vec![f32::NAN; n];
        gemv(&a.transposed(), &x, &mut expect);
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!(close(*g, *e, m as f32));
        }
    }

    #[test]
    fn means_match_naive(m in 1usize..10, n in 1usize..14, seed in any::<u64>()) {
        let a = Mat::from_vec(m, n, pseudo(m * n, seed));
        let rm = row_means(&a);
        let cm = col_means(&a);
        prop_assert_eq!((rm.len(), cm.len()), (m, n));
        for (r, &got) in rm.iter().enumerate() {
            let naive = a.row(r).iter().sum::<f32>() / n as f32;
            prop_assert!(close(got, naive, 1.0));
        }
        for (c, &got) in cm.iter().enumerate() {
            let naive = (0..m).map(|r| a.get(r, c)).sum::<f32>() / m as f32;
            prop_assert!(close(got, naive, 1.0));
        }
    }

    #[test]
    fn add_scaled_and_scale_are_elementwise(
        beta in -3.0f32..3.0,
        alpha in -3.0f32..3.0,
        m in 1usize..6,
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        let a = Mat::from_vec(m, n, pseudo(m * n, seed));
        let b = Mat::from_vec(m, n, pseudo(m * n, seed ^ 0x1234));
        let mut c = add_scaled(&a, beta, &b);
        for i in 0..m * n {
            prop_assert!(close(c.as_slice()[i], a.as_slice()[i] + beta * b.as_slice()[i], 8.0));
        }
        let before = c.clone();
        scale(&mut c, alpha);
        for i in 0..m * n {
            prop_assert!(close(c.as_slice()[i], alpha * before.as_slice()[i], 8.0));
        }
    }

    #[test]
    fn syrk_panel_scratch_matches_reference_any_depth(
        panel_k in 1usize..128,
        m in 1usize..16,
        n in 1usize..150,
        seed in any::<u64>(),
    ) {
        let a = pseudo(m * n, seed);
        let mut got = vec![f32::NAN; m * m];
        let mut expect = vec![0.0; m * m];
        syrk_panel_scratch(m, n, &a, n, &mut got, m, &mut SyrkScratch::new(m, panel_k));
        syrk_ref(m, n, &a, n, &mut expect, m);
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!(close(*g, *e, n as f32), "panel_k={panel_k}: {g} vs {e}");
        }
    }

    #[test]
    fn corr_tile_block_rows_matches_naive_dots(
        v in 1usize..8,
        n in 4usize..40,
        k in 1usize..10,
        m_epochs in 1usize..4,
        seed in any::<u64>(),
    ) {
        let assigned: Vec<Mat> = (0..m_epochs)
            .map(|e| Mat::from_vec(v, k, pseudo(v * k, seed ^ e as u64)))
            .collect();
        let brain: Vec<Mat> = (0..m_epochs)
            .map(|e| Mat::from_vec(k, n, pseudo(k * n, seed ^ (e as u64) << 8)))
            .collect();
        let eps: Vec<EpochPair<'_>> = assigned
            .iter()
            .zip(&brain)
            .map(|(a, b)| EpochPair { assigned: a, brain: b })
            .collect();
        let col0 = n / 4;
        let col1 = n;
        let w = col1 - col0;
        let mut buf = vec![f32::NAN; v * m_epochs * w];
        let mut scratch = StripScratch::for_epochs(&eps);
        corr_tile_block_rows(&eps, 0..v, 0..m_epochs, col0..col1, &mut buf, w, m_epochs, &mut scratch);
        for vi in 0..v {
            for ei in 0..m_epochs {
                for j in col0..col1 {
                    let naive: f32 = (0..k)
                        .map(|l| assigned[ei].get(vi, l) * brain[ei].get(l, j))
                        .sum();
                    let got = buf[(vi * m_epochs + ei) * w + (j - col0)];
                    prop_assert!(close(got, naive, k as f32), "({vi},{ei},{j}): {got} vs {naive}");
                }
            }
        }
    }

    #[test]
    fn corr_tile_block_rows_bands_bit_identical_to_full_range(
        v in 1usize..40,
        n in 4usize..48,
        k in 1usize..10,
        m_epochs in 1usize..4,
        bands in 1usize..5,
        pad in 0usize..3,
        gap in 0usize..3,
        seed in any::<u64>(),
    ) {
        // The merged pipeline's banding unit: computing the block in
        // voxel bands that start anywhere (not only on MR boundaries)
        // must reproduce the full-range call bit for bit (DESIGN.md §15).
        // The rows sit at a leading dimension `pad` wider than the strip
        // and `gap` rows apart per voxel, as in the merged pipeline's
        // landing; what lies between them is never written.
        let assigned: Vec<Mat> = (0..m_epochs)
            .map(|e| Mat::from_vec(v, k, pseudo(v * k, seed ^ e as u64)))
            .collect();
        let brain: Vec<Mat> = (0..m_epochs)
            .map(|e| Mat::from_vec(k, n, pseudo(k * n, seed ^ (e as u64) << 8)))
            .collect();
        let eps: Vec<EpochPair<'_>> = assigned
            .iter()
            .zip(&brain)
            .map(|(a, b)| EpochPair { assigned: a, brain: b })
            .collect();
        let col0 = n / 5;
        let w = n - col0;
        let (ld, voxel_rows) = (w + pad, m_epochs + gap);
        let per_voxel = voxel_rows * ld;
        let mut full = vec![f32::NAN; v * per_voxel];
        corr_tile_block_rows(
            &eps,
            0..v,
            0..m_epochs,
            col0..n,
            &mut full,
            ld,
            voxel_rows,
            &mut StripScratch::for_epochs(&eps),
        );
        for (i, x) in full.iter().enumerate() {
            let written = (i / ld) % voxel_rows < m_epochs && i % ld < w;
            prop_assert_eq!(x.is_nan(), !written, "idx {} (ld={} voxel_rows={})", i, ld, voxel_rows);
        }
        // One scratch across every band, dirty from the band before.
        let mut scratch = StripScratch::for_epochs(&eps);
        let mut banded = vec![f32::NAN; v * per_voxel];
        let bands = bands.min(v);
        let mut v0 = 0usize;
        for band in 0..bands {
            let v1 = v0 + v / bands + usize::from(band < v % bands);
            let chunk = &mut banded[v0 * per_voxel..v1 * per_voxel];
            corr_tile_block_rows(&eps, v0..v1, 0..m_epochs, col0..n, chunk, ld, voxel_rows, &mut scratch);
            v0 = v1;
        }
        prop_assert_eq!(v0, v);
        for (i, (b, f)) in banded.iter().zip(&full).enumerate() {
            prop_assert_eq!(b.to_bits(), f.to_bits(), "idx {} (v={} bands={})", i, v, bands);
        }
    }

    // DESIGN.md §15 determinism contract, baseline stage 1's banding
    // unit: the blocked GEMM over any split of its rows at multiples of
    // `mc` must be BIT-identical to the full-range call, arbitrary shapes
    // and block sizes, through one dirty scratch (a decoy product runs
    // first, as a pool worker's recycled packing buffers would).

    #[test]
    fn gemm_mc_aligned_row_bands_bit_identical_to_full_range(
        m in 1usize..48,
        n in 1usize..40,
        k in 0usize..24,
        mc in 8usize..32,
        kc in 1usize..16,
        nc in 16usize..64,
        bands in 1usize..5,
        seed in any::<u64>(),
    ) {
        let bs = BlockSizes { mc, kc, nc };
        let (lda, a) = (k.max(1), pseudo(m * k.max(1), seed));
        let b = pseudo(k.max(1) * n, seed ^ 0xbead);
        let mut full = vec![0.0; m * n];
        gemm_blocked_scratch(m, n, k, &a, lda, &b, n, &mut full, n, &mut GemmScratch::new(bs));
        let decoy: Vec<f32> = a.iter().map(|v| v.mul_add(-1.5, 0.2)).collect();
        let mut scratch = GemmScratch::new(bs);
        let mut junk = vec![0.0; m * n];
        gemm_blocked_scratch(m, n, k, &decoy, lda, &b, n, &mut junk, n, &mut scratch);
        let mut banded = vec![f32::NAN; m * n];
        let n_blocks = m.div_ceil(mc);
        let bands = bands.min(n_blocks);
        let mut r0 = 0usize;
        for band in 0..bands {
            let blocks = n_blocks / bands + usize::from(band < n_blocks % bands);
            let r1 = (r0 + blocks * mc).min(m);
            let (a, c) = (&a[r0 * lda..], &mut banded[r0 * n..]);
            gemm_blocked_scratch(r1 - r0, n, k, a, lda, &b, n, c, n, &mut scratch);
            r0 = r1;
        }
        prop_assert_eq!(r0, m);
        for (p, s) in banded.iter().zip(&full) {
            prop_assert_eq!(p.to_bits(), s.to_bits(), "bands={} ({}x{}x{})", bands, m, n, k);
        }
    }

    #[test]
    fn cast_helpers_roundtrip_and_round(n in 0usize..(1 << 24), x in -1e6f64..1e6) {
        prop_assert_eq!(f32_from_usize(n) as usize, n);
        prop_assert_eq!(f64_from_usize(n) as usize, n);
        // Narrowing rounds to the nearest f32: error bounded by half an
        // ulp, i.e. relative 2^-24.
        let narrowed = f32_from_f64(x);
        prop_assert!((f64::from(narrowed) - x).abs() <= x.abs() / (1u64 << 24) as f64 + 1e-30);
    }
}
