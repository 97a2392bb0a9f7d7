//! Register-tile microkernels.
//!
//! The paper's optimized kernels bottom out in an auto-generated
//! `16x9x96` assembly microkernel (§4.4). Rust's stand-in is a const-
//! generic `MR × NR` register tile written so LLVM keeps the `NR`-wide
//! accumulator rows in SIMD registers: the inner loop is a broadcast-
//! multiply-accumulate over packed panels, the exact dataflow of the
//! assembly kernel.
//!
//! Packed-panel layout (identical to Goto-style GEMM packing):
//! * `a_panel[l * MR + i]` — element `A[i, l]` of the `MR × k` slab
//!   (k-major, so each k step reads `MR` contiguous floats).
//! * `b_panel[l * NR + j]` — element `B[l, j]` of the `k × NR` slab.

/// Number of f32 lanes in one Xeon Phi vector register; the natural `NR`.
pub const VPU_WIDTH: usize = 16;

/// Register tile height every kernel in this crate instantiates the
/// microkernels with. Declared once: the §15 bit-identity of banded
/// output depends on GEMM, SYRK, the correlation tile and the callers
/// that align bands on it all agreeing.
///
/// 4 × 16 f32 is eight `ymm` accumulators at the committed build level
/// (`x86-64-v3`, `.cargo/config.toml`) and sixteen `xmm` at the
/// baseline level; it is the one shape LLVM keeps in registers at both
/// (DESIGN.md §8), so there is no `cfg` fork. [`NR`] is a multiple of
/// it, which is what lets SYRK assemble its right operand from whole
/// packed row tiles.
pub const MR: usize = 4;
/// Register tile width (one Phi vector register of f32).
pub const NR: usize = VPU_WIDTH;

const _: () = assert!(NR.is_multiple_of(MR), "SYRK builds NR-wide panels from whole MR-tall tiles");

/// The register-tile sum: `acc[i][j] = Σ_l a_panel[l·M + I0 + i] ·
/// b[l·ldb + j]` for `R` rows of an `M`-strided A pack against `N`
/// columns of a `B` whose rows are `ldb` apart (a packed panel has
/// `ldb == N`), each sum taken in ascending `l` from 0.0. Every bound
/// but `k` is a constant, so the accumulator is `R` vector rows; pack
/// rows outside `I0..I0 + R` are not read.
///
/// The accumulator is *returned*, not written through a reference:
/// by-value is what lets LLVM keep all sixteen `xmm` registers of a
/// 4 × 16 tile live at the baseline level (DESIGN.md §8).
#[inline(always)]
fn tile_acc<const M: usize, const I0: usize, const R: usize, const N: usize>(
    k: usize,
    a_panel: &[f32],
    b: &[f32],
    ldb: usize,
) -> [[f32; N]; R] {
    assert!(
        ldb >= N && (k == 0 || b.len() >= (k - 1) * ldb + N),
        "microkernel: B shorter than k rows"
    );
    let mut acc = [[0.0f32; N]; R];
    for (l, arow) in a_panel[..k * M].chunks_exact(M).enumerate() {
        let brow = &b[l * ldb..l * ldb + N];
        for i in 0..R {
            let ail = arow[I0 + i];
            let accr = &mut acc[i];
            for j in 0..N {
                accr[j] += ail * brow[j];
            }
        }
    }
    acc
}

/// The one register-tile body: [`tile_acc`], then the leading `nr`
/// columns landed in `c` (whose row 0 is tile row `I0`) — overwritten,
/// or added to when `accumulate`. A full-width tile (`nr == N`) moves
/// whole constant-length rows.
///
/// Never inlined: the tile's register allocation must not depend on its
/// caller. At the baseline level 4 × 16 is all sixteen `xmm` registers,
/// and any extra live value of an inlining caller spills the
/// accumulators (DESIGN.md §8).
#[inline(never)]
#[allow(clippy::too_many_arguments)] // kernel-call ABI
fn tile<const M: usize, const I0: usize, const R: usize, const N: usize>(
    k: usize,
    nr: usize,
    a_panel: &[f32],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    accumulate: bool,
) {
    let acc = tile_acc::<M, I0, R, N>(k, a_panel, b, ldb);
    for (i, accr) in acc.iter().enumerate() {
        if nr == N {
            let crow = &mut c[i * ldc..i * ldc + N];
            if accumulate {
                for j in 0..N {
                    crow[j] += accr[j];
                }
            } else {
                crow.copy_from_slice(accr);
            }
        } else {
            let crow = &mut c[i * ldc..i * ldc + nr];
            if accumulate {
                for (cj, aj) in crow.iter_mut().zip(accr) {
                    *cj += aj;
                }
            } else {
                crow.copy_from_slice(&accr[..nr]);
            }
        }
    }
}

/// Rows `I0..min(I0 + MR, M)` of a packed `M × N` tile, full width: the
/// constant-height [`tile`] body the row count selects, or nothing when
/// the tile ends at or above `I0`.
#[inline(always)]
fn row_chunk<const M: usize, const I0: usize, const N: usize>(
    k: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    c: &mut [f32],
    ldc: usize,
    accumulate: bool,
) {
    if I0 >= M {
        return;
    }
    let c = &mut c[I0 * ldc..];
    match M - I0 {
        1 => tile::<M, I0, 1, N>(k, N, a_panel, b_panel, N, c, ldc, accumulate),
        2 => tile::<M, I0, 2, N>(k, N, a_panel, b_panel, N, c, ldc, accumulate),
        3 => tile::<M, I0, 3, N>(k, N, a_panel, b_panel, N, c, ldc, accumulate),
        _ => tile::<M, I0, MR, N>(k, N, a_panel, b_panel, N, c, ldc, accumulate),
    }
}

/// Compute a single `M × N` tile: `C[i, j] (+)= Σ_l a_panel[l,i] · b_panel[l,j]`.
///
/// When `accumulate` is false the tile is overwritten. A tile taller
/// than the crate's register tile is walked in [`MR`]-row chunks of the
/// one tile body, so any `M ≤ 16` stays in registers.
///
/// # Panics
/// Panics if the panels are shorter than `k` steps or the C buffer
/// cannot hold the tile at leading dimension `ldc`.
#[inline]
pub fn microkernel<const M: usize, const N: usize>(
    k: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    c: &mut [f32],
    ldc: usize,
    accumulate: bool,
) {
    const { assert!(M <= 4 * MR, "microkernel: at most four MR-row chunks") };
    debug_assert!(ldc >= N, "microkernel: ldc {ldc} < N {N}");
    row_chunk::<M, 0, N>(k, a_panel, b_panel, c, ldc, accumulate);
    row_chunk::<M, MR, N>(k, a_panel, b_panel, c, ldc, accumulate);
    row_chunk::<M, { 2 * MR }, N>(k, a_panel, b_panel, c, ldc, accumulate);
    row_chunk::<M, { 3 * MR }, N>(k, a_panel, b_panel, c, ldc, accumulate);
}

/// The crate's [`MR`] `×` [`NR`] tile clipped to its leading `mr` rows
/// and `nr` columns — the one tile call of GEMM, SYRK and the
/// correlation strip. `b` is read in place: row `l` of the right operand
/// is `b[l·ldb..l·ldb + NR]`, so a packed panel passes `ldb == NR` and
/// the correlation strip passes the brain matrix itself.
///
/// The row count picks a constant-height body, so a fringe (a task of
/// fewer than `MR` voxels, the last row tile of a matrix) stays in
/// registers exactly like the full tile. A narrow fringe computes all
/// `NR` lanes and stores `nr` of them, so its `b` must still hold `NR`
/// readable (zero-padded) lanes per row. Rows `mr..MR` of the A pack
/// are never read, and nothing outside the `mr × nr` corner of `c` is
/// written.
///
/// # Panics
/// If `mr` is 0 or exceeds [`MR`], `nr` exceeds [`NR`], or `a_panel`,
/// `b` or `c` is shorter than the `k`/`mr`/`nr`/`ldb`/`ldc` layout
/// requires.
#[inline]
#[allow(clippy::too_many_arguments)] // kernel-call ABI
pub fn microkernel_clipped(
    k: usize,
    mr: usize,
    nr: usize,
    a_panel: &[f32],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    accumulate: bool,
) {
    assert!(nr <= NR, "microkernel_clipped: nr {nr} > NR {NR}");
    match mr {
        1 => tile::<MR, 0, 1, NR>(k, nr, a_panel, b, ldb, c, ldc, accumulate),
        2 => tile::<MR, 0, 2, NR>(k, nr, a_panel, b, ldb, c, ldc, accumulate),
        3 => tile::<MR, 0, 3, NR>(k, nr, a_panel, b, ldb, c, ldc, accumulate),
        MR => tile::<MR, 0, MR, NR>(k, nr, a_panel, b, ldb, c, ldc, accumulate),
        _ => panic!("microkernel_clipped: mr {mr} outside 1..={MR}"),
    }
}

/// Pack an `mr × k` slab of row-major `A` (leading dimension `lda`) into
/// the k-major panel layout, zero-padding rows `mr..MR`. A full-height
/// slab gathers from `MR` row slices cut once, so the transposing loop
/// carries no per-element bounds check (half of SYRK's packing time).
///
/// # Panics
/// If `a` or `panel` is shorter than the `mr`/`k`/`lda` layout requires.
#[inline]
pub fn pack_a_panel<const MR: usize>(
    a: &[f32],
    lda: usize,
    mr: usize,
    k: usize,
    panel: &mut [f32],
) {
    debug_assert!(mr <= MR);
    debug_assert!(panel.len() >= k * MR, "pack_a_panel: panel too short");
    if mr == MR {
        let rows: [&[f32]; MR] = std::array::from_fn(|i| &a[i * lda..i * lda + k]);
        for (l, dst) in panel[..k * MR].chunks_exact_mut(MR).enumerate() {
            for i in 0..MR {
                dst[i] = rows[i][l];
            }
        }
    } else {
        for l in 0..k {
            let dst = &mut panel[l * MR..(l + 1) * MR];
            for i in 0..mr {
                dst[i] = a[i * lda + l];
            }
            dst[mr..MR].fill(0.0);
        }
    }
}

/// Pack a `k × nr` slab of row-major `B` (leading dimension `ldb`) into the
/// panel layout, zero-padding columns `nr..NR`. A full-width slab moves
/// constant-length rows (a runtime-length `copy_from_slice` is a `memcpy`
/// call per 64-byte row — DESIGN.md §8).
///
/// # Panics
/// If `b` or `panel` is shorter than the `k`/`nr`/`ldb` layout requires.
#[inline]
pub fn pack_b_panel<const NR: usize>(
    b: &[f32],
    ldb: usize,
    k: usize,
    nr: usize,
    panel: &mut [f32],
) {
    debug_assert!(nr <= NR);
    debug_assert!(panel.len() >= k * NR, "pack_b_panel: panel too short");
    for (l, dst) in panel[..k * NR].chunks_exact_mut(NR).enumerate() {
        if nr == NR {
            dst.copy_from_slice(&b[l * ldb..l * ldb + NR]);
        } else {
            dst[..nr].copy_from_slice(&b[l * ldb..l * ldb + nr]);
            dst[nr..].fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm_ref::gemm_ref;

    fn dense_tile<const MR: usize, const NR: usize>(k: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..MR * k).map(|i| ((i * 7 + 3) % 11) as f32 - 5.0).collect();
        let b: Vec<f32> = (0..k * NR).map(|i| ((i * 5 + 1) % 13) as f32 - 6.0).collect();
        (a, b)
    }

    fn run_micro<const MR: usize, const NR: usize>(k: usize) {
        let (a, b) = dense_tile::<MR, NR>(k);
        let mut a_panel = vec![0.0; k * MR];
        let mut b_panel = vec![0.0; k * NR];
        pack_a_panel::<MR>(&a, k, MR, k, &mut a_panel);
        pack_b_panel::<NR>(&b, NR, k, NR, &mut b_panel);

        let mut c = vec![0.0; MR * NR];
        microkernel::<MR, NR>(k, &a_panel, &b_panel, &mut c, NR, false);

        let mut expect = vec![0.0; MR * NR];
        gemm_ref(MR, NR, k, &a, k, &b, NR, &mut expect, NR);
        for (g, e) in c.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-3, "{g} vs {e}");
        }
    }

    #[test]
    fn tile_8x16_matches_reference() {
        run_micro::<8, 16>(96);
    }

    #[test]
    fn tile_9x16_matches_reference() {
        // The paper's 16x9x96 shape (transposed naming: 9 C-rows of 16 lanes).
        run_micro::<9, 16>(96);
    }

    #[test]
    fn tile_with_tiny_k() {
        run_micro::<8, 16>(1);
        run_micro::<8, 16>(12); // FCMA's epoch length
    }

    #[test]
    fn accumulate_adds_to_existing() {
        let k = 4;
        let (a, b) = dense_tile::<4, 16>(k);
        let mut a_panel = vec![0.0; k * 4];
        let mut b_panel = vec![0.0; k * 16];
        pack_a_panel::<4>(&a, k, 4, k, &mut a_panel);
        pack_b_panel::<16>(&b, 16, k, 16, &mut b_panel);

        let mut c = vec![1.0; 4 * 16];
        microkernel::<4, 16>(k, &a_panel, &b_panel, &mut c, 16, true);
        let mut once = vec![0.0; 4 * 16];
        microkernel::<4, 16>(k, &a_panel, &b_panel, &mut once, 16, false);
        for (acc, base) in c.iter().zip(&once) {
            assert!((acc - (base + 1.0)).abs() < 1e-4);
        }
    }

    fn pseudo(n: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(7);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1 << 24) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn clipped_tile_is_the_full_tile_bit_for_bit_and_touches_nothing_else() {
        let ldc = NR + 3;
        let prefill: Vec<f32> = (0..MR * ldc).map(|i| 0.25 + i as f32).collect();
        for k in [0usize, 1, 12, 96] {
            for mr in 1..=MR {
                for nr in 1..=NR {
                    let a = pseudo(mr * k, 31 + k as u32);
                    let b = pseudo(k * nr, 57 + k as u32);
                    let mut a_panel = vec![0.0; k * MR];
                    let mut b_panel = vec![0.0; k * NR];
                    pack_a_panel::<MR>(&a, k, mr, k, &mut a_panel);
                    pack_b_panel::<NR>(&b, nr, k, nr, &mut b_panel);
                    // The clipped tile gets an A pack whose rows mr..MR
                    // are poison: reading them would surface as NaN.
                    let mut poisoned = a_panel.clone();
                    for step in poisoned.chunks_exact_mut(MR) {
                        step[mr..].fill(f32::NAN);
                    }
                    for accumulate in [false, true] {
                        let mut full = prefill.clone();
                        microkernel::<MR, NR>(k, &a_panel, &b_panel, &mut full, ldc, accumulate);
                        let mut got = prefill.clone();
                        microkernel_clipped(
                            k, mr, nr, &poisoned, &b_panel, NR, &mut got, ldc, accumulate,
                        );
                        for (idx, (g, p)) in got.iter().zip(&prefill).enumerate() {
                            let (i, j) = (idx / ldc, idx % ldc);
                            let what = format!("k={k} mr={mr} nr={nr} acc={accumulate} ({i},{j})");
                            if i < mr && j < nr {
                                let mut sum = 0.0f32;
                                for l in 0..k {
                                    sum += a[i * k + l] * b[l * nr + j];
                                }
                                let want = if accumulate { p + sum } else { sum };
                                assert_eq!(g.to_bits(), want.to_bits(), "{what}: scalar sum");
                                assert_eq!(g.to_bits(), full[idx].to_bits(), "{what}: full tile");
                            } else {
                                assert_eq!(g.to_bits(), p.to_bits(), "{what}: written outside");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn b_read_in_place_matches_the_packed_panel_bit_for_bit() {
        // The correlation strip hands the kernel a window of a wide
        // row-major matrix instead of a packed panel.
        let (k, ldb, col0) = (12usize, 45usize, 7usize);
        let a = pseudo(MR * k, 3);
        let wide = pseudo(k * ldb, 4);
        let mut a_panel = vec![0.0; k * MR];
        let mut b_panel = vec![0.0; k * NR];
        pack_a_panel::<MR>(&a, k, MR, k, &mut a_panel);
        pack_b_panel::<NR>(&wide[col0..], ldb, k, NR, &mut b_panel);
        for mr in 1..=MR {
            let mut packed = vec![f32::NAN; MR * NR];
            let mut in_place = vec![f32::NAN; MR * NR];
            microkernel_clipped(k, mr, NR, &a_panel, &b_panel, NR, &mut packed, NR, false);
            microkernel_clipped(k, mr, NR, &a_panel, &wide[col0..], ldb, &mut in_place, NR, false);
            for (p, q) in packed.iter().zip(&in_place) {
                assert_eq!(p.to_bits(), q.to_bits(), "mr={mr}");
            }
        }
    }

    #[test]
    fn packing_zero_pads_fringes() {
        let a = [1.0, 2.0, 3.0, 4.0]; // 2x2
        let mut panel = vec![9.0; 2 * 4];
        pack_a_panel::<4>(&a, 2, 2, 2, &mut panel);
        // k-major: step l=0 -> [A00, A10, 0, 0], l=1 -> [A01, A11, 0, 0]
        assert_eq!(panel, vec![1.0, 3.0, 0.0, 0.0, 2.0, 4.0, 0.0, 0.0]);
    }
}
