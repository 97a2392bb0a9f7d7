//! # fcma-linalg — dense linear algebra substrate for FCMA
//!
//! The SC'15 FCMA paper replaces Intel MKL's generic GEMM/SYRK with
//! shape-specialized kernels for the tall-skinny matrices that dominate
//! full-correlation-matrix analysis. This crate provides the Rust
//! equivalents of the whole cast:
//!
//! * [`Mat`] — the row-major `f32` matrix everything operates on;
//! * [`gemm_ref::gemm_ref`] / [`gemm_ref::syrk_ref`] — triple-loop oracles;
//! * [`gemm_blocked`](crate::gemm_blocked::gemm_blocked) — a Goto-style cache-blocked generic GEMM, the
//!   stand-in for MKL `cblas_sgemm` in the paper's baseline;
//! * [`tall_skinny`] — the paper's optimized stage-1 correlation kernel
//!   (L2-sized column strips, packed panels, interleaved-by-voxel output);
//! * [`syrk`] — the paper's optimized stage-3 kernel-matrix SYRK
//!   (96-deep panels, register microkernel, one caller-owned scratch per
//!   thread; no cross-thread reduction), also callable strip by strip;
//! * [`microkernel`] — the shared register-tile microkernels;
//! * [`norms`] — epoch normalization (Eq. 2), Fisher transform (Eq. 4),
//!   z-scoring (Eq. 5) and vector primitives.
//!
//! Every optimized kernel is property-tested against the reference
//! implementations.

pub mod cast;
pub mod gemm_blocked;
pub mod gemm_ref;
pub mod invariant;
pub mod mat;
pub mod microkernel;
pub mod norms;
pub mod ops;
pub mod syrk;
pub mod tall_skinny;

pub use cast::{f32_from_f64, f32_from_usize, f64_from_usize};
pub use gemm_blocked::{gemm_blocked, gemm_blocked_scratch, BlockSizes, GemmScratch};
pub use gemm_ref::{gemm_ref, syrk_ref};
pub use mat::Mat;
pub use norms::{
    dot, epoch_scale, fast_ln, fisher_z, fisher_z_slice, mean_var_onepass, normalize_epoch, zscore,
    zscore_with,
};
pub use ops::{add_scaled, col_means, gemv, gemv_t, row_means, scale};
pub use syrk::{
    syrk_accumulate, syrk_dot, syrk_mirror, syrk_panel_scratch, syrk_zero, SyrkScratch, PANEL_K,
};
pub use tall_skinny::{
    corr_reference, corr_tall_skinny, corr_tile_block_rows, CorrLayout, EpochPair, StripScratch,
    TallSkinnyOpts,
};
