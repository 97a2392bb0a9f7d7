//! Trace-driven validation of the analytic miss models.
//!
//! Each function replays the *exact line-granularity access pattern* of
//! one kernel variant through the set-associative cache model and returns
//! the measured statistics. Property tests pin the closed-form models in
//! [`crate::analytic`] to these traces on small shapes; the full-size
//! numbers reported by the harness are then extrapolations of a validated
//! model (full-size traces would need ~10¹⁰ simulated accesses).
//!
//! Address-space layout: operands are laid out back-to-back in a single
//! virtual address space (`A`, then per-epoch `B` matrices, then `C`,
//! then packing buffers), matching the contiguous allocations the real
//! kernels use.

use crate::analytic::{CorrShape, NormShape, SyrkShape};
use crate::cache::{CacheConfig, CacheSim, CacheStats};

const ELEM: u64 = 4;

/// Layout of the correlation stage's address space.
struct CorrSpace {
    /// Base of epoch `e`'s `k × n` brain matrix.
    b: Vec<u64>,
    /// Base of epoch `e`'s `v × k` assigned block.
    a: Vec<u64>,
    /// Base of the `(v·m) × n` interleaved output.
    c: u64,
    /// Base of the packing scratch (small, cache-resident).
    pack: u64,
}

impl CorrSpace {
    fn new(s: &CorrShape) -> Self {
        let mut cursor = 0u64;
        let mut b = Vec::new();
        let mut a = Vec::new();
        for _ in 0..s.m {
            b.push(cursor);
            cursor += s.k * s.n * ELEM;
            a.push(cursor);
            cursor += s.v * s.k * ELEM;
        }
        let c = cursor;
        cursor += s.v * s.m * s.n * ELEM;
        CorrSpace { b, a, c, pack: cursor }
    }

    /// Address of output element for (voxel, epoch, column).
    fn c_addr(&self, s: &CorrShape, v: u64, e: u64, j: u64) -> u64 {
        self.c + ((v * s.m + e) * s.n + j) * ELEM
    }
}

/// Replay the optimized tall-skinny correlation kernel (strip-major,
/// subject/epoch-inner loop order — the merged-compatible schedule of
/// Fig. 5) with strip width `strip` and voxel groups of `mr`.
///
/// Returns `(stats, c_tile_resident)` where the second component reports
/// whether the per-(voxel-group × epoch-group) output tile stayed within
/// one strip — the precondition for merging stage 2 at zero miss cost.
///
/// # Panics
/// If `strip`, `mr`, or `epochs_per_group` is zero, or the shape
/// overflows the address layout.
pub fn trace_corr_optimized(
    s: &CorrShape,
    cfg: CacheConfig,
    strip: u64,
    epochs_per_group: u64,
) -> CacheStats {
    let space = CorrSpace::new(s);
    let mut cache = CacheSim::new(cfg);
    let mr = 8u64;
    let strip = strip.max(16);
    let eg = epochs_per_group.max(1);

    let mut j0 = 0;
    while j0 < s.n {
        let w = strip.min(s.n - j0);
        // Epoch groups (one subject's worth at a time in the merged
        // schedule).
        let mut e0 = 0;
        while e0 < s.m {
            let ecnt = eg.min(s.m - e0);
            for e in e0..e0 + ecnt {
                // Pack this epoch's strip of B: read source, write pack.
                for l in 0..s.k {
                    cache.access_range(space.b[e as usize] + (l * s.n + j0) * ELEM, w * ELEM);
                }
                cache.access_range(space.pack, s.k * w * ELEM);
            }
            let mut v0 = 0;
            while v0 < s.v {
                let vg = mr.min(s.v - v0);
                for e in e0..e0 + ecnt {
                    // Read the A block for this voxel group and epoch.
                    cache.access_range(space.a[e as usize] + v0 * s.k * ELEM, vg * s.k * ELEM);
                    // Microkernel consumes the packed strip again.
                    cache.access_range(space.pack, s.k * w * ELEM);
                    // Write the C tile rows (interleaved layout).
                    for v in v0..v0 + vg {
                        cache.access_range(space.c_addr(s, v, e, j0), w * ELEM);
                    }
                }
                v0 += vg;
            }
            e0 += ecnt;
        }
        j0 += w;
    }
    cache.stats()
}

/// Replay the baseline per-epoch MKL-style GEMM: for every epoch, a
/// packing pass streams `B` into a large packed buffer, the compute pass
/// streams the packed copy back, and `C` is written — no strip blocking,
/// so nothing survives in L2 between phases.
#[cfg(test)]
fn trace_corr_mkl(s: &CorrShape, cfg: CacheConfig) -> CacheStats {
    let space = CorrSpace::new(s);
    let mut cache = CacheSim::new(cfg);
    // The packed buffer is full-size (k × n), far beyond L2.
    let packed = space.pack;
    for e in 0..s.m {
        // Pass 1: pack B (read B, write packed).
        cache.access_range(space.b[e as usize], s.k * s.n * ELEM);
        cache.access_range(packed, s.k * s.n * ELEM);
        // Pass 2: compute — stream the packed copy, read A, write C.
        cache.access_range(packed, s.k * s.n * ELEM);
        cache.access_range(space.a[e as usize], s.v * s.k * ELEM);
        for v in 0..s.v {
            cache.access_range(space.c_addr(s, v, e, 0), s.n * ELEM);
        }
    }
    cache.stats()
}

/// Replay the separated normalization (optimization #2 *off*): after the
/// whole correlation stage, two streaming passes over the `elems`-element
/// output (fused Fisher+stats pass, then z-apply).
pub fn trace_norm_separated(s: &NormShape, cfg: CacheConfig, c_base: u64) -> CacheStats {
    let mut cache = CacheSim::new(cfg);
    cache.access_range(c_base, s.elems * ELEM);
    cache.access_range(c_base, s.elems * ELEM);
    cache.stats()
}

/// Replay the merged normalization's *extra* accesses: it re-touches each
/// output tile immediately after the correlation kernel wrote it. The
/// caller supplies the same cache that just ran
/// [`trace_corr_optimized`]-style tile writes; here we model the ideal
/// schedule by touching tiles of `tile_elems` twice right after writing.
pub fn trace_norm_merged(
    s: &NormShape,
    cfg: CacheConfig,
    c_base: u64,
    tile_elems: u64,
) -> CacheStats {
    // A faithful merged trace interleaves with the producer; the model
    // here writes each tile then immediately normalizes it (read + write
    // again), which measures whether the tile size keeps everything L2
    // resident.
    let mut cache = CacheSim::new(cfg);
    let tile = tile_elems.max(1);
    let mut off = 0;
    while off < s.elems {
        let cur = tile.min(s.elems - off);
        let base = c_base + off * ELEM;
        cache.access_range(base, cur * ELEM); // producer write
        cache.access_range(base, cur * ELEM); // fisher+stats (hit if resident)
        cache.access_range(base, cur * ELEM); // z-apply (hit if resident)
        off += cur;
    }
    cache.stats()
}

/// Replay the optimized panel SYRK (one voxel): panels of `panel_k`
/// columns of `A` are packed once and consumed by every lower-triangle
/// tile; `C` stays resident.
pub fn trace_syrk_optimized(s: &SyrkShape, cfg: CacheConfig, panel_k: u64) -> CacheStats {
    let mut cache = CacheSim::new(cfg);
    let a_base = 0u64;
    let c_base = s.m * s.n * ELEM;
    let pack_base = c_base + s.m * s.m * ELEM;
    let mr = 8u64;
    let nr = 16u64;
    for _voxel in 0..s.voxels {
        let mut p = 0;
        while p < s.n {
            let kp = panel_k.min(s.n - p);
            // Pack: read A[:, p..p+kp] row by row, write the pack buffer.
            for i in 0..s.m {
                cache.access_range(a_base + (i * s.n + p) * ELEM, kp * ELEM);
            }
            cache.access_range(pack_base, s.m * kp * ELEM);
            // Tiles: consume the pack buffer (resident) and C tiles.
            let mut i0 = 0;
            while i0 < s.m {
                let mut j0 = 0;
                while j0 <= i0 && j0 < s.m {
                    // b-panel build re-reads A rows j0..j0+nr in the panel
                    // (resident after the pack read).
                    for j in j0..(j0 + nr).min(s.m) {
                        cache.access_range(a_base + (j * s.n + p) * ELEM, kp * ELEM);
                    }
                    cache.access_range(pack_base + i0 * kp * ELEM, mr.min(s.m - i0) * kp * ELEM);
                    for i in i0..(i0 + mr).min(s.m) {
                        cache.access_range(c_base + (i * s.m + j0) * ELEM, nr.min(s.m - j0) * ELEM);
                    }
                    j0 += nr;
                }
                i0 += mr;
            }
            p += kp;
        }
    }
    cache.stats()
}

/// Replay the MKL-style square-blocked SYRK: each `t × t` tile of `C`
/// streams two `t × n` slabs of `A` end to end.
#[cfg(test)]
fn trace_syrk_mkl(s: &SyrkShape, cfg: CacheConfig, t: u64) -> CacheStats {
    let mut cache = CacheSim::new(cfg);
    let a_base = 0u64;
    let c_base = s.m * s.n * ELEM;
    for _voxel in 0..s.voxels {
        let mut i0 = 0;
        while i0 < s.m {
            let ti = t.min(s.m - i0);
            let mut j0 = 0;
            while j0 <= i0 {
                let tj = t.min(s.m - j0);
                // Stream both slabs.
                for i in i0..i0 + ti {
                    cache.access_range(a_base + i * s.n * ELEM, s.n * ELEM);
                }
                for j in j0..j0 + tj {
                    cache.access_range(a_base + j * s.n * ELEM, s.n * ELEM);
                }
                for i in i0..i0 + ti {
                    cache.access_range(c_base + (i * s.m + j0) * ELEM, tj * ELEM);
                }
                j0 += t;
            }
            i0 += t;
        }
    }
    cache.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic;

    fn tiny_l2() -> CacheConfig {
        // A small L2 so reuse effects show at test scale: 32 KB, 8-way.
        CacheConfig { size_bytes: 32 * 1024, line_bytes: 64, associativity: 8 }
    }

    fn corr_shape() -> CorrShape {
        CorrShape { v: 16, n: 768, m: 8, k: 12 }
    }

    #[test]
    fn optimized_corr_misses_near_compulsory() {
        let s = corr_shape();
        let stats = trace_corr_optimized(&s, tiny_l2(), 128, 4);
        // Compulsory: B once per epoch + C once + A once (+ pack buffer).
        let compulsory =
            (s.m * s.k * s.n * ELEM + s.v * s.m * s.n * ELEM + s.m * s.v * s.k * ELEM) / 64;
        let misses = stats.misses;
        assert!(
            misses as f64 <= compulsory as f64 * 1.6,
            "optimized corr misses {misses} vs compulsory {compulsory}"
        );
    }

    #[test]
    fn mkl_corr_misses_exceed_optimized() {
        let s = corr_shape();
        let opt = trace_corr_optimized(&s, tiny_l2(), 128, 4);
        let mkl = trace_corr_mkl(&s, tiny_l2());
        assert!(
            mkl.misses as f64 > opt.misses as f64 * 1.3,
            "mkl {} vs opt {}",
            mkl.misses,
            opt.misses
        );
    }

    #[test]
    fn analytic_corr_model_tracks_trace() {
        let s = corr_shape();
        let trace = trace_corr_optimized(&s, tiny_l2(), 128, 4);
        let model = analytic::corr_optimized(&s, &crate::machine::phi_5110p()).l2_misses;
        let ratio = trace.misses as f64 / model as f64;
        assert!(
            (0.6..1.7).contains(&ratio),
            "trace {} vs model {model} (ratio {ratio})",
            trace.misses
        );
    }

    #[test]
    fn merged_norm_is_nearly_free_when_tiles_fit() {
        let s = NormShape { elems: 16 * 8 * 768 };
        // 2 KB tiles fit the 32 KB cache easily.
        let merged = trace_norm_merged(&s, tiny_l2(), 0, 512);
        let separated = trace_norm_separated(&s, tiny_l2(), 0);
        // Merged: only the producer's compulsory write-misses; the two
        // normalization touches hit.
        let compulsory = (s.elems * ELEM) / 64;
        assert!(merged.misses <= compulsory + 16, "merged misses {}", merged.misses);
        // Separated re-streams twice.
        assert!(
            separated.misses as f64 >= 1.8 * compulsory as f64,
            "separated misses {}",
            separated.misses
        );
    }

    #[test]
    fn merged_norm_thrashes_when_tiles_exceed_cache() {
        let s = NormShape { elems: 64 * 1024 };
        // Tile of 48 K elements = 192 KB >> 32 KB cache: merging stops paying.
        let big_tile = trace_norm_merged(&s, tiny_l2(), 0, 48 * 1024);
        let small_tile = trace_norm_merged(&s, tiny_l2(), 0, 1024);
        assert!(
            big_tile.misses > small_tile.misses * 2,
            "big {} vs small {}",
            big_tile.misses,
            small_tile.misses
        );
    }

    #[test]
    fn optimized_syrk_streams_a_once() {
        let s = SyrkShape { m: 24, n: 960, voxels: 1 };
        let stats = trace_syrk_optimized(&s, tiny_l2(), 96);
        let a_lines = (s.m * s.n * ELEM) / 64;
        assert!(
            stats.misses as f64 <= a_lines as f64 * 1.5,
            "syrk opt misses {} vs A stream {a_lines}",
            stats.misses
        );
    }

    #[test]
    fn mkl_syrk_streams_a_many_times() {
        let s = SyrkShape { m: 24, n: 960, voxels: 1 };
        let opt = trace_syrk_optimized(&s, tiny_l2(), 96);
        let mkl = trace_syrk_mkl(&s, tiny_l2(), 8);
        assert!(
            mkl.misses as f64 > 2.0 * opt.misses as f64,
            "mkl {} vs opt {}",
            mkl.misses,
            opt.misses
        );
    }

    #[test]
    fn analytic_syrk_model_tracks_trace() {
        let s = SyrkShape { m: 24, n: 960, voxels: 2 };
        let trace = trace_syrk_optimized(&s, tiny_l2(), 96);
        let model = analytic::syrk_optimized(&s, &crate::machine::phi_5110p()).l2_misses;
        let ratio = trace.misses as f64 / model as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "trace {} vs model {model} (ratio {ratio})",
            trace.misses
        );
    }

    #[test]
    fn analytic_mkl_syrk_model_tracks_trace() {
        let s = SyrkShape { m: 64, n: 960, voxels: 1 };
        let trace = trace_syrk_mkl(&s, tiny_l2(), 32);
        let model = analytic::syrk_mkl(&s, &crate::machine::phi_5110p()).l2_misses;
        let ratio = trace.misses as f64 / model as f64;
        assert!(
            (0.4..2.5).contains(&ratio),
            "trace {} vs model {model} (ratio {ratio})",
            trace.misses
        );
    }
}
