//! Checked numeric conversions for kernel code.
//!
//! `clippy::as_conversions` bans bare `as` casts in the kernel crates
//! because `as` silently truncates and saturates. These helpers are the
//! sanctioned funnel: each contains exactly one documented, debug-asserted
//! `as` site, so every count-to-float conversion in the kernels states
//! (and checks, in debug builds) its precision contract instead of
//! relying on the reader to re-derive it.

/// Largest integer every `f32` can represent exactly (2^24).
pub const F32_EXACT_MAX: usize = 1 << 24;

/// Convert a count to `f32`, exactly.
///
/// Counts in FCMA are voxel/epoch/timepoint cardinalities — at most a
/// few hundred thousand — far below 2^24, where `f32` stops being exact.
///
/// # Panics
/// Debug builds panic if `n` exceeds [`F32_EXACT_MAX`].
#[inline]
#[expect(clippy::as_conversions, reason = "the sanctioned cast site; exactness debug-asserted")]
pub fn f32_from_usize(n: usize) -> f32 {
    debug_assert!(n <= F32_EXACT_MAX, "f32_from_usize: {n} is not exactly representable");
    n as f32
}

/// Convert a count to `f64`, exactly.
///
/// # Panics
/// Debug builds panic if `n` exceeds 2^53 (exact `f64` integer range).
#[inline]
#[expect(clippy::as_conversions, reason = "the sanctioned cast site; exactness debug-asserted")]
pub fn f64_from_usize(n: usize) -> f64 {
    debug_assert!(n <= (1 << 53), "f64_from_usize: {n} is not exactly representable");
    n as f64
}

/// Round a double to single precision (intentional narrowing).
///
/// Used where a reduction deliberately accumulates in `f64` and hands a
/// rounded `f32` back to the single-precision pipeline; the rounding is
/// the whole point, so this is a rename of `as f32` that marks intent.
#[inline]
#[expect(clippy::as_conversions, reason = "intentional rounding from a widened accumulator")]
pub fn f32_from_f64(x: f64) -> f32 {
    x as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usize_conversions_are_exact_in_range() {
        for n in [0usize, 1, 12, 204, 34470, F32_EXACT_MAX] {
            assert_eq!(f32_from_usize(n) as usize, n);
            assert_eq!(f64_from_usize(n) as usize, n);
        }
    }

    #[test]
    #[should_panic(expected = "not exactly representable")]
    #[cfg(debug_assertions)]
    fn f32_conversion_rejects_huge_counts() {
        let _ = f32_from_usize(F32_EXACT_MAX + 1);
    }

    #[test]
    fn f64_to_f32_rounds() {
        assert_eq!(f32_from_f64(1.5), 1.5);
        let narrowed = f32_from_f64(std::f64::consts::PI);
        assert_eq!(narrowed, std::f32::consts::PI);
    }
}
