//! Start-up check that this CPU has the vector features the binary was
//! compiled with.
//!
//! The tree builds x86-64 at the `x86-64-v3` level (`.cargo/config.toml`),
//! so on an older CPU the first AVX instruction would end the process
//! with SIGILL. `main` calls [`check`] before anything else and exits with
//! a one-line error instead.
//!
//! `is_x86_feature_detected!` cannot be the test: for a feature enabled at
//! compile time the macro folds to `true` without asking the CPU. The
//! check reads CPUID itself.

use std::fmt;

/// A feature the build enabled and the CPU does not report.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct MissingCpuFeature(&'static str);

impl fmt::Display for MissingCpuFeature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "this binary was built with `{0}` enabled and the CPU does not support it; \
             rebuild for this machine with `RUSTFLAGS=\"\" cargo build --release`",
            self.0
        )
    }
}

impl std::error::Error for MissingCpuFeature {}

/// The first `(name, compiled in, present on the CPU)` feature that the
/// build enabled and the CPU lacks.
fn first_missing(features: &[(&'static str, bool, bool)]) -> Result<(), MissingCpuFeature> {
    match features.iter().find(|(_, compiled, present)| *compiled && !*present) {
        Some((name, ..)) => Err(MissingCpuFeature(name)),
        None => Ok(()),
    }
}

/// Refuse to go on if the build level exceeds the CPU.
#[cfg(target_arch = "x86_64")]
pub(crate) fn check() -> Result<(), MissingCpuFeature> {
    use std::arch::x86_64::{__cpuid, __cpuid_count};

    let max_leaf = __cpuid(0).eax;
    let leaf1 = __cpuid(1).ecx;
    let leaf7 = if max_leaf >= 7 { __cpuid_count(7, 0).ebx } else { 0 };
    let ext1 = if __cpuid(0x8000_0000).eax > 0x8000_0000 { __cpuid(0x8000_0001).ecx } else { 0 };
    let bit = |reg: u32, n: u32| reg >> n & 1 == 1;
    // The AVX family also needs the OS to save the wide registers.
    let os_avx = bit(leaf1, 27);
    // Everything x86-64-v3 adds to the baseline.
    first_missing(&[
        ("avx", cfg!(target_feature = "avx"), os_avx && bit(leaf1, 28)),
        ("avx2", cfg!(target_feature = "avx2"), os_avx && bit(leaf7, 5)),
        ("fma", cfg!(target_feature = "fma"), os_avx && bit(leaf1, 12)),
        ("f16c", cfg!(target_feature = "f16c"), os_avx && bit(leaf1, 29)),
        ("bmi1", cfg!(target_feature = "bmi1"), bit(leaf7, 3)),
        ("bmi2", cfg!(target_feature = "bmi2"), bit(leaf7, 8)),
        ("lzcnt", cfg!(target_feature = "lzcnt"), bit(ext1, 5)),
        ("movbe", cfg!(target_feature = "movbe"), bit(leaf1, 22)),
    ])
}

/// Other architectures are built at their baseline.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn check() -> Result<(), MissingCpuFeature> {
    first_missing(&[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_build_host_passes_its_own_check() {
        assert_eq!(check(), Ok(()));
    }

    #[test]
    fn a_compiled_feature_the_cpu_lacks_is_named_on_one_line() {
        let features = [("avx", true, true), ("avx2", true, false), ("fma", true, false)];
        let err = first_missing(&features).unwrap_err();
        assert_eq!(err, MissingCpuFeature("avx2"));
        let line = err.to_string();
        assert!(line.contains("`avx2`") && !line.contains('\n'), "{line}");
    }

    #[test]
    fn a_feature_the_build_did_not_enable_is_not_required() {
        assert_eq!(first_missing(&[("avx2", false, false), ("fma", false, false)]), Ok(()));
    }
}
