//! Performance-counter abstraction mirroring the vTune quantities the
//! paper reports (Tables 1, 6, 7, 8): memory references, L2 misses,
//! floating-point work, and vectorization intensity.

use std::ops::{Add, AddAssign};

/// Counter bundle for one kernel execution.
///
/// Semantics follow the paper's vTune usage:
/// * `mem_refs` — retired memory-access *instructions* (a 16-wide vector
///   load is one reference, as is a scalar load);
/// * `l2_misses` — line-granularity misses in the per-core L2 model;
/// * `flops` — useful floating-point operations (an FMA counts as 2);
/// * `vpu_instructions` / `vector_elements` — executed VPU instructions
///   and the number of elements they processed; their ratio is the
///   paper's *vectorization intensity* (§2: "the number of vectorized
///   elements divided by the number of executed VPU instructions").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Memory-access instructions.
    pub mem_refs: u64,
    /// L2 cache line misses.
    pub l2_misses: u64,
    /// Floating point operations.
    pub flops: u64,
    /// VPU instructions executed.
    pub vpu_instructions: u64,
    /// Total elements processed by those VPU instructions.
    pub vector_elements: u64,
}

impl KernelCounters {
    /// Vectorization intensity: elements per VPU instruction (peak 16 on
    /// the Phi). Zero when no VPU instructions ran.
    pub fn vector_intensity(&self) -> f64 {
        if self.vpu_instructions == 0 {
            0.0
        } else {
            self.vector_elements as f64 / self.vpu_instructions as f64
        }
    }

    /// GFLOP/s given an execution time in milliseconds.
    pub fn gflops(&self, elapsed_ms: f64) -> f64 {
        if elapsed_ms <= 0.0 {
            return 0.0;
        }
        self.flops as f64 / (elapsed_ms * 1e-3) / 1e9
    }
}

impl Add for KernelCounters {
    type Output = KernelCounters;
    fn add(self, o: KernelCounters) -> KernelCounters {
        KernelCounters {
            mem_refs: self.mem_refs + o.mem_refs,
            l2_misses: self.l2_misses + o.l2_misses,
            flops: self.flops + o.flops,
            vpu_instructions: self.vpu_instructions + o.vpu_instructions,
            vector_elements: self.vector_elements + o.vector_elements,
        }
    }
}

impl AddAssign for KernelCounters {
    fn add_assign(&mut self, o: KernelCounters) {
        *self = *self + o;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_intensity_basic() {
        let c = KernelCounters { vpu_instructions: 10, vector_elements: 160, ..Default::default() };
        assert_eq!(c.vector_intensity(), 16.0);
        assert_eq!(KernelCounters::default().vector_intensity(), 0.0);
    }

    #[test]
    fn gflops_computation() {
        let c = KernelCounters { flops: 2_000_000_000, ..Default::default() };
        assert!((c.gflops(1000.0) - 2.0).abs() < 1e-9);
        assert_eq!(c.gflops(0.0), 0.0);
    }

    #[test]
    fn addition_accumulates_fieldwise() {
        let a = KernelCounters {
            mem_refs: 1,
            l2_misses: 2,
            flops: 3,
            vpu_instructions: 4,
            vector_elements: 5,
        };
        let mut b = a;
        b += a;
        assert_eq!(b, a + a);
        assert_eq!(b.mem_refs, 2);
        assert_eq!(b.vector_elements, 10);
    }
}
