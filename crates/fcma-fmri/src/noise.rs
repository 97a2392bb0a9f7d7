//! Noise processes for synthetic fMRI time series.
//!
//! Real BOLD signal rides on structured noise: slow scanner drift,
//! temporally autocorrelated physiological noise, and thermal white
//! noise. The synthetic generator composes these three processes so the
//! normalization and correlation stages face realistic (non-iid) inputs.

use rand::Rng;

/// First-order autoregressive process: `x_t = phi·x_{t−1} + ε_t` with
/// `ε_t ~ N(0, sigma²)`, approximating physiological noise
/// autocorrelation in BOLD data (phi ≈ 0.3–0.6 at TR ≈ 1.5 s).
#[derive(Debug, Clone, Copy)]
pub struct Ar1 {
    /// Autoregressive coefficient, `|phi| < 1`.
    pub phi: f32,
    /// Innovation standard deviation.
    pub sigma: f32,
}

impl Ar1 {
    /// Generate `n` samples, starting from the stationary distribution.
    ///
    /// # Panics
    /// If `|phi| >= 1` (the process has no stationary distribution).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f32> {
        assert!(self.phi.abs() < 1.0, "Ar1: |phi| must be < 1, got {}", self.phi);
        let mut out = Vec::with_capacity(n);
        if n == 0 {
            return out;
        }
        // Stationary variance sigma² / (1 − phi²).
        let stat_sd = self.sigma / (1.0 - self.phi * self.phi).sqrt();
        let mut x = gaussian(rng) * stat_sd;
        out.push(x);
        for _ in 1..n {
            x = self.phi * x + gaussian(rng) * self.sigma;
            out.push(x);
        }
        out
    }
}

/// Slow linear + sinusoidal scanner drift.
#[derive(Debug, Clone, Copy)]
pub struct Drift {
    /// Total linear drift across the scan, in signal units.
    pub linear: f32,
    /// Amplitude of the slow sinusoidal component.
    pub sin_amp: f32,
    /// Number of sinusoid cycles across the scan.
    pub sin_cycles: f32,
}

impl Drift {
    /// Evaluate the drift at time `t` of `n` total points, with a
    /// per-voxel phase offset so voxels don't share an artifactual
    /// common component.
    pub fn at(&self, t: usize, n: usize, phase: f32) -> f32 {
        if n <= 1 {
            return 0.0;
        }
        let frac = t as f32 / (n - 1) as f32;
        self.linear * frac
            + self.sin_amp * (2.0 * std::f32::consts::PI * (self.sin_cycles * frac + phase)).sin()
    }
}

/// Standard normal sample via Box–Muller (keeps us independent of
/// `rand_distr`, which is outside the approved dependency set).
pub(crate) fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    loop {
        let u1: f32 = rng.random::<f32>();
        if u1 <= f32::MIN_POSITIVE {
            continue;
        }
        let u2: f32 = rng.random::<f32>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn gaussian_has_roughly_standard_moments() {
        let mut r = rng(1);
        let xs: Vec<f32> = (0..20_000).map(|_| gaussian(&mut r)).collect();
        let mean = xs.iter().sum::<f32>() / xs.len() as f32;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / xs.len() as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn ar1_is_autocorrelated_at_lag_one() {
        let mut r = rng(2);
        let phi = 0.6;
        let xs = Ar1 { phi, sigma: 1.0 }.generate(&mut r, 50_000);
        let mean = xs.iter().sum::<f32>() / xs.len() as f32;
        let var: f32 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / xs.len() as f32;
        let lag1: f32 = xs.windows(2).map(|w| (w[0] - mean) * (w[1] - mean)).sum::<f32>()
            / (xs.len() - 1) as f32;
        let rho = lag1 / var;
        assert!((rho - phi).abs() < 0.05, "lag-1 autocorr {rho}, expected ~{phi}");
    }

    #[test]
    fn ar1_zero_phi_is_white() {
        let mut r = rng(3);
        let xs = Ar1 { phi: 0.0, sigma: 2.0 }.generate(&mut r, 30_000);
        let mean = xs.iter().sum::<f32>() / xs.len() as f32;
        let var: f32 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / xs.len() as f32;
        let lag1: f32 = xs.windows(2).map(|w| (w[0] - mean) * (w[1] - mean)).sum::<f32>()
            / (xs.len() - 1) as f32;
        assert!((lag1 / var).abs() < 0.03);
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn ar1_generate_lengths() {
        let mut r = rng(4);
        let gen = Ar1 { phi: 0.3, sigma: 1.0 };
        assert_eq!(gen.generate(&mut r, 0).len(), 0);
        assert_eq!(gen.generate(&mut r, 1).len(), 1);
        assert_eq!(gen.generate(&mut r, 17).len(), 17);
    }

    #[test]
    #[should_panic(expected = "|phi| must be < 1")]
    fn ar1_rejects_nonstationary_phi() {
        let mut r = rng(5);
        let _ = Ar1 { phi: 1.0, sigma: 1.0 }.generate(&mut r, 4);
    }

    #[test]
    fn drift_endpoints() {
        let d = Drift { linear: 2.0, sin_amp: 0.0, sin_cycles: 1.0 };
        assert_eq!(d.at(0, 100, 0.0), 0.0);
        assert!((d.at(99, 100, 0.0) - 2.0).abs() < 1e-6);
        // degenerate scan
        assert_eq!(d.at(0, 1, 0.0), 0.0);
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let a = Ar1 { phi: 0.4, sigma: 1.5 }.generate(&mut rng(42), 64);
        let b = Ar1 { phi: 0.4, sigma: 1.5 }.generate(&mut rng(42), 64);
        assert_eq!(a, b);
    }
}
