//! Hemodynamic response function (HRF) modeling.
//!
//! BOLD signal is not neural activity itself but activity convolved with
//! a slow hemodynamic response (~6 s to peak, ~12 s undershoot). The
//! synthetic generator can convolve its planted latent signals with the
//! canonical double-gamma HRF so the temporal statistics of the data
//! match what an fMRI scanner actually measures — epochs bleed into the
//! inter-epoch gaps, exactly the nuisance real FCMA preprocessing faces.

/// The canonical double-gamma HRF (SPM-style parameters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hrf {
    /// Time-to-peak of the positive lobe, seconds (canonical 6).
    pub peak_delay_s: f64,
    /// Time-to-peak of the undershoot, seconds (canonical 16).
    pub undershoot_delay_s: f64,
    /// Dispersion of both lobes, seconds (canonical 1).
    pub dispersion_s: f64,
    /// Undershoot amplitude ratio (canonical 1/6).
    pub undershoot_ratio: f64,
    /// Repetition time: seconds per acquired volume.
    pub tr_s: f64,
}

impl Default for Hrf {
    fn default() -> Self {
        Hrf {
            peak_delay_s: 6.0,
            undershoot_delay_s: 16.0,
            dispersion_s: 1.0,
            undershoot_ratio: 1.0 / 6.0,
            tr_s: 1.5, // the paper's scanner: a volume every 1.5 s
        }
    }
}

/// Log-gamma via the Lanczos approximation (|error| < 1e-10 for x > 0).
fn ln_gamma(x: f64) -> f64 {
    // Lanczos g=7, n=9 coefficients.
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_57e-6,
        1.505_632_735_149_311e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = C[0];
    for (i, &c) in C.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Gamma pdf `t^(k-1) e^(-t/θ) / (Γ(k) θ^k)` with `k = delay/disp`,
/// `θ = disp` (the SPM parameterization).
fn gamma_shape(t: f64, delay: f64, dispersion: f64) -> f64 {
    if t <= 0.0 {
        return 0.0;
    }
    let k = delay / dispersion;
    // Work in log space to avoid overflow for large k.
    let log_v = (k - 1.0) * t.ln() - t / dispersion - ln_gamma(k) - k * dispersion.ln();
    log_v.exp()
}

impl Hrf {
    /// Sample the HRF kernel at the TR grid, truncated at 32 s, peak
    /// normalized to 1.
    ///
    /// # Panics
    /// Panics on non-positive TR or dispersion.
    pub fn kernel(&self) -> Vec<f32> {
        assert!(self.tr_s > 0.0, "Hrf: TR must be positive");
        assert!(self.dispersion_s > 0.0, "Hrf: dispersion must be positive");
        let n = (32.0 / self.tr_s).ceil() as usize + 1;
        let mut k: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 * self.tr_s;
                gamma_shape(t, self.peak_delay_s, self.dispersion_s)
                    - self.undershoot_ratio
                        * gamma_shape(t, self.undershoot_delay_s, self.dispersion_s)
            })
            .collect();
        let peak = k.iter().copied().fold(0.0f64, f64::max);
        assert!(peak > 0.0, "Hrf: degenerate kernel");
        for v in &mut k {
            *v /= peak;
        }
        k.into_iter().map(|v| v as f32).collect()
    }

    /// Convolve a neural time series with the HRF (causal, same length:
    /// output `t` depends on inputs `≤ t`).
    // Cannot panic: j ranges over take(t + 1), so x[t - j] is in bounds
    pub(crate) fn convolve(&self, x: &[f32]) -> Vec<f32> {
        let k = self.kernel();
        let mut out = vec![0.0f32; x.len()];
        for (t, o) in out.iter_mut().enumerate() {
            let mut s = 0.0f32;
            for (j, &kj) in k.iter().enumerate().take(t + 1) {
                s += kj * x[t - j];
            }
            *o = s;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_peaks_near_six_seconds() {
        let h = Hrf::default();
        let k = h.kernel();
        let peak_idx = k.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        let peak_time = peak_idx as f64 * h.tr_s;
        assert!((4.0..7.5).contains(&peak_time), "HRF peak at {peak_time} s (idx {peak_idx})");
        assert!((k[peak_idx] - 1.0).abs() < 1e-6, "peak not normalized");
    }

    #[test]
    fn kernel_has_an_undershoot() {
        let k = Hrf::default().kernel();
        let min = k.iter().copied().fold(f32::MAX, f32::min);
        assert!(min < -0.01, "no undershoot: min {min}");
        // Undershoot comes after the peak.
        let peak_idx = k.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        let min_idx = k.iter().enumerate().min_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert!(min_idx > peak_idx);
    }

    #[test]
    fn kernel_starts_at_zero() {
        let k = Hrf::default().kernel();
        assert_eq!(k[0], 0.0);
    }

    #[test]
    fn convolution_is_causal() {
        let h = Hrf::default();
        // Impulse at t=10: response must be zero before t=10 and follow
        // the kernel after.
        let mut x = vec![0.0f32; 40];
        x[10] = 1.0;
        let y = h.convolve(&x);
        for (t, &before) in y.iter().enumerate().take(10) {
            assert_eq!(before, 0.0, "non-causal response at t={t}");
        }
        let k = h.kernel();
        for t in 10..40 {
            let expect = if t - 10 < k.len() { k[t - 10] } else { 0.0 };
            assert!((y[t] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn convolution_is_linear() {
        let h = Hrf::default();
        let a: Vec<f32> = (0..30).map(|i| (i as f32 * 0.7).sin()).collect();
        let b: Vec<f32> = (0..30).map(|i| (i as f32 * 1.3).cos()).collect();
        let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let ya = h.convolve(&a);
        let yb = h.convolve(&b);
        let ysum = h.convolve(&sum);
        for t in 0..30 {
            assert!((ysum[t] - (ya[t] + yb[t])).abs() < 1e-4);
        }
    }

    #[test]
    fn convolution_smooths_blocks() {
        // A boxcar input: the convolved response must ramp up rather than
        // jump, and extend beyond the block's end (the bleed that makes
        // HRF data realistic).
        let h = Hrf::default();
        let mut x = vec![0.0f32; 40];
        x[5..13].fill(1.0);
        let y = h.convolve(&x);
        assert!(y[5].abs() < 0.05, "response should be delayed");
        // Just past the block end (t=14: 1.5 s after) the positive lobe is
        // still feeding through; much later the undershoot takes over.
        assert!(y[14] > 0.2, "response should persist past the block end: {}", y[14]);
        assert!(y[22] < 0.0, "late undershoot expected: {}", y[22]);
        let peak: f32 = y.iter().copied().fold(f32::MIN, f32::max);
        let peak_idx = y.iter().position(|&v| v == peak).unwrap();
        assert!(peak_idx > 8, "peak too early: {peak_idx}");
    }

    #[test]
    #[should_panic(expected = "TR must be positive")]
    fn rejects_bad_tr() {
        let _ = Hrf { tr_s: 0.0, ..Default::default() }.kernel();
    }
}
