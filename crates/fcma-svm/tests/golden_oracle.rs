//! Cross-commit oracle for the dense SMO solver and the LOSO driver.
//!
//! The other determinism tests compare a run with itself; this one pins
//! the solver's *bits* across builds. Every hash below was captured at
//! commit 6015179 (the last tree with the scalar `select_working_set`
//! loop); a rewrite of `smo::solve` or `cv` that moves one α bit, one
//! iteration or one fold accuracy fails here. Regenerate only for a
//! change that is meant to alter the selected pair sequence: the failure
//! message prints the table to paste.

use fcma_linalg::{dot, Mat};
use fcma_svm::smo::{solve, SmoParams, WssMode};
use fcma_svm::{loso_cross_validate, CvResult, KernelMatrix, SolverKind};

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn count(&mut self, v: usize) {
        self.u64(u64::try_from(v).expect("count fits u64"));
    }
}

/// The issue's problem recipe: checkerboard-of-fives targets and an
/// `l × n` LCG feature matrix, `K[a][b] = x_max(a,b) · x_min(a,b)` so the
/// kernel is symmetric to the bit.
fn problem(l: usize, n: usize, scale: f32, seed: u64) -> (Mat, Vec<f32>) {
    let y: Vec<f32> =
        (0..l).map(|i| if (i % 2 == 0) ^ ((i / 5) % 2 == 0) { 1.0 } else { -1.0 }).collect();
    let mut s = seed;
    let x = Mat::from_fn(l, n, |_, _| {
        s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        scale * (((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0)
    });
    let k = Mat::from_fn(l, l, |a, b| dot(x.row(a.max(b)), x.row(a.min(b))));
    (k, y)
}

const MODES: [WssMode; 3] = [WssMode::FirstOrder, WssMode::SecondOrder, WssMode::Adaptive];
const CS: [f32; 3] = [0.01, 1.0, 100.0];

/// One hash per `l`: three modes × three `C`, every result field.
fn solver_hash(l: usize, seed: u64) -> u64 {
    let (k, y) = problem(l, 10, 1.0, seed);
    let mut h = Fnv::new();
    for wss in MODES {
        for c in CS {
            let r = solve(&k, &y, &SmoParams { c, wss, ..Default::default() });
            for a in &r.alpha {
                h.u32(a.to_bits());
            }
            h.u32(r.rho.to_bits());
            h.u64(r.objective.to_bits());
            h.count(r.iterations);
            h.count(r.wss.first_order_iters);
            h.count(r.wss.second_order_iters);
        }
    }
    h.0
}

/// `(l, seed, hash)`: every lane remainder of the 8-wide passes, the
/// paper's fold size (522) and one below a power of two. The seed is
/// `7000 + l`, or `8000 + l` where that one trips the parent's
/// `clamp(lo, hi)` panic (the regression tests in `smo.rs` cover those).
const SOLVER_GOLDEN: [(usize, u64, u64); 13] = [
    (2, 7_002, 0x9336_9d07_d6c0_1188),
    (7, 7_007, 0xc3c1_8612_c558_7805),
    (8, 7_008, 0x77ac_17ce_7c33_74ce),
    (9, 7_009, 0xb4ac_73ee_ace6_c97a),
    (16, 7_016, 0x7239_8656_4d09_768f),
    (17, 7_017, 0xf8c9_3271_ec7b_ecb7),
    (33, 7_033, 0x6a6b_d82e_64c6_a7da),
    (64, 7_064, 0x06fc_9c84_a769_5457),
    (100, 7_100, 0x1bef_0525_13aa_c009),
    (127, 8_127, 0xab2e_2de9_7978_7a08),
    (204, 8_204, 0x53ee_2fd7_845a_fb33),
    (255, 7_255, 0x566c_99d3_a6a8_62cd),
    (522, 7_522, 0x1c6f_7863_ed37_1b0c),
];

#[test]
fn solver_bits_match_the_parent_commit() {
    let got: Vec<(usize, u64, u64)> =
        SOLVER_GOLDEN.iter().map(|&(l, seed, _)| (l, seed, solver_hash(l, seed))).collect();
    let table: String =
        got.iter().map(|(l, seed, h)| format!("    ({l}, {seed}, {h:#018x}),\n")).collect();
    assert!(got == SOLVER_GOLDEN, "solver bits moved; actual table:\n{table}");
}

fn cv_hash(h: &mut Fnv, r: &CvResult) {
    h.u64(r.accuracy.to_bits());
    for f in &r.fold_accuracies {
        h.u64(f.to_bits());
    }
    h.count(r.total_iterations);
}

/// `CvResult` bits for the two dense solvers over contiguous subjects
/// (offline LOSO: two training runs per fold) and interleaved groups (the
/// online stratified folds: many runs per fold). That a pooled run equals
/// this serial one is `cv.rs`'s own test.
fn cv_hashes() -> [u64; 2] {
    let (k, y) = problem(96, 48, 1.0, 4_242);
    let kernel = KernelMatrix::from_mat(k);
    let contiguous: Vec<usize> = (0..96).map(|t| t / 16).collect();
    let interleaved: Vec<usize> = (0..96).map(|t| t % 4).collect();
    [contiguous, interleaved].map(|groups| {
        let mut h = Fnv::new();
        for solver in [
            SolverKind::PhiSvm(SmoParams::default()),
            SolverKind::OptimizedLibSvm(SmoParams { c: 10.0, ..Default::default() }),
        ] {
            cv_hash(&mut h, &loso_cross_validate(&kernel, &y, &groups, &solver));
        }
        h.0
    })
}

const CV_GOLDEN: [u64; 2] = [0xf6aa_8f45_bdd3_c52f, 0xfa42_4612_5450_6b4d];

#[test]
fn cv_bits_match_the_parent_commit() {
    let got = cv_hashes();
    assert!(got == CV_GOLDEN, "CvResult bits moved; actual: [{:#018x}, {:#018x}]", got[0], got[1]);
}
