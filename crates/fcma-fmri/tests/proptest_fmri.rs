//! Property-based tests for the data substrate: generator invariants,
//! I/O round-trips, geometry laws, and mask algebra.

use fcma_fmri::geometry::{extract_clusters, Grid3};
use fcma_fmri::mask::VoxelMask;
use fcma_fmri::noise::{Ar1, Drift};
use fcma_fmri::synth::{Placement, SynthConfig};
use fcma_fmri::{Condition, Dataset, EpochSpec, NormalizedEpochs};
use fcma_linalg::{normalize_epoch, Mat};
use proptest::prelude::*;
use std::io::Cursor;

/// `NormalizedEpochs::from_dataset_subset` as it was before it was
/// blocked: one `normalize_epoch` per (voxel, epoch) window, scattered
/// element by element. The blocked pass must reproduce its bits.
fn normalized_per_element(d: &Dataset, keep: &[usize]) -> Vec<Mat> {
    keep.iter()
        .map(|&e| {
            let ep = d.epochs()[e];
            let mut m = Mat::zeros(ep.len, d.n_voxels());
            for v in 0..d.n_voxels() {
                let mut x = d.data().row(v)[ep.start..ep.start + ep.len].to_vec();
                normalize_epoch(&mut x);
                for (t, &val) in x.iter().enumerate() {
                    m.set(t, v, val);
                }
            }
            m
        })
        .collect()
}

/// One subject's worth of epochs of the given lengths, each preceded by
/// its gap, over `n` voxels that mix ordinary series (on a large offset,
/// where the one-pass variance cancels), constant ones and ones that
/// differ from constant in a single sample's last bits.
fn ragged_dataset(n: usize, windows: &[(usize, usize)], seed: u64) -> Dataset {
    let mut epochs = Vec::new();
    let mut t = 0;
    for (i, &(gap, len)) in windows.iter().enumerate() {
        let label = if i % 2 == 0 { Condition::A } else { Condition::B };
        epochs.push(EpochSpec { subject: 0, label, start: t + gap, len });
        t += gap + len;
    }
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 40) as f32 / (1u64 << 24) as f32
    };
    let data = Mat::from_fn(n, t + 3, |v, c| match v % 5 {
        3 => 7.25,
        4 if c % 11 == 0 => f32::from_bits(1000.0f32.to_bits() + 1),
        4 => 1000.0,
        _ => 500.0 * (v % 3) as f32 + next(),
    });
    Dataset::new(data, epochs).expect("two labelled in-range epochs of one subject")
}

fn config_strategy() -> impl Strategy<Value = SynthConfig> {
    (
        8usize..80,   // n_voxels
        1usize..4,    // n_subjects
        1usize..5,    // epochs_per_subject halves
        3usize..16,   // epoch_len
        0usize..5,    // gap
        any::<u64>(), // seed
        prop_oneof![Just(Placement::Random), Just(Placement::SphericalBlobs)],
    )
        .prop_map(|(nv, ns, eh, el, gap, seed, placement)| SynthConfig {
            n_voxels: nv,
            n_subjects: ns,
            epochs_per_subject: eh * 2,
            epoch_len: el,
            gap,
            n_informative: (nv / 4).max(2) & !1,
            coupling: 1.0,
            noise: Ar1 { phi: 0.3, sigma: 1.0 },
            drift: Drift { linear: 0.5, sin_amp: 0.2, sin_cycles: 1.0 },
            seed,
            placement,
            hrf: None,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every generated dataset validates and matches its config's shape.
    #[test]
    fn generated_datasets_are_wellformed(cfg in config_strategy()) {
        let (d, gt) = cfg.generate();
        prop_assert_eq!(d.n_voxels(), cfg.n_voxels);
        prop_assert_eq!(d.n_subjects(), cfg.n_subjects);
        prop_assert_eq!(d.n_epochs(), cfg.n_epochs());
        prop_assert_eq!(gt.informative.len(), cfg.n_informative);
        prop_assert!(gt.informative.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(gt.informative.iter().all(|&v| v < cfg.n_voxels));
        prop_assert!(d.data().as_slice().iter().all(|v| v.is_finite()));
    }

    /// Generation is a pure function of the config.
    #[test]
    fn generation_is_deterministic(cfg in config_strategy()) {
        let (d1, g1) = cfg.generate();
        let (d2, g2) = cfg.generate();
        prop_assert_eq!(g1.informative, g2.informative);
        prop_assert_eq!(d1.data().as_slice(), d2.data().as_slice());
        prop_assert_eq!(d1.epochs(), d2.epochs());
    }

    /// Activity + epoch table round-trip through the on-disk formats.
    #[test]
    fn io_roundtrip(cfg in config_strategy()) {
        let (d, _) = cfg.generate();
        let mut abuf = Vec::new();
        fcma_fmri::io::write_activity(&mut abuf, d.data()).unwrap();
        let data = fcma_fmri::io::read_activity(&mut Cursor::new(abuf)).unwrap();
        prop_assert_eq!(data.as_slice(), d.data().as_slice());

        let mut ebuf = Vec::new();
        fcma_fmri::io::write_epoch_table(&mut ebuf, d.epochs()).unwrap();
        let eps = fcma_fmri::io::read_epoch_table(&mut Cursor::new(ebuf)).unwrap();
        prop_assert_eq!(&eps[..], d.epochs());
    }

    /// Grid index/coords are a bijection; distance is a metric on sampled
    /// triples (symmetry + triangle inequality).
    #[test]
    fn grid_geometry_laws(
        nx in 1usize..8,
        ny in 1usize..8,
        nz in 1usize..8,
        seed in any::<u32>(),
    ) {
        let g = Grid3::new(nx, ny, nz);
        for i in 0..g.len() {
            let (x, y, z) = g.coords(i);
            prop_assert_eq!(g.index(x, y, z), i);
        }
        let n = g.len();
        let pick = |s: u32| (s as usize) % n;
        let (a, b, c) = (pick(seed), pick(seed.wrapping_mul(31)), pick(seed.wrapping_mul(77)));
        prop_assert!((g.distance(a, b) - g.distance(b, a)).abs() < 1e-12);
        prop_assert!(g.distance(a, c) <= g.distance(a, b) + g.distance(b, c) + 1e-9);
        prop_assert_eq!(g.distance(a, a), 0.0);
    }

    /// Cluster extraction partitions the selection: every selected voxel
    /// appears in exactly one cluster.
    #[test]
    fn clusters_partition_selection(
        nx in 2usize..7,
        ny in 2usize..7,
        sel_bits in any::<u64>(),
    ) {
        let g = Grid3::new(nx, ny, 2);
        let selected: Vec<usize> =
            (0..g.len().min(64)).filter(|&i| sel_bits & (1 << i) != 0).collect();
        let clusters = extract_clusters(&g, &selected);
        let mut all: Vec<usize> = clusters.iter().flat_map(|c| c.voxels.clone()).collect();
        all.sort_unstable();
        prop_assert_eq!(all, selected);
        // Sizes are non-increasing.
        for w in clusters.windows(2) {
            prop_assert!(w[0].len() >= w[1].len());
        }
    }

    /// Mask algebra: and() is idempotent and commutative; apply preserves
    /// row content.
    #[test]
    fn mask_laws(cfg in config_strategy(), bits in any::<u64>()) {
        let (d, _) = cfg.generate();
        let n = d.n_voxels();
        let a = VoxelMask::from_fn(n, |v| bits & (1 << (v % 64)) != 0 || v == 0);
        let b = VoxelMask::from_fn(n, |v| v % 2 == 0);
        prop_assert_eq!(a.and(&a).indices(), a.indices());
        prop_assert_eq!(a.and(&b).indices(), b.and(&a).indices());
        let (masked, map) = a.apply(&d);
        prop_assert_eq!(masked.n_voxels(), a.n_kept());
        for (ci, &oi) in map.iter().enumerate() {
            prop_assert_eq!(masked.data().row(ci), d.data().row(oi));
        }
    }

    /// The blocked normalisation equals the per-element one bit for bit:
    /// voxel counts on both sides of the block width, epoch lengths that
    /// differ within a dataset, gaps, dead and nearly dead voxels, and a
    /// `keep` that is a strict subsequence.
    #[test]
    fn blocked_normalisation_is_bit_identical_to_per_element(
        n in prop_oneof![Just(1usize), Just(63), Just(64), Just(65), Just(200)],
        windows in proptest::collection::vec((0usize..5, 2usize..=40), 3..8),
        seed in any::<u64>(),
        drop_bits in any::<u8>(),
    ) {
        let d = ragged_dataset(n, &windows, seed);
        let all: Vec<usize> = (0..d.n_epochs()).collect();
        // Always drops epoch 1, so `subset` is a strict subsequence.
        let subset: Vec<usize> =
            all.iter().copied().filter(|&e| e != 1 && drop_bits & (1 << e) == 0).collect();
        for keep in [&all, &subset] {
            let got = NormalizedEpochs::from_dataset_subset(&d, keep);
            let want = normalized_per_element(&d, keep);
            prop_assert_eq!(got.n_epochs(), want.len());
            for (i, want) in want.iter().enumerate() {
                let got = got.brain(i);
                prop_assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
                let same = got.as_slice().iter().zip(want.as_slice())
                    .all(|(g, w)| g.to_bits() == w.to_bits());
                prop_assert!(same, "epoch {} of keep {:?} differs", keep[i], keep);
            }
        }
    }

    /// Normalized epochs have unit self-correlation for non-constant
    /// voxels regardless of config.
    #[test]
    fn normalization_is_unit_norm(cfg in config_strategy()) {
        let (d, _) = cfg.generate();
        let ne = fcma_fmri::NormalizedEpochs::from_dataset(&d);
        for e in [0usize, d.n_epochs() - 1] {
            let b = ne.brain(e);
            for v in [0usize, d.n_voxels() - 1] {
                let col: Vec<f32> = (0..b.rows()).map(|t| b.get(t, v)).collect();
                let s = fcma_linalg::dot(&col, &col);
                prop_assert!(
                    (s - 1.0).abs() < 1e-3 || s.abs() < 1e-6,
                    "epoch {e} voxel {v}: ||x||² = {s}"
                );
            }
        }
    }
}
