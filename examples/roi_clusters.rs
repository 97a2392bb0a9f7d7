//! From voxel scores to regions of interest (paper §3.1.2: "the brain
//! regions constituted by top voxels are identified as ROIs").
//!
//! Generates a dataset whose informative network is two spatially compact
//! blobs, runs FCMA, selects top voxels, extracts 6-connected clusters,
//! and checks the recovered regions against the planted ones — then runs
//! a permutation test on the best cluster's peak voxel.
//!
//! ```sh
//! cargo run --release --example roi_clusters
//! ```

use fcma::core::{benjamini_hochberg, voxel_permutation_test};
use fcma::fmri::geometry::{extract_clusters, Grid3};
use fcma::fmri::Placement;
use fcma::prelude::*;

fn main() {
    // 512 voxels = an 8x8x8 grid; the informative network is two compact
    // spherical blobs on opposite sides of the volume.
    let mut config = fcma::fmri::presets::tiny();
    config.n_voxels = 512;
    config.n_informative = 24;
    config.coupling = 1.8;
    config.placement = Placement::SphericalBlobs;
    let (dataset, truth) = config.generate();
    let grid = Grid3::cube_for(dataset.n_voxels());
    println!(
        "Dataset: {} voxels on a {}x{}x{} grid; planted network: two {}-voxel blobs",
        dataset.n_voxels(),
        grid.nx,
        grid.ny,
        grid.nz,
        truth.informative.len() / 2
    );

    // Score all voxels and select the top set.
    let ctx = TaskContext::full(&dataset);
    let exec = OptimizedExecutor::default();
    let scores = score_all_voxels(&ctx, &exec, 64, None);
    let selected = select_top_k(&scores, truth.informative.len());

    // Extract spatial clusters from the selection.
    let clusters = extract_clusters(&grid, &selected);
    println!("\ncluster  size  centroid        planted-members");
    for (i, c) in clusters.iter().enumerate() {
        let (x, y, z) = c.centroid(&grid);
        let planted = c.voxels.iter().filter(|v| truth.informative.contains(v)).count();
        println!(
            "{:>7}  {:>4}  ({:>4.1},{:>4.1},{:>4.1})  {:>3}/{}",
            i,
            c.len(),
            x,
            y,
            z,
            planted,
            c.len()
        );
    }
    let big: Vec<_> = clusters.iter().filter(|c| c.len() >= 3).collect();
    println!("\n{} clusters of size >= 3 (the planted network forms 2 blobs)", big.len());

    // Permutation-test the peak voxel of the largest cluster.
    let peak = clusters[0]
        .voxels
        .iter()
        .copied()
        .max_by(|&a, &b| scores[a].accuracy.partial_cmp(&scores[b].accuracy).unwrap())
        .unwrap();
    let (acc, p) = voxel_permutation_test(&ctx, &exec, peak, 99, 7);
    println!("\npeak voxel {peak}: CV accuracy {acc:.3}, permutation p = {p:.3} (99 perms)");

    // FDR across the whole selection (cheap demonstration on the top set).
    let ps: Vec<f64> = selected
        .iter()
        .map(|&v| {
            // Approximate p from the accuracy rank against all voxels — a
            // fast screen; the permutation test above is the exact version.
            let better = scores.iter().filter(|s| s.accuracy >= scores[v].accuracy).count();
            better as f64 / scores.len() as f64
        })
        .collect();
    let surviving = benjamini_hochberg(&ps, 0.05);
    println!(
        "{} of {} selected voxels survive rank-based FDR at q=0.05",
        surviving.len(),
        selected.len()
    );
    assert!(p <= 0.05, "peak voxel should be significant");
    println!("OK");
}
