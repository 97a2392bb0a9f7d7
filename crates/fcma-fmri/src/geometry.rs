//! 3-D voxel geometry: grids, masks, and cluster extraction.
//!
//! FCMA's output is a ranked voxel list, but neuroscientists consume
//! *regions*: "the brain regions constituted by top voxels are identified
//! as ROIs" (paper §3.1.2). This module supplies the spatial structure
//! needed for that last step — a 3-D grid mapping between voxel indices
//! and coordinates, spherical neighborhood queries for building spatially
//! coherent synthetic networks, and connected-component (flood-fill)
//! cluster extraction over selected voxel sets.

/// A dense 3-D voxel grid with row-major (x-fastest) linearization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid3 {
    /// Extent along x.
    pub nx: usize,
    /// Extent along y.
    pub ny: usize,
    /// Extent along z.
    pub nz: usize,
}

impl Grid3 {
    /// A grid with the given extents.
    ///
    /// # Panics
    /// Panics if any extent is zero.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "Grid3: zero extent");
        Grid3 { nx, ny, nz }
    }

    /// The most cubic grid containing at least `n` voxels.
    pub fn cube_for(n: usize) -> Self {
        let side = (n as f64).cbrt().ceil() as usize;
        Grid3::new(side.max(1), side.max(1), side.max(1))
    }

    /// Total voxels.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// True when the grid is degenerate (never: extents are positive).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Linear index of `(x, y, z)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    pub fn index(&self, x: usize, y: usize, z: usize) -> usize {
        assert!(x < self.nx && y < self.ny && z < self.nz, "Grid3: ({x},{y},{z}) out of bounds");
        (z * self.ny + y) * self.nx + x
    }

    /// Coordinates of linear index `i`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    pub fn coords(&self, i: usize) -> (usize, usize, usize) {
        assert!(i < self.len(), "Grid3: index {i} out of bounds");
        let x = i % self.nx;
        let y = (i / self.nx) % self.ny;
        let z = i / (self.nx * self.ny);
        (x, y, z)
    }

    /// Euclidean distance between two voxel centers.
    pub fn distance(&self, a: usize, b: usize) -> f64 {
        let (ax, ay, az) = self.coords(a);
        let (bx, by, bz) = self.coords(b);
        let dx = ax as f64 - bx as f64;
        let dy = ay as f64 - by as f64;
        let dz = az as f64 - bz as f64;
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// 6-connected (face) neighbors of voxel `i`, within bounds.
    pub(crate) fn neighbors6(&self, i: usize) -> Vec<usize> {
        let (x, y, z) = self.coords(i);
        let mut out = Vec::with_capacity(6);
        if x > 0 {
            out.push(self.index(x - 1, y, z));
        }
        if x + 1 < self.nx {
            out.push(self.index(x + 1, y, z));
        }
        if y > 0 {
            out.push(self.index(x, y - 1, z));
        }
        if y + 1 < self.ny {
            out.push(self.index(x, y + 1, z));
        }
        if z > 0 {
            out.push(self.index(x, y, z - 1));
        }
        if z + 1 < self.nz {
            out.push(self.index(x, y, z + 1));
        }
        out
    }
}

/// A connected cluster of selected voxels.
#[derive(Debug, Clone, PartialEq, Eq)]
// audit: allow(deadpub) — part of a referenced public signature; demotion trips private_interfaces
pub struct Cluster {
    /// Member voxels, sorted.
    pub voxels: Vec<usize>,
}

impl Cluster {
    /// Cluster size.
    pub fn len(&self) -> usize {
        self.voxels.len()
    }

    /// True when empty (never returned by [`extract_clusters`]).
    pub fn is_empty(&self) -> bool {
        self.voxels.is_empty()
    }

    /// Center of mass in grid coordinates.
    pub fn centroid(&self, grid: &Grid3) -> (f64, f64, f64) {
        let mut sx = 0.0;
        let mut sy = 0.0;
        let mut sz = 0.0;
        for &v in &self.voxels {
            let (x, y, z) = grid.coords(v);
            sx += x as f64;
            sy += y as f64;
            sz += z as f64;
        }
        let n = self.voxels.len().max(1) as f64;
        (sx / n, sy / n, sz / n)
    }
}

/// Partition a selected voxel set into 6-connected clusters (flood fill),
/// returned largest-first. Singleton clusters are kept — filtering by a
/// minimum size is the caller's choice.
pub fn extract_clusters(grid: &Grid3, selected: &[usize]) -> Vec<Cluster> {
    use std::collections::HashSet;
    let set: HashSet<usize> = selected.iter().copied().collect();
    let mut seen: HashSet<usize> = HashSet::new();
    let mut clusters = Vec::new();
    for &start in selected {
        if seen.contains(&start) {
            continue;
        }
        let mut stack = vec![start];
        let mut members = Vec::new();
        seen.insert(start);
        while let Some(v) = stack.pop() {
            members.push(v);
            for nb in grid.neighbors6(v) {
                if set.contains(&nb) && seen.insert(nb) {
                    stack.push(nb);
                }
            }
        }
        members.sort_unstable();
        clusters.push(Cluster { voxels: members });
    }
    clusters.sort_by(|a, b| b.len().cmp(&a.len()).then(a.voxels.cmp(&b.voxels)));
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_coords_roundtrip() {
        let g = Grid3::new(4, 5, 6);
        assert_eq!(g.len(), 120);
        for i in 0..g.len() {
            let (x, y, z) = g.coords(i);
            assert_eq!(g.index(x, y, z), i);
        }
    }

    #[test]
    fn cube_for_contains_n() {
        for n in [1usize, 7, 96, 1000, 34_470] {
            let g = Grid3::cube_for(n);
            assert!(g.len() >= n, "cube_for({n}) = {g:?}");
        }
        assert_eq!(Grid3::cube_for(27), Grid3::new(3, 3, 3));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_checks_bounds() {
        let _ = Grid3::new(2, 2, 2).index(2, 0, 0);
    }

    #[test]
    fn neighbors_at_corner_and_center() {
        let g = Grid3::new(3, 3, 3);
        assert_eq!(g.neighbors6(g.index(0, 0, 0)).len(), 3);
        assert_eq!(g.neighbors6(g.index(1, 1, 1)).len(), 6);
        // Neighbors are at distance exactly 1.
        for nb in g.neighbors6(g.index(1, 1, 1)) {
            assert!((g.distance(g.index(1, 1, 1), nb) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn clusters_separate_disconnected_blobs() {
        let g = Grid3::new(10, 10, 1);
        // Blob A: an L of 4 voxels; blob B: a distant pair; singleton C.
        let a = vec![g.index(0, 0, 0), g.index(1, 0, 0), g.index(1, 1, 0), g.index(2, 1, 0)];
        let b = vec![g.index(7, 7, 0), g.index(7, 8, 0)];
        let c = vec![g.index(4, 4, 0)];
        let mut all: Vec<usize> = a.iter().chain(&b).chain(&c).copied().collect();
        all.sort_unstable();
        let clusters = extract_clusters(&g, &all);
        assert_eq!(clusters.len(), 3);
        assert_eq!(clusters[0].len(), 4);
        assert_eq!(clusters[1].len(), 2);
        assert_eq!(clusters[2].len(), 1);
        let mut a_sorted = a.clone();
        a_sorted.sort_unstable();
        assert_eq!(clusters[0].voxels, a_sorted);
    }

    #[test]
    fn diagonal_voxels_are_not_connected() {
        let g = Grid3::new(3, 3, 1);
        let sel = vec![g.index(0, 0, 0), g.index(1, 1, 0)];
        let clusters = extract_clusters(&g, &sel);
        assert_eq!(clusters.len(), 2, "6-connectivity must not join diagonals");
    }

    #[test]
    fn centroid_of_symmetric_cluster() {
        let g = Grid3::new(3, 3, 3);
        let sel: Vec<usize> = (0..g.len()).collect();
        let clusters = extract_clusters(&g, &sel);
        assert_eq!(clusters.len(), 1);
        let (cx, cy, cz) = clusters[0].centroid(&g);
        assert!((cx - 1.0).abs() < 1e-12 && (cy - 1.0).abs() < 1e-12 && (cz - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_selection_gives_no_clusters() {
        let g = Grid3::new(2, 2, 2);
        assert!(extract_clusters(&g, &[]).is_empty());
    }
}
