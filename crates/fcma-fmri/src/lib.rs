//! # fcma-fmri — fMRI data substrate for FCMA
//!
//! Provides everything FCMA needs on the data side:
//!
//! * [`dataset`] — the [`Dataset`] type: a voxels × time activity matrix
//!   plus a validated, subject-grouped epoch table;
//! * [`epoch`] — per-epoch normalization (paper Eq. 2) producing the
//!   matrices the correlation kernels multiply;
//! * [`synth`] — a synthetic generator with *planted* condition-dependent
//!   correlation structure standing in for the paper's human datasets
//!   (substitution documented in DESIGN.md §2);
//! * [`noise`] — AR(1) temporal noise, drift, and Gaussian sampling;
//! * [`io`] — the binary activity container and text epoch-table formats;
//! * [`presets`] — configurations mirroring the paper's *face-scene* and
//!   *attention* datasets (Table 2) at full and laptop scales.

pub mod dataset;
pub mod epoch;
pub mod geometry;
pub mod io;
pub mod mask;
pub mod noise;
pub mod presets;
pub mod synth;

pub use dataset::{Condition, Dataset, DatasetError, EpochSpec};
pub use epoch::NormalizedEpochs;
pub use geometry::Cluster;
pub use geometry::{extract_clusters, Grid3};
pub use mask::VoxelMask;
pub use synth::{GroundTruth, Placement, SynthConfig};
