//! Emulated closed-loop real-time fMRI session (paper §5.2.2, Fig. 1).
//!
//! The scanner is replaced by a generated scan fed to an
//! [`OnlineSession`] one volume at a time, with the epoch boundaries
//! marked as they pass.
//!
//! Phase 1 — *online voxel selection*: once the first 16 epochs are
//! complete, the session selects the voxels whose whole-brain
//! correlation patterns discriminate the two conditions (k-fold CV over
//! the session's epochs, no nested CV) and trains the feedback
//! classifier on their correlation patterns.
//!
//! Phase 2 — *neurofeedback*: every later epoch is scored as soon as it
//! closes; the signed decision value is the graded feedback signal sent
//! back to the subject.
//!
//! ```sh
//! cargo run --release --example realtime_feedback
//! ```

use fcma::core::{OnlineSession, SessionConfig};
use std::time::Instant;

/// Epochs seen before the feedback classifier is trained.
const TRAIN_EPOCHS: usize = 16;

fn main() {
    // One subject, 24 epochs: the first 16 train the online classifier,
    // the last 8 emulate the live feedback phase.
    let mut config = fcma::fmri::presets::tiny();
    config.n_subjects = 1;
    config.epochs_per_subject = 24;
    config.n_voxels = 128;
    config.n_informative = 16;
    config.coupling = 1.8;
    let (dataset, truth) = config.generate();
    let n = dataset.n_voxels();
    println!(
        "Session: {n} voxels, {} epochs of {} time points",
        dataset.n_epochs(),
        config.epoch_len
    );

    // The defaults select 16 voxels by 4-fold CV in tasks of 64 voxels.
    let session_cfg = SessionConfig { epoch_len: config.epoch_len, ..Default::default() };
    let mut session = OnlineSession::new(session_cfg, n);
    let epochs = dataset.epochs();
    let mut next = 0; // the next epoch of the scan to open
    let mut feedback = None;
    let mut correct = 0;
    for t in 0..dataset.n_timepoints() {
        if epochs.get(next).is_some_and(|ep| ep.start == t) {
            session.begin_epoch(epochs[next].label).expect("no epoch is open");
        }
        let volume: Vec<f32> = (0..n).map(|v| dataset.data().get(v, t)).collect();
        session.push_volume(&volume).expect("a finite volume of n voxels");
        if epochs.get(next).is_none_or(|ep| ep.start + ep.len != t + 1) {
            continue;
        }
        let e = session.end_epoch().expect("the epoch spans epoch_len volumes");
        next += 1;

        if e + 1 == TRAIN_EPOCHS {
            // ---- Phase 1: select voxels and train on everything so far ----
            let t0 = Instant::now();
            let fb = session.train_feedback().expect("both conditions seen");
            println!(
                "Selected {} voxels and trained in {:.2?} ({}/{} planted); \
                 {} support vectors, {} SMO iterations\n",
                fb.selected.len(),
                t0.elapsed(),
                fb.selected.iter().filter(|v| truth.is_informative(**v)).count(),
                truth.informative.len(),
                fb.model.n_support(),
                fb.model.iterations
            );
            println!("epoch  condition  feedback");
            feedback = Some(fb);
        } else if let Some(fb) = &feedback {
            // ---- Phase 2: score the epoch that just closed ----
            let d = session.score_epoch(fb, e).expect("a completed epoch");
            let predicted = if d >= 0.0 { "A" } else { "B" };
            let actual = if epochs[e].label.sign() > 0.0 { "A" } else { "B" };
            if predicted == actual {
                correct += 1;
            }
            println!(
                "{e:>5}  {actual:>9}  {d:>+8.3}  predict {predicted} {}",
                if predicted == actual { "✓" } else { "✗" }
            );
        }
    }
    let acc = correct as f64 / (dataset.n_epochs() - TRAIN_EPOCHS) as f64;
    println!("\nOnline feedback accuracy: {:.0}%", acc * 100.0);
    assert!(acc > 0.5, "feedback classifier at or below chance");
    println!("OK");
}
