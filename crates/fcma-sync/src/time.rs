//! Facade time: a mode-aware [`Instant`].
//!
//! In real mode, [`Instant::now`] measures nanoseconds from a
//! process-wide epoch taken on first use. Under a model checker it
//! reads the model's virtual nanoseconds instead, so deadline
//! arithmetic in the scheduler is deterministic. Instants are plain
//! nanosecond counts: cheap to copy, totally ordered, and comparable
//! only within the mode that produced them.

use std::ops::Add;
use std::sync::OnceLock;
use std::time::Duration;

use crate::runtime::{mode, Mode};

/// A monotonically non-decreasing point in (possibly virtual) time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Instant {
    nanos: u64,
}

impl Instant {
    /// The current point in time under the calling thread's mode.
    pub fn now() -> Instant {
        Instant { nanos: now_nanos() }
    }

    /// Time elapsed since this instant (zero if it lies in the future).
    pub fn elapsed(&self) -> Duration {
        Instant::now().saturating_duration_since(*self)
    }

    /// Time from `earlier` to `self`, saturating to zero.
    pub fn saturating_duration_since(&self, earlier: Instant) -> Duration {
        Duration::from_nanos(self.nanos.saturating_sub(earlier.nanos))
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant { nanos: self.nanos.saturating_add(duration_to_nanos(rhs)) }
    }
}

/// Current time in nanoseconds under the calling thread's mode.
pub(crate) fn now_nanos() -> u64 {
    match mode() {
        Mode::Real => real_nanos(),
        Mode::Model(rt) => rt.now_nanos(),
    }
}

/// Nanoseconds from the process-wide real epoch, taken on first use.
fn real_nanos() -> u64 {
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(std::time::Instant::now);
    duration_to_nanos(epoch.elapsed())
}

/// A duration as nanoseconds, clamped to `u64::MAX` (~584 years).
pub(crate) fn duration_to_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
