//! The wall-clock airlock: the one module allowed to read real time.
//!
//! Everything the simulation *measures* must flow through [`SimClock`]
//! (`crates/sim/src/clock.rs`) so memory and IPC costs stay comparable
//! duals. But the workspace still runs on real OS threads, and real
//! threads occasionally need real time: a receive timeout must expire
//! even if no simulated work happens, the watchdog must poll while the
//! kernel is wedged, and tests must bound how long they wait for a
//! background thread. Those are *liveness* concerns, not measurements.
//!
//! This module exists so the two uses cannot blur. `machlint`'s
//! sim-time-purity lint (L2) forbids `Instant::now`, `SystemTime` and
//! `thread::sleep` everywhere except here; call sites that genuinely
//! need wall time say so explicitly by calling [`wall::now`](now),
//! [`wall::sleep`](sleep) or [`Deadline`], which makes every wall-clock
//! dependency in the tree greppable from one name.
//!
//! Never feed a value derived from this module into [`SimClock::charge`]
//! or a latency histogram: wall durations depend on host load and would
//! silently corrupt the paper's simulated figures.
//!
//! [`SimClock`]: crate::SimClock

use std::time::{Duration, Instant};

/// Reads the real monotonic clock.
///
/// For thread-liveness decisions only (timeouts, polling bounds); never
/// for simulated measurements.
pub fn now() -> Instant {
    Instant::now()
}

/// Blocks the current OS thread for `d` of real time.
///
/// Simulated components model delay by charging a [`SimClock`]
/// (`clock.charge(...)`) instead; sleep only to yield to a background
/// thread that does real work (pager threads, the watchdog, tests).
///
/// [`SimClock`]: crate::SimClock
pub fn sleep(d: Duration) {
    std::thread::sleep(d);
}

/// A real-time deadline for bounding blocking waits. Deadlines order by
/// when they fall due, so a timer can sleep until the earliest of several.
///
/// # Examples
///
/// ```
/// use machsim::wall::Deadline;
/// use std::time::Duration;
///
/// let d = Deadline::after(Duration::from_secs(5));
/// assert!(!d.expired());
/// assert!(d.remaining().is_some());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `d` of real time from now.
    pub fn after(d: Duration) -> Self {
        Self { at: now() + d }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        now() >= self.at
    }

    /// Whether the deadline had passed as of `now` — for sweeps that
    /// check many deadlines against one clock read.
    pub fn expired_by(&self, now: Instant) -> bool {
        now >= self.at
    }

    /// Real time left before the deadline, or `None` once expired.
    ///
    /// The `None` case doubles as the timeout signal in wait loops:
    /// `let Some(left) = deadline.remaining() else { return Err(Timeout) }`.
    pub fn remaining(&self) -> Option<Duration> {
        let t = now();
        if t >= self.at {
            None
        } else {
            Some(self.at - t)
        }
    }
}

/// Polls `done` every `interval` of real time until it returns `true` or
/// `timeout` elapses; returns whether the condition was observed.
///
/// The standard shape for tests awaiting a background thread ("the sync
/// eventually lands") without an unbounded spin.
pub fn poll_until(timeout: Duration, interval: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Deadline::after(timeout);
    loop {
        if done() {
            return true;
        }
        if deadline.expired() {
            return false;
        }
        sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_expires() {
        let d = Deadline::after(Duration::from_millis(1));
        sleep(Duration::from_millis(5));
        assert!(d.expired());
        assert_eq!(d.remaining(), None);
    }

    #[test]
    fn deadline_remaining_shrinks() {
        let d = Deadline::after(Duration::from_secs(60));
        let a = d.remaining().expect("fresh deadline has time left");
        sleep(Duration::from_millis(2));
        let b = d.remaining().expect("still well before the deadline");
        assert!(b <= a);
    }

    #[test]
    fn poll_until_sees_condition() {
        let mut calls = 0;
        let ok = poll_until(Duration::from_secs(5), Duration::from_millis(1), || {
            calls += 1;
            calls >= 3
        });
        assert!(ok);
        assert_eq!(calls, 3);
    }

    #[test]
    fn poll_until_times_out() {
        let ok = poll_until(Duration::from_millis(5), Duration::from_millis(1), || false);
        assert!(!ok);
    }
}
