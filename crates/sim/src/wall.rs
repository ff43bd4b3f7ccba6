//! The wall-clock airlock: the one module allowed to read real time, and
//! the one place a thread blocks.
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
//! Blocking lives here too, because a blocked thread's only exit besides
//! a wakeup is a wall deadline. A receive waiting for a message, a fault
//! waiting for its page and an idle CPU waiting for work all wait the
//! same way: the caller re-checks its predicate under its lock and calls
//! [`Signal::block`] with the deadline it computed once, or waits on a
//! [`Latch`] for a value set once. No other module names a condvar.
//!
//! [`SimClock`]: crate::SimClock

use parking_lot::{Condvar, Mutex, MutexGuard};
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
    pub fn remaining(&self) -> Option<Duration> {
        let t = now();
        if t >= self.at {
            None
        } else {
            Some(self.at - t)
        }
    }
}

/// What a thread blocks on until another thread changes the state behind
/// the caller's lock. The caller owns the predicate and its loop:
///
/// ```
/// use machsim::wall::{Deadline, Signal};
/// use parking_lot::Mutex;
/// use std::time::Duration;
///
/// let (ready, signal) = (Mutex::new(false), Signal::new());
/// let deadline = Deadline::after(Duration::from_millis(1));
/// let mut g = ready.lock();
/// let mut expired = false;
/// while !*g && !expired {
///     expired = signal.block(&mut g, Some(&deadline));
/// }
/// assert!(expired);
/// ```
#[derive(Debug, Default)]
pub struct Signal(Condvar);

impl Signal {
    /// A signal nobody waits on yet.
    pub const fn new() -> Self {
        Self(Condvar::new())
    }

    /// Wakes one blocked thread.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every blocked thread.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Releases `guard`, waits once — for a notify, a spurious wakeup or
    /// `deadline` — and re-acquires it. Returns whether the deadline has
    /// passed; a passed deadline returns at once without waiting. The
    /// caller computes its deadline once and passes the same one to every
    /// wait of its loop, so a wakeup never extends it.
    pub fn block<T>(&self, guard: &mut MutexGuard<'_, T>, deadline: Option<&Deadline>) -> bool {
        let Some(d) = deadline else {
            self.0.wait(guard);
            return false;
        };
        match d.remaining() {
            None => true,
            Some(left) => self.0.wait_for(guard, left).timed_out(),
        }
    }
}

/// A value set once and waited for: the completion of one fault, one
/// scheduled unit or any other one-shot event. `Latch::default()` is
/// not yet set.
#[derive(Debug)]
pub struct Latch<T> {
    value: Mutex<Option<T>>,
    signal: Signal,
}

impl<T> Default for Latch<T> {
    fn default() -> Self {
        Self {
            value: Mutex::new(None),
            signal: Signal::new(),
        }
    }
}

impl<T: Clone> Latch<T> {
    /// Sets the value and wakes every waiter. The first value set stays.
    pub fn set(&self, value: T) {
        self.value.lock().get_or_insert(value);
        self.signal.notify_all();
    }

    /// Whether the value has been set (without blocking).
    pub fn is_set(&self) -> bool {
        self.value.lock().is_some()
    }

    /// Blocks until the value is set and returns it.
    pub fn wait(&self) -> T {
        let mut value = self.value.lock();
        loop {
            if let Some(v) = value.as_ref() {
                return v.clone();
            }
            self.signal.block(&mut value, None);
        }
    }

    /// Blocks until the value is set or `deadline` passes, and returns the
    /// value if it was set; a passed deadline returns at once.
    pub fn wait_until(&self, deadline: &Deadline) -> Option<T> {
        self.wait_until_with(|| Some(*deadline))
    }

    /// [`Latch::wait_until`] a deadline that may move, `None` waiting for
    /// the value alone. `until` is read under the latch's lock before every
    /// wait, so a thread that moves it and then calls [`Latch::nudge`]
    /// always wakes this one to read it again.
    pub fn wait_until_with(&self, until: impl Fn() -> Option<Deadline>) -> Option<T> {
        let mut value = self.value.lock();
        loop {
            if let Some(v) = value.as_ref() {
                return Some(v.clone());
            }
            if self.signal.block(&mut value, until().as_ref()) {
                return value.clone();
            }
        }
    }

    /// Wakes the waiters without setting the value: each
    /// [`Latch::wait_until_with`] reads its deadline again.
    pub fn nudge(&self) {
        let _value = self.value.lock();
        self.signal.notify_all();
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
    fn block_on_an_expired_deadline_returns_at_once() {
        let (m, signal) = (Mutex::new(()), Signal::new());
        let d = Deadline::after(Duration::ZERO);
        let started = now();
        assert!(signal.block(&mut m.lock(), Some(&d)));
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn block_woken_by_a_notify_returns_false() {
        let state = std::sync::Arc::new((Mutex::new(false), Signal::new()));
        let notifier = {
            let state = state.clone();
            std::thread::spawn(move || {
                *state.0.lock() = true;
                state.1.notify_all();
            })
        };
        let d = Deadline::after(Duration::from_secs(60));
        let mut g = state.0.lock();
        while !*g {
            assert!(
                !state.1.block(&mut g, Some(&d)),
                "a notify is not a timeout"
            );
        }
        drop(g);
        notifier.join().expect("notifier thread");
    }

    #[test]
    fn notify_storm_does_not_extend_the_deadline() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let state = std::sync::Arc::new((Mutex::new(()), Signal::new(), AtomicBool::new(false)));
        let storm = {
            let state = state.clone();
            std::thread::spawn(move || {
                while !state.2.load(Ordering::Acquire) {
                    state.1.notify_all();
                    sleep(Duration::from_millis(1));
                }
            })
        };
        let started = now();
        let d = Deadline::after(Duration::from_millis(50));
        let mut g = state.0.lock();
        while !state.1.block(&mut g, Some(&d)) {}
        drop(g);
        let waited = started.elapsed();
        state.2.store(true, Ordering::Release);
        storm.join().expect("storm thread");
        assert!(
            waited >= Duration::from_millis(50),
            "returned before the deadline: {waited:?}"
        );
        assert!(
            waited < Duration::from_secs(2),
            "a notify re-armed the deadline: {waited:?}"
        );
    }

    #[test]
    fn latch_set_before_the_wait() {
        let latch = Latch::default();
        assert!(!latch.is_set());
        latch.set(7);
        latch.set(8);
        assert!(latch.is_set());
        assert_eq!(latch.wait(), 7);
    }

    #[test]
    fn latch_set_from_another_thread_wakes_every_waiter() {
        let latch = std::sync::Arc::new(Latch::default());
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let latch = latch.clone();
                std::thread::spawn(move || latch.wait())
            })
            .collect();
        sleep(Duration::from_millis(5));
        latch.set("done");
        for w in waiters {
            assert_eq!(w.join().expect("waiter thread"), "done");
        }
    }

    #[test]
    fn latch_wait_until_returns_the_value_once_it_is_set() {
        let latch = std::sync::Arc::new(Latch::default());
        let setter = {
            let latch = latch.clone();
            std::thread::spawn(move || latch.set(3))
        };
        let d = Deadline::after(Duration::from_secs(60));
        assert_eq!(latch.wait_until(&d), Some(3));
        setter.join().expect("setter thread");
        assert_eq!(latch.wait_until(&Deadline::after(Duration::ZERO)), Some(3));
    }

    #[test]
    fn latch_wait_until_an_expired_deadline_returns_none_at_once() {
        let latch: Latch<()> = Latch::default();
        let started = now();
        assert_eq!(latch.wait_until(&Deadline::after(Duration::ZERO)), None);
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn a_nudge_wakes_a_wait_to_read_its_moved_deadline() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let state = std::sync::Arc::new((Latch::<()>::default(), AtomicBool::new(false)));
        let near = Deadline::after(Duration::from_millis(20));
        let far = Deadline::after(Duration::from_secs(10));
        let waiter = {
            let state = state.clone();
            std::thread::spawn(move || {
                let until = || {
                    Some(if state.1.load(Ordering::Acquire) {
                        near
                    } else {
                        far
                    })
                };
                let started = now();
                assert_eq!(state.0.wait_until_with(until), None);
                started.elapsed()
            })
        };
        sleep(Duration::from_millis(5));
        state.1.store(true, Ordering::Release);
        state.0.nudge();
        let waited = waiter.join().expect("waiter thread");
        assert!(
            waited < Duration::from_secs(2),
            "the nudge was missed: {waited:?}"
        );
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
