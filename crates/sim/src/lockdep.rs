//! Runtime witness for the declared kernel lock hierarchies.
//!
//! The resident-memory fault path and IPC ports may nest locks only in
//! the documented order (see the Concurrency sections of
//! `machvm::resident` and `machipc::port`):
//!
//! ```text
//! run queue → fault table → resident table → frame data
//!           → queues/free-list → port
//! ```
//!
//! `machlint`'s L1 lint checks that order *statically* against every
//! function that nests acquisitions. This module is the dynamic half: with
//! `--features lockdep`, every classified lock records its acquisition on
//! a thread-local stack and panics the moment any thread acquires a class
//! while holding a later-ranked one — so the existing 8-thread fault and
//! NUMA stress tests double as a model checker for the static hierarchy.
//! Same-rank nesting is permitted, mirroring the static allowlist's
//! deliberate bypasses (src→dst frame pairs in
//! `copy_page`/`maybe_migrate`).
//!
//! The module lives in `machsim` (the root of the crate graph) so both
//! `machvm` and `machipc` can classify their locks without a dependency
//! cycle; `machvm::lockdep` re-exports it for source compatibility.
//!
//! Without the feature, [`acquire`] is a no-op returning a zero-sized
//! token and the wrappers compile down to the raw `parking_lot` types plus
//! one dead `u8`, so default builds pay nothing.
//!
//! Independently of the witness feature, every classified lock feeds an
//! **always-on contention profile**: per-class acquisition/contention
//! counters plus wait- and hold-time histograms (see
//! [`contention_snapshot`]). The profile times *wall* nanoseconds via the
//! [`crate::wall`] airlock — lock contention is a property of the host
//! executing the simulation, not of simulated time — so these histograms
//! are diagnostic only and must never be mixed into a machine's sim-time
//! [`LatencyRegistry`](crate::trace::LatencyRegistry). Hold times include
//! any condvar waits performed through [`ClassMutexGuard::inner_mut`]
//! (the fault table's idle ticks show up as ~1 ms holds by design).

use crate::trace::Histogram;
use crate::wall;
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The classes of the declared hierarchy, outermost first.
///
/// Keep ranks in sync with the `[lock]` hierarchy in `machlint.toml`; the
/// static and dynamic checkers must agree on what "later" means.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockClass {
    /// One CPU's run queue (`Cpu::rq` in `machsched`). Outermost of all:
    /// scheduling happens strictly before the dispatched task touches
    /// memory or IPC, workers drop the queue lock before running a task
    /// body, and nothing below the scheduler ever calls back into it with
    /// locks held (task code submits new work holding no VM/IPC locks).
    RunQueue = 0,
    /// The async fault engine's outstanding-continuation table
    /// (`FaultEngine::table`). Outermost of the VM/IPC hierarchy: the
    /// completion loop steps parked faults — which take every VM lock and
    /// send pager messages — while holding it, and nothing inside the VM
    /// or IPC layers ever calls back into the engine with its locks held
    /// (page events are reported strictly after the resident table is
    /// unlocked).
    FaultTable = 1,
    /// The resident table (`PhysicalMemory::resident`): the one
    /// reader-writer lock over the virtual-to-physical map, the pending
    /// fills, the replica sets and every frame's owner, manager lock and
    /// reverse mappings.
    Resident = 2,
    /// A frame's page bytes (`Frame::data`).
    FrameData = 3,
    /// The pageout queues and per-node free lists (`PhysicalMemory::queues`).
    Queues = 4,
    /// An IPC port (`PortCore::control`): its message queue, backlog,
    /// death state, subscriptions and port-set wakers. Innermost, ranked
    /// after every VM class because pager paths send messages while the
    /// fault path's locks are (transitively) pinned, never vice versa.
    Port = 5,
}

impl LockClass {
    /// Every class, in rank order (indexable by [`LockClass::rank`]).
    pub const ALL: [LockClass; 6] = [
        LockClass::RunQueue,
        LockClass::FaultTable,
        LockClass::Resident,
        LockClass::FrameData,
        LockClass::Queues,
        LockClass::Port,
    ];

    /// Position in the hierarchy; lower ranks must be taken first.
    pub fn rank(self) -> u8 {
        self as u8
    }

    /// The class's name as `machlint.toml` spells it.
    pub fn name(self) -> &'static str {
        match self {
            LockClass::RunQueue => "run-queue",
            LockClass::FaultTable => "fault-table",
            LockClass::Resident => "resident",
            LockClass::FrameData => "frame-data",
            LockClass::Queues => "queues",
            LockClass::Port => "port",
        }
    }
}

/// Per-class contention statistics (process-wide, like the witness: one
/// simulated host's locks are not distinguishable from another's here,
/// which is fine for a host-level diagnostic).
struct ClassStats {
    acquisitions: AtomicU64,
    contended: AtomicU64,
    wait_ns: Histogram,
    hold_ns: Histogram,
}

fn class_stats() -> &'static [ClassStats; LockClass::ALL.len()] {
    static STATS: OnceLock<[ClassStats; LockClass::ALL.len()]> = OnceLock::new();
    STATS.get_or_init(|| {
        std::array::from_fn(|_| ClassStats {
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            wait_ns: Histogram::new(),
            hold_ns: Histogram::new(),
        })
    })
}

fn stats_of(class: LockClass) -> &'static ClassStats {
    &class_stats()[class.rank() as usize]
}

/// One class's slice of the contention profile (see
/// [`contention_snapshot`]).
#[derive(Clone, Copy, Debug)]
pub struct ClassContention {
    /// The lock class profiled.
    pub class: LockClass,
    /// Total classified acquisitions (lock/read/write calls).
    pub acquisitions: u64,
    /// Acquisitions that found the lock held and had to block.
    pub contended: u64,
    /// Wall-ns spent blocked, one sample per contended acquisition.
    pub wait_ns: &'static Histogram,
    /// Wall-ns each guard was held (includes condvar waits under it).
    pub hold_ns: &'static Histogram,
}

/// The contention profile of every class that saw traffic, in rank order.
pub fn contention_snapshot() -> Vec<ClassContention> {
    LockClass::ALL
        .iter()
        .map(|&class| {
            let s = stats_of(class);
            ClassContention {
                class,
                acquisitions: s.acquisitions.load(Ordering::Relaxed),
                contended: s.contended.load(Ordering::Relaxed),
                wait_ns: &s.wait_ns,
                hold_ns: &s.hold_ns,
            }
        })
        .filter(|c| c.acquisitions > 0)
        .collect()
}

/// Total contended acquisitions across every class (the process-wide
/// `lock.contended` feed; machines fold deltas into their stats when
/// sampling gauges).
pub fn contention_total() -> u64 {
    class_stats()
        .iter()
        .map(|s| s.contended.load(Ordering::Relaxed))
        .sum()
}

fn record_wait(class: LockClass, blocked_from: Instant) {
    stats_of(class).wait_ns.record(
        wall::now()
            .saturating_duration_since(blocked_from)
            .as_nanos() as u64,
    );
}

fn record_hold(class: LockClass, acquired_at: Instant) {
    stats_of(class).hold_ns.record(
        wall::now()
            .saturating_duration_since(acquired_at)
            .as_nanos() as u64,
    );
}

#[cfg(feature = "lockdep")]
mod witness {
    use super::LockClass;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};

    thread_local! {
        static HELD: RefCell<Vec<LockClass>> = const { RefCell::new(Vec::new()) };
    }

    /// Nested (order-checked) acquisitions observed process-wide; lets
    /// tests assert the witness actually saw traffic.
    static NESTED_CHECKED: AtomicU64 = AtomicU64::new(0);

    /// RAII record of one classified acquisition.
    pub struct Held {
        class: LockClass,
    }

    /// Validates `class` against everything this thread already holds and
    /// pushes it onto the thread's held stack.
    ///
    /// # Panics
    ///
    /// Panics when a held class ranks *after* `class` — an order the
    /// static hierarchy forbids.
    pub fn acquire(class: LockClass) -> Held {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            for &earlier in held.iter() {
                if earlier.rank() > class.rank() {
                    panic!(
                        "lockdep: acquired '{}' (rank {}) while holding '{}' (rank {}); \
                         the hierarchy is run-queue → fault-table → resident → \
                         frame-data → queues → port",
                        class.name(),
                        class.rank(),
                        earlier.name(),
                        earlier.rank(),
                    );
                }
            }
            if !held.is_empty() {
                NESTED_CHECKED.fetch_add(1, Ordering::Relaxed);
            }
            held.push(class);
        });
        Held { class }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD.with(|h| {
                let mut held = h.borrow_mut();
                if let Some(pos) = held.iter().rposition(|&c| c == self.class) {
                    held.remove(pos);
                }
            });
        }
    }

    /// Total nested acquisitions the witness has order-checked.
    pub fn nested_acquisitions() -> u64 {
        NESTED_CHECKED.load(Ordering::Relaxed)
    }
}

#[cfg(feature = "lockdep")]
pub use witness::{acquire, nested_acquisitions, Held};

#[cfg(not(feature = "lockdep"))]
mod witness_off {
    use super::LockClass;

    /// Zero-sized stand-in for the witness token.
    pub struct Held;

    /// No-op when the `lockdep` feature is disabled.
    #[inline(always)]
    pub fn acquire(_class: LockClass) -> Held {
        Held
    }

    /// Always zero when the `lockdep` feature is disabled.
    #[inline(always)]
    pub fn nested_acquisitions() -> u64 {
        0
    }
}

#[cfg(not(feature = "lockdep"))]
pub use witness_off::{acquire, nested_acquisitions, Held};

/// A [`Mutex`] tagged with its place in the lock hierarchy.
pub struct ClassMutex<T: ?Sized> {
    class: LockClass,
    inner: Mutex<T>,
}

/// RAII guard for [`ClassMutex`]; releases the witness record with the
/// lock and records the hold time on drop.
pub struct ClassMutexGuard<'a, T: ?Sized> {
    // Field order matters: the real guard must drop before the witness
    // token so the stack never claims a lock released while still held.
    // (The custom `Drop` body runs before either field drops, so the
    // hold-time sample is taken while the lock is still held.)
    guard: MutexGuard<'a, T>,
    _held: Held,
    class: LockClass,
    acquired_at: Instant,
}

impl<T> ClassMutex<T> {
    /// Wraps `value` in a mutex belonging to `class`.
    pub fn new(class: LockClass, value: T) -> Self {
        Self {
            class,
            inner: Mutex::new(value),
        }
    }
}

impl<T: ?Sized> ClassMutex<T> {
    /// Acquires the lock, recording the acquisition with the witness and
    /// the contention profile.
    pub fn lock(&self) -> ClassMutexGuard<'_, T> {
        let held = acquire(self.class);
        let stats = stats_of(self.class);
        stats.acquisitions.fetch_add(1, Ordering::Relaxed);
        let guard = match self.inner.try_lock() {
            Some(g) => g,
            None => {
                stats.contended.fetch_add(1, Ordering::Relaxed);
                let blocked_from = wall::now();
                let g = self.inner.lock();
                record_wait(self.class, blocked_from);
                g
            }
        };
        ClassMutexGuard {
            guard,
            _held: held,
            class: self.class,
            acquired_at: wall::now(),
        }
    }
}

impl<T: ?Sized> Drop for ClassMutexGuard<'_, T> {
    fn drop(&mut self) {
        record_hold(self.class, self.acquired_at);
    }
}

impl<'a, T: ?Sized> ClassMutexGuard<'a, T> {
    /// The underlying `parking_lot` guard, for `Condvar::wait` and
    /// friends. The witness keeps the class on the held stack across the
    /// wait: re-acquisition is same-class, which the hierarchy permits.
    pub fn inner_mut(&mut self) -> &mut MutexGuard<'a, T> {
        &mut self.guard
    }
}

impl<T: ?Sized> Deref for ClassMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for ClassMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// An [`RwLock`] tagged with its place in the lock hierarchy.
pub struct ClassRwLock<T: ?Sized> {
    class: LockClass,
    inner: RwLock<T>,
}

/// RAII read guard for [`ClassRwLock`].
pub struct ClassReadGuard<'a, T: ?Sized> {
    guard: RwLockReadGuard<'a, T>,
    _held: Held,
    class: LockClass,
    acquired_at: Instant,
}

/// RAII write guard for [`ClassRwLock`].
pub struct ClassWriteGuard<'a, T: ?Sized> {
    guard: RwLockWriteGuard<'a, T>,
    _held: Held,
    class: LockClass,
    acquired_at: Instant,
}

impl<T> ClassRwLock<T> {
    /// Wraps `value` in a reader-writer lock belonging to `class`.
    pub fn new(class: LockClass, value: T) -> Self {
        Self {
            class,
            inner: RwLock::new(value),
        }
    }
}

impl<T: ?Sized> ClassRwLock<T> {
    /// Acquires shared read access, recording it with the witness and the
    /// contention profile.
    pub fn read(&self) -> ClassReadGuard<'_, T> {
        let held = acquire(self.class);
        let stats = stats_of(self.class);
        stats.acquisitions.fetch_add(1, Ordering::Relaxed);
        let guard = match self.inner.try_read() {
            Some(g) => g,
            None => {
                stats.contended.fetch_add(1, Ordering::Relaxed);
                let blocked_from = wall::now();
                let g = self.inner.read();
                record_wait(self.class, blocked_from);
                g
            }
        };
        ClassReadGuard {
            guard,
            _held: held,
            class: self.class,
            acquired_at: wall::now(),
        }
    }

    /// Acquires exclusive write access, recording it with the witness and
    /// the contention profile.
    pub fn write(&self) -> ClassWriteGuard<'_, T> {
        let held = acquire(self.class);
        let stats = stats_of(self.class);
        stats.acquisitions.fetch_add(1, Ordering::Relaxed);
        let guard = match self.inner.try_write() {
            Some(g) => g,
            None => {
                stats.contended.fetch_add(1, Ordering::Relaxed);
                let blocked_from = wall::now();
                let g = self.inner.write();
                record_wait(self.class, blocked_from);
                g
            }
        };
        ClassWriteGuard {
            guard,
            _held: held,
            class: self.class,
            acquired_at: wall::now(),
        }
    }
}

impl<T: ?Sized> Drop for ClassReadGuard<'_, T> {
    fn drop(&mut self) {
        record_hold(self.class, self.acquired_at);
    }
}

impl<T: ?Sized> Drop for ClassWriteGuard<'_, T> {
    fn drop(&mut self) {
        record_hold(self.class, self.acquired_at);
    }
}

impl<T: ?Sized> Deref for ClassReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Deref for ClassWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for ClassWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_nesting_is_silent() {
        let a = ClassMutex::new(LockClass::Resident, 1u32);
        let b = ClassMutex::new(LockClass::Queues, 2u32);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
    }

    #[cfg(feature = "lockdep")]
    #[test]
    fn out_of_order_nesting_panics() {
        let result = std::thread::spawn(|| {
            let q = ClassMutex::new(LockClass::Queues, ());
            let s = ClassMutex::new(LockClass::Resident, ());
            let _gq = q.lock();
            let _gs = s.lock(); // queues → resident: forbidden
        })
        .join();
        assert!(result.is_err(), "queues → resident must trip the witness");
    }

    #[cfg(feature = "lockdep")]
    #[test]
    fn witness_counts_nested_checks() {
        let before = nested_acquisitions();
        let a = ClassMutex::new(LockClass::FrameData, ());
        let b = ClassMutex::new(LockClass::Queues, ());
        let _ga = a.lock();
        let _gb = b.lock();
        assert!(nested_acquisitions() > before);
    }

    #[test]
    fn contention_profile_counts_blocked_acquisitions() {
        use std::sync::Arc;
        let before: u64 = contention_snapshot()
            .iter()
            .find(|c| c.class == LockClass::FrameData)
            .map_or(0, |c| c.contended);
        let m = Arc::new(ClassMutex::new(LockClass::FrameData, ()));
        let m2 = m.clone();
        let g = m.lock();
        let t = std::thread::spawn(move || {
            let _g = m2.lock(); // blocks until the main thread releases
        });
        wall::sleep(std::time::Duration::from_millis(5));
        drop(g);
        t.join().expect("contender thread exits");
        let after = contention_snapshot()
            .into_iter()
            .find(|c| c.class == LockClass::FrameData)
            .expect("class saw traffic");
        assert!(after.contended > before, "blocked lock() must count");
        assert!(after.wait_ns.count() > 0, "wait histogram fed");
        assert!(after.hold_ns.count() > 0, "hold histogram fed");
        assert!(contention_total() >= after.contended);
    }

    #[test]
    fn rwlock_guards_deref() {
        let l = ClassRwLock::new(LockClass::FrameData, vec![1u8, 2]);
        assert_eq!(l.read()[0], 1);
        l.write()[1] = 9;
        assert_eq!(l.read()[1], 9);
    }
}
