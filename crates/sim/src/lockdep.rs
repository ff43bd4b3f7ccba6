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
//! token and the guards are the raw `parking_lot` guards.
//!
//! Independently of the witness feature, every classified lock feeds an
//! **always-on contention profile**: per-class acquisition and contention
//! counters plus a wait-time histogram (see [`contention_snapshot`]). An
//! uncontended acquisition costs one `try_lock` and one relaxed
//! increment of a counter striped by thread, so two CPUs taking locks
//! write no shared counter; only a thread that blocks reads the clock.
//! Waits are timed in *wall* nanoseconds via the [`crate::wall`] airlock
//! — lock contention is a property of the host executing the
//! simulation, not of simulated time — so the histogram is diagnostic
//! only and must never be mixed into a machine's sim-time
//! [`LatencyRegistry`](crate::trace::LatencyRegistry).

use crate::trace::Histogram;
use crate::wall;
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

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
    /// (`FaultEngine::table`). Outermost of the VM/IPC hierarchy: a fault
    /// parking under it re-probes the resident table for the
    /// park/recheck race. Stepping a fault — which takes every VM lock —
    /// and sending its pager messages happen with it unlocked, and
    /// nothing inside the VM or IPC layers ever calls back into the
    /// engine with its locks held (page events are reported strictly
    /// after the resident table is unlocked).
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
/// which is fine for a host-level diagnostic). Only a contended
/// acquisition writes here; every acquisition is counted in
/// [`ACQUISITIONS`].
struct ClassStats {
    contended: AtomicU64,
    wait_ns: Histogram,
}

fn class_stats() -> &'static [ClassStats; LockClass::ALL.len()] {
    static STATS: OnceLock<[ClassStats; LockClass::ALL.len()]> = OnceLock::new();
    STATS.get_or_init(|| {
        std::array::from_fn(|_| ClassStats {
            contended: AtomicU64::new(0),
            wait_ns: Histogram::new(),
        })
    })
}

fn stats_of(class: LockClass) -> &'static ClassStats {
    &class_stats()[class.rank() as usize]
}

/// Stripes of the acquisition counts. A thread keeps to one stripe, so
/// threads on different CPUs bump counters on different cache lines
/// (threads past this many share stripes, round-robin).
const STRIPES: usize = 16;

/// One stripe: an acquisition count per class, alone on its cache line
/// (128 bytes: the pair of lines an x86 core prefetches together).
#[repr(align(128))]
struct Stripe([AtomicU64; LockClass::ALL.len()]);

/// Every classified acquisition, counted on the acquiring thread's
/// stripe; [`contention_snapshot`] sums the stripes.
static ACQUISITIONS: [Stripe; STRIPES] =
    [const { Stripe([const { AtomicU64::new(0) }; LockClass::ALL.len()]) }; STRIPES];

/// The calling thread's stripe, chosen at its first classified
/// acquisition.
fn stripe() -> &'static Stripe {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    &ACQUISITIONS[STRIPE.with(|&s| s)]
}

/// The acquisitions of `class` so far, every stripe summed.
fn acquisitions_of(class: LockClass) -> u64 {
    ACQUISITIONS
        .iter()
        .map(|stripe| stripe.0[class.rank() as usize].load(Ordering::Relaxed))
        .sum()
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
}

/// The contention profile of every class that saw traffic, in rank order.
pub fn contention_snapshot() -> Vec<ClassContention> {
    LockClass::ALL
        .iter()
        .map(|&class| {
            let s = stats_of(class);
            ClassContention {
                class,
                acquisitions: acquisitions_of(class),
                contended: s.contended.load(Ordering::Relaxed),
                wait_ns: &s.wait_ns,
            }
        })
        .filter(|c| c.acquisitions > 0)
        .collect()
}

/// Total contended acquisitions across every class, process-wide: a
/// caller that wants one run's share reads it before and after.
pub fn contention_total() -> u64 {
    class_stats()
        .iter()
        .map(|s| s.contended.load(Ordering::Relaxed))
        .sum()
}

/// Counts one acquisition of `class`: `try_acquire` first and, only if
/// that fails, `acquire`, counted as contended with its wait timed.
fn profiled<G>(
    class: LockClass,
    try_acquire: impl FnOnce() -> Option<G>,
    acquire: impl FnOnce() -> G,
) -> G {
    stripe().0[class.rank() as usize].fetch_add(1, Ordering::Relaxed);
    try_acquire().unwrap_or_else(|| {
        let stats = stats_of(class);
        stats.contended.fetch_add(1, Ordering::Relaxed);
        let blocked_from = wall::now();
        let guard = acquire();
        let waited = wall::now().saturating_duration_since(blocked_from);
        stats.wait_ns.record(waited.as_nanos() as u64);
        guard
    })
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
/// lock.
pub struct ClassMutexGuard<'a, T: ?Sized> {
    // Field order matters: the real guard must drop before the witness
    // token so the stack never claims a lock released while still held.
    guard: MutexGuard<'a, T>,
    _held: Held,
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
        ClassMutexGuard {
            guard: profiled(self.class, || self.inner.try_lock(), || self.inner.lock()),
            _held: held,
        }
    }
}

impl<'a, T: ?Sized> ClassMutexGuard<'a, T> {
    /// The underlying `parking_lot` guard, for
    /// [`Signal::block`](crate::wall::Signal::block). The witness keeps
    /// the class on the held stack across the wait: re-acquisition is
    /// same-class, which the hierarchy permits.
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
}

/// RAII write guard for [`ClassRwLock`].
pub struct ClassWriteGuard<'a, T: ?Sized> {
    guard: RwLockWriteGuard<'a, T>,
    _held: Held,
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
        ClassReadGuard {
            guard: profiled(self.class, || self.inner.try_read(), || self.inner.read()),
            _held: held,
        }
    }

    /// Acquires exclusive write access, recording it with the witness and
    /// the contention profile.
    pub fn write(&self) -> ClassWriteGuard<'_, T> {
        let held = acquire(self.class);
        ClassWriteGuard {
            guard: profiled(self.class, || self.inner.try_write(), || self.inner.write()),
            _held: held,
        }
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
        assert!(contention_total() >= after.contended);
    }

    #[test]
    fn uncontended_acquisitions_are_counted_and_never_timed() {
        // No other test in this crate takes a `port` lock, so only this
        // test moves the class's counts.
        let port = || {
            let c = contention_snapshot()
                .into_iter()
                .find(|c| c.class == LockClass::Port);
            c.map_or((0, 0, 0), |c| {
                (c.acquisitions, c.contended, c.wait_ns.count())
            })
        };
        let (acquisitions, contended, waits) = port();
        let m = ClassMutex::new(LockClass::Port, ());
        let l = ClassRwLock::new(LockClass::Port, ());
        for _ in 0..100 {
            drop(m.lock());
            drop(l.read());
            drop(l.write());
        }
        assert_eq!(port(), (acquisitions + 300, contended, waits));
    }

    #[test]
    fn striped_acquisitions_sum_to_the_exact_total() {
        // No other test in this crate takes a `run-queue` lock, so only
        // this test moves the class's count.
        let run_queue = || {
            contention_snapshot()
                .into_iter()
                .find(|c| c.class == LockClass::RunQueue)
                .map_or(0, |c| c.acquisitions)
        };
        let before = run_queue();
        let lock = std::sync::Arc::new(ClassMutex::new(LockClass::RunQueue, 0u64));
        let holders: Vec<_> = (0..4)
            .map(|_| {
                let lock = lock.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        *lock.lock() += 1;
                    }
                })
            })
            .collect();
        for h in holders {
            h.join().expect("holder thread");
        }
        assert_eq!(run_queue(), before + 40_000);
        assert_eq!(*lock.lock(), 40_000);
    }

    #[test]
    fn rwlock_guards_deref() {
        let l = ClassRwLock::new(LockClass::FrameData, vec![1u8, 2]);
        assert_eq!(l.read()[0], 1);
        l.write()[1] = 9;
        assert_eq!(l.read()[1], 9);
    }
}
