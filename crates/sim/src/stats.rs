//! Event counters for the quantities the paper reports.
//!
//! Section 9's claims are stated in *counts* ("the total number of I/O
//! operations can be reduced by a factor of 10") as much as in time. Every
//! subsystem therefore increments named counters in a shared registry, and
//! experiments snapshot/diff the registry around a workload.
//!
//! The key list is closed ([`keys::ALL`]; machlint L3 holds every
//! production call site to a `keys::` const), so the registry is a fixed
//! array with one atomic per key, indexed by [`slot`]: an increment is one
//! relaxed add, with no lock, lookup or allocation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Well-known counter names used across the workspace.
///
/// Centralizing the names keeps experiment report columns stable.
pub mod keys {
    /// Disk read operations issued to any block device.
    pub const DISK_READS: &str = "disk.reads";
    /// Disk write operations issued to any block device.
    pub const DISK_WRITES: &str = "disk.writes";
    /// Bytes moved to/from disk.
    pub const DISK_BYTES: &str = "disk.bytes";
    /// IPC messages sent (local).
    pub const MSG_SENT: &str = "ipc.messages_sent";
    /// IPC messages received.
    pub const MSG_RECEIVED: &str = "ipc.messages_received";
    /// Messages delivered by direct sender-to-receiver handoff (the RPC
    /// fast path), skipping the queue entirely.
    pub const IPC_HANDOFFS: &str = "ipc.handoffs";
    /// Batched send/receive operations (one `send_many`/`receive_many`
    /// call moving two or more messages under a single charge).
    pub const IPC_BATCHES: &str = "ipc.batches";
    /// Network messages between hosts.
    pub const NET_MESSAGES: &str = "net.messages";
    /// Bytes carried over the network fabric.
    pub const NET_BYTES: &str = "net.bytes";
    /// Page faults resolved (all kinds).
    pub const VM_FAULTS: &str = "vm.faults";
    /// Page faults satisfied from the resident cache.
    pub const VM_CACHE_HITS: &str = "vm.cache_hits";
    /// Page faults that required a pager_data_request.
    pub const VM_PAGER_FILLS: &str = "vm.pager_fills";
    /// Copy-on-write page copies performed.
    pub const VM_COW_COPIES: &str = "vm.cow_copies";
    /// Pages written back through pager_data_write.
    pub const VM_PAGEOUTS: &str = "vm.pageouts";
    /// Zero-fill pages created.
    pub const VM_ZERO_FILLS: &str = "vm.zero_fills";
    /// Bytes copied by memcpy-style data movement.
    pub const BYTES_COPIED: &str = "mem.bytes_copied";
    /// Pages moved by remapping instead of copying.
    pub const PAGES_REMAPPED: &str = "mem.pages_remapped";
    /// Pages a data manager gave away (`pager_data_provided` with an
    /// exclusively held buffer) that entered the VM cache by remapping —
    /// the fills that `mem.bytes_copied` does not see.
    pub const VM_PAGES_STOLEN: &str = "vm.pages_stolen";
    /// Buffer cache hits (baseline UNIX path).
    pub const BCACHE_HITS: &str = "bcache.hits";
    /// Buffer cache misses (baseline UNIX path).
    pub const BCACHE_MISSES: &str = "bcache.misses";
    /// Pages the pageout sweep evicted toward its free target.
    pub const VM_DAEMON_RECLAIMS: &str = "vm.daemon_reclaims";
    /// Faults resolved by zero fill after a pager timeout.
    pub const VM_TIMEOUT_ZERO_FILLS: &str = "vm.timeout_zero_fills";
    /// Shadow-chain collapses performed by the VM layer.
    pub const VM_SHADOW_COLLAPSES: &str = "vm.shadow_collapses";
    /// Supplied fills discarded because the page was flushed in transit.
    pub const VM_PARTIAL_SUPPLIES_DISCARDED: &str = "vm.partial_supplies_discarded";
    /// Objects whose pageout diverted to the default pager (laundry
    /// overflow or a failed external manager).
    pub const VM_DEFAULT_PAGER_TAKEOVERS: &str = "vm.default_pager_takeovers";
    /// Default-pager writes refused because the paging partition is full.
    pub const DEFAULT_PAGER_PARTITION_FULL: &str = "default_pager.partition_full";
    /// Messages dropped by the network fabric (partition or dead host).
    pub const NET_DROPPED: &str = "net.dropped";
    /// External memory objects terminated.
    pub const EMM_OBJECTS_TERMINATED: &str = "emm.objects_terminated";
    /// Manager-to-kernel pager messages dropped because their body was
    /// too short to decode.
    pub const EMM_MALFORMED_DROPPED: &str = "emm.malformed_dropped";
    /// Parked faults flagged as stalled by the watchdog.
    pub const WATCHDOG_STALLS: &str = "watchdog.stalls";
    /// Memory accesses that hit a frame (or replica) on the accessing node.
    pub const NUMA_LOCAL_HITS: &str = "numa.local_hits";
    /// Memory accesses that crossed to a frame on another node.
    pub const NUMA_REMOTE_HITS: &str = "numa.remote_hits";
    /// Read-only per-node replicas created for read-hot pages.
    pub const NUMA_REPLICATIONS: &str = "numa.replications";
    /// Write-hot pages migrated to their dominant accessor's node.
    pub const NUMA_MIGRATIONS: &str = "numa.migrations";
    /// Replica sets invalidated by a write shootdown.
    pub const NUMA_SHOOTDOWNS: &str = "numa.shootdowns";
    /// Faults parked as continuations by the async fault engine (the
    /// submitting thread was released while the pager works).
    pub const VM_ASYNC_PARKS: &str = "vm.async.parks";
    /// Parked continuations resumed by a page event (install, cancel,
    /// lock change) and re-stepped — on the thread that raised it.
    pub const VM_ASYNC_RESUMES: &str = "vm.async.resumes";
    /// Submissions that had to wait because the outstanding-fault table
    /// was at capacity (backpressure).
    pub const VM_ASYNC_BACKPRESSURE: &str = "vm.async.backpressure";
    /// Continuations resolved by their pager timeout (cleanly: the chain
    /// is ended, so the watchdog never counts these as stalls).
    pub const VM_ASYNC_TIMEOUTS: &str = "vm.async.timeouts";
    /// Continuations errored out because their pager's port died while
    /// the fault was parked.
    pub const VM_ASYNC_PAGER_DEAD: &str = "vm.async.pager_dead";
    /// Multi-run `pager_data_request` batches shipped by the engine (two
    /// or more runs to one pager and object in one batched send: a
    /// fault's step that asked for several).
    pub const VM_PAGER_BATCHES: &str = "vm.pager_batches";
    /// Phase spans opened into the trace ring (see `machsim::span`).
    pub const TRACE_SPANS: &str = "trace.spans";
    /// Written by nothing, and reads 0: the sampled gauges are gone, and
    /// a span that opens at a queue records its depth instead
    /// (`trace::SpanInfo::depth`). Kept only because machmark's
    /// `machsim.gauge_samples_per_op` still names it.
    pub const GAUGE_SAMPLES: &str = "trace.gauge_samples";
    /// Task units dispatched onto a simulated CPU by `machsched`.
    pub const SCHED_DISPATCHES: &str = "sched.dispatches";
    /// Units pulled from another CPU's run queue by an idle CPU.
    pub const SCHED_STEALS: &str = "sched.steals";
    /// Dispatches that ran a unit on a different CPU than its last run.
    pub const SCHED_MIGRATIONS: &str = "sched.migrations";
    /// Dispatches on the unit's preferred CPU (same CPU as last run, or
    /// first run on its home node).
    pub const SCHED_AFFINITY_HITS: &str = "sched.affinity_hits";
    /// Dispatches that missed both same-CPU and same-node preference.
    pub const SCHED_AFFINITY_MISSES: &str = "sched.affinity_misses";
    /// Units whose sim-time slice expired and were re-queued mid-run.
    pub const SCHED_PREEMPTIONS: &str = "sched.preemptions";
    /// Fault sweeps a passed alarm (a policy deadline or the watchdog's)
    /// made a thread blocked on the fault engine run: a ticket's waiter,
    /// or a submitter held at admission.
    pub const VM_TIMER_WAKEUPS: &str = "vm.timer_wakeups";

    /// Every counter key, in [`super::StatsRegistry`] slot order (see
    /// [`super::slot`]). A registry has exactly these counters; writing
    /// any other name panics.
    pub const ALL: &[&str] = &[
        DISK_READS,
        DISK_WRITES,
        DISK_BYTES,
        MSG_SENT,
        MSG_RECEIVED,
        IPC_HANDOFFS,
        IPC_BATCHES,
        NET_MESSAGES,
        NET_BYTES,
        VM_FAULTS,
        VM_CACHE_HITS,
        VM_PAGER_FILLS,
        VM_COW_COPIES,
        VM_PAGEOUTS,
        VM_ZERO_FILLS,
        BYTES_COPIED,
        PAGES_REMAPPED,
        VM_PAGES_STOLEN,
        BCACHE_HITS,
        BCACHE_MISSES,
        VM_DAEMON_RECLAIMS,
        VM_TIMEOUT_ZERO_FILLS,
        VM_SHADOW_COLLAPSES,
        VM_PARTIAL_SUPPLIES_DISCARDED,
        VM_DEFAULT_PAGER_TAKEOVERS,
        DEFAULT_PAGER_PARTITION_FULL,
        NET_DROPPED,
        EMM_OBJECTS_TERMINATED,
        EMM_MALFORMED_DROPPED,
        WATCHDOG_STALLS,
        NUMA_LOCAL_HITS,
        NUMA_REMOTE_HITS,
        NUMA_REPLICATIONS,
        NUMA_MIGRATIONS,
        NUMA_SHOOTDOWNS,
        VM_ASYNC_PARKS,
        VM_ASYNC_RESUMES,
        VM_ASYNC_BACKPRESSURE,
        VM_ASYNC_TIMEOUTS,
        VM_ASYNC_PAGER_DEAD,
        VM_PAGER_BATCHES,
        TRACE_SPANS,
        GAUGE_SAMPLES,
        SCHED_DISPATCHES,
        SCHED_STEALS,
        SCHED_MIGRATIONS,
        SCHED_AFFINITY_HITS,
        SCHED_AFFINITY_MISSES,
        SCHED_PREEMPTIONS,
        VM_TIMER_WAKEUPS,
    ];
}

/// Number of counters in a [`StatsRegistry`].
const COUNTERS: usize = keys::ALL.len();

/// The index of `name` in [`keys::ALL`], or `None` for an unlisted name.
///
/// A `match` rather than a search of `ALL`, so that a call site naming a
/// `keys::` const folds to a fixed index.
#[inline]
pub fn slot(name: &str) -> Option<usize> {
    Some(match name {
        keys::DISK_READS => 0,
        keys::DISK_WRITES => 1,
        keys::DISK_BYTES => 2,
        keys::MSG_SENT => 3,
        keys::MSG_RECEIVED => 4,
        keys::IPC_HANDOFFS => 5,
        keys::IPC_BATCHES => 6,
        keys::NET_MESSAGES => 7,
        keys::NET_BYTES => 8,
        keys::VM_FAULTS => 9,
        keys::VM_CACHE_HITS => 10,
        keys::VM_PAGER_FILLS => 11,
        keys::VM_COW_COPIES => 12,
        keys::VM_PAGEOUTS => 13,
        keys::VM_ZERO_FILLS => 14,
        keys::BYTES_COPIED => 15,
        keys::PAGES_REMAPPED => 16,
        keys::VM_PAGES_STOLEN => 17,
        keys::BCACHE_HITS => 18,
        keys::BCACHE_MISSES => 19,
        keys::VM_DAEMON_RECLAIMS => 20,
        keys::VM_TIMEOUT_ZERO_FILLS => 21,
        keys::VM_SHADOW_COLLAPSES => 22,
        keys::VM_PARTIAL_SUPPLIES_DISCARDED => 23,
        keys::VM_DEFAULT_PAGER_TAKEOVERS => 24,
        keys::DEFAULT_PAGER_PARTITION_FULL => 25,
        keys::NET_DROPPED => 26,
        keys::EMM_OBJECTS_TERMINATED => 27,
        keys::EMM_MALFORMED_DROPPED => 28,
        keys::WATCHDOG_STALLS => 29,
        keys::NUMA_LOCAL_HITS => 30,
        keys::NUMA_REMOTE_HITS => 31,
        keys::NUMA_REPLICATIONS => 32,
        keys::NUMA_MIGRATIONS => 33,
        keys::NUMA_SHOOTDOWNS => 34,
        keys::VM_ASYNC_PARKS => 35,
        keys::VM_ASYNC_RESUMES => 36,
        keys::VM_ASYNC_BACKPRESSURE => 37,
        keys::VM_ASYNC_TIMEOUTS => 38,
        keys::VM_ASYNC_PAGER_DEAD => 39,
        keys::VM_PAGER_BATCHES => 40,
        keys::TRACE_SPANS => 41,
        keys::GAUGE_SAMPLES => 42,
        keys::SCHED_DISPATCHES => 43,
        keys::SCHED_STEALS => 44,
        keys::SCHED_MIGRATIONS => 45,
        keys::SCHED_AFFINITY_HITS => 46,
        keys::SCHED_AFFINITY_MISSES => 47,
        keys::SCHED_PREEMPTIONS => 48,
        keys::VM_TIMER_WAKEUPS => 49,
        _ => return None,
    })
}

/// The counters of one simulated machine: one atomic per key of
/// [`keys::ALL`]. Clones share the counters.
#[derive(Clone, Debug)]
pub struct StatsRegistry {
    counters: Arc<[AtomicU64; COUNTERS]>,
}

impl Default for StatsRegistry {
    fn default() -> Self {
        StatsRegistry {
            counters: Arc::new(std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }
}

impl StatsRegistry {
    /// Creates a registry with every counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the named counter.
    ///
    /// # Panics
    ///
    /// If `name` is not in [`keys::ALL`].
    #[inline]
    pub fn add(&self, name: &str, n: u64) {
        let Some(i) = slot(name) else {
            panic!("counter {name:?} is not in stats::keys::ALL")
        };
        self.counters[i].fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the named counter (panics like [`StatsRegistry::add`]).
    #[inline]
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Returns the named counter's current value (zero for an unlisted
    /// name).
    pub fn get(&self, name: &str) -> u64 {
        slot(name).map_or(0, |i| self.counters[i].load(Ordering::Relaxed))
    }

    /// Captures the current value of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            values: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
        }
    }
}

/// An immutable point-in-time copy of a registry's counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    values: [u64; COUNTERS],
}

impl StatsSnapshot {
    /// Returns the value of `name` at snapshot time (zero for an unlisted
    /// name).
    pub fn get(&self, name: &str) -> u64 {
        slot(name).map_or(0, |i| self.values[i])
    }

    /// Per-counter difference `later - self`.
    pub fn delta(&self, later: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            values: std::array::from_fn(|i| later.values[i].saturating_sub(self.values[i])),
        }
    }

    /// Iterates over every `(name, value)` pair in [`keys::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        keys::ALL.iter().copied().zip(self.values.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_indexes_keys_all() {
        for (i, key) in keys::ALL.iter().enumerate() {
            assert_eq!(slot(key), Some(i), "{key}");
        }
        assert_eq!(slot("not.a.key"), None);
    }

    #[test]
    fn clones_share_counters() {
        let r = StatsRegistry::new();
        r.clone().add(keys::VM_FAULTS, 2);
        r.incr(keys::VM_FAULTS);
        assert_eq!(r.get(keys::VM_FAULTS), 3);
    }

    #[test]
    #[should_panic(expected = "not in stats::keys::ALL")]
    fn writing_an_unlisted_name_panics() {
        StatsRegistry::new().incr("nope");
    }

    #[test]
    fn unlisted_name_reads_zero() {
        let r = StatsRegistry::new();
        assert_eq!(r.get("nope"), 0);
        assert_eq!(r.snapshot().get("nope"), 0);
    }

    #[test]
    fn snapshot_delta() {
        let r = StatsRegistry::new();
        r.add(keys::DISK_READS, 3);
        let s1 = r.snapshot();
        r.add(keys::DISK_READS, 4);
        r.incr(keys::DISK_WRITES);
        let d = s1.delta(&r.snapshot());
        assert_eq!(d.get(keys::DISK_READS), 4);
        assert_eq!(d.get(keys::DISK_WRITES), 1);
        assert_eq!(d.get(keys::VM_FAULTS), 0);
    }

    #[test]
    fn delta_saturates_against_a_later_registry() {
        let r = StatsRegistry::new();
        r.add(keys::DISK_READS, 2);
        let d = r.snapshot().delta(&StatsRegistry::new().snapshot());
        assert_eq!(d.get(keys::DISK_READS), 0);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let r = StatsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let r = r.clone();
                s.spawn(move || {
                    for _ in 0..500 {
                        r.incr(keys::MSG_SENT);
                    }
                });
            }
        });
        assert_eq!(r.get(keys::MSG_SENT), 4_000);
    }

    #[test]
    fn snapshot_iterates_every_key_in_slot_order() {
        let r = StatsRegistry::new();
        r.incr(keys::VM_FAULTS);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|(k, _)| k).collect();
        assert_eq!(names, keys::ALL);
        assert_eq!(snap.iter().map(|(_, v)| v).sum::<u64>(), 1);
    }
}
