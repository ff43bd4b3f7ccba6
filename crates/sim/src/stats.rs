//! Event counters for the quantities the paper reports.
//!
//! Section 9's claims are stated in *counts* ("the total number of I/O
//! operations can be reduced by a factor of 10") as much as in time. Every
//! subsystem therefore increments named counters in a shared registry, and
//! experiments snapshot/diff the registry around a workload.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A single named monotone counter.
///
/// Cheap to clone; clones share the same underlying value.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Returns the current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

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
    /// Frames reclaimed by the background pageout daemon.
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
    /// In-flight chains flagged as stalled by the watchdog.
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
    /// Trace events overwritten by ring overflow (exported, not counted
    /// in the registry — see `TraceBuffer::dropped`).
    pub const TRACE_DROPPED_EVENTS: &str = "trace.dropped_events";
    /// Faults parked as continuations by the async fault engine (the
    /// submitting thread was released while the pager works).
    pub const VM_ASYNC_PARKS: &str = "vm.async.parks";
    /// Parked continuations resumed by a completion (install, cancel,
    /// lock change) and re-stepped by the engine's completion loop.
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
    /// or more coalesced runs to one pager in one batched send).
    pub const VM_PAGER_BATCHES: &str = "vm.pager_batches";
    /// Pager request runs deferred by a per-pager in-flight cap and
    /// released later as completions drained.
    pub const VM_PAGER_DEFERRED_RUNS: &str = "vm.pager_deferred_runs";
    /// Phase spans opened into the trace ring (see `machsim::span`).
    pub const TRACE_SPANS: &str = "trace.spans";
    /// Gauge sampling sweeps folded into this machine's registry (each
    /// sweep reads every registered gauge source once).
    pub const GAUGE_SAMPLES: &str = "trace.gauge_samples";
    /// Classified lock acquisitions that had to block (process-wide
    /// contention folded in as deltas when gauges are sampled — see
    /// `machsim::lockdep::contention_snapshot`).
    pub const LOCK_CONTENDED: &str = "lock.contended";
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

    /// Every counter key the workspace may create in a [`super::StatsRegistry`].
    ///
    /// The drift audit (`tests/counter_keys.rs`) walks a registry after a
    /// representative workload and asserts each live counter is listed
    /// here, so hot paths cannot grow stringly-typed one-off names.
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
        TRACE_DROPPED_EVENTS,
        VM_ASYNC_PARKS,
        VM_ASYNC_RESUMES,
        VM_ASYNC_BACKPRESSURE,
        VM_ASYNC_TIMEOUTS,
        VM_ASYNC_PAGER_DEAD,
        VM_PAGER_BATCHES,
        VM_PAGER_DEFERRED_RUNS,
        TRACE_SPANS,
        GAUGE_SAMPLES,
        LOCK_CONTENDED,
        SCHED_DISPATCHES,
        SCHED_STEALS,
        SCHED_MIGRATIONS,
        SCHED_AFFINITY_HITS,
        SCHED_AFFINITY_MISSES,
        SCHED_PREEMPTIONS,
    ];
}

/// Pre-resolved handles for the counters on the fault/IPC/disk hot paths.
///
/// `StatsRegistry::incr` costs a `RwLock` acquisition plus a `BTreeMap`
/// string lookup per increment — fine for reporting, far too heavy for a
/// path that the whole system serializes behind ("page faults become IPC,
/// so fault throughput *is* system throughput"). Subsystems that sit on
/// the hot path resolve their counters once at machine construction and
/// bump the shared atomics directly.
#[derive(Clone, Debug)]
pub struct HotCounters {
    /// [`keys::VM_FAULTS`]
    pub vm_faults: Counter,
    /// [`keys::VM_CACHE_HITS`]
    pub vm_cache_hits: Counter,
    /// [`keys::VM_PAGER_FILLS`]
    pub vm_pager_fills: Counter,
    /// [`keys::VM_ZERO_FILLS`]
    pub vm_zero_fills: Counter,
    /// [`keys::VM_COW_COPIES`]
    pub vm_cow_copies: Counter,
    /// [`keys::VM_PAGEOUTS`]
    pub vm_pageouts: Counter,
    /// [`keys::BYTES_COPIED`]
    pub bytes_copied: Counter,
    /// [`keys::VM_PAGES_STOLEN`]
    pub vm_pages_stolen: Counter,
    /// [`keys::MSG_SENT`]
    pub msg_sent: Counter,
    /// [`keys::MSG_RECEIVED`]
    pub msg_received: Counter,
    /// [`keys::IPC_HANDOFFS`]
    pub ipc_handoffs: Counter,
    /// [`keys::IPC_BATCHES`]
    pub ipc_batches: Counter,
    /// [`keys::DISK_READS`]
    pub disk_reads: Counter,
    /// [`keys::DISK_WRITES`]
    pub disk_writes: Counter,
    /// [`keys::DISK_BYTES`]
    pub disk_bytes: Counter,
    /// [`keys::NUMA_LOCAL_HITS`]
    pub numa_local_hits: Counter,
    /// [`keys::NUMA_REMOTE_HITS`]
    pub numa_remote_hits: Counter,
    /// [`keys::TRACE_SPANS`]
    pub trace_spans: Counter,
}

impl HotCounters {
    /// Resolves every hot-path counter in `registry` once.
    pub fn new(registry: &StatsRegistry) -> Self {
        HotCounters {
            vm_faults: registry.counter(keys::VM_FAULTS),
            vm_cache_hits: registry.counter(keys::VM_CACHE_HITS),
            vm_pager_fills: registry.counter(keys::VM_PAGER_FILLS),
            vm_zero_fills: registry.counter(keys::VM_ZERO_FILLS),
            vm_cow_copies: registry.counter(keys::VM_COW_COPIES),
            vm_pageouts: registry.counter(keys::VM_PAGEOUTS),
            bytes_copied: registry.counter(keys::BYTES_COPIED),
            vm_pages_stolen: registry.counter(keys::VM_PAGES_STOLEN),
            msg_sent: registry.counter(keys::MSG_SENT),
            msg_received: registry.counter(keys::MSG_RECEIVED),
            ipc_handoffs: registry.counter(keys::IPC_HANDOFFS),
            ipc_batches: registry.counter(keys::IPC_BATCHES),
            disk_reads: registry.counter(keys::DISK_READS),
            disk_writes: registry.counter(keys::DISK_WRITES),
            disk_bytes: registry.counter(keys::DISK_BYTES),
            numa_local_hits: registry.counter(keys::NUMA_LOCAL_HITS),
            numa_remote_hits: registry.counter(keys::NUMA_REMOTE_HITS),
            trace_spans: registry.counter(keys::TRACE_SPANS),
        }
    }
}

/// A registry of named counters shared by one simulated machine.
#[derive(Clone, Debug, Default)]
pub struct StatsRegistry {
    counters: Arc<RwLock<BTreeMap<String, Counter>>>,
}

impl StatsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter with the given name, creating it if needed.
    ///
    /// Creation is atomic: when several threads race to create the same
    /// name, exactly one `Counter` is inserted and every caller gets a
    /// clone of it. The read lock is only a fast path; losers of the race
    /// re-check under the write lock via the entry API instead of blindly
    /// inserting (which would strand earlier clones on a dead counter).
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.counters.read().get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Adds `n` to the named counter.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Adds one to the named counter.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Returns the named counter's current value (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .read()
            .get(name)
            .map(Counter::get)
            .unwrap_or(0)
    }

    /// Captures the current value of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        let values = self
            .counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        StatsSnapshot { values }
    }
}

/// An immutable point-in-time copy of a registry's counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    values: BTreeMap<String, u64>,
}

impl StatsSnapshot {
    /// Returns the value of `name` at snapshot time (zero if absent).
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Per-counter difference `later - self`, for counters in either.
    pub fn delta(&self, later: &StatsSnapshot) -> StatsSnapshot {
        let mut values = BTreeMap::new();
        for (k, v) in &later.values {
            values.insert(k.clone(), v.saturating_sub(self.get(k)));
        }
        // Counters present only in the earlier snapshot delta to zero.
        for k in self.values.keys() {
            values.entry(k.clone()).or_insert(0);
        }
        StatsSnapshot { values }
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of counters captured.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn counter_clones_share_value() {
        let a = Counter::new();
        let b = a.clone();
        a.incr();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn registry_returns_same_counter() {
        let r = StatsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        assert_eq!(b.get(), 2);
        assert_eq!(r.get("x"), 2);
    }

    #[test]
    fn missing_counter_reads_zero() {
        assert_eq!(StatsRegistry::new().get("nope"), 0);
    }

    #[test]
    fn snapshot_delta() {
        let r = StatsRegistry::new();
        r.add("a", 3);
        let s1 = r.snapshot();
        r.add("a", 4);
        r.add("b", 1);
        let s2 = r.snapshot();
        let d = s1.delta(&s2);
        assert_eq!(d.get("a"), 4);
        assert_eq!(d.get("b"), 1);
    }

    #[test]
    fn delta_includes_stale_counters_as_zero() {
        let r = StatsRegistry::new();
        r.add("only_before", 2);
        let s1 = r.snapshot();
        let r2 = StatsRegistry::new();
        let s2 = r2.snapshot();
        let d = s1.delta(&s2);
        assert_eq!(d.get("only_before"), 0);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let r = StatsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let r = r.clone();
                s.spawn(move || {
                    for _ in 0..500 {
                        r.incr("hot");
                    }
                });
            }
        });
        assert_eq!(r.get("hot"), 4_000);
    }

    #[test]
    fn racing_creation_yields_one_counter() {
        // Regression: two writers racing to create the same name must end
        // up sharing one `Counter`; if each inserted its own, increments
        // through earlier clones would be lost from later reads.
        for _ in 0..50 {
            let r = StatsRegistry::new();
            let handles: Vec<Counter> = std::thread::scope(|s| {
                let threads: Vec<_> = (0..8)
                    .map(|_| {
                        let r = r.clone();
                        s.spawn(move || {
                            let c = r.counter("contended");
                            c.incr();
                            c
                        })
                    })
                    .collect();
                threads.into_iter().map(|t| t.join().unwrap()).collect()
            });
            // Every clone observes every increment, and so does the name.
            for h in &handles {
                assert_eq!(h.get(), 8);
            }
            assert_eq!(r.get("contended"), 8);
        }
    }

    #[test]
    fn hot_counters_share_registry_values() {
        let r = StatsRegistry::new();
        let hot = HotCounters::new(&r);
        hot.vm_faults.incr();
        r.incr(keys::VM_FAULTS);
        assert_eq!(r.get(keys::VM_FAULTS), 2);
        assert_eq!(hot.vm_faults.get(), 2);
    }

    #[test]
    fn snapshot_iterates_sorted() {
        let r = StatsRegistry::new();
        r.incr("b");
        r.incr("a");
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
