//! Sampled queue-depth and occupancy gauges.
//!
//! Counters ([`crate::stats`]) answer "how many ever"; latency histograms
//! ([`crate::trace`]) answer "how long each"; neither answers "how *full*
//! was the system while it was slow". This module holds named gauge
//! sources — closures reading an instantaneous depth (port queue length,
//! continuation-table occupancy, per-pager in-flight pages, NUMA pool free
//! frames) — and a ring-buffered time series per source, sampled on the
//! fault engine's timer at the period a kernel arms (or explicitly via
//! [`crate::machine::Machine::sample_gauges`]). Exporters render the
//! series as Chrome-trace counter tracks and the latest value as
//! Prometheus gauges.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Samples kept per gauge before the oldest are overwritten.
pub const GAUGE_RING_CAPACITY: usize = 1024;

/// One gauge's sampled time series.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaugeSeries {
    /// Gauge name (`gauge.` prefix by convention).
    pub name: String,
    /// `(sim_ts_ns, value)` samples, oldest first.
    pub samples: Vec<(u64, u64)>,
}

struct Source {
    name: String,
    read: Box<dyn Fn() -> u64 + Send + Sync>,
    ring: VecDeque<(u64, u64)>,
}

/// A machine's registered gauge sources and their sample rings.
///
/// Reader closures run with only the registry lock held, so they may take
/// any simulator lock (the registry is a leaf: no closure re-enters it).
#[derive(Default)]
pub struct GaugeRegistry {
    sources: Mutex<Vec<Source>>,
    /// Last process-wide `lock.contended` total folded into a machine
    /// counter, so repeated samples add only the delta (see
    /// [`crate::machine::Machine::sample_gauges`]).
    contended_seen: AtomicU64,
}

impl fmt::Debug for GaugeRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GaugeRegistry({} sources)", self.sources.lock().len())
    }
}

impl GaugeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a gauge source. Re-registering a name replaces the old
    /// source and discards its samples (a rebooted kernel re-registers).
    pub fn register(&self, name: &str, read: impl Fn() -> u64 + Send + Sync + 'static) {
        let mut sources = self.sources.lock();
        sources.retain(|s| s.name != name);
        sources.push(Source {
            name: name.to_string(),
            read: Box::new(read),
            ring: VecDeque::with_capacity(64),
        });
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.sources.lock().len()
    }

    /// Whether no sources are registered.
    pub fn is_empty(&self) -> bool {
        self.sources.lock().is_empty()
    }

    /// Reads every source once, appending `(now_ns, value)` to its ring.
    /// Returns the number of sources sampled.
    pub fn sample_all(&self, now_ns: u64) -> usize {
        let mut sources = self.sources.lock();
        for s in sources.iter_mut() {
            let value = (s.read)();
            if s.ring.len() >= GAUGE_RING_CAPACITY {
                s.ring.pop_front();
            }
            s.ring.push_back((now_ns, value));
        }
        sources.len()
    }

    /// Copies out every gauge's time series, in registration order.
    pub fn snapshot(&self) -> Vec<GaugeSeries> {
        self.sources
            .lock()
            .iter()
            .map(|s| GaugeSeries {
                name: s.name.clone(),
                samples: s.ring.iter().copied().collect(),
            })
            .collect()
    }

    /// Each gauge's most recent sampled value (names without samples are
    /// skipped — sample first).
    pub fn latest(&self) -> Vec<(String, u64)> {
        self.sources
            .lock()
            .iter()
            .filter_map(|s| s.ring.back().map(|&(_, v)| (s.name.clone(), v)))
            .collect()
    }

    /// Returns `total - last_seen` and advances the mark, for folding a
    /// process-global monotone counter into per-machine stats exactly
    /// once per increment.
    pub fn counter_delta(&self, total: u64) -> u64 {
        let seen = self.contended_seen.swap(total, Ordering::Relaxed);
        total.saturating_sub(seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn sampling_builds_a_ring_buffered_series() {
        let g = GaugeRegistry::new();
        let depth = Arc::new(AtomicU64::new(3));
        let d = depth.clone();
        g.register("gauge.test.depth", move || d.load(Ordering::Relaxed));
        assert_eq!(g.len(), 1);
        assert_eq!(g.sample_all(100), 1);
        depth.store(7, Ordering::Relaxed);
        g.sample_all(200);
        let snap = g.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].samples, vec![(100, 3), (200, 7)]);
        assert_eq!(g.latest(), vec![("gauge.test.depth".to_string(), 7)]);
    }

    #[test]
    fn ring_caps_and_reregistration_replaces() {
        let g = GaugeRegistry::new();
        g.register("gauge.x", || 1);
        for i in 0..(GAUGE_RING_CAPACITY as u64 + 10) {
            g.sample_all(i);
        }
        assert_eq!(g.snapshot()[0].samples.len(), GAUGE_RING_CAPACITY);
        g.register("gauge.x", || 2);
        assert_eq!(g.len(), 1);
        assert!(g.latest().is_empty(), "replacement discards samples");
    }

    #[test]
    fn counter_delta_is_monotone_and_exact() {
        let g = GaugeRegistry::new();
        assert_eq!(g.counter_delta(5), 5);
        assert_eq!(g.counter_delta(5), 0);
        assert_eq!(g.counter_delta(9), 4);
    }
}
