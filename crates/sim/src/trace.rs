//! Structured event tracing and latency histograms.
//!
//! The paper's evaluation (Section 9) is stated in *causal chains*: a page
//! fault becomes a `pager_data_request` message, which becomes a disk read,
//! which becomes a `pager_data_provided` reply. Flat counters cannot show
//! which hop of that chain went wrong, so this module adds the missing
//! dimension: every hop opens and closes a span, and every point worth
//! noting is a mark, each one [`TraceEvent`] in a lock-cheap per-machine
//! ring buffer; all events caused by one fault share one
//! [`CorrelationId`] allocated at fault time.
//!
//! The correlation id travels two ways:
//!
//! * **within a thread** via an implicit thread-local (see
//!   [`CorrelationScope`] and [`current_correlation`]), so storage and
//!   pager code need no extra arguments;
//! * **across threads** by being stamped into every IPC message at send
//!   time and re-adopted by the receiving thread at receive time, so the
//!   chain survives the hop onto a data-manager service thread — or onto
//!   another host entirely, since the network fabric forwards messages
//!   verbatim.
//!
//! Durations between chain hops are aggregated into log-bucket
//! [`Histogram`]s keyed by name in a per-machine [`LatencyRegistry`]
//! (fault-to-resolution, send-to-receive, request-to-fill; see [`keys`]).

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Well-known latency histogram keys recorded by the stack.
pub mod keys {
    /// Page fault entry to successful resolution (`resolve_page`).
    pub const FAULT_TO_RESOLUTION: &str = "vm.fault_to_resolution";
    /// Message enqueue to dequeue on a port (includes network forwarding
    /// hops, whose proxies re-send through ordinary ports).
    pub const SEND_TO_RECEIVE: &str = "ipc.send_to_receive";
    /// `pager_data_request` issued to the page becoming resident
    /// (`pager_data_provided` installed).
    pub const REQUEST_TO_FILL: &str = "vm.request_to_fill";
    /// A fault continuation parked by the async engine to its resume (the
    /// thread-free span of an async fault).
    pub const PARK_TO_RESUME: &str = "vm.park_to_resume";

    /// Every histogram key, in [`super::LatencyRegistry`] slot order (see
    /// [`super::slot`]).
    pub const ALL: &[&str] = &[
        FAULT_TO_RESOLUTION,
        SEND_TO_RECEIVE,
        REQUEST_TO_FILL,
        PARK_TO_RESUME,
    ];
}

/// The index of `key` in [`keys::ALL`], or `None` for an unlisted key
/// (a `match`, like [`crate::stats::slot`]).
#[inline]
pub fn slot(key: &str) -> Option<usize> {
    Some(match key {
        keys::FAULT_TO_RESOLUTION => 0,
        keys::SEND_TO_RECEIVE => 1,
        keys::REQUEST_TO_FILL => 2,
        keys::PARK_TO_RESUME => 3,
        _ => return None,
    })
}

static NEXT_CORRELATION: AtomicU64 = AtomicU64::new(1);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Identity of one causal chain (one page fault, one RPC, ...).
///
/// Allocated process-wide so chains remain unique across simulated hosts;
/// the raw value `0` is reserved to mean "no correlation" on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CorrelationId(u64);

impl CorrelationId {
    /// Allocates a fresh, process-unique correlation id.
    pub fn allocate() -> Self {
        CorrelationId(NEXT_CORRELATION.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw wire value (never 0 for a real id).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Decodes a wire value; `0` means no correlation.
    pub fn from_raw(raw: u64) -> Option<Self> {
        (raw != 0).then_some(CorrelationId(raw))
    }
}

impl fmt::Display for CorrelationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cid#{}", self.0)
    }
}

std::thread_local! {
    static CURRENT_CORRELATION: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The correlation id the current thread is working under, if any.
pub fn current_correlation() -> Option<CorrelationId> {
    CorrelationId::from_raw(CURRENT_CORRELATION.with(|c| c.get()))
}

/// Sets (or clears) the current thread's correlation id.
///
/// Receive paths call this so a service thread adopts the causal context
/// of the message it is handling. Prefer [`CorrelationScope`] where the
/// previous value must be restored.
pub fn set_current_correlation(cid: Option<CorrelationId>) {
    CURRENT_CORRELATION.with(|c| c.set(cid.map_or(0, CorrelationId::raw)));
}

/// RAII guard installing a correlation id on the current thread and
/// restoring the previous one on drop (fault handlers nest under RPCs).
pub struct CorrelationScope {
    previous: u64,
}

impl CorrelationScope {
    /// Enters `cid` for the lifetime of the returned guard.
    pub fn enter(cid: CorrelationId) -> Self {
        let previous = CURRENT_CORRELATION.with(|c| c.replace(cid.raw()));
        CorrelationScope { previous }
    }
}

impl Drop for CorrelationScope {
    fn drop(&mut self) {
        CURRENT_CORRELATION.with(|c| c.set(self.previous));
    }
}

/// Parent/identity annotation carried by span-boundary trace events
/// ([`EventKind::SpanOpen`] / [`EventKind::SpanClose`]).
///
/// Span ids are process-unique like correlation ids; `parent == 0` marks a
/// chain root. The span tree is the *structural* half of causality — which
/// phase contains which — while the correlation id remains the *identity*
/// half (which fault this all belongs to).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanInfo {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span, or 0 for a chain root.
    pub parent: u64,
    /// On the open of a span that starts at a queue (`ipc.queued`,
    /// `fault.parked`, `sched.dispatch`): the entries that queue held as
    /// the span opened. `None` everywhere else.
    pub depth: Option<u32>,
}

/// Allocates a fresh, process-unique span id (never 0).
pub fn allocate_span_id() -> u64 {
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

std::thread_local! {
    static CURRENT_SPAN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The raw span id the current thread is working under (0 = none).
pub fn current_span() -> u64 {
    CURRENT_SPAN.with(|c| c.get())
}

/// Sets (or clears with 0) the current thread's span id.
///
/// Receive and resume paths call this together with
/// [`set_current_correlation`] so the (correlation, span) pair stays
/// consistent — a thread's ambient span is only meaningful for the chain
/// it is currently working on.
pub fn set_current_span(raw: u64) {
    CURRENT_SPAN.with(|c| c.set(raw));
}

/// The current thread's span id, but only if the thread is working under
/// correlation `cid_raw` — otherwise 0.
///
/// Span parents must stay chain-consistent: adopting the ambient span
/// while stamping a *different* chain's message would graft that chain's
/// subtree onto a foreign parent (an orphan in its own tree). Callers
/// stamping a message whose correlation is already decided use this
/// instead of [`current_span`].
pub fn ambient_span_for(cid_raw: u64) -> u64 {
    if cid_raw != 0 && CURRENT_CORRELATION.with(|c| c.get()) == cid_raw {
        current_span()
    } else {
        0
    }
}

/// RAII guard installing a span id on the current thread and restoring
/// the previous one on drop (mirrors [`CorrelationScope`]).
pub struct SpanScope {
    previous: u64,
}

impl SpanScope {
    /// Enters span `raw` for the lifetime of the returned guard.
    pub fn enter(raw: u64) -> Self {
        let previous = CURRENT_SPAN.with(|c| c.replace(raw));
        SpanScope { previous }
    }
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        CURRENT_SPAN.with(|c| c.set(self.previous));
    }
}

/// What a trace event records: a span boundary or a mark.
///
/// A hop of a causal chain is a span — `fault.submit`, `ipc.queued`,
/// `pager.service`, `pager.reply`, `net.hop`, … — so its start and end
/// are its boundaries, and a point with no duration (a disk access, a
/// watchdog flag, a pager's internal decision) is a mark.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A point annotation from a component (`disk_read`, `disk_write`,
    /// `watchdog_stall`, pager internals, …).
    Mark(&'static str),
    /// A named phase span opened (the event carries [`SpanInfo`]).
    SpanOpen(&'static str),
    /// A named phase span closed (the event carries [`SpanInfo`]).
    SpanClose(&'static str),
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // No tabs or newlines: these strings travel through the
        // line-oriented introspection wire format.
        match self {
            EventKind::Mark(s) => f.write_str(s),
            EventKind::SpanOpen(s) => write!(f, "{s}:open"),
            EventKind::SpanClose(s) => write!(f, "{s}:close"),
        }
    }
}

/// One structured trace event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Process-wide sequence number: a total order consistent with
    /// causality even across hosts whose clocks differ.
    pub seq: u64,
    /// Simulated time on the emitting host.
    pub ts_ns: u64,
    /// Name of the emitting host.
    pub host: Arc<str>,
    /// The component that emitted the event ("disk", "watchdog", a span's
    /// own name, ...).
    pub actor: &'static str,
    /// What happened.
    pub kind: EventKind,
    /// The causal chain this event belongs to, if any.
    pub correlation_id: Option<CorrelationId>,
    /// Span identity/parent, present only on span-boundary events.
    pub span: Option<SpanInfo>,
}

impl TraceEvent {
    /// Builds an event stamped with the next global sequence number.
    pub fn new(
        ts_ns: u64,
        host: Arc<str>,
        actor: &'static str,
        kind: EventKind,
        correlation_id: Option<CorrelationId>,
    ) -> Self {
        TraceEvent {
            seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
            ts_ns,
            host,
            actor,
            kind,
            correlation_id,
            span: None,
        }
    }

    /// Attaches span identity to a span-boundary event.
    pub fn with_span(mut self, span: SpanInfo) -> Self {
        self.span = Some(span);
        self
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10} ns] {:<12} {:<20} {}",
            self.ts_ns, self.host, self.actor, self.kind
        )?;
        if let Some(cid) = self.correlation_id {
            write!(f, " {cid}")?;
        }
        Ok(())
    }
}

/// Default ring capacity of a [`TraceBuffer`].
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// A bounded ring buffer of trace events.
///
/// Recording is lock-cheap: one relaxed atomic load when tracing is
/// disabled, one short mutex-protected ring push when enabled. The oldest
/// events are overwritten when the ring is full ([`TraceBuffer::dropped`]
/// counts them), so tracing can stay on permanently.
pub struct TraceBuffer {
    enabled: AtomicBool,
    capacity: usize,
    events: Mutex<VecDeque<TraceEvent>>,
    dropped: AtomicU64,
}

impl fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TraceBuffer({}/{} events)",
            self.events.lock().len(),
            self.capacity
        )
    }
}

impl Default for TraceBuffer {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceBuffer {
    /// Creates an enabled buffer holding up to `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            enabled: AtomicBool::new(true),
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 1024))),
            dropped: AtomicU64::new(0),
        }
    }

    /// Whether recording is currently on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (off makes [`TraceBuffer::record`] a
    /// single atomic load).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Appends an event, overwriting the oldest when full.
    pub fn record(&self, event: TraceEvent) {
        if !self.is_enabled() {
            return;
        }
        let mut q = self.events.lock();
        if q.len() >= self.capacity {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(event);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies out every buffered event in sequence order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut v: Vec<TraceEvent> = self.events.lock().iter().cloned().collect();
        v.sort_by_key(|e| e.seq);
        v
    }

    /// All events of one causal chain, in sequence order.
    pub fn chain(&self, cid: CorrelationId) -> Vec<TraceEvent> {
        let mut v: Vec<TraceEvent> = self
            .events
            .lock()
            .iter()
            .filter(|e| e.correlation_id == Some(cid))
            .cloned()
            .collect();
        v.sort_by_key(|e| e.seq);
        v
    }

    /// Discards all buffered events.
    pub fn clear(&self) {
        self.events.lock().clear();
    }

    /// Correlation ids present in the buffer, oldest chain first.
    pub fn correlations(&self) -> Vec<CorrelationId> {
        let mut seen = Vec::new();
        for e in self.snapshot() {
            if let Some(cid) = e.correlation_id {
                if !seen.contains(&cid) {
                    seen.push(cid);
                }
            }
        }
        seen
    }
}

/// A log₂-bucket latency histogram over nanosecond durations.
///
/// Bucket `i` counts samples whose bit length is `i` (i.e. the range
/// `[2^(i-1), 2^i)`); bucket 0 counts zeros. Percentile queries return the
/// inclusive upper bound of the bucket containing the requested rank, so
/// they overestimate by at most 2x — adequate for order-of-magnitude
/// latency work and extremely cheap to record.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; 65],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn bucket_of(ns: u64) -> usize {
        (u64::BITS - ns.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i` (`2^i - 1`; the last bucket is
    /// unbounded). Exposed for exporters that must render bucket edges
    /// (Prometheus `le` labels).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Non-empty buckets as `(inclusive_upper_bound_ns, count)` pairs in
    /// ascending bound order — the raw data a histogram exporter needs.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((Self::bucket_upper_bound(i), n))
            })
            .collect()
    }

    /// Records one sample.
    pub fn record(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample.
    pub fn max_ns(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns().checked_div(self.count()).unwrap_or(0)
    }

    /// Upper bound of the bucket holding the `p`-th percentile sample
    /// (`p` in 0..=100; 0 when empty).
    pub fn percentile_ns(&self, p: u8) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((n * u64::from(p.min(100))).div_ceil(100)).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper_bound(i).min(self.max_ns());
            }
        }
        self.max_ns()
    }

    /// Median (p50) upper bound.
    pub fn p50_ns(&self) -> u64 {
        self.percentile_ns(50)
    }

    /// Tail (p99) upper bound.
    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(99)
    }
}

/// A machine's latency histograms: one per key of [`keys::ALL`].
///
/// Cloning shares the histograms, mirroring
/// [`StatsRegistry`](crate::stats::StatsRegistry).
#[derive(Clone, Debug, Default)]
pub struct LatencyRegistry {
    histograms: Arc<[Histogram; keys::ALL.len()]>,
}

impl LatencyRegistry {
    /// Creates a registry with every histogram empty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample into the histogram named `key`.
    ///
    /// # Panics
    ///
    /// If `key` is not in [`keys::ALL`].
    #[inline]
    pub fn record(&self, key: &str, ns: u64) {
        let Some(i) = slot(key) else {
            panic!("histogram {key:?} is not in trace::keys::ALL")
        };
        self.histograms[i].record(ns);
    }

    /// The histogram named `key` (`None` for an unlisted key).
    pub fn get(&self, key: &str) -> Option<&Histogram> {
        slot(key).map(|i| &self.histograms[i])
    }

    /// Every histogram, in [`keys::ALL`] order.
    pub fn snapshot(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        keys::ALL.iter().copied().zip(self.histograms.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, cid: Option<CorrelationId>) -> TraceEvent {
        TraceEvent::new(0, Arc::from("host"), "test", kind, cid)
    }

    #[test]
    fn correlation_ids_are_unique_and_nonzero() {
        let a = CorrelationId::allocate();
        let b = CorrelationId::allocate();
        assert_ne!(a, b);
        assert_ne!(a.raw(), 0);
        assert_eq!(CorrelationId::from_raw(0), None);
        assert_eq!(CorrelationId::from_raw(a.raw()), Some(a));
    }

    #[test]
    fn correlation_scope_nests_and_restores() {
        assert_eq!(current_correlation(), None);
        let outer = CorrelationId::allocate();
        let inner = CorrelationId::allocate();
        {
            let _a = CorrelationScope::enter(outer);
            assert_eq!(current_correlation(), Some(outer));
            {
                let _b = CorrelationScope::enter(inner);
                assert_eq!(current_correlation(), Some(inner));
            }
            assert_eq!(current_correlation(), Some(outer));
        }
        assert_eq!(current_correlation(), None);
    }

    #[test]
    fn set_current_correlation_overwrites() {
        let cid = CorrelationId::allocate();
        set_current_correlation(Some(cid));
        assert_eq!(current_correlation(), Some(cid));
        set_current_correlation(None);
        assert_eq!(current_correlation(), None);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let t = TraceBuffer::new(3);
        for _ in 0..5 {
            t.record(ev(EventKind::Mark("m"), None));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let snap = t.snapshot();
        // The three newest survive, in order.
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let t = TraceBuffer::new(8);
        t.set_enabled(false);
        t.record(ev(EventKind::Mark("m"), None));
        assert!(t.is_empty());
        t.set_enabled(true);
        t.record(ev(EventKind::Mark("m"), None));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn chain_filters_by_correlation() {
        let t = TraceBuffer::new(16);
        let a = CorrelationId::allocate();
        let b = CorrelationId::allocate();
        t.record(ev(EventKind::SpanOpen("fault.submit"), Some(a)));
        t.record(ev(EventKind::SpanOpen("fault.submit"), Some(b)));
        t.record(ev(EventKind::SpanClose("fault.submit"), Some(a)));
        assert_eq!(t.chain(a).len(), 2);
        assert_eq!(t.chain(b).len(), 1);
        assert_eq!(t.correlations(), vec![a, b]);
    }

    #[test]
    fn kinds_render_as_marks_and_span_boundaries() {
        assert_eq!(EventKind::Mark("disk_read").to_string(), "disk_read");
        assert_eq!(
            EventKind::SpanOpen("ipc.queued").to_string(),
            "ipc.queued:open"
        );
        assert_eq!(
            EventKind::SpanClose("ipc.queued").to_string(),
            "ipc.queued:close"
        );
    }

    #[test]
    fn histogram_percentiles_bound_samples() {
        let h = Histogram::new();
        for ns in [100u64, 200, 300, 400, 100_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max_ns(), 100_000);
        assert_eq!(h.mean_ns(), (100 + 200 + 300 + 400 + 100_000) / 5);
        // p50 falls in the 256..511 bucket (300's bit length is 9).
        assert!(h.p50_ns() >= 300 && h.p50_ns() < 512, "p50={}", h.p50_ns());
        // p99 is the max sample's bucket, clamped to the observed max.
        assert_eq!(h.p99_ns(), 100_000);
        assert!(h.percentile_ns(1) >= 100 && h.percentile_ns(1) < 256);
    }

    #[test]
    fn empty_histogram_reports_zero_everywhere() {
        let h = Histogram::new();
        for p in [0u8, 1, 50, 99, 100] {
            assert_eq!(h.percentile_ns(p), 0, "p{p} of empty");
        }
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0);
        assert!(h.buckets().is_empty());
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let h = Histogram::new();
        h.record(777);
        for p in [0u8, 1, 50, 99, 100] {
            // One sample: every percentile lands in its bucket, and the
            // bound is clamped to the observed max.
            assert_eq!(h.percentile_ns(p), 777, "p{p} of single sample");
        }
        assert_eq!(h.buckets(), vec![(1023, 1)]);
    }

    #[test]
    fn all_samples_in_one_bucket_share_one_bound() {
        let h = Histogram::new();
        // 512..=1023 all land in the same log2 bucket.
        for ns in [512u64, 600, 800, 1023] {
            h.record(ns);
        }
        let p50 = h.p50_ns();
        let p99 = h.p99_ns();
        assert_eq!(p50, p99, "one bucket, one bound");
        assert_eq!(p99, 1023, "bucket bound clamped to observed max");
        assert_eq!(h.buckets(), vec![(1023, 4)]);
    }

    #[test]
    fn percentile_clamps_p0_and_p100() {
        let h = Histogram::new();
        h.record(10);
        h.record(1_000_000);
        // p0 still needs rank >= 1: it reports the smallest bucket.
        assert!(h.percentile_ns(0) >= 10 && h.percentile_ns(0) < 16);
        // p100 (and anything above, via min(100)) is the max sample.
        assert_eq!(h.percentile_ns(100), 1_000_000);
        assert_eq!(h.percentile_ns(200), 1_000_000);
    }

    #[test]
    fn percentiles_are_monotone_under_random_fills() {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            // SplitMix64 step, kept local to avoid a cross-module dep.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _round in 0..10 {
            let h = Histogram::new();
            for _ in 0..200 {
                h.record(next() % 10_000_000);
            }
            let mut prev = 0u64;
            for p in [0u8, 10, 25, 50, 75, 90, 99, 100] {
                let v = h.percentile_ns(p);
                assert!(v >= prev, "p{p}={v} dipped below {prev}");
                prev = v;
            }
            assert!(h.p50_ns() <= h.p99_ns());
            assert!(h.p99_ns() <= h.max_ns());
        }
    }

    #[test]
    fn buckets_expose_cumulative_material() {
        let h = Histogram::new();
        for ns in [1u64, 2, 3, 1000, 100_000] {
            h.record(ns);
        }
        let buckets = h.buckets();
        let total: u64 = buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, h.count());
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0), "sorted bounds");
    }

    #[test]
    fn histogram_handles_zero_and_empty() {
        let h = Histogram::new();
        assert_eq!(h.p50_ns(), 0);
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.p99_ns(), 0);
    }

    #[test]
    fn span_scope_nests_and_restores() {
        assert_eq!(current_span(), 0);
        let outer = allocate_span_id();
        let inner = allocate_span_id();
        assert_ne!(outer, 0);
        assert_ne!(outer, inner);
        {
            let _a = SpanScope::enter(outer);
            assert_eq!(current_span(), outer);
            {
                let _b = SpanScope::enter(inner);
                assert_eq!(current_span(), inner);
            }
            assert_eq!(current_span(), outer);
        }
        assert_eq!(current_span(), 0);
    }

    #[test]
    fn ambient_span_requires_matching_correlation() {
        let cid = CorrelationId::allocate();
        let other = CorrelationId::allocate();
        let span = allocate_span_id();
        let _c = CorrelationScope::enter(cid);
        let _s = SpanScope::enter(span);
        assert_eq!(ambient_span_for(cid.raw()), span);
        assert_eq!(ambient_span_for(other.raw()), 0, "foreign chain");
        assert_eq!(ambient_span_for(0), 0, "uncorrelated message");
    }

    #[test]
    fn slot_indexes_keys_all() {
        for (i, key) in keys::ALL.iter().enumerate() {
            assert_eq!(slot(key), Some(i), "{key}");
        }
        assert_eq!(slot("not.a.key"), None);
    }

    #[test]
    fn latency_registry_shares_between_clones() {
        let r = LatencyRegistry::new();
        let r2 = r.clone();
        r.record(keys::PARK_TO_RESUME, 10);
        r2.record(keys::PARK_TO_RESUME, 20);
        assert_eq!(r.get(keys::PARK_TO_RESUME).unwrap().count(), 2);
        let names: Vec<&str> = r.snapshot().map(|(k, _)| k).collect();
        assert_eq!(names, keys::ALL);
        assert!(r.get("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "not in trace::keys::ALL")]
    fn recording_an_unlisted_key_panics() {
        LatencyRegistry::new().record("nope", 1);
    }
}
