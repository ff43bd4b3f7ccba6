//! Span reconstruction and critical-path attribution.
//!
//! The trace ring ([`crate::trace`]) records flat point events; this
//! module rebuilds the *structure* the paper's evaluation needs: each
//! fault chain as a tree of named phase spans (submit → park → pager
//! service → reply → resume → pmap enter), and an attribution of the
//! chain's end-to-end sim-time to those phases. The attribution rule is
//! "innermost wins": at every instant of the root span's window the time
//! is charged to the deepest open span covering it, so phase self-times
//! tile the window exactly and coverage is total by construction —
//! whatever the root does not delegate to a child is its own self-time.
//!
//! Cross-host spans (a `net.hop` opens on one host's clock and closes on
//! another's) are kept for tree-connectivity checks but excluded from
//! time attribution: subtracting timestamps from two independent
//! simulated clocks would be meaningless.

use crate::trace::{CorrelationId, EventKind, Histogram, TraceEvent};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;

/// One reconstructed span: an open event paired with its close.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Process-unique span id.
    pub id: u64,
    /// Enclosing span id (0 = chain root).
    pub parent: u64,
    /// Phase name (the `SpanOpen` literal).
    pub name: &'static str,
    /// Causal chain the span belongs to, if any.
    pub correlation: Option<CorrelationId>,
    /// Sim-time of the open event on its host.
    pub open_ns: u64,
    /// Sim-time of the close event, if one was recorded.
    pub close_ns: Option<u64>,
    /// Host that opened the span.
    pub open_host: Arc<str>,
    /// Host that closed the span (differs from `open_host` for network
    /// hops).
    pub close_host: Option<Arc<str>>,
    /// The depth of the queue the span opened at, if it opened at one
    /// (see [`crate::trace::SpanInfo::depth`]).
    pub depth: Option<u32>,
}

impl SpanRecord {
    /// Whether open and close happened on different hosts' clocks.
    pub fn is_cross_host(&self) -> bool {
        self.close_host
            .as_ref()
            .is_some_and(|h| **h != *self.open_host)
    }

    /// Close-minus-open duration, when closed on the opening host.
    pub fn duration_ns(&self) -> Option<u64> {
        if self.is_cross_host() {
            return None;
        }
        self.close_ns.map(|c| c.saturating_sub(self.open_ns))
    }
}

/// Pairs every `SpanOpen`/`SpanClose` event in `events` into
/// [`SpanRecord`]s, in open order.
///
/// A close whose open fell off the ring is dropped; an open with no close
/// yields a record with `close_ns == None`. Feed this the *merged*
/// snapshots of every host involved in a chain so cross-host spans pair
/// up.
pub fn collect(events: &[TraceEvent]) -> Vec<SpanRecord> {
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    let mut out: Vec<SpanRecord> = Vec::new();
    for e in events {
        match (e.kind, e.span) {
            (EventKind::SpanOpen(name), Some(info)) => {
                by_id.insert(info.id, out.len());
                out.push(SpanRecord {
                    id: info.id,
                    parent: info.parent,
                    name,
                    correlation: e.correlation_id,
                    open_ns: e.ts_ns,
                    close_ns: None,
                    open_host: e.host.clone(),
                    close_host: None,
                    depth: info.depth,
                });
            }
            (EventKind::SpanClose(_), Some(info)) => {
                if let Some(&i) = by_id.get(&info.id) {
                    out[i].close_ns = Some(e.ts_ns);
                    out[i].close_host = Some(e.host.clone());
                }
            }
            _ => {}
        }
    }
    out.sort_by_key(|s| (s.open_ns, s.id));
    out
}

/// Where one chain's end-to-end sim-time went, by phase name.
#[derive(Clone, Debug)]
pub struct ChainAttribution {
    /// The chain attributed.
    pub cid: CorrelationId,
    /// Root span id.
    pub root: u64,
    /// Root phase name (normally `fault.submit`).
    pub root_name: &'static str,
    /// Root close minus root open: the chain's end-to-end sim-time.
    pub total_ns: u64,
    /// Sim-time attributed to named phases (equals `total_ns` unless the
    /// chain is degenerate).
    pub attributed_ns: u64,
    /// Per-phase *self*-time — time a phase was the innermost open span.
    pub phases: BTreeMap<&'static str, u64>,
}

impl ChainAttribution {
    /// Fraction of the chain's end-to-end time attributed to named
    /// phases (1.0 for an empty-window chain).
    pub fn coverage(&self) -> f64 {
        if self.total_ns == 0 {
            1.0
        } else {
            self.attributed_ns as f64 / self.total_ns as f64
        }
    }
}

/// Attributes one chain's time to phases. `spans` is every span of the
/// chain; returns `None` when the chain has no closed same-host root.
pub fn attribute_chain(cid: CorrelationId, spans: &[SpanRecord]) -> Option<ChainAttribution> {
    let root = spans
        .iter()
        .filter(|s| s.parent == 0 && s.close_ns.is_some() && !s.is_cross_host())
        .min_by_key(|s| (s.open_ns, s.id))?;
    let (lo, hi) = (root.open_ns, root.close_ns.unwrap_or(root.open_ns));
    let total_ns = hi - lo;

    // Usable for timing: closed, on the root host's clock, clipped to the
    // root window. Self-times come from a boundary sweep where the
    // deepest covering span wins each elementary interval.
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let depth_of = |mut id: u64| {
        let mut d = 0usize;
        while let Some(s) = by_id.get(&id) {
            if s.parent == 0 || d > spans.len() {
                break;
            }
            d += 1;
            id = s.parent;
        }
        d
    };
    struct Clipped<'a> {
        span: &'a SpanRecord,
        lo: u64,
        hi: u64,
        depth: usize,
    }
    let usable: Vec<Clipped<'_>> = spans
        .iter()
        .filter(|s| s.close_ns.is_some() && !s.is_cross_host() && *s.open_host == *root.open_host)
        .map(|s| Clipped {
            span: s,
            lo: s.open_ns.clamp(lo, hi),
            hi: s.close_ns.unwrap_or(s.open_ns).clamp(lo, hi),
            depth: depth_of(s.id),
        })
        .collect();

    let mut phases: BTreeMap<&'static str, u64> = BTreeMap::new();
    for c in &usable {
        phases.entry(c.span.name).or_insert(0);
    }
    let mut bounds: Vec<u64> = usable.iter().flat_map(|c| [c.lo, c.hi]).collect();
    bounds.sort_unstable();
    bounds.dedup();
    let mut attributed_ns = 0u64;
    for w in bounds.windows(2) {
        let (t1, t2) = (w[0], w[1]);
        let winner = usable
            .iter()
            .filter(|c| c.lo <= t1 && c.hi >= t2)
            .max_by_key(|c| (c.depth, c.span.open_ns, c.span.id));
        if let Some(c) = winner {
            *phases.entry(c.span.name).or_insert(0) += t2 - t1;
            attributed_ns += t2 - t1;
        }
    }
    Some(ChainAttribution {
        cid,
        root: root.id,
        root_name: root.name,
        total_ns,
        attributed_ns,
        phases,
    })
}

/// Structural check for one chain's span tree: exactly one root and no
/// orphans (every non-root parent id resolves within the chain).
///
/// Cross-host spans participate — this is the guarantee the netmsgserver
/// propagation test asserts: a proxied fault still forms one connected
/// tree.
pub fn validate_chain_tree(spans: &[SpanRecord]) -> Result<(), String> {
    if spans.is_empty() {
        return Err("chain has no spans".into());
    }
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent == 0).collect();
    if roots.len() != 1 {
        return Err(format!(
            "expected exactly one root span, found {}: {:?}",
            roots.len(),
            roots.iter().map(|s| s.name).collect::<Vec<_>>()
        ));
    }
    for s in spans {
        if s.parent != 0 && !ids.contains(&s.parent) {
            return Err(format!(
                "orphan span {} (id {}): parent {} not in chain",
                s.name, s.id, s.parent
            ));
        }
    }
    Ok(())
}

/// Aggregated critical-path profile over every chain in a trace.
#[derive(Debug, Default)]
pub struct CriticalPathReport {
    /// Per-chain attributions, in chain (root-open) order.
    pub chains: Vec<ChainAttribution>,
    /// Chains skipped for lack of a closed root (still in flight, or the
    /// ring dropped their boundary events).
    pub skipped: usize,
    /// Spans opened but never closed (diagnostic for ring sizing).
    pub unclosed: usize,
    /// Per-phase self-time histograms, one sample per chain.
    pub phase_ns: BTreeMap<&'static str, Histogram>,
    /// End-to-end chain time histogram, one sample per chain.
    pub total_ns: Histogram,
}

impl CriticalPathReport {
    /// Smallest per-chain coverage seen (1.0 when no chains).
    pub fn min_coverage(&self) -> f64 {
        self.chains
            .iter()
            .map(ChainAttribution::coverage)
            .fold(1.0, f64::min)
    }

    /// Renders the per-phase breakdown as a text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let grand: u64 = self.chains.iter().map(|c| c.total_ns).sum();
        let _ = writeln!(
            out,
            "critical path: {} chains attributed, {} skipped, {} unclosed spans, min coverage {:.1}%",
            self.chains.len(),
            self.skipped,
            self.unclosed,
            self.min_coverage() * 100.0
        );
        let _ = writeln!(
            out,
            "{:<16} {:>7} {:>12} {:>12} {:>12} {:>7}",
            "phase", "chains", "mean self ns", "p99 self ns", "total ns", "share"
        );
        for (name, h) in &self.phase_ns {
            let share = if grand == 0 {
                0.0
            } else {
                h.sum_ns() as f64 / grand as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "{:<16} {:>7} {:>12} {:>12} {:>12} {:>6.1}%",
                name,
                h.count(),
                h.mean_ns(),
                h.p99_ns(),
                h.sum_ns(),
                share
            );
        }
        let _ = writeln!(
            out,
            "{:<16} {:>7} {:>12} {:>12} {:>12} {:>6.1}%",
            "end-to-end",
            self.total_ns.count(),
            self.total_ns.mean_ns(),
            self.total_ns.p99_ns(),
            grand,
            100.0
        );
        out
    }
}

/// Builds the full critical-path profile from raw trace events (merge
/// multiple hosts' snapshots before calling for cross-host chains).
pub fn critical_path(events: &[TraceEvent]) -> CriticalPathReport {
    let spans = collect(events);
    let unclosed = spans.iter().filter(|s| s.close_ns.is_none()).count();
    let mut by_chain: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
    for s in &spans {
        if let Some(cid) = s.correlation {
            by_chain.entry(cid.raw()).or_default().push(s.clone());
        }
    }
    let mut report = CriticalPathReport {
        unclosed,
        ..Default::default()
    };
    for (raw, chain) in &by_chain {
        let cid = CorrelationId::from_raw(*raw).expect("0 is filtered by `s.correlation`");
        match attribute_chain(cid, chain) {
            Some(attr) => {
                for (name, ns) in &attr.phases {
                    report.phase_ns.entry(name).or_default().record(*ns);
                }
                report.total_ns.record(attr.total_ns);
                report.chains.push(attr);
            }
            None => report.skipped += 1,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanInfo, TraceEvent};

    fn open(
        ts: u64,
        host: &str,
        name: &'static str,
        id: u64,
        parent: u64,
        cid: Option<CorrelationId>,
    ) -> TraceEvent {
        TraceEvent::new(ts, Arc::from(host), name, EventKind::SpanOpen(name), cid).with_span(
            SpanInfo {
                id,
                parent,
                depth: None,
            },
        )
    }

    fn close(ts: u64, host: &str, name: &'static str, id: u64) -> TraceEvent {
        TraceEvent::new(ts, Arc::from(host), name, EventKind::SpanClose(name), None).with_span(
            SpanInfo {
                id,
                parent: 0,
                depth: None,
            },
        )
    }

    #[test]
    fn collect_pairs_opens_with_closes() {
        let cid = CorrelationId::allocate();
        let events = vec![
            open(10, "a", "root", 1, 0, Some(cid)),
            open(20, "a", "child", 2, 1, Some(cid)),
            close(30, "a", "child", 2),
            close(40, "a", "root", 1),
            open(50, "a", "dangling", 3, 1, Some(cid)),
        ];
        let spans = collect(&events);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].duration_ns(), Some(30));
        assert_eq!(spans[1].duration_ns(), Some(10));
        assert!(spans[2].close_ns.is_none());
    }

    #[test]
    fn innermost_span_wins_attribution() {
        let cid = CorrelationId::allocate();
        // root [0,100), child [20,60), grandchild [30,40).
        let events = vec![
            open(0, "a", "root", 1, 0, Some(cid)),
            open(20, "a", "child", 2, 1, Some(cid)),
            open(30, "a", "grand", 3, 2, Some(cid)),
            close(40, "a", "grand", 3),
            close(60, "a", "child", 2),
            close(100, "a", "root", 1),
        ];
        let spans = collect(&events);
        let attr = attribute_chain(cid, &spans).expect("closed root");
        assert_eq!(attr.total_ns, 100);
        assert_eq!(attr.attributed_ns, 100, "root tiles its whole window");
        assert!((attr.coverage() - 1.0).abs() < 1e-9);
        assert_eq!(attr.phases["root"], 60); // 0-20 + 60-100
        assert_eq!(attr.phases["child"], 30); // 20-30 + 40-60
        assert_eq!(attr.phases["grand"], 10);
    }

    #[test]
    fn cross_host_spans_connect_but_do_not_count() {
        let cid = CorrelationId::allocate();
        let events = vec![
            open(0, "a", "root", 1, 0, Some(cid)),
            open(5, "a", "net.hop", 2, 1, Some(cid)),
            close(999_999, "b", "net.hop", 2), // host b's clock: meaningless delta
            open(7, "b", "remote", 3, 2, Some(cid)),
            close(9, "b", "remote", 3),
            close(50, "a", "root", 1),
        ];
        let spans = collect(&events);
        assert!(spans.iter().any(SpanRecord::is_cross_host));
        validate_chain_tree(&spans).expect("one connected tree");
        let attr = attribute_chain(cid, &spans).expect("closed root");
        // Only host-a spans count; the hop and the remote work do not.
        assert_eq!(attr.total_ns, 50);
        assert_eq!(attr.phases["root"], 50);
        assert!(!attr.phases.contains_key("net.hop"));
    }

    #[test]
    fn orphans_and_double_roots_are_reported() {
        let cid = CorrelationId::allocate();
        let orphan = collect(&[
            open(0, "a", "root", 1, 0, Some(cid)),
            open(1, "a", "lost", 2, 77, Some(cid)),
        ]);
        assert!(validate_chain_tree(&orphan).unwrap_err().contains("orphan"));
        let two_roots = collect(&[
            open(0, "a", "root", 1, 0, Some(cid)),
            open(1, "a", "root", 2, 0, Some(cid)),
        ]);
        assert!(validate_chain_tree(&two_roots)
            .unwrap_err()
            .contains("exactly one root"));
        assert!(validate_chain_tree(&[]).is_err());
    }

    #[test]
    fn report_aggregates_chains_and_skips_unrooted() {
        let a = CorrelationId::allocate();
        let b = CorrelationId::allocate();
        let events = vec![
            open(0, "h", "root", 1, 0, Some(a)),
            close(10, "h", "root", 1),
            // Chain b: root never closes -> skipped.
            open(5, "h", "root", 2, 0, Some(b)),
        ];
        let r = critical_path(&events);
        assert_eq!(r.chains.len(), 1);
        assert_eq!(r.skipped, 1);
        assert_eq!(r.unclosed, 1);
        assert_eq!(r.total_ns.count(), 1);
        assert!(r.min_coverage() >= 0.95);
        assert!(r.render().contains("root"));
    }
}
