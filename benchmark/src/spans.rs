//! The benchmark's own span recorder.
//!
//! Spans are recorded only at boundaries the benchmark owns: the op call
//! (the root), each `DataManager` callback of the benchmark's pager, the
//! server handler of the message workloads, and each `UnixIo` call through
//! `TimedIo`. Spans inside the kernel are a later issue. Everything stays
//! in memory until the run ends; with the recorder off (every end-to-end
//! measurement) a boundary costs one relaxed atomic load.

use crate::json::Json;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Closed-loop clients a workload may run (never above `nproc` = 2).
pub const MAX_CLIENTS: usize = 2;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; 0 for an op (a root).
    pub parent: u64,
    /// The op this span belongs to: the id of its root.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
/// The op each client has outstanding (a closed loop has exactly one).
static CURRENT_OP: [AtomicU64; MAX_CLIENTS] = [AtomicU64::new(0), AtomicU64::new(0)];
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    // Relaxed: the flag publishes no data, and rounds are separated from
    // the toggle by thread joins.
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Removes and returns everything recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// An open span; recorded when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start_ns: u64,
    client: Option<usize>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        if let Some(c) = self.client {
            CURRENT_OP[c].store(0, Ordering::Relaxed);
        }
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(Span {
                id: self.id,
                parent: self.parent,
                op: self.op,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
            });
        }
    }
}

/// Opens the root span of one op of `client`; `None` with the recorder
/// off.
pub fn op(client: usize) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    CURRENT_OP[client].store(id, Ordering::Relaxed);
    Some(Guard {
        id,
        parent: 0,
        op: id,
        name: "op",
        start_ns: now_ns(),
        client: Some(client),
    })
}

/// Opens a span under the op `client` has outstanding. Work that arrives
/// while the client has no op open (a pageout the daemon started between
/// ops) is recorded with op 0.
pub fn child(name: &'static str, client: usize) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let op = CURRENT_OP[client].load(Ordering::Relaxed);
    Some(Guard {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: op,
        op,
        name,
        start_ns: now_ns(),
        client: None,
    })
}

/// Length of the union of `intervals`, each clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover (children may overlap each other and may stick
/// out of the parent; grandchildren do not count).
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children.iter().map(|c| (c.start_ns, c.end_ns)).collect();
    span.duration_ns() - covered_ns(span.start_ns, span.end_ns, &mut intervals)
}

/// Writes the trace file. Streamed span by span: a traced round records
/// hundreds of thousands of spans, too many to build a JSON tree for.
pub fn write_json(out: impl std::io::Write, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(out);
    write!(
        out,
        "{{\"workload\":{},\"clock\":\"host ns since the recorder's first span\",\"spans\":[",
        Json::str(workload).to_line()
    )?;
    for (i, s) in spans.iter().enumerate() {
        write!(
            out,
            "{}\n{{\"name\":{},\"id\":{},\"start\":{},\"end\":{},\"parent\":{},\"op\":{}}}",
            if i == 0 { "" } else { "," },
            Json::str(s.name).to_line(),
            s.id,
            s.start_ns,
            s.end_ns,
            s.parent,
            s.op
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = span(1, 0, 100, 200);
        // Overlapping children 110..150 and 140..170 cover 60, not 70.
        let a = span(2, 1, 110, 150);
        let b = span(3, 1, 140, 170);
        assert_eq!(self_time_ns(&root, &[&a, &b]), 40);
        // Order of children does not matter.
        assert_eq!(self_time_ns(&root, &[&b, &a]), 40);
        // No children: all of it is self time.
        assert_eq!(self_time_ns(&root, &[]), 100);
    }

    #[test]
    fn nested_grandchildren_do_not_count_twice() {
        let root = span(1, 0, 0, 100);
        let child = span(2, 1, 10, 60);
        let grandchild = span(3, 2, 20, 30);
        // Only direct children are handed in; the child's own self time
        // is what the grandchild reduces.
        assert_eq!(self_time_ns(&root, &[&child]), 50);
        assert_eq!(self_time_ns(&child, &[&grandchild]), 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let root = span(1, 0, 100, 200);
        let early = span(2, 1, 50, 120);
        let late = span(3, 1, 190, 260);
        let contained = span(4, 1, 115, 118);
        assert_eq!(self_time_ns(&root, &[&late, &contained, &early]), 70);
        let outside = span(5, 1, 300, 400);
        assert_eq!(self_time_ns(&root, &[&outside]), 100);
    }

    #[test]
    fn recorder_links_children_to_the_outstanding_op() {
        // The only test that touches the global recorder.
        set_enabled(true);
        let root = op(1).expect("recorder is on");
        let root_id = root.id;
        drop(child("manager.data_request", 1));
        drop(root);
        drop(child("manager.data_write", 1));
        set_enabled(false);
        assert!(op(1).is_none() && child("x", 1).is_none());
        let spans = drain();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[0].op, spans[0].name),
            (root_id, root_id, "manager.data_request")
        );
        assert_eq!((spans[1].id, spans[1].parent), (root_id, 0));
        assert_eq!((spans[2].parent, spans[2].op), (0, 0));
        let mut file = Vec::new();
        write_json(&mut file, "w", &spans).unwrap();
        let parsed = Json::parse(std::str::from_utf8(&file).unwrap()).unwrap();
        let written = parsed.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(written.len(), 3);
        assert_eq!(
            written[0].get("name").and_then(Json::as_str),
            Some("manager.data_request")
        );
        assert_eq!(
            written[1].get("id").and_then(Json::as_f64),
            Some(root_id as f64)
        );
    }
}
