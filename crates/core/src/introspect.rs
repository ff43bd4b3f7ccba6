//! Kernel introspection over IPC: typed snapshots served on the host port.
//!
//! Mach exposes kernel state the same way it exposes everything else — as
//! a message protocol on a port (`host_info`, `vm_statistics`). This
//! module defines the snapshot types the kernel's host port serves
//! ([`HostStatistics`], [`VmStatisticsSnapshot`], [`TaskInfoReply`],
//! [`TraceQueryReply`]), each the body of a [`HostReply`], and the
//! client-side query helpers. Because the queries are plain RPCs, a task
//! on *another* host can issue them through a network proxy port exactly
//! as a local task would — observability inherits the duality's location
//! transparency for free.

use crate::proto::{record, HostRequest as H};
use machipc::{IpcError, SendRight};
use machsim::export::HistogramData;
use machsim::stats::keys;
use machsim::Machine;
use machvm::{FrameCensus, NodeCensus, PhysicalMemory};
use std::fmt;
use std::time::Duration;

/// Default client-side timeout for introspection RPCs.
pub const QUERY_TIMEOUT: Duration = Duration::from_secs(5);

// Each snapshot on the wire: its fields in declaration order.
record! {
    HistogramData { name: String, count: u64, sum_ns: u64, buckets: Vec<(u64, u64)> }
    FrameCensus {
        total: u64, free: u64, active: u64, inactive: u64,
        resident: u64, pending: u64, dirty: u64, reserve: u64,
    }
    NodeCensus { node: u64, total: u64, free: u64, resident: u64, replicas: u64 }
    HostStatistics {
        host: String, now_ns: u64, trace_dropped: u64, in_flight: u64,
        counters: Vec<(String, u64)>, histograms: Vec<HistogramData>,
    }
    VmStatisticsSnapshot {
        host: String, now_ns: u64, census: FrameCensus,
        pages_stolen: u64, bytes_copied: u64, nodes: Vec<NodeCensus>,
    }
    TaskInfo { name: String, regions: u64, virtual_bytes: u64, resident_pages: u64 }
    TaskInfoReply { host: String, tasks: Vec<TaskInfo> }
    TraceRecord { seq: u64, ts_ns: u64, correlation: u64, host: String, actor: String, kind: String }
    TraceQueryReply { dropped: u64, records: Vec<TraceRecord> }
}

crate::protocol! {
    /// Kernel host port → querying task: the answer to each
    /// [`HostRequest`](H), one of this module's snapshots.
    #[derive(Debug)]
    pub enum HostReply {
        /// Every counter and latency histogram.
        Statistics(snapshot: HostStatistics) = HOST_STATISTICS_REPLY: 0x2501,
        /// The frame census, whole and per node.
        VmStatistics(snapshot: VmStatisticsSnapshot) = HOST_VM_STATISTICS_REPLY: 0x2503,
        /// Live tasks and their address maps.
        TaskInfo(reply: TaskInfoReply) = HOST_TASK_INFO_REPLY: 0x2505,
        /// One chain of trace events, or the ring's tail.
        TraceQuery(reply: TraceQueryReply) = HOST_TRACE_QUERY_REPLY: 0x2507,
    }
}

// ----- host_statistics -----

/// Everything a host knows about itself: counters, latency histograms,
/// trace-ring health, and the in-flight fault count.
#[derive(Clone, Debug)]
pub struct HostStatistics {
    /// Name of the serving host.
    pub host: String,
    /// Simulated time on the serving host at capture.
    pub now_ns: u64,
    /// Trace events lost to ring overflow on the serving host.
    pub trace_dropped: u64,
    /// Faults in flight (parked or being resumed) at capture.
    pub in_flight: u64,
    /// Every counter of `stats::keys::ALL` with its value, in that order.
    pub counters: Vec<(String, u64)>,
    /// Every histogram of `trace::keys::ALL`, in that order.
    pub histograms: Vec<HistogramData>,
}

impl HostStatistics {
    /// Captures the serving side's snapshot.
    pub fn capture(machine: &Machine, phys: &PhysicalMemory) -> Self {
        HostStatistics {
            host: machine.host().to_string(),
            now_ns: machine.clock.now_ns(),
            trace_dropped: machine.trace.dropped(),
            in_flight: phys.fault_engine().in_flight() as u64,
            counters: machine
                .stats
                .snapshot()
                .iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            histograms: machine
                .latency
                .snapshot()
                .map(|(name, h)| HistogramData::of(name, h))
                .collect(),
        }
    }

    /// The captured value of one counter (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Renders this snapshot in Prometheus text exposition format —
    /// usable on the querying side after a cross-host fetch.
    pub fn to_prometheus(&self) -> String {
        machsim::export::prometheus_from(&self.counters, &self.histograms, self.trace_dropped)
    }
}

// ----- host_vm_statistics -----

/// Resident-memory state of one host: the frame census, whole and per
/// memory node.
#[derive(Clone, Debug)]
pub struct VmStatisticsSnapshot {
    /// Name of the serving host.
    pub host: String,
    /// Simulated time on the serving host at capture.
    pub now_ns: u64,
    /// Frame and queue counts.
    pub census: FrameCensus,
    /// Pager-supplied pages that entered the cache by remapping
    /// (`vm.pages_stolen`).
    pub pages_stolen: u64,
    /// Bytes physically copied (`mem.bytes_copied`): pager fills that
    /// could not be stolen, copy-on-write copies, `vm_read`/`vm_write`.
    pub bytes_copied: u64,
    /// Per-node frame census, in node order (one entry on UMA machines).
    pub nodes: Vec<NodeCensus>,
}

impl VmStatisticsSnapshot {
    /// Captures the serving side's snapshot.
    pub fn capture(machine: &Machine, phys: &PhysicalMemory) -> Self {
        VmStatisticsSnapshot {
            host: machine.host().to_string(),
            now_ns: machine.clock.now_ns(),
            census: phys.frame_census(),
            pages_stolen: machine.stats.get(keys::VM_PAGES_STOLEN),
            bytes_copied: machine.stats.get(keys::BYTES_COPIED),
            nodes: phys.node_census(),
        }
    }
}

// ----- host_task_info -----

/// Summary of one live task's address space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskInfo {
    /// Task name.
    pub name: String,
    /// Number of mapped regions.
    pub regions: u64,
    /// Total mapped virtual bytes.
    pub virtual_bytes: u64,
    /// Resident pages across the task's backing memory objects (shared
    /// objects count in every task mapping them).
    pub resident_pages: u64,
}

/// Reply to `host_task_info`: every live task the kernel knows.
#[derive(Clone, Debug)]
pub struct TaskInfoReply {
    /// Name of the serving host.
    pub host: String,
    /// One entry per live task, in registration order.
    pub tasks: Vec<TaskInfo>,
}

// ----- host_trace_query -----

/// One trace event as fetched over IPC (kinds flattened to their display
/// names, so the record is self-describing on any host).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Process-wide sequence number.
    pub seq: u64,
    /// Simulated time on the emitting host.
    pub ts_ns: u64,
    /// Causal chain id (0 = uncorrelated).
    pub correlation: u64,
    /// Emitting host name.
    pub host: String,
    /// Emitting component.
    pub actor: String,
    /// Event kind display name ("fault.submit:open", "disk_read", ...).
    pub kind: String,
}

/// Reply to `host_trace_query`.
#[derive(Clone, Debug)]
pub struct TraceQueryReply {
    /// Events lost to ring overflow on the serving host.
    pub dropped: u64,
    /// Matching events in sequence order.
    pub records: Vec<TraceRecord>,
}

impl TraceQueryReply {
    /// Captures the serving side's reply: one chain when `correlation` is
    /// nonzero, otherwise the newest `max_events` of the whole ring.
    pub fn capture(machine: &Machine, correlation: u64, max_events: u64) -> Self {
        let mut events = match machsim::CorrelationId::from_raw(correlation) {
            Some(cid) => machine.trace.chain(cid),
            None => machine.trace.snapshot(),
        };
        let max = (max_events as usize).max(1);
        if events.len() > max {
            events.drain(..events.len() - max);
        }
        TraceQueryReply {
            dropped: machine.trace.dropped(),
            records: events
                .iter()
                .map(|e| TraceRecord {
                    seq: e.seq,
                    ts_ns: e.ts_ns,
                    correlation: e.correlation_id.map_or(0, machsim::CorrelationId::raw),
                    host: e.host.to_string(),
                    actor: e.actor.to_string(),
                    kind: e.kind.to_string(),
                })
                .collect(),
        }
    }
}

// ----- client helpers -----

/// Why a host query failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The RPC failed: no answer came, or the port is gone.
    Ipc(IpcError),
    /// The answer was not the reply the query asks for.
    Malformed,
}

impl From<IpcError> for QueryError {
    fn from(err: IpcError) -> Self {
        QueryError::Ipc(err)
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Ipc(err) => err.fmt(f),
            QueryError::Malformed => f.write_str("malformed host port reply"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Sends `request` to a host port and takes its answer out of the reply.
fn query<T>(
    host_port: &SendRight,
    request: H,
    answer: fn(HostReply) -> Option<T>,
) -> Result<T, QueryError> {
    let reply = host_port.rpc(request.encode(), Some(QUERY_TIMEOUT), Some(QUERY_TIMEOUT))?;
    let reply = HostReply::decode(reply).map_err(|_| QueryError::Malformed)?;
    answer(reply).ok_or(QueryError::Malformed)
}

/// Fetches [`HostStatistics`] from a kernel's host port — local, or on a
/// remote host through a network proxy right.
pub fn query_host_statistics(host_port: &SendRight) -> Result<HostStatistics, QueryError> {
    query(host_port, H::Statistics, |reply| match reply {
        HostReply::Statistics(snapshot) => Some(snapshot),
        _ => None,
    })
}

/// Fetches [`VmStatisticsSnapshot`] from a kernel's host port.
pub fn query_vm_statistics(host_port: &SendRight) -> Result<VmStatisticsSnapshot, QueryError> {
    query(host_port, H::VmStatistics, |reply| match reply {
        HostReply::VmStatistics(snapshot) => Some(snapshot),
        _ => None,
    })
}

/// Fetches [`TaskInfoReply`] from a kernel's host port.
pub fn query_task_info(host_port: &SendRight) -> Result<TaskInfoReply, QueryError> {
    query(host_port, H::TaskInfo, |reply| match reply {
        HostReply::TaskInfo(info) => Some(info),
        _ => None,
    })
}

/// Fetches trace events from a kernel's host port: one chain when
/// `correlation` is nonzero, otherwise the newest `max_events` of the ring.
pub fn query_trace(
    host_port: &SendRight,
    correlation: u64,
    max_events: u64,
) -> Result<TraceQueryReply, QueryError> {
    let request = H::TraceQuery(correlation, max_events);
    query(host_port, request, |reply| match reply {
        HostReply::TraceQuery(trace) => Some(trace),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Message;
    use machipc::{MsgItem, ReceiveRight};
    use machsim::trace::keys as lat_keys;

    /// `reply` after a trip through its wire form.
    fn wire(reply: HostReply) -> HostReply {
        HostReply::decode(reply.encode()).expect("decodes")
    }

    #[test]
    fn host_statistics_round_trips_through_wire_form() {
        let m = Machine::default_machine();
        let phys = PhysicalMemory::new(&m, 64 * 4096, 4096, 4);
        m.stats.add(keys::VM_FAULTS, 17);
        m.stats.add(keys::DISK_READS, 3);
        m.latency.record(lat_keys::FAULT_TO_RESOLUTION, 1000);
        m.latency.record(lat_keys::FAULT_TO_RESOLUTION, 2_000_000);
        let snap = HostStatistics::capture(&m, &phys);
        let HostReply::Statistics(decoded) = wire(HostReply::Statistics(snap)) else {
            panic!("a statistics reply");
        };
        assert_eq!(decoded.host, "local");
        assert_eq!(decoded.counter(keys::VM_FAULTS), 17);
        assert_eq!(decoded.counter(keys::DISK_READS), 3);
        assert_eq!(decoded.counter("absent"), 0);
        assert_eq!(decoded.counters.len(), keys::ALL.len());
        assert_eq!(decoded.in_flight, 0);
        assert_eq!(decoded.histograms.len(), lat_keys::ALL.len());
        let h = &decoded.histograms[0];
        assert_eq!(h.name, lat_keys::FAULT_TO_RESOLUTION);
        assert_eq!(h.count, 2);
        assert_eq!(h.sum_ns, 2_001_000);
        assert_eq!(h.buckets.len(), 2);
        // And the decoded snapshot still renders as Prometheus text.
        let prom = decoded.to_prometheus();
        assert!(prom.contains("vm_faults 17"));
        assert!(prom.contains("vm_fault_to_resolution_ns_count 2"));
    }

    #[test]
    fn vm_statistics_round_trips_through_wire_form() {
        let m = Machine::default_machine();
        let phys = PhysicalMemory::new(&m, 64 * 4096, 4096, 4);
        m.stats.add(keys::VM_PAGES_STOLEN, 8);
        m.stats.add(keys::BYTES_COPIED, 4096);
        let snap = VmStatisticsSnapshot::capture(&m, &phys);
        let HostReply::VmStatistics(decoded) = wire(HostReply::VmStatistics(snap.clone())) else {
            panic!("a vm statistics reply");
        };
        assert_eq!(decoded.census, snap.census);
        assert_eq!((decoded.pages_stolen, decoded.bytes_copied), (8, 4096));
        assert_eq!(decoded.census.total, 64);
        assert_eq!(decoded.census.free, 64);
        assert_eq!(decoded.nodes, snap.nodes);
    }

    #[test]
    fn task_info_round_trips_through_wire_form() {
        let reply = TaskInfoReply {
            host: "nodeB".into(),
            tasks: vec![
                TaskInfo {
                    name: "init".into(),
                    regions: 2,
                    virtual_bytes: 8192,
                    resident_pages: 1,
                },
                TaskInfo {
                    name: "fs server\nwith\ttabs".into(),
                    regions: 5,
                    virtual_bytes: 1 << 20,
                    resident_pages: 40,
                },
            ],
        };
        let HostReply::TaskInfo(decoded) = wire(HostReply::TaskInfo(reply.clone())) else {
            panic!("a task info reply");
        };
        assert_eq!(decoded.host, "nodeB");
        assert_eq!(decoded.tasks, reply.tasks);
    }

    #[test]
    fn trace_query_round_trips_and_caps_events() {
        let m = Machine::default_machine();
        for _ in 0..10 {
            m.trace_event("unit", machsim::EventKind::Mark("unit"));
        }
        let reply = TraceQueryReply::capture(&m, 0, 4);
        assert_eq!(reply.records.len(), 4, "capped at max_events");
        let HostReply::TraceQuery(decoded) = wire(HostReply::TraceQuery(reply.clone())) else {
            panic!("a trace query reply");
        };
        assert_eq!(decoded.records, reply.records);
        assert_eq!(decoded.records[0].kind, "unit");
        assert_eq!(decoded.records[0].host, "local");
    }

    #[test]
    fn decode_rejects_malformed_messages() {
        assert!(HostReply::decode(Message::new(HOST_STATISTICS_REPLY)).is_err());
        // A name and two words: too short for any of the four replies.
        let short = |id| {
            Message::new(id)
                .with(MsgItem::bytes(b"host".to_vec()))
                .with(MsgItem::u64s(&[1, 2]))
        };
        for id in [
            HOST_STATISTICS_REPLY,
            HOST_VM_STATISTICS_REPLY,
            HOST_TASK_INFO_REPLY,
            HOST_TRACE_QUERY_REPLY,
        ] {
            assert!(HostReply::decode(short(id)).is_err(), "id {id:#x}");
        }
        // A list claiming more entries than the body holds.
        let long = Message::new(HOST_STATISTICS_REPLY)
            .with(MsgItem::bytes(b"host".to_vec()))
            .with(MsgItem::u64s(&[1, 2, 3, u64::MAX, 0]));
        assert!(HostReply::decode(long).is_err());
        assert!(HostReply::decode(Message::new(0)).is_err());
    }

    #[test]
    fn a_reply_of_the_wrong_kind_is_malformed() {
        let m = Machine::default_machine();
        let (_port, host_port) = ReceiveRight::allocate_kernel(&m, |_| {
            let tasks = vec![];
            let host = "liar".to_string();
            Some(HostReply::TaskInfo(TaskInfoReply { host, tasks }).encode())
        });
        let answer = query_host_statistics(&host_port).map(|snapshot| snapshot.host);
        assert_eq!(answer, Err(QueryError::Malformed));
    }
}
