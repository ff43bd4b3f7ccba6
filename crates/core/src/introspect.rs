//! Kernel introspection over IPC: typed snapshots served on the host port.
//!
//! Mach exposes kernel state the same way it exposes everything else — as
//! a message protocol on a port (`host_info`, `vm_statistics`). This
//! module defines the snapshot types the kernel's host port serves
//! ([`HostStatistics`], [`VmStatisticsSnapshot`], [`TaskInfoReply`],
//! [`TraceQueryReply`]), their wire encodings, and the client-side query
//! helpers. Because the queries are plain RPCs, a task on *another* host
//! can issue them through a network proxy port exactly as a local task
//! would — observability inherits the duality's location transparency for
//! free.
//!
//! Wire encoding: no serialization library exists in this tree, so every
//! snapshot encodes as at most two typed message items — one `Byte` item
//! holding `'\n'`-joined names (names never contain `'\n'`; tabs separate
//! fields within a line) and one `Int64` item holding the numeric
//! material, with self-delimiting counts where the shape is variable.

use crate::proto;
use machipc::{IpcError, Message, MsgItem, SendRight};
use machsim::export::HistogramData;
use machsim::stats::keys;
use machsim::Machine;
use machvm::{FrameCensus, NodeCensus, PhysicalMemory};
use std::time::Duration;

/// Default client-side timeout for introspection RPCs.
pub const QUERY_TIMEOUT: Duration = Duration::from_secs(5);

/// Splits the two-item wire form back into (lines, u64s).
fn unpack(msg: &Message) -> Option<(Vec<&str>, Vec<u64>)> {
    let text = msg
        .body
        .iter()
        .find_map(MsgItem::as_bytes)
        .map(|b| std::str::from_utf8(b).ok())??;
    let nums = msg.body.iter().find_map(|i| i.as_u64s())?;
    let lines = if text.is_empty() {
        Vec::new()
    } else {
        text.split('\n').collect()
    };
    Some((lines, nums))
}

// ----- host_statistics -----

/// Everything a host knows about itself: counters, latency histograms,
/// trace-ring health, and the in-flight chain count.
#[derive(Clone, Debug)]
pub struct HostStatistics {
    /// Name of the serving host.
    pub host: String,
    /// Simulated time on the serving host at capture.
    pub now_ns: u64,
    /// Trace events lost to ring overflow on the serving host.
    pub trace_dropped: u64,
    /// Causal chains in flight (begun, not yet resolved) at capture.
    pub in_flight: u64,
    /// Every named counter with its value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Every latency histogram, sorted by name.
    pub histograms: Vec<HistogramData>,
}

impl HostStatistics {
    /// Captures the serving side's snapshot.
    pub fn capture(machine: &Machine) -> Self {
        HostStatistics {
            host: machine.host().to_string(),
            now_ns: machine.clock.now_ns(),
            trace_dropped: machine.trace.dropped(),
            in_flight: machine.flight.len() as u64,
            counters: machine
                .stats
                .snapshot()
                .iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            histograms: machine
                .latency
                .snapshot()
                .iter()
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

    /// Encodes the reply message.
    pub fn encode(&self) -> Message {
        let mut lines = vec![self.host.as_str()];
        lines.extend(self.counters.iter().map(|(k, _)| k.as_str()));
        lines.extend(self.histograms.iter().map(|h| h.name.as_str()));
        let mut nums = vec![
            self.now_ns,
            self.trace_dropped,
            self.in_flight,
            self.counters.len() as u64,
            self.histograms.len() as u64,
        ];
        nums.extend(self.counters.iter().map(|(_, v)| *v));
        for h in &self.histograms {
            nums.extend([h.count, h.sum_ns, h.buckets.len() as u64]);
            for &(bound, count) in &h.buckets {
                nums.extend([bound, count]);
            }
        }
        Message::new(proto::HOST_STATISTICS_REPLY)
            .with(MsgItem::bytes(lines.join("\n").into_bytes()))
            .with(MsgItem::u64s(&nums))
    }

    /// Decodes a reply message.
    pub fn decode(msg: &Message) -> Option<Self> {
        let (lines, nums) = unpack(msg)?;
        let [now_ns, trace_dropped, in_flight, c, h] = *nums.get(..5)? else {
            return None;
        };
        let (c, h) = (c as usize, h as usize);
        let host = lines.first()?.to_string();
        let counter_names = lines.get(1..1 + c)?;
        let hist_names = lines.get(1 + c..1 + c + h)?;
        let counters = counter_names
            .iter()
            .zip(nums.get(5..5 + c)?)
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        let mut at = 5 + c;
        let mut histograms = Vec::with_capacity(h);
        for name in hist_names {
            let [count, sum_ns, k] = *nums.get(at..at + 3)? else {
                return None;
            };
            at += 3;
            let mut buckets = Vec::with_capacity(k as usize);
            for _ in 0..k {
                let [bound, n] = *nums.get(at..at + 2)? else {
                    return None;
                };
                at += 2;
                buckets.push((bound, n));
            }
            histograms.push(HistogramData {
                name: name.to_string(),
                count,
                sum_ns,
                buckets,
            });
        }
        Some(HostStatistics {
            host,
            now_ns,
            trace_dropped,
            in_flight,
            counters,
            histograms,
        })
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

    /// Encodes the reply message.
    pub fn encode(&self) -> Message {
        let c = &self.census;
        let mut nums = vec![
            self.now_ns,
            c.total,
            c.free,
            c.active,
            c.inactive,
            c.resident,
            c.pending,
            c.pinned,
            c.dirty,
            c.wired,
            c.busy,
            c.reserve,
            self.pages_stolen,
            self.bytes_copied,
            // Per-node census, self-delimited.
            self.nodes.len() as u64,
        ];
        for n in &self.nodes {
            nums.extend([n.node, n.total, n.free, n.resident, n.replicas]);
        }
        Message::new(proto::HOST_VM_STATISTICS_REPLY)
            .with(MsgItem::bytes(self.host.clone().into_bytes()))
            .with(MsgItem::u64s(&nums))
    }

    /// Decodes a reply message.
    pub fn decode(msg: &Message) -> Option<Self> {
        let (lines, nums) = unpack(msg)?;
        let [now_ns, total, free, active, inactive, resident, pending, pinned, dirty, wired, busy, reserve, pages_stolen, bytes_copied, node_count] =
            *nums.get(..15)?
        else {
            return None;
        };
        let mut at = 15;
        let mut nodes = Vec::with_capacity(node_count as usize);
        for _ in 0..node_count {
            let [node, total, free, resident, replicas] = *nums.get(at..at + 5)? else {
                return None;
            };
            at += 5;
            nodes.push(NodeCensus {
                node,
                total,
                free,
                resident,
                replicas,
            });
        }
        Some(VmStatisticsSnapshot {
            host: lines.first()?.to_string(),
            now_ns,
            census: FrameCensus {
                total,
                free,
                active,
                inactive,
                resident,
                pending,
                pinned,
                dirty,
                wired,
                busy,
                reserve,
            },
            pages_stolen,
            bytes_copied,
            nodes,
        })
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

impl TaskInfoReply {
    /// Encodes the reply message.
    pub fn encode(&self) -> Message {
        let mut lines = vec![self.host.as_str()];
        lines.extend(self.tasks.iter().map(|t| t.name.as_str()));
        let mut nums = vec![self.tasks.len() as u64];
        for t in &self.tasks {
            nums.extend([t.regions, t.virtual_bytes, t.resident_pages]);
        }
        Message::new(proto::HOST_TASK_INFO_REPLY)
            .with(MsgItem::bytes(lines.join("\n").into_bytes()))
            .with(MsgItem::u64s(&nums))
    }

    /// Decodes a reply message.
    pub fn decode(msg: &Message) -> Option<Self> {
        let (lines, nums) = unpack(msg)?;
        let n = *nums.first()? as usize;
        let names = lines.get(1..1 + n)?;
        let mut tasks = Vec::with_capacity(n);
        for (i, name) in names.iter().enumerate() {
            let [regions, virtual_bytes, resident_pages] = *nums.get(1 + i * 3..4 + i * 3)? else {
                return None;
            };
            tasks.push(TaskInfo {
                name: name.to_string(),
                regions,
                virtual_bytes,
                resident_pages,
            });
        }
        Some(TaskInfoReply {
            host: lines.first()?.to_string(),
            tasks,
        })
    }
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
    /// Event kind display name ("fault", "msg_send", ...).
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
                    actor: e.actor.clone(),
                    kind: e.kind.to_string(),
                })
                .collect(),
        }
    }

    /// Encodes the reply message.
    pub fn encode(&self) -> Message {
        let lines: Vec<String> = self
            .records
            .iter()
            .map(|r| format!("{}\t{}\t{}", r.host, r.actor, r.kind))
            .collect();
        let mut nums = vec![self.dropped, self.records.len() as u64];
        for r in &self.records {
            nums.extend([r.seq, r.ts_ns, r.correlation]);
        }
        Message::new(proto::HOST_TRACE_QUERY_REPLY)
            .with(MsgItem::bytes(lines.join("\n").into_bytes()))
            .with(MsgItem::u64s(&nums))
    }

    /// Decodes a reply message.
    pub fn decode(msg: &Message) -> Option<Self> {
        let (lines, nums) = unpack(msg)?;
        let [dropped, n] = *nums.get(..2)? else {
            return None;
        };
        let mut records = Vec::with_capacity(n as usize);
        for i in 0..n as usize {
            let [seq, ts_ns, correlation] = *nums.get(2 + i * 3..5 + i * 3)? else {
                return None;
            };
            let mut fields = lines.get(i)?.splitn(3, '\t');
            records.push(TraceRecord {
                seq,
                ts_ns,
                correlation,
                host: fields.next()?.to_string(),
                actor: fields.next()?.to_string(),
                kind: fields.next()?.to_string(),
            });
        }
        Some(TraceQueryReply { dropped, records })
    }
}

// ----- client helpers -----

fn query<T>(
    host_port: &SendRight,
    request: Message,
    decode: impl FnOnce(&Message) -> Option<T>,
) -> Result<T, IpcError> {
    let reply = host_port.rpc(request, Some(QUERY_TIMEOUT), Some(QUERY_TIMEOUT))?;
    decode(&reply).ok_or(IpcError::MsgTooLarge)
}

/// Fetches [`HostStatistics`] from a kernel's host port — local, or on a
/// remote host through a network proxy right.
pub fn query_host_statistics(host_port: &SendRight) -> Result<HostStatistics, IpcError> {
    query(
        host_port,
        Message::new(proto::HOST_STATISTICS),
        HostStatistics::decode,
    )
}

/// Fetches [`VmStatisticsSnapshot`] from a kernel's host port.
pub fn query_vm_statistics(host_port: &SendRight) -> Result<VmStatisticsSnapshot, IpcError> {
    query(
        host_port,
        Message::new(proto::HOST_VM_STATISTICS),
        VmStatisticsSnapshot::decode,
    )
}

/// Fetches [`TaskInfoReply`] from a kernel's host port.
pub fn query_task_info(host_port: &SendRight) -> Result<TaskInfoReply, IpcError> {
    query(
        host_port,
        Message::new(proto::HOST_TASK_INFO),
        TaskInfoReply::decode,
    )
}

/// Fetches trace events from a kernel's host port: one chain when
/// `correlation` is nonzero, otherwise the newest `max_events` of the ring.
pub fn query_trace(
    host_port: &SendRight,
    correlation: u64,
    max_events: u64,
) -> Result<TraceQueryReply, IpcError> {
    query(
        host_port,
        Message::new(proto::HOST_TRACE_QUERY).with(MsgItem::u64s(&[correlation, max_events])),
        TraceQueryReply::decode,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_statistics_round_trips_through_wire_form() {
        let m = Machine::default_machine();
        m.stats.add("vm.faults", 17);
        m.stats.add("disk.reads", 3);
        m.latency.record("vm.fault_to_resolution", 1000);
        m.latency.record("vm.fault_to_resolution", 2_000_000);
        m.flight.begin(9, "vm.fault", 0);
        let snap = HostStatistics::capture(&m);
        let decoded = HostStatistics::decode(&snap.encode()).expect("decodes");
        assert_eq!(decoded.host, "local");
        assert_eq!(decoded.counter("vm.faults"), 17);
        assert_eq!(decoded.counter("disk.reads"), 3);
        assert_eq!(decoded.counter("absent"), 0);
        assert_eq!(decoded.in_flight, 1);
        assert_eq!(decoded.histograms.len(), 1);
        let h = &decoded.histograms[0];
        assert_eq!(h.name, "vm.fault_to_resolution");
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
        let decoded = VmStatisticsSnapshot::decode(&snap.encode()).expect("decodes");
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
                    name: "fs server".into(),
                    regions: 5,
                    virtual_bytes: 1 << 20,
                    resident_pages: 40,
                },
            ],
        };
        let decoded = TaskInfoReply::decode(&reply.encode()).expect("decodes");
        assert_eq!(decoded.host, "nodeB");
        assert_eq!(decoded.tasks, reply.tasks);
    }

    #[test]
    fn trace_query_round_trips_and_caps_events() {
        let m = Machine::default_machine();
        for _ in 0..10 {
            m.trace_event("unit", machsim::EventKind::Fault);
        }
        let reply = TraceQueryReply::capture(&m, 0, 4);
        assert_eq!(reply.records.len(), 4, "capped at max_events");
        let decoded = TraceQueryReply::decode(&reply.encode()).expect("decodes");
        assert_eq!(decoded.records, reply.records);
        assert_eq!(decoded.records[0].kind, "fault");
        assert_eq!(decoded.records[0].host, "local");
    }

    #[test]
    fn decode_rejects_malformed_messages() {
        assert!(HostStatistics::decode(&Message::new(proto::HOST_STATISTICS_REPLY)).is_none());
        let short = Message::new(proto::HOST_STATISTICS_REPLY)
            .with(MsgItem::bytes(b"host".to_vec()))
            .with(MsgItem::u64s(&[1, 2]));
        assert!(HostStatistics::decode(&short).is_none());
        assert!(VmStatisticsSnapshot::decode(&short).is_none());
        assert!(TraceQueryReply::decode(&Message::new(0)).is_none());
    }
}
