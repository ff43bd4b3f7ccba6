//! The `report trace` mode: runs one externally paged fault, prints its
//! causal chain as a per-hop timeline, and dumps the latency histograms.
//!
//! This is the debugging surface the trace layer exists for — when a
//! duality test fails, the same rendering applied to the failing machine's
//! buffer shows *which* span of `fault.submit` → `ipc.queued` →
//! `pager.service` → `disk_read` → `pager.reply` went wrong.

use machcore::{Kernel, KernelConfig, Task};
use machpagers::{FileServer, FsClient};
use machsim::{span, EventKind, Machine, TraceEvent};
use machstorage::{BlockDevice, FlatFs};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Renders one chain as a timeline with per-hop sim-time latencies, then
/// its span tree.
pub fn render_chain(chain: &[TraceEvent]) -> String {
    let mut out = String::new();
    let Some(first) = chain.first() else {
        out.push_str("(empty chain)\n");
        return out;
    };
    if let Some(cid) = first.correlation_id {
        let _ = writeln!(out, "chain {cid} ({} events)", chain.len());
    }
    let mut prev_ts = first.ts_ns;
    for e in chain {
        let hop = e.ts_ns.saturating_sub(prev_ts);
        let _ = writeln!(
            out,
            "  +{:>8} ns  (+{:>7} ns)  {:<12} {:<18} {}",
            e.ts_ns.saturating_sub(first.ts_ns),
            hop,
            e.host,
            e.actor,
            e.kind
        );
        prev_ts = e.ts_ns;
    }
    // The span tree: one span per line in open order, indented under its
    // parent, with its sim-time duration.
    out.push_str("  spans:\n");
    let mut depth: HashMap<u64, usize> = HashMap::new();
    for s in span::collect(chain) {
        let d = depth.get(&s.parent).map_or(0, |d| d + 1);
        depth.insert(s.id, d);
        let took = s
            .duration_ns()
            .map_or_else(|| "open".to_string(), |ns| format!("{ns} ns"));
        let _ = writeln!(out, "    {:indent$}{} ({took})", "", s.name, indent = 2 * d);
    }
    out
}

/// Renders every latency histogram of `machine` as a percentile table.
pub fn render_histograms(machine: &Machine) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>7} {:>10} {:>10} {:>10} {:>10}",
        "histogram (ns)", "count", "p50", "p99", "max", "mean"
    );
    for (key, h) in machine.latency.snapshot() {
        let _ = writeln!(
            out,
            "{:<24} {:>7} {:>10} {:>10} {:>10} {:>10}",
            key,
            h.count(),
            h.p50_ns(),
            h.p99_ns(),
            h.max_ns(),
            h.mean_ns()
        );
    }
    out
}

/// Runs the demo scenario — a file-backed mapping faulted cold, one
/// external pager round-trip per page — and returns the machine whose
/// trace buffer and latency registry hold the result.
///
/// Shared by `report trace` (timeline rendering) and the standard-format
/// exporters (`report chrome-trace` / `report prom`), so every mode shows
/// the same canonical chain.
pub fn demo_machine() -> Machine {
    let machine = Machine::default_machine();
    let kernel = Kernel::boot_on(machine.clone(), KernelConfig::default());
    let dev = Arc::new(BlockDevice::new(&machine, 256));
    let fs = Arc::new(FlatFs::format(dev, 0));
    let server = FileServer::start(&machine, fs);
    server.fs().create("trace.bin").unwrap();
    server
        .fs()
        .write("trace.bin", 0, &vec![0xA5u8; 4 * 4096])
        .unwrap();

    let client = FsClient::new(server.port().clone());
    let task = Task::create(&kernel, "trace-demo");
    let (addr, size) = client.read_file(&task, "trace.bin").unwrap();
    machine.trace.clear();
    // Touch each page: one cold external fault per page.
    let mut byte = [0u8; 1];
    for page in 0..(size / 4096) {
        task.read_memory(addr + page * 4096, &mut byte).unwrap();
    }
    machine
}

/// Runs the demo scenario (file-backed mapping, cold fault per page) and
/// returns the full printable report.
pub fn run() -> String {
    let machine = demo_machine();

    let mut out = String::new();
    out.push_str("Causal fault chains (externally paged file, cold cache)\n");
    out.push_str("-------------------------------------------------------\n");
    let events = machine.trace.snapshot();
    let mut chains = 0;
    for cid in machine.trace.correlations() {
        let chain = machine.trace.chain(cid);
        // Only narrate the pager round-trips; skip bookkeeping chains.
        if chain
            .iter()
            .any(|e| e.kind == EventKind::SpanOpen("pager.service"))
        {
            out.push_str(&render_chain(&chain));
            chains += 1;
        }
    }
    let _ = writeln!(
        out,
        "({chains} pager chains out of {} traced events, {} dropped by ring overflow)\n",
        events.len(),
        machine.trace.dropped()
    );
    out.push_str("Latency histograms\n");
    out.push_str("------------------\n");
    out.push_str(&render_histograms(&machine));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_report_shows_chain_and_percentiles() {
        let out = run();
        // The skeleton nests the manager's service under the request's
        // queue span, and the kernel's reply under the reply message's.
        assert!(out.contains("  spans:\n    fault.submit ("), "{out}");
        assert!(out.contains("\n        pager.service ("), "{out}");
        assert!(out.contains("\n            pager.reply ("), "{out}");
        assert!(out.contains("disk_read"));
        assert!(out.contains("vm.fault_to_resolution"));
        assert!(out.contains("ipc.send_to_receive"));
        assert!(out.contains("vm.request_to_fill"));
        assert!(out.contains("dropped by ring overflow"));
    }
}
