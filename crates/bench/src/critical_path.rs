//! E22 — span-based critical-path profile of a fault storm.
//!
//! Drives the full kernel pipeline — `FaultEngine::submit` through real
//! IPC to an external data manager and back through the kernel service
//! loop — under a storm of single-page faults, then rebuilds every causal
//! chain's span tree from the trace ring and attributes each chain's
//! end-to-end sim-time to named phases (`machsim::span`). This is the
//! measurement behind `report critical-path` and the E22 diagnosis of the
//! budget-8192 throughput regression in `BENCH_fault.json`: the per-phase
//! self-time tables show *where* a chain's time goes as the
//! outstanding-fault budget grows, which raw faults/sec cannot.
//!
//! The manager answers each `pager_data_request` after a fixed wall delay
//! on its (serial) manager thread, so the drain rate is bounded the way a
//! single disk queue bounds it; the interesting regimes are "budget far
//! below total" (admission paced by backpressure, submit overlaps
//! service) and "budget >= total" (everything admits in one wave and
//! parks).

use machcore::{spawn_manager, DataManager, Kernel, KernelConfig, KernelConn};
use machipc::OolBuffer;
use machsim::span::{self, CriticalPathReport};
use machsim::stats::keys as stat_keys;
use machsim::trace::TraceBuffer;
use machsim::{wall, Machine};
use machvm::{FaultPolicy, VmProt};
use std::sync::Arc;
use std::time::Duration;

const PAGE: u64 = 4096;
/// Submitter threads — far below every budget, as in `fault_concurrency`.
const SUBMITTERS: usize = 4;
/// Trace-ring capacity for storm runs: the default ring holds a demo's
/// worth of events, a profiled storm needs every boundary event of every
/// chain or attribution degrades into `skipped` chains.
const STORM_TRACE_EVENTS: usize = 1 << 19;

/// Answers every `pager_data_request` a fixed wall delay after it arrives
/// on the serial manager thread (the delay rate-limits the drain like a
/// busy disk queue).
struct SlowManager {
    delay: Duration,
}

impl DataManager for SlowManager {
    fn data_request(&mut self, k: &KernelConn, object: u64, offset: u64, length: u64, _a: VmProt) {
        wall::sleep(self.delay);
        k.data_provided(
            object,
            offset,
            OolBuffer::from_vec(vec![0x5A; length as usize]),
            VmProt::NONE,
        );
    }
}

/// One profiled storm: the critical-path report plus the headline
/// counters the E22 write-up compares across budgets.
pub struct StormProfile {
    /// Outstanding-fault budget (`fault_table_capacity`).
    pub budget: usize,
    /// Faults submitted (all resolved).
    pub total: u64,
    /// Wall-clock throughput of the storm.
    pub faults_per_sec: f64,
    /// Per-chain span attribution over the whole trace ring.
    pub report: CriticalPathReport,
    /// Most continuations ever parked at once.
    pub max_outstanding: usize,
    /// The storm host's machine (counters, gauges, latency registries).
    pub machine: Machine,
}

/// Runs one storm level: boots a kernel with `budget` table capacity and
/// an enlarged trace ring, faults `total` distinct pages from
/// [`SUBMITTERS`] threads through a manager with `delay` service latency,
/// and profiles the resulting chains.
pub fn run_storm(budget: usize, total: u64, delay: Duration) -> StormProfile {
    let mut machine = Machine::default_machine();
    machine.trace = Arc::new(TraceBuffer::new(STORM_TRACE_EVENTS));
    let kernel = Kernel::boot_on(
        machine.clone(),
        KernelConfig {
            memory_bytes: (total as usize + 256) * PAGE as usize,
            fault_table_capacity: budget,
            pager_inflight_pages: budget.max(1024),
            ..KernelConfig::default()
        },
    );
    let mgr = spawn_manager(kernel.machine(), "slow", SlowManager { delay });
    let object = kernel.object_for_port(mgr.port(), total * PAGE);
    let engine = kernel.fault_engine();
    let policy = FaultPolicy::trusting();

    let start = wall::now();
    std::thread::scope(|s| {
        for t in 0..SUBMITTERS as u64 {
            let object = object.clone();
            s.spawn(move || {
                let per = total / SUBMITTERS as u64;
                let tickets: Vec<_> = (0..per)
                    .map(|i| engine.submit(&object, (t * per + i) * PAGE, VmProt::READ, policy))
                    .collect();
                for ticket in tickets {
                    ticket.wait().expect("slow manager answers every fault");
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let done = (total / SUBMITTERS as u64) * SUBMITTERS as u64;
    // One final sweep so the run's last gauge readings are on record even
    // if the storm finished between engine ticks.
    machine.sample_gauges();
    let report = span::critical_path(&machine.trace.snapshot());
    let max_outstanding = engine.max_outstanding();
    StormProfile {
        budget,
        total,
        faults_per_sec: done as f64 / elapsed,
        report,
        max_outstanding,
        machine,
    }
}

/// Renders one storm level for the report: throughput line, engine
/// counters, then the per-phase attribution table.
pub fn render_level(p: &StormProfile) -> String {
    let s = &p.machine.stats;
    format!(
        "budget={}: {} faults -> {:.0} faults/s | max outstanding {} | parks {} | backpressure {} | deferred runs {} | contended locks {} | gauge sweeps {}\n{}",
        p.budget,
        p.total,
        p.faults_per_sec,
        p.max_outstanding,
        s.get(stat_keys::VM_ASYNC_PARKS),
        s.get(stat_keys::VM_ASYNC_BACKPRESSURE),
        s.get(stat_keys::VM_PAGER_DEFERRED_RUNS),
        s.get(stat_keys::LOCK_CONTENDED),
        s.get(stat_keys::GAUGE_SAMPLES),
        p.report.render()
    )
}

/// The full `report critical-path` sweep: the same budget ladder as
/// `fault_concurrency`, profiled instead of just timed. Returns the
/// rendered report.
pub fn sweep() -> String {
    let mut out = String::from(
        "critical-path sweep: outstanding-fault budget ladder, profiled\n\
         (storm of 2x-budget single-page faults, 100us serial pager)\n\n",
    );
    for &budget in &[64usize, 256, 1024, 4096, 8192] {
        let total = (budget as u64 * 2).clamp(512, 8192);
        let p = run_storm(budget, total, Duration::from_micros(100));
        out.push_str(&render_level(&p));
        out.push('\n');
    }
    out
}

/// The `report critical-path --smoke` gate (wired into
/// `scripts/check.sh`): one 2048-fault storm must produce connected span
/// trees, >= 95% attribution per chain, nonzero lock-contention telemetry
/// and at least one gauge sweep.
pub fn smoke() -> Result<String, String> {
    const TOTAL: u64 = 2048;
    let p = run_storm(1024, TOTAL, Duration::from_micros(100));
    let r = &p.report;
    if (r.chains.len() as u64) < TOTAL {
        return Err(format!(
            "only {}/{TOTAL} chains got a closed root ({} skipped, {} unclosed spans) — \
             boundary events are missing from the ring",
            r.chains.len(),
            r.skipped,
            r.unclosed
        ));
    }
    if r.min_coverage() < 0.95 {
        return Err(format!(
            "worst chain attribution {:.1}% < 95%",
            r.min_coverage() * 100.0
        ));
    }
    for phase in [
        "fault.submit",
        "fault.parked",
        "fault.resume",
        "pager.service",
        "pager.reply",
    ] {
        if !r.phase_ns.contains_key(phase) {
            return Err(format!("no chain recorded phase {phase}"));
        }
    }
    // Every chain must be one connected tree: exactly one root, no
    // orphaned parents (the same property the cross-host test asserts).
    let spans = span::collect(&p.machine.trace.snapshot());
    let mut by_chain: std::collections::BTreeMap<u64, Vec<span::SpanRecord>> = Default::default();
    for s in &spans {
        if let Some(cid) = s.correlation {
            by_chain.entry(cid.raw()).or_default().push(s.clone());
        }
    }
    for (raw, chain) in &by_chain {
        span::validate_chain_tree(chain).map_err(|e| format!("chain {raw}: {e}"))?;
    }
    let stats = &p.machine.stats;
    if stats.get(stat_keys::LOCK_CONTENDED) == 0 {
        return Err("a 4-submitter storm recorded zero contended lock acquisitions".into());
    }
    if stats.get(stat_keys::GAUGE_SAMPLES) == 0 {
        return Err("no gauge sweep ran during the storm".into());
    }
    if p.max_outstanding > 1024 {
        return Err(format!(
            "max outstanding {} exceeded the budget 1024 — backpressure is broken",
            p.max_outstanding
        ));
    }
    Ok(format!(
        "critical-path smoke ok: {} chains, min coverage {:.1}%, {} phases, \
         {} contended acquisitions, {} gauge sweeps, max outstanding {} <= budget 1024",
        r.chains.len(),
        r.min_coverage() * 100.0,
        r.phase_ns.len(),
        stats.get(stat_keys::LOCK_CONTENDED),
        stats.get(stat_keys::GAUGE_SAMPLES),
        p.max_outstanding
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_profile_attributes_chains() {
        let p = run_storm(256, 512, Duration::from_micros(50));
        assert!(!p.report.chains.is_empty(), "chains were attributed");
        assert!(p.report.min_coverage() >= 0.95);
        assert!(p.report.phase_ns.contains_key("pager.service"));
        assert!(p.max_outstanding <= 256, "budget respected");
    }
}
