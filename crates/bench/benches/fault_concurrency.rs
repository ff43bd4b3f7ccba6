//! E21 — continuation-based fault concurrency: outstanding-fault scaling
//! on a slow pager, and the park/batch machinery that makes it possible.
//!
//! The workload models the situation the async fault engine exists for: a
//! data manager with real service latency (disk, network, a remote
//! memory server) and a host that faults far more pages than it has
//! threads. Each sweep level creates a fresh machine, attaches a
//! [`SlowPager`] that answers every `pager_data_request` a fixed wall
//! delay after it arrives (unbounded parallelism — the latency is
//! round-trip time, not a serial bottleneck), and submits thousands of
//! single-page faults through [`machvm::FaultEngine::submit`] from a small fixed
//! pool of submitter threads. The engine's continuation table is sized to
//! the level's outstanding-fault budget, so the sweep directly measures
//! throughput as a function of *admitted concurrency*, with thread count
//! held constant: by Little's law, faults/sec ≈ outstanding / latency
//! until the suppliers saturate.
//!
//! A blocking fault path would need `budget` parked threads to do this;
//! the engine does it with the four submitters, which send their own
//! requests, and the pager's two supplier threads, which resume the faults
//! their replies answer — no thread per outstanding fault, which is the
//! whole point.
//!
//! Results are printed and written as machine-readable JSON to
//! `BENCH_fault.json` at the repository root; `report bench-diff` checks
//! the host-independent metrics against the committed baseline
//! (`bench-baseline.toml`) so regressions fail `scripts/check.sh`.
//!
//! Run with `--smoke` for a seconds-scale sanity pass with inline
//! assertions (used by `scripts/check.sh`).

use machsim::stats::keys as stat_keys;
use machsim::trace::keys as trace_keys;
use machsim::{wall, Machine};
use machvm::object::PagerRequest;
use machvm::{
    FaultEngineConfig, FaultPolicy, NumaConfig, ObjectId, PagerBackend, PhysicalMemory, VmObject,
    VmProt,
};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PAGE: usize = 4096;
/// Submitter threads — deliberately far below every outstanding budget,
/// so throughput scaling past this number demonstrates the engine.
const SUBMITTERS: usize = 4;
/// Threads supplying pager answers (the "disk" parallelism).
const SUPPLIERS: usize = 2;
/// The smoke floor on faults/s at the 4096 budget over the 64 budget —
/// `min_scaling_64_to_4096` in `bench-baseline.toml`, where its reason is
/// written.
const MIN_SCALING: f64 = 1.5;

/// A pager with a fixed round-trip latency and unbounded parallelism:
/// every request run is answered `latency` after it arrives, however many
/// are in flight. Requests land in a FIFO (constant latency keeps it
/// deadline-ordered); supplier threads sleep until the head is due, then
/// install the whole run via `supply_page`.
struct SlowPager {
    phys: Arc<PhysicalMemory>,
    object: Mutex<Option<Arc<VmObject>>>,
    latency: Duration,
    queue: Mutex<std::collections::VecDeque<(wall::Deadline, u64, u64)>>,
    arrived: Condvar,
    stop: AtomicBool,
    requests: AtomicU64,
}

impl SlowPager {
    fn attach(
        phys: &Arc<PhysicalMemory>,
        size: u64,
        latency: Duration,
    ) -> (
        Arc<VmObject>,
        Arc<SlowPager>,
        Vec<std::thread::JoinHandle<()>>,
    ) {
        let pager = Arc::new(SlowPager {
            phys: phys.clone(),
            object: Mutex::new(None),
            latency,
            queue: Mutex::new(std::collections::VecDeque::new()),
            arrived: Condvar::new(),
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
        });
        let object = VmObject::new_with_pager(size, pager.clone());
        *pager.object.lock() = Some(object.clone());
        let handles = (0..SUPPLIERS)
            .map(|i| {
                let pager = pager.clone();
                std::thread::Builder::new()
                    .name(format!("slow-pager-{i}"))
                    .spawn(move || pager.supply_loop())
                    .expect("spawn supplier")
            })
            .collect();
        (object, pager, handles)
    }

    fn enqueue(&self, offset: u64, length: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let mut q = self.queue.lock();
        q.push_back((wall::Deadline::after(self.latency), offset, length));
        self.arrived.notify_all();
    }

    fn supply_loop(&self) {
        // Grab due requests in bounded batches (both suppliers share a
        // wave).
        const GRAB: usize = 256;
        loop {
            let mut due: Vec<(u64, u64)> = Vec::new();
            {
                let mut q = self.queue.lock();
                loop {
                    if self.stop.load(Ordering::Acquire) {
                        return;
                    }
                    match q.front() {
                        Some((deadline, _, _)) => match deadline.remaining() {
                            None => {
                                while due.len() < GRAB {
                                    match q.front() {
                                        Some(&(d, off, len)) if d.remaining().is_none() => {
                                            q.pop_front();
                                            due.push((off, len));
                                        }
                                        _ => break,
                                    }
                                }
                                break;
                            }
                            Some(left) => {
                                self.arrived.wait_for(&mut q, left);
                            }
                        },
                        None => {
                            self.arrived.wait_for(&mut q, Duration::from_millis(10));
                        }
                    }
                }
            }
            let object = self.object.lock().clone().expect("object attached");
            for (offset, length) in due {
                // Each supply hands its pages over, as a manager's
                // deallocate-on-send reply does.
                let data = machipc::OolBuffer::from_vec(vec![0xA5; length as usize]);
                let _ = self.phys.supply_page(&object, offset, data, VmProt::NONE);
            }
        }
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.arrived.notify_all();
    }
}

impl PagerBackend for SlowPager {
    fn data_request(&self, _object: ObjectId, offset: u64, length: u64, _access: VmProt) {
        self.enqueue(offset, length);
    }

    fn data_request_many(&self, _object: ObjectId, runs: &[PagerRequest]) {
        // One "IPC arrival" for the whole batch: a single lock round and
        // one wakeup, mirroring what `send_many` buys the real backend.
        self.requests
            .fetch_add(runs.len() as u64, Ordering::Relaxed);
        let mut q = self.queue.lock();
        let deadline = wall::Deadline::after(self.latency);
        for r in runs {
            q.push_back((deadline, r.offset, r.length));
        }
        self.arrived.notify_all();
    }

    fn data_write(&self, _object: ObjectId, _offset: u64, _data: machipc::OolBuffer) {}

    fn data_unlock(&self, _object: ObjectId, _offset: u64, _length: u64, _access: VmProt) {}

    fn name(&self) -> &str {
        "slow-pager"
    }
}

/// One sweep level: returns (faults/sec, p99 sim-ns, max outstanding,
/// pager requests, engine batches).
fn sweep_level(budget: usize, total: usize, latency: Duration) -> (f64, u64, usize, u64, u64) {
    let m = Machine::default_machine();
    let faults = FaultEngineConfig { capacity: budget };
    let bytes = (total + 128) * PAGE;
    let phys = PhysicalMemory::with_config(&m, bytes, PAGE, 8, NumaConfig::single(), faults);
    let (object, pager, suppliers) = SlowPager::attach(&phys, (total * PAGE) as u64, latency);
    let engine = phys.fault_engine();
    let policy = FaultPolicy::trusting();

    let start = wall::now();
    std::thread::scope(|s| {
        for t in 0..SUBMITTERS {
            let object = object.clone();
            s.spawn(move || {
                let per = total / SUBMITTERS;
                let tickets: Vec<_> = (0..per)
                    .map(|i| {
                        let page = (t * per + i) as u64 * PAGE as u64;
                        engine.submit(&object, page, VmProt::READ, policy)
                    })
                    .collect();
                for ticket in tickets {
                    ticket.wait().expect("slow pager answers every fault");
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();

    let done = (total / SUBMITTERS) * SUBMITTERS;
    let p99 = m
        .latency
        .get(trace_keys::FAULT_TO_RESOLUTION)
        .map(|h| h.p99_ns())
        .unwrap_or(0);
    let max_outstanding = engine.max_outstanding();
    let requests = pager.requests.load(Ordering::Relaxed);
    let batches = m.stats.get(stat_keys::VM_PAGER_BATCHES);
    engine.shutdown();
    pager.shutdown();
    for h in suppliers {
        let _ = h.join();
    }
    (
        done as f64 / elapsed,
        p99,
        max_outstanding,
        requests,
        batches,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budgets: &[usize] = &[64, 256, 1024, 4096, 8192];
    // Pager latency knob for experiments (µs); defaults model a fast disk.
    let latency = match std::env::var("MACH_FAULT_BENCH_LATENCY_US") {
        Ok(v) => Duration::from_micros(v.parse().expect("integer µs")),
        Err(_) => {
            if smoke {
                Duration::from_millis(1)
            } else {
                Duration::from_millis(2)
            }
        }
    };
    let total_for = |budget: usize| -> usize {
        if smoke {
            (budget * 2).clamp(512, 8192)
        } else {
            (budget * 3).clamp(2048, 16384)
        }
    };

    println!(
        "fault_concurrency ({} submitters, pager latency {:?}, mode {})",
        SUBMITTERS,
        latency,
        if smoke { "smoke" } else { "full" }
    );
    println!("outstanding-fault budget sweep, slow simulated pager:");
    let mut rows: Vec<(usize, f64, u64, usize, u64, u64)> = Vec::new();
    for &budget in budgets {
        let total = total_for(budget);
        let (fps, p99, max_out, requests, batches) = sweep_level(budget, total, latency);
        println!(
            "   budget={budget:>5}: {fps:>9.0} faults/s | p99 {p99:>9} sim-ns | max outstanding {max_out:>5} | {requests:>5} pager reqs | {batches:>4} batches",
        );
        // The budget is a hard cap at every level: admission accounting
        // must never let the table overshoot (the 1025/4097 off-by-one).
        assert!(
            max_out <= budget,
            "budget {budget}: max outstanding {max_out} exceeded the admission cap"
        );
        rows.push((budget, fps, p99, max_out, requests, batches));
    }

    let base = rows[0].1;
    let at_4096 = rows
        .iter()
        .find(|r| r.0 == 4096)
        .expect("4096 level swept")
        .1;
    let ratio = at_4096 / base;
    println!("scaling 64 -> 4096 outstanding: {ratio:.2}x faults/s");

    // Machine-readable trajectory entry at the repository root.
    let mut json = String::from("{\n  \"bench\": \"fault_concurrency\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"submitters\": {SUBMITTERS},\n  \"pager_latency_ms\": {},\n",
        if smoke { "smoke" } else { "full" },
        latency.as_millis()
    ));
    json.push_str("  \"sweep\": [\n");
    for (i, (budget, fps, p99, max_out, requests, batches)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"outstanding_budget\": {budget}, \"faults_per_sec\": {fps:.0}, \"p99_sim_ns\": {p99}, \"max_outstanding\": {max_out}, \"pager_requests\": {requests}, \"batches\": {batches}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"scaling_64_to_4096\": {ratio:.2}\n}}\n"));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fault.json");
    std::fs::write(path, &json).expect("write BENCH_fault.json at the repo root");
    println!("wrote {path}");

    if smoke {
        // The tentpole claim: throughput scales with admitted concurrency,
        // not with thread count. Little's law predicts far more when the
        // pager dominates.
        assert!(
            ratio >= MIN_SCALING,
            "faults/s at 4096 outstanding ({at_4096:.0}) is not {MIN_SCALING}x the 64-budget level ({base:.0})"
        );
        // Concurrency must actually exceed the thread count, or the sweep
        // proved nothing a thread pool couldn't do.
        let big = rows.iter().find(|r| r.0 >= 1024).expect("big level swept");
        assert!(
            big.3 > SUBMITTERS * 8,
            "max outstanding ({}) never cleared the submitter pool — continuations are not parking",
            big.3
        );
        println!("smoke assertions passed");
    }
}
