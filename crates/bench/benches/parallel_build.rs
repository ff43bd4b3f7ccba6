//! E23 — UNIX parallel build on the multiprocessor scheduler (P1/P2).
//!
//! The paper's headline numbers are macro-workload claims: "compilation of
//! a small program cached in memory ... is twice as fast" (P1) and "the
//! total number of I/O operations can be reduced by a factor of 10" (P2).
//! This bench re-runs the Section 9 compilation workload as a *parallel*
//! build: one "make" unit submits a yielding compile job per compilation
//! unit from inside a scheduler worker, so the jobs pile onto that CPU's
//! run queue and spread across the machine only through work stealing —
//! at 1, 8 and 64 simulated CPUs.
//!
//! Every job steps through the phases of `CompileWorkload::compile_unit`
//! (header reads, two source passes, codegen, object emit), returning
//! `Run::Yield` at each boundary so slice expiry preempts it; its I/O
//! goes through the mapped-file UNIX emulation, whose `read`/`write`
//! fault-ahead through the continuation engine. Cold and warm build
//! sim-times give P1 per level; warm disk ops against the 10%-cache
//! baseline UNIX give P2; the warm build's message count per unit shows
//! that its reads are memory accesses (only the write-back is left:
//! `FS_SYNC` + reply, `pager_clean_request`, `pager_data_write`). Results
//! land in `BENCH_build.json` at the repo root, ratcheted by `report
//! bench-diff` against `[parallel_build]` in `bench-baseline.toml`.
//!
//! Run with `--smoke` for the seconds-scale pass `scripts/check.sh` uses;
//! the smoke assertions check warm < cold at every level, the I/O
//! reduction floor, steal traffic at 64 CPUs, and that no submitted job
//! was lost or double-counted.

use machcore::{Kernel, KernelConfig, Task};
use machpagers::{FileServer, FsClient};
use machsched::{Run, TaskTag};
use machsim::stats::keys;
use machsim::Machine;
use machstorage::{BlockDevice, FlatFs};
use machunix::{BaselineUnix, CompileWorkload, MachUnix, UnixIo};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Physical memory of both systems. The baseline's 10% buffer cache
/// (~820 KiB) must be smaller than the build's working set, and Mach's
/// file-cache-is-all-of-memory must be larger — that gap is the paper's
/// entire mechanism.
const MEMORY: usize = 8 << 20;

/// The simulated CPU counts swept (the ISSUE's P1/P2 levels).
const LEVELS: [usize; 3] = [1, 8, 64];

fn workload(smoke: bool) -> CompileWorkload {
    let (source_files, headers) = if smoke { (24, 12) } else { (64, 16) };
    CompileWorkload {
        source_files,
        headers,
        // The paper's ~2x claim implies the 1987 cc spent roughly half
        // its time in I/O; the default 6 instructions/byte buries the
        // cache effect under codegen, so E23 runs the I/O-bound balance.
        instructions_per_byte: 1,
        ..CompileWorkload::default()
    }
}

/// One preemptible compile job: the phase state machine over one unit.
fn compile_job(
    w: CompileWorkload,
    io: Arc<MachUnix>,
    machine: Machine,
    unit: usize,
    completions: Arc<AtomicUsize>,
) -> impl FnMut() -> Run + Send + 'static {
    let mut phase = 0usize;
    let mut bytes = 0usize;
    move || {
        if phase < w.headers {
            bytes += w
                .read_header(io.as_ref(), phase)
                .expect("header read in compile job");
            phase += 1;
            return Run::Yield;
        }
        if phase < w.headers + 2 {
            bytes += w
                .read_source(io.as_ref(), unit)
                .expect("source read in compile job");
            phase += 1;
            return Run::Yield;
        }
        w.charge_codegen(&machine, bytes);
        w.emit_object(io.as_ref(), unit)
            .expect("object emit in compile job");
        completions.fetch_add(1, Ordering::Relaxed);
        Run::Done
    }
}

/// One full build through the kernel scheduler; returns (sim ns, disk
/// ops, completed jobs).
fn sched_build(k: &Arc<Kernel>, io: &Arc<MachUnix>, w: &CompileWorkload) -> (u64, u64, usize) {
    let m = k.machine().clone();
    let clock0 = m.clock.now_ns();
    let stats0 = m.stats.snapshot();
    let completions = Arc::new(AtomicUsize::new(0));
    let handles: Arc<Mutex<Vec<machsched::JoinHandle>>> = Arc::new(Mutex::new(Vec::new()));
    let sched = Arc::clone(k.scheduler());
    {
        let (w2, io2, m2) = (w.clone(), Arc::clone(io), m.clone());
        let (comp, hs, s) = (
            Arc::clone(&completions),
            Arc::clone(&handles),
            Arc::clone(&sched),
        );
        // The "make" unit: submits every compile job from inside a worker,
        // so they land on one run queue and spread only by stealing.
        sched
            .spawn(0, move || {
                for unit in 0..w2.source_files {
                    let job = compile_job(
                        w2.clone(),
                        Arc::clone(&io2),
                        m2.clone(),
                        unit,
                        Arc::clone(&comp),
                    );
                    hs.lock().push(s.submit(TaskTag::new(0), job));
                }
            })
            .join();
    }
    for h in handles.lock().drain(..) {
        h.join();
    }
    io.sync_all().expect("sync after parallel build");
    let delta = stats0.delta(&m.stats.snapshot());
    let disk = delta.get(keys::DISK_READS) + delta.get(keys::DISK_WRITES);
    (
        m.clock.now_ns() - clock0,
        disk,
        completions.load(Ordering::Relaxed),
    )
}

struct LevelResult {
    cpus: usize,
    cold_ns: u64,
    warm_ns: u64,
    warm_disk_ops: u64,
    /// Messages of the warm build, its write-back included.
    warm_msgs: u64,
    steals: u64,
    dispatches: u64,
    lost: usize,
}

/// Runs cold + warm parallel builds on a fresh kernel with `cpus` CPUs.
fn run_level(cpus: usize, w: &CompileWorkload) -> LevelResult {
    let k = Kernel::boot(KernelConfig {
        memory_bytes: MEMORY,
        sched_cpus: cpus,
        ..KernelConfig::default()
    });
    let dev = Arc::new(BlockDevice::new(k.machine(), 4096));
    let fs = Arc::new(FlatFs::format(dev, 0));
    let server = FileServer::start(k.machine(), fs);
    let task = Task::create(&k, "make");
    let unix = Arc::new(MachUnix::new(&task, FsClient::new(server.port().clone())));
    w.populate(unix.as_ref()).expect("populate project");
    let stats = &k.machine().stats;
    let steals0 = stats.get(keys::SCHED_STEALS);
    let disp0 = stats.get(keys::SCHED_DISPATCHES);
    // `sync_all` returns once the cleaning has been asked for; a build's
    // write-back has landed when each of its object files has reached
    // the disk. Waiting for that on either side of the warm build is what
    // makes its message count exact.
    let build_and_land = || {
        let written = stats.get(keys::DISK_WRITES) + w.source_files as u64;
        let built = sched_build(&k, &unix, w);
        let landed =
            machsim::wall::poll_until(Duration::from_secs(10), Duration::from_millis(1), || {
                stats.get(keys::DISK_WRITES) >= written
            });
        assert!(landed, "cpus={cpus}: a build's write-back never landed");
        built
    };
    let (cold_ns, _cold_ops, done_cold) = build_and_land();
    let msgs0 = stats.get(keys::MSG_SENT);
    let (warm_ns, warm_disk_ops, done_warm) = build_and_land();
    LevelResult {
        cpus,
        cold_ns,
        warm_ns,
        warm_disk_ops,
        warm_msgs: stats.get(keys::MSG_SENT) - msgs0,
        steals: stats.get(keys::SCHED_STEALS) - steals0,
        dispatches: stats.get(keys::SCHED_DISPATCHES) - disp0,
        lost: 2 * w.source_files - done_cold - done_warm,
    }
}

/// Cold + warm serial build on the 10%-buffer-cache baseline UNIX;
/// returns the warm build's disk ops (the conventional system's I/O
/// count, the numerator of the P2 reduction ratio).
fn baseline_warm_ops(w: &CompileWorkload) -> u64 {
    let m = Machine::default_machine();
    let dev = Arc::new(BlockDevice::new(&m, 4096));
    let fs = Arc::new(FlatFs::format(dev, 0));
    let unix = BaselineUnix::new(&m, fs, MEMORY, 10);
    w.populate(&unix).expect("populate baseline project");
    let _cold = w.build(&unix, &m).expect("baseline cold build");
    let warm = w.build(&unix, &m).expect("baseline warm build");
    warm.disk_ops
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let w = workload(smoke);
    assert!(
        w.working_set_bytes() > MEMORY / 10,
        "working set must exceed the baseline's 10% buffer cache"
    );
    assert!(
        w.working_set_bytes() < MEMORY / 2,
        "working set must fit Mach's VM cache with room to spare"
    );

    println!(
        "parallel_build ({} units, {} headers, working set {} KiB, {} KiB memory)",
        w.source_files,
        w.headers,
        w.working_set_bytes() / 1024,
        MEMORY / 1024
    );
    let base_ops = baseline_warm_ops(&w);
    println!("baseline (10% cache, serial): warm disk ops = {base_ops}");

    let mut levels = Vec::new();
    for &cpus in &LEVELS {
        let r = run_level(cpus, &w);
        println!(
            "cpus={:>2}: cold {:>12} sim-ns | warm {:>12} sim-ns ({:.2}x) | warm disk ops {:>4} | warm msgs {:>4} | steals {:>4} | dispatches {:>5} | lost {}",
            r.cpus,
            r.cold_ns,
            r.warm_ns,
            r.cold_ns as f64 / r.warm_ns.max(1) as f64,
            r.warm_disk_ops,
            r.warm_msgs,
            r.steals,
            r.dispatches,
            r.lost
        );
        levels.push(r);
    }

    // Host-independent summary metrics for the ratchet: the worst warm
    // speedup across levels (P1) and the I/O reduction against the worst
    // (highest-I/O) warm Mach level (P2).
    let warm_speedup_min = levels
        .iter()
        .map(|r| r.cold_ns as f64 / r.warm_ns.max(1) as f64)
        .fold(f64::INFINITY, f64::min);
    let worst_mach_ops = levels.iter().map(|r| r.warm_disk_ops).max().unwrap_or(0);
    let io_reduction = base_ops as f64 / worst_mach_ops.max(1) as f64;
    let warm_msgs_per_unit =
        levels.iter().map(|r| r.warm_msgs).max().unwrap_or(0) as f64 / w.source_files as f64;
    let steals_at_max = levels.last().map_or(0, |r| r.steals);
    let lost_total: usize = levels.iter().map(|r| r.lost).sum();
    println!(
        "P1 warm speedup (min over levels): {warm_speedup_min:.2}x   P2 I/O reduction: {io_reduction:.1}x"
    );

    let mut json = String::from("{\n  \"bench\": \"parallel_build\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    json.push_str(&format!(
        "  \"units\": {}, \"working_set_bytes\": {},\n",
        w.source_files,
        w.working_set_bytes()
    ));
    json.push_str("  \"levels\": [\n");
    for (i, r) in levels.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"cpus\": {}, \"cold_sim_ns\": {}, \"warm_sim_ns\": {}, \"warm_speedup\": {:.2}, \"warm_disk_ops\": {}, \"warm_msgs\": {}, \"steals\": {}, \"dispatches\": {}, \"lost\": {}}}{}\n",
            r.cpus,
            r.cold_ns,
            r.warm_ns,
            r.cold_ns as f64 / r.warm_ns.max(1) as f64,
            r.warm_disk_ops,
            r.warm_msgs,
            r.steals,
            r.dispatches,
            r.lost,
            if i + 1 < levels.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"baseline_warm_disk_ops\": {base_ops},\n"));
    json.push_str(&format!(
        "  \"warm_speedup_min\": {warm_speedup_min:.2},\n  \"io_reduction\": {io_reduction:.2},\n  \"warm_msgs_per_unit\": {warm_msgs_per_unit:.2},\n  \"steals_at_max_cpus\": {steals_at_max},\n  \"lost_total\": {lost_total}\n}}\n"
    ));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_build.json");
    std::fs::write(path, &json).expect("write BENCH_build.json at the repo root");
    println!("wrote {path}");

    if smoke {
        // Census: every submitted job completed exactly once.
        assert_eq!(lost_total, 0, "jobs lost or double-counted: {lost_total}");
        // P1: a warm rebuild must beat the cold build at every CPU count
        // (the VM cache holds the whole working set, so warm skips disk).
        for r in &levels {
            assert!(
                r.warm_ns < r.cold_ns,
                "cpus={}: warm ({} sim-ns) not faster than cold ({} sim-ns)",
                r.cpus,
                r.warm_ns,
                r.cold_ns
            );
        }
        // P2: warm Mach I/O must undercut the thrashing baseline by the
        // committed floor on every level.
        assert!(
            io_reduction >= 3.0,
            "I/O reduction {io_reduction:.1}x below the 3x floor (baseline {base_ops} vs mach {worst_mach_ops})"
        );
        // Steal sanity: at 64 CPUs the make-side pile must have spread.
        assert!(
            steals_at_max > 0,
            "no steals at {} CPUs — the pile never spread",
            LEVELS[LEVELS.len() - 1]
        );
        println!("smoke assertions passed");
    }
}
