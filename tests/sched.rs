//! Integration: the multiprocessor scheduler — census-style unit
//! accounting under an 8-CPU steal storm, NUMA-affine placement keeping
//! a single-node workload free of remote hits, and a kernel-booted
//! parallel compile run with a quiet stall watchdog.

use machcore::{Kernel, KernelConfig, Task};
use machpagers::{FileServer, FsClient};
use machsched::{Run, SchedConfig, Scheduler, TaskTag};
use machsim::stats::keys;
use machsim::{CostModel, Machine, Topology};
use machstorage::{BlockDevice, FlatFs};
use machunix::{CompileWorkload, MachUnix, UnixIo};
use machvm::numa::set_current_node;
use machvm::{FaultEngineConfig, NumaConfig, PhysicalMemory, VmMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const PAGE: u64 = 4096;

#[test]
fn steal_storm_loses_and_duplicates_nothing() {
    // Census invariant: 2000 units piled onto one CPU's queue (submitted
    // from inside a worker) and spread over 8 CPUs purely by stealing;
    // every unit must run exactly once.
    const UNITS: usize = 2000;
    let m = Machine::new(CostModel::default());
    let sched = Scheduler::start(
        &m,
        SchedConfig {
            cpus: 8,
            ..SchedConfig::default()
        },
    );
    let runs: Arc<Vec<AtomicUsize>> = Arc::new((0..UNITS).map(|_| AtomicUsize::new(0)).collect());
    let (s, r, mach) = (Arc::clone(&sched), Arc::clone(&runs), m.clone());
    // The make unit joins its children before it returns: its worker
    // stays occupied, so the pile on its queue can drain only by theft.
    sched
        .spawn(0, move || {
            let handles: Vec<_> = (0..UNITS)
                .map(|i| {
                    let (r, mach) = (Arc::clone(&r), mach.clone());
                    s.submit(TaskTag::new(0), move || {
                        mach.clock.charge(20_000);
                        r[i].fetch_add(1, Ordering::Relaxed);
                        Run::Done
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
        })
        .join();
    for (i, slot) in runs.iter().enumerate() {
        assert_eq!(
            slot.load(Ordering::Relaxed),
            1,
            "unit {i} ran a wrong number of times"
        );
    }
    // No unit yields, so dispatches must equal submissions exactly
    // (census of the make unit plus its children), and every child must
    // have left the pile by theft.
    assert_eq!(m.stats.get(keys::SCHED_DISPATCHES), UNITS as u64 + 1);
    assert!(
        m.stats.get(keys::SCHED_STEALS) >= UNITS as u64,
        "a child ran without being stolen"
    );
    sched.shutdown();
}

#[test]
fn affine_placement_keeps_single_node_workload_local() {
    // Two-node machine, every unit homed on node 0, stealing off so the
    // placer's node preference is what's under test. A writer unit
    // first-touches the pages, reader units then walk them; if placement
    // respected the home node, every access is node-local.
    let m = Machine::with_topology(Topology::Numa);
    let phys = PhysicalMemory::with_config(
        &m,
        256 * PAGE as usize,
        PAGE as usize,
        8,
        NumaConfig::nodes(2).with_first_touch(),
        FaultEngineConfig::default(),
    );
    let map = VmMap::new(&phys);
    let base = map.allocate(None, 32 * PAGE).expect("allocate test region");
    let sched = Scheduler::start(
        &m,
        SchedConfig {
            cpus: 4,
            nodes: 2,
            steal: false,
            pin_node: Some(|node| set_current_node(Some(node))),
            ..SchedConfig::default()
        },
    );
    let w = Arc::clone(&map);
    sched
        .submit(TaskTag::new(0), move || {
            for p in 0..32u64 {
                w.access_write(base + p * PAGE, &[p as u8; 64])
                    .expect("first touch");
            }
            Run::Done
        })
        .join();
    let readers: Vec<machsched::JoinHandle> = (0..4)
        .map(|_| {
            let r = Arc::clone(&map);
            sched.submit(TaskTag::new(0), move || {
                for p in 0..32u64 {
                    let mut got = [0u8; 64];
                    r.access_read(base + p * PAGE, &mut got).expect("warm read");
                    assert_eq!(got, [p as u8; 64]);
                }
                Run::Done
            })
        })
        .collect();
    for h in readers {
        h.join();
    }
    assert!(
        m.stats.get(keys::NUMA_LOCAL_HITS) > 0,
        "NUMA accounting never engaged"
    );
    assert_eq!(
        m.stats.get(keys::NUMA_REMOTE_HITS),
        0,
        "single-node workload crossed nodes"
    );
    sched.shutdown();
}

#[test]
fn kernel_booted_parallel_compile_has_zero_watchdog_stalls() {
    // The macro-workload in miniature, through the real boot path:
    // task threads go through the kernel scheduler, their I/O through
    // the mapped-file emulation and the fault engine, and the stall
    // watchdog must stay quiet.
    let kernel = Kernel::boot(KernelConfig {
        memory_bytes: 8 << 20,
        sched_cpus: 8,
        ..KernelConfig::default()
    });
    let dev = Arc::new(BlockDevice::new(kernel.machine(), 4096));
    let fs = Arc::new(FlatFs::format(dev, 0));
    let server = FileServer::start(kernel.machine(), fs);
    let task = Task::create(&kernel, "make");
    let unix = Arc::new(MachUnix::new(&task, FsClient::new(server.port().clone())));
    let w = CompileWorkload {
        source_files: 8,
        headers: 4,
        ..CompileWorkload::default()
    };
    w.populate(unix.as_ref()).expect("populate project");
    let machine = kernel.machine().clone();
    for unit in 0..w.source_files {
        let (w, unix, machine) = (w.clone(), Arc::clone(&unix), machine.clone());
        task.spawn(move |_t| {
            w.compile_unit(unix.as_ref(), &machine, unit)
                .expect("compile unit");
        });
    }
    task.join_threads();
    unix.sync_all().expect("sync objects");
    let stats = &kernel.machine().stats;
    assert!(
        stats.get(keys::SCHED_DISPATCHES) >= w.source_files as u64,
        "compile threads never went through the scheduler"
    );
    assert_eq!(
        stats.get(keys::WATCHDOG_STALLS),
        0,
        "healthy parallel build flagged by the stall watchdog"
    );
}
