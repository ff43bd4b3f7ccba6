//! The stall watchdog (Section 6.2.1 turned inward): a wedged external
//! pager is detected and self-reported by the kernel — exactly once per
//! stalled chain, with a bounded black-box report — while healthy runs,
//! however congested, are never flagged.

use machcore::introspect::query_host_statistics;
use machcore::{spawn_manager, DataManager, Kernel, KernelConfig, KernelConn, Task};
use machipc::OolBuffer;
use machsim::stats::keys;
use machsim::EventKind;
use machvm::{FaultPolicy, VmProt};
use std::time::Duration;

const PAGE: u64 = 4096;

/// The canonical wedge: a pager that never answers `data_request`.
struct BlackHolePager;

impl DataManager for BlackHolePager {
    fn data_request(&mut self, _k: &KernelConn, _object: u64, _offset: u64, _len: u64, _a: VmProt) {
    }
}

/// A healthy pager that answers instantly.
struct EchoPager;

impl DataManager for EchoPager {
    fn data_request(&mut self, k: &KernelConn, object: u64, offset: u64, length: u64, _a: VmProt) {
        k.data_provided(
            object,
            offset,
            OolBuffer::from_vec(vec![0x5A; length as usize]),
            VmProt::NONE,
        );
    }
}

#[test]
fn wedged_pager_is_flagged_exactly_once_with_black_box_report() {
    let kernel = Kernel::boot(KernelConfig::default());
    let task = Task::create(&kernel, "wedged");
    // Rescue the faulting thread after 2s (Section 6.2.1 zero-fill
    // substitution) so it can be joined; the watchdog's wall debounce
    // (~300ms) fires long before that.
    task.map()
        .set_fault_policy(FaultPolicy::zero_fill_after(Duration::from_secs(2)));
    let mgr = spawn_manager(kernel.machine(), "blackhole", BlackHolePager);
    let addr = task
        .vm_allocate_with_pager(None, PAGE, mgr.port(), 0)
        .unwrap();

    let in_flight = || {
        query_host_statistics(kernel.host_port())
            .expect("the host port answers")
            .in_flight
    };
    let mut b = [0xFFu8; 1];
    std::thread::scope(|s| {
        let reader = s.spawn(|| task.read_memory(addr, &mut b));
        assert!(
            machsim::wall::poll_until(Duration::from_secs(1), Duration::from_millis(5), || {
                in_flight() == 1
            }),
            "the host port counts the parked fault in flight"
        );
        reader
            .join()
            .expect("reader thread")
            .expect("the timeout rescues the read");
    });
    assert_eq!(b[0], 0, "timeout substituted zero-filled memory");
    assert_eq!(in_flight(), 0, "the rescued fault is no longer in flight");

    let stats = &kernel.machine().stats;
    assert_eq!(
        stats.get(keys::WATCHDOG_STALLS),
        1,
        "the stalled chain is flagged exactly once"
    );
    assert_eq!(
        kernel
            .machine()
            .trace
            .snapshot()
            .iter()
            .filter(|e| e.kind == EventKind::Mark("watchdog_stall"))
            .count(),
        1
    );

    let reports = kernel.watchdog_reports();
    assert_eq!(reports.len(), 1, "one black-box report filed");
    let report = &reports[0];
    assert!(report.contains("watchdog stall: cid#"));
    assert!(report.contains("chain timeline"));
    assert!(
        report.contains("fault.submit:open"),
        "timeline shows the stalled chain's root"
    );
    assert!(report.contains("-- counters --"));
    assert!(report.contains(keys::VM_FAULTS));
    assert!(report.contains("-- resident memory --"));
    assert!(report.contains("FrameCensus"));
}

#[test]
fn healthy_pager_is_never_flagged_even_with_aggressive_threshold() {
    // A 1ns simulated stall budget: every fault blows the sim deadline
    // instantly, so only the wall-clock debounce separates healthy from
    // wedged. Healthy faults resolve in wall-microseconds and must never
    // be flagged no matter how long the run keeps faulting.
    let kernel = Kernel::boot(KernelConfig {
        watchdog_stall_ns: 1,
        ..KernelConfig::default()
    });
    let task = Task::create(&kernel, "healthy");
    let mgr = spawn_manager(kernel.machine(), "echo", EchoPager);
    let pages = 16u64;
    let addr = task
        .vm_allocate_with_pager(None, pages * PAGE, mgr.port(), 0)
        .unwrap();

    // Keep faults in flight across many watchdog scan periods.
    let deadline = machsim::wall::Deadline::after(Duration::from_millis(400));
    let mut b = [0u8; 1];
    while !deadline.expired() {
        for p in 0..pages {
            task.read_memory(addr + p * PAGE, &mut b).unwrap();
            assert_eq!(b[0], 0x5A);
        }
    }

    assert_eq!(
        kernel.machine().stats.get(keys::WATCHDOG_STALLS),
        0,
        "no false positives on a healthy run"
    );
    assert!(kernel.watchdog_reports().is_empty());
}
