//! The continuation-based asynchronous fault engine, end to end: a host
//! keeps thousands of faults outstanding against a slow external pager
//! with a handful of threads, a dying or silent pager errors its faults
//! back instead of wedging kernel service threads, and the causal trace
//! chain survives the park/resume hop.

use machcore::{spawn_manager, DataManager, Kernel, KernelConfig, KernelConn};
use machipc::OolBuffer;
use machsim::stats::keys;
use machsim::EventKind;
use machvm::{FaultPolicy, VmError, VmProt};
use std::time::Duration;

const PAGE: u64 = 4096;

/// Answers every `data_request` — a fixed wall delay after it arrives
/// (the manager thread serializes, so the delay also rate-limits the
/// drain, exactly like a busy disk queue).
struct SlowManager {
    delay: Duration,
}

impl DataManager for SlowManager {
    fn data_request(&mut self, k: &KernelConn, object: u64, offset: u64, length: u64, _a: VmProt) {
        machsim::wall::sleep(self.delay);
        k.data_provided(
            object,
            offset,
            OolBuffer::from_vec(vec![0x5A; length as usize]),
            VmProt::NONE,
        );
    }
}

/// Never answers anything.
struct BlackHolePager;

impl DataManager for BlackHolePager {
    fn data_request(&mut self, _k: &KernelConn, _object: u64, _offset: u64, _len: u64, _a: VmProt) {
    }
}

/// The tentpole scenario: thousands of faults in flight from one
/// submitting thread, all parked as continuations (no thread per fault),
/// all resolved by the slow pager, and the watchdog — which is running
/// the whole time — never flags a stall, because parked continuations
/// make progress events, not wedged threads.
#[test]
fn fault_storm_thousands_outstanding_all_resolve_zero_stalls() {
    const FAULTS: u64 = 2048;
    let kernel = Kernel::boot(KernelConfig {
        memory_bytes: 16 << 20, // room for every storm page at once
        fault_table_capacity: 4096,
        ..KernelConfig::default()
    });
    let mgr = spawn_manager(
        kernel.machine(),
        "slow",
        SlowManager {
            delay: Duration::from_micros(30),
        },
    );
    let object = kernel.object_for_port(mgr.port(), FAULTS * PAGE);
    let engine = kernel.fault_engine();

    let tickets: Vec<_> = (0..FAULTS)
        .map(|i| engine.submit(&object, i * PAGE, VmProt::READ, FaultPolicy::trusting()))
        .collect();
    for t in &tickets {
        t.wait().expect("every storm fault resolves");
    }

    let stats = &kernel.machine().stats;
    assert_eq!(
        stats.get(keys::WATCHDOG_STALLS),
        0,
        "a storm against a slow-but-live pager is not a stall"
    );
    assert!(
        engine.max_outstanding() > 64,
        "continuations parked far past any thread pool (saw {})",
        engine.max_outstanding()
    );
    assert!(
        stats.get(keys::VM_ASYNC_PARKS) >= FAULTS / 2,
        "the storm really went through the park path"
    );
    assert_eq!(
        kernel.phys().frame_census().pending,
        0,
        "no fill window outlives its fault"
    );
}

/// The backpressure regression: a storm submitting more faults than the
/// table's budget must never park past the budget — the old
/// `conts.len()`-based admission gate let woken-but-mid-step faults free
/// their table slot while still holding their claim, so `max_outstanding`
/// crept to budget+1 and beyond (BENCH_fault.json recorded 1025/4097
/// against budgets of 1024/4096).
#[test]
fn storm_past_the_budget_never_exceeds_it() {
    const BUDGET: usize = 256;
    const FAULTS: u64 = 1024; // 4x the budget: backpressure must engage.
    let kernel = Kernel::boot(KernelConfig {
        memory_bytes: 16 << 20,
        fault_table_capacity: BUDGET,
        ..KernelConfig::default()
    });
    let mgr = spawn_manager(
        kernel.machine(),
        "slow",
        SlowManager {
            delay: Duration::from_micros(50),
        },
    );
    let object = kernel.object_for_port(mgr.port(), FAULTS * PAGE);
    let engine = kernel.fault_engine();

    std::thread::scope(|s| {
        for t in 0..4u64 {
            let object = object.clone();
            s.spawn(move || {
                let per = FAULTS / 4;
                let tickets: Vec<_> = (0..per)
                    .map(|i| {
                        engine.submit(
                            &object,
                            (t * per + i) * PAGE,
                            VmProt::READ,
                            FaultPolicy::trusting(),
                        )
                    })
                    .collect();
                for ticket in tickets {
                    ticket.wait().expect("slow pager answers every fault");
                }
            });
        }
    });

    let stats = &kernel.machine().stats;
    assert!(
        stats.get(keys::VM_ASYNC_BACKPRESSURE) > 0,
        "a 4x-budget storm must actually hit the admission gate"
    );
    assert!(
        engine.max_outstanding() <= BUDGET,
        "max outstanding {} exceeded the budget {BUDGET}",
        engine.max_outstanding()
    );
}

/// A silent pager cannot wedge anything: the continuation's policy
/// deadline fires in the completion loop, the fault errors back to its
/// submitter promptly, and a *cleanly* timed-out fault is not a watchdog
/// stall (its flight chain ended by policy, not by wedging).
#[test]
fn silent_pager_times_out_cleanly_without_watchdog_stall() {
    let kernel = Kernel::boot(KernelConfig::default());
    let mgr = spawn_manager(kernel.machine(), "blackhole", BlackHolePager);
    let object = kernel.object_for_port(mgr.port(), 4 * PAGE);
    let engine = kernel.fault_engine();

    let policy = FaultPolicy {
        pager_timeout: Some(Duration::from_millis(40)),
        ..FaultPolicy::default() // on_timeout: Fail
    };
    let started = machsim::wall::now();
    let ticket = engine.submit(&object, 0, VmProt::READ, policy);
    let err = ticket.wait().expect_err("silent pager must time out");
    assert!(matches!(err, VmError::Timeout), "got {err:?}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the timeout fired from the completion loop, nothing wedged"
    );

    let stats = &kernel.machine().stats;
    assert!(stats.get(keys::VM_ASYNC_TIMEOUTS) >= 1);
    assert_eq!(
        stats.get(keys::WATCHDOG_STALLS),
        0,
        "a policy timeout is a clean completion, not a stall"
    );
    assert_eq!(
        kernel.phys().frame_census().pending,
        0,
        "the timed-out fault's claimed fill window was cancelled"
    );
}

/// Pager death mid-continuation: faults parked against a manager whose
/// port dies error out with `ObjectDestroyed`, and the resident table is
/// left clean — no leaked pins, no stranded pending fills.
#[test]
fn pager_death_mid_continuation_errors_faults_and_leaks_nothing() {
    const FAULTS: u64 = 32;
    let kernel = Kernel::boot(KernelConfig::default());
    let mgr = spawn_manager(kernel.machine(), "blackhole", BlackHolePager);
    let object = kernel.object_for_port(mgr.port(), FAULTS * PAGE);
    let engine = kernel.fault_engine();

    // Trusting policy: no deadline — only death detection can free these.
    let tickets: Vec<_> = (0..FAULTS)
        .map(|i| engine.submit(&object, i * PAGE, VmProt::READ, FaultPolicy::trusting()))
        .collect();
    assert!(
        tickets.iter().all(|t| !t.is_done()),
        "all faults are parked continuations before the pager dies"
    );

    // Kill the manager: its thread exits and the memory-object port dies.
    mgr.shutdown();

    for t in &tickets {
        let err = t.wait().expect_err("fault against a dead pager errors");
        assert!(matches!(err, VmError::ObjectDestroyed), "got {err:?}");
    }

    let stats = &kernel.machine().stats;
    assert!(stats.get(keys::VM_ASYNC_PAGER_DEAD) >= 1);
    let census = kernel.phys().frame_census();
    assert_eq!(census.pending, 0, "no stranded fill windows: {census:?}");
    assert_eq!(census.pinned, 0, "no leaked pins: {census:?}");
}

/// The causal chain survives the continuation hop: the fault's
/// correlation id is visible on the submit-side `Fault` event, on the
/// manager-side `DataRequest` (stamped through the *batched* request
/// message), and on the completion-loop `Resume` — one chain, three
/// threads, no thread-local scope in common.
#[test]
fn correlation_id_survives_park_and_resume() {
    let kernel = Kernel::boot(KernelConfig::default());
    let mgr = spawn_manager(
        kernel.machine(),
        "slow",
        SlowManager {
            delay: Duration::from_millis(5),
        },
    );
    let object = kernel.object_for_port(mgr.port(), 4 * PAGE);
    let engine = kernel.fault_engine();

    let ticket = engine.submit(&object, 0, VmProt::READ, FaultPolicy::trusting());
    let cid = ticket.correlation();
    ticket.wait().expect("slow pager answers");
    assert!(
        kernel.machine().stats.get(keys::VM_ASYNC_PARKS) >= 1,
        "the fault really parked (otherwise this test proves nothing)"
    );

    let events = kernel.machine().trace.snapshot();
    let chain: Vec<_> = events
        .iter()
        .filter(|e| e.correlation_id == Some(cid))
        .collect();
    assert!(
        chain.iter().any(|e| e.kind == EventKind::Fault),
        "submit-side fault event carries the cid"
    );
    assert!(
        chain.iter().any(|e| e.kind == EventKind::DataRequest),
        "the batched pager_data_request preserved the cid across the IPC hop"
    );
    assert!(
        chain.iter().any(|e| e.kind == EventKind::Resume),
        "the completion loop's resolution rejoined the chain"
    );
}

/// A fault over a run is one continuation: a pager that dies under it
/// errors the run once, and nothing it claimed stays pending.
#[test]
fn pager_death_errors_a_parked_run_once() {
    let kernel = Kernel::boot(KernelConfig::default());
    let mgr = spawn_manager(kernel.machine(), "blackhole", BlackHolePager);
    let object = kernel.object_for_port(mgr.port(), 16 * PAGE);
    let engine = kernel.fault_engine();

    let policy = FaultPolicy::trusting().with_cluster(8);
    let ticket = engine.submit_run(&object, 0, 16, VmProt::READ, policy);
    assert!(!ticket.is_done(), "the run is parked on its one request");
    assert_eq!(kernel.phys().frame_census().pending, 16);
    assert_eq!(engine.outstanding(), 1);

    mgr.shutdown();

    let err = ticket
        .wait_run()
        .expect_err("run against a dead pager errors");
    assert!(matches!(err, VmError::ObjectDestroyed), "got {err:?}");
    let stats = &kernel.machine().stats;
    assert_eq!(stats.get(keys::VM_FAULTS), 1);
    assert_eq!(stats.get(keys::VM_ASYNC_PAGER_DEAD), 1);
    let census = kernel.phys().frame_census();
    assert_eq!(census.pending, 0, "no stranded fill windows: {census:?}");
    assert_eq!(census.pinned, 0, "no leaked pins: {census:?}");
}

/// Engine shutdown with runs parked: each errors with `ObjectDestroyed`
/// and every page it claimed is released.
#[test]
fn shutdown_errors_parked_runs_and_releases_their_claims() {
    let kernel = Kernel::boot(KernelConfig::default());
    let mgr = spawn_manager(kernel.machine(), "blackhole", BlackHolePager);
    let object = kernel.object_for_port(mgr.port(), 64 * PAGE);
    let engine = kernel.fault_engine();

    let policy = FaultPolicy::trusting().with_cluster(8);
    let tickets: Vec<_> = (0..4)
        .map(|run| engine.submit_run(&object, run * 16 * PAGE, 16, VmProt::READ, policy))
        .collect();
    assert!(tickets.iter().all(|t| !t.is_done()));
    assert_eq!(kernel.phys().frame_census().pending, 64);

    engine.shutdown();

    for t in &tickets {
        let err = t.wait_run().expect_err("shutdown errors what was parked");
        assert!(matches!(err, VmError::ObjectDestroyed), "got {err:?}");
    }
    assert_eq!(engine.outstanding(), 0);
    assert_eq!(kernel.phys().frame_census().pending, 0);
}
