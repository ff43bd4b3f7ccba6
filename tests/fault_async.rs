//! The continuation-based asynchronous fault engine, end to end: a host
//! keeps thousands of faults outstanding against a slow external pager
//! with a handful of threads, a dying or silent pager errors its faults
//! back instead of wedging kernel service threads, and the causal trace
//! chain survives the park/resume hop.

use machcore::{spawn_manager, DataManager, Kernel, KernelConfig, KernelConn};
use machipc::OolBuffer;
use machsim::stats::keys;
use machsim::{span, EventKind, Machine};
use machvm::{
    FaultEngineConfig, FaultPolicy, NumaConfig, ObjectId, PagerBackend, PhysicalMemory, VmError,
    VmMap, VmObject, VmProt,
};
use std::ops::Range;
use std::sync::{mpsc, Arc, Mutex};
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

/// Answers every request at once except those for offsets in `skip`;
/// keeps the connection of the kernel that mapped it, so the test can
/// answer those.
struct SkippingManager {
    skip: Range<u64>,
    kernel: Arc<Mutex<Option<KernelConn>>>,
}

impl SkippingManager {
    fn new(skip: Range<u64>) -> (Self, Arc<Mutex<Option<KernelConn>>>) {
        let kernel = Arc::new(Mutex::new(None));
        let manager = SkippingManager {
            skip,
            kernel: kernel.clone(),
        };
        (manager, kernel)
    }
}

impl DataManager for SkippingManager {
    fn init(&mut self, k: &KernelConn, _object: u64) {
        *self.kernel.lock().expect("connection") = Some(k.clone());
    }

    fn data_request(&mut self, k: &KernelConn, object: u64, offset: u64, length: u64, _a: VmProt) {
        if !self.skip.contains(&offset) {
            k.data_provided(object, offset, page_run(length), VmProt::NONE);
        }
    }
}

fn page_run(length: u64) -> OolBuffer {
    OolBuffer::from_vec(vec![0x5A; length as usize])
}

/// The connection a [`SkippingManager`] was given at `pager_init`.
fn connection(kernel: &Mutex<Option<KernelConn>>) -> KernelConn {
    assert!(
        machsim::wall::poll_until(Duration::from_secs(5), Duration::from_millis(1), || {
            kernel.lock().expect("connection").is_some()
        }),
        "pager_init never arrived"
    );
    let conn = kernel.lock().expect("connection").clone();
    conn.expect("init ran")
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

/// A queue deeper than the watchdog's debounce: a pager that drains 2048
/// faults in order takes far longer than the ~300 ms of scans that flag a
/// fault, but it answers an older fault of the object between every two
/// scans, so none of the faults waiting their turn is a stall.
#[test]
fn a_fifo_drain_that_outlasts_the_debounce_reports_no_stall() {
    const FAULTS: u64 = 2048;
    let kernel = Kernel::boot(KernelConfig {
        memory_bytes: 16 << 20,
        // Every fault is past its simulated deadline at once: only the
        // wall-clock debounce separates a queued fault from a stalled one.
        watchdog_stall_ns: 1,
        ..KernelConfig::default()
    });
    let mgr = spawn_manager(
        kernel.machine(),
        "fifo",
        SlowManager {
            delay: Duration::from_micros(400),
        },
    );
    let object = kernel.object_for_port(mgr.port(), FAULTS * PAGE);
    let engine = kernel.fault_engine();

    let started = machsim::wall::now();
    let tickets: Vec<_> = (0..FAULTS)
        .map(|i| engine.submit(&object, i * PAGE, VmProt::READ, FaultPolicy::trusting()))
        .collect();
    for t in &tickets {
        t.wait().expect("every queued fault resolves");
    }
    assert!(
        started.elapsed() > Duration::from_millis(600),
        "the drain outlasted the debounce"
    );
    assert_eq!(
        kernel.machine().stats.get(keys::WATCHDOG_STALLS),
        0,
        "a fault queued behind a draining pager is not a stall"
    );
}

/// The other side of the same rule: a pager that answers every fault but
/// one is making progress, but not toward that one, which is flagged —
/// once — and still resolves when its answer finally comes. As every
/// kernel fault has a faulting thread, the skipped one has a waiter, which
/// keeps its quiet deadline.
#[test]
fn a_fault_its_pager_skips_is_flagged_once() {
    const FAULTS: u64 = 64;
    const SKIP: u64 = 20;
    let kernel = Kernel::boot(KernelConfig {
        watchdog_stall_ns: 1,
        ..KernelConfig::default()
    });
    let (manager, held) = SkippingManager::new(SKIP * PAGE..(SKIP + 1) * PAGE);
    let mgr = spawn_manager(kernel.machine(), "skipping", manager);
    let object = kernel.object_for_port(mgr.port(), FAULTS * PAGE);
    let engine = kernel.fault_engine();

    let tickets: Vec<_> = (0..FAULTS)
        .map(|i| engine.submit(&object, i * PAGE, VmProt::READ, FaultPolicy::trusting()))
        .collect();
    let stalls = || kernel.machine().stats.get(keys::WATCHDOG_STALLS);
    std::thread::scope(|s| {
        let skipped = &tickets[SKIP as usize];
        let waiter = s.spawn(|| skipped.wait());
        for (page, t) in (0..).zip(&tickets) {
            if page != SKIP {
                t.wait().expect("every answered fault resolves");
            }
        }
        // The report is filed after the counter is bumped: wait for it.
        assert!(
            machsim::wall::poll_until(Duration::from_secs(10), Duration::from_millis(5), || {
                !kernel.watchdog_reports().is_empty()
            }),
            "the skipped fault was never flagged"
        );
        let cid = skipped.correlation().raw();
        let reports = kernel.watchdog_reports();
        assert!(reports[0].contains(&format!("watchdog stall: cid#{cid} ")));
        machsim::wall::sleep(Duration::from_millis(100));
        assert_eq!(stalls(), 1, "flagged once, however many scans find it");
        assert_eq!(kernel.watchdog_reports().len(), 1);

        connection(&held).data_provided(object.id().0, SKIP * PAGE, page_run(PAGE), VmProt::NONE);
        waiter
            .join()
            .expect("waiter thread")
            .expect("the late answer resolves it");
    });
    assert_eq!(stalls(), 1);
}

/// Two threads, each with the object's connection to the kernel, apply
/// overlapping `pager_data_provided` runs and `pager_data_lock`s to one
/// object at once while its faults are parked: each call is applied on
/// its own sender's thread, so nothing serialises them but the resident
/// table itself.
#[test]
fn concurrent_applies_to_one_object_resolve_every_fault_and_leak_nothing() {
    const PAGES: u64 = 64;
    let kernel = Kernel::boot(KernelConfig::default());
    // The manager answers nothing: the test's threads do.
    let (manager, held) = SkippingManager::new(0..u64::MAX);
    let mgr = spawn_manager(kernel.machine(), "silent", manager);
    let object = kernel.object_for_port(mgr.port(), PAGES * PAGE);
    let (engine, phys) = (kernel.fault_engine(), kernel.phys());
    let conn = connection(&held);
    let baseline = phys.frame_census();

    let oid = object.id().0;
    for round in 0..20 {
        let tickets: Vec<_> = (0..PAGES)
            .map(|i| engine.submit(&object, i * PAGE, VmProt::READ, FaultPolicy::trusting()))
            .collect();
        assert!(tickets.iter().all(|t| !t.is_done()), "round {round}");
        std::thread::scope(|s| {
            // Eight-page runs, one thread's offset by half a run.
            for first in [0, 4] {
                let conn = &conn;
                s.spawn(move || {
                    for run in (first..PAGES).step_by(8) {
                        let pages = 8.min(PAGES - run);
                        conn.data_provided(oid, run * PAGE, page_run(pages * PAGE), VmProt::NONE);
                        conn.data_lock(oid, 0, PAGES * PAGE, VmProt::WRITE);
                    }
                });
            }
        });
        for t in &tickets {
            t.wait().expect("every parked fault resolves");
        }
        phys.check_invariants();
        conn.flush_request(oid, 0, PAGES * PAGE);
        assert_eq!(phys.frame_census(), baseline, "round {round}");
    }
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

/// Answers nothing until it holds two requests, then both, on the thread
/// that sent the second (that request's faulting thread) — `HeldPager` in
/// `tests/pager_fill.rs`, over any number of objects.
struct PairPager {
    phys: Arc<PhysicalMemory>,
    objects: Mutex<Vec<Arc<VmObject>>>,
    held: Mutex<Vec<(ObjectId, u64, u64)>>,
}

impl PagerBackend for PairPager {
    fn supports_cluster(&self) -> bool {
        true
    }

    fn data_request(&self, object: ObjectId, offset: u64, length: u64, _access: VmProt) {
        let mut held = self.held.lock().expect("held requests");
        held.push((object, offset, length));
        if held.len() < 2 {
            return;
        }
        let objects = self.objects.lock().expect("attached objects");
        for (id, offset, length) in held.drain(..) {
            let object = objects.iter().find(|o| o.id() == id).expect("attached");
            let data = OolBuffer::from_vec(vec![0x5A; length as usize]);
            self.phys
                .supply_page(object, offset, data, VmProt::NONE)
                .expect("memory for both runs");
        }
    }

    fn data_write(&self, _object: ObjectId, _offset: u64, _data: OolBuffer) {}

    fn data_unlock(&self, _object: ObjectId, _offset: u64, _length: u64, _access: VmProt) {}
}

/// The admission order: a fault that must park sends the runs it claimed
/// *before* it waits for a slot. With one slot, fault A parks on its
/// request; fault B claims a run on another object and finds A holding
/// the slot; the pager answers neither until it holds both requests. Had
/// B waited for the slot before sending, A would wait for B's request and
/// B for A's slot, forever.
#[test]
fn a_fault_waiting_for_a_slot_has_sent_its_request() -> Result<(), VmError> {
    let m = Machine::default_machine();
    let faults = FaultEngineConfig { capacity: 1 };
    let phys = PhysicalMemory::with_config(&m, 64 * 4096, 4096, 4, NumaConfig::single(), faults);
    let pager = Arc::new(PairPager {
        phys: phys.clone(),
        objects: Mutex::new(Vec::new()),
        held: Mutex::new(Vec::new()),
    });
    let [a, b] = [(); 2].map(|()| VmObject::new_with_pager(16 * PAGE, pager.clone()));
    pager
        .objects
        .lock()
        .expect("attached objects")
        .extend([a.clone(), b.clone()]);
    let engine = phys.fault_engine();
    let policy = FaultPolicy::trusting().with_cluster(4);

    let first = engine.submit(&a, 0, VmProt::READ, policy);
    assert!(!first.is_done(), "A is parked on its request");
    let (done, second) = mpsc::channel();
    let memory = phys.clone();
    std::thread::spawn(move || {
        let run = memory
            .fault_engine()
            .submit_run(&b, 0, 4, VmProt::READ, policy);
        let _ = done.send(run.wait_run().map(|pages| pages.len()));
    });
    let second = second
        .recv_timeout(Duration::from_secs(10))
        .expect("B resolves: it sent its request while it waited for A's slot");
    assert_eq!(second?, 4);
    assert_eq!(first.wait()?.offset, 0);
    assert!(
        m.stats.get(keys::VM_ASYNC_BACKPRESSURE) > 0,
        "B found the table full"
    );
    assert_eq!(engine.max_outstanding(), 1);
    assert_eq!(engine.in_flight(), 0);
    assert_eq!(phys.frame_census().pending, 0);
    Ok(())
}

/// Records every request and answers none: the test answers, on its own
/// thread.
#[derive(Default)]
struct RecordingPager {
    requests: Mutex<Vec<(ObjectId, u64, u64)>>,
}

impl RecordingPager {
    fn requests(&self) -> Vec<(ObjectId, u64, u64)> {
        self.requests.lock().expect("requests").clone()
    }
}

impl PagerBackend for RecordingPager {
    fn supports_cluster(&self) -> bool {
        true
    }

    fn data_request(&self, object: ObjectId, offset: u64, length: u64, _access: VmProt) {
        let mut requests = self.requests.lock().expect("requests");
        requests.push((object, offset, length));
    }

    fn data_write(&self, _object: ObjectId, _offset: u64, _data: OolBuffer) {}

    fn data_unlock(&self, _object: ObjectId, _offset: u64, _length: u64, _access: VmProt) {}
}

/// A bare memory of 64 frames, and an object of `pages` pages behind a
/// [`RecordingPager`].
fn recorded(m: &Machine, pages: u64) -> (Arc<PhysicalMemory>, Arc<RecordingPager>, Arc<VmObject>) {
    let phys = PhysicalMemory::new(m, 64 * 4096, 4096, 4);
    let pager = Arc::new(RecordingPager::default());
    let object = VmObject::new_with_pager(pages * PAGE, pager.clone());
    (phys, pager, object)
}

fn filled(pages: u64) -> OolBuffer {
    OolBuffer::from_vec(vec![0x5A; (pages * PAGE) as usize])
}

/// A pager round trip has no third thread: the faulting thread has sent
/// its request by the time `submit_run` returns, and the thread that
/// applies the reply has resumed and completed the fault by the time
/// `supply_page` returns.
#[test]
fn a_round_trip_is_the_faulting_thread_and_the_replying_thread() -> Result<(), VmError> {
    let m = Machine::default_machine();
    let (phys, pager, object) = recorded(&m, 16);
    let engine = phys.fault_engine();
    let policy = FaultPolicy::trusting().with_cluster(16);

    let run = engine.submit_run(&object, 0, 16, VmProt::READ, policy);
    assert_eq!(pager.requests(), vec![(object.id(), 0, 16 * PAGE)]);
    assert!(!run.is_done());
    assert_eq!(engine.in_flight(), 1);

    assert_eq!(phys.supply_page(&object, 0, filled(16), VmProt::NONE)?, 16);
    assert!(run.is_done(), "the reply's thread resumed the fault");
    assert_eq!(engine.in_flight(), 0);
    assert_eq!(run.wait_run()?.len(), 16);
    Ok(())
}

/// The table is the one bound on what is asked: 1100 single-page faults
/// against a pager that answers nothing have each sent their request by
/// the time the last `submit` returns, and answering them all leaves
/// nothing in flight and no fill window behind.
#[test]
fn every_parked_fault_has_sent_its_request() -> Result<(), VmError> {
    const FAULTS: u64 = 1100;
    let m = Machine::default_machine();
    let phys = PhysicalMemory::new(&m, 2048 * 4096, 4096, 4);
    let pager = Arc::new(RecordingPager::default());
    let object = VmObject::new_with_pager(FAULTS * PAGE, pager.clone());
    let engine = phys.fault_engine();

    let tickets: Vec<_> = (0..FAULTS)
        .map(|i| engine.submit(&object, i * PAGE, VmProt::READ, FaultPolicy::trusting()))
        .collect();
    let requests = pager.requests();
    assert_eq!(requests.len(), FAULTS as usize);
    assert!(requests.iter().all(|&(_, _, length)| length == PAGE));

    for i in 0..FAULTS {
        phys.supply_page(&object, i * PAGE, filled(1), VmProt::NONE)?;
    }
    assert!(tickets.iter().all(|t| t.is_done()));
    assert_eq!(engine.in_flight(), 0);
    assert_eq!(phys.frame_census().pending, 0);
    Ok(())
}

/// A silent pager cannot wedge anything: the continuation's policy
/// deadline fires on the engine's timer, the fault errors back to its
/// submitter promptly, and a *cleanly* timed-out fault is not a watchdog
/// stall (it left the fault table by policy, not by wedging).
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
        "the timeout fired from the engine's timer, nothing wedged"
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
/// left clean — its invariants hold, no stranded pending fills.
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
    kernel.phys().check_invariants();
}

/// The causal chain survives the continuation hop: the fault's
/// correlation id is on the submit-side `fault.submit` root, on the
/// manager-side `pager.service` span (stamped through the request
/// message), and on the `fault.resume` span the manager's thread opens
/// when the kernel applies its reply there — one span tree across two
/// threads.
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

    let chain = kernel.machine().trace.chain(cid);
    span::validate_chain_tree(&span::collect(&chain)).unwrap_or_else(|e| panic!("{e}: {chain:#?}"));
    let has = |kind| chain.iter().any(|e| e.kind == kind);
    assert!(
        has(EventKind::SpanOpen("fault.submit")),
        "the submit-side root span carries the cid"
    );
    assert!(
        has(EventKind::SpanOpen("pager.service")),
        "the pager_data_request preserved the cid across the IPC hop"
    );
    assert!(
        has(EventKind::SpanOpen("fault.resume")),
        "the resolution on the reply's thread rejoined the chain"
    );
    assert!(
        has(EventKind::SpanClose("fault.submit")),
        "the chain's root closed"
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
    kernel.phys().check_invariants();
}

/// Answers every `data_request` once its gate opens: until then its
/// thread blocks on the gate, and its faults stay parked.
struct GatedManager {
    gate: mpsc::Receiver<()>,
}

impl DataManager for GatedManager {
    fn data_request(&mut self, k: &KernelConn, object: u64, offset: u64, length: u64, _a: VmProt) {
        let _ = self.gate.recv();
        k.data_provided(object, offset, page_run(length), VmProt::NONE);
    }
}

/// A manager's death reaches the kernel as a message: its port's death
/// notice fails every fault parked on its object before the thread that
/// destroyed the port — the manager's own, as `shutdown` joins it — is
/// done, and touches no other manager's faults.
#[test]
fn a_dead_managers_faults_fail_when_the_notice_arrives() {
    const A_FAULTS: u64 = 32;
    const B_FAULTS: u64 = 8;
    let kernel = Kernel::boot(KernelConfig::default());
    let (engine, phys) = (kernel.fault_engine(), kernel.phys());
    let baseline = phys.frame_census();
    let mgr_a = spawn_manager(kernel.machine(), "doomed", BlackHolePager);
    let (open, gate) = mpsc::channel();
    let mgr_b = spawn_manager(kernel.machine(), "gated", GatedManager { gate });
    // Declared after the manager, so dropped before it: should an
    // assertion fail, the gate opens before the handle waits for it.
    let open: mpsc::Sender<()> = open;
    let a = kernel.object_for_port(mgr_a.port(), A_FAULTS * PAGE);
    let b = kernel.object_for_port(mgr_b.port(), B_FAULTS * PAGE);
    let submit = |object, pages| -> Vec<_> {
        (0..pages)
            .map(|i| engine.submit(object, i * PAGE, VmProt::READ, FaultPolicy::trusting()))
            .collect()
    };
    let (on_a, on_b) = (submit(&a, A_FAULTS), submit(&b, B_FAULTS));
    assert_eq!(engine.outstanding() as u64, A_FAULTS + B_FAULTS);

    mgr_a.shutdown();

    for t in &on_a {
        assert!(t.is_done(), "failed by the time the manager is gone");
        let err = t.wait().expect_err("a dead manager's fault errors");
        assert!(matches!(err, VmError::ObjectDestroyed), "got {err:?}");
    }
    let stats = &kernel.machine().stats;
    assert_eq!(stats.get(keys::VM_ASYNC_PAGER_DEAD), A_FAULTS);
    assert!(on_b.iter().all(|t| !t.is_done()), "B's manager lives");
    assert_eq!(engine.outstanding() as u64, B_FAULTS);

    drop(open);
    for t in &on_b {
        t.wait().expect("B answers its faults");
    }
    phys.flush_range(&b, 0, B_FAULTS * PAGE);
    assert_eq!(phys.frame_census(), baseline);
    assert_eq!(stats.get(keys::VM_ASYNC_PAGER_DEAD), A_FAULTS);
}

/// A fault's deadline is kept by the thread that waits for it: pager
/// round trips with no deadline never sweep, and one parked fault with a
/// policy deadline is swept exactly once, by its waiter, when the
/// deadline falls due.
#[test]
fn a_waiter_sweeps_only_for_a_deadline_that_falls_due() -> Result<(), VmError> {
    let m = Machine::default_machine();
    let (phys, pager, object) = recorded(&m, 16);
    let engine = phys.fault_engine();
    let sweeps = || m.stats.get(keys::VM_TIMER_WAKEUPS);
    for _ in 0..1000 {
        let ticket = engine.submit(&object, 0, VmProt::READ, FaultPolicy::trusting());
        phys.supply_page(&object, 0, filled(1), VmProt::NONE)?;
        ticket.wait()?;
        phys.flush_range(&object, 0, PAGE);
    }
    assert_eq!(pager.requests().len(), 1000);
    assert_eq!(m.stats.get(keys::VM_ASYNC_PARKS), 1000);
    assert_eq!(sweeps(), 0);

    let policy = FaultPolicy::abort_after(Duration::from_millis(40));
    let err = engine
        .submit(&object, PAGE, VmProt::READ, policy)
        .wait()
        .expect_err("nobody answers");
    assert!(matches!(err, VmError::Timeout), "got {err:?}");
    assert_eq!(sweeps(), 1);
    assert_eq!(m.stats.get(keys::VM_ASYNC_TIMEOUTS), 1);
    assert_eq!(phys.frame_census().pending, 0);
    Ok(())
}

/// A kernel parks no fault at boot, so a kernel that is left alone has no
/// alarm, and nothing ever sweeps it.
#[test]
fn an_idle_kernel_never_sweeps() {
    let kernel = Kernel::boot(KernelConfig::default());
    machsim::wall::sleep(Duration::from_millis(100));
    assert_eq!(kernel.machine().stats.get(keys::VM_TIMER_WAKEUPS), 0);
}

/// Fault-ahead waits for every run it submitted, whichever fails first: a
/// run against a dead manager fails the call, but only once the run behind
/// it, on another object whose manager answers late, has resolved, so no
/// fault it submitted is left parked without a waiter.
#[test]
fn fault_ahead_waits_for_every_run_it_submitted() -> Result<(), VmError> {
    const PAGES: u64 = 4;
    let kernel = Kernel::boot(KernelConfig::default());
    let engine = kernel.fault_engine();
    let mgr_a = spawn_manager(kernel.machine(), "doomed", BlackHolePager);
    let (open, gate) = mpsc::channel();
    let mgr_b = spawn_manager(kernel.machine(), "gated", GatedManager { gate });
    // Declared after the manager, so dropped before it: should an
    // assertion fail, the gate opens before the handle waits for it.
    let open: mpsc::Sender<()> = open;
    let a = kernel.object_for_port(mgr_a.port(), PAGES * PAGE);
    let b = kernel.object_for_port(mgr_b.port(), PAGES * PAGE);
    let map = VmMap::new(kernel.phys());
    let addr = map.allocate_with_object(None, PAGES * PAGE, a, 0, false)?;
    map.allocate_with_object(Some(addr + PAGES * PAGE), PAGES * PAGE, b, 0, false)?;

    std::thread::scope(|s| {
        let ahead = s.spawn(|| {
            let result = map.fault_ahead(addr, 2 * PAGES * PAGE, VmProt::READ);
            (result, engine.outstanding())
        });
        assert!(
            machsim::wall::poll_until(Duration::from_secs(5), Duration::from_millis(1), || {
                engine.outstanding() == 2
            }),
            "both runs parked"
        );
        mgr_a.shutdown();
        machsim::wall::sleep(Duration::from_millis(20));
        drop(open);
        let (result, outstanding) = ahead.join().expect("fault-ahead thread");
        assert!(
            matches!(result, Err(VmError::ObjectDestroyed)),
            "got {result:?}"
        );
        assert_eq!(outstanding, 0, "no run is left parked");
    });
    Ok(())
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
