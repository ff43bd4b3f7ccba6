//! Integration: the external-pager fill path moves each page once and
//! faults it once. A page a manager gave away (`pager_data_provided` with
//! an exclusively held buffer) enters the VM cache by remap; a page the
//! manager still holds, or any page on a machine where placement is
//! visible to the clock, is copied. Fault-ahead maps what it resolved, so
//! the access behind it finds the pmap entry. All measurements are
//! simulated time and counters.

use machcore::{
    proto, spawn_manager, DataManager, Kernel, KernelConfig, KernelConn, ManagerHandle, Task,
};
use machipc::{Message, MsgItem, OolBuffer};
use machpagers::hostile::FloodPager;
use machsim::stats::keys;
use machsim::{CostModel, Machine, Topology};
use machvm::numa::NodeScope;
use machvm::{
    FaultEngineConfig, FaultPolicy, NumaConfig, ObjectId, PageLookup, PagerBackend, PhysicalMemory,
    VmError, VmObject, VmProt,
};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Duration;

const PAGE: u64 = 4096;

/// Bytes `[offset, offset + len)` of the object as the pagers below supply them.
fn pattern(offset: u64, len: u64) -> Vec<u8> {
    (offset..offset + len)
        .map(|b| (b / PAGE) as u8 ^ (b % 251) as u8)
        .collect()
}

/// Supplies the pattern; when `retain` is set it keeps a handle on every
/// buffer it sends, as a manager that serves pages out of its own cache
/// (and so still owns them) would.
struct PatternPager {
    retain: bool,
    kept: Vec<OolBuffer>,
}

impl DataManager for PatternPager {
    fn data_request(&mut self, k: &KernelConn, object: u64, offset: u64, length: u64, _a: VmProt) {
        let data = OolBuffer::from_vec(pattern(offset, length));
        if self.retain {
            self.kept.push(data.clone());
        }
        k.data_provided(object, offset, data, VmProt::NONE);
    }
}

/// One 8-page fill; returns (sim ns it took, the bytes read back,
/// pages stolen, bytes copied). A message costs less when its receiver had
/// already parked (a handoff), which is up to the host's scheduler: the
/// time is reported as if every message had been queued.
fn cluster_fill(retain: bool) -> Result<(u64, Vec<u8>, u64, u64), VmError> {
    let kernel = Kernel::boot(KernelConfig::default());
    let mgr = spawn_manager(
        kernel.machine(),
        "pattern",
        PatternPager {
            retain,
            kept: Vec::new(),
        },
    );
    let task = Task::create(&kernel, "reader");
    let addr = task.vm_allocate_with_pager(None, 8 * PAGE, mgr.port(), 0)?;
    let (clock, stats, cost) = (
        &kernel.machine().clock,
        &kernel.machine().stats,
        &kernel.machine().cost,
    );
    let (stolen, copied, handoffs) = (
        stats.get(keys::VM_PAGES_STOLEN),
        stats.get(keys::BYTES_COPIED),
        stats.get(keys::IPC_HANDOFFS),
    );
    let before = clock.now_ns();
    // The first fault on a fresh object at offset 0 asks for the whole
    // 8-page cap, and the manager's thread installs all eight before it
    // resumes the fault.
    task.map().fault(addr, VmProt::READ)?;
    let object = task.vm_regions()[0].object;
    assert_eq!(kernel.phys().resident_pages_of(object), 8);
    let handoffs = stats.get(keys::IPC_HANDOFFS) - handoffs;
    let took = clock.now_ns() - before + handoffs * (cost.message_ns - cost.handoff_ns);
    let (stolen, copied) = (
        stats.get(keys::VM_PAGES_STOLEN) - stolen,
        stats.get(keys::BYTES_COPIED) - copied,
    );
    assert_eq!(stats.get(keys::VM_PAGER_FILLS), 1, "one 8-page request");

    let mut bytes = vec![0u8; 8 * PAGE as usize];
    task.read_memory(addr, &mut bytes)?;
    Ok((took, bytes, stolen, copied))
}

#[test]
fn exclusive_buffer_is_stolen_and_retained_buffer_is_copied() -> Result<(), VmError> {
    let (steal_ns, steal_bytes, stolen, steal_copied) = cluster_fill(false)?;
    let (copy_ns, copy_bytes, not_stolen, copied) = cluster_fill(true)?;

    let cost = CostModel::default();
    assert_eq!(
        copy_ns - steal_ns,
        8 * (cost.copy_cost_ns(PAGE) - cost.map_page_ns),
        "the two fills differ by exactly the eight page copies"
    );
    assert_eq!((stolen, not_stolen), (8, 0));
    // Both runs copy the same few inline header bytes; only one copies pages.
    assert_eq!(copied - steal_copied, 8 * PAGE);
    assert!(steal_copied < PAGE);
    assert_eq!(steal_bytes, pattern(0, 8 * PAGE));
    assert_eq!(copy_bytes, steal_bytes);
    Ok(())
}

#[test]
fn numa_supply_still_copies_onto_the_requesters_node() -> Result<(), VmError> {
    let m = Machine::with_topology(Topology::Numa);
    let phys = PhysicalMemory::with_config(
        &m,
        64 * PAGE as usize,
        PAGE as usize,
        4,
        NumaConfig::nodes(4).with_first_touch(),
        FaultEngineConfig::default(),
    );
    let obj = VmObject::new_temporary(PAGE);
    {
        // The requester faulted from node 2.
        let _node = NodeScope::enter(2);
        assert!(phys.begin_fill(obj.id(), 0));
    }
    let data = OolBuffer::from_vec(vec![7u8; PAGE as usize]);
    assert!(data.is_exclusive(), "stealable anywhere but here");
    let before = m.clock.now_ns();
    phys.supply_page(&obj, 0, data, VmProt::NONE)?;
    assert_eq!(
        m.clock.now_ns() - before,
        CostModel::numa().copy_cost_ns(PAGE),
        "on NUMA the copy is the first-touch placement"
    );
    assert_eq!(m.stats.get(keys::VM_PAGES_STOLEN), 0);
    assert_eq!(m.stats.get(keys::BYTES_COPIED), PAGE);
    match phys.lookup(obj.id(), 0) {
        PageLookup::Resident { frame, .. } => assert_eq!(phys.frame_node(frame), 2),
        other => panic!("expected resident, got {other:?}"),
    }
    Ok(())
}

/// Answers nothing until it holds sixteen requests, then all of them: a
/// fault over a run of pages that are requested one by one (the policy
/// below) asks for all of them before it waits for any.
#[derive(Default)]
struct HeldPager {
    held: Vec<(u64, u64)>,
}

impl DataManager for HeldPager {
    fn data_request(&mut self, k: &KernelConn, object: u64, offset: u64, length: u64, _a: VmProt) {
        self.held.push((offset, length));
        if self.held.len() == 16 {
            for (offset, length) in self.held.drain(..) {
                let data = OolBuffer::from_vec(pattern(offset, length));
                k.data_provided(object, offset, data, VmProt::NONE);
            }
        }
    }
}

/// Kernel + held pager + one cold 16-page mapping faulted a page per
/// request (`cow`: a copy-on-write snapshot of the object instead of the
/// object itself).
fn mapped_16(cow: bool) -> Result<(Arc<Kernel>, ManagerHandle, Arc<Task>, u64), VmError> {
    let kernel = Kernel::boot(KernelConfig::default());
    let mgr = spawn_manager(kernel.machine(), "held", HeldPager::default());
    let task = Task::create(&kernel, "reader");
    task.map().set_fault_policy(FaultPolicy::trusting());
    let addr = if cow {
        task.map_object_copy(None, 16 * PAGE, mgr.port(), 0)
    } else {
        task.vm_allocate_with_pager(None, 16 * PAGE, mgr.port(), 0)
    }?;
    Ok((kernel, mgr, task, addr))
}

#[test]
fn read_behind_fault_ahead_takes_no_faults() -> Result<(), VmError> {
    let (kernel, _mgr, task, addr) = mapped_16(false)?;
    let stats = &kernel.machine().stats;
    assert_eq!(
        task.map().fault_ahead(addr, 16 * PAGE, VmProt::READ)?,
        16,
        "the whole cold range was submitted"
    );
    assert_eq!(stats.get(keys::VM_FAULTS), 1, "one absent run, one fault");
    let mut bytes = vec![0u8; 16 * PAGE as usize];
    task.read_memory(addr, &mut bytes)?;
    assert_eq!(
        stats.get(keys::VM_FAULTS),
        1,
        "every page was already mapped"
    );
    assert_eq!(bytes, pattern(0, 16 * PAGE));
    // Warm: nothing to submit, nothing charged.
    let now = kernel.machine().clock.now_ns();
    assert_eq!(task.map().fault_ahead(addr, 16 * PAGE, VmProt::READ)?, 0);
    assert_eq!(kernel.machine().clock.now_ns(), now);
    Ok(())
}

#[test]
fn fault_ahead_respects_copy_on_write() -> Result<(), VmError> {
    let (kernel, _mgr, task, addr) = mapped_16(true)?;
    let (stats, phys, pmap) = (&kernel.machine().stats, kernel.phys(), task.map().pmap());
    let vpns = (addr / PAGE)..(addr / PAGE + 16);
    let source = task.vm_regions()[0].object;

    // Reads of a region that still needs its copy map read-only.
    assert_eq!(task.map().fault_ahead(addr, 16 * PAGE, VmProt::READ)?, 16);
    for vpn in vpns.clone() {
        assert!(pmap.translate(vpn, VmProt::READ).is_some());
        assert!(
            pmap.translate(vpn, VmProt::WRITE).is_none(),
            "vpn {vpn} writable before its copy"
        );
    }

    // The write variant pushes every page into the shadow, dirty and
    // mapped writable — and the write behind it takes no further fault.
    assert_eq!(task.map().fault_ahead(addr, 16 * PAGE, VmProt::WRITE)?, 16);
    let region = &task.vm_regions()[0];
    assert!(!region.needs_copy);
    assert_ne!(region.object, source, "writes landed in a shadow object");
    for (i, vpn) in vpns.enumerate() {
        assert!(pmap.translate(vpn, VmProt::WRITE).is_some());
        assert_eq!(phys.page_dirty(region.object, i as u64 * PAGE), Some(true));
        assert_eq!(
            phys.page_dirty(source, i as u64 * PAGE),
            Some(false),
            "source page {i} untouched"
        );
    }
    let faults = stats.get(keys::VM_FAULTS);
    task.write_memory(addr, &vec![0xEE; 16 * PAGE as usize])?;
    assert_eq!(stats.get(keys::VM_FAULTS), faults);
    assert_eq!(stats.get(keys::VM_COW_COPIES), 16);
    Ok(())
}

/// Polls `done` (a few ms apart) until it holds; panics after ten seconds.
fn eventually(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = machsim::wall::Deadline::after(Duration::from_secs(10));
    while !done() {
        assert!(
            deadline.remaining().is_some(),
            "timed out waiting for {what}"
        );
        machsim::wall::sleep(Duration::from_millis(2));
    }
}

#[test]
fn flood_pager_burst_ends_with_the_census_at_baseline() -> Result<(), VmError> {
    let kernel = Kernel::boot(KernelConfig {
        memory_bytes: 256 * PAGE as usize,
        ..KernelConfig::default()
    });
    let baseline = kernel.phys().frame_census();
    {
        let task = Task::create(&kernel, "victim");
        // Every request is answered with eight times the pages asked for:
        // unsolicited runs overlapping resident pages, pending fills and
        // (at the end) offsets past the object.
        let mgr = spawn_manager(kernel.machine(), "flood", FloodPager { burst_pages: 8 });
        let addr = task.vm_allocate_with_pager(None, 128 * PAGE, mgr.port(), 0)?;
        let mut b = [0u8; 1];
        for page in (0..128).step_by(5) {
            task.read_memory(addr + page * PAGE, &mut b)?;
            assert_eq!(b[0], 0xFF);
        }
        assert!(kernel.machine().stats.get(keys::VM_PAGES_STOLEN) > 0);
        // A fault resumes at its own page, or at a page an earlier burst
        // brought: the rest of its burst, or its whole request, may still
        // be in flight. The object goes away under it: what arrives late
        // installs nothing.
        task.vm_deallocate(addr, 128 * PAGE)?;
    }
    eventually("the object's frames to come back", || {
        kernel.phys().frame_census() == baseline
    });
    kernel.phys().check_invariants();
    Ok(())
}

/// Answers the first request only after sending the kernel a burst of
/// truncated Table 3-6 messages on its request port.
struct MalformedThenHonest {
    sent_garbage: bool,
}

impl DataManager for MalformedThenHonest {
    fn data_request(&mut self, k: &KernelConn, object: u64, offset: u64, length: u64, _a: VmProt) {
        if !self.sent_garbage {
            self.sent_garbage = true;
            let page = || MsgItem::OutOfLine(OolBuffer::from_vec(vec![1; PAGE as usize]));
            for msg in [
                Message::new(proto::PAGER_DATA_PROVIDED).with(page()),
                Message::new(proto::PAGER_DATA_PROVIDED)
                    .with(MsgItem::u64s(&[object, offset]))
                    .with(page()),
                Message::new(proto::PAGER_DATA_LOCK).with(MsgItem::u64s(&[object, offset, length])),
                // Unassigned inside Table 3-6's range (an old manager's
                // laundry release): whatever it carries, it is dropped.
                Message::new(0x2306).with(MsgItem::u64s(&[object, PAGE])),
                Message::new(proto::PAGER_DATA_UNAVAILABLE).with(MsgItem::bytes(vec![0; 24])),
                // Well-formed words, but no data: not a supply.
                Message::new(proto::PAGER_DATA_PROVIDED).with(MsgItem::u64s(&[object, offset, 0])),
            ] {
                k.request_port()
                    .send(msg, Some(Duration::from_secs(5)))
                    .expect("the request port accepts anything");
            }
        }
        k.data_provided(
            object,
            offset,
            OolBuffer::from_vec(pattern(offset, length)),
            VmProt::NONE,
        );
    }
}

#[test]
fn short_bodied_pager_messages_are_dropped_not_fatal() -> Result<(), VmError> {
    let kernel = Kernel::boot(KernelConfig::default());
    let mgr = spawn_manager(
        kernel.machine(),
        "malformed",
        MalformedThenHonest {
            sent_garbage: false,
        },
    );
    let task = Task::create(&kernel, "victim");
    // A request port that stopped applying calls would otherwise hang the
    // fault forever.
    task.map()
        .set_fault_policy(FaultPolicy::abort_after(Duration::from_secs(5)).with_cluster(8));
    let addr = task.vm_allocate_with_pager(None, 16 * PAGE, mgr.port(), 0)?;
    let mut b = [0u8; 4];
    task.read_memory(addr, &mut b)?;
    assert_eq!(b[..], pattern(0, 4)[..]);
    let stats = &kernel.machine().stats;
    assert_eq!(stats.get(keys::EMM_MALFORMED_DROPPED), 6);
    // The request port still applies the next, ordinary fault's reply.
    task.read_memory(addr + 8 * PAGE, &mut b)?;
    assert_eq!(b[..], pattern(8 * PAGE, 4)[..]);
    assert_eq!(stats.get(keys::WATCHDOG_STALLS), 0);
    Ok(())
}

/// Answers nothing, and keeps the connection of the kernel that mapped it.
struct Keeper(Arc<Mutex<Option<KernelConn>>>);

impl DataManager for Keeper {
    fn init(&mut self, k: &KernelConn, _object: u64) {
        *self.0.lock().expect("connection") = Some(k.clone());
    }

    fn data_request(&mut self, _k: &KernelConn, _o: u64, _off: u64, _l: u64, _a: VmProt) {}
}

/// A request port is a kernel port: `pager_data_provided` is applied on
/// the thread that sends it, so the page is resident the moment the send
/// returns — no service thread to wait for.
#[test]
fn a_page_is_resident_when_data_provided_returns() {
    const PAGES: u64 = 64;
    let kernel = Kernel::boot(KernelConfig::default());
    let conn = Arc::new(Mutex::new(None));
    let mgr = spawn_manager(kernel.machine(), "keeper", Keeper(conn.clone()));
    let object = kernel.object_for_port(mgr.port(), PAGES * PAGE);
    eventually("pager_init", || conn.lock().expect("connection").is_some());
    let conn = conn.lock().expect("connection").clone();
    let conn = conn.expect("init ran");

    for offset in (0..PAGES).map(|page| page * PAGE) {
        let data = OolBuffer::from_vec(pattern(offset, PAGE));
        conn.data_provided(object.id().0, offset, data, VmProt::NONE);
        assert!(
            matches!(
                kernel.phys().lookup(object.id(), offset),
                PageLookup::Resident { .. }
            ),
            "the supply at {offset:#x} was applied before its send returned"
        );
    }
}

/// An in-kernel pager that tells the test a request has arrived and then
/// holds its `pager_data_provided` until the test lets it go. (The reply
/// comes from a thread of its own, which resumes any fault still parked
/// on it: requests are made on the faulting thread — here the test's —
/// which must not block on its own reply.)
struct GatedPager {
    phys: Arc<PhysicalMemory>,
    object: OnceLock<Arc<VmObject>>,
    asked: mpsc::Sender<()>,
    gate: Mutex<Option<mpsc::Receiver<()>>>,
    /// Pages each reply installed.
    replied: mpsc::Sender<Result<usize, VmError>>,
}

impl PagerBackend for GatedPager {
    fn supports_cluster(&self) -> bool {
        true
    }

    fn data_request(&self, _object: ObjectId, offset: u64, length: u64, _access: VmProt) {
        let gate = self.gate.lock().expect("gate lock").take();
        let gate = gate.expect("one request");
        let object = self.object.get().expect("attached").clone();
        let (phys, replied) = (self.phys.clone(), self.replied.clone());
        std::thread::spawn(move || {
            gate.recv().expect("the test opens the gate");
            let data = OolBuffer::from_vec(pattern(offset, length));
            let installed = phys.supply_page(&object, offset, data, VmProt::NONE);
            replied.send(installed).expect("the test is listening");
        });
        self.asked.send(()).expect("the test is listening");
    }

    fn data_write(&self, _object: ObjectId, _offset: u64, _data: OolBuffer) {}

    fn data_unlock(&self, _object: ObjectId, _offset: u64, _length: u64, _access: VmProt) {}
}

#[test]
fn a_reply_that_arrives_after_its_object_died_installs_nothing() -> Result<(), VmError> {
    let m = Machine::default_machine();
    let phys = PhysicalMemory::new(&m, 64 * PAGE as usize, PAGE as usize, 4);
    let baseline = phys.frame_census();
    let (asked, was_asked) = mpsc::channel();
    let (open, gate) = mpsc::channel();
    let (replied, reply) = mpsc::channel();
    let pager = Arc::new(GatedPager {
        phys: phys.clone(),
        object: OnceLock::new(),
        asked,
        gate: Mutex::new(Some(gate)),
        replied,
    });
    let object = VmObject::new_with_pager(16 * PAGE, pager.clone());
    pager.object.set(object.clone()).expect("attached once");

    // A 16-page run parks on its one request, which the pager now holds.
    let policy = FaultPolicy::trusting().with_cluster(16);
    let ticket = phys
        .fault_engine()
        .submit_run(&object, 0, 16, VmProt::READ, policy);
    was_asked.recv().expect("the request reached the pager");
    assert_eq!(phys.frame_census().pending, 16);

    // The object is terminated under the request, as `vm_deallocate` of
    // its last mapping does it: the parked fault learns of it at once.
    object.mark_terminated();
    phys.release_object(&object, false);
    assert_eq!(ticket.wait_run().unwrap_err(), VmError::ObjectDestroyed);

    // Only now does `pager_data_provided` arrive, sixteen pages of it.
    open.send(()).expect("the pager is waiting");
    assert_eq!(reply.recv().expect("the pager replied"), Ok(0));
    assert_eq!(phys.frame_census(), baseline);
    assert_eq!(phys.data_unavailable(&object, 0, 16 * PAGE), Ok(0));
    assert_eq!(phys.frame_census(), baseline);
    phys.check_invariants();
    Ok(())
}
