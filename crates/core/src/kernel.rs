//! The Mach kernel of one host: physical memory, the external memory
//! management service, and the default pager.
//!
//! "The Mach kernel can itself be considered a task with multiple threads
//! of control. The kernel task acts as a server which in turn implements
//! tasks and threads." Here the kernel's visible thread is the EMM service
//! loop: it holds the receive rights of every pager request port and name
//! port, and turns the data-manager → kernel protocol messages (Table 3-6)
//! into operations on the resident page cache.

use crate::backend::IpcPagerBackend;
use crate::default_pager::DefaultPager;
use crate::introspect::{
    HostStatistics, TaskInfo, TaskInfoReply, TraceQueryReply, VmStatisticsSnapshot,
};
use crate::manager::{spawn_manager, ManagerHandle};
use crate::proto;
use machipc::{Message, MsgItem, PortId, PortSpace, SendRight};
use machsim::stats::keys as stat_keys;
use machsim::{CorrelationId, CostModel, EventKind, Machine};
use machstorage::{BlockDevice, BLOCK_SIZE};
use machvm::{
    FaultEngine, FaultEngineConfig, FaultPolicy, NumaConfig, ObjectId, PagerBackend,
    PhysicalMemory, VmMap, VmObject, VmProt,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

/// Messages the kernel service and host loops drain per batched receive.
const KERNEL_SERVICE_BATCH: usize = 32;

/// Boot-time kernel parameters.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Physical memory size in bytes.
    pub memory_bytes: usize,
    /// System page size ("a boot time parameter").
    pub page_size: usize,
    /// Frames reserved for the pageout path (Section 6.2.3).
    pub reserve_pages: usize,
    /// Size of the default pager's paging partition, in blocks.
    pub paging_blocks: usize,
    /// Machine cost model.
    pub cost: CostModel,
    /// Default fault policy for new tasks.
    pub fault_policy: FaultPolicy,
    /// Outstanding-laundry bytes a data manager may hold before pageouts
    /// divert to the default pager (Section 6.2.2 starvation protection).
    pub laundry_limit: u64,
    /// Whether to run the background pageout daemon that keeps the free
    /// queue primed (Section 5.4's queue maintenance).
    pub pageout_daemon: bool,
    /// Whether to run the stall watchdog that flags in-flight causal
    /// chains (faults awaiting `pager_data_provided`) that stop making
    /// progress.
    pub watchdog: bool,
    /// Simulated time an in-flight chain may age before the watchdog
    /// declares it stalled.
    pub watchdog_stall_ns: u64,
    /// NUMA memory placement: node count and policies (single node, no
    /// policies by default).
    pub numa: NumaConfig,
    /// Bound on simultaneously parked fault continuations (the
    /// outstanding-fault budget); submitters briefly block when full.
    pub fault_table_capacity: usize,
    /// Per-pager cap on requested-but-unanswered pages; request runs
    /// beyond it are deferred inside the kernel until completions drain.
    pub pager_inflight_pages: usize,
    /// Simulated CPU count for the `machsched` scheduler: per-CPU run
    /// queues with randomized work stealing and NUMA-affine placement.
    pub sched_cpus: usize,
    /// Sim-time slice after which a yielding unit is preempted and
    /// re-queued (charged the syscall cost as the context-switch price).
    pub sched_time_slice_ns: u64,
}

/// Default read-fault cluster size, in pages: one `pager_data_request`
/// covers up to this many contiguous absent pages when the manager is
/// cluster-capable (every IPC-attached manager is — see
/// [`IpcPagerBackend`]). Matches real Mach's cluster paging.
pub const DEFAULT_CLUSTER_PAGES: usize = 8;

/// Default simulated-time stall threshold for the watchdog (200 ms — two
/// orders of magnitude beyond a disk-backed fault chain in the default
/// cost model).
pub const DEFAULT_WATCHDOG_STALL_NS: u64 = 200_000_000;

/// Default scheduler time slice (2 ms of simulated time — two orders of
/// magnitude above the syscall cost, well under a disk access).
pub const DEFAULT_TIME_SLICE_NS: u64 = 2_000_000;

/// How far above its low watermark one pageout-daemon sweep refills the
/// free queue, in pages. The allocation that crosses the mark wakes the
/// daemon, so the cushion against inline reclaim is the watermark itself
/// and the burst only amortises the wake-up; a sweep's simulated cost
/// lands on whichever fault is in progress, so a long one is that fault's
/// latency spike (Mach keeps `free_target` a few pages over `free_min`).
const PAGEOUT_BURST_PAGES: usize = 8;

/// Watchdog poll interval (wall clock).
const WATCHDOG_POLL: std::time::Duration = std::time::Duration::from_millis(5);

/// Consecutive watchdog scans an in-flight chain must survive before the
/// sim-clock deadline is even considered (~300 ms of wall time). The
/// debounce is what makes the watchdog sound on a *shared* simulated
/// clock: a busy host charges everyone's work to one clock, so sim-elapsed
/// alone would flag healthy faults on loaded hosts, while a wedged host's
/// clock stops advancing and would never cross the deadline at all.
/// Healthy fault chains resolve in wall-microseconds; only a genuinely
/// blocked chain is still in the table after this many scans.
const WATCHDOG_MIN_SCANS: u32 = 60;

/// Trace-ring tail length included in a watchdog black-box report.
const BLACK_BOX_EVENTS: usize = 32;

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            memory_bytes: 4 << 20,
            page_size: BLOCK_SIZE,
            reserve_pages: 16,
            paging_blocks: 4096,
            cost: CostModel::default(),
            fault_policy: FaultPolicy::trusting().with_cluster(DEFAULT_CLUSTER_PAGES),
            laundry_limit: crate::backend::DEFAULT_LAUNDRY_LIMIT,
            pageout_daemon: true,
            watchdog: true,
            watchdog_stall_ns: DEFAULT_WATCHDOG_STALL_NS,
            numa: NumaConfig::single(),
            fault_table_capacity: 4096,
            pager_inflight_pages: 1024,
            sched_cpus: 4,
            sched_time_slice_ns: DEFAULT_TIME_SLICE_NS,
        }
    }
}

impl KernelConfig {
    /// A small-memory kernel, convenient for replacement experiments.
    pub fn with_memory(memory_bytes: usize) -> Self {
        Self {
            memory_bytes,
            ..Self::default()
        }
    }
}

/// The live-task registry behind `host_task_info`: task names with weak
/// references to their address maps, pruned as tasks die.
type TaskRegistry = Arc<Mutex<Vec<(String, Weak<VmMap>)>>>;

/// Object registry shared between API paths and the service loop.
#[derive(Default)]
struct Registry {
    /// By kernel-internal object id (routing for manager → kernel calls).
    by_id: HashMap<u64, Arc<VmObject>>,
    /// By memory object port ("has this port been mapped before?").
    by_port: HashMap<PortId, Arc<VmObject>>,
}

/// One host's Mach kernel.
pub struct Kernel {
    machine: Machine,
    phys: Arc<PhysicalMemory>,
    registry: Arc<Mutex<Registry>>,
    service_space: Arc<PortSpace>,
    control: SendRight,
    default_backend: Arc<IpcPagerBackend>,
    /// The default pager's page table (for its stored-page count).
    paging_table: crate::default_pager::PageTable,
    default_pager_handle: Mutex<Option<ManagerHandle>>,
    service: Mutex<Option<JoinHandle<()>>>,
    daemon: Mutex<Option<JoinHandle<()>>>,
    daemon_stop: Arc<std::sync::atomic::AtomicBool>,
    fault_policy: FaultPolicy,
    laundry_limit: u64,
    host_port: SendRight,
    host_control: SendRight,
    host_service: Mutex<Option<JoinHandle<()>>>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
    watchdog_stop: Arc<std::sync::atomic::AtomicBool>,
    /// The per-CPU run-queue scheduler every task thread runs under.
    scheduler: Arc<machsched::Scheduler>,
    tasks: TaskRegistry,
    /// Round-robin cursor handing each new task a home memory node.
    next_node: std::sync::atomic::AtomicUsize,
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Kernel(mem={} pages, {} objects)",
            self.phys.total_frames(),
            self.registry.lock().by_id.len()
        )
    }
}

impl Kernel {
    /// Boots a kernel: physical memory, default pager, EMM service loop.
    pub fn boot(config: KernelConfig) -> Arc<Kernel> {
        Self::boot_on(Machine::new(config.cost.clone()), config)
    }

    /// Boots a kernel on an existing machine context (e.g. a fabric host).
    pub fn boot_on(machine: Machine, config: KernelConfig) -> Arc<Kernel> {
        let phys = PhysicalMemory::with_config(
            &machine,
            config.memory_bytes,
            config.page_size,
            config.reserve_pages,
            config.numa,
            FaultEngineConfig {
                capacity: config.fault_table_capacity,
                pager_inflight_pages: config.pager_inflight_pages,
            },
        );
        let registry: Arc<Mutex<Registry>> = Arc::new(Mutex::new(Registry::default()));
        let service_space = Arc::new(PortSpace::new(&machine));

        // Control port for service-loop shutdown.
        let control_name = service_space.port_allocate();
        service_space
            .port_enable(control_name)
            .expect("control port enable");
        let control = service_space
            .send_right(control_name)
            .expect("control port right");

        // The default pager: an ordinary external data manager over a
        // dedicated paging partition.
        let paging_dev = Arc::new(BlockDevice::new(&machine, config.paging_blocks));
        let dp = DefaultPager::new(paging_dev, config.page_size);
        let paging_table = dp.page_table();
        let dp_handle = spawn_manager(&machine, "default", dp);
        let (_, dp_request) = Self::register_request_port(&service_space, &machine);
        // Sender-side depth view of the kernel's EMM request port, for the
        // queue-depth gauge below.
        let dp_request_depth = dp_request.clone();
        let default_backend = IpcPagerBackend::new(
            &machine,
            dp_handle.port().clone(),
            dp_request,
            config.page_size,
            "default-pager",
        );
        phys.set_default_pager(default_backend.clone());
        // Terminated kernel-created objects leave the routing registry and
        // the default pager frees their paging storage.
        {
            let registry = registry.clone();
            default_backend.set_object_terminate_hook(move |object| {
                registry.lock().by_id.remove(&object.0);
            });
        }

        // pager_create: when a temporary object is first paged out, tell
        // the default pager and register the object for supply routing.
        {
            let registry = registry.clone();
            let dp_port = dp_handle.port().clone();
            phys.set_adoption_hook(move |object: &Arc<VmObject>| {
                registry.lock().by_id.insert(object.id().0, object.clone());
                dp_port.send_notification(
                    Message::new(proto::PAGER_CREATE).with(MsgItem::u64s(&[object.id().0])),
                );
            });
        }

        // The host port: kernel introspection served as ordinary IPC, in
        // its own port space so statistics queries never queue behind (or
        // ahead of) EMM protocol traffic.
        let host_space = Arc::new(PortSpace::new(&machine));
        let host_control_name = host_space.port_allocate();
        host_space
            .port_enable(host_control_name)
            .expect("host control port enable");
        let host_control = host_space
            .send_right(host_control_name)
            .expect("host control port right");
        let (_host_name, host_port) = Self::register_request_port(&host_space, &machine);
        let tasks: TaskRegistry = Arc::new(Mutex::new(Vec::new()));

        // A kernel runs its engine's completion loop from boot, not from
        // the first parked fault: the loop's tick is also what samples the
        // gauges below and folds lock contention into `lock.contended`,
        // and an IPC-only kernel must report those too.
        phys.fault_engine().start_worker();

        // Queue-depth and occupancy gauges, sampled once per fault-engine
        // tick and ring-buffered for the Chrome-trace and Prometheus
        // exporters. Closures hold weak references: the registry lives
        // inside the machine, which the physical memory itself references,
        // so a strong capture would leak the whole kernel.
        {
            let weak = Arc::downgrade(&phys);
            machine.gauges.register("gauge.vm.free_frames", move || {
                weak.upgrade().map_or(0, |p| p.free_frames() as u64)
            });
            let weak = Arc::downgrade(&phys);
            machine.gauges.register("gauge.vm.pending_fills", move || {
                weak.upgrade().map_or(0, |p| p.pending_fills() as u64)
            });
            machine
                .gauges
                .register("gauge.ipc.kernel_port_depth", move || {
                    dp_request_depth.queued() as u64
                });
            let weak = Arc::downgrade(&phys);
            machine.gauges.register("gauge.fault.outstanding", move || {
                weak.upgrade()
                    .map_or(0, |p| p.fault_engine().outstanding() as u64)
            });
            let weak = Arc::downgrade(&phys);
            machine
                .gauges
                .register("gauge.pager.inflight_pages", move || {
                    weak.upgrade()
                        .map_or(0, |p| p.fault_engine().inflight_pages() as u64)
                });
            if phys.nodes() > 1 {
                for node in 0..phys.nodes() {
                    let weak = Arc::downgrade(&phys);
                    machine.gauges.register(
                        &format!("gauge.vm.node{node}.free_frames"),
                        move || {
                            weak.upgrade()
                                .map_or(0, |p| p.node_census().get(node).map_or(0, |nc| nc.free))
                        },
                    );
                }
            }
        }

        // The scheduler: one worker thread per simulated CPU, each pinned
        // to its node so a task's faults first-touch local memory.
        let scheduler = machsched::Scheduler::start(
            &machine,
            machsched::SchedConfig {
                cpus: config.sched_cpus.max(1),
                nodes: phys.nodes(),
                time_slice_ns: config.sched_time_slice_ns.max(1),
                pin_node: Some(|node| machvm::numa::set_current_node(Some(node))),
                ..machsched::SchedConfig::default()
            },
        );

        let kernel = Arc::new(Kernel {
            machine: machine.clone(),
            phys: phys.clone(),
            registry: registry.clone(),
            service_space: service_space.clone(),
            control,
            default_backend,
            paging_table,
            default_pager_handle: Mutex::new(Some(dp_handle)),
            service: Mutex::new(None),
            daemon: Mutex::new(None),
            daemon_stop: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            fault_policy: config.fault_policy,
            laundry_limit: config.laundry_limit,
            host_port,
            host_control,
            host_service: Mutex::new(None),
            watchdog: Mutex::new(None),
            watchdog_stop: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            scheduler,
            tasks: tasks.clone(),
            next_node: std::sync::atomic::AtomicUsize::new(0),
        });

        // The host introspection service loop.
        {
            let machine = machine.clone();
            let phys = phys.clone();
            let thread = std::thread::Builder::new()
                .name("kernel-host".into())
                .spawn(move || Self::host_loop(host_space, machine, phys, tasks))
                .expect("spawn kernel host loop");
            *kernel.host_service.lock() = Some(thread);
        }

        // The stall watchdog.
        if config.watchdog {
            let machine = machine.clone();
            let phys = phys.clone();
            let stop = kernel.watchdog_stop.clone();
            let stall_ns = config.watchdog_stall_ns.max(1);
            let thread = std::thread::Builder::new()
                .name("kernel-watchdog".into())
                .spawn(move || Self::watchdog_loop(machine, phys, stop, stall_ns))
                .expect("spawn kernel watchdog");
            *kernel.watchdog.lock() = Some(thread);
        }

        // The EMM service loop.
        let thread = {
            let space = service_space;
            let registry = registry;
            let phys = phys;
            std::thread::Builder::new()
                .name("kernel-emm".into())
                .spawn(move || Self::service_loop(space, registry, phys))
                .expect("spawn kernel service loop")
        };
        *kernel.service.lock() = Some(thread);
        // The pageout daemon: keeps the free queue above a low watermark
        // and the inactive queue primed, so faults rarely reclaim inline.
        // It sleeps until an allocation takes the free queue under the
        // watermark, then refills it one burst past the mark.
        const PATIENCE: std::time::Duration = std::time::Duration::from_millis(5);
        if config.pageout_daemon {
            let phys = kernel.phys.clone();
            let stop = kernel.daemon_stop.clone();
            let machine = kernel.machine.clone();
            let total = phys.total_frames();
            let low_water = (total / 8).max(config.reserve_pages + 4);
            let inactive_target = (low_water * 3 / 2).min(total.saturating_sub(1));
            let free_target = (low_water + PAGEOUT_BURST_PAGES).min(inactive_target);
            let daemon = std::thread::Builder::new()
                .name("pageout-daemon".into())
                .spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        // The patience only bounds how long `stop` goes
                        // unread.
                        if !phys.wait_for_pressure(low_water, PATIENCE) {
                            continue;
                        }
                        phys.balance_queues(inactive_target);
                        let want = free_target.saturating_sub(phys.free_frames());
                        let freed = phys.reclaim_pages(want);
                        machine
                            .stats
                            .add(stat_keys::VM_DAEMON_RECLAIMS, freed as u64);
                        if freed == 0 {
                            // Nothing evictable yet (all referenced, wired
                            // or busy): do not spin on the pressure.
                            machsim::wall::sleep(PATIENCE);
                        }
                    }
                })
                .expect("spawn pageout daemon");
            *kernel.daemon.lock() = Some(daemon);
        }
        kernel
    }

    /// Creates a request (or name) port whose receive right lives in the
    /// kernel service space, enabled for the service loop.
    fn register_request_port(
        space: &Arc<PortSpace>,
        machine: &Machine,
    ) -> (machipc::PortName, SendRight) {
        let (rx, tx) = machipc::ReceiveRight::allocate(machine);
        rx.set_backlog(65536);
        let name = space.insert_receive(rx);
        space.port_enable(name).expect("enable request port");
        let _ = tx;
        let right = space.send_right(name).expect("request port right");
        (name, right)
    }

    fn service_loop(
        space: Arc<PortSpace>,
        registry: Arc<Mutex<Registry>>,
        phys: Arc<PhysicalMemory>,
    ) {
        // Drain pager traffic in batches: under load a kernel supply
        // storm queues many small control messages, and one batched
        // dequeue amortizes the port lock and the receive charge over
        // all of them.
        'service: loop {
            let Ok((_from, batch)) = space.receive_default_many(KERNEL_SERVICE_BATCH, None) else {
                break;
            };
            for mut msg in batch {
                // Batched dequeue adopts only the last message's context;
                // re-adopt per message so every supply joins (and nests
                // under) its own originating fault's chain.
                machsim::trace::set_current_correlation(CorrelationId::from_raw(msg.correlation));
                machsim::trace::set_current_span(msg.span_context());
                let ids: Vec<u64> = msg
                    .body
                    .iter()
                    .find_map(|i| i.as_u64s())
                    .unwrap_or_default();
                let object_of =
                    |id: u64| -> Option<Arc<VmObject>> { registry.lock().by_id.get(&id).cloned() };
                // Any holder of a request-port send right can put anything
                // on this queue: decode by shape, and drop (counted) what is
                // too short instead of indexing past its end.
                match (msg.id, ids.as_slice()) {
                    (proto::PAGER_DATA_PROVIDED, &[object, offset, lock, ..]) => {
                        // Move the buffer out of the message: a page the
                        // manager gave away must reach `supply_page` as the
                        // only handle on it, or it cannot be stolen.
                        let data = msg.body.drain(..).find_map(|i| match i {
                            MsgItem::OutOfLine(data) => Some(data),
                            _ => None,
                        });
                        if let (Some(obj), Some(data)) = (object_of(object), data) {
                            // The dequeue above adopted the message's
                            // correlation id, so the supply (and the
                            // `data_provided` event it emits) joins the
                            // originating fault's chain.
                            let machine = phys.machine();
                            let sp = machine.span_open("pager.reply");
                            let _inside = machsim::trace::SpanScope::enter(sp);
                            machine.trace_event(
                                "kernel.service",
                                machsim::EventKind::Mark("kernel_supply"),
                            );
                            let _ = phys.supply_page(&obj, offset, data, VmProt(lock as u8));
                            machine.span_close("pager.reply", sp);
                        }
                    }
                    (proto::PAGER_DATA_UNAVAILABLE, &[object, offset, size, ..]) => {
                        if let Some(obj) = object_of(object) {
                            let _ = phys.data_unavailable(&obj, offset, size);
                        }
                    }
                    (proto::PAGER_DATA_LOCK, &[object, offset, length, lock, ..]) => {
                        if let Some(obj) = object_of(object) {
                            phys.lock_range(&obj, offset, length, VmProt(lock as u8));
                        }
                    }
                    (proto::PAGER_FLUSH_REQUEST, &[object, offset, length, ..]) => {
                        if let Some(obj) = object_of(object) {
                            phys.flush_range(&obj, offset, length);
                        }
                    }
                    (proto::PAGER_CLEAN_REQUEST, &[object, offset, length, ..]) => {
                        if let Some(obj) = object_of(object) {
                            phys.clean_range(&obj, offset, length);
                        }
                    }
                    (proto::PAGER_CACHE, &[object, may_cache, ..]) => {
                        if let Some(obj) = object_of(object) {
                            obj.set_can_persist(may_cache != 0);
                        }
                    }
                    (proto::PAGER_SET_CLUSTER, &[object, pages, ..]) => {
                        if let Some(obj) = object_of(object) {
                            obj.set_cluster_hint(pages as usize);
                        }
                    }
                    (proto::KERNEL_SHUTDOWN, _) => break 'service,
                    // A Table 3-6 id none of the shapes above matched
                    // (the unassigned 0x2306 among them).
                    (proto::PAGER_DATA_PROVIDED..=proto::PAGER_SET_CLUSTER, _) => {
                        phys.machine().stats.incr(stat_keys::EMM_MALFORMED_DROPPED);
                    }
                    _ => {}
                }
                machipc::slab::recycle(msg);
            }
        }
    }

    /// The introspection service loop: answers host-port queries with
    /// typed snapshots (see `machcore::introspect`).
    fn host_loop(
        space: Arc<PortSpace>,
        machine: Machine,
        phys: Arc<PhysicalMemory>,
        tasks: TaskRegistry,
    ) {
        'host: loop {
            let Ok((_from, batch)) = space.receive_default_many(KERNEL_SERVICE_BATCH, None) else {
                break;
            };
            for msg in batch {
                let reply = match msg.id {
                    proto::HOST_STATISTICS => HostStatistics::capture(&machine).encode(),
                    proto::HOST_VM_STATISTICS => {
                        VmStatisticsSnapshot::capture(&machine, &phys).encode()
                    }
                    proto::HOST_TASK_INFO => {
                        Self::capture_task_info(&machine, &phys, &tasks).encode()
                    }
                    proto::HOST_TRACE_QUERY => {
                        let args = msg
                            .body
                            .iter()
                            .find_map(|i| i.as_u64s())
                            .unwrap_or_default();
                        let correlation = args.first().copied().unwrap_or(0);
                        let max_events = args.get(1).copied().unwrap_or(256);
                        TraceQueryReply::capture(&machine, correlation, max_events).encode()
                    }
                    proto::KERNEL_SHUTDOWN => break 'host,
                    _ => continue,
                };
                if let Some(reply_to) = &msg.reply {
                    // Backlog-exempt: a slow client must not wedge the kernel.
                    reply_to.send_notification(reply);
                }
                machipc::slab::recycle(msg);
            }
        }
    }

    /// Builds the `host_task_info` reply from the live-task registry.
    fn capture_task_info(
        machine: &Machine,
        phys: &PhysicalMemory,
        tasks: &Mutex<Vec<(String, Weak<VmMap>)>>,
    ) -> TaskInfoReply {
        let mut reg = tasks.lock();
        reg.retain(|(_, map)| map.strong_count() > 0);
        let tasks = reg
            .iter()
            .filter_map(|(name, weak)| {
                let map = weak.upgrade()?;
                let regions = map.regions();
                let mut objects: Vec<ObjectId> = regions.iter().map(|r| r.object).collect();
                objects.sort_unstable();
                objects.dedup();
                Some(TaskInfo {
                    name: name.clone(),
                    regions: regions.len() as u64,
                    virtual_bytes: regions.iter().map(|r| r.size).sum(),
                    resident_pages: objects
                        .iter()
                        .map(|&id| phys.resident_pages_of(id) as u64)
                        .sum(),
                })
            })
            .collect();
        TaskInfoReply {
            host: machine.host().to_string(),
            tasks,
        }
    }

    /// The stall watchdog: scans the in-flight chain table and flags
    /// chains that stop making progress, exactly once per chain.
    ///
    /// Detection is two-stage. First a wall-clock debounce: the chain must
    /// survive [`WATCHDOG_MIN_SCANS`] consecutive scans, which no healthy
    /// fault does (they resolve in wall-microseconds). Then the simulated
    /// deadline: if the debounced chain's host clock has not yet aged past
    /// `stall_ns`, the watchdog advances it there — modeling the hardware
    /// interval timer that fires regardless of how wedged the system is —
    /// and flags the chain on a later scan. Healthy runs stay
    /// deterministic because the advance never happens for them.
    fn watchdog_loop(
        machine: Machine,
        phys: Arc<PhysicalMemory>,
        stop: Arc<std::sync::atomic::AtomicBool>,
        stall_ns: u64,
    ) {
        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
            for chain in machine.flight.tick() {
                if chain.flagged || chain.scans < WATCHDOG_MIN_SCANS {
                    continue;
                }
                let deadline = chain.started_ns.saturating_add(stall_ns);
                if machine.clock.now_ns() < deadline {
                    machine.clock.advance_to(deadline);
                    continue;
                }
                if machine.flight.flag(chain.cid) {
                    machine.stats.incr(stat_keys::WATCHDOG_STALLS);
                    machine.trace_event_with(
                        "watchdog",
                        EventKind::WatchdogStall,
                        CorrelationId::from_raw(chain.cid),
                    );
                    let report = Self::black_box_report(&machine, &phys, &chain, stall_ns);
                    machine.flight.push_report(report);
                }
            }
            machsim::wall::sleep(WATCHDOG_POLL);
        }
    }

    /// Renders the bounded "black box" report for one stalled chain: its
    /// hop timeline, the trace-ring tail, every counter, and the state of
    /// resident memory at flag time.
    fn black_box_report(
        machine: &Machine,
        phys: &PhysicalMemory,
        chain: &machsim::InFlightChain,
        stall_ns: u64,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== watchdog stall: cid#{} ({}) on host {} ==",
            chain.cid,
            chain.actor,
            machine.host()
        );
        let _ = writeln!(
            out,
            "started {} ns, now {} ns, threshold {} ns",
            chain.started_ns,
            machine.clock.now_ns(),
            stall_ns
        );
        out.push_str("-- chain timeline --\n");
        let hops = CorrelationId::from_raw(chain.cid)
            .map(|cid| machine.trace.chain(cid))
            .unwrap_or_default();
        if hops.is_empty() {
            out.push_str("(no trace events recorded for this chain)\n");
        }
        for e in &hops {
            let _ = writeln!(out, "{e}");
        }
        let _ = writeln!(out, "-- last {BLACK_BOX_EVENTS} trace events --");
        let snap = machine.trace.snapshot();
        for e in snap.iter().rev().take(BLACK_BOX_EVENTS).rev() {
            let _ = writeln!(out, "{e}");
        }
        out.push_str("-- counters --\n");
        for (name, value) in machine.stats.snapshot().iter() {
            let _ = writeln!(out, "{name} = {value}");
        }
        out.push_str("-- resident memory --\n");
        let _ = writeln!(out, "{:?}", phys.frame_census());
        if phys.nodes() > 1 {
            for nc in phys.node_census() {
                let _ = writeln!(out, "{nc:?}");
            }
        }
        out
    }

    /// A send right for the kernel's host (introspection) port. Any task —
    /// including one on a remote host holding a proxy for this right — can
    /// query statistics through it.
    pub fn host_port(&self) -> &SendRight {
        &self.host_port
    }

    /// Registers a live task for `host_task_info`. Called by
    /// `Task::create`/`Task::fork`; the registry holds the address map
    /// weakly, so a dropped task disappears from the listing.
    pub fn register_task(&self, name: &str, map: &Arc<VmMap>) {
        // Tasks are scheduled round-robin across memory nodes: the home
        // node is the fallback accessing node for unpinned threads.
        let nodes = self.phys.nodes();
        if nodes > 1 {
            let node = self
                .next_node
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                % nodes;
            map.set_home_node(node);
        }
        // Dropped tasks leave the listing here, not only when it is read:
        // a kernel that forks all day is never asked for it.
        let mut tasks = self.tasks.lock();
        tasks.retain(|(_, map)| map.strong_count() > 0);
        tasks.push((name.to_string(), Arc::downgrade(map)));
    }

    /// Black-box reports filed by the stall watchdog, oldest first.
    pub fn watchdog_reports(&self) -> Vec<String> {
        self.machine.flight.reports()
    }

    /// The machine this kernel runs on.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The kernel's physical memory.
    pub fn phys(&self) -> &Arc<PhysicalMemory> {
        &self.phys
    }

    /// System page size.
    pub fn page_size(&self) -> u64 {
        self.phys.page_size() as u64
    }

    /// Default fault policy applied to new tasks.
    pub fn default_fault_policy(&self) -> FaultPolicy {
        self.fault_policy
    }

    /// The fault engine of this kernel's physical memory.
    pub fn fault_engine(&self) -> &FaultEngine {
        self.phys.fault_engine()
    }

    /// The per-CPU run-queue scheduler task threads run under.
    pub fn scheduler(&self) -> &Arc<machsched::Scheduler> {
        &self.scheduler
    }

    /// The default pager backend (for laundry-overflow fallbacks).
    pub fn default_backend(&self) -> Arc<dyn PagerBackend> {
        self.default_backend.clone()
    }

    /// Pages the default pager currently holds paging storage for.
    pub fn paging_pages_stored(&self) -> usize {
        self.paging_table.lock().len()
    }

    /// Looks up a registered memory object by kernel id.
    pub fn object_by_id(&self, id: ObjectId) -> Option<Arc<VmObject>> {
        self.registry.lock().by_id.get(&id.0).cloned()
    }

    /// Resolves (or creates) the internal memory object for a memory
    /// object port — the kernel half of `vm_allocate_with_pager`.
    ///
    /// "the Mach kernel looks up the given memory object port, attempting
    /// to find an associated internal memory object structure; if none
    /// exists, a new internal structure is created, and the pager_init call
    /// performed."
    pub fn object_for_port(&self, memory_object: &SendRight, size: u64) -> Arc<VmObject> {
        if let Some(obj) = self.registry.lock().by_port.get(&memory_object.id()) {
            return obj.clone();
        }
        // Request and name ports: the kernel holds receive rights on both.
        let (request_name, request) =
            Self::register_request_port(&self.service_space, &self.machine);
        let name_port_name = self.service_space.port_allocate();
        let name_send = self
            .service_space
            .send_right(name_port_name)
            .expect("name port right");
        let backend = IpcPagerBackend::new(
            &self.machine,
            memory_object.clone(),
            request.clone(),
            self.phys.page_size(),
            format!("pager-{}", memory_object.id()),
        );
        let fallback: Arc<dyn PagerBackend> = self.default_backend.clone();
        backend.set_fallback(&fallback);
        backend.set_laundry_limit(self.laundry_limit);
        let object = VmObject::new_with_pager(size, backend.clone());
        // Termination: forget the object and kill the kernel-held ports so
        // the manager sees port death.
        {
            let registry = self.registry.clone();
            let port_id = memory_object.id();
            let object_id = object.id().0;
            let space = self.service_space.clone();
            backend.set_terminate_hook(move || {
                let mut reg = registry.lock();
                reg.by_id.remove(&object_id);
                reg.by_port.remove(&port_id);
                drop(reg);
                // Dropping the kernel's receive rights destroys both ports;
                // the manager is notified through port death (Section 3.4.1:
                // "The data manager receives notification of the destruction
                // of the request and name ports").
                let _ = space.port_deallocate(request_name);
                let _ = space.port_deallocate(name_port_name);
            });
        }
        let mut reg = self.registry.lock();
        reg.by_id.insert(object.id().0, object.clone());
        reg.by_port.insert(memory_object.id(), object.clone());
        drop(reg);
        // pager_init, performed before vm_allocate_with_pager completes.
        memory_object.send_notification(
            Message::new(proto::PAGER_INIT)
                .with(MsgItem::u64s(&[object.id().0]))
                .with(MsgItem::SendRights(vec![request, name_send])),
        );
        object
    }

    /// Number of external memory objects currently known.
    pub fn object_count(&self) -> usize {
        self.registry.lock().by_id.len()
    }
}

/// How long `Kernel::Drop` waits for the scheduler's workers before
/// concluding one is wedged on a fault ticket that will never resolve.
const SHUTDOWN_QUIESCE: std::time::Duration = std::time::Duration::from_millis(500);

/// Re-check window after each parked-fault drain during teardown.
const SHUTDOWN_RETRY: std::time::Duration = std::time::Duration::from_millis(250);

/// Drain attempts before giving up and detaching the wedged worker (a
/// task body can submit at most a handful of back-to-back faults between
/// drains; anything still stuck after this is not a fault-ticket wait).
const SHUTDOWN_DRAIN_ROUNDS: usize = 4;

impl Drop for Kernel {
    fn drop(&mut self) {
        // Stop the scheduler first: dispatched task bodies may be waiting
        // on fault tickets, so the fault engine and the EMM service loop
        // must outlive every worker. The wait is bounded — a body blocked
        // on a fault whose pager never answers (and whose policy carries
        // no timeout) would wedge the join forever, so after the quiesce
        // window the engine errors every parked fault (each ticket
        // fulfills with ObjectDestroyed, unblocking its worker) and the
        // join proceeds.
        let mut quiesced = self.scheduler.quiesce(SHUTDOWN_QUIESCE);
        for _ in 0..SHUTDOWN_DRAIN_ROUNDS {
            if quiesced {
                break;
            }
            self.phys.fault_engine().drain_parked();
            quiesced = self.scheduler.quiesce(SHUTDOWN_RETRY);
        }
        if quiesced {
            self.scheduler.shutdown();
        } else {
            // Not a fault-ticket wait, or one the drain could not break:
            // leaking the wedged worker beats wedging the whole teardown.
            self.scheduler.detach_workers();
        }
        self.watchdog_stop
            .store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(t) = self.watchdog.lock().take() {
            let _ = t.join();
        }
        // Stop the fault engine before the service loop: its drain errors
        // every parked fault (waking their tickets), and a late submission
        // that would have to wait gets the same error instead of parking.
        let engine = self.phys.fault_engine();
        engine.shutdown();
        debug_assert_eq!(
            engine.outstanding(),
            0,
            "fault engine still holds parked continuations after its shutdown drain"
        );
        self.daemon_stop
            .store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(t) = self.daemon.lock().take() {
            let _ = t.join();
        }
        self.host_control
            .send_notification(Message::new(proto::KERNEL_SHUTDOWN));
        if let Some(t) = self.host_service.lock().take() {
            let _ = t.join();
        }
        self.control
            .send_notification(Message::new(proto::KERNEL_SHUTDOWN));
        if let Some(t) = self.service.lock().take() {
            let _ = t.join();
        }
        // Shut the default pager down after the service loop.
        self.default_pager_handle.lock().take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{DataManager, KernelConn};
    use machipc::OolBuffer;
    use machvm::VmMap;
    use std::time::Duration;

    struct FillPager(u8);

    impl DataManager for FillPager {
        fn data_request(
            &mut self,
            kernel: &KernelConn,
            object: u64,
            offset: u64,
            length: u64,
            _access: VmProt,
        ) {
            kernel.data_provided(
                object,
                offset,
                OolBuffer::from_vec(vec![self.0; length as usize]),
                VmProt::NONE,
            );
        }
    }

    #[test]
    fn boot_and_shutdown() {
        let k = Kernel::boot(KernelConfig::default());
        assert_eq!(k.page_size(), 4096);
        drop(k); // Must not hang.
    }

    #[test]
    fn dropped_tasks_leave_the_registry_without_a_query() {
        let k = Kernel::boot(KernelConfig::default());
        for _ in 0..100 {
            k.register_task("short-lived", &VmMap::new(k.phys()));
        }
        // Each registration sweeps out the tasks dropped before it.
        assert_eq!(k.tasks.lock().len(), 1);
    }

    #[test]
    fn drop_unwedges_worker_blocked_on_silent_pager() {
        use std::sync::atomic::{AtomicBool, Ordering};

        // A pager that never answers: with the default trusting policy
        // (pager_timeout: None) the fault parks forever, and the worker
        // dispatching the task body blocks forever in FaultTicket::wait.
        // Kernel::Drop used to join that worker before stopping the fault
        // engine — a permanent wedge; now the bounded quiesce times out,
        // drain_parked errors the ticket, and teardown completes.
        struct SilentPager;
        impl DataManager for SilentPager {
            fn data_request(&mut self, _k: &KernelConn, _o: u64, _off: u64, _l: u64, _a: VmProt) {}
        }

        let k = Kernel::boot(KernelConfig::default());
        let mgr = spawn_manager(k.machine(), "silent", SilentPager);
        let object = k.object_for_port(mgr.port(), 1 << 20);
        let map = Arc::new(VmMap::new(k.phys()));
        let addr = map
            .allocate_with_object(None, 1 << 20, object, 0, false)
            .expect("allocate against the silent pager");

        let body_map = map.clone();
        let _task = k.scheduler().spawn(0, move || {
            let mut buf = [0u8; 8];
            // Errors with ObjectDestroyed once the teardown drain runs.
            let _ = body_map.access_read(addr, &mut buf);
        });

        // The fault must actually park before we start tearing down.
        let phys = k.phys().clone();
        assert!(
            machsim::wall::poll_until(Duration::from_secs(5), Duration::from_millis(1), || phys
                .fault_engine()
                .outstanding()
                > 0),
            "fault against the silent pager never parked"
        );

        let done = Arc::new(AtomicBool::new(false));
        let done2 = done.clone();
        let dropper = std::thread::spawn(move || {
            drop(k);
            done2.store(true, Ordering::Release);
        });
        assert!(
            machsim::wall::poll_until(Duration::from_secs(10), Duration::from_millis(5), || done
                .load(Ordering::Acquire)),
            "Kernel::drop wedged behind the silent-pager fault"
        );
        dropper.join().expect("dropper thread");
    }

    #[test]
    fn external_pager_round_trip_through_real_ipc() {
        let k = Kernel::boot(KernelConfig::default());
        let mgr = spawn_manager(k.machine(), "fill", FillPager(0x5A));
        let object = k.object_for_port(mgr.port(), 1 << 20);
        let map = VmMap::new(k.phys());
        let addr = map
            .allocate_with_object(None, 1 << 20, object, 0, false)
            .unwrap();
        let mut buf = [0u8; 64];
        map.access_read(addr + 8192, &mut buf).unwrap();
        assert_eq!(buf, [0x5A; 64]);
    }

    #[test]
    fn mapping_same_port_twice_reuses_object() {
        let k = Kernel::boot(KernelConfig::default());
        let mgr = spawn_manager(k.machine(), "fill", FillPager(1));
        let a = k.object_for_port(mgr.port(), 4096);
        let b = k.object_for_port(mgr.port(), 4096);
        assert_eq!(a.id(), b.id());
        assert_eq!(k.object_count(), 1);
    }

    #[test]
    fn pager_init_is_sent_on_first_map() {
        struct InitWatch(Arc<Mutex<Vec<u64>>>);
        impl DataManager for InitWatch {
            fn init(&mut self, _k: &KernelConn, object: u64) {
                self.0.lock().push(object);
            }
            fn data_request(&mut self, _k: &KernelConn, _o: u64, _off: u64, _l: u64, _a: VmProt) {}
        }
        let k = Kernel::boot(KernelConfig::default());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mgr = spawn_manager(k.machine(), "watch", InitWatch(seen.clone()));
        let object = k.object_for_port(mgr.port(), 4096);
        machsim::wall::sleep(Duration::from_millis(50));
        assert_eq!(seen.lock().as_slice(), &[object.id().0]);
    }

    #[test]
    fn unmap_terminates_object_and_notifies_manager() {
        struct DetachWatch(Arc<Mutex<u32>>);
        impl DataManager for DetachWatch {
            fn data_request(&mut self, _k: &KernelConn, _o: u64, _off: u64, _l: u64, _a: VmProt) {}
            fn kernel_detached(&mut self, _p: u64) {
                *self.0.lock() += 1;
            }
        }
        let k = Kernel::boot(KernelConfig::default());
        let detached = Arc::new(Mutex::new(0));
        let mgr = spawn_manager(k.machine(), "detach", DetachWatch(detached.clone()));
        let object = k.object_for_port(mgr.port(), 4096);
        let map = VmMap::new(k.phys());
        let addr = map
            .allocate_with_object(None, 4096, object, 0, false)
            .unwrap();
        assert_eq!(k.object_count(), 1);
        map.deallocate(addr, 4096).unwrap();
        assert_eq!(k.object_count(), 0);
        machsim::wall::sleep(Duration::from_millis(50));
        assert!(*detached.lock() >= 1, "manager saw request port death");
    }

    #[test]
    fn anonymous_memory_survives_eviction_via_default_pager() {
        // Small memory so writes force pageout through the default pager,
        // then read everything back — the full §6.2.2 loop over real IPC.
        let k = Kernel::boot(KernelConfig {
            memory_bytes: 16 * 4096,
            reserve_pages: 4,
            ..KernelConfig::default()
        });
        let map = VmMap::new(k.phys());
        let pages = 32u64;
        let addr = map.allocate(None, pages * 4096).unwrap();
        for i in 0..pages {
            map.access_write(addr + i * 4096, &[i as u8 + 1]).unwrap();
        }
        // Everything cannot be resident; re-read and verify contents.
        for i in 0..pages {
            let mut b = [0u8; 1];
            map.access_read(addr + i * 4096, &mut b).unwrap();
            assert_eq!(b[0], i as u8 + 1, "page {i} round-tripped");
        }
        assert!(k.machine().stats.get(machsim::stats::keys::VM_PAGEOUTS) > 0);
        assert!(k.machine().stats.get(machsim::stats::keys::DISK_WRITES) > 0);
    }

    #[test]
    fn pageout_daemon_keeps_the_free_queue_primed() {
        // Fill memory with resident pages and stop touching them: the
        // daemon must bring the free queue back above its low watermark
        // without any allocation forcing inline reclaim.
        let k = Kernel::boot(KernelConfig {
            memory_bytes: 64 * 4096, // low watermark = 8 frames
            reserve_pages: 4,
            ..KernelConfig::default()
        });
        let map = VmMap::new(k.phys());
        let pages = 58u64;
        let addr = map.allocate(None, pages * 4096).unwrap();
        for i in 0..pages {
            map.access_write(addr + i * 4096, &[1]).unwrap();
        }
        // (The daemon counts a sweep after the frames are already free.)
        let reclaims = || {
            k.machine()
                .stats
                .get(machsim::stats::keys::VM_DAEMON_RECLAIMS)
        };
        let deadline = machsim::wall::Deadline::after(Duration::from_secs(5));
        while k.phys().free_frames() < 8 || reclaims() == 0 {
            assert!(
                !deadline.expired(),
                "daemon never refilled the free queue: {} free, {} reclaimed",
                k.phys().free_frames(),
                reclaims()
            );
            machsim::wall::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn paging_storage_is_reclaimed_after_object_termination() {
        // A tiny paging partition (32 blocks) must survive many cycles of
        // allocate / dirty / evict / deallocate, because termination frees
        // the default pager's storage. Without PAGER_TERMINATE handling
        // this would exhaust the partition and count partition_full events.
        let k = Kernel::boot(KernelConfig {
            memory_bytes: 12 * 4096,
            reserve_pages: 4,
            paging_blocks: 32,
            ..KernelConfig::default()
        });
        let map = VmMap::new(k.phys());
        for cycle in 0..8 {
            let pages = 24u64; // More than fits in memory: forces pageout.
            let addr = map.allocate(None, pages * 4096).unwrap();
            for i in 0..pages {
                map.access_write(addr + i * 4096, &[cycle as u8]).unwrap();
            }
            map.deallocate(addr, pages * 4096).unwrap();
            // Let the termination message drain before the next cycle.
            machsim::wall::sleep(Duration::from_millis(30));
        }
        assert!(
            k.machine().stats.get(machsim::stats::keys::VM_PAGEOUTS) > 0,
            "pressure produced pageouts"
        );
        assert_eq!(
            k.machine()
                .stats
                .get(machsim::stats::keys::DEFAULT_PAGER_PARTITION_FULL),
            0,
            "paging storage was recycled across cycles"
        );
    }

    #[test]
    fn boot_with_eight_kilobyte_pages() {
        // "The system page size is a boot time parameter and can be any
        // multiple of the hardware page size."
        let k = Kernel::boot(KernelConfig {
            page_size: 8192,
            memory_bytes: 32 * 8192,
            reserve_pages: 4,
            ..KernelConfig::default()
        });
        assert_eq!(k.page_size(), 8192);
        let map = VmMap::new(k.phys());
        // Anonymous memory works with pageout through the default pager.
        let pages = 64u64;
        let addr = map.allocate(None, pages * 8192).unwrap();
        for i in 0..pages {
            map.access_write(addr + i * 8192, &[i as u8]).unwrap();
        }
        for i in 0..pages {
            let mut b = [0u8; 1];
            map.access_read(addr + i * 8192, &mut b).unwrap();
            assert_eq!(b[0], i as u8);
        }
        // An external pager also sees 8K requests.
        let mgr = spawn_manager(k.machine(), "fill8k", FillPager(0x8F));
        let object = k.object_for_port(mgr.port(), 8 * 8192);
        let addr2 = map
            .allocate_with_object(None, 8 * 8192, object, 0, false)
            .unwrap();
        let mut b = [0u8; 1];
        map.access_read(addr2 + 8192, &mut b).unwrap();
        assert_eq!(b[0], 0x8F);
    }

    #[test]
    fn flush_request_from_manager_invalidates_cache() {
        struct FlushPager {
            conn: Arc<Mutex<Option<(KernelConn, u64)>>>,
        }
        impl DataManager for FlushPager {
            fn init(&mut self, kernel: &KernelConn, object: u64) {
                *self.conn.lock() = Some((kernel.clone(), object));
            }
            fn data_request(
                &mut self,
                kernel: &KernelConn,
                object: u64,
                offset: u64,
                length: u64,
                _a: VmProt,
            ) {
                kernel.data_provided(
                    object,
                    offset,
                    OolBuffer::from_vec(vec![1; length as usize]),
                    VmProt::NONE,
                );
            }
        }
        let k = Kernel::boot(KernelConfig::default());
        let conn = Arc::new(Mutex::new(None));
        let mgr = spawn_manager(k.machine(), "flush", FlushPager { conn: conn.clone() });
        let object = k.object_for_port(mgr.port(), 1 << 20);
        let map = VmMap::new(k.phys());
        let addr = map
            .allocate_with_object(None, 1 << 20, object.clone(), 0, false)
            .unwrap();
        let mut b = [0u8; 1];
        map.access_read(addr, &mut b).unwrap();
        assert_eq!(k.phys().resident_pages_of(object.id()), 1);
        // The manager flushes its object through the kernel service loop.
        let (kc, oid) = conn.lock().clone().expect("init ran");
        kc.flush_request(oid, 0, 4096);
        machsim::wall::sleep(Duration::from_millis(100));
        assert_eq!(k.phys().resident_pages_of(object.id()), 0);
    }
}
