//! The Mach kernel of one host: physical memory, the external memory
//! management service, and the default pager.
//!
//! "The Mach kernel can itself be considered a task with multiple threads
//! of control. The kernel task acts as a server which in turn implements
//! tasks and threads." Here the kernel holds the receive rights of the host
//! port and of every pager request and name port, and serves the host port
//! and each request port as a kernel port: a host query, or a data-manager
//! → kernel protocol message (Table 3-6) on the resident page cache, is
//! performed on the thread that sends it, as Mach's `ipc_kobject_server`
//! runs inside `msg_send`. No kernel object has a service thread.

use crate::backend::IpcPagerBackend;
use crate::default_pager::DefaultPager;
use crate::introspect::{
    HostStatistics, TaskInfo, TaskInfoReply, TraceQueryReply, VmStatisticsSnapshot,
};
use crate::manager::{spawn_manager, ManagerHandle};
use crate::proto::{HostRequest, KernelToManager, ManagerToKernel, Parts};
use machipc::{Message, PortId, PortName, PortSpace, ReceiveRight, SendRight, MSG_ID_PORT_DEATH};
use machsim::stats::keys as stat_keys;
use machsim::{CorrelationId, CostModel, EventKind, Machine};
use machstorage::{BlockDevice, BLOCK_SIZE};
use machvm::{
    FaultEngine, FaultEngineConfig, FaultPolicy, NumaConfig, ObjectId, PagerBackend,
    PhysicalMemory, VmMap, VmObject,
};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Weak};
use std::time::Duration;

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
    /// Simulated time a parked fault may age before the watchdog declares
    /// it stalled.
    pub watchdog_stall_ns: u64,
    /// NUMA memory placement: node count and policies (single node, no
    /// policies by default).
    pub numa: NumaConfig,
    /// Bound on simultaneously parked fault continuations (the
    /// outstanding-fault budget); submitters briefly block when full.
    pub fault_table_capacity: usize,
    /// Simulated CPU count for the `machsched` scheduler: per-CPU run
    /// queues with randomized work stealing and NUMA-affine placement.
    pub sched_cpus: usize,
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

/// The scheduler's time slice: a yielding unit is preempted and re-queued
/// after 2 ms of simulated time (two orders of magnitude above the
/// syscall cost it is charged as the context-switch price, well under a
/// disk access).
pub const DEFAULT_TIME_SLICE_NS: u64 = 2_000_000;

/// How far above its low watermark one pageout sweep refills the free
/// queue, in pages. The allocation that crosses the mark sweeps before it
/// returns, so the cushion against reclaiming at the floor is the
/// watermark itself and the burst only amortises the sweeps; a sweep's
/// simulated cost lands on the fault whose allocation ran it, so a long
/// one is that fault's latency spike (Mach keeps `free_target` a few
/// pages over `free_min`).
const PAGEOUT_BURST_PAGES: usize = 8;

/// Trace-ring tail length included in a watchdog black-box report.
const BLACK_BOX_EVENTS: usize = 32;

/// Black-box reports a kernel retains; older ones are discarded.
const BLACK_BOX_REPORTS: usize = 8;

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
            watchdog_stall_ns: DEFAULT_WATCHDOG_STALL_NS,
            numa: NumaConfig::single(),
            fault_table_capacity: 4096,
            sched_cpus: 4,
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

/// Object registry shared between API paths and the request ports.
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
    /// The receive rights of the host port and every request and name port.
    service_space: Arc<PortSpace>,
    default_backend: Arc<IpcPagerBackend>,
    /// The default pager's page table (for its stored-page count).
    paging_table: crate::default_pager::PageTable,
    default_pager_handle: Option<ManagerHandle>,
    fault_policy: FaultPolicy,
    laundry_limit: u64,
    host_port: SendRight,
    /// The watchdog's last [`BLACK_BOX_REPORTS`] black-box reports, oldest
    /// first.
    watchdog_reports: Arc<Mutex<VecDeque<String>>>,
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
    /// Boots a kernel: physical memory, default pager, host port.
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
            },
        );
        let registry: Arc<Mutex<Registry>> = Arc::new(Mutex::new(Registry::default()));
        let service_space = Arc::new(PortSpace::new(&machine));

        // The default pager: an ordinary external data manager over a
        // dedicated paging partition.
        let paging_dev = Arc::new(BlockDevice::new(&machine, config.paging_blocks));
        let dp = DefaultPager::new(paging_dev, config.page_size);
        let paging_table = dp.page_table();
        let dp_handle = spawn_manager(&machine, "default", dp);
        let (_, dp_request) = Self::register_request_port(&service_space, &registry, &phys, None);
        // Terminated kernel-created objects leave the routing registry and
        // the default pager frees their paging storage.
        let forget = {
            let registry = registry.clone();
            move |object: ObjectId| {
                registry.lock().by_id.remove(&object.0);
            }
        };
        let default_backend = IpcPagerBackend::new(
            &machine,
            dp_handle.port().clone(),
            dp_request,
            config.page_size,
            "default-pager",
            None,
            config.laundry_limit,
            forget,
        );
        phys.set_default_pager(default_backend.clone());

        // pager_create: when a temporary object is first paged out, tell
        // the default pager and register the object for supply routing.
        {
            let registry = registry.clone();
            let dp_port = dp_handle.port().clone();
            phys.set_adoption_hook(move |object: &Arc<VmObject>| {
                registry.lock().by_id.insert(object.id().0, object.clone());
                dp_port.send_notification(KernelToManager::Create(object.id().0, None).encode());
            });
        }

        // The host port: kernel introspection as ordinary IPC, a kernel
        // port answered on the querying thread (holding the memory weakly,
        // like a request port), so a query never waits behind another.
        let tasks: TaskRegistry = Arc::new(Mutex::new(Vec::new()));
        let host_port = {
            let (context, weak, tasks) = (machine.clone(), Arc::downgrade(&phys), tasks.clone());
            let (rx, right) = ReceiveRight::allocate_kernel(&machine, move |msg| {
                Self::answer_host(&context, &*weak.upgrade()?, &tasks, msg)
            });
            service_space.insert_receive(rx);
            right
        };

        // The scheduler: one worker thread per simulated CPU, each pinned
        // to its node so a task's faults first-touch local memory.
        let scheduler = machsched::Scheduler::start(
            &machine,
            machsched::SchedConfig {
                cpus: config.sched_cpus.max(1),
                nodes: phys.nodes(),
                time_slice_ns: DEFAULT_TIME_SLICE_NS,
                pin_node: Some(|node| machvm::numa::set_current_node(Some(node))),
                ..machsched::SchedConfig::default()
            },
        );

        let kernel = Arc::new(Kernel {
            machine: machine.clone(),
            phys: phys.clone(),
            registry,
            service_space,
            default_backend,
            paging_table,
            default_pager_handle: Some(dp_handle),
            fault_policy: config.fault_policy,
            laundry_limit: config.laundry_limit,
            host_port,
            watchdog_reports: Arc::default(),
            scheduler,
            tasks,
            next_node: std::sync::atomic::AtomicUsize::new(0),
        });

        // The stall watchdog, swept by the threads that wait on faults.
        let reports = kernel.watchdog_reports.clone();
        let weak = Arc::downgrade(&phys);
        let stall_ns = config.watchdog_stall_ns.max(1);
        phys.fault_engine().watch_stalls(move |cid, started_ns| {
            // A fault quiet for the wall-clock debounce, which no
            // healthy one is. Its host clock is advanced to the
            // simulated deadline, as a hardware interval timer fires
            // however wedged the system is (the debounce keeps healthy
            // runs deterministic), then it is counted and reported.
            machine
                .clock
                .advance_to(started_ns.saturating_add(stall_ns));
            machine.stats.incr(stat_keys::WATCHDOG_STALLS);
            let chain = CorrelationId::from_raw(cid);
            machine.trace_event_with("watchdog", EventKind::Mark("watchdog_stall"), chain);
            let Some(phys) = weak.upgrade() else {
                return;
            };
            let report = Self::black_box_report(&machine, &phys, cid, started_ns, stall_ns);
            let mut reports = reports.lock();
            if reports.len() >= BLACK_BOX_REPORTS {
                reports.pop_front();
            }
            reports.push_back(report);
        });

        // Pageout keeps the free queue above a low watermark and the
        // inactive queue primed, so faults rarely reclaim at the floor: the
        // allocation that takes the free queue under the watermark sweeps
        // on its own thread before it returns, refilling it one burst past
        // the mark.
        let total = phys.total_frames();
        let low_water = (total / 8).max(config.reserve_pages + 4);
        let inactive_target = (low_water * 3 / 2).min(total.saturating_sub(1));
        let free_target = (low_water + PAGEOUT_BURST_PAGES).min(inactive_target);
        phys.run_pageout(low_water, inactive_target, free_target);
        kernel
    }

    /// Creates a request port whose receive right lives in `space`: a
    /// kernel port, each message to which is one [`Kernel::apply`] on the
    /// sending thread. `memory_object` is the port of the manager it
    /// serves, whose death notice it will be sent. The handler holds the
    /// memory weakly — the default pager's backend, which the memory owns,
    /// holds a send right to its own request port.
    fn register_request_port(
        space: &PortSpace,
        registry: &Arc<Mutex<Registry>>,
        phys: &Arc<PhysicalMemory>,
        memory_object: Option<PortId>,
    ) -> (PortName, SendRight) {
        let (registry, weak) = (registry.clone(), Arc::downgrade(phys));
        let (rx, right) = ReceiveRight::allocate_kernel(phys.machine(), move |msg| {
            Self::apply(&registry, &*weak.upgrade()?, memory_object, msg);
            None
        });
        (space.insert_receive(rx), right)
    }

    /// The kernel's half of the EMM interface: applies one Table 3-6 call,
    /// or the death notice of `memory_object`, on the thread that sent it.
    fn apply(
        registry: &Mutex<Registry>,
        phys: &PhysicalMemory,
        memory_object: Option<PortId>,
        msg: Message,
    ) {
        use ManagerToKernel as M;
        if msg.id == MSG_ID_PORT_DEATH {
            // The manager is gone, and the kernel learns it as
            // communication (§6): its object's parked faults fail now.
            let died = Parts::of(msg.body).words().next().map(PortId);
            let Some(port) = died.filter(|&died| Some(died) == memory_object) else {
                phys.machine().stats.incr(stat_keys::EMM_MALFORMED_DROPPED);
                return;
            };
            let object = registry.lock().by_port.get(&port).map(|o| o.id());
            if let Some(object) = object {
                phys.fault_engine().on_pager_death(object);
            }
            return;
        }
        // Anyone holding a request port may send it anything: what is not
        // a Table 3-6 call is dropped, and counted.
        let Ok(call) = M::decode(msg) else {
            phys.machine().stats.incr(stat_keys::EMM_MALFORMED_DROPPED);
            return;
        };
        let (M::DataProvided(object, ..)
        | M::DataLock(object, ..)
        | M::FlushRequest(object, ..)
        | M::CleanRequest(object, ..)
        | M::Cache(object, _)
        | M::DataUnavailable(object, ..)
        | M::SetCluster(object, _)) = call;
        let Some(obj) = registry.lock().by_id.get(&object).cloned() else {
            return;
        };
        match call {
            // The buffer was moved out of the message: a page the manager
            // gave away reaches `supply_page` as the only handle on it, so
            // it can be stolen.
            M::DataProvided(_, offset, lock, data) => {
                let machine = phys.machine();
                let sp = machine.span_open("pager.reply");
                let _inside = machsim::trace::SpanScope::enter(sp);
                machine.trace_event("kernel.service", EventKind::Mark("kernel_supply"));
                let _ = phys.supply_page(&obj, offset, data, lock);
                machine.span_close("pager.reply", sp);
            }
            M::DataUnavailable(_, offset, size) => {
                let _ = phys.data_unavailable(&obj, offset, size);
            }
            M::DataLock(_, offset, length, lock) => phys.lock_range(&obj, offset, length, lock),
            M::FlushRequest(_, offset, length) => phys.flush_range(&obj, offset, length),
            M::CleanRequest(_, offset, length) => phys.clean_range(&obj, offset, length),
            M::Cache(_, may_cache) => obj.set_can_persist(may_cache),
            M::SetCluster(_, pages) => obj.set_cluster_hint(pages as usize),
        }
    }

    /// The host port's handler: answers a query with a typed snapshot
    /// (see `machcore::introspect`).
    fn answer_host(
        machine: &Machine,
        phys: &PhysicalMemory,
        tasks: &Mutex<Vec<(String, Weak<VmMap>)>>,
        msg: Message,
    ) -> Option<Message> {
        Some(match HostRequest::decode(msg).ok()? {
            HostRequest::Statistics => HostStatistics::capture(machine, phys).encode(),
            HostRequest::VmStatistics => VmStatisticsSnapshot::capture(machine, phys).encode(),
            HostRequest::TaskInfo => Self::capture_task_info(machine, phys, tasks).encode(),
            HostRequest::TraceQuery(correlation, max_events) => {
                TraceQueryReply::capture(machine, correlation, max_events).encode()
            }
        })
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

    /// Renders the bounded "black box" report for one stalled fault: its
    /// chain's hop timeline, the trace-ring tail, every counter, and the
    /// state of resident memory at flag time.
    fn black_box_report(
        machine: &Machine,
        phys: &PhysicalMemory,
        cid: u64,
        started_ns: u64,
        stall_ns: u64,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== watchdog stall: cid#{cid} (vm.fault) on host {} ==",
            machine.host()
        );
        let _ = writeln!(
            out,
            "started {started_ns} ns, now {} ns, threshold {stall_ns} ns",
            machine.clock.now_ns(),
        );
        out.push_str("-- chain timeline --\n");
        let hops = CorrelationId::from_raw(cid)
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
        self.watchdog_reports.lock().iter().cloned().collect()
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
        let (request_name, request) = Self::register_request_port(
            &self.service_space,
            &self.registry,
            &self.phys,
            Some(memory_object.id()),
        );
        let name_port_name = self.service_space.port_allocate();
        let name_send = self
            .service_space
            .send_right(name_port_name)
            .expect("name port right");
        // Termination: forget the object and kill the kernel-held ports so
        // the manager sees port death.
        let on_terminate = {
            let registry = self.registry.clone();
            let port_id = memory_object.id();
            let space = self.service_space.clone();
            move |object: ObjectId| {
                let mut reg = registry.lock();
                reg.by_id.remove(&object.0);
                reg.by_port.remove(&port_id);
                drop(reg);
                // Dropping the kernel's receive rights destroys both ports;
                // the manager is notified through port death (Section 3.4.1:
                // "The data manager receives notification of the destruction
                // of the request and name ports").
                let _ = space.port_deallocate(request_name);
                let _ = space.port_deallocate(name_port_name);
            }
        };
        let fallback: Arc<dyn PagerBackend> = self.default_backend.clone();
        let backend = IpcPagerBackend::new(
            &self.machine,
            memory_object.clone(),
            request.clone(),
            self.phys.page_size(),
            format!("pager-{}", memory_object.id()),
            Some(&fallback),
            self.laundry_limit,
            on_terminate,
        );
        let object = VmObject::new_with_pager(size, backend);
        let mut reg = self.registry.lock();
        reg.by_id.insert(object.id().0, object.clone());
        reg.by_port.insert(memory_object.id(), object.clone());
        drop(reg);
        // The manager's death reaches the kernel as a message: its port's
        // death notice, on the object's request port (at once, if it is
        // dead already).
        memory_object.subscribe_death(&request);
        // pager_init, performed before vm_allocate_with_pager completes.
        let init = KernelToManager::Init(object.id().0, request, Some(name_send));
        memory_object.send_notification(init.encode());
        object
    }

    /// Number of external memory objects currently known.
    pub fn object_count(&self) -> usize {
        self.registry.lock().by_id.len()
    }
}

/// How long `Kernel::Drop` waits for the scheduler's workers before
/// concluding one is wedged on a fault ticket that will never resolve.
const SHUTDOWN_QUIESCE: Duration = Duration::from_millis(500);

/// How long `Kernel::Drop` waits for the workers once the fault engine
/// is stopped and no fault can wait any more.
const SHUTDOWN_RETRY: Duration = Duration::from_millis(250);

impl Drop for Kernel {
    fn drop(&mut self) {
        // Stop the scheduler first: dispatched task bodies may be waiting
        // on fault tickets, so the fault engine and the default pager
        // must outlive every worker. The wait is bounded — a body blocked
        // on a fault whose pager never answers (and whose policy carries
        // no timeout) would wedge the join forever. So if the quiesce
        // window passes, the engine is stopped: every parked fault fails
        // with ObjectDestroyed, unblocking its worker, and so does every
        // later fault that would park, so the body runs to its end.
        let engine = self.phys.fault_engine();
        let mut quiesced = self.scheduler.quiesce(SHUTDOWN_QUIESCE);
        if !quiesced {
            engine.shutdown();
            quiesced = self.scheduler.quiesce(SHUTDOWN_RETRY);
        }
        if quiesced {
            self.scheduler.shutdown();
        } else {
            // Not a fault-ticket wait: leaking the wedged worker beats
            // wedging the whole teardown.
            self.scheduler.detach_workers();
        }
        // Stop the fault engine before the services (idempotent): its
        // drain errors every parked fault (waking their waiters), and a
        // late submission that would have to wait gets the same error
        // instead of parking.
        engine.shutdown();
        debug_assert_eq!(
            engine.outstanding(),
            0,
            "fault engine still holds parked continuations after its shutdown drain"
        );
        drop(self.default_pager_handle.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{DataManager, KernelConn};
    use machipc::OolBuffer;
    use machvm::{VmMap, VmProt};
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
        // the engine's shutdown errors the ticket, and teardown completes.
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
    fn teardown_fails_every_later_fault_of_a_wedged_body() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        // One unit takes ten faults, 16 pages apart, against a pager that
        // never answers. Teardown stops the engine once: the parked fault
        // fails, and each later one fails instead of parking in turn.
        struct SilentPager;
        impl DataManager for SilentPager {
            fn data_request(&mut self, _k: &KernelConn, _o: u64, _off: u64, _l: u64, _a: VmProt) {}
        }

        let k = Kernel::boot(KernelConfig::default());
        let machine = k.machine().clone();
        let page = k.page_size();
        let mgr = spawn_manager(k.machine(), "silent", SilentPager);
        let object = k.object_for_port(mgr.port(), 1 << 20);
        let map = Arc::new(VmMap::new(k.phys()));
        let addr = map
            .allocate_with_object(None, 1 << 20, object, 0, false)
            .expect("allocate against the silent pager");

        let failed = Arc::new(AtomicUsize::new(0));
        let (body_map, body_failed) = (map.clone(), failed.clone());
        let unit = k.scheduler().spawn(0, move || {
            for i in 0..10 {
                let mut buf = [0u8; 8];
                if body_map
                    .access_read(addr + i * 16 * page, &mut buf)
                    .is_err()
                {
                    body_failed.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        let phys = k.phys().clone();
        assert!(
            machsim::wall::poll_until(Duration::from_secs(5), Duration::from_millis(1), || phys
                .fault_engine()
                .outstanding()
                > 0),
            "fault against the silent pager never parked"
        );

        drop(k);
        assert!(unit.is_finished(), "teardown detached the wedged body");
        assert_eq!(failed.load(Ordering::Relaxed), 10);
        assert_eq!(machine.stats.get(stat_keys::VM_ASYNC_PARKS), 1);
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
        // Fill memory with resident pages: the allocations that cross the
        // low watermark sweep before they return, so the free queue is
        // back above the mark once the last write does.
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
        let reclaims = k
            .machine()
            .stats
            .get(machsim::stats::keys::VM_DAEMON_RECLAIMS);
        let free = k.phys().free_frames();
        assert!(
            free >= 8 && reclaims > 0,
            "the sweep did not refill the free queue: {free} free, {reclaims} reclaimed"
        );
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
        // The manager's flush is applied before its send returns.
        let (kc, oid) = conn.lock().clone().expect("init ran");
        kc.flush_request(oid, 0, 4096);
        assert_eq!(k.phys().resident_pages_of(object.id()), 0);
    }
}
