//! machsched — the simulated multiprocessor scheduler.
//!
//! The paper's measurements (Section 9) were taken on real shared-memory
//! multiprocessors whose kernels ran a per-CPU scheduler; this crate gives
//! the reproduction the same shape. Each simulated CPU is one host worker
//! thread with a private run queue (locked under its own
//! [`LockClass::RunQueue`] class, the outermost rank of the hierarchy), a
//! node identity for NUMA-affine placement, and a randomized work-stealing
//! fallback for when its queue drains.
//!
//! Placement follows cache-affinity scheduling: every schedulable unit
//! carries a [`TaskTag`] recording its home node and the CPU it last ran
//! on, and [`Scheduler::submit`] prefers, in order, the submitting CPU
//! (local spawn, Cilk-style), the unit's last CPU, the least-loaded CPU of
//! its home node, and finally the least-loaded CPU anywhere. Idle CPUs
//! steal from the back of a random victim's queue, so a pile of units
//! spawned by one "make" task fans out across the machine.
//!
//! Preemption is cooperative and charged in sim-time: a unit body returns
//! [`Run::Yield`] at its phase boundaries, and the dispatcher re-queues it
//! once the shared [`machsim::SimClock`] has advanced a full time slice,
//! charging the cost model's syscall latency as the context-switch price.
//! All decisions are driven by sim-time and a seeded [`SplitMix64`], so a
//! run's counters are reproducible in distribution.

pub mod protocol;

use machsim::lockdep::{ClassMutex, LockClass};
use machsim::stats::{keys, Counter};
use machsim::{wall, Machine, SplitMix64};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sentinel for "never ran on any CPU".
const NO_CPU: usize = usize::MAX;

/// How long an idle worker parks before re-checking every queue (a
/// backstop; submitters signal the idle condvar on every push).
const IDLE_TICK: Duration = Duration::from_millis(1);

/// The most units one steal takes from a victim.
const STEAL_CAP: usize = 4;

thread_local! {
    /// Which simulated CPU the current host thread is, if it is a worker.
    static CURRENT_CPU: Cell<usize> = const { Cell::new(NO_CPU) };
}

/// The simulated CPU the calling thread is running on, if any.
pub fn current_cpu() -> Option<usize> {
    let cpu = CURRENT_CPU.with(|c| c.get());
    (cpu != NO_CPU).then_some(cpu)
}

/// Scheduling identity of one task: where its memory lives and where it
/// last ran. Shared by every unit the task submits.
#[derive(Debug)]
pub struct TaskTag {
    home_node: usize,
    last_cpu: AtomicUsize,
}

impl TaskTag {
    /// A tag for a task homed on `home_node`.
    pub fn new(home_node: usize) -> Arc<Self> {
        Arc::new(Self {
            home_node,
            last_cpu: AtomicUsize::new(NO_CPU),
        })
    }

    /// The NUMA node this task's anonymous memory is homed on.
    pub fn home_node(&self) -> usize {
        self.home_node
    }

    /// The CPU this tag's most recent unit ran on, if any ran yet.
    pub fn last_cpu(&self) -> Option<usize> {
        let cpu = self.last_cpu.load(Ordering::Relaxed);
        (cpu != NO_CPU).then_some(cpu)
    }
}

/// What a unit body tells the dispatcher after one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Run {
    /// The unit finished; release its join handle.
    Done,
    /// The unit reached a phase boundary and can be preempted if its
    /// sim-time slice is spent, else it is stepped again immediately.
    Yield,
}

/// Completion flag shared by a unit and its [`JoinHandle`].
#[derive(Default)]
struct DoneState {
    flag: Mutex<bool>,
    cv: Condvar,
}

/// Waits for one submitted unit to finish.
pub struct JoinHandle {
    done: Arc<DoneState>,
}

impl JoinHandle {
    /// Blocks the host thread until the unit's body returns [`Run::Done`].
    pub fn join(&self) {
        let mut flag = self.done.flag.lock();
        while !*flag {
            self.done.cv.wait(&mut flag);
        }
    }

    /// Whether the unit already finished.
    pub fn is_finished(&self) -> bool {
        *self.done.flag.lock()
    }
}

/// One schedulable unit: a steppable body plus its task identity.
struct Unit {
    body: Box<dyn FnMut() -> Run + Send>,
    tag: Arc<TaskTag>,
    done: Arc<DoneState>,
}

impl Unit {
    fn finish(&self) {
        *self.done.flag.lock() = true;
        self.done.cv.notify_all();
    }
}

/// One simulated CPU.
struct Cpu {
    /// The run queue. Owner pushes/pops the front end; thieves take from
    /// the back. `rq` is the classified field machlint maps to the
    /// `run-queue` lock class.
    rq: ClassMutex<VecDeque<Unit>>,
    /// Queue depth mirror for lock-free placement decisions and gauges.
    depth: AtomicUsize,
    /// The NUMA node this CPU's memory accesses are local to.
    node: usize,
}

/// Static shape of the scheduler.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Simulated CPU count (min 1).
    pub cpus: usize,
    /// NUMA node count; CPUs are block-distributed over nodes (min 1).
    pub nodes: usize,
    /// Sim-time slice after which a yielding unit is re-queued.
    pub time_slice_ns: u64,
    /// Whether idle CPUs steal from loaded ones.
    pub steal: bool,
    /// Seed for the per-CPU steal-victim generators.
    pub seed: u64,
    /// Called once per worker with its CPU's node — the kernel installs
    /// `machvm::numa::set_current_node` here so a task's faults
    /// first-touch on the node of the CPU that runs it.
    pub pin_node: Option<fn(usize)>,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            cpus: 4,
            nodes: 1,
            time_slice_ns: 2_000_000,
            steal: true,
            seed: 0x5eed_0001,
            pin_node: None,
        }
    }
}

/// Pre-resolved `sched.*` counters (see `machsim::stats::keys`).
struct SchedCounters {
    dispatches: Counter,
    steals: Counter,
    migrations: Counter,
    affinity_hits: Counter,
    affinity_misses: Counter,
    preemptions: Counter,
}

impl SchedCounters {
    fn new(machine: &Machine) -> Self {
        Self {
            dispatches: machine.stats.counter(keys::SCHED_DISPATCHES),
            steals: machine.stats.counter(keys::SCHED_STEALS),
            migrations: machine.stats.counter(keys::SCHED_MIGRATIONS),
            affinity_hits: machine.stats.counter(keys::SCHED_AFFINITY_HITS),
            affinity_misses: machine.stats.counter(keys::SCHED_AFFINITY_MISSES),
            preemptions: machine.stats.counter(keys::SCHED_PREEMPTIONS),
        }
    }
}

/// The per-CPU run-queue scheduler of one simulated machine.
pub struct Scheduler {
    machine: Machine,
    cfg: SchedConfig,
    cpus: Vec<Cpu>,
    /// Parking lot for idle workers; paired with `wake`.
    idle: Mutex<()>,
    wake: Condvar,
    stop: AtomicBool,
    /// Workers that have not yet run their drain loop to completion;
    /// `quiesce` polls this toward zero.
    active: AtomicUsize,
    counters: SchedCounters,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Builds the CPUs, registers queue-depth gauges, and starts one
    /// worker thread per simulated CPU.
    pub fn start(machine: &Machine, cfg: SchedConfig) -> Arc<Self> {
        let mut cfg = cfg;
        cfg.cpus = cfg.cpus.max(1);
        cfg.nodes = cfg.nodes.max(1);
        let cpus = (0..cfg.cpus)
            .map(|i| Cpu {
                rq: ClassMutex::new(LockClass::RunQueue, VecDeque::new()),
                depth: AtomicUsize::new(0),
                node: i * cfg.nodes / cfg.cpus,
            })
            .collect();
        let sched = Arc::new(Self {
            machine: machine.clone(),
            cfg,
            cpus,
            idle: Mutex::new(()),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(cfg.cpus),
            counters: SchedCounters::new(machine),
            workers: Mutex::new(Vec::new()),
        });
        for i in 0..cfg.cpus {
            let weak = Arc::downgrade(&sched);
            machine
                .gauges
                .register(&format!("gauge.sched.runq_depth.cpu{i}"), move || {
                    weak.upgrade()
                        .map_or(0, |s| s.cpus[i].depth.load(Ordering::Relaxed) as u64)
                });
        }
        let weak = Arc::downgrade(&sched);
        machine.gauges.register("gauge.sched.runq_depth", move || {
            weak.upgrade().map_or(0, |s| {
                s.cpus
                    .iter()
                    .map(|c| c.depth.load(Ordering::Relaxed) as u64)
                    .sum()
            })
        });
        let mut workers = sched.workers.lock();
        for i in 0..cfg.cpus {
            let s = Arc::clone(&sched);
            let handle = std::thread::Builder::new()
                .name(format!("sched-cpu{i}"))
                .spawn(move || s.worker(i))
                .expect("spawn scheduler worker");
            workers.push(handle);
        }
        drop(workers);
        sched
    }

    /// Simulated CPU count.
    pub fn cpus(&self) -> usize {
        self.cfg.cpus
    }

    /// The node CPU `cpu` is attached to.
    pub fn node_of(&self, cpu: usize) -> usize {
        self.cpus[cpu].node
    }

    /// Submits a steppable unit under `tag` and returns its join handle.
    ///
    /// Called from a worker, the unit lands on the worker's own queue
    /// (children of a running task stay local until stolen). Called from
    /// outside, placement prefers the tag's last CPU, then the least
    /// loaded CPU of its home node, then the least loaded CPU overall.
    /// After [`Scheduler::shutdown`] the body runs inline on the caller.
    pub fn submit(
        self: &Arc<Self>,
        tag: Arc<TaskTag>,
        body: impl FnMut() -> Run + Send + 'static,
    ) -> JoinHandle {
        let done = Arc::new(DoneState::default());
        let handle = JoinHandle {
            done: Arc::clone(&done),
        };
        let mut body = body;
        if !protocol::accepts_units(self.stop.load(Ordering::Acquire)) {
            while body() != Run::Done {}
            *done.flag.lock() = true;
            done.cv.notify_all();
            return handle;
        }
        let cpu = self.place(&tag);
        let unit = Unit {
            body: Box::new(body),
            tag,
            done,
        };
        self.push(cpu, unit);
        // Serialize with the idle re-check so the push is never missed.
        drop(self.idle.lock());
        self.wake.notify_all();
        handle
    }

    /// Submits a run-to-completion closure for a task homed on
    /// `home_node`.
    pub fn spawn(
        self: &Arc<Self>,
        home_node: usize,
        f: impl FnOnce() + Send + 'static,
    ) -> JoinHandle {
        let mut f = Some(f);
        self.submit(TaskTag::new(home_node), move || {
            if let Some(f) = f.take() {
                f();
            }
            Run::Done
        })
    }

    /// Requests shutdown without blocking: new submissions run inline,
    /// parked workers wake, and each worker drains its local queue and
    /// exits. Idempotent; pair with [`Scheduler::quiesce`] /
    /// [`Scheduler::shutdown`] to wait for the workers.
    pub fn begin_shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Serialize with the idle re-check so the wakeup is never missed.
        drop(self.idle.lock());
        self.wake.notify_all();
    }

    /// Requests shutdown and waits (bounded, real time) for every worker
    /// to finish its current unit and drain its queue. Returns whether
    /// the workers quiesced within `timeout` — `false` means some unit's
    /// body is blocked on something the scheduler cannot unblock (a
    /// fault ticket whose pager never answers), and the caller owns
    /// breaking that wait before joining.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        self.begin_shutdown();
        wall::poll_until(timeout, IDLE_TICK, || {
            self.active.load(Ordering::Acquire) == 0
        })
    }

    /// Stops every worker, draining all queued units first, and joins the
    /// worker threads. Idempotent.
    pub fn shutdown(&self) {
        self.begin_shutdown();
        let workers = std::mem::take(&mut *self.workers.lock());
        for w in workers {
            let _ = w.join();
        }
    }

    /// Abandons the worker threads without joining them: the teardown
    /// path's last resort when [`Scheduler::quiesce`] timed out even
    /// after the fault engine drained every parked ticket. Leaking a
    /// wedged thread beats wedging the whole process exit.
    pub fn detach_workers(&self) {
        self.begin_shutdown();
        drop(std::mem::take(&mut *self.workers.lock()));
    }

    /// Picks the queue a non-worker submission should land on.
    fn place(&self, tag: &TaskTag) -> usize {
        if let Some(cpu) = current_cpu() {
            return cpu;
        }
        let last = tag.last_cpu.load(Ordering::Relaxed);
        if last < self.cpus.len() {
            return last;
        }
        let depth_of = |i: usize| self.cpus[i].depth.load(Ordering::Relaxed);
        let home = (0..self.cpus.len())
            .filter(|&i| self.cpus[i].node == tag.home_node)
            .min_by_key(|&i| depth_of(i));
        home.unwrap_or_else(|| {
            (0..self.cpus.len())
                .min_by_key(|&i| depth_of(i))
                .expect("at least one cpu")
        })
    }

    fn push(&self, cpu: usize, unit: Unit) {
        let c = &self.cpus[cpu];
        let mut q = c.rq.lock();
        q.push_back(unit);
        c.depth.store(q.len(), Ordering::Relaxed);
    }

    fn take_local(&self, cpu: usize) -> Option<Unit> {
        let c = &self.cpus[cpu];
        if c.depth.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut q = c.rq.lock();
        let unit = q.pop_front();
        c.depth.store(q.len(), Ordering::Relaxed);
        unit
    }

    /// Takes up to half of `victim`'s queue (capped) from the back.
    fn take_from(&self, victim: usize) -> VecDeque<Unit> {
        let c = &self.cpus[victim];
        let mut q = c.rq.lock();
        let take = q.len().div_ceil(2).min(STEAL_CAP);
        let mut batch = VecDeque::with_capacity(take);
        for _ in 0..take {
            if let Some(u) = q.pop_back() {
                batch.push_front(u);
            }
        }
        c.depth.store(q.len(), Ordering::Relaxed);
        batch
    }

    /// Steals from a random victim; returns a unit to dispatch now.
    fn steal(&self, cpu: usize, rng: &mut SplitMix64) -> Option<Unit> {
        let n = self.cpus.len();
        if n <= 1 {
            return None;
        }
        let offset = rng.next_below(n as u64) as usize;
        for k in 0..n {
            let victim = (offset + k) % n;
            if victim == cpu || self.cpus[victim].depth.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let id = self.machine.span_open("sched.steal");
            let mut batch = self.take_from(victim);
            let first = batch.pop_front();
            if first.is_some() {
                self.counters.steals.add(1 + batch.len() as u64);
            }
            let mut surplus = false;
            while let Some(u) = batch.pop_front() {
                self.push(cpu, u);
                surplus = true;
            }
            self.machine.span_close("sched.steal", id);
            if first.is_none() {
                continue;
            }
            if surplus {
                // Other idle CPUs may steal the surplus in turn.
                drop(self.idle.lock());
                self.wake.notify_all();
            }
            return first;
        }
        None
    }

    /// Whether `cpu` could find a unit right now without blocking.
    fn has_work(&self, cpu: usize) -> bool {
        if protocol::queue_nonempty(self.cpus[cpu].depth.load(Ordering::Relaxed)) {
            return true;
        }
        self.cfg.steal
            && self
                .cpus
                .iter()
                .any(|c| protocol::queue_nonempty(c.depth.load(Ordering::Relaxed)))
    }

    /// Runs one unit on `cpu` until it finishes or its slice expires.
    fn dispatch(&self, cpu: usize, mut unit: Unit) {
        let span = self.machine.span_open("sched.dispatch");
        self.counters.dispatches.incr();
        let node = self.cpus[cpu].node;
        let last = unit.tag.last_cpu.load(Ordering::Relaxed);
        if last == NO_CPU {
            // First dispatch: a hit means the placer reached the home node.
            if node == unit.tag.home_node {
                self.counters.affinity_hits.incr();
            } else {
                self.counters.affinity_misses.incr();
            }
        } else if last == cpu {
            self.counters.affinity_hits.incr();
        } else {
            self.counters.migrations.incr();
            if self.cpus[last].node == node {
                self.counters.affinity_hits.incr();
            } else {
                self.counters.affinity_misses.incr();
            }
        }
        unit.tag.last_cpu.store(cpu, Ordering::Relaxed);
        let slice_start = self.machine.clock.now_ns();
        loop {
            match (unit.body)() {
                Run::Done => {
                    unit.finish();
                    break;
                }
                Run::Yield => {
                    let elapsed = self.machine.clock.now_ns().saturating_sub(slice_start);
                    if elapsed >= self.cfg.time_slice_ns {
                        // Context switch: the syscall price, as in Mach's
                        // kernel-entry accounting.
                        self.machine.clock.charge(self.machine.cost.syscall_ns);
                        self.counters.preemptions.incr();
                        self.push(cpu, unit);
                        break;
                    }
                }
            }
        }
        self.machine.span_close("sched.dispatch", span);
    }

    /// The worker loop of one simulated CPU.
    fn worker(self: Arc<Self>, cpu: usize) {
        CURRENT_CPU.with(|c| c.set(cpu));
        if let Some(pin) = self.cfg.pin_node {
            pin(self.cpus[cpu].node);
        }
        let mut rng = SplitMix64::new(
            self.cfg
                .seed
                .wrapping_add((cpu as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        loop {
            if let Some(unit) = self.take_local(cpu) {
                self.dispatch(cpu, unit);
                continue;
            }
            if self.cfg.steal {
                if let Some(unit) = self.steal(cpu, &mut rng) {
                    self.dispatch(cpu, unit);
                    continue;
                }
            }
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            let mut guard = self.idle.lock();
            if !protocol::worker_may_park(self.has_work(cpu), self.stop.load(Ordering::Acquire)) {
                continue;
            }
            self.wake.wait_for(&mut guard, IDLE_TICK);
        }
        // Stop was requested: drain whatever is still queued locally so no
        // submitted unit is lost (preempted units re-queue here too).
        loop {
            let unit = self.take_local(cpu);
            if !protocol::drain_after_stop(unit.is_some()) {
                break;
            }
            if let Some(unit) = unit {
                self.dispatch(cpu, unit);
            }
        }
        self.active.fetch_sub(1, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("cpus", &self.cfg.cpus)
            .field("nodes", &self.cfg.nodes)
            .field("stopped", &self.stop.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machsim::CostModel;
    use std::sync::atomic::AtomicU64;

    fn machine() -> Machine {
        Machine::new(CostModel::default())
    }

    #[test]
    fn submit_runs_and_joins() {
        let m = machine();
        let sched = Scheduler::start(&m, SchedConfig::default());
        let ran = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&ran);
        let h = sched.spawn(0, move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        h.join();
        assert!(h.is_finished());
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(m.stats.get(keys::SCHED_DISPATCHES), 1);
        sched.shutdown();
    }

    #[test]
    fn local_pile_is_stolen_by_idle_cpus() {
        let m = machine();
        let sched = Scheduler::start(
            &m,
            SchedConfig {
                cpus: 4,
                ..SchedConfig::default()
            },
        );
        let ran = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&sched);
        let (r, mach) = (Arc::clone(&ran), m.clone());
        // The "make" unit spawns all children from inside one worker, so
        // they pile onto that worker's queue, and joins them before it
        // returns: its worker stays occupied, so the pile can drain only
        // by theft.
        sched
            .spawn(0, move || {
                let kids: Vec<JoinHandle> = (0..256)
                    .map(|_| {
                        let r = Arc::clone(&r);
                        let mach = mach.clone();
                        s.spawn(0, move || {
                            mach.clock.charge(50_000);
                            r.fetch_add(1, Ordering::Relaxed);
                        })
                    })
                    .collect();
                for h in kids {
                    h.join();
                }
            })
            .join();
        assert_eq!(ran.load(Ordering::Relaxed), 256);
        assert_eq!(m.stats.get(keys::SCHED_DISPATCHES), 257);
        assert!(
            m.stats.get(keys::SCHED_STEALS) >= 256,
            "every child must have been stolen from the pile"
        );
        sched.shutdown();
    }

    #[test]
    fn slice_expiry_preempts_and_requeues() {
        let m = machine();
        let sched = Scheduler::start(
            &m,
            SchedConfig {
                cpus: 1,
                time_slice_ns: 1_000,
                steal: false,
                ..SchedConfig::default()
            },
        );
        let mut steps = 0;
        let mach = m.clone();
        let h = sched.submit(TaskTag::new(0), move || {
            mach.clock.charge(1_000_000);
            steps += 1;
            if steps < 8 {
                Run::Yield
            } else {
                Run::Done
            }
        });
        h.join();
        assert!(m.stats.get(keys::SCHED_PREEMPTIONS) >= 1);
        assert!(m.stats.get(keys::SCHED_DISPATCHES) >= 2);
        sched.shutdown();
    }

    #[test]
    fn external_placement_prefers_home_node() {
        let m = machine();
        let sched = Scheduler::start(
            &m,
            SchedConfig {
                cpus: 4,
                nodes: 2,
                steal: false,
                ..SchedConfig::default()
            },
        );
        assert_eq!(sched.node_of(0), 0);
        assert_eq!(sched.node_of(3), 1);
        let tag = TaskTag::new(1);
        sched.submit(Arc::clone(&tag), || Run::Done).join();
        let cpu = tag.last_cpu().expect("ran somewhere");
        assert_eq!(sched.node_of(cpu), 1, "homed on node 1, ran on {cpu}");
        assert_eq!(m.stats.get(keys::SCHED_AFFINITY_HITS), 1);
        sched.shutdown();
    }

    #[test]
    fn post_shutdown_submit_runs_inline() {
        let m = machine();
        let sched = Scheduler::start(&m, SchedConfig::default());
        sched.shutdown();
        let ran = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&ran);
        let h = sched.spawn(0, move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        assert!(h.is_finished());
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }
}
