//! The continuation-based fault engine: the one driver of the fault
//! state machine. Every fault is a ticket; only a fault that waits is a
//! continuation.
//!
//! A fault path that blocks its thread until `pager_data_provided`
//! arrives caps the faults a host can have in flight at the number of
//! threads it is willing to park — and every fault pays one
//! `pager_data_request` message, no matter how many of its neighbors are
//! also missing. Real Mach attacked the first problem with *continuations*
//! (Draves et al.): capture the small amount of state the blocked
//! operation actually needs, release the thread, and resume from the
//! captured state when the event arrives. This module is that design,
//! io_uring-flavored; a caller that wants to block submits and waits on
//! the ticket ([`crate::fault::resolve_page`]):
//!
//! * [`FaultEngine::submit`] steps the fault state machine
//!   ([`crate::fault::fault_step`]) on the caller first. A fault that
//!   resolves in that step — a hit, a zero fill, a copy-on-write copy —
//!   returns a ticket born fulfilled, having touched nothing of the
//!   engine's. One that must wait *parks* its [`FaultState`] in a bounded
//!   continuation table and returns a [`FaultTicket`] — the submitting
//!   thread is free immediately.
//! * A fault covers a *run* of pages ([`FaultEngine::submit_run`];
//!   `submit` is the run of one): `pager_data_request(offset, length)` and
//!   `pager_data_provided` are range operations, and so is the fault
//!   between them. A run is one fault in every account — one overhead
//!   charge, one admission slot, one trace chain, one deadline per wait —
//!   whose step asks for everything its pages need, which parks on its
//!   first page still pending, and whose ticket completes once with every
//!   page's result.
//! * A pager round trip is the faulting thread, the manager, and the
//!   thread that applies the answer. A step's `pager_data_request`s are
//!   collected as *runs* and sent by the parking thread once the table is
//!   unlocked, per (pager, object) through
//!   [`PagerBackend::data_request_many`]. Applying `pager_data_provided`,
//!   `_unavailable` or `pager_data_lock` — one event per buffer, after its
//!   last page — re-steps the continuations waiting on it on the applying
//!   thread.
//! * Every page event is resumed by the thread that raised it, like a
//!   trampoline. Inside an engine call — a submit, a resume, a reply's
//!   event, an expiry, a drain — the continuations an event wakes go on
//!   the thread's own list, and its outermost call resumes them before it
//!   returns ([`protocol::resumes_on_return`]), so resumes never nest. An
//!   event raised outside any engine call (a clean page an allocation's
//!   reclaim drops, a manager's `pager_flush_request`) is an outermost
//!   call of its own and resumes at once.
//! * The table is the one bound on what the kernel has asked and not yet
//!   been answered: a fault that must park waits for a slot
//!   (`vm.async.backpressure`), and what is in flight is the parked
//!   faults times their runs. There is no quota per pager: §6's defences
//!   against a data manager are a timeout, the reserved pool and the
//!   default pager's takeover.
//!
//! # Observability through the hop
//!
//! Parking must not break the causal chain. Each fault's
//! [`CorrelationId`] is allocated at submit, stamped into every request
//! run (so the manager's reply still correlates), carried on the
//! parked continuation, and re-entered as the trace scope whichever
//! thread steps it. The table is also what the stall watchdog reads
//! ([`FaultEngine::watch_stalls`]): a fault that times out *cleanly* (its
//! policy deadline fires) leaves the table without being counted as a
//! watchdog stall, while a genuinely wedged fault stays parked and is
//! caught and flagged.
//!
//! # Ownership
//!
//! The engine is a field of its [`PhysicalMemory`], built with it, and
//! reaches back through a weak reference, as a parked fault's ticket
//! does. It has no thread: every fault runs on its faulting thread, the
//! thread that answers it, or the thread that waits for it.
//! [`FaultEngine::shutdown`] errors what is parked. After shutdown nothing
//! can resume a parked fault, so the caller's step is all a fault gets:
//! hits, zero fills and copy-on-write copies still resolve, and one that
//! would have to park releases what it claimed and fails with
//! [`VmError::ObjectDestroyed`] — the answer shutdown gives every fault
//! that was parked.
//!
//! # Locking
//!
//! The continuation table is `LockClass::FaultTable`, ranked *outermost*
//! (above `Resident`): the engine may lock the table and then probe the
//! resident table for the park/recheck race, never the reverse. Page
//! events are therefore reported only after the resident table is
//! unlocked. Stepping a fault — which takes the resident table, frame
//! and queue locks freely — and sending its requests happen with the
//! table unlocked. A fault that need not wait takes the table zero
//! times; one that parks once takes it three times whatever the length
//! of its run (admission and park under one hold; the fill's
//! event; completion — `tests/fault_locks.rs`). The alarm lives in the
//! table, under the same lock.
//!
//! # Deadlines, and a manager's death
//!
//! Nothing polls: a parked fault leaves the table on its page event, its
//! policy deadline, its manager's death or shutdown. A deadline is kept
//! by the threads that wait, as Mach sets a timeout on the blocked thread:
//! the table's alarm is no later than the earliest policy deadline
//! (re-armed at every park — the timeout is per wait, not per fault or per
//! page) or watchdog quiet deadline ([`FaultEngine::watch_stalls`]) of a
//! parked fault, and a ticket's waiter, or a submitter held at admission,
//! blocks no longer than the alarm and runs the fault sweep once it
//! passes. The sweep takes what is due under one hold, so a fault expires
//! or is flagged once, whichever waiter sweeps; a memory whose faults
//! carry no deadline never sweeps. A fault re-parked by the thread that
//! resumed it nudges its waiter to read the alarm again. Pageout runs on
//! the allocation that takes the free queue under the low watermark
//! ([`PhysicalMemory::run_pageout`]). A manager's death is communication
//! (§6): its memory object port's death notice becomes
//! [`FaultEngine::on_pager_death`] on the thread that destroyed the port.
//! No wakeup is probed for — machmc's `park_resume` model is the argument
//! that none is missed, and one that still were would surface as a
//! watchdog stall with its fault id.

use crate::fault::{
    fault_step, FaultOutcome, FaultPolicy, FaultResult, FaultState, FaultStep, FaultWait, WaitKind,
};
use crate::lockdep::{ClassMutex, LockClass};
use crate::object::{ObjectId, PagerBackend, PagerRequest, VmObject};
use crate::protocol;
use crate::resident::{PageLookup, PhysicalMemory};
use crate::types::{VmError, VmProt};
use machsim::stats::keys as stat_keys;
use machsim::trace::{keys as trace_keys, CorrelationId, CorrelationScope, SpanScope};
use machsim::{wall, Machine};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

/// How long a parked fault may go without its pager answering an older
/// fault of its object before the watchdog flags it: wall time, because a
/// busy host charges everyone's work to one simulated clock and a wedged
/// one stops it. Healthy faults resolve in wall-microseconds, and one
/// queued behind a draining pager keeps being pushed back.
pub const WATCHDOG_DEBOUNCE: Duration = Duration::from_millis(300);

/// Tuning knobs for the [`FaultEngine`].
#[derive(Clone, Copy, Debug)]
pub struct FaultEngineConfig {
    /// Bound on simultaneously parked continuations; a fault that must
    /// park blocks (briefly, with `vm.async.backpressure` counted) when
    /// the table is full. This is the "thousands of outstanding faults"
    /// budget, and the engine's one bound on unanswered requests.
    pub capacity: usize,
}

impl Default for FaultEngineConfig {
    fn default() -> Self {
        FaultEngineConfig { capacity: 4096 }
    }
}

/// The caller's handle to a submitted fault: its outcome, ready at once
/// for a fault that resolved on its submitter's step, or a latch the
/// engine sets when a parked fault completes.
#[derive(Clone)]
pub struct FaultTicket {
    cid: CorrelationId,
    root_span: u64,
    outcome: TicketOutcome,
}

#[derive(Clone)]
enum TicketOutcome {
    Ready(FaultOutcome),
    /// The parked fault's latch, and the memory whose engine's alarm its
    /// waiter keeps.
    Parked(Arc<wall::Latch<FaultOutcome>>, Weak<PhysicalMemory>),
}

impl FaultTicket {
    /// The correlation id tying this fault's trace events, pager requests
    /// and resolution into one chain.
    pub fn correlation(&self) -> CorrelationId {
        self.cid
    }

    /// Adopts this fault's chain (its correlation id and `fault.submit`
    /// root span) as the calling thread's trace context until the
    /// returned guards drop, so work that follows [`FaultTicket::wait`] —
    /// the pmap update in the map layer — joins the fault's span tree
    /// even though the engine may have resolved it elsewhere.
    pub fn enter_chain(&self) -> (CorrelationScope, SpanScope) {
        (
            CorrelationScope::enter(self.cid),
            SpanScope::enter(self.root_span),
        )
    }

    /// Whether the fault has completed (without blocking).
    pub fn is_done(&self) -> bool {
        match &self.outcome {
            TicketOutcome::Ready(_) => true,
            TicketOutcome::Parked(latch, _) => latch.is_set(),
        }
    }

    /// Blocks until the fault completes and returns its result (for a
    /// fault over a run, its first page's). The engine guarantees
    /// completion: every parked continuation either resumes, times out
    /// by policy, fails with its manager, or is errored at engine
    /// shutdown. The waiter keeps the deadlines: while it waits, it runs
    /// the engine's sweep whenever the alarm passes.
    pub fn wait(&self) -> Result<FaultResult, VmError> {
        self.outcome().map(|(page, _)| page)
    }

    /// [`FaultTicket::wait`] for a fault submitted over a run: what each
    /// page of the run resolved to, in order. The run fails as a whole.
    pub fn wait_run(&self) -> Result<Vec<FaultResult>, VmError> {
        self.outcome().map(|(first, behind)| {
            let mut pages = Vec::with_capacity(1 + behind.len());
            pages.push(first);
            pages.extend(behind);
            pages
        })
    }

    fn outcome(&self) -> FaultOutcome {
        let (latch, phys) = match &self.outcome {
            TicketOutcome::Ready(outcome) => return outcome.clone(),
            TicketOutcome::Parked(latch, phys) => (latch, phys),
        };
        let alarm = || {
            phys.upgrade()
                .and_then(|phys| phys.fault_engine().table.lock().alarm)
        };
        loop {
            if let Some(outcome) = latch.wait_until_with(alarm) {
                return outcome;
            }
            if let Some(phys) = phys.upgrade() {
                phys.fault_engine().sweep(&phys);
            }
        }
    }
}

/// One `pager_data_request` not yet sent: a contiguous claimed run plus
/// the claiming fault's correlation id.
struct PendingRun {
    pager: Arc<dyn PagerBackend>,
    object: ObjectId,
    offset: u64,
    length: u64,
    access: VmProt,
    /// Raw correlation of the claiming fault (stamped on the message, so
    /// the manager-side work still joins the fault's trace chain).
    correlation: u64,
    /// The claiming fault's root span, carried on the request so the
    /// manager's `pager.service` span nests under the fault chain.
    parent_span: u64,
    /// Pages in the run (what [`FaultEngine::cancel_run`] releases).
    pages: usize,
}

/// A parked fault: the captured state machine plus resume bookkeeping.
struct Continuation {
    state: FaultState,
    wait: FaultWait,
    cid: CorrelationId,
    started_ns: u64,
    parked_ns: u64,
    /// When the watchdog may flag this fault: [`WATCHDOG_DEBOUNCE`] after
    /// it first parked, pushed back whenever its pager answers an older
    /// fault of its object, and kept across parks. `None` once flagged, or
    /// on an engine nobody watches.
    quiet_until: Option<wall::Deadline>,
    /// Policy deadline, re-armed at every park (the timeout is per wait).
    deadline: Option<wall::Deadline>,
    ticket: Arc<wall::Latch<FaultOutcome>>,
    /// The fault's root span (`fault.submit`), parent of every phase span
    /// the chain opens — on this host and, via the stamped requests, on
    /// the pager side.
    root_span: u64,
    /// The currently open `fault.parked` span, 0 while running. Closed by
    /// whichever thread takes the continuation off the table.
    parked_span: u64,
}

impl Continuation {
    /// The deadlines the engine's alarm must cover for this fault.
    fn alarms(&self) -> impl Iterator<Item = wall::Deadline> {
        [self.deadline, self.quiet_until].into_iter().flatten()
    }
}

/// Why a continuation is being taken off the table for processing.
#[derive(Clone, Copy)]
enum Wake {
    /// A page event: re-step the state machine.
    Event,
    /// The policy deadline fired.
    Timeout,
    /// The backing pager's port died.
    PagerDead,
    /// The engine is shutting down.
    Drained,
}

/// The continuation table. `conts` is ordered by correlation id, so the
/// faults a sweep, a manager's death or shutdown takes off the table
/// resume oldest first; nothing iterates the hashed maps (`waiters`,
/// `resolved`, `dead`) on a path that sends or charges.
#[derive(Default)]
struct Table {
    /// Parked continuations by raw correlation id, oldest first.
    conts: BTreeMap<u64, Continuation>,
    /// Park index: page key → raw cids waiting on it.
    waiters: HashMap<(ObjectId, u64), Vec<u64>>,
    /// Admitted-but-not-finished faults: incremented when a fault that
    /// must park clears backpressure, decremented when it completes.
    /// Parked *and* resuming faults count, so `conts.len() <= admitted
    /// <= capacity` and the table can never exceed its budget.
    admitted: usize,
    /// Most continuations ever parked at once (bench: max outstanding).
    high_water: usize,
    /// Per object, since the watchdog's last scan: the oldest (smallest)
    /// cid a manager's answer resumed — its pager is draining the faults
    /// queued behind that one — and the quiet deadline of the latest such
    /// answer. Kept only on a watched engine, and only for answers that
    /// resumed a parked fault, whose park armed the scan that clears it.
    resolved: HashMap<ObjectId, (u64, wall::Deadline)>,
    /// Objects whose manager died: a fault that would park on one fails
    /// instead. One entry per dead manager's object, for the engine's life.
    dead: HashSet<ObjectId>,
    /// No later than the earliest policy deadline, or watchdog quiet
    /// deadline, of a parked fault: each park lowers it, each sweep sets it
    /// to the earliest left. Every thread blocked on the engine — a
    /// ticket's waiter, a submitter held at admission — sweeps once it
    /// passes.
    alarm: Option<wall::Deadline>,
    /// Page events reported so far: lets a test assert that an operation
    /// reports none.
    #[cfg(test)]
    page_events: u64,
}

impl Table {
    /// Takes the parked continuations `keep` selects off the table, and
    /// out of the park index.
    fn unpark(&mut self, keep: impl Fn(&Continuation) -> bool) -> Vec<Continuation> {
        let taken: Vec<_> = self.conts.extract_if(.., |_, c| keep(c)).collect();
        let waiters = &mut self.waiters;
        taken
            .into_iter()
            .map(|(cid, c)| {
                let key = (c.wait.object, c.wait.offset);
                if let Some(v) = waiters.get_mut(&key) {
                    v.retain(|&x| x != cid);
                    if v.is_empty() {
                        waiters.remove(&key);
                    }
                }
                c
            })
            .collect()
    }
}

/// What the watchdog calls for a stalled fault: `(cid, started_ns)`.
type StallHook = Box<dyn Fn(u64, u64) + Send + Sync>;

/// Continuations a page event woke, each with its memory.
type Woken = Vec<(Arc<PhysicalMemory>, Continuation)>;

thread_local! {
    /// What this thread's page events woke inside its current engine call
    /// (`None` outside any): the outermost call resumes it before it
    /// returns.
    static WOKEN: RefCell<Option<Woken>> = const { RefCell::new(None) };
}

/// Runs `f` as an engine call on this thread: the page events raised
/// inside it defer what they wake to the thread's list, and the outermost
/// call resumes the list, until it stays empty, before it returns.
fn engine_call<R>(f: impl FnOnce() -> R) -> R {
    let outermost = WOKEN.with_borrow_mut(|w| {
        let outermost = w.is_none();
        w.get_or_insert_default();
        outermost
    });
    if !protocol::resumes_on_return(outermost) {
        return f();
    }
    let result = f();
    loop {
        let woken = take_woken();
        if woken.is_empty() {
            break;
        }
        resume_woken(woken);
    }
    WOKEN.set(None);
    result
}

/// Takes what this thread's page events have woken so far.
fn take_woken() -> Woken {
    WOKEN.with_borrow_mut(|w| w.as_mut().map(std::mem::take).unwrap_or_default())
}

fn resume_woken(woken: Woken) {
    for (phys, cont) in woken {
        phys.fault_engine().resume(&phys, cont, Wake::Event);
    }
}

/// The continuation-based fault engine. Every [`PhysicalMemory`] owns
/// one ([`PhysicalMemory::fault_engine`]); shut it down explicitly with
/// [`FaultEngine::shutdown`] to error out faults still parked (the kernel
/// does).
pub struct FaultEngine {
    /// The memory this engine is a field of. Weak, because that memory
    /// owns the engine.
    phys: Weak<PhysicalMemory>,
    machine: Machine,
    cfg: FaultEngineConfig,
    table: ClassMutex<Table>,
    /// Signals submitters blocked on a full table.
    space: wall::Signal,
    stop: AtomicBool,
    /// The watchdog's report, once one is installed.
    stall: OnceLock<StallHook>,
}

/// Where a stepped fault puts its `pager_data_request`s: they are
/// recorded, not sent, so the parking thread can send them once the
/// table is unlocked.
pub(crate) struct RunCollector {
    cid: u64,
    root_span: u64,
    page_size: usize,
    runs: Vec<PendingRun>,
}

impl RunCollector {
    /// Records one claimed run.
    pub(crate) fn data_request(
        &mut self,
        pager: &Arc<dyn PagerBackend>,
        object: ObjectId,
        offset: u64,
        length: u64,
        access: VmProt,
    ) {
        self.runs.push(PendingRun {
            pager: pager.clone(),
            object,
            offset,
            length,
            access,
            correlation: self.cid,
            parent_span: self.root_span,
            pages: (length as usize).div_ceil(self.page_size).max(1),
        });
    }
}

impl FaultEngine {
    /// The engine of the memory behind `phys`, idle until a fault parks.
    pub(crate) fn new(
        phys: Weak<PhysicalMemory>,
        machine: &Machine,
        cfg: FaultEngineConfig,
    ) -> Self {
        FaultEngine {
            phys,
            machine: machine.clone(),
            cfg: FaultEngineConfig {
                capacity: cfg.capacity.max(1),
            },
            table: ClassMutex::new(LockClass::FaultTable, Table::default()),
            space: wall::Signal::new(),
            stop: AtomicBool::new(false),
            stall: OnceLock::new(),
        }
    }

    fn phys(&self) -> Arc<PhysicalMemory> {
        self.phys
            .upgrade()
            .expect("invariant: the engine is reached only through its live PhysicalMemory")
    }

    /// Calls `hook(cid, started_ns)` once for each parked fault whose
    /// pager has answered no older fault of its object for
    /// [`WATCHDOG_DEBOUNCE`], oldest first. Install it before faults park;
    /// the first hook stays.
    pub fn watch_stalls(&self, hook: impl Fn(u64, u64) + Send + Sync + 'static) {
        let _ = self.stall.set(Box::new(hook));
    }

    #[cfg(test)]
    pub(crate) fn page_events(&self) -> u64 {
        self.table.lock().page_events
    }

    /// Outstanding parked continuations right now.
    pub fn outstanding(&self) -> usize {
        self.table.lock().conts.len()
    }

    /// Most continuations ever parked at once.
    pub fn max_outstanding(&self) -> usize {
        self.table.lock().high_water
    }

    /// Faults parked or being resumed — the host's in-flight count
    /// (`HostStatistics::in_flight`). A fault that need not wait is never
    /// in flight.
    pub fn in_flight(&self) -> usize {
        self.table.lock().admitted
    }

    /// Stops the engine: every still-parked fault errors with
    /// [`VmError::ObjectDestroyed`] and claimed fill windows are
    /// cancelled. Faults submitted afterwards resolve only if they need
    /// not wait. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.space.notify_all();
        // `park` reads `stop` under the table lock before it parks, so
        // nothing can join the table behind this drain.
        let phys = self.phys();
        let orphans = self.table.lock().unpark(|_| true);
        self.resume_all(&phys, orphans, Wake::Drained);
    }

    /// Submits a fault: steps the state machine on the caller and, if it
    /// must wait, parks it; returns the ticket.
    pub fn submit(
        &self,
        top: &Arc<VmObject>,
        offset: u64,
        access: VmProt,
        policy: FaultPolicy,
    ) -> FaultTicket {
        self.submit_run(top, offset, 1, access, policy)
    }

    /// Submits one fault over the `pages`-page run of `top` starting at
    /// `offset` (fault-ahead over an absent run; [`FaultEngine::submit`]
    /// is the run of one). The run is one fault in every account — one
    /// overhead charge, one trace chain, one admission slot and one policy
    /// deadline per wait. Each step walks the pages not yet resolved, in
    /// order: the first absent page asks its pager for all that follow
    /// it in one `pager_data_request` (pages that can only be asked for
    /// singly each ask, in the same step), the fault parks on the first
    /// page still pending, and the ticket completes once with every
    /// page's result ([`FaultTicket::wait_run`]) or with its first
    /// failing page's error.
    pub fn submit_run(
        &self,
        top: &Arc<VmObject>,
        offset: u64,
        pages: usize,
        access: VmProt,
        policy: FaultPolicy,
    ) -> FaultTicket {
        self.machine
            .clock
            .charge(self.machine.cost.fault_overhead_ns);
        self.machine.stats.incr(stat_keys::VM_FAULTS);
        let cid = CorrelationId::allocate();
        let _scope = CorrelationScope::enter(cid);
        // The chain root: explicitly parent 0 (the submitting thread may
        // still carry a previous fault's span context).
        let root_span = self.machine.span_open_under("fault.submit", 0);
        let _span = SpanScope::enter(root_span);
        let started_ns = self.machine.clock.now_ns();

        // Step first, on the caller: a fault that resolves here takes no
        // admission slot, no table lock and no shared ticket.
        let phys = self.phys();
        engine_call(|| {
            let mut state = FaultState::new(top, offset, pages, access, policy);
            let (step, runs) = Self::step(&phys, &mut state, cid, root_span);
            let wait = match step {
                FaultStep::Done(result) => {
                    if result.is_err() {
                        state.release_claims(&phys);
                    }
                    self.conclude(cid, root_span, started_ns, result.is_ok());
                    let outcome = TicketOutcome::Ready(result);
                    return FaultTicket {
                        cid,
                        root_span,
                        outcome,
                    };
                }
                FaultStep::Park(wait) => wait,
            };
            let latch = Arc::new(wall::Latch::default());
            let cont = Continuation {
                state,
                wait,
                cid,
                started_ns,
                parked_ns: started_ns,
                quiet_until: self
                    .stall
                    .get()
                    .map(|_| wall::Deadline::after(WATCHDOG_DEBOUNCE)),
                deadline: None,
                ticket: latch.clone(),
                root_span,
                parked_span: 0,
            };
            if let Some((cont, result)) = self.park(&phys, cont, wait, runs, true) {
                self.finish(cont, result);
            }
            let outcome = TicketOutcome::Parked(latch, self.phys.clone());
            FaultTicket {
                cid,
                root_span,
                outcome,
            }
        })
    }

    /// Resumes what a page event woke on this thread: at once if the
    /// thread is in no engine call, else on its list, for its outermost
    /// call.
    fn wake(&self, phys: &PhysicalMemory, woken: Vec<Continuation>) {
        if woken.is_empty() {
            return;
        }
        let mut woken = Some(woken);
        WOKEN.with_borrow_mut(|w| {
            if let Some(list) = w {
                let phys = self.phys();
                let woken = woken.take().into_iter().flatten();
                list.extend(woken.map(|cont| (phys.clone(), cont)));
            }
        });
        if let Some(woken) = woken {
            self.resume_all(phys, woken, Wake::Event);
        }
    }

    /// Resumes `conts` for `wake` on this thread, in one engine call.
    fn resume_all(&self, phys: &PhysicalMemory, conts: Vec<Continuation>, wake: Wake) {
        engine_call(|| {
            for cont in conts {
                self.resume(phys, cont, wake);
            }
        });
    }

    /// One page event for the pages of `object` at `offsets` — everything
    /// one operation cancelled, removed or installed singly: their
    /// waiters leave the table and resume on this thread. Called with the
    /// resident table unlocked (this table ranks above it).
    pub(crate) fn on_range_event(
        &self,
        phys: &PhysicalMemory,
        object: ObjectId,
        offsets: impl IntoIterator<Item = u64>,
    ) {
        let woken = Self::take_waiters(&mut self.table.lock(), object, offsets);
        self.wake(phys, woken);
    }

    /// The page event of a manager's answer, after its last page is
    /// applied: as [`FaultEngine::on_range_event`], noting the oldest
    /// fault it resumes for the watchdog under the same hold.
    pub(crate) fn on_reply(
        &self,
        phys: &PhysicalMemory,
        object: ObjectId,
        offsets: impl IntoIterator<Item = u64>,
    ) {
        let woken = {
            let mut t = self.table.lock();
            let woken = Self::take_waiters(&mut t, object, offsets);
            let oldest = woken.iter().map(|c| c.cid.raw()).min();
            if let Some(oldest) = oldest.filter(|_| self.stall.get().is_some()) {
                let quiet = wall::Deadline::after(WATCHDOG_DEBOUNCE);
                let seen = t.resolved.entry(object).or_insert((oldest, quiet));
                *seen = (seen.0.min(oldest), quiet);
            }
            woken
        };
        self.wake(phys, woken);
    }

    /// A manager's death, from its port's death notice: every fault parked
    /// on `object` leaves the table in one hold and fails with
    /// [`VmError::ObjectDestroyed`] (`vm.async.pager_dead`) on this
    /// thread, as will any that parks on it later.
    pub fn on_pager_death(&self, object: ObjectId) {
        let phys = self.phys();
        let dead = {
            let mut t = self.table.lock();
            t.dead.insert(object);
            t.unpark(|c| c.wait.object == object)
        };
        self.resume_all(&phys, dead, Wake::PagerDead);
    }

    /// Takes the continuations parked on the pages of `object` at
    /// `offsets` off the table.
    fn take_waiters(
        t: &mut Table,
        object: ObjectId,
        offsets: impl IntoIterator<Item = u64>,
    ) -> Vec<Continuation> {
        #[cfg(test)]
        {
            t.page_events += 1;
        }
        let cids: Vec<u64> = offsets
            .into_iter()
            .filter_map(|offset| t.waiters.remove(&(object, offset)))
            .flatten()
            .collect();
        cids.into_iter()
            .filter_map(|cid| t.conts.remove(&cid))
            .collect()
    }

    /// One step of `state`, and the pager requests it made. A step that
    /// claimed a run parks unless another page of the fault failed, and
    /// a failed fault releases every claim: a finished step's requests
    /// are never sent.
    fn step(
        phys: &PhysicalMemory,
        state: &mut FaultState,
        cid: CorrelationId,
        root_span: u64,
    ) -> (FaultStep, Vec<PendingRun>) {
        let mut sink = RunCollector {
            cid: cid.raw(),
            root_span,
            page_size: phys.page_size(),
            runs: Vec::new(),
        };
        let step = fault_step(phys, state, &mut sink);
        (step, sink.runs)
    }

    /// Processes a continuation taken off the table for `wake`, inside an
    /// engine call on this thread.
    fn resume(&self, phys: &PhysicalMemory, mut cont: Continuation, wake: Wake) {
        let now = self.machine.clock.now_ns();
        self.machine.latency.record(
            trace_keys::PARK_TO_RESUME,
            now.saturating_sub(cont.parked_ns),
        );
        if cont.parked_span != 0 {
            self.machine
                .span_close_with("fault.parked", cont.parked_span, Some(cont.cid));
            cont.parked_span = 0;
        }
        match wake {
            Wake::Event => {
                self.machine.stats.incr(stat_keys::VM_ASYNC_RESUMES);
                let cid = cont.cid;
                let resume =
                    self.machine
                        .span_open_with("fault.resume", cont.root_span, Some(cid), None);
                let done = self.step_and_park(phys, cont);
                self.machine
                    .span_close_with("fault.resume", resume, Some(cid));
                if let Some((cont, result)) = done {
                    self.finish(cont, result);
                }
            }
            Wake::Timeout => {
                // One deadline for the whole run: release what was
                // claimed, then walk on with the policy's action in
                // place of every wait — nothing is left to park on.
                self.machine.stats.incr(stat_keys::VM_ASYNC_TIMEOUTS);
                self.abandon(phys, &mut cont);
                cont.state.expire();
                if let Some((cont, result)) = self.step_and_park(phys, cont) {
                    self.finish(cont, result);
                }
            }
            Wake::PagerDead | Wake::Drained => {
                if matches!(wake, Wake::PagerDead) {
                    self.machine.stats.incr(stat_keys::VM_ASYNC_PAGER_DEAD);
                }
                self.abandon(phys, &mut cont);
                self.finish(cont, Err(VmError::ObjectDestroyed));
            }
        }
    }

    /// Re-steps a resumed continuation until done or parked again (see
    /// [`FaultEngine::park`]).
    fn step_and_park(
        &self,
        phys: &PhysicalMemory,
        mut cont: Continuation,
    ) -> Option<(Continuation, FaultOutcome)> {
        let _scope = CorrelationScope::enter(cont.cid);
        let _span = SpanScope::enter(cont.root_span);
        match Self::step(phys, &mut cont.state, cont.cid, cont.root_span) {
            (FaultStep::Done(result), _) => Some((cont, result)),
            (FaultStep::Park(wait), runs) => self.park(phys, cont, wait, runs, false),
        }
    }

    /// Parks `cont`, whose last step left it waiting on `wait` having
    /// claimed `runs`. Under one hold of the table lock it takes an
    /// admission slot if it holds none (`admit`), and registers
    /// the continuation after re-checking the wait *under that lock*
    /// (table → resident is the sanctioned order): an event that fired
    /// since the step re-steps the fault, which keeps its slot, instead
    /// of sleeping on a wakeup that already happened. The park lowers the
    /// engine's alarm to the fault's deadlines; this thread sends the runs
    /// once the table is unlocked, after the park. A re-park, on
    /// the thread that resumed the fault, re-arms a policy deadline its
    /// waiter has not seen, and nudges it to read the alarm again.
    ///
    /// A fault that must wait for an admission slot first sends its runs
    /// and resumes what its own thread woke: a claimed but unsent run, or
    /// a woken fault holding a slot on this thread's list, could strand
    /// the faults parked on its pages while its claimer waits for one of
    /// their slots. It waits until the alarm at most, and sweeps when it
    /// passes: the faults a stalled submitter holds may have no waiter yet.
    ///
    /// Returns the continuation and its result if the fault completed
    /// (for [`FaultEngine::finish`]), `None` if parked.
    fn park(
        &self,
        phys: &PhysicalMemory,
        mut cont: Continuation,
        mut wait: FaultWait,
        mut runs: Vec<PendingRun>,
        mut admit: bool,
    ) -> Option<(Continuation, FaultOutcome)> {
        let reparked = !admit;
        loop {
            cont.wait = wait;
            let mut t = self.table.lock();
            // Gating on `admitted` (not `conts.len()`) means resuming
            // faults keep their slot and `max_outstanding <= capacity`.
            while admit && t.admitted >= self.cfg.capacity && !self.stop.load(Ordering::Acquire) {
                self.machine.stats.incr(stat_keys::VM_ASYNC_BACKPRESSURE);
                if !runs.is_empty() {
                    drop(t);
                    self.flush_runs(std::mem::take(&mut runs));
                    t = self.table.lock();
                    continue;
                }
                let woken = take_woken();
                if !woken.is_empty() {
                    drop(t);
                    resume_woken(woken);
                    t = self.table.lock();
                    continue;
                }
                let alarm = t.alarm;
                if self.space.block(t.inner_mut(), alarm.as_ref()) {
                    drop(t);
                    self.sweep(phys);
                    t = self.table.lock();
                }
            }
            if admit {
                t.admitted += 1;
                admit = false;
            }
            let dead = t.dead.contains(&wait.object);
            if dead || self.stop.load(Ordering::Acquire) {
                // Nothing resumes a fault parked after shutdown, or on a
                // dead manager: give it the answer those before it got.
                drop(t);
                for run in &runs {
                    Self::cancel_run(phys, run);
                }
                self.abandon(phys, &mut cont);
                if dead {
                    self.machine.stats.incr(stat_keys::VM_ASYNC_PAGER_DEAD);
                }
                return Some((cont, Err(VmError::ObjectDestroyed)));
            }
            if protocol::must_park(Self::wait_blocked(phys, wait, cont.state.access)) {
                cont.parked_ns = self.machine.clock.now_ns();
                cont.deadline = cont.state.policy.pager_timeout.map(wall::Deadline::after);
                self.machine.stats.incr(stat_keys::VM_ASYNC_PARKS);
                // The park's depth: the continuations already parked.
                cont.parked_span = self.machine.span_open_with(
                    "fault.parked",
                    cont.root_span,
                    Some(cont.cid),
                    Some(t.conts.len() as u32),
                );
                let alarm = cont.alarms().min();
                t.alarm = t.alarm.into_iter().chain(alarm).min();
                let nudge = (reparked && alarm.is_some()).then(|| cont.ticket.clone());
                let raw = cont.cid.raw();
                t.waiters
                    .entry((wait.object, wait.offset))
                    .or_default()
                    .push(raw);
                t.conts.insert(raw, cont);
                let outstanding = t.conts.len();
                if outstanding > t.high_water {
                    t.high_water = outstanding;
                }
                drop(t);
                self.flush_runs(runs);
                if let Some(ticket) = nudge {
                    ticket.nudge();
                }
                return None;
            }
            drop(t);
            self.flush_runs(runs);
            (wait, runs) = match Self::step(phys, &mut cont.state, cont.cid, cont.root_span) {
                (FaultStep::Done(result), _) => return Some((cont, result)),
                (FaultStep::Park(wait), runs) => (wait, runs),
            };
        }
    }

    /// Whether `wait` still blocks a fault wanting `access`. Probes the
    /// resident table — legal while holding the continuation table lock
    /// (the table ranks above the resident table). A `Fill` wait is live only
    /// while the page is `Pending`; an `Unlock` wait only while the
    /// manager lock still intersects the access (a vanished page means
    /// re-step and re-probe).
    fn wait_blocked(phys: &PhysicalMemory, wait: FaultWait, access: VmProt) -> bool {
        match wait.kind {
            WaitKind::Fill => matches!(phys.lookup(wait.object, wait.offset), PageLookup::Pending),
            WaitKind::Unlock => match phys.page_lock(wait.object, wait.offset) {
                Some(lock) => lock.intersects(access),
                None => false,
            },
        }
    }

    /// Gives up on a wait that will not be waited out (timeout, dead
    /// pager, shutdown): releases the fill window the fault was waiting
    /// on, so no later fault strands on a pending entry nobody will fill.
    fn abandon(&self, phys: &PhysicalMemory, cont: &mut Continuation) {
        if cont.wait.kind == WaitKind::Fill {
            cont.state.cancel_claims(phys, cont.wait);
        }
    }

    /// The sweep, run by a thread blocked on the engine once the alarm
    /// passes (a no-op if another has swept it since): each answer since
    /// the last sweep pushes back the quiet deadline of the faults of its
    /// object younger than the oldest it resumed; faults quiet past it
    /// are reported, once each, oldest first; faults past their policy
    /// deadline resume with its action on this thread; the alarm moves to
    /// the next deadline of either kind.
    fn sweep(&self, phys: &PhysicalMemory) {
        let now = wall::now();
        let (expired, mut stalled) = {
            let mut t = self.table.lock();
            if !t.alarm.is_some_and(|at| at.expired_by(now)) {
                return;
            }
            self.machine.stats.incr(stat_keys::VM_TIMER_WAKEUPS);
            let resolved = std::mem::take(&mut t.resolved);
            let mut stalled = Vec::new();
            for (&cid, c) in t.conts.iter_mut() {
                let Some(quiet) = c.quiet_until.as_mut() else {
                    continue;
                };
                match resolved.get(&c.wait.object) {
                    Some(&(oldest, answered)) if oldest < cid => *quiet = (*quiet).max(answered),
                    _ => {}
                }
                if quiet.expired_by(now) {
                    c.quiet_until = None;
                    stalled.push((c.started_ns, cid));
                }
            }
            let expired = t.unpark(|c| c.deadline.is_some_and(|d| d.expired_by(now)));
            t.alarm = t.conts.values().flat_map(Continuation::alarms).min();
            (expired, stalled)
        };
        stalled.sort_unstable();
        if let Some(report) = self.stall.get() {
            for (started_ns, cid) in stalled {
                report(cid, started_ns);
            }
        }
        self.resume_all(phys, expired, Wake::Timeout);
    }

    /// Sends claimed request runs, grouped per (pager, object) through
    /// `data_request_many`: one IPC send per group, the groups in the
    /// order their first runs were claimed.
    fn flush_runs(&self, runs: Vec<PendingRun>) {
        let mut groups: Vec<(Arc<dyn PagerBackend>, ObjectId, Vec<PagerRequest>)> = Vec::new();
        for run in runs {
            let request = PagerRequest {
                offset: run.offset,
                length: run.length,
                access: run.access,
                correlation: run.correlation,
                parent_span: run.parent_span,
            };
            let group = groups
                .iter_mut()
                .find(|(pager, object, _)| *object == run.object && Arc::ptr_eq(pager, &run.pager));
            match group {
                Some((_, _, requests)) => requests.push(request),
                None => groups.push((run.pager, run.object, vec![request])),
            }
        }
        for (pager, object, requests) in groups {
            if requests.len() > 1 {
                self.machine.stats.incr(stat_keys::VM_PAGER_BATCHES);
            }
            pager.data_request_many(object, &requests);
        }
    }

    /// Releases the fill window of a run that `park` claimed but will not
    /// send (its manager is dead, or the engine stopped): the pending
    /// entries would otherwise strand later faults. Cancelling is
    /// idempotent, so racing an install is safe.
    fn cancel_run(phys: &PhysicalMemory, run: &PendingRun) {
        phys.cancel_fill_run(run.object, run.offset, run.pages);
    }

    /// Completes a parked fault: returns its admission slot, releases
    /// what a failed fault claimed, and fulfils the ticket.
    fn finish(&self, mut cont: Continuation, result: FaultOutcome) {
        {
            let mut t = self.table.lock();
            t.admitted = t.admitted.saturating_sub(1);
        }
        self.space.notify_all();
        if result.is_err() {
            cont.state.release_claims(&self.phys());
        }
        self.conclude(cont.cid, cont.root_span, cont.started_ns, result.is_ok());
        cont.ticket.set(result);
    }

    /// Any fault's end: records the resolution latency and closes the
    /// chain root with the fault's own correlation (the finishing thread
    /// need not be in its scope) — on every exit, Ok, Err, timeout
    /// or drain, so the critical-path analyzer never sees it unclosed.
    fn conclude(&self, cid: CorrelationId, root_span: u64, started_ns: u64, ok: bool) {
        if ok {
            self.machine.latency.record(
                trace_keys::FAULT_TO_RESOLUTION,
                self.machine.clock.now_ns().saturating_sub(started_ns),
            );
        }
        self.machine
            .span_close_with("fault.submit", root_span, Some(cid));
    }
}

#[cfg(test)]
mod tests {
    use super::PendingRun;
    use crate::object::test_support::{filled, RecordingPager};
    use crate::object::{ObjectId, PagerBackend, PagerRequest};
    use crate::{FaultPolicy, PhysicalMemory, VmObject, VmProt};
    use machipc::OolBuffer;
    use machsim::stats::keys;
    use machsim::trace::EventKind;
    use machsim::Machine;
    use std::sync::{Arc, Mutex};

    /// Logs each `data_request_many` it is sent as `(its name, object)`,
    /// in a log it may share with other pagers.
    struct LoggingPager {
        name: usize,
        log: Arc<Mutex<Vec<(usize, ObjectId)>>>,
    }

    impl PagerBackend for LoggingPager {
        fn data_request(&self, _object: ObjectId, _offset: u64, _length: u64, _access: VmProt) {}

        fn data_request_many(&self, object: ObjectId, _runs: &[PagerRequest]) {
            self.log
                .lock()
                .expect("request log")
                .push((self.name, object));
        }

        fn data_write(&self, _object: ObjectId, _offset: u64, _data: OolBuffer) {}

        fn data_unlock(&self, _object: ObjectId, _offset: u64, _length: u64, _access: VmProt) {}
    }

    /// Runs for 8 objects of 2 pagers that share one log leave one group
    /// per (pager, object), in the order each group's first run was
    /// booked: a later run of the first object joins its group.
    #[test]
    fn flushed_runs_leave_in_booking_order() {
        let m = Machine::default_machine();
        let phys = PhysicalMemory::new(&m, 16 * 4096, 4096, 2);
        let log = Arc::new(Mutex::new(Vec::new()));
        let pagers: Vec<Arc<dyn PagerBackend>> = (0..2)
            .map(|name| {
                let log = log.clone();
                Arc::new(LoggingPager { name, log }) as Arc<dyn PagerBackend>
            })
            .collect();
        let booked: Vec<(usize, ObjectId)> = [7, 2, 5, 0, 3, 6, 1, 4]
            .into_iter()
            .enumerate()
            .map(|(i, object)| (i % 2, ObjectId(object)))
            .collect();
        let run = |&(pager, object): &(usize, ObjectId), offset| PendingRun {
            pager: pagers[pager].clone(),
            object,
            offset,
            length: 4096,
            access: VmProt::READ,
            correlation: 0,
            parent_span: 0,
            pages: 1,
        };
        let mut runs: Vec<_> = booked.iter().map(|key| run(key, 0)).collect();
        runs.push(run(&booked[0], 4096));
        phys.fault_engine().flush_runs(runs);
        assert_eq!(*log.lock().expect("request log"), booked);
        assert_eq!(m.stats.get(keys::VM_PAGER_BATCHES), 1);
    }

    /// Two faults parked on a pager that never answers: each park's span
    /// records the continuations already parked ahead of it.
    #[test]
    fn a_parked_span_records_the_faults_parked_ahead() {
        let m = Machine::default_machine();
        let phys = PhysicalMemory::new(&m, 64 * 4096, 4096, 4);
        let pager = Arc::new(RecordingPager::default());
        let object = VmObject::new_with_pager(64 * 4096, pager.clone());
        let engine = phys.fault_engine();
        let tickets: Vec<_> = [0, 32 * 4096]
            .into_iter()
            .map(|off| engine.submit(&object, off, VmProt::READ, FaultPolicy::trusting()))
            .collect();
        assert_eq!(engine.outstanding(), 2);
        let depths: Vec<_> = machsim::span::collect(&m.trace.snapshot())
            .into_iter()
            .filter(|s| s.name == "fault.parked")
            .map(|s| s.depth)
            .collect();
        assert_eq!(depths, [Some(0), Some(1)]);
        for off in [0, 32 * 4096] {
            phys.supply_page(&object, off, filled(1, 4096), VmProt::NONE)
                .expect("memory for both pages");
        }
        assert!(tickets.iter().all(|t| t.is_done()));
    }

    /// A dead manager's faults resume oldest first: the table keeps its
    /// continuations in correlation order, so the `fault.parked` spans of
    /// 64 faults on distinct pages close in the order the faults began.
    #[test]
    fn a_pager_death_resumes_its_faults_oldest_first() {
        const FAULTS: u64 = 64;
        let m = Machine::default_machine();
        let phys = PhysicalMemory::new(&m, 2 * FAULTS as usize * 4096, 4096, 4);
        let pager = Arc::new(RecordingPager::default());
        let object = VmObject::new_with_pager(FAULTS * 4096, pager.clone());
        let engine = phys.fault_engine();
        let tickets: Vec<_> = (0..FAULTS)
            .map(|i| engine.submit(&object, i * 4096, VmProt::READ, FaultPolicy::trusting()))
            .collect();
        assert_eq!(engine.outstanding(), FAULTS as usize);

        engine.on_pager_death(object.id());
        assert!(tickets.iter().all(|t| t.is_done()));
        let closed: Vec<u64> = m
            .trace
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == EventKind::SpanClose("fault.parked"))
            .filter_map(|e| e.correlation_id.map(|cid| cid.raw()))
            .collect();
        assert_eq!(closed.len(), FAULTS as usize);
        assert!(
            closed.windows(2).all(|w| w[0] < w[1]),
            "parked spans closed out of cid order: {closed:?}"
        );
    }
}
