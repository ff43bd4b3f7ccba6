//! The continuation-based fault engine: the one driver of the fault
//! state machine. Every fault is a ticket.
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
//! * [`FaultEngine::submit`] runs the fault state machine
//!   ([`crate::fault::fault_step`]) until it must wait, then *parks* the
//!   [`FaultState`] in a bounded continuation table and returns a
//!   [`FaultTicket`] — the submitting thread is free immediately.
//! * A fault covers a *run* of pages ([`FaultEngine::submit_run`];
//!   `submit` is the run of one): `pager_data_request(offset, length)` and
//!   `pager_data_provided` are range operations, and so is the fault
//!   between them. A run is one fault in every account — one overhead
//!   charge, one admission slot, one trace chain, one deadline per wait —
//!   whose step asks for everything its pages need, which parks on its
//!   first page still pending, and whose ticket completes once with every
//!   page's result.
//! * Page events (fill installed or cancelled, manager lock changed, page
//!   removed) are reported by the owning [`PhysicalMemory`] straight into
//!   the engine — one event per `pager_data_provided` buffer, after its
//!   last page is installed, so the run parked on it is resumed once; a
//!   single completion-loop thread pops the woken continuations and
//!   re-steps them, completing tickets or re-parking.
//! * `pager_data_request`s produced while stepping are not sent inline:
//!   they accumulate as *runs* and are flushed per (pager, object) through
//!   [`PagerBackend::data_request_many`] — one batched IPC send carrying
//!   many faults' worth of requests (deep pager batching over
//!   `send_many`).
//! * Backpressure is explicit at both ends: the table is bounded
//!   (submitters wait for space — `vm.async.backpressure`), and each pager
//!   has an in-flight page cap (excess runs are deferred until completions
//!   drain — `vm.pager_deferred_runs`).
//!
//! # Observability through the hop
//!
//! Parking must not break the causal chain. Each fault's
//! [`CorrelationId`] is allocated at submit, stamped into every batched
//! request run (so the manager's reply still correlates), carried on the
//! parked continuation, and re-entered as the trace scope whenever the
//! completion loop steps it. The flight recorder `begin`s at submit and
//! `end`s at completion — a fault that times out *cleanly* (its policy
//! deadline fires) ends its chain without being counted as a watchdog
//! stall, while a genuinely wedged fault is still caught and flagged.
//!
//! # Ownership and shutdown
//!
//! The engine is a field of its [`PhysicalMemory`], built with it, and
//! reaches back through a weak reference. The completion-loop thread
//! starts at the first park ([`FaultEngine::start_worker`]; a kernel
//! calls it at boot, because the loop's tick also samples the machine's
//! gauges) and holds only a weak reference too: a bare memory that never
//! parks never spawns one, and dropping the last `Arc<PhysicalMemory>`
//! ends it within a tick. After
//! [`FaultEngine::shutdown`] nothing can resume a parked fault, so a
//! fault is stepped once on its caller: hits, zero fills and
//! copy-on-write copies still resolve, and one that would have to park
//! releases what it claimed and fails with [`VmError::ObjectDestroyed`] —
//! the answer shutdown gives every fault that was parked.
//!
//! # Locking
//!
//! The continuation table is `LockClass::FaultTable`, ranked *outermost*
//! (above `Resident`): the engine may lock the table and then probe the
//! resident table for the park/recheck race, never the reverse. Page
//! events are therefore reported only after the resident table is
//! unlocked. Stepping a continuation — which takes the resident table,
//! frame and queue locks freely — always happens with the table unlocked. A fault that need
//! not wait takes the table twice (admission, completion); one that
//! parks once costs six acquisitions whatever the length of its run
//! (admission; booking its requests and parking, under one hold; the
//! loop's flush; the fill's one event; the loop's wake-up; completion —
//! `tests/fault_locks.rs`).
//!
//! # Timeouts, death and the stale sweep
//!
//! The completion loop doubles as the timer wheel. Every parked
//! continuation re-arms its policy deadline at each park (the timeout is
//! per wait, not per fault — and not per page: a run has one); the
//! loop's periodic
//! sweep — rate-limited to once per tick, since it is O(parked) —
//! expires deadlines (cancelling every claimed fill window, then
//! re-stepping the fault with the policy action — fail or zero-fill — in
//! place of every wait), and probes continuations
//! parked suspiciously long: a dead pager port errors the fault
//! (`vm.async.pager_dead`), a wait that is no longer blocked resumes it
//! (missed-wakeup insurance), and a still-blocked wait is simply
//! re-armed. Every missed-wakeup race is a bounded delay, not a hang,
//! and a deep backlog costs one probe per interval, not a re-step.

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
use machsim::{wall, EventKind, Machine};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// How long the completion loop sleeps when no event arrives — the timer
/// resolution for deadlines, death detection and the stale sweep.
const TICK: Duration = Duration::from_millis(1);

/// A continuation parked longer than this gets a defensive in-place
/// probe (pager liveness + is-the-wait-really-still-blocked) even
/// without an observed page event — missed-wakeup insurance. Probes cost
/// a table lookup per continuation, so the interval is deliberately lazy;
/// the event hook is the fast path, this is only the safety net.
const STALE_RECHECK: Duration = Duration::from_millis(20);

/// Tuning knobs for the [`FaultEngine`].
#[derive(Clone, Copy, Debug)]
pub struct FaultEngineConfig {
    /// Bound on simultaneously parked continuations; submitters block
    /// (briefly, with `vm.async.backpressure` counted) when the table is
    /// full. This is the "thousands of outstanding faults" budget.
    pub capacity: usize,
    /// Per-pager cap on requested-but-unanswered pages; runs beyond it
    /// are deferred until completions drain, so one slow pager queues
    /// inside the kernel instead of flooding its port.
    pub pager_inflight_pages: usize,
}

impl Default for FaultEngineConfig {
    fn default() -> Self {
        FaultEngineConfig {
            capacity: 4096,
            pager_inflight_pages: 1024,
        }
    }
}

/// The caller's handle to a submitted fault: a one-shot completion slot.
#[derive(Clone)]
pub struct FaultTicket {
    inner: Arc<TicketInner>,
}

struct TicketInner {
    slot: Mutex<Option<FaultOutcome>>,
    done: Condvar,
    cid: CorrelationId,
    root_span: u64,
}

impl FaultTicket {
    fn new(cid: CorrelationId, root_span: u64) -> Self {
        FaultTicket {
            inner: Arc::new(TicketInner {
                slot: Mutex::new(None),
                done: Condvar::new(),
                cid,
                root_span,
            }),
        }
    }

    /// The correlation id tying this fault's trace events, pager requests
    /// and resolution into one chain.
    pub fn correlation(&self) -> CorrelationId {
        self.inner.cid
    }

    /// The root span id of this fault's chain (the `fault.submit` span),
    /// for adopting the chain context after [`FaultTicket::wait`].
    pub fn span(&self) -> u64 {
        self.inner.root_span
    }

    /// Whether the fault has completed (without blocking).
    pub fn is_done(&self) -> bool {
        self.inner.slot.lock().is_some()
    }

    /// Blocks until the fault completes and returns its result (for a
    /// fault over a run, its first page's). The engine guarantees
    /// completion: every parked continuation either resumes, times out
    /// by policy, or is errored at engine shutdown.
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
        let mut slot = self.inner.slot.lock();
        while slot.is_none() {
            self.inner.done.wait(&mut slot);
        }
        slot.clone()
            .expect("invariant: the wait loop exits only once the slot is filled")
    }

    fn fulfill(&self, result: FaultOutcome) {
        let mut slot = self.inner.slot.lock();
        *slot = Some(result);
        self.inner.done.notify_all();
    }
}

/// One batched `pager_data_request` not yet sent: a contiguous claimed
/// run plus the claiming fault's correlation id.
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
    /// Pages in the run (the unit of in-flight accounting).
    pages: usize,
}

impl PendingRun {
    fn pager_key(&self) -> usize {
        Arc::as_ptr(&self.pager) as *const () as usize
    }
}

/// Moves the runs fault `cid` booked out of `queue` (order kept) into `out`.
fn purge<Q>(queue: &mut Q, cid: u64, out: &mut Vec<PendingRun>)
where
    Q: Default + Extend<PendingRun> + IntoIterator<Item = PendingRun>,
{
    for run in std::mem::take(queue) {
        if run.correlation == cid {
            out.push(run);
        } else {
            queue.extend([run]);
        }
    }
}

/// A parked fault: the captured state machine plus resume bookkeeping.
struct Continuation {
    state: FaultState,
    wait: FaultWait,
    cid: CorrelationId,
    started_ns: u64,
    parked_ns: u64,
    /// Fires when the park has lasted long enough for a defensive
    /// recheck.
    stale_at: wall::Deadline,
    /// Policy deadline, re-armed at every park (the timeout is per wait).
    deadline: Option<wall::Deadline>,
    ticket: FaultTicket,
    /// In-flight pages this fault's outstanding runs hold against their
    /// pagers: `(pager key, pages)` each. Returned when the fault is
    /// stepped again (or ends).
    inflight: Vec<(usize, usize)>,
    /// Requests this fault booked that may still sit unsent in the batch
    /// queues, counted down as they are flushed; a fault that completes
    /// with any left pulls them back out. A fault that never asked a
    /// pager for anything (resident hit, zero fill, copy-on-write)
    /// completes without looking.
    queued: usize,
    /// The fault's root span (`fault.submit`), parent of every phase span
    /// the chain opens — on this host and, via the stamped requests, on
    /// the pager side.
    root_span: u64,
    /// The currently open `fault.parked` span, 0 while running. Closed by
    /// the completion loop when the continuation is taken off the table.
    parked_span: u64,
}

/// Why a continuation is being taken off the table for processing.
enum Wake {
    /// A page event (or stale recheck): re-step the state machine.
    Event,
    /// The policy deadline fired.
    Timeout,
    /// The backing pager's port died.
    PagerDead,
}

#[derive(Default)]
struct Table {
    /// Parked continuations by raw correlation id.
    conts: HashMap<u64, Continuation>,
    /// Park index: page key → raw cids waiting on it.
    waiters: HashMap<(ObjectId, u64), Vec<u64>>,
    /// Cids with an observed page event, pending processing.
    ready: Vec<u64>,
    /// Request runs ready to flush in the next batch.
    runs: Vec<PendingRun>,
    /// Runs held back by a pager's in-flight cap.
    deferred: VecDeque<PendingRun>,
    /// Requested-but-unanswered pages per pager key.
    inflight: HashMap<usize, usize>,
    /// Admitted-but-not-finished faults: incremented when a submitter
    /// clears backpressure, decremented when its fault completes. Parked
    /// *and* mid-step faults count, so `conts.len() <= admitted <=
    /// capacity` and the table can never exceed its budget — the old
    /// `conts.len()`-based gate admitted while woken continuations were
    /// being stepped, letting `high_water` overshoot `capacity` by the
    /// completion batch (the +1/+... off-by-one the scaling bench saw).
    admitted: usize,
    /// Most continuations ever parked at once (bench: max outstanding).
    high_water: usize,
    /// Next time the periodic sweep may run (`None` = due now). The
    /// sweep is O(parked continuations), so it is rate-limited to once
    /// per [`TICK`] no matter how often events wake the loop.
    next_sweep: Option<wall::Deadline>,
    /// Page events reported so far: lets a test assert that an operation
    /// reports none.
    #[cfg(test)]
    page_events: u64,
}

impl Table {
    fn discharge(&mut self, key: usize, pages: usize) {
        if let Some(used) = self.inflight.get_mut(&key) {
            *used = used.saturating_sub(pages);
            if *used == 0 {
                self.inflight.remove(&key);
            }
        }
    }

    fn unindex(&mut self, cid: u64, wait: FaultWait) {
        if let Some(v) = self.waiters.get_mut(&(wait.object, wait.offset)) {
            v.retain(|&x| x != cid);
            if v.is_empty() {
                self.waiters.remove(&(wait.object, wait.offset));
            }
        }
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
    /// Signals the completion loop: events queued or shutdown.
    work: Condvar,
    /// Signals submitters blocked on a full table.
    space: Condvar,
    stop: AtomicBool,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// Where a stepped fault puts its `pager_data_request`s: they are
/// recorded, not sent, so the engine can batch, cap and correlate them
/// under the table lock.
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
                pager_inflight_pages: cfg.pager_inflight_pages.max(1),
            },
            table: ClassMutex::new(LockClass::FaultTable, Table::default()),
            work: Condvar::new(),
            space: Condvar::new(),
            stop: AtomicBool::new(false),
            worker: Mutex::new(None),
        }
    }

    fn phys(&self) -> Arc<PhysicalMemory> {
        self.phys
            .upgrade()
            .expect("invariant: the engine is reached only through its live PhysicalMemory")
    }

    /// Starts the completion loop unless it runs already (or the engine
    /// has been shut down). The first fault to park does this itself; a
    /// kernel calls it at boot because the loop's tick also samples the
    /// machine's gauges. The loop holds only a weak reference to the
    /// memory: once every owner has dropped it, the thread exits on its
    /// next tick instead of keeping the memory alive forever.
    pub fn start_worker(&self) {
        let mut worker = self.worker.lock();
        if worker.is_some() || self.stop.load(Ordering::Acquire) {
            return;
        }
        let weak = self.phys.clone();
        let handle = std::thread::Builder::new()
            .name("fault-engine".into())
            .spawn(move || {
                while let Some(phys) = weak.upgrade() {
                    if !phys.fault_engine().run_once(&phys) {
                        return;
                    }
                }
            })
            .expect("spawn fault-engine thread");
        *worker = Some(handle);
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

    /// Requested-but-unanswered pages summed over every pager — the
    /// `gauge.pager.inflight_pages` telemetry source.
    pub fn inflight_pages(&self) -> usize {
        self.table.lock().inflight.values().sum()
    }

    /// The engine's configuration.
    pub fn config(&self) -> FaultEngineConfig {
        self.cfg
    }

    /// Stops the engine: the completion loop is joined, every still-parked
    /// fault errors with [`VmError::ObjectDestroyed`] and claimed fill
    /// windows are cancelled. Faults submitted afterwards resolve only if
    /// they need not wait. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.work.notify_all();
        self.space.notify_all();
        let handle = self.worker.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
        // `step_and_park` reads `stop` under the table lock before it
        // parks, so nothing can join the table behind this drain.
        self.drain_parked();
    }

    /// Submits a fault: runs the state machine to its first wait, parks
    /// it, and returns the ticket.
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
    /// overhead charge, one admission slot, one trace chain, one policy
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
        self.machine.hot.vm_faults.incr();
        let cid = CorrelationId::allocate();
        let _scope = CorrelationScope::enter(cid);
        self.machine.trace_event("vm.fault", EventKind::Fault);
        // The chain root: explicitly parent 0 (the submitting thread may
        // still carry a previous fault's span context).
        let root_span = self.machine.span_open_under("fault.submit", 0);
        let ticket = FaultTicket::new(cid, root_span);
        let started_ns = self.machine.clock.now_ns();
        self.machine.flight.begin(cid.raw(), "vm.fault", started_ns);

        // Backpressure: take an admission slot before stepping, so a full
        // engine slows admission instead of growing without bound. Gating
        // on `admitted` (not `conts.len()`) means mid-step faults still
        // hold their slot and `max_outstanding <= capacity` exactly.
        {
            let mut t = self.table.lock();
            while t.admitted >= self.cfg.capacity && !self.stop.load(Ordering::Acquire) {
                self.machine.stats.incr(stat_keys::VM_ASYNC_BACKPRESSURE);
                self.work.notify_all();
                self.space.wait_for(t.inner_mut(), TICK);
            }
            t.admitted += 1;
        }

        let cont = Continuation {
            state: FaultState::new(top, offset, pages, access, policy),
            wait: FaultWait {
                object: top.id(),
                offset,
                kind: WaitKind::Fill,
            },
            cid,
            started_ns,
            parked_ns: started_ns,
            stale_at: wall::Deadline::after(STALE_RECHECK),
            deadline: None,
            ticket: ticket.clone(),
            inflight: Vec::new(),
            queued: 0,
            root_span,
            parked_span: 0,
        };
        match self.step_and_park(&self.phys(), cont) {
            Some((cont, result)) => self.finish(cont, result),
            None => self.start_worker(),
        }
        ticket
    }

    /// One page event for the pages of `object` at `offsets` — everything
    /// one operation installed, cancelled, removed or relocked: a waiter
    /// of any of them is made ready, and the completion loop kicked, under
    /// one hold of the table lock. Called with the resident table
    /// unlocked (this table ranks above it), and by a multi-page install
    /// only after its last page is in, so a fault parked on the first page
    /// of the run is resumed once and finds the rest resident.
    pub(crate) fn on_range_event(&self, object: ObjectId, offsets: impl IntoIterator<Item = u64>) {
        let mut t = self.table.lock();
        #[cfg(test)]
        {
            t.page_events += 1;
        }
        if t.waiters.is_empty() {
            return;
        }
        let t = &mut *t;
        let ready_before = t.ready.len();
        for offset in offsets {
            if let Some(cids) = t.waiters.remove(&(object, offset)) {
                t.ready.extend(cids);
            }
        }
        if t.ready.len() > ready_before {
            self.work.notify_all();
        }
    }

    /// Steps `cont` until done or parked. On park, books the request the
    /// step made and registers the continuation under one hold of the
    /// table lock — so the completion loop never sees a request without
    /// its claimer — and re-checks the wait condition *under that lock*
    /// (table → resident is the sanctioned order), so an event that fired
    /// between the step and the registration re-steps instead of sleeping
    /// on a wakeup that already happened.
    ///
    /// Returns the continuation and its result if the fault completed
    /// (for [`FaultEngine::finish`]), `None` if parked.
    fn step_and_park(
        &self,
        phys: &PhysicalMemory,
        mut cont: Continuation,
    ) -> Option<(Continuation, FaultOutcome)> {
        let _scope = CorrelationScope::enter(cont.cid);
        let _span = SpanScope::enter(cont.root_span);
        // The charges for the runs `cont` had outstanding when it parked
        // last (`cont.inflight`) are returned to the pagers' budgets
        // unless the fault re-parks on the *same* pending fill without
        // issuing a new request (the stale-recheck no-op).
        let prev_wait = cont.wait;
        loop {
            let mut sink = RunCollector {
                cid: cont.cid.raw(),
                root_span: cont.root_span,
                page_size: phys.page_size(),
                runs: Vec::new(),
            };
            let step = fault_step(phys, &mut cont.state, &mut sink);
            let wait = match step {
                FaultStep::Done(result) => {
                    // `finish` returns the old charges and pulls back any
                    // request of a run that failed on another page.
                    if !sink.runs.is_empty() {
                        self.book(&mut self.table.lock(), &mut cont, sink.runs);
                    }
                    return Some((cont, result));
                }
                FaultStep::Park(wait) => wait,
            };
            let same_fill = sink.runs.is_empty()
                && wait.kind == WaitKind::Fill
                && prev_wait.kind == WaitKind::Fill
                && wait.object == prev_wait.object
                && wait.offset == prev_wait.offset;
            cont.wait = wait;
            let mut t = self.table.lock();
            if !same_fill {
                self.book(&mut t, &mut cont, sink.runs);
            }
            if self.stop.load(Ordering::Acquire) {
                // Nothing resumes a fault parked after shutdown: give it
                // the answer the shutdown drain gave those before it.
                drop(t);
                self.abandon(phys, &mut cont);
                return Some((cont, Err(VmError::ObjectDestroyed)));
            }
            if !protocol::must_park(Self::wait_blocked(phys, wait, cont.state.access)) {
                continue;
            }
            cont.parked_ns = self.machine.clock.now_ns();
            cont.stale_at = wall::Deadline::after(STALE_RECHECK);
            cont.deadline = cont.state.policy.pager_timeout.map(wall::Deadline::after);
            self.machine.stats.incr(stat_keys::VM_ASYNC_PARKS);
            cont.parked_span = self.machine.span_open_under("fault.parked", cont.root_span);
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
            self.work.notify_all();
            return None;
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

    /// Returns the continuation's previous charges to the pagers' budgets
    /// and books a step's produced runs into the batch queue — charging
    /// the pager's in-flight budget or deferring past-cap runs. Caller
    /// holds the table lock.
    fn book(&self, t: &mut Table, cont: &mut Continuation, runs: Vec<PendingRun>) {
        for (key, pages) in cont.inflight.drain(..) {
            t.discharge(key, pages);
        }
        for run in runs {
            let key = run.pager_key();
            let used = *t.inflight.get(&key).unwrap_or(&0);
            cont.queued += 1;
            if used == 0 || used + run.pages <= self.cfg.pager_inflight_pages {
                *t.inflight.entry(key).or_insert(0) += run.pages;
                cont.inflight.push((key, run.pages));
                t.runs.push(run);
            } else {
                self.machine.stats.incr(stat_keys::VM_PAGER_DEFERRED_RUNS);
                t.deferred.push_back(run);
            }
        }
    }

    /// Moves deferred runs whose pager has headroom into the flush queue,
    /// charging their claiming continuation. A run whose claimer already
    /// completed is dropped: its claim windows were cancelled, so sending
    /// it would fill pages nobody waits for. Caller holds the table lock.
    fn promote_deferred(&self, t: &mut Table) {
        if t.deferred.is_empty() {
            return;
        }
        let cap = self.cfg.pager_inflight_pages;
        let mut still = VecDeque::new();
        while let Some(run) = t.deferred.pop_front() {
            if !t.conts.contains_key(&run.correlation) {
                // The claimer is off the table being re-stepped (woken
                // with its run still deferred): hold the run for the
                // next tick. Completed claimers never appear here —
                // `finish` purges their unsent runs.
                still.push_back(run);
                continue;
            }
            let key = run.pager_key();
            let used = *t.inflight.get(&key).unwrap_or(&0);
            if used == 0 || used + run.pages <= cap {
                *t.inflight.entry(key).or_insert(0) += run.pages;
                if let Some(c) = t.conts.get_mut(&run.correlation) {
                    c.inflight.push((key, run.pages));
                }
                t.runs.push(run);
            } else {
                still.push_back(run);
            }
        }
        t.deferred = still;
    }

    /// Errors every currently-parked fault without stopping the engine:
    /// tickets fulfill with [`VmError::ObjectDestroyed`], so a thread
    /// blocked in [`FaultTicket::wait`] is guaranteed to return, and the
    /// fill windows of never-sent runs are released. The kernel's teardown
    /// path calls this when the scheduler's bounded quiesce times out — a
    /// worker is wedged on a fault whose pager never answered, and only
    /// the engine can break that wait. Faults submitted afterwards park
    /// (and resolve) normally.
    pub fn drain_parked(&self) {
        let phys = self.phys();
        let mut t = self.table.lock();
        let orphans: Vec<Continuation> = t.conts.drain().map(|(_, c)| c).collect();
        t.waiters.clear();
        t.ready.clear();
        let mut unsent: Vec<PendingRun> = t.runs.drain(..).collect();
        unsent.extend(t.deferred.drain(..));
        t.inflight.clear();
        t.admitted = t.admitted.saturating_sub(orphans.len());
        drop(t);
        for run in unsent {
            Self::cancel_run(&phys, &run);
        }
        // The table's side of each orphan (admission slot, charge, unsent
        // run) went with the drain above; only the fault's own end is left.
        for mut c in orphans {
            self.abandon(&phys, &mut c);
            self.finish_tail(&c, Err(VmError::ObjectDestroyed));
        }
        self.space.notify_all();
    }

    /// Gives up on a wait that will not be waited out (timeout, dead
    /// pager, shutdown): releases the fill window the fault was waiting
    /// on, so no later fault strands on a pending entry nobody will fill.
    fn abandon(&self, phys: &PhysicalMemory, cont: &mut Continuation) {
        if cont.wait.kind == WaitKind::Fill {
            cont.state.cancel_claims(phys, cont.wait);
        }
    }

    /// One completion-loop iteration: wait for work, pop woken/expired/
    /// orphaned continuations, flush the request batch, then process each
    /// continuation outside the table lock. Returns `false` when the
    /// engine has stopped and drained.
    fn run_once(&self, phys: &PhysicalMemory) -> bool {
        let mut woken: Vec<(Continuation, Wake)> = Vec::new();
        let mut tick_elapsed = false;
        let flush: Vec<PendingRun>;
        {
            let mut t = self.table.lock();
            if protocol::engine_may_sleep(
                t.ready.is_empty(),
                t.runs.is_empty(),
                self.stop.load(Ordering::Acquire),
            ) {
                self.work.wait_for(t.inner_mut(), TICK);
            }
            if self.stop.load(Ordering::Acquire) {
                return false;
            }
            let ready = std::mem::take(&mut t.ready);
            for cid in ready {
                if let Some(c) = t.conts.remove(&cid) {
                    woken.push((c, Wake::Event));
                }
            }
            // Periodic sweep, rate-limited to once per TICK (it is
            // O(parked) and the loop may wake far more often than that):
            // policy deadlines against a single clock read, and — only
            // for continuations parked past STALE_RECHECK — a liveness +
            // missed-wakeup probe. A still-blocked stale continuation is
            // re-armed in place rather than re-stepped, so a deep
            // backlog costs one table lookup per interval instead of a
            // full park/re-park cycle through the table.
            let now_wall = wall::now();
            if t.next_sweep.map(|d| d.expired_by(now_wall)).unwrap_or(true) {
                t.next_sweep = Some(wall::Deadline::after(TICK));
                tick_elapsed = true;
                let mut swept: Vec<(u64, Wake)> = Vec::new();
                for (&cid, c) in t.conts.iter_mut() {
                    if c.deadline.map(|d| d.expired_by(now_wall)).unwrap_or(false) {
                        swept.push((cid, Wake::Timeout));
                    } else if c.stale_at.expired_by(now_wall) {
                        if !c
                            .state
                            .current_object()
                            .pager()
                            .map(|p| p.is_alive())
                            .unwrap_or(true)
                        {
                            swept.push((cid, Wake::PagerDead));
                        } else if !Self::wait_blocked(phys, c.wait, c.state.access) {
                            // The wakeup was missed: resume it.
                            swept.push((cid, Wake::Event));
                        } else {
                            c.stale_at = wall::Deadline::after(STALE_RECHECK);
                        }
                    }
                }
                for (cid, wake) in swept {
                    if let Some(c) = t.conts.remove(&cid) {
                        // Drop the park-index entry so a later page event
                        // cannot push the departed cid into `ready`.
                        t.unindex(cid, c.wait);
                        woken.push((c, wake));
                    }
                }
            }
            self.promote_deferred(&mut t);
            flush = std::mem::take(&mut t.runs);
            for run in &flush {
                if let Some(c) = t.conts.get_mut(&run.correlation) {
                    c.queued = c.queued.saturating_sub(1);
                }
            }
            if !woken.is_empty() {
                self.space.notify_all();
            }
        }

        self.flush_runs(flush);

        // Gauge sampling rides the same once-per-TICK gate as the sweep.
        // It must run with the table unlocked: gauge read closures may
        // call back into [`FaultEngine::outstanding`]/[`inflight_pages`].
        if tick_elapsed {
            self.machine.sample_gauges();
        }

        for (mut cont, wake) in woken {
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
                            .span_open_with("fault.resume", cont.root_span, Some(cid));
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
                Wake::PagerDead => {
                    self.machine.stats.incr(stat_keys::VM_ASYNC_PAGER_DEAD);
                    self.abandon(phys, &mut cont);
                    self.finish(cont, Err(VmError::ObjectDestroyed));
                }
            }
        }
        true
    }

    /// Sends queued request runs, grouped per (pager, object) through
    /// `data_request_many` — the deep batch: one IPC send carries every
    /// run that accumulated since the last flush.
    fn flush_runs(&self, runs: Vec<PendingRun>) {
        if runs.is_empty() {
            return;
        }
        // One uncorrelated span per flush: the batch serves many chains,
        // so it cannot belong to any one of them, but its width (in sim
        // time) is exactly the deep-batching win the profiler should see.
        let flush_span = self.machine.span_open_with("pager.flush", 0, None);
        type Group = (Arc<dyn PagerBackend>, Vec<PagerRequest>);
        let mut groups: HashMap<(usize, ObjectId), Group> = HashMap::new();
        for run in runs {
            let key = (run.pager_key(), run.object);
            groups
                .entry(key)
                .or_insert_with(|| (run.pager.clone(), Vec::new()))
                .1
                .push(PagerRequest {
                    offset: run.offset,
                    length: run.length,
                    access: run.access,
                    correlation: run.correlation,
                    parent_span: run.parent_span,
                });
        }
        for ((_, object), (pager, reqs)) in groups {
            if reqs.len() > 1 {
                self.machine.stats.incr(stat_keys::VM_PAGER_BATCHES);
            }
            pager.data_request_many(object, &reqs);
        }
        self.machine
            .span_close_with("pager.flush", flush_span, None);
    }

    /// Releases the fill window of a run that was never sent to its
    /// pager: the pending entries would otherwise strand later faults.
    /// Cancelling is idempotent, so racing an install is safe.
    fn cancel_run(phys: &PhysicalMemory, run: &PendingRun) {
        phys.cancel_fill_run(run.object, run.offset, run.pages);
    }

    /// Completes a fault. One hold of the table lock returns its admission
    /// slot and its in-flight charge and, if it booked a request that may
    /// still be unsent (it resolved by another route, or timed out while
    /// deferred), pulls the request out of the batch queues — whose fill
    /// window is then released.
    fn finish(&self, mut cont: Continuation, result: FaultOutcome) {
        let mut unsent: Vec<PendingRun> = Vec::new();
        {
            let mut t = self.table.lock();
            t.admitted = t.admitted.saturating_sub(1);
            for (key, pages) in cont.inflight.drain(..) {
                t.discharge(key, pages);
            }
            if cont.queued > 0 {
                let t = &mut *t;
                purge(&mut t.runs, cont.cid.raw(), &mut unsent);
                purge(&mut t.deferred, cont.cid.raw(), &mut unsent);
            }
        }
        if !unsent.is_empty() || result.is_err() {
            let phys = self.phys();
            for run in &unsent {
                Self::cancel_run(&phys, run);
            }
            cont.state.release_claims(&phys);
        }
        self.finish_tail(&cont, result);
    }

    /// The fault's own end: closes its flight-recorder chain, emits the
    /// resolution trace/latency with the fault's own correlation (the
    /// completion loop is not in the fault's scope) and fulfills the
    /// ticket with every page of the run.
    fn finish_tail(&self, cont: &Continuation, result: FaultOutcome) {
        let cid = cont.cid;
        self.machine.flight.end(cid.raw());
        if result.is_ok() {
            self.machine
                .trace_event_with("vm.fault", EventKind::Resume, Some(cid));
            self.machine.latency.record(
                trace_keys::FAULT_TO_RESOLUTION,
                self.machine.clock.now_ns().saturating_sub(cont.started_ns),
            );
        }
        // Close the chain root on every exit — Ok, Err, timeout, drain —
        // so the critical-path analyzer never sees an unclosed root.
        self.machine
            .span_close_with("fault.submit", cont.root_span, Some(cid));
        cont.ticket.fulfill(result);
        self.space.notify_all();
    }
}
