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
//!   booked as *runs* under the park's hold and sent by the parking thread
//!   once the table is unlocked, per (pager, object) through
//!   [`PagerBackend::data_request_many`]. Applying `pager_data_provided`,
//!   `_unavailable` or `pager_data_lock` — one event per buffer, after its
//!   last page — re-steps the continuations waiting on it on the applying
//!   thread. Other page events (a fill cancelled, a page removed) can
//!   fire inside a fault's step, so the completion loop re-steps theirs.
//! * Backpressure is explicit at both ends: the table is bounded (a
//!   fault that must park waits for a slot — `vm.async.backpressure`),
//!   and each pager
//!   has an in-flight page cap (excess runs are deferred until a fault
//!   returns its charge — `vm.pager_deferred_runs`).
//!
//! # Observability through the hop
//!
//! Parking must not break the causal chain. Each fault's
//! [`CorrelationId`] is allocated at submit, stamped into every request
//! run (so the manager's reply still correlates), carried on the
//! parked continuation, and re-entered as the trace scope whichever
//! thread steps it. The table is also what the kernel's stall
//! watchdog reads ([`FaultEngine::watch`]): a fault that times out
//! *cleanly* (its policy deadline fires) leaves the table without being
//! counted as a watchdog stall, while a genuinely wedged fault stays
//! parked and is caught and flagged.
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
//! [`FaultEngine::shutdown`] nothing can resume a parked fault, so the
//! caller's step is all a fault gets: hits, zero fills and copy-on-write
//! copies still resolve, and one that would have to park releases what it
//! claimed and fails with [`VmError::ObjectDestroyed`] — the answer
//! shutdown gives every fault that was parked.
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
//! of its run (booking, admission and park under one hold; the fill's
//! event; completion — `tests/fault_locks.rs`).
//!
//! # Timeouts, death and the stale sweep
//!
//! The completion loop is, above all, the timer wheel. Every parked
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
    /// Bound on simultaneously parked continuations; a fault that must
    /// park blocks (briefly, with `vm.async.backpressure` counted) when
    /// the table is full. This is the "thousands of outstanding faults"
    /// budget.
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

/// The caller's handle to a submitted fault: its outcome, ready at once
/// for a fault that resolved on its submitter's step, or a one-shot slot
/// the engine fills when a parked fault completes.
#[derive(Clone)]
pub struct FaultTicket {
    cid: CorrelationId,
    root_span: u64,
    outcome: TicketOutcome,
}

#[derive(Clone)]
enum TicketOutcome {
    Ready(FaultOutcome),
    Parked(Arc<TicketSlot>),
}

/// Where a parked fault's outcome is delivered.
#[derive(Default)]
struct TicketSlot {
    outcome: Mutex<Option<FaultOutcome>>,
    done: Condvar,
}

impl TicketSlot {
    fn fulfill(&self, result: FaultOutcome) {
        *self.outcome.lock() = Some(result);
        self.done.notify_all();
    }
}

impl FaultTicket {
    /// The correlation id tying this fault's trace events, pager requests
    /// and resolution into one chain.
    pub fn correlation(&self) -> CorrelationId {
        self.cid
    }

    /// The root span id of this fault's chain (the `fault.submit` span),
    /// for adopting the chain context after [`FaultTicket::wait`].
    pub fn span(&self) -> u64 {
        self.root_span
    }

    /// Whether the fault has completed (without blocking).
    pub fn is_done(&self) -> bool {
        match &self.outcome {
            TicketOutcome::Ready(_) => true,
            TicketOutcome::Parked(slot) => slot.outcome.lock().is_some(),
        }
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
        let slot = match &self.outcome {
            TicketOutcome::Ready(outcome) => return outcome.clone(),
            TicketOutcome::Parked(slot) => slot,
        };
        let mut outcome = slot.outcome.lock();
        while outcome.is_none() {
            slot.done.wait(&mut outcome);
        }
        outcome
            .clone()
            .expect("invariant: the wait loop exits only once the slot is filled")
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
    /// Pages in the run (the unit of in-flight accounting).
    pages: usize,
}

impl PendingRun {
    fn pager_key(&self) -> usize {
        Arc::as_ptr(&self.pager) as *const () as usize
    }
}

/// A parked fault: the captured state machine plus resume bookkeeping.
struct Continuation {
    state: FaultState,
    wait: FaultWait,
    cid: CorrelationId,
    started_ns: u64,
    parked_ns: u64,
    /// Consecutive watchdog scans that have found this fault parked with
    /// its pager making no progress toward it ([`FaultEngine::watch`]).
    scans: u32,
    /// Whether the watchdog has flagged this fault as stalled.
    flagged: bool,
    /// Fires when the park has lasted long enough for a defensive
    /// recheck.
    stale_at: wall::Deadline,
    /// Policy deadline, re-armed at every park (the timeout is per wait).
    deadline: Option<wall::Deadline>,
    ticket: Arc<TicketSlot>,
    /// The fault's root span (`fault.submit`), parent of every phase span
    /// the chain opens — on this host and, via the stamped requests, on
    /// the pager side.
    root_span: u64,
    /// The currently open `fault.parked` span, 0 while running. Closed by
    /// whichever thread takes the continuation off the table.
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
    /// Cids with an observed page event, for the completion loop.
    ready: Vec<u64>,
    /// Runs held back by a pager's in-flight cap, per pager key, oldest
    /// first.
    deferred: HashMap<usize, VecDeque<PendingRun>>,
    /// How many deferred runs each fault (by raw cid) has, so a fault that
    /// finishes with none need not look through the queues.
    deferred_by: HashMap<u64, usize>,
    /// Requested-but-unanswered pages per pager key.
    inflight: HashMap<usize, usize>,
    /// What each fault's sent runs hold against `inflight`, by raw cid:
    /// `(pager key, pages)` per run. Returned when the fault books its
    /// next step's runs, or finishes. Kept here rather than on the
    /// continuation so a deferred run can be charged and sent while its
    /// claimer is off the table (waiting for a slot, or being resumed).
    charges: HashMap<u64, Vec<(usize, usize)>>,
    /// Admitted-but-not-finished faults: incremented when a fault that
    /// must park clears backpressure, decremented when it completes.
    /// Parked *and* resuming faults count, so `conts.len() <= admitted
    /// <= capacity` and the table can never exceed its budget.
    admitted: usize,
    /// Most continuations ever parked at once (bench: max outstanding).
    high_water: usize,
    /// The oldest (smallest) cid a manager's answer has resumed, per
    /// object, since the watchdog's last scan: its pager is draining the
    /// faults queued behind that one. Kept only once a watchdog scans, so
    /// an unwatched engine's record cannot grow.
    resolved: HashMap<ObjectId, u64>,
    watched: bool,
    /// Next time the periodic sweep may run (`None` = due now). The
    /// sweep is O(parked continuations), so it is rate-limited to once
    /// per [`TICK`] no matter how often events wake the loop.
    next_sweep: Option<wall::Deadline>,
    /// Page events reported so far: lets a test assert that an operation
    /// reports none.
    #[cfg(test)]
    page_events: u64,
    /// Deferred runs looked at for promotion so far: lets a test bound
    /// the work a storm against a capped pager does.
    #[cfg(test)]
    deferred_examined: u64,
}

impl Table {
    /// Charges `run` to its pager's in-flight budget if the budget has
    /// room — a pager with nothing in flight always has.
    fn try_charge(&mut self, run: &PendingRun, cap: usize) -> bool {
        let key = run.pager_key();
        let used = self.inflight.entry(key).or_insert(0);
        if *used != 0 && *used + run.pages > cap {
            return false;
        }
        *used += run.pages;
        let charge = (key, run.pages);
        self.charges
            .entry(run.correlation)
            .or_default()
            .push(charge);
        true
    }

    /// Holds `run` back until its pager has room.
    fn defer(&mut self, run: PendingRun) {
        *self.deferred_by.entry(run.correlation).or_default() += 1;
        self.deferred
            .entry(run.pager_key())
            .or_default()
            .push_back(run);
    }

    /// Moves deferred runs whose pager has room into `send`, charging
    /// their claimer — wherever it is: completed claimers never appear
    /// here, because `finish` pulls their unsent runs. Each pager's runs
    /// go in the order they were deferred, up to the first that does not
    /// fit, so a completion costs what it promotes, not the whole queue.
    fn promote(&mut self, cap: usize, send: &mut Vec<PendingRun>) {
        let mut deferred = std::mem::take(&mut self.deferred);
        deferred.retain(|_, queue| {
            while let Some(run) = queue.front() {
                #[cfg(test)]
                {
                    self.deferred_examined += 1;
                }
                if !self.try_charge(run, cap) {
                    break;
                }
                let run = queue
                    .pop_front()
                    .expect("invariant: the front was just read");
                self.undefer(run.correlation);
                send.push(run);
            }
            !queue.is_empty()
        });
        self.deferred = deferred;
    }

    /// Takes fault `cid`'s runs that are still deferred out of the queues.
    fn take_deferred(&mut self, cid: u64) -> Vec<PendingRun> {
        if self.deferred_by.remove(&cid).is_none() {
            return Vec::new();
        }
        let mut unsent = Vec::new();
        self.deferred.retain(|_, queue| {
            let (mine, kept) = std::mem::take(queue)
                .into_iter()
                .partition::<Vec<_>, _>(|run| run.correlation == cid);
            unsent.extend(mine);
            queue.extend(kept);
            !queue.is_empty()
        });
        unsent
    }

    fn undefer(&mut self, cid: u64) {
        if let Some(n) = self.deferred_by.get_mut(&cid) {
            *n -= 1;
            if *n == 0 {
                self.deferred_by.remove(&cid);
            }
        }
    }

    /// Returns every charge fault `cid` holds.
    fn discharge(&mut self, cid: u64) {
        for (key, pages) in self.charges.remove(&cid).into_iter().flatten() {
            if let Some(used) = self.inflight.get_mut(&key) {
                *used = used.saturating_sub(pages);
                if *used == 0 {
                    self.inflight.remove(&key);
                }
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
/// recorded, not sent, so the engine can book them against their pagers'
/// budgets under the table lock and send them once it is unlocked.
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

    #[cfg(test)]
    pub(crate) fn deferred_examined(&self) -> u64 {
        self.table.lock().deferred_examined
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

    /// One stall-watchdog scan: returns every parked fault as `(cid,
    /// started_ns, scans, flagged)`, oldest first, where `scans` counts the
    /// consecutive scans that found its pager making no progress toward
    /// it. A scan counts against a fault unless, since the last scan, a
    /// manager's answer resumed an *older* fault of the object it waits
    /// on: a pager draining its queue in order keeps resetting the faults
    /// behind, while one it skips still ages. A fault that resumes and
    /// parks again keeps its count.
    pub fn watch(&self) -> Vec<(u64, u64, u32, bool)> {
        let mut t = self.table.lock();
        t.watched = true;
        let resolved = std::mem::take(&mut t.resolved);
        let mut parked: Vec<_> = t
            .conts
            .iter_mut()
            .map(|(&cid, c)| {
                c.scans = match resolved.get(&c.wait.object) {
                    Some(&oldest) if oldest < cid => 0,
                    _ => c.scans + 1,
                };
                (cid, c.started_ns, c.scans, c.flagged)
            })
            .collect();
        drop(t);
        parked.sort_unstable_by_key(|&(cid, started_ns, ..)| (started_ns, cid));
        parked
    }

    /// Flags parked fault `cid` as stalled. `true` only the first time, so
    /// a wedged fault is reported once however many scans find it; `false`
    /// too for a fault no longer parked.
    pub fn flag(&self, cid: u64) -> bool {
        match self.table.lock().conts.get_mut(&cid) {
            Some(c) if !c.flagged => {
                c.flagged = true;
                true
            }
            _ => false,
        }
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
        // `park` reads `stop` under the table lock before it parks, so
        // nothing can join the table behind this drain.
        self.drain_parked();
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
        self.machine.trace_event("vm.fault", EventKind::Fault);
        // The chain root: explicitly parent 0 (the submitting thread may
        // still carry a previous fault's span context).
        let root_span = self.machine.span_open_under("fault.submit", 0);
        let _span = SpanScope::enter(root_span);
        let started_ns = self.machine.clock.now_ns();

        // Step first, on the caller: a fault that resolves here takes no
        // admission slot, no table lock and no shared ticket.
        let phys = self.phys();
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
        let slot = Arc::new(TicketSlot::default());
        let cont = Continuation {
            state,
            wait,
            cid,
            started_ns,
            parked_ns: started_ns,
            scans: 0,
            flagged: false,
            stale_at: wall::Deadline::after(STALE_RECHECK),
            deadline: None,
            ticket: slot.clone(),
            root_span,
            parked_span: 0,
        };
        match self.park(&phys, cont, wait, runs, true) {
            Some((cont, result)) => self.finish(cont, result),
            None => self.start_worker(),
        }
        let outcome = TicketOutcome::Parked(slot);
        FaultTicket {
            cid,
            root_span,
            outcome,
        }
    }

    /// One page event for the pages of `object` at `offsets` — everything
    /// one operation cancelled, removed or installed singly, maybe inside
    /// a fault's step: their waiters are made ready for the completion
    /// loop. Called with the resident table unlocked (this table ranks
    /// above it).
    pub(crate) fn on_range_event(&self, object: ObjectId, offsets: impl IntoIterator<Item = u64>) {
        let mut t = self.table.lock();
        let cids = Self::take_waiters(&mut t, object, offsets);
        if !cids.is_empty() {
            t.ready.extend(cids);
            self.work.notify_all();
        }
    }

    /// The page event of a manager's answer for the pages of `object` at
    /// `offsets`, after its last page is applied: one hold takes their
    /// waiters off the table — noting the oldest for the watchdog — and
    /// each resumes on this thread. Called with the resident table
    /// unlocked, never inside a fault's step.
    pub(crate) fn on_reply(
        &self,
        phys: &PhysicalMemory,
        object: ObjectId,
        offsets: impl IntoIterator<Item = u64>,
    ) {
        let woken: Vec<Continuation> = {
            let mut t = self.table.lock();
            let cids = Self::take_waiters(&mut t, object, offsets);
            if let Some(&oldest) = cids.iter().min().filter(|_| t.watched) {
                let seen = t.resolved.entry(object).or_insert(oldest);
                *seen = (*seen).min(oldest);
            }
            cids.into_iter()
                .filter_map(|cid| t.conts.remove(&cid))
                .collect()
        };
        for cont in woken {
            self.resume(phys, cont, Wake::Event);
        }
    }

    /// Takes the cids parked on the pages of `object` at `offsets` out of
    /// the park index.
    fn take_waiters(
        t: &mut Table,
        object: ObjectId,
        offsets: impl IntoIterator<Item = u64>,
    ) -> Vec<u64> {
        #[cfg(test)]
        {
            t.page_events += 1;
        }
        offsets
            .into_iter()
            .filter_map(|offset| t.waiters.remove(&(object, offset)))
            .flatten()
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

    /// Processes a continuation taken off the table for `wake` — on the
    /// thread that applied a manager's reply, or the completion loop.
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
                let resume = self
                    .machine
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
    /// claimed `runs`. Under one hold of the table lock it books the runs,
    /// takes an admission slot if it holds none (`admit`), and registers
    /// the continuation after re-checking the wait *under that lock*
    /// (table → resident is the sanctioned order): an event that fired
    /// since the step re-steps the fault, which keeps its slot, instead
    /// of sleeping on a wakeup that already happened. This thread sends
    /// the runs booked once the table is unlocked, after the park.
    ///
    /// A fault that must wait for an admission slot sends its runs
    /// *before* it waits: a claimed but unsent run could strand the
    /// faults parked on its pages while its claimer waits for one of
    /// their slots.
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
        loop {
            // The charges for the runs `cont` had outstanding when it
            // parked last are returned to the pagers' budgets unless the
            // fault re-parks on the *same* pending fill without issuing a
            // new request (the stale-recheck no-op).
            let same_fill = runs.is_empty()
                && wait.kind == WaitKind::Fill
                && cont.wait.kind == WaitKind::Fill
                && wait.object == cont.wait.object
                && wait.offset == cont.wait.offset;
            cont.wait = wait;
            let mut t = self.table.lock();
            let mut send = if same_fill {
                Vec::new()
            } else {
                self.book(&mut t, cont.cid.raw(), runs)
            };
            // Gating on `admitted` (not `conts.len()`) means resuming
            // faults keep their slot and `max_outstanding <= capacity`.
            while admit && t.admitted >= self.cfg.capacity && !self.stop.load(Ordering::Acquire) {
                self.machine.stats.incr(stat_keys::VM_ASYNC_BACKPRESSURE);
                if !send.is_empty() {
                    drop(t);
                    self.flush_runs(std::mem::take(&mut send));
                    t = self.table.lock();
                    continue;
                }
                self.space.wait_for(t.inner_mut(), TICK);
            }
            if admit {
                t.admitted += 1;
                admit = false;
            }
            if self.stop.load(Ordering::Acquire) {
                // Nothing resumes a fault parked after shutdown: give it
                // the answer the shutdown drain gave those before it.
                drop(t);
                for run in &send {
                    Self::cancel_run(phys, run);
                }
                self.abandon(phys, &mut cont);
                return Some((cont, Err(VmError::ObjectDestroyed)));
            }
            if protocol::must_park(Self::wait_blocked(phys, wait, cont.state.access)) {
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
                drop(t);
                self.flush_runs(send);
                return None;
            }
            drop(t);
            self.flush_runs(send);
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

    /// Returns fault `cid`'s previous charges to the pagers' budgets, books
    /// a step's produced runs — charging the pager's in-flight budget or
    /// deferring past-cap runs — and promotes what room was made. Returns
    /// the runs charged, to send once the table is unlocked.
    fn book(&self, t: &mut Table, cid: u64, runs: Vec<PendingRun>) -> Vec<PendingRun> {
        t.discharge(cid);
        let mut send = Vec::with_capacity(runs.len());
        for run in runs {
            if t.try_charge(&run, self.cfg.pager_inflight_pages) {
                send.push(run);
            } else {
                self.machine.stats.incr(stat_keys::VM_PAGER_DEFERRED_RUNS);
                t.defer(run);
            }
        }
        t.promote(self.cfg.pager_inflight_pages, &mut send);
        send
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
        let unsent: Vec<PendingRun> = t.deferred.drain().flat_map(|(_, q)| q).collect();
        t.deferred_by.clear();
        t.inflight.clear();
        t.charges.clear();
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

    /// One completion-loop iteration: wait for work, pop ready, expired
    /// and orphaned continuations, then process each outside the table
    /// lock. Returns `false` when the engine has stopped and drained.
    fn run_once(&self, phys: &PhysicalMemory) -> bool {
        let mut woken: Vec<(Continuation, Wake)> = Vec::new();
        let mut tick_elapsed = false;
        {
            let mut t = self.table.lock();
            if protocol::engine_may_sleep(t.ready.is_empty(), self.stop.load(Ordering::Acquire)) {
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
        }

        // Gauge sampling rides the same once-per-TICK gate as the sweep.
        // It must run with the table unlocked: gauge read closures may
        // call back into [`FaultEngine::outstanding`]/[`inflight_pages`].
        if tick_elapsed {
            self.machine.sample_gauges();
        }

        for (cont, wake) in woken {
            self.resume(phys, cont, wake);
        }
        true
    }

    /// Sends booked request runs, grouped per (pager, object) through
    /// `data_request_many`: one IPC send per group.
    fn flush_runs(&self, runs: Vec<PendingRun>) {
        if runs.is_empty() {
            return;
        }
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
    }

    /// Releases the fill window of a run that was never sent to its
    /// pager: the pending entries would otherwise strand later faults.
    /// Cancelling is idempotent, so racing an install is safe.
    fn cancel_run(phys: &PhysicalMemory, run: &PendingRun) {
        phys.cancel_fill_run(run.object, run.offset, run.pages);
    }

    /// Completes a parked fault. One hold of the table lock returns its
    /// admission slot and in-flight charge, pulls its own still-deferred
    /// runs (whose fill windows are then released) and promotes what room
    /// was made, for this thread to send.
    fn finish(&self, mut cont: Continuation, result: FaultOutcome) {
        let cid = cont.cid.raw();
        let mut send = Vec::new();
        let unsent = {
            let mut t = self.table.lock();
            t.admitted = t.admitted.saturating_sub(1);
            t.discharge(cid);
            let unsent = t.take_deferred(cid);
            t.promote(self.cfg.pager_inflight_pages, &mut send);
            unsent
        };
        self.space.notify_all();
        self.flush_runs(send);
        if !unsent.is_empty() || result.is_err() {
            let phys = self.phys();
            for run in &unsent {
                Self::cancel_run(&phys, run);
            }
            cont.state.release_claims(&phys);
        }
        self.finish_tail(&cont, result);
    }

    /// A parked fault's own end: [`FaultEngine::conclude`], then the
    /// ticket is fulfilled with every page of the run.
    fn finish_tail(&self, cont: &Continuation, result: FaultOutcome) {
        self.conclude(cont.cid, cont.root_span, cont.started_ns, result.is_ok());
        cont.ticket.fulfill(result);
    }

    /// Any fault's end: emits the resolution trace/latency with the
    /// fault's own correlation (the finishing thread need not be in its
    /// scope) and closes the chain root — on every exit, Ok, Err, timeout
    /// or drain, so the critical-path analyzer never sees it unclosed.
    fn conclude(&self, cid: CorrelationId, root_span: u64, started_ns: u64, ok: bool) {
        if ok {
            self.machine
                .trace_event_with("vm.fault", EventKind::Resume, Some(cid));
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
    use crate::object::test_support::{filled, RecordingPager};
    use crate::{FaultEngineConfig, FaultPolicy, NumaConfig, PhysicalMemory, VmObject, VmProt};
    use machsim::Machine;
    use std::sync::Arc;

    /// A storm of single-page faults against one pager capped at half of
    /// them, answered in order: each completion sends the next deferred
    /// run, and looks at no more of the queue than the run after it.
    #[test]
    fn a_completion_examines_only_the_deferred_runs_it_promotes() {
        const FAULTS: u64 = 2048;
        let m = Machine::default_machine();
        let faults = FaultEngineConfig {
            pager_inflight_pages: FAULTS as usize / 2,
            ..FaultEngineConfig::default()
        };
        let frames = FAULTS as usize + 64;
        let phys =
            PhysicalMemory::with_config(&m, frames * 4096, 4096, 4, NumaConfig::single(), faults);
        let pager = Arc::new(RecordingPager::default());
        let object = VmObject::new_with_pager(FAULTS * 4096, pager.clone());
        let engine = phys.fault_engine();

        let tickets: Vec<_> = (0..FAULTS)
            .map(|i| engine.submit(&object, i * 4096, VmProt::READ, FaultPolicy::trusting()))
            .collect();
        assert_eq!(pager.requests.lock().len(), FAULTS as usize / 2);
        for i in 0..FAULTS {
            phys.supply_page(&object, i * 4096, filled(1, 4096), VmProt::NONE)
                .expect("memory for every storm page");
        }
        assert!(tickets.iter().all(|t| t.is_done()));
        assert_eq!(pager.requests.lock().len(), FAULTS as usize);
        let examined = engine.deferred_examined();
        assert!(
            examined <= 2 * FAULTS,
            "{examined} deferred runs examined for {FAULTS} faults"
        );
    }
}
