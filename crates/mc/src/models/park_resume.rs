//! The continuation table's park/recheck race
//! (`machvm::continuation::FaultEngine::park`), for a fault over a
//! two-page run whose fill reports one page event
//! (`machvm::resident::PhysicalMemory::supply_page`) — and the trampoline
//! that resumes a page event raised inside another fault's step
//! (`FaultEngine::call`).
//!
//! A fault that must wait parks its continuation in the table, on the
//! first page of its run that is still pending — but the page event that
//! would resume it may fire between the fault's step and its park. The
//! production code re-probes the wait under the table lock
//! ([`protocol::must_park`]); the pager's completion path takes the same
//! lock to take a parked continuation off the table to resume it, so the
//! re-check and the wakeup serialize. The completion path installs every
//! page of its buffer and only then reports the one event for the range,
//! and resumes the continuation it took on its own thread once the table
//! is unlocked (`FaultEngine::on_reply`): the fault finds nothing of that
//! buffer left to park on. The faulting thread, released at the park,
//! waits on the fault's ticket.
//!
//! A second fault's step cancels the fill the first is parked on (a
//! claim released, a page evicted under it). That event is raised inside
//! an engine call, so it does not resume the first fault on the spot —
//! resumes never nest: the continuation it takes off the table goes on
//! the raising thread's own list, and the thread's outermost call resumes
//! it before it returns ([`protocol::resumes_on_return`]).
//!
//! Invariant: park/resume never drops a page event — every schedule
//! completes the fault's ticket, and a resumed fault observes the page it
//! parked on no longer pending.

use crate::exec::Tid;
use crate::{AtomicBool, Checker, Condvar, Mutex, Report};
use machvm::protocol;
use std::ops::Range;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;

/// Deliberate protocol breakages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// The fault parks without re-probing the wait under the table
    /// lock: a fill completed between step and park is dropped.
    SkipRecheck,
    /// The range's one event is reported before its last page is
    /// installed: the fault it resumes parks again on that page, and no
    /// second event comes.
    EventBeforeLastInstall,
    /// The second fault's call returns without resuming what its step's
    /// event woke: the first fault is off the table with nobody to resume
    /// it, and the fill's own event later finds nothing to wake.
    ForgetDeferred,
}

/// Pages in the fault's run (and in the buffer that fills it).
const RUN: usize = 2;

/// The continuation table, reduced to one parkable fault: the page of the
/// run its continuation is parked on.
struct Table {
    parked_on: Option<usize>,
}

/// One fault over the run: the resident-table state its waits probe, the
/// table it parks in, and its ticket.
struct Fault {
    /// `pending[i]`: page `i`'s fill is outstanding (production
    /// `PageLookup::Pending`).
    pending: Vec<AtomicBool>,
    table: Mutex<Table>,
    /// Whether the ticket is fulfilled.
    ticket: Mutex<bool>,
    done: Condvar,
    mutation: Option<Mutation>,
}

impl Fault {
    /// The fault's step from page `from` of its run, on whichever thread
    /// holds its continuation. Each page's step saw the pending fill, so
    /// it wants to park on it; the re-check under the table lock decides.
    /// A step that gets past the last page fulfills the ticket.
    fn step(&self, from: usize) {
        for page in from..RUN {
            let mut t = self.table.lock();
            let blocked = self.pending[page].load(SeqCst);
            if self.mutation == Some(Mutation::SkipRecheck) || protocol::must_park(blocked) {
                t.parked_on = Some(page);
                return;
            }
        }
        *self.ticket.lock() = true;
        self.done.notify_all();
    }

    /// A page event for `pages`, raised in an engine call that is the
    /// thread's `outermost` or nested in it: takes the continuation
    /// parked on one of them off the table under its lock, onto the
    /// thread's list `woken`, and leaves the call.
    fn report(&self, pages: Range<usize>, outermost: bool, woken: &mut Vec<usize>) {
        {
            let mut t = self.table.lock();
            if t.parked_on.is_some_and(|page| pages.contains(&page)) {
                woken.extend(t.parked_on.take());
            }
        }
        self.leave(outermost, woken);
    }

    /// The end of an engine call on the thread whose list is `woken`:
    /// the outermost resumes the list, on its own thread.
    fn leave(&self, outermost: bool, woken: &mut Vec<usize>) {
        if !protocol::resumes_on_return(outermost) {
            return;
        }
        for page in woken.drain(..) {
            crate::assert(
                !self.pending[page].load(SeqCst),
                "resumed fault observes its page no longer pending",
            );
            self.step(page);
        }
    }
}

fn body(mutation: Option<Mutation>) {
    let fault = Arc::new(Fault {
        pending: ["page0_pending", "page1_pending"]
            .into_iter()
            .map(|name| AtomicBool::new(name, true))
            .collect(),
        table: Mutex::new("cont_table", Table { parked_on: None }),
        ticket: Mutex::new("ticket", false),
        done: Condvar::new("ticket_done"),
        mutation,
    });

    // The second fault: inside its own submit (the thread's outermost
    // engine call), its step cancels page 0's fill — an event raised in
    // a call nested in the submit — and its submit then returns.
    let cancelling = {
        let fault = fault.clone();
        crate::spawn(move || {
            let mut woken = Vec::new();
            fault.pending[0].store(false, SeqCst);
            fault.report(0..1, false, &mut woken);
            if fault.mutation != Some(Mutation::ForgetDeferred) {
                fault.leave(true, &mut woken);
            }
        })
    };

    // The faulting thread: submit steps the fault, then waits on the
    // ticket, whichever thread completes it.
    let faulting = {
        let fault = fault.clone();
        crate::spawn(move || {
            fault.step(0);
            let mut done = fault.ticket.lock();
            while !*done {
                fault.done.wait(&mut done);
            }
        })
    };

    // The pager's completion path runs on the main thread, in no engine
    // call: install the buffer's pages, then report the one event for
    // the range — itself the outermost call, so it resumes at once.
    let mut woken = Vec::new();
    for page in 0..RUN {
        if mutation == Some(Mutation::EventBeforeLastInstall) && page == RUN - 1 {
            fault.report(0..RUN, true, &mut woken);
        }
        fault.pending[page].store(false, SeqCst);
    }
    if mutation != Some(Mutation::EventBeforeLastInstall) {
        fault.report(0..RUN, true, &mut woken);
    }

    cancelling.join();
    faulting.join();
}

/// Explores the model; `mutation = None` is the genuine protocol.
pub fn check(bound: Option<usize>, mutation: Option<Mutation>) -> Report {
    Checker::new()
        .bound(bound)
        .check("park_resume", move || body(mutation))
}

/// Replays one recorded schedule against the genuine model.
pub fn replay(schedule: &[Tid]) -> Report {
    Checker::new().replay("park_resume", schedule, || body(None))
}
