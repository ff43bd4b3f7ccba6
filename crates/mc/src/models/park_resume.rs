//! The continuation table's park/recheck race
//! (`machvm::continuation::FaultEngine::park`), for a fault over a
//! two-page run whose fill reports one page event
//! (`machvm::resident::PhysicalMemory::supply_page`).
//!
//! A fault that must wait parks its continuation in the table, on the
//! first page of its run that is still pending — but the page event that
//! would resume it may fire between the fault's step and its park. The
//! production code re-probes the wait under the table lock
//! ([`protocol::must_park`]); the pager's completion path takes the same
//! lock to take a parked continuation off the table, so the re-check and
//! the wakeup serialize. The completion path installs every page of its
//! buffer and only then reports the one event for the range, and resumes
//! the continuation it took on its own thread once the table is unlocked
//! (`FaultEngine::on_reply`): the fault finds nothing of that buffer left
//! to park on. The faulting thread, released at the park, waits on the
//! fault's ticket.
//!
//! Invariant: park/resume never drops a page event — every schedule
//! completes the fault's ticket, and a resumed fault observes the page it
//! parked on filled.

use crate::exec::Tid;
use crate::{AtomicBool, Checker, Condvar, Mutex, Report};
use machvm::protocol;
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
            if self.mutation == Some(Mutation::SkipRecheck)
                || protocol::must_park(self.pending[page].load(SeqCst))
            {
                t.parked_on = Some(page);
                return;
            }
        }
        *self.ticket.lock() = true;
        self.done.notify_all();
    }

    /// The page event for the whole buffer: takes the parked continuation
    /// off the table under its lock, and resumes it on this thread.
    fn report(&self) {
        let parked = self.table.lock().parked_on.take();
        if let Some(page) = parked {
            crate::assert(
                !self.pending[page].load(SeqCst),
                "resumed fault observes the filled page",
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

    // The pager's completion path runs on the main thread: install the
    // buffer's pages, then report the one event for the range.
    for page in 0..RUN {
        if mutation == Some(Mutation::EventBeforeLastInstall) && page == RUN - 1 {
            fault.report();
        }
        fault.pending[page].store(false, SeqCst);
    }
    if mutation != Some(Mutation::EventBeforeLastInstall) {
        fault.report();
    }

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
