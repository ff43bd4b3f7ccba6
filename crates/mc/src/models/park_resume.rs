//! The continuation table's park/recheck race
//! (`machvm::continuation::step_and_park`), for a fault over a two-page
//! run whose fill reports one page event
//! (`machvm::resident::PhysicalMemory::supply_page`).
//!
//! A fault that must wait parks its continuation in the table, on the
//! first page of its run that is still pending — but the page event that
//! would resume it may fire between the fault's step and its park. The
//! production code re-probes the wait under the table lock
//! ([`protocol::must_park`]); the pager's completion path takes the same
//! lock before moving a parked continuation to the ready list, so the
//! re-check and the wakeup serialize. The completion path installs every
//! page of its buffer and only then reports the one event for the range:
//! a fault it wakes finds nothing of that buffer left to park on.
//!
//! Invariant: park/resume never drops a page event — every schedule
//! resumes the fault, and the resumed fault observes both pages filled.

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
    /// installed: the fault it wakes parks again on that page, and no
    /// second event comes.
    EventBeforeLastInstall,
}

/// Pages in the fault's run (and in the buffer that fills it).
const RUN: usize = 2;

/// The continuation table, reduced to one parkable fault.
struct Table {
    /// The page of the run the fault is parked on.
    parked_on: Option<usize>,
    ready: bool,
}

fn body(mutation: Option<Mutation>) {
    // `pending[i]` is the resident-table state the wait on page `i`
    // probes: true while the page's fill is outstanding (production
    // `PageLookup::Pending`).
    let pending: Arc<Vec<AtomicBool>> = Arc::new(
        ["page0_pending", "page1_pending"]
            .into_iter()
            .map(|name| AtomicBool::new(name, true))
            .collect(),
    );
    let table = Arc::new(Mutex::new(
        "cont_table",
        Table {
            parked_on: None,
            ready: false,
        },
    ));
    let work = Arc::new(Condvar::new("work"));

    // The faulting thread walks its run: each page's step saw the pending
    // fill, so it wants to park on it; the re-check under the table lock
    // decides.
    let fault = {
        let (pending, table, work) = (pending.clone(), table.clone(), work.clone());
        crate::spawn(move || {
            for page in 0..RUN {
                let mut t = table.lock();
                let park = mutation == Some(Mutation::SkipRecheck)
                    || protocol::must_park(pending[page].load(SeqCst));
                if park {
                    t.parked_on = Some(page);
                    while !t.ready {
                        work.wait(&mut t);
                    }
                    t.ready = false;
                }
                drop(t);
                crate::assert(
                    !pending[page].load(SeqCst),
                    "resumed fault observes the filled page",
                );
            }
        })
    };

    // The pager's completion path runs on the main thread: install the
    // buffer's pages, then wake a continuation parked on any of them
    // under the table lock (production `on_range_event`).
    let report = || {
        let mut t = table.lock();
        if t.parked_on.take().is_some() {
            t.ready = true;
            work.notify_all();
        }
    };
    for page in 0..RUN {
        if mutation == Some(Mutation::EventBeforeLastInstall) && page == RUN - 1 {
            report();
        }
        pending[page].store(false, SeqCst);
    }
    if mutation != Some(Mutation::EventBeforeLastInstall) {
        report();
    }

    fault.join();
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
