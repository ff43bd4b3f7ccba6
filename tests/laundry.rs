//! Integration: §6.2.2's default-pager takeover means *late*, not
//! *bursty*, and a page it diverts is still there when it is next read.
//! One pageout sweep may hand a healthy manager several times its laundry
//! limit before the manager's thread is ever scheduled; that burst is the
//! manager's. A manager that then sits on it, releasing nothing, past the
//! deadline loses further pageouts to the default pager — and the kernel
//! remembers which pages went there. The release is memory, not a
//! message: the kernel watches the buffer it sent and sees the manager let
//! go of it, so a pageout is one message and what a manager *says* about
//! its laundry counts for nothing. Everything is checked in counts and
//! bytes.

use machcore::backend::LAUNDRY_DEADLINE;
use machcore::{spawn_manager, DataManager, Kernel, KernelConfig, KernelConn, ManagerHandle, Task};
use machipc::OolBuffer;
use machpagers::hostile::HoarderPager;
use machsim::stats::keys;
use machvm::{VmError, VmProt};
use std::collections::BTreeSet;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const PAGE: u64 = 4096;

/// Waits (polling the wall clock) until `done` holds; panics after ten seconds.
fn eventually(what: &str, done: impl FnMut() -> bool) {
    let held = machsim::wall::poll_until(Duration::from_secs(10), Duration::from_millis(2), done);
    assert!(held, "timed out waiting for {what}");
}

/// What a manager does with a written-back buffer once it has recorded it.
enum Release {
    /// Calls `release_laundry` and lets the buffer go: the honest manager.
    Prompt,
    /// Lets the buffer go without a word.
    Silent,
    /// Calls `release_laundry` and keeps a handle on every buffer.
    SaysSoButKeeps(Vec<OolBuffer>),
}

/// Supplies zeroes, records which pages it was written, releases at once
/// — once it runs: its first `data_write` waits for `scheduled`, standing
/// in for a manager thread the host has not given the CPU yet.
struct PromptPager {
    written: Arc<Mutex<BTreeSet<u64>>>,
    scheduled: Option<mpsc::Receiver<()>>,
    release: Release,
}

impl DataManager for PromptPager {
    fn data_request(&mut self, k: &KernelConn, object: u64, offset: u64, length: u64, _a: VmProt) {
        let data = OolBuffer::from_vec(vec![0u8; length as usize]);
        k.data_provided(object, offset, data, VmProt::NONE);
    }

    fn data_write(&mut self, k: &KernelConn, object: u64, offset: u64, data: OolBuffer) {
        if let Some(scheduled) = self.scheduled.take() {
            // Either a send or the sender's drop lets the manager run.
            let _ = scheduled.recv();
        }
        let pages = data.len() as u64 / PAGE;
        let mut written = self.written.lock().expect("written lock");
        written.extend((0..pages).map(|i| offset / PAGE + i));
        match &mut self.release {
            Release::Prompt => k.release_laundry(object, data.len() as u64),
            Release::Silent => {}
            Release::SaysSoButKeeps(kept) => {
                k.release_laundry(object, data.len() as u64);
                kept.push(data);
            }
        }
    }
}

/// A kernel with `dirty` (every other page, so no two batch into one
/// pageout) written through a [`PromptPager`] and deactivated, never
/// crossing its low watermark: each `reclaim_pages(n)` is then exactly
/// `n` single-page pageouts.
struct Sweep {
    // Field order is drop order: the task unmaps before the manager stops.
    task: Arc<Task>,
    mgr: ManagerHandle,
    kernel: Arc<Kernel>,
    dirty: BTreeSet<u64>,
    written: Arc<Mutex<BTreeSet<u64>>>,
}

fn sweep(
    pages: u64,
    release: Release,
    scheduled: Option<mpsc::Receiver<()>>,
) -> Result<Sweep, VmError> {
    // 512 frames, a low watermark of 64 and at most 192 pages written:
    // the caller's sweeps are the only pageout there is.
    let kernel = Kernel::boot(KernelConfig {
        memory_bytes: 512 * PAGE as usize,
        ..KernelConfig::default()
    });
    let written = Arc::new(Mutex::new(BTreeSet::new()));
    let mgr = spawn_manager(
        kernel.machine(),
        "prompt",
        PromptPager {
            written: written.clone(),
            scheduled,
            release,
        },
    );
    let task = Task::create(&kernel, "writer");
    let addr = task.vm_allocate_with_pager(None, 2 * pages * PAGE, mgr.port(), 0)?;
    // From the top down, so no miss looks like a scan and reads ahead.
    let dirty: BTreeSet<u64> = (0..pages).map(|i| 2 * i + 1).collect();
    for &page in dirty.iter().rev() {
        task.write_memory(addr + page * PAGE, &[1])?;
    }
    // Second chance: one pass clears reference bits, the next deactivates.
    kernel.phys().balance_queues(pages as usize);
    kernel.phys().balance_queues(pages as usize);
    let swept = kernel.machine().stats.get(keys::VM_DAEMON_RECLAIMS);
    assert_eq!(swept, 0, "no write crossed the low watermark");
    Ok(Sweep {
        task,
        mgr,
        kernel,
        dirty,
        written,
    })
}

impl Sweep {
    fn takeovers(&self) -> u64 {
        let stats = &self.kernel.machine().stats;
        stats.get(keys::VM_DEFAULT_PAGER_TAKEOVERS)
    }

    fn manager_has(&self) -> usize {
        self.written.lock().expect("written lock").len()
    }
}

#[test]
fn a_burst_a_healthy_manager_drains_is_delivered_to_the_manager() -> Result<(), VmError> {
    let (schedule, scheduled) = mpsc::channel();
    // `schedule` is declared after `s`, so dropped before it: if an
    // assertion below fails, the manager is let go before its handle
    // waits for it.
    let s = sweep(200, Release::Prompt, Some(scheduled))?;
    let schedule = schedule;
    let (phys, stats) = (s.kernel.phys(), &s.kernel.machine().stats);
    let sent = stats.get(keys::MSG_SENT);
    assert_eq!(phys.reclaim_pages(200), 200);
    assert_eq!(
        stats.get(keys::VM_PAGEOUTS),
        200,
        "every eviction was dirty"
    );
    // More than three times the laundry limit in one call, and none of it
    // was taken from a manager that simply had not run yet.
    assert_eq!(s.takeovers(), 0);
    schedule.send(()).expect("the manager is waiting");
    eventually("the manager to have every page", || {
        *s.written.lock().expect("written lock") == s.dirty
    });
    // One message per pageout, kernel to manager; the release is not one.
    // (Stopping the manager first: its last `release_laundry` has returned.)
    let Sweep { task, mgr, .. } = s;
    mgr.shutdown();
    assert_eq!(
        stats.get(keys::MSG_SENT) - sent,
        200 + 1,
        "+1: the shutdown"
    );
    drop(task);
    Ok(())
}

#[test]
fn a_manager_that_lets_go_without_a_word_is_not_errant() -> Result<(), VmError> {
    // Three bursts of the whole laundry limit, a deadline apart, to a
    // manager that never calls `release_laundry`: the kernel saw every
    // buffer die, so every page is the manager's.
    let limit_pages = (machcore::backend::DEFAULT_LAUNDRY_LIMIT / PAGE) as usize;
    let s = sweep(3 * limit_pages as u64, Release::Silent, None)?;
    for burst in 1..=3 {
        assert_eq!(s.kernel.phys().reclaim_pages(limit_pages), limit_pages);
        eventually("the manager to have the burst", || {
            s.manager_has() == burst * limit_pages
        });
        machsim::wall::sleep(LAUNDRY_DEADLINE + Duration::from_millis(50));
    }
    assert_eq!(s.takeovers(), 0);
    assert_eq!(*s.written.lock().expect("written lock"), s.dirty);
    Ok(())
}

#[test]
fn a_manager_that_says_release_but_keeps_the_pages_is_errant() -> Result<(), VmError> {
    // One and a half times the limit, every page "released" by call and
    // kept by handle: the kernel believes the memory. Inside the deadline
    // the burst is the manager's; past it, nothing more is.
    let limit_pages = (machcore::backend::DEFAULT_LAUNDRY_LIMIT / PAGE) as usize;
    let burst = limit_pages * 3 / 2;
    let s = sweep(
        (burst + 32) as u64,
        Release::SaysSoButKeeps(Vec::new()),
        None,
    )?;
    assert_eq!(s.kernel.phys().reclaim_pages(burst), burst);
    eventually("the manager to have the burst", || s.manager_has() == burst);
    assert_eq!(s.takeovers(), 0);
    machsim::wall::sleep(LAUNDRY_DEADLINE + Duration::from_millis(50));
    assert_eq!(s.kernel.phys().reclaim_pages(32), 32);
    assert_eq!(s.takeovers(), 32);
    assert_eq!(s.manager_has(), burst, "the rest went to the default pager");
    eventually("the default pager to store them", || {
        s.kernel.paging_pages_stored() == 32
    });
    Ok(())
}

#[test]
fn pages_diverted_from_a_hoarder_read_back_intact() -> Result<(), VmError> {
    let kernel = Kernel::boot(KernelConfig {
        memory_bytes: 24 * PAGE as usize,
        reserve_pages: 4,
        ..KernelConfig::default()
    });
    let baseline = kernel.phys().frame_census();
    let stored_at_start = kernel.paging_pages_stored();
    let stats = &kernel.machine().stats;
    {
        let task = Task::create(&kernel, "writer");
        let mgr = spawn_manager(kernel.machine(), "hoarder", HoarderPager::default());
        let addr = task.vm_allocate_with_pager(None, 256 * PAGE, mgr.port(), 0)?;
        // Stream dirty pages at the hoarder until it is far over its
        // limit, then give it its deadline: it releases nothing.
        for page in 0..160 {
            task.write_memory(addr + page * PAGE, &[1])?;
        }
        machsim::wall::sleep(LAUNDRY_DEADLINE + Duration::from_millis(50));

        // Pages written from here on are paged out to the default pager.
        let pattern = |page: u64| [page as u8, 0xA5, (page >> 1) as u8, 0x5A];
        for page in 160..224 {
            task.write_memory(addr + page * PAGE, &pattern(page))?;
        }
        // Push them all out (reads of the hoarder's pages are clean).
        let mut b = [0u8; 1];
        for page in 0..64 {
            task.read_memory(addr + page * PAGE, &mut b)?;
        }
        // (One takeover is one `pager_data_write`, up to eight pages.)
        assert!(stats.get(keys::VM_DEFAULT_PAGER_TAKEOVERS) >= 64 / 8);
        // The hoarder would answer zeroes for them; the kernel asks the
        // pager that has them. (Bottom up, a scan: read-ahead may still
        // be in flight when the object goes away, and installs nothing.)
        for page in 160..224 {
            let mut got = [0u8; 4];
            task.read_memory(addr + page * PAGE, &mut got)?;
            assert_eq!(got, pattern(page), "page {page}");
        }
        assert!(kernel.paging_pages_stored() >= 64);
        task.vm_deallocate(addr, 256 * PAGE)?;
    }
    eventually("the object's frames to come back", || {
        kernel.phys().frame_census() == baseline
    });
    // The hoarder's object took its diverted pages' paging blocks with it,
    // and was counted as one terminated object, not two.
    eventually("the default pager to free the diverted pages", || {
        kernel.paging_pages_stored() == stored_at_start
    });
    assert_eq!(stats.get(keys::EMM_OBJECTS_TERMINATED), 1);
    kernel.phys().check_invariants();
    Ok(())
}
