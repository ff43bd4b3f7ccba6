//! Integration: §6.2.2's default-pager takeover means *late*, not
//! *bursty*, and a page it diverts is still there when it is next read.
//! One pageout sweep may hand a healthy manager several times its laundry
//! limit before the manager's thread is ever scheduled; that burst is the
//! manager's. A manager that then sits on it, releasing nothing, past the
//! deadline loses further pageouts to the default pager — and the kernel
//! remembers which pages went there. Everything is checked in counts and
//! bytes.

use machcore::backend::LAUNDRY_DEADLINE;
use machcore::{spawn_manager, DataManager, Kernel, KernelConfig, KernelConn, Task};
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

/// Supplies zeroes, records which pages it was written, releases at once
/// — once it runs: its first `data_write` waits for `scheduled`, standing
/// in for a manager thread the host has not given the CPU yet.
struct PromptPager {
    written: Arc<Mutex<BTreeSet<u64>>>,
    scheduled: Option<mpsc::Receiver<()>>,
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
        k.release_laundry(object, data.len() as u64);
    }
}

#[test]
fn a_burst_a_healthy_manager_drains_is_delivered_to_the_manager() -> Result<(), VmError> {
    // No daemon: the sweep below is the only pageout there is.
    let kernel = Kernel::boot(KernelConfig {
        memory_bytes: 512 * PAGE as usize,
        pageout_daemon: false,
        ..KernelConfig::default()
    });
    let written = Arc::new(Mutex::new(BTreeSet::new()));
    let (schedule, scheduled) = mpsc::channel();
    let mgr = spawn_manager(
        kernel.machine(),
        "prompt",
        PromptPager {
            written: written.clone(),
            scheduled: Some(scheduled),
        },
    );
    // Declared after `mgr`, so dropped before it: if an assertion below
    // fails, the manager is let go before its handle waits for it.
    let schedule = schedule;
    let task = Task::create(&kernel, "writer");
    let addr = task.vm_allocate_with_pager(None, 400 * PAGE, mgr.port(), 0)?;
    // Every other page, so no two dirty pages batch into one pageout —
    // from the top down, so no miss looks like a scan and reads ahead.
    let dirty: BTreeSet<u64> = (0..200).map(|i| 2 * i + 1).collect();
    for &page in dirty.iter().rev() {
        task.write_memory(addr + page * PAGE, &[1])?;
    }
    let (phys, stats) = (kernel.phys(), &kernel.machine().stats);
    // Second chance: one pass clears reference bits, the next deactivates.
    phys.balance_queues(200);
    phys.balance_queues(200);
    assert_eq!(phys.reclaim_pages(200), 200);
    assert_eq!(
        stats.get(keys::VM_PAGEOUTS),
        200,
        "every eviction was dirty"
    );
    // More than three times the laundry limit in one call, and none of it
    // was taken from a manager that simply had not run yet.
    assert_eq!(stats.get(keys::VM_DEFAULT_PAGER_TAKEOVERS), 0);
    schedule.send(()).expect("the manager is waiting");
    eventually("the manager to have every page", || {
        *written.lock().expect("written lock") == dirty
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
        // pager that has them. (Top down: nothing looks like a scan, so
        // no read-ahead is still in flight when the object goes away.)
        for page in (160..224).rev() {
            let mut got = [0u8; 4];
            task.read_memory(addr + page * PAGE, &mut got)?;
            assert_eq!(got, pattern(page), "page {page}");
        }
        task.vm_deallocate(addr, 256 * PAGE)?;
    }
    eventually("the object's frames to come back", || {
        kernel.phys().frame_census() == baseline
    });
    kernel.phys().check_invariants();
    Ok(())
}
