//! Integration: how many times each class of fault, each range request
//! against the cache, and a UNIX read of a mapped file (mapped, resident
//! but unmapped, cold) takes each lock of the fault path — the
//! resident table (`resident`), a frame's bytes (`frame-data`), the
//! pageout queues (`queues`) and the fault engine's table (`fault-table`,
//! the lock every fault shares).
//!
//! A host-independent ratchet on the fault path, by the method of
//! `tests/port_locks.rs`: the counts come from the always-on lock profile
//! in `machsim::lockdep`, not from a clock. The profile is process-wide,
//! so this file holds exactly one test (its binary is its own process) and
//! boots no kernel, whose threads would take the locks on their own.

use machipc::OolBuffer;
use machsim::lockdep::{contention_snapshot, LockClass};
use machsim::stats::keys;
use machsim::Machine;
use machvm::fault::resolve_page;
use machvm::{
    FaultPolicy, ObjectId, PagerBackend, PhysicalMemory, VmError, VmMap, VmObject, VmProt,
};
use std::sync::{Arc, OnceLock};

const PAGE: u64 = 4096;

/// Acquisitions of `resident`, `frame-data`, `queues` and `fault-table`.
type Holds = [u64; 4];
const CLASSES: [LockClass; 4] = [
    LockClass::Resident,
    LockClass::FrameData,
    LockClass::Queues,
    LockClass::FaultTable,
];

/// Acquisitions, so far, of each of [`CLASSES`].
fn holds_taken() -> Holds {
    let snapshot = contention_snapshot();
    CLASSES.map(|class| {
        snapshot
            .iter()
            .find(|c| c.class == class)
            .map_or(0, |c| c.acquisitions)
    })
}

/// Runs `op` and returns its result with the acquisitions made meanwhile
/// (by any thread: the engine's completion loop included).
fn counted<T>(op: impl FnOnce() -> T) -> (T, Holds) {
    let before = holds_taken();
    let out = op();
    let after = holds_taken();
    (out, std::array::from_fn(|i| after[i] - before[i]))
}

/// Supplies what it is asked for at once, on the thread that asked (the
/// engine's completion loop), and swallows what is written back.
struct EchoPager {
    phys: Arc<PhysicalMemory>,
    object: OnceLock<Arc<VmObject>>,
}

impl EchoPager {
    fn attach(phys: &Arc<PhysicalMemory>, pages: u64) -> Arc<VmObject> {
        let pager = Arc::new(EchoPager {
            phys: phys.clone(),
            object: OnceLock::new(),
        });
        let object = VmObject::new_with_pager(pages * PAGE, pager.clone());
        pager.object.set(object.clone()).expect("attached once");
        object
    }
}

impl PagerBackend for EchoPager {
    fn supports_cluster(&self) -> bool {
        true
    }

    fn data_request(&self, _object: ObjectId, offset: u64, length: u64, _access: VmProt) {
        let object = self.object.get().expect("attached before the first fault");
        let data = OolBuffer::from_vec(vec![0xA5; length as usize]);
        self.phys
            .supply_page(object, offset, data, VmProt::NONE)
            .expect("memory for the run");
    }

    fn data_write(&self, _object: ObjectId, _offset: u64, _data: OolBuffer) {}

    fn data_unlock(&self, _object: ObjectId, _offset: u64, _length: u64, _access: VmProt) {}
}

/// A pager-backed object with `pages` modified pages resident.
fn cached(phys: &Arc<PhysicalMemory>, pages: u64) -> Result<Arc<VmObject>, VmError> {
    let object = EchoPager::attach(phys, pages);
    let data = OolBuffer::from_vec(vec![7; (pages * PAGE) as usize]);
    phys.supply_page(&object, 0, data, VmProt::NONE)?;
    for page in 0..pages {
        if let machvm::PageLookup::Resident { frame, .. } = phys.lookup(object.id(), page * PAGE) {
            phys.set_modified(frame);
        }
    }
    Ok(object)
}

/// The four range requests against a 64-page object, and the release of a
/// one-page object: `[resident, frame-data, queues, fault-table]` each.
/// One range query under one hold serves each, so the counts must not
/// depend on what else is resident.
fn range_requests(phys: &Arc<PhysicalMemory>) -> Result<[Holds; 5], VmError> {
    let whole = 64 * PAGE;
    let object = cached(phys, 64)?;
    let ((), lock) = counted(|| phys.lock_range(&object, 0, whole, VmProt::WRITE));
    let ((), clean) = counted(|| phys.clean_range(&object, 0, whole));
    assert_eq!(phys.resident_pages_of(object.id()), 64);
    phys.release_object(&object, false);

    let object = cached(phys, 64)?;
    let ((), flush) = counted(|| phys.flush_range(&object, 0, whole));
    assert_eq!(phys.resident_pages_of(object.id()), 0);

    let object = cached(phys, 64)?;
    let ((), release) = counted(|| phys.release_object(&object, false));
    assert_eq!(phys.resident_pages_of(object.id()), 0);

    let object = cached(phys, 1)?;
    let ((), release_one) = counted(|| phys.release_object(&object, false));
    assert_eq!(phys.frame_census().pending, 0);
    Ok([lock, clean, flush, release, release_one])
}

#[test]
fn a_fault_that_need_not_wait_takes_the_table_lock_twice() -> Result<(), VmError> {
    let m = Machine::default_machine();
    let phys = PhysicalMemory::new(&m, 2560 * PAGE as usize, PAGE as usize, 4);
    let policy = FaultPolicy::trusting();

    // No fault has parked yet, so no completion loop is running: every
    // count down to the cold run is exact. The fault table is taken for
    // admission and completion, nothing between; the resident table once
    // per probe of the shadow chain, once to pin a copy's source and once
    // to enter what the fault made.
    let anon = VmObject::new_temporary(4 * PAGE);
    let (fault, holds) = counted(|| resolve_page(&phys, &anon, 0, VmProt::WRITE, policy));
    fault?;
    assert_eq!(holds, [2, 1, 2, 2], "zero fill");

    let (fault, holds) = counted(|| resolve_page(&phys, &anon, 0, VmProt::READ, policy));
    fault?;
    assert_eq!(holds, [1, 0, 0, 2], "resident hit");

    let shadow = VmObject::new_shadow(anon.clone(), 0, 4 * PAGE);
    let (fault, holds) = counted(|| resolve_page(&phys, &shadow, 0, VmProt::WRITE, policy));
    fault?;
    assert_eq!(holds, [4, 2, 2, 2], "copy-on-write");
    assert_eq!(m.stats.get(keys::VM_COW_COPIES), 1);

    // Range requests: one hold of the resident table (a flush that writes
    // back takes a second to clear its in-transit marks) and one page
    // event — none for a clean, which unblocks nobody — among 2000
    // resident pages of other objects, and again alone.
    let crowd = VmObject::new_temporary(2000 * PAGE);
    for page in 0..2000 {
        phys.zero_fill(&crowd, page * PAGE)?;
    }
    let crowded = range_requests(&phys)?;
    phys.release_object(&crowd, false);
    assert_eq!(range_requests(&phys)?, crowded, "a range request scanned");
    let [lock, clean, flush, release, release_one] = crowded;
    assert_eq!((lock[0], lock[3]), (1, 1), "lock_range {lock:?}");
    assert_eq!((clean[0], clean[3]), (1, 0), "clean_range {clean:?}");
    assert_eq!((flush[0], flush[3]), (2, 1), "flush_range {flush:?}");
    assert_eq!(
        (release[0], release[3]),
        (1, 1),
        "release_object {release:?}"
    );
    assert_eq!(release_one, [1, 0, 1, 1], "release_object, one page");
    // Every frame of a request goes back under one hold of the queues.
    assert_eq!((flush[2], release[2]), (1, 1));

    // A 64-page shadow collapse: the write fault that finds the dead
    // parent's object below its new shadow moves all 64 pages up under
    // one hold, then is a resident hit and a mapping.
    let parent = VmMap::new(&phys);
    let addr = parent.allocate(None, 64 * PAGE)?;
    for page in 0..64 {
        parent.fault(addr + page * PAGE, VmProt::WRITE)?;
    }
    let child = parent.fork();
    drop(parent);
    let collapses = m.stats.get(keys::VM_SHADOW_COLLAPSES);
    let resident = phys.frame_census().resident;
    let (fault, holds) = counted(|| child.fault(addr, VmProt::WRITE));
    fault?;
    assert_eq!(m.stats.get(keys::VM_SHADOW_COLLAPSES), collapses + 1);
    // Moved, not copied: the page written is the one the parent wrote.
    assert_eq!(phys.frame_census().resident, resident);
    assert_eq!(m.stats.get(keys::VM_COW_COPIES), 1);
    assert!(holds[0] <= 3, "a 64-page collapse {holds:?}");

    // A UNIX read (`MachUnix::read`: fault-ahead, then the copy) of 8 KiB
    // of a mapped file whose pages are resident but not yet mapped: per
    // page a probe by fault-ahead, then a resident hit and its mapping.
    // The same read again is a memory access: the pmap answers both
    // passes, and only the two pages' bytes are locked, for the copy.
    let file = cached(&phys, 64)?;
    let task = VmMap::new(&phys);
    let mapped = task.allocate_with_object(None, 64 * PAGE, file, 0, false)?;
    let mut buf = vec![0u8; 2 * PAGE as usize];
    let mut unix_read = |addr: u64| {
        counted(|| {
            task.fault_ahead(addr, 2 * PAGE, VmProt::READ)
                .and_then(|_| task.access_read(addr, &mut buf))
        })
    };
    let (read, holds) = unix_read(mapped);
    read?;
    assert_eq!(holds, [6, 2, 0, 4], "UNIX read, resident but unmapped");
    let (read, holds) = unix_read(mapped);
    read?;
    assert_eq!(holds, [0, 2, 0, 0], "UNIX read, warm");

    // A cold 16-page run against a pager. Fault table: admission, park
    // (booking the request under the same hold), the loop's flush, the
    // fill's one page event, the loop's wake-up, completion — where a
    // fault per page took five per page, eighty and more. Resident table:
    // a probe per page and one claim for the run, the park's re-probe,
    // two holds for the fill (which pages take a frame; enter them), a
    // probe per page on resume. The loop also ticks once a millisecond
    // whatever happens, so take the best of a few runs.
    let object = EchoPager::attach(&phys, 256);
    let engine = phys.fault_engine();
    let policy = policy.with_cluster(16);
    let cold_run = |first_page: u64| {
        counted(|| {
            engine
                .submit_run(&object, first_page * PAGE, 16, VmProt::READ, policy)
                .wait_run()
        })
    };
    let mut best = [u64::MAX; 4];
    for run in 0..8 {
        let (pages, holds) = cold_run(run * 16);
        assert_eq!(pages?.len(), 16);
        best = std::array::from_fn(|i| best[i].min(holds[i]));
    }
    assert!(
        best[3] <= 10 && best[0] <= 52,
        "a cold run took [resident, frame-data, queues, fault-table] {best:?} times at best"
    );
    assert_eq!(m.stats.get(keys::VM_PAGER_FILLS), 8);

    // A cold UNIX read: one fault over the two absent pages (its request
    // brings in the pager's 16-page cluster), which fault-ahead maps, so
    // the copy faults on neither.
    task.set_fault_policy(policy);
    let cold = task.allocate_with_object(None, 128 * PAGE, object, 128 * PAGE, false)?;
    let mut best = [u64::MAX; 4];
    for read in 0..8 {
        let (pages, holds) = unix_read(cold + read * 16 * PAGE);
        pages?;
        best = std::array::from_fn(|i| best[i].min(holds[i]));
    }
    assert!(
        best[0] <= 11 && best[1] <= 18 && best[2] <= 17 && best[3] <= 6,
        "a cold UNIX read took [resident, frame-data, queues, fault-table] {best:?} times at best"
    );
    assert_eq!(m.stats.get(keys::VM_PAGER_FILLS), 8 + 8);
    assert_eq!(m.stats.get(keys::VM_FAULTS), 3 + 65 + 2 + 8 + 8);
    Ok(())
}
