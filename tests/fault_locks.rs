//! Integration: how many times each class of fault takes the fault
//! engine's table lock (`fault-table`, the lock every fault shares).
//!
//! A host-independent ratchet on the fault path, by the method of
//! `tests/port_locks.rs`: the counts come from the always-on lock profile
//! in `machsim::lockdep`, not from a clock. The profile is process-wide,
//! so this file holds exactly one test (its binary is its own process) and
//! boots no kernel, whose threads would take the lock on their own.

use machipc::OolBuffer;
use machsim::lockdep::{contention_snapshot, LockClass};
use machsim::stats::keys;
use machsim::Machine;
use machvm::fault::resolve_page;
use machvm::{FaultPolicy, ObjectId, PagerBackend, PhysicalMemory, VmError, VmObject, VmProt};
use std::sync::{Arc, OnceLock};

const PAGE: u64 = 4096;

/// Acquisitions, so far, of the continuation table's lock.
fn table_locks_taken() -> u64 {
    contention_snapshot()
        .iter()
        .filter(|c| c.class == LockClass::FaultTable)
        .map(|c| c.acquisitions)
        .sum()
}

/// Runs `op` and returns its result with the table-lock acquisitions made
/// meanwhile (by any thread: the engine's completion loop included).
fn counted<T>(op: impl FnOnce() -> T) -> (T, u64) {
    let before = table_locks_taken();
    let out = op();
    (out, table_locks_taken() - before)
}

/// Supplies what it is asked for at once, on the thread that asked (the
/// engine's completion loop).
struct EchoPager {
    phys: Arc<PhysicalMemory>,
    object: OnceLock<Arc<VmObject>>,
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

#[test]
fn a_fault_that_need_not_wait_takes_the_table_lock_twice() -> Result<(), VmError> {
    let m = Machine::default_machine();
    let phys = PhysicalMemory::new(&m, 512 * PAGE as usize, PAGE as usize, 4);
    let policy = FaultPolicy::trusting();

    // No fault has parked yet, so no completion loop is running: these
    // three counts are exact. Admission and completion, nothing between.
    let anon = VmObject::new_temporary(4 * PAGE);
    let (fault, locks) = counted(|| resolve_page(&phys, &anon, 0, VmProt::WRITE, policy));
    fault?;
    assert_eq!(locks, 2, "zero fill");

    let (fault, locks) = counted(|| resolve_page(&phys, &anon, 0, VmProt::READ, policy));
    fault?;
    assert_eq!(locks, 2, "resident hit");

    let shadow = VmObject::new_shadow(anon.clone(), 0, 4 * PAGE);
    let (fault, locks) = counted(|| resolve_page(&phys, &shadow, 0, VmProt::WRITE, policy));
    fault?;
    assert_eq!(locks, 2, "copy-on-write");
    assert_eq!(m.stats.get(keys::VM_COW_COPIES), 1);

    // A cold 16-page run against a pager: admission, park (booking the
    // request under the same hold), the loop's flush, the fill's one page
    // event, the loop's wake-up, completion — where a fault per page took
    // five per page, eighty and more. The loop also ticks once a
    // millisecond whatever happens, so take the best of a few runs.
    let pager = Arc::new(EchoPager {
        phys: phys.clone(),
        object: OnceLock::new(),
    });
    let object = VmObject::new_with_pager(256 * PAGE, pager.clone());
    pager.object.set(object.clone()).expect("attached once");
    let engine = phys.fault_engine();
    let policy = policy.with_cluster(16);
    let cold_run = |first_page: u64| {
        counted(|| {
            engine
                .submit_run(&object, first_page * PAGE, 16, VmProt::READ, policy)
                .wait_run()
        })
    };
    let mut best = u64::MAX;
    for run in 0..8 {
        let (pages, locks) = cold_run(run * 16);
        assert_eq!(pages?.len(), 16);
        best = best.min(locks);
    }
    assert!(
        best <= 10,
        "a cold run took the table lock {best} times at best"
    );
    assert_eq!(m.stats.get(keys::VM_PAGER_FILLS), 8);
    assert_eq!(m.stats.get(keys::VM_FAULTS), 3 + 8);
    Ok(())
}
