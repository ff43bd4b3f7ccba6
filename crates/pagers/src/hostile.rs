//! Deliberately misbehaving data managers (Section 6.1).
//!
//! "While the functionality of external memory management can be a
//! powerful tool in the hands of a careful application, it can also raise
//! several robustness and security problems if improperly used." Each type
//! here reproduces one of the paper's failure modes so the failure-handling
//! experiments (E13) can demonstrate the defenses of Section 6.2:
//!
//! * [`SilentPager`] — "Data manager doesn't return data": threads block;
//!   fault timeouts treat it like a communication failure.
//! * [`SlowPager`] — responds after a delay; distinguishes timeout tuning.
//! * [`HoarderPager`] — "Data manager fails to free flushed data": holds
//!   on to every written-back buffer. The kernel watches the buffers, not
//!   a message, so it sees them stay and diverts pageouts to the default
//!   pager.
//! * [`ChangingPager`] — "Data manager changes data": supplies different
//!   contents on every refresh.
//! * [`FloodPager`] — "Data manager floods the cache": supplies far more
//!   data than requested.

use machcore::{DataManager, KernelConn};
use machipc::OolBuffer;
use machsim::EventKind;
use machvm::VmProt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Never responds to anything.
#[derive(Default)]
pub struct SilentPager {
    /// Requests observed (so tests can check the request was sent).
    pub requests: Arc<AtomicU64>,
}

impl DataManager for SilentPager {
    fn data_request(&mut self, k: &KernelConn, _o: u64, _off: u64, _l: u64, _a: VmProt) {
        // Leave a trace marker so a hung fault chain shows *where* the
        // request went to die instead of just never resuming.
        k.machine()
            .trace_event("pager.hostile", EventKind::Mark("request_swallowed"));
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    fn data_write(&mut self, _k: &KernelConn, _o: u64, _off: u64, _d: OolBuffer) {
        // Swallow the data. Dropping it is the release — the kernel sees
        // the buffer die — so a silent pager is no hoarder.
    }
}

/// Responds correctly, but only after a fixed delay.
pub struct SlowPager {
    /// Delay before each response.
    pub delay: Duration,
    /// Fill byte for supplied pages.
    pub fill: u8,
}

impl DataManager for SlowPager {
    fn data_request(
        &mut self,
        kernel: &KernelConn,
        object: u64,
        offset: u64,
        length: u64,
        _a: VmProt,
    ) {
        kernel
            .machine()
            .trace_event("pager.hostile", EventKind::Mark("slow_response"));
        machsim::wall::sleep(self.delay);
        kernel.data_provided(
            object,
            offset,
            OolBuffer::from_vec(vec![self.fill; length as usize]),
            VmProt::NONE,
        );
    }
}

/// Supplies data but never lets go of written-back pages.
#[derive(Default)]
pub struct HoarderPager {
    /// Bytes of laundry received and hoarded.
    pub hoarded: Arc<AtomicU64>,
}

impl DataManager for HoarderPager {
    fn data_request(
        &mut self,
        kernel: &KernelConn,
        object: u64,
        offset: u64,
        length: u64,
        _a: VmProt,
    ) {
        kernel.data_provided(
            object,
            offset,
            OolBuffer::from_vec(vec![0u8; length as usize]),
            VmProt::NONE,
        );
    }

    fn data_write(&mut self, _kernel: &KernelConn, _object: u64, _offset: u64, data: OolBuffer) {
        // "A data manager may wreak havok with the pageout process by
        // failing to promptly release memory following pageout": keep the
        // buffer, for ever.
        self.hoarded.fetch_add(data.len() as u64, Ordering::Relaxed);
        std::mem::forget(data);
    }
}

/// Supplies different contents every time the same page is requested.
#[derive(Default)]
pub struct ChangingPager {
    counter: u64,
}

impl DataManager for ChangingPager {
    fn data_request(
        &mut self,
        kernel: &KernelConn,
        object: u64,
        offset: u64,
        length: u64,
        _a: VmProt,
    ) {
        self.counter += 1;
        kernel.data_provided(
            object,
            offset,
            OolBuffer::from_vec(vec![self.counter as u8; length as usize]),
            VmProt::NONE,
        );
    }
}

/// Supplies a large burst of pages for every single-page request.
pub struct FloodPager {
    /// Pages supplied per request.
    pub burst_pages: u64,
}

impl DataManager for FloodPager {
    fn data_request(
        &mut self,
        kernel: &KernelConn,
        object: u64,
        offset: u64,
        length: u64,
        _a: VmProt,
    ) {
        let burst = length * self.burst_pages;
        kernel.data_provided(
            object,
            offset,
            OolBuffer::from_vec(vec![0xFF; burst as usize]),
            VmProt::NONE,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machcore::{spawn_manager, Kernel, KernelConfig, Task};
    use machsim::stats::keys;
    use machvm::{FaultPolicy, VmError};
    use std::sync::Arc;

    fn kernel() -> Arc<Kernel> {
        Kernel::boot(KernelConfig::default())
    }

    #[test]
    fn silent_pager_fault_times_out() {
        // §6.2.1: "a timeout period may be specified, after which a memory
        // request is aborted".
        let k = kernel();
        let t = Task::create(&k, "victim");
        t.map()
            .set_fault_policy(FaultPolicy::abort_after(Duration::from_millis(50)));
        let requests = Arc::new(AtomicU64::new(0));
        let mgr = spawn_manager(
            k.machine(),
            "silent",
            SilentPager {
                requests: requests.clone(),
            },
        );
        let addr = t.vm_allocate_with_pager(None, 4096, mgr.port(), 0).unwrap();
        let mut b = [0u8; 1];
        assert_eq!(t.read_memory(addr, &mut b).unwrap_err(), VmError::Timeout);
        assert_eq!(requests.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn silent_pager_can_be_zero_filled_instead() {
        // §6.2.1's other option: "providing (zero-filled) memory backed by
        // the default pager".
        let k = kernel();
        let t = Task::create(&k, "victim");
        t.map()
            .set_fault_policy(FaultPolicy::zero_fill_after(Duration::from_millis(50)));
        let mgr = spawn_manager(k.machine(), "silent", SilentPager::default());
        let addr = t.vm_allocate_with_pager(None, 4096, mgr.port(), 0).unwrap();
        let mut b = [0u8; 4];
        t.read_memory(addr, &mut b).unwrap();
        assert_eq!(b, [0u8; 4]);
    }

    #[test]
    fn slow_pager_succeeds_with_generous_timeout() {
        let k = kernel();
        let t = Task::create(&k, "patient");
        t.map()
            .set_fault_policy(FaultPolicy::abort_after(Duration::from_secs(5)));
        let mgr = spawn_manager(
            k.machine(),
            "slow",
            SlowPager {
                delay: Duration::from_millis(100),
                fill: 9,
            },
        );
        let addr = t.vm_allocate_with_pager(None, 4096, mgr.port(), 0).unwrap();
        let mut b = [0u8; 1];
        t.read_memory(addr, &mut b).unwrap();
        assert_eq!(b[0], 9);
    }

    #[test]
    fn hoarder_triggers_default_pager_takeover() {
        // §6.2.2: "If the data manager does not process and release the
        // data within an adequate period of time, the data may then be
        // paged out to the default pager."
        let k = Kernel::boot(KernelConfig {
            memory_bytes: 24 * 4096,
            reserve_pages: 4,
            ..KernelConfig::default()
        });
        let t = Task::create(&k, "writer");
        let hoarded = Arc::new(AtomicU64::new(0));
        let mgr = spawn_manager(
            k.machine(),
            "hoarder",
            HoarderPager {
                hoarded: hoarded.clone(),
            },
        );
        // Map a large object and dirty many pages so evictions stream
        // dirty data at the hoarder.
        let pages = 256u64;
        let addr = t
            .vm_allocate_with_pager(None, pages * 4096, mgr.port(), 0)
            .unwrap();
        for i in 0..pages {
            t.write_memory(addr + i * 4096, &[i as u8]).unwrap();
        }
        // "Within an adequate period of time": a burst alone does not
        // convict a manager. Give the hoarder its deadline, then keep
        // the dirty pages coming.
        machsim::wall::sleep(machcore::backend::LAUNDRY_DEADLINE + Duration::from_millis(50));
        for i in 0..pages {
            t.write_memory(addr + i * 4096, &[i as u8])
                .expect("second pass writes");
        }
        assert!(
            k.machine()
                .stats
                .get(machsim::stats::keys::VM_DEFAULT_PAGER_TAKEOVERS)
                > 0,
            "kernel diverted pageouts away from the hoarder"
        );
        // The kernel kept making progress: all pages were written.
        assert!(k.machine().stats.get(keys::VM_PAGEOUTS) > 0);
    }

    #[test]
    fn changing_pager_breaks_reread_consistency() {
        // §6.1: "A malicious data manager may change the value of its data
        // on each cache refresh." Demonstrate the effect — and the §6.1
        // countermeasure of copying to safe memory first.
        let k = Kernel::boot(KernelConfig {
            memory_bytes: 8 * 4096,
            reserve_pages: 2,
            ..KernelConfig::default()
        });
        let t = Task::create(&k, "victim");
        let mgr = spawn_manager(k.machine(), "changing", ChangingPager::default());
        let pages = 16u64;
        let addr = t
            .vm_allocate_with_pager(None, pages * 4096, mgr.port(), 0)
            .unwrap();
        // Copy to safe (anonymous) memory first and read the value there —
        // the countermeasure. A pageout sweep may refresh page 0 at any
        // time, so the value seen is the copy's, not an earlier read's.
        let safe = t.vm_allocate(4096).unwrap();
        t.vm_copy(addr, 4096, safe).unwrap();
        let mut first = [0u8; 1];
        t.read_memory(safe, &mut first).unwrap();
        // Thrash the cache so page 0 is evicted and re-fetched.
        for i in 1..pages {
            let mut b = [0u8; 1];
            t.read_memory(addr + i * 4096, &mut b).unwrap();
        }
        let mut second = [0u8; 1];
        t.read_memory(addr, &mut second).unwrap();
        assert_ne!(first[0], second[0], "pager changed data under reread");
        // The safe copy is stable.
        let mut safe_val = [0u8; 1];
        t.read_memory(safe, &mut safe_val).unwrap();
        assert_eq!(safe_val[0], first[0]);
    }

    #[test]
    fn flood_pager_extra_pages_land_in_cache() {
        let k = kernel();
        let t = Task::create(&k, "victim");
        let mgr = spawn_manager(k.machine(), "flood", FloodPager { burst_pages: 8 });
        let addr = t
            .vm_allocate_with_pager(None, 64 * 4096, mgr.port(), 0)
            .unwrap();
        let mut b = [0u8; 1];
        t.read_memory(addr, &mut b).unwrap();
        // One fault, eight pages resident: detectable cache pressure.
        machsim::wall::sleep(Duration::from_millis(100));
        assert!(
            k.machine().stats.get(keys::VM_PAGER_FILLS) == 1 && k.phys().resident_pages() >= 8,
            "flood visible: {} resident",
            k.phys().resident_pages()
        );
    }
}
