//! Integration: every `pager_data_request` is as long as the access calls
//! for. A random fault asks for one page; a scan ramps up to the cluster
//! cap (and a fresh object read from its start begins there); fault-ahead
//! asks for each absent run of its range in one request — and each run is
//! one fault, parked once; an object whose manager advised single pages
//! gets single pages from every path. All in counts — requests as the
//! manager saw them, and kernel counters.

use machcore::{spawn_manager, DataManager, Kernel, KernelConfig, KernelConn, ManagerHandle, Task};
use machipc::OolBuffer;
use machsim::stats::keys;
use machsim::SplitMix64;
use machvm::{FaultPolicy, VmError, VmProt};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const PAGE: u64 = 4096;

/// `(first page, pages)` of every request, in arrival order.
type Requests = Arc<Mutex<Vec<(u64, u64)>>>;

/// Supplies each page filled with its own number and records what it was
/// asked for; advises the kernel of a cluster size at init if given one.
struct SizingPager {
    requests: Requests,
    advise: Option<u64>,
}

impl DataManager for SizingPager {
    fn init(&mut self, k: &KernelConn, object: u64) {
        if let Some(pages) = self.advise {
            k.set_cluster(object, pages);
        }
    }

    fn data_request(&mut self, k: &KernelConn, object: u64, offset: u64, length: u64, _a: VmProt) {
        self.requests
            .lock()
            .expect("requests lock")
            .push((offset / PAGE, length / PAGE));
        let data = (offset..offset + length)
            .map(|b| (b / PAGE) as u8)
            .collect();
        k.data_provided(object, offset, OolBuffer::from_vec(data), VmProt::NONE);
    }
}

struct Rig {
    task: Arc<Task>,
    mgr: ManagerHandle,
    kernel: Arc<Kernel>,
    requests: Requests,
    addr: u64,
}

impl Rig {
    fn requests(&self) -> Vec<(u64, u64)> {
        self.requests.lock().expect("requests lock").clone()
    }

    fn stat(&self, key: &str) -> u64 {
        self.kernel.machine().stats.get(key)
    }

    /// Reads one byte of each page `first..first + n`, in order.
    fn scan(&self, first: u64, n: u64) -> Result<(), VmError> {
        let mut b = [0u8; 1];
        for page in first..first + n {
            self.task.read_memory(self.addr + page * PAGE, &mut b)?;
            assert_eq!(b[0], page as u8);
        }
        Ok(())
    }
}

/// A default kernel (memory for 1024 pages: nothing is evicted) with a
/// fresh `pages`-page object of a `SizingPager` mapped into one task.
fn rig(pages: u64, advise: Option<u64>) -> Result<Rig, VmError> {
    rig_in(KernelConfig::default(), pages, advise)
}

fn rig_in(config: KernelConfig, pages: u64, advise: Option<u64>) -> Result<Rig, VmError> {
    let kernel = Kernel::boot(config);
    let requests = Requests::default();
    let mgr = spawn_manager(
        kernel.machine(),
        "sizing",
        SizingPager {
            requests: requests.clone(),
            advise,
        },
    );
    let task = Task::create(&kernel, "client");
    let addr = task.vm_allocate_with_pager(None, pages * PAGE, mgr.port(), 0)?;
    if let Some(advised) = advise {
        // The advice travels manager → kernel behind `pager_init`.
        let object = kernel.object_for_port(mgr.port(), pages * PAGE);
        let landed =
            machsim::wall::poll_until(Duration::from_secs(10), Duration::from_millis(1), || {
                object.cluster_hint() == advised as usize
            });
        assert!(landed, "pager_set_cluster never arrived");
    }
    Ok(Rig {
        task,
        mgr,
        kernel,
        requests,
        addr,
    })
}

#[test]
fn random_write_faults_ask_for_exactly_the_page_they_touch() -> Result<(), VmError> {
    let r = rig(512, None)?;
    let mut rng = SplitMix64::new(0x51_2E);
    let (mut missed, mut run_end) = (HashSet::new(), 0);
    for i in 0..64u64 {
        let page = 1 + rng.next_below(511);
        if missed.insert(page) {
            assert_ne!(page, run_end, "the seed has no miss continuing the last");
            run_end = page + 1;
        }
        r.task
            .write_memory(r.addr + page * PAGE + 64, &i.to_le_bytes())?;
    }
    let requests = r.requests();
    assert_eq!(requests.len(), missed.len());
    assert!(
        requests.iter().all(|&(_, pages)| pages == 1),
        "{requests:?}"
    );
    assert_eq!(r.stat(keys::VM_PAGER_FILLS), missed.len() as u64);
    assert_eq!(
        r.stat(keys::VM_PAGES_STOLEN),
        r.stat(keys::VM_PAGER_FILLS),
        "no page entered the cache that was not asked for by its fault"
    );
    Ok(())
}

#[test]
fn a_scan_ramps_up_mid_object_and_starts_at_the_cap_on_a_fresh_one() -> Result<(), VmError> {
    const N: u64 = 64;
    let cap = machcore::DEFAULT_CLUSTER_PAGES as u64;

    let mid = rig(512, None)?;
    mid.scan(200, N)?;
    let requests = mid.requests();
    assert_eq!(requests[..3], [(200, 1), (201, 2), (203, 4)]);
    assert!(requests[3..].iter().all(|&(_, pages)| pages == cap));
    assert!(requests.len() as u64 <= N / cap + 3, "{requests:?}");

    let fresh = rig(512, None)?;
    fresh.scan(0, N)?;
    let expected: Vec<(u64, u64)> = (0..N / cap).map(|i| (i * cap, cap)).collect();
    assert_eq!(fresh.requests(), expected);
    assert_eq!(
        fresh.stat(keys::VM_FAULTS),
        N,
        "one fault per page either way"
    );
    Ok(())
}

#[test]
fn fault_ahead_asks_for_its_whole_cold_range_in_one_request() -> Result<(), VmError> {
    // The object is larger than the range: nothing past the range.
    let r = rig(32, None)?;
    assert_eq!(
        r.task.map().fault_ahead(r.addr, 16 * PAGE, VmProt::READ)?,
        16
    );
    assert_eq!(r.requests(), [(0, 16)]);
    assert_eq!(r.stat(keys::VM_PAGER_FILLS), 1);
    // The run is one fault, resumed by the one event its fill reports.
    assert_eq!(r.stat(keys::VM_FAULTS), 1);
    assert!(r.stat(keys::VM_ASYNC_PARKS) <= 1);
    let faults = r.stat(keys::VM_FAULTS);
    let mut bytes = vec![0u8; 16 * PAGE as usize];
    r.task.read_memory(r.addr, &mut bytes)?;
    assert_eq!(r.stat(keys::VM_FAULTS), faults, "every page was mapped");
    assert!(bytes
        .chunks(PAGE as usize)
        .enumerate()
        .all(|(page, b)| b.iter().all(|&x| x == page as u8)));
    Ok(())
}

#[test]
fn fault_ahead_asks_for_exactly_the_absent_runs() -> Result<(), VmError> {
    // The range ends where the object does: nothing past either.
    let r = rig(16, None)?;
    let mut b = [0u8; 1];
    for page in [5, 11] {
        r.task.read_memory(r.addr + page * PAGE, &mut b)?;
    }
    assert_eq!(r.requests(), [(5, 1), (11, 1)]);
    let faults = r.stat(keys::VM_FAULTS);
    assert_eq!(
        r.task.map().fault_ahead(r.addr, 16 * PAGE, VmProt::READ)?,
        14
    );
    let mut runs = r.requests()[2..].to_vec();
    runs.sort_unstable();
    assert_eq!(runs, [(0, 5), (6, 5), (12, 4)]);
    assert_eq!(
        r.stat(keys::VM_FAULTS) - faults,
        3,
        "one fault per absent run"
    );
    Ok(())
}

#[test]
fn a_write_run_copies_each_page_up_from_the_pager_backed_parent() -> Result<(), VmError> {
    let r = rig(16, None)?;
    // A copy-on-write snapshot of the object beside the object itself: the
    // first write interposes a shadow, and every page sits below it.
    let copy = r.task.map_object_copy(None, 16 * PAGE, r.mgr.port(), 0)?;
    assert_eq!(
        r.task.map().fault_ahead(copy, 16 * PAGE, VmProt::WRITE)?,
        16
    );
    assert_eq!(r.requests(), [(0, 16)]);
    assert_eq!(r.stat(keys::VM_FAULTS), 1);
    assert_eq!(r.stat(keys::VM_COW_COPIES), 16);
    // Every page is mapped writable: the writes fault no more.
    r.task.write_memory(copy, &vec![0xEE; 16 * PAGE as usize])?;
    assert_eq!(r.stat(keys::VM_FAULTS), 1);
    // The parent's pages still hold what the pager supplied.
    r.scan(0, 16)?;
    assert_eq!(r.stat(keys::VM_COW_COPIES), 16);
    assert_eq!(r.requests().len(), 1);
    Ok(())
}

#[test]
fn a_run_twice_the_size_of_memory_completes() -> Result<(), VmError> {
    const MEMORY_PAGES: u64 = 64;
    let r = rig_in(
        KernelConfig::with_memory((MEMORY_PAGES * PAGE) as usize),
        2 * MEMORY_PAGES,
        None,
    )?;
    // The run's fills evict its own head; the fault asks again for what it
    // lost until every page has been resolved once.
    assert_eq!(
        r.task
            .map()
            .fault_ahead(r.addr, 2 * MEMORY_PAGES * PAGE, VmProt::READ)?,
        2 * MEMORY_PAGES as usize
    );
    assert_eq!(r.stat(keys::VM_FAULTS), 1);
    r.scan(0, 2 * MEMORY_PAGES)?;
    // (A fill may still be installing the tail of its buffer behind a
    // fault the sweep resumed early; nothing stays claimed for good.)
    let settled =
        machsim::wall::poll_until(Duration::from_secs(10), Duration::from_millis(1), || {
            r.kernel.phys().frame_census().pending == 0
        });
    assert!(settled, "a claimed page was never filled or released");
    Ok(())
}

/// Never answers anything.
struct SilentPager;

impl DataManager for SilentPager {
    fn data_request(&mut self, _k: &KernelConn, _o: u64, _off: u64, _len: u64, _a: VmProt) {}
}

#[test]
fn a_silent_pager_costs_a_run_one_timeout() -> Result<(), VmError> {
    const TIMEOUT: Duration = Duration::from_millis(100);
    let kernel = Kernel::boot(KernelConfig::default());
    let mgr = spawn_manager(kernel.machine(), "silent", SilentPager);
    let task = Task::create(&kernel, "client");
    let addr = task.vm_allocate_with_pager(None, 16 * PAGE, mgr.port(), 0)?;
    task.map()
        .set_fault_policy(FaultPolicy::zero_fill_after(TIMEOUT).with_cluster(8));
    let started = machsim::wall::now();
    assert_eq!(task.map().fault_ahead(addr, 16 * PAGE, VmProt::READ)?, 16);
    let took = started.elapsed();
    assert!(took >= TIMEOUT, "resolved in {took:?}: nobody timed out");
    assert!(
        took < 8 * TIMEOUT,
        "{took:?} for 16 pages: the deadline is the run's, not each page's"
    );
    let stats = &kernel.machine().stats;
    assert_eq!(stats.get(keys::VM_FAULTS), 1);
    assert_eq!(stats.get(keys::VM_ASYNC_TIMEOUTS), 1);
    assert_eq!(stats.get(keys::VM_TIMEOUT_ZERO_FILLS), 16);
    assert_eq!(kernel.phys().frame_census().pending, 0);
    // All sixteen pages are mapped, zero-filled.
    let mut bytes = vec![0xFFu8; 16 * PAGE as usize];
    task.read_memory(addr, &mut bytes)?;
    assert_eq!(stats.get(keys::VM_FAULTS), 1);
    assert!(bytes.iter().all(|&b| b == 0));
    Ok(())
}

#[test]
fn an_object_advised_single_pages_gets_single_pages_from_both_paths() -> Result<(), VmError> {
    // What netshm, migrate and remote_region advise at `pager_init`.
    let r = rig(32, Some(1))?;
    r.scan(0, 8)?;
    assert_eq!(
        r.task
            .map()
            .fault_ahead(r.addr + 8 * PAGE, 16 * PAGE, VmProt::READ)?,
        16
    );
    let requests = r.requests();
    assert_eq!(requests.len(), 24);
    assert!(
        requests.iter().all(|&(_, pages)| pages == 1),
        "{requests:?}"
    );
    Ok(())
}
