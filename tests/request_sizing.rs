//! Integration: every `pager_data_request` is as long as the access calls
//! for. A random fault asks for one page; a scan ramps up to the cluster
//! cap (and a fresh object read from its start begins there); fault-ahead
//! asks for each absent run of its range in one request; an object whose
//! manager advised single pages gets single pages from every path. All in
//! counts — requests as the manager saw them, and kernel counters.

use machcore::{spawn_manager, DataManager, Kernel, KernelConfig, KernelConn, ManagerHandle, Task};
use machipc::OolBuffer;
use machsim::stats::keys;
use machsim::SplitMix64;
use machvm::{VmError, VmProt};
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
    _mgr: ManagerHandle,
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
    let kernel = Kernel::boot(KernelConfig::default());
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
        _mgr: mgr,
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
    assert_eq!(
        r.task.map().fault_ahead(r.addr, 16 * PAGE, VmProt::READ)?,
        14
    );
    let mut runs = r.requests()[2..].to_vec();
    runs.sort_unstable();
    assert_eq!(runs, [(0, 5), (6, 5), (12, 4)]);
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
