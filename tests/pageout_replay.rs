//! Integration: pageout is a transition the marking enables. The
//! allocation that takes the free queue under the low watermark runs the
//! pageout sweep on its own thread before it returns, so a single writer
//! storming a memory four times too small is one thread's sequence of
//! steps, and two runs of it are the same run: the same pageouts, the same
//! sweeps, the same simulated time.

use machipc::OolBuffer;
use machsim::stats::keys;
use machsim::Machine;
use machvm::{FaultPolicy, ObjectId, PagerBackend, PhysicalMemory, VmMap, VmObject, VmProt};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, Weak};

const PAGE: u64 = 4096;
const FRAMES: u64 = 64;
const PAGES: u64 = 4 * FRAMES;
const OPS: u64 = 4000;

/// A manager that keeps what it is written and answers each request on
/// the faulting thread, so no thread but the writer's touches the memory.
struct StorePager {
    phys: Arc<PhysicalMemory>,
    object: OnceLock<Weak<VmObject>>,
    pages: Mutex<HashMap<u64, Vec<u8>>>,
}

impl PagerBackend for StorePager {
    fn supports_cluster(&self) -> bool {
        true
    }

    fn data_request(&self, _object: ObjectId, offset: u64, length: u64, _access: VmProt) {
        let Some(object) = self.object.get().and_then(Weak::upgrade) else {
            return;
        };
        let data: Vec<u8> = {
            let pages = self.pages.lock().expect("stored pages");
            (0..length.div_ceil(PAGE))
                .flat_map(|i| match pages.get(&(offset + i * PAGE)) {
                    Some(page) => page.clone(),
                    None => vec![0; PAGE as usize],
                })
                .collect()
        };
        self.phys
            .supply_page(&object, offset, OolBuffer::from_vec(data), VmProt::NONE)
            .expect("memory for a supplied run");
    }

    fn data_write(&self, _object: ObjectId, offset: u64, data: OolBuffer) {
        let mut pages = self.pages.lock().expect("stored pages");
        for (i, page) in data.as_slice().chunks(PAGE as usize).enumerate() {
            pages.insert(offset + i as u64 * PAGE, page.to_vec());
        }
    }

    fn data_unlock(&self, _object: ObjectId, _offset: u64, _length: u64, _access: VmProt) {}
}

/// What one storm leaves: `vm.pageouts`, `vm.daemon_reclaims` and the
/// simulated time it took.
#[derive(Debug, PartialEq, Eq)]
struct Storm {
    pageouts: u64,
    swept: u64,
    sim_ns: u64,
}

/// One writer, a fixed pseudo-random walk of reads and writes over a
/// pager-backed region four times the size of memory, with the kernel's
/// pageout marks for 64 frames. Every value read is checked.
fn storm() -> Storm {
    let m = Machine::default_machine();
    let phys = PhysicalMemory::new(&m, (FRAMES * PAGE) as usize, PAGE as usize, 4);
    phys.run_pageout(8, 12, 12);
    let pager = Arc::new(StorePager {
        phys: phys.clone(),
        object: OnceLock::new(),
        pages: Mutex::new(HashMap::new()),
    });
    let object = VmObject::new_with_pager(PAGES * PAGE, pager.clone());
    let _ = pager.object.set(Arc::downgrade(&object));
    let map = VmMap::new(&phys);
    map.set_fault_policy(FaultPolicy::trusting().with_cluster(4));
    let addr = map
        .allocate_with_object(None, PAGES * PAGE, object, 0, false)
        .expect("map the region");
    let start = m.clock.now_ns();
    let mut written = vec![0u8; PAGES as usize];
    let mut seed = 0x2545_f491_4f6c_dd1d_u64;
    for op in 0..OPS {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let page = (seed >> 33) % PAGES;
        let at = addr + page * PAGE;
        if op % 3 == 0 {
            let mut got = [0u8; 1];
            map.access_read(at, &mut got).expect("read");
            assert_eq!(got[0], written[page as usize], "page {page}");
        } else {
            let value = (op % 251) as u8 + 1;
            map.access_write(at, &[value]).expect("write");
            written[page as usize] = value;
        }
    }
    Storm {
        pageouts: m.stats.get(keys::VM_PAGEOUTS),
        swept: m.stats.get(keys::VM_DAEMON_RECLAIMS),
        sim_ns: m.clock.now_ns() - start,
    }
}

#[test]
fn a_single_writer_pressure_storm_replays() {
    let first = storm();
    assert!(first.pageouts > 0, "the storm paged out: {first:?}");
    assert!(
        first.swept > 0,
        "the storm crossed the low watermark: {first:?}"
    );
    assert_eq!(storm(), first);
}
