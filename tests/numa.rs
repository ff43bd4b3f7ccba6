//! Integration: NUMA memory placement — first-touch allocation, read
//! replication with write shootdown, hot-page migration — exercised both
//! against the raw VM layer and through a booted kernel.

use machcore::{spawn_manager, DataManager, Kernel, KernelConfig, KernelConn, Task};
use machipc::OolBuffer;
use machsim::stats::keys;
use machsim::{CostModel, Machine, SplitMix64, Topology};
use machvm::numa::set_current_node;
use machvm::{FaultEngineConfig, NumaConfig, PhysicalMemory, VmMap, VmProt};
use std::sync::Arc;

const PAGE: u64 = 4096;
const NODES: usize = 4;

fn numa_map(numa: NumaConfig, frames: usize) -> (Machine, Arc<PhysicalMemory>, Arc<VmMap>) {
    let m = Machine::with_topology(Topology::Numa);
    let phys = PhysicalMemory::with_config(
        &m,
        frames * PAGE as usize,
        PAGE as usize,
        8,
        numa,
        FaultEngineConfig::default(),
    );
    let map = VmMap::new(&phys);
    (m, phys, map)
}

#[test]
fn first_touch_places_pages_on_faulting_node() {
    let (_m, phys, map) = numa_map(NumaConfig::nodes(NODES).with_first_touch(), 256);
    let base = map.allocate(None, 8 * PAGE).unwrap();
    for node in 0..NODES {
        set_current_node(Some(node));
        let frame = map.fault(base + node as u64 * PAGE, VmProt::WRITE).unwrap();
        assert_eq!(
            phys.frame_node(frame),
            node,
            "first touch from node {node} landed elsewhere"
        );
    }
    set_current_node(None);
}

#[test]
fn without_first_touch_placement_round_robins() {
    let (_m, phys, map) = numa_map(NumaConfig::nodes(NODES), 256);
    let base = map.allocate(None, 8 * PAGE).unwrap();
    set_current_node(Some(2));
    for i in 0..NODES {
        let frame = map.fault(base + i as u64 * PAGE, VmProt::WRITE).unwrap();
        assert_eq!(
            phys.frame_node(frame),
            i,
            "placement-blind striping should ignore the faulting node"
        );
    }
    set_current_node(None);
}

#[test]
fn replication_then_shootdown_preserves_read_your_writes() {
    let (m, _phys, map) = numa_map(
        NumaConfig::nodes(NODES)
            .with_first_touch()
            .with_replication(),
        256,
    );
    let base = map.allocate(None, 2 * PAGE).unwrap();
    let mut buf = vec![0u8; PAGE as usize];

    // Node 0 first-touches the region...
    set_current_node(Some(0));
    map.access_write(base, &vec![0xAA; PAGE as usize]).unwrap();

    // ...and the other nodes read it past the hot threshold, growing
    // per-node replicas.
    for _ in 0..8 {
        for node in 1..NODES {
            set_current_node(Some(node));
            map.access_read(base, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 0xAA));
        }
    }
    assert!(
        m.stats.get(keys::NUMA_REPLICATIONS) >= (NODES - 1) as u64,
        "read-hot page should have replicated to every remote node"
    );

    // Once replicated, remote reads are served locally.
    let local_before = m.stats.get(keys::NUMA_LOCAL_HITS);
    set_current_node(Some(1));
    map.access_read(base, &mut buf).unwrap();
    assert!(
        m.stats.get(keys::NUMA_LOCAL_HITS) > local_before,
        "replicated read should count as a local hit"
    );

    // The home node writes again: every replica must be shot down and the
    // new bytes must be what every other node reads next.
    set_current_node(Some(0));
    map.access_write(base, &vec![0xBB; PAGE as usize]).unwrap();
    assert!(
        m.stats.get(keys::NUMA_SHOOTDOWNS) >= 1,
        "write to a replicated page must shoot replicas down"
    );
    for node in 1..NODES {
        set_current_node(Some(node));
        map.access_read(base, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == 0xBB),
            "node {node} read stale bytes after shootdown"
        );
    }
    set_current_node(None);
}

#[test]
fn write_hot_page_migrates_to_its_writer() {
    let (m, phys, map) = numa_map(NumaConfig::all_policies(NODES), 256);
    let base = map.allocate(None, PAGE).unwrap();

    set_current_node(Some(0));
    map.access_write(base, &vec![1; PAGE as usize]).unwrap();
    assert_eq!(phys.frame_node(map.fault(base, VmProt::READ).unwrap()), 0);

    // Node 3 becomes the dominant writer; the page should chase it.
    set_current_node(Some(3));
    for i in 0..8u8 {
        map.access_write(base, &vec![i | 1; PAGE as usize]).unwrap();
    }
    assert!(
        m.stats.get(keys::NUMA_MIGRATIONS) >= 1,
        "page never migrated"
    );
    assert_eq!(
        phys.frame_node(map.fault(base, VmProt::READ).unwrap()),
        3,
        "write-hot page should live on its dominant writer's node"
    );

    // The migrated copy carries the data.
    let mut buf = vec![0u8; PAGE as usize];
    map.access_read(base, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 7 | 1));
    set_current_node(None);
}

#[test]
fn multithreaded_numa_stress_keeps_data_coherent() {
    // Eight threads role-playing four nodes hammer three regions at once:
    // a read-hot shared region whose pages a writer keeps republishing
    // (replication + shootdown races), a per-thread private region
    // (first-touch), and a hot region where each thread writes one page
    // first touched elsewhere (migration). Every read checks its bytes;
    // the physical layer's invariants must hold afterwards.
    let (m, phys, map) = numa_map(NumaConfig::all_policies(NODES), 1024);
    let shared_pages = 8u64;
    let shared = map.allocate(None, shared_pages * PAGE).unwrap();
    let hot = map.allocate(None, 8 * PAGE).unwrap();
    set_current_node(Some(0));
    for p in 0..shared_pages {
        map.access_write(shared + p * PAGE, &vec![1; PAGE as usize])
            .unwrap();
    }
    for p in 0..8 {
        map.access_write(hot + p * PAGE, &vec![1; PAGE as usize])
            .unwrap();
    }
    set_current_node(None);

    let threads = 8usize;
    let privates: Vec<u64> = (0..threads)
        .map(|_| map.allocate(None, 4 * PAGE).unwrap())
        .collect();
    // On a small host one thread can finish all its rounds before the
    // next one starts. Meeting half-way guarantees the writer's later
    // rounds find the readers' replicas, whatever the schedule was.
    let halfway = std::sync::Barrier::new(threads);
    std::thread::scope(|s| {
        for (t, &private) in privates.iter().enumerate() {
            let map = map.clone();
            let halfway = &halfway;
            s.spawn(move || {
                set_current_node(Some(t % NODES));
                let mut rng = SplitMix64::new(t as u64 + 1);
                let mut buf = vec![0u8; PAGE as usize];
                for round in 0..60u32 {
                    if round == 30 {
                        halfway.wait();
                    }
                    // Shared region: pages are rewritten whole, so any
                    // read must see a uniform page.
                    let p = rng.next_below(shared_pages);
                    if t == 0 && round % 8 == 0 {
                        let v = (round / 8 + 2) as u8;
                        map.access_write(shared + p * PAGE, &vec![v; PAGE as usize])
                            .unwrap();
                    } else {
                        map.access_read(shared + p * PAGE, &mut buf).unwrap();
                        assert!(
                            buf.windows(2).all(|w| w[0] == w[1]),
                            "torn shared page {p} in thread {t}"
                        );
                    }
                    // Private region: strict read-your-writes.
                    let q = rng.next_below(4);
                    let tag = (t as u8) << 4 | (q as u8 + 1);
                    map.access_write(private + q * PAGE, &vec![tag; PAGE as usize])
                        .unwrap();
                    map.access_read(private + q * PAGE, &mut buf).unwrap();
                    assert!(
                        buf.iter().all(|&b| b == tag),
                        "private page lost thread {t}'s write"
                    );
                    // Hot region: each thread owns one page, first touched
                    // by node 0, so it migrates mid-stress.
                    let tag = t as u8 + 100;
                    map.access_write(hot + t as u64 * PAGE, &vec![tag; PAGE as usize])
                        .unwrap();
                    map.access_read(hot + t as u64 * PAGE, &mut buf).unwrap();
                    assert!(buf.iter().all(|&b| b == tag));
                }
            });
        }
    });
    phys.check_invariants();
    assert!(m.stats.get(keys::NUMA_REPLICATIONS) > 0);
    assert!(m.stats.get(keys::NUMA_SHOOTDOWNS) > 0);
    // Under `--features lockdep` the storm doubles as a model check of the
    // lock hierarchy: any forbidden nesting panics, and the witness must
    // have order-checked real nested traffic.
    #[cfg(feature = "lockdep")]
    assert!(
        machvm::lockdep::nested_acquisitions() > 0,
        "lockdep witness saw no nested acquisitions in the NUMA stress"
    );
}

struct OffsetPager;

impl DataManager for OffsetPager {
    fn data_request(&mut self, k: &KernelConn, object: u64, offset: u64, length: u64, _a: VmProt) {
        let data: Vec<u8> = (offset..offset + length)
            .map(|i| (i / PAGE) as u8)
            .collect();
        k.data_provided(object, offset, OolBuffer::from_vec(data), VmProt::NONE);
    }
}

#[test]
fn kernel_numa_stress_has_zero_watchdog_stalls() {
    // A full kernel boot on the NUMA cost model with all placement
    // policies on: four tasks (spread round-robin across nodes) fault a
    // pager-backed object and scribble over anonymous memory from
    // concurrent threads. Data stays correct, placement counters move,
    // and the stall watchdog never fires.
    let kernel = Kernel::boot(KernelConfig {
        memory_bytes: 64 << 20,
        cost: CostModel::numa(),
        numa: NumaConfig::all_policies(NODES),
        ..KernelConfig::default()
    });
    let mgr = spawn_manager(kernel.machine(), "offsets", OffsetPager);
    let pages = 32u64;
    let tasks: Vec<Arc<Task>> = (0..NODES)
        .map(|i| Task::create(&kernel, &format!("numa{i}")))
        .collect();
    std::thread::scope(|s| {
        for (t, task) in tasks.iter().enumerate() {
            let task = task.clone();
            let port = mgr.port();
            s.spawn(move || {
                let paged = task
                    .vm_allocate_with_pager(None, pages * PAGE, port, 0)
                    .unwrap();
                let anon = task.vm_allocate(pages * PAGE).unwrap();
                let mut rng = SplitMix64::new(t as u64 + 7);
                for _ in 0..200 {
                    let p = rng.next_below(pages);
                    let mut b = [0u8; 1];
                    task.read_memory(paged + p * PAGE, &mut b).unwrap();
                    assert_eq!(b[0], p as u8, "task {t}, pager page {p}");
                    task.write_memory(anon + p * PAGE, &[t as u8, p as u8])
                        .unwrap();
                    let mut b = [0u8; 2];
                    task.read_memory(anon + p * PAGE, &mut b).unwrap();
                    assert_eq!(b, [t as u8, p as u8]);
                }
            });
        }
    });
    let stats = &kernel.machine().stats;
    assert!(
        stats.get(keys::NUMA_LOCAL_HITS) > 0,
        "NUMA accounting never engaged"
    );
    assert_eq!(
        stats.get(keys::WATCHDOG_STALLS),
        0,
        "healthy NUMA run flagged by the stall watchdog"
    );
}
