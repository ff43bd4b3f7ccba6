//! E17 — fault hot-path scaling: the resident table under concurrent
//! faults, and cluster paging.
//!
//! Workload A measures raw fault throughput as threads are added: K threads
//! resolve zero-fill faults against disjoint objects, so every fault is
//! independent and the only possible serialization is the VM system's own
//! locking — the one resident table and the fault engine's table, the
//! path every kernel fault takes. Wall-clock, so host-dependent.
//!
//! Workload B measures the message cost of demand paging: a sequential read
//! of N pages from a cluster-capable pager, comparing cluster sizes 1 and 8.
//! Cluster 8 should issue ~8x fewer `pager_data_request` messages.
//!
//! Workload C is the other side of that choice: seeded random single-page
//! faults under the same cluster-8 policy. A request is sized by the
//! access, so each fill should bring in exactly the page that was touched.
//!
//! Workload D counts what a cold fault-ahead extent costs the engine: one
//! fault over a 16-page absent run, against the same in-process pager.
//! One fault and one park per extent, whatever its length.
//!
//! Run with `--smoke` for a seconds-scale sanity pass (used by
//! `scripts/check.sh`); the full run sizes the workloads for stable numbers.

use machipc::OolBuffer;
use machsim::stats::keys;
use machsim::wall;
use machsim::{Machine, SplitMix64};
use machvm::fault::resolve_page;
use machvm::{FaultPolicy, ObjectId, PagerBackend, PhysicalMemory, VmObject, VmProt};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Workload A: K threads zero-fill-fault disjoint objects; returns
/// faults per wall-clock second.
fn fault_throughput(threads: usize, pages_per_thread: u64) -> f64 {
    let m = Machine::default_machine();
    let frames = threads * pages_per_thread as usize + 64;
    let phys = PhysicalMemory::new(&m, frames * 4096, 4096, 16);
    let objs: Vec<_> = (0..threads)
        .map(|_| VmObject::new_temporary(pages_per_thread * 4096))
        .collect();
    let start = wall::now();
    std::thread::scope(|s| {
        for obj in &objs {
            let phys = &phys;
            s.spawn(move || {
                for pg in 0..pages_per_thread {
                    resolve_page(phys, obj, pg * 4096, VmProt::WRITE, FaultPolicy::trusting())
                        .unwrap();
                }
            });
        }
    });
    (threads as u64 * pages_per_thread) as f64 / start.elapsed().as_secs_f64()
}

/// A pager that supplies pages synchronously and counts request messages
/// and the pages they asked for.
struct CountingPager {
    phys: Arc<PhysicalMemory>,
    object: Mutex<Option<Arc<VmObject>>>,
    requests: AtomicU64,
    pages: AtomicU64,
}

impl PagerBackend for CountingPager {
    fn supports_cluster(&self) -> bool {
        true
    }

    fn data_request(&self, _object: ObjectId, offset: u64, length: u64, _access: VmProt) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.pages.fetch_add(length / 4096, Ordering::Relaxed);
        let obj = self.object.lock().clone().unwrap();
        self.phys
            .supply_page(
                &obj,
                offset,
                OolBuffer::from_vec(vec![0xA5u8; length as usize]),
                VmProt::NONE,
            )
            .unwrap();
    }

    fn data_write(&self, _object: ObjectId, _offset: u64, _data: OolBuffer) {}

    fn data_unlock(&self, _object: ObjectId, _offset: u64, _length: u64, _access: VmProt) {}
}

/// A fresh `pages`-page object behind a [`CountingPager`], with memory
/// for all of it.
fn counted_object(pages: u64) -> (Arc<PhysicalMemory>, Arc<CountingPager>, Arc<VmObject>) {
    let m = Machine::default_machine();
    let phys = PhysicalMemory::new(&m, (pages as usize + 64) * 4096, 4096, 16);
    let pager = Arc::new(CountingPager {
        phys: phys.clone(),
        object: Mutex::new(None),
        requests: AtomicU64::new(0),
        pages: AtomicU64::new(0),
    });
    let obj = VmObject::new_with_pager(pages * 4096, pager.clone());
    *pager.object.lock() = Some(obj.clone());
    (phys, pager, obj)
}

/// Workload B: sequential read of `pages` pages at the given cluster size;
/// returns the number of `pager_data_request` messages issued.
fn cluster_requests(cluster: usize, pages: u64) -> u64 {
    let (phys, pager, obj) = counted_object(pages);
    let policy = FaultPolicy::trusting().with_cluster(cluster);
    for pg in 0..pages {
        resolve_page(&phys, &obj, pg * 4096, VmProt::READ, policy).unwrap();
    }
    pager.requests.load(Ordering::Relaxed)
}

/// Workload C: `faults` seeded random write faults over an object four
/// times that size, cluster 8; returns pages requested per request. A
/// draw that happens to continue the last miss is sequential, not random,
/// and is redrawn.
fn pages_per_random_fill(faults: u64, seed: u64) -> f64 {
    let pages = 4 * faults;
    let (phys, pager, obj) = counted_object(pages);
    let policy = FaultPolicy::trusting().with_cluster(8);
    let mut rng = SplitMix64::new(seed);
    let (mut missed, mut run_end) = (std::collections::HashSet::new(), 0);
    for _ in 0..faults {
        let pg = loop {
            let pg = 1 + rng.next_below(pages - 1);
            if pg != run_end {
                break pg;
            }
        };
        if missed.insert(pg) {
            run_end = pg + 1;
        }
        resolve_page(&phys, &obj, pg * 4096, VmProt::WRITE, policy)
            .expect("the counting pager answers every request");
    }
    pager.pages.load(Ordering::Relaxed) as f64 / pager.requests.load(Ordering::Relaxed) as f64
}

/// Workload D: `extents` cold 16-page runs, each submitted as one fault;
/// returns (faults, parks) per extent, from the machine's counters.
fn cold_extent_counts(extents: u64) -> (f64, f64) {
    const EXTENT: u64 = 16;
    let (phys, _pager, obj) = counted_object(extents * EXTENT);
    let policy = FaultPolicy::trusting().with_cluster(EXTENT as usize);
    let stats = &phys.machine().stats;
    for extent in 0..extents {
        let pages = phys
            .fault_engine()
            .submit_run(
                &obj,
                extent * EXTENT * 4096,
                EXTENT as usize,
                VmProt::READ,
                policy,
            )
            .wait_run()
            .expect("the counting pager answers every request");
        assert_eq!(pages.len(), EXTENT as usize);
    }
    (
        stats.get(keys::VM_FAULTS) as f64 / extents as f64,
        stats.get(keys::VM_ASYNC_PARKS) as f64 / extents as f64,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (pages_per_thread, seq_pages) = if smoke {
        (128u64, 128u64)
    } else {
        (2048, 1024)
    };

    println!("fault_scaling (pages/thread={pages_per_thread}, sequential pages={seq_pages})");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("A. parallel zero-fill faults, disjoint objects ({cores} cores):");
    let mut base = 0.0f64;
    let mut thread_rows: Vec<(usize, f64)> = Vec::new();
    for &k in &[1usize, 2, 4, 8] {
        let tput = fault_throughput(k, pages_per_thread);
        if k == 1 {
            base = tput;
        }
        println!(
            "   threads={k}: {:>10.0} faults/s  (speedup {:.2}x, ideal {}x)",
            tput,
            tput / base,
            k.min(cores)
        );
        thread_rows.push((k, tput));
    }

    println!("B. sequential demand paging, pager_data_request messages:");
    let mut single = 0u64;
    let mut cluster_rows: Vec<(usize, u64)> = Vec::new();
    for &c in &[1usize, 8] {
        let reqs = cluster_requests(c, seq_pages);
        if c == 1 {
            single = reqs;
        }
        println!(
            "   cluster={c}: {reqs:>5} messages for {seq_pages} pages  ({:.2}x fewer)",
            single as f64 / reqs as f64
        );
        cluster_rows.push((c, reqs));
    }
    let clustered = cluster_rows.last().expect("cluster sweep ran").1.max(1);
    let cluster_ratio = single as f64 / clustered as f64;

    println!("C. random demand paging (cluster=8), pages per pager_data_request:");
    let random_fill = pages_per_random_fill(seq_pages, 0x5EED);
    println!("   {seq_pages} seeded random faults: {random_fill:.2} pages per fill");

    println!("D. cold 16-page fault-ahead extents, engine work per extent:");
    let (extent_faults, extent_parks) = cold_extent_counts(seq_pages / 16);
    println!(
        "   {} extents: {extent_faults:.2} faults, {extent_parks:.2} parks per extent",
        seq_pages / 16
    );

    // Machine-readable trajectory entry at the repository root; `report
    // bench-diff` ratchets the host-independent cluster message ratio, the
    // pages a random fault's fill brings in, and the faults and parks a
    // cold extent costs.
    let mut json = String::from("{\n  \"bench\": \"fault_scaling\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"pages_per_thread\": {pages_per_thread},\n  \"sequential_pages\": {seq_pages},\n",
        if smoke { "smoke" } else { "full" }
    ));
    json.push_str("  \"threads\": [\n");
    for (i, (k, tput)) in thread_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {k}, \"faults_per_sec\": {tput:.0}}}{}\n",
            if i + 1 < thread_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"cluster\": [\n");
    for (i, (c, reqs)) in cluster_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"cluster\": {c}, \"messages\": {reqs}}}{}\n",
            if i + 1 < cluster_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"cluster_message_ratio\": {cluster_ratio:.2},\n  \"pages_per_random_fill\": {random_fill:.2},\n  \"faults_per_cold_extent\": {extent_faults:.2},\n  \"parks_per_cold_extent\": {extent_parks:.2}\n}}\n"
    ));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scaling.json");
    std::fs::write(path, &json).expect("write BENCH_scaling.json at the repo root");
    println!("wrote {path}");
}
