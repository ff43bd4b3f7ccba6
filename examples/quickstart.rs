//! Quickstart: boot a kernel, write a data manager, map its memory object.
//!
//! This is the smallest complete tour of the paper's contribution: a page
//! fault in an ordinary task turns into a `pager_data_request` message to
//! a user-level server, which answers with `pager_data_provided`, and the
//! faulting thread resumes on the supplied page.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use machcore::{spawn_manager, DataManager, Kernel, KernelConfig, KernelConn, Task};
use machipc::OolBuffer;
use machvm::VmProt;

/// A data manager whose memory object contains a generated pattern:
/// byte `i` of the object is `i % 251`.
struct PatternPager;

impl DataManager for PatternPager {
    fn data_request(
        &mut self,
        kernel: &KernelConn,
        object: u64,
        offset: u64,
        length: u64,
        _access: VmProt,
    ) {
        println!("  [pager] pager_data_request: offset={offset} length={length}");
        let data: Vec<u8> = (offset..offset + length).map(|i| (i % 251) as u8).collect();
        kernel.data_provided(object, offset, OolBuffer::from_vec(data), VmProt::NONE);
    }

    fn data_write(&mut self, kernel: &KernelConn, object: u64, offset: u64, data: OolBuffer) {
        println!(
            "  [pager] pager_data_write: offset={offset} ({} bytes)",
            data.len()
        );
        kernel.release_laundry(object, data.len() as u64);
    }
}

fn main() {
    // Boot a Mach kernel: 4 MB of simulated memory and a default pager
    // over a paging partition.
    let kernel = Kernel::boot(KernelConfig::default());
    println!("kernel booted: page size {} bytes", kernel.page_size());

    // Start the data manager (a user-level task with a port).
    let manager = spawn_manager(kernel.machine(), "pattern", PatternPager);

    // A client task maps the memory object: vm_allocate_with_pager.
    let task = Task::create(&kernel, "client");
    let addr = task
        .vm_allocate_with_pager(None, 16 * 4096, manager.port(), 0)
        .expect("map memory object");
    println!("mapped 16 pages of the pattern object at {addr:#x}");

    // Touch a few pages: each first touch is a fault -> pager round trip.
    for page in [0u64, 3, 9] {
        let mut buf = [0u8; 8];
        task.read_memory(addr + page * 4096, &mut buf)
            .expect("read mapped memory");
        println!("  page {page}: first bytes {buf:?}");
        assert_eq!(buf[0], ((page * 4096) % 251) as u8);
    }

    // Warm accesses hit the resident cache: no more pager traffic.
    let fills = kernel
        .machine()
        .stats
        .get(machsim::stats::keys::VM_PAGER_FILLS);
    let mut buf = [0u8; 8];
    task.read_memory(addr, &mut buf).unwrap();
    assert_eq!(
        kernel
            .machine()
            .stats
            .get(machsim::stats::keys::VM_PAGER_FILLS),
        fills,
        "warm access stayed in the cache"
    );
    println!("warm re-read hit the VM cache (no pager message)");

    // Writes land in the cache and flow back on unmap.
    task.write_memory(addr, b"hello, external pager!").unwrap();
    task.vm_deallocate(addr, 16 * 4096).unwrap();
    // Give the asynchronous write-back a moment, then report.
    machsim::wall::sleep(std::time::Duration::from_millis(100));
    let stats = task.vm_statistics();
    println!(
        "vm_statistics: faults={} pageins={} pageouts={} cache hits={}",
        stats.faults, stats.pageins, stats.pageouts, stats.cache_hits
    );
    println!("done.");
}
