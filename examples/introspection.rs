//! Introspection: query a kernel's statistics over IPC — from the same
//! host and from a *different* host across the net fabric — then render
//! the fetched snapshot as Prometheus text.
//!
//! The host port is an ordinary port: the same `host_statistics` message
//! works locally or through a netmsgserver proxy, which is the paper's
//! location transparency applied to the kernel's own state.
//!
//! ```text
//! cargo run --example introspection
//! ```

use machcore::introspect::{query_host_statistics, query_task_info, query_vm_statistics};
use machcore::{spawn_manager, DataManager, Kernel, KernelConfig, KernelConn, Task};
use machipc::OolBuffer;
use machnet::Fabric;
use machsim::stats::keys;
use machvm::VmProt;

/// A pager whose object reads back as 0xAB everywhere.
struct ConstPager;

impl DataManager for ConstPager {
    fn data_request(&mut self, k: &KernelConn, object: u64, offset: u64, length: u64, _a: VmProt) {
        k.data_provided(
            object,
            offset,
            OolBuffer::from_vec(vec![0xAB; length as usize]),
            VmProt::NONE,
        );
    }
}

fn main() {
    // Two hosts on one fabric; the kernel under observation runs on beta.
    let fabric = Fabric::new();
    let alpha = fabric.add_host("alpha");
    let beta = fabric.add_host("beta");
    let kernel = Kernel::boot_on(beta.machine().clone(), KernelConfig::default());

    // Some observable activity on beta: externally paged faults.
    let task = Task::create(&kernel, "worker");
    let mgr = spawn_manager(kernel.machine(), "const", ConstPager);
    let addr = task
        .vm_allocate_with_pager(None, 8 * 4096, mgr.port(), 0)
        .expect("map memory object");
    let mut b = [0u8; 1];
    for page in 0..8u64 {
        task.read_memory(addr + page * 4096, &mut b).unwrap();
    }

    // Local query: beta asks its own kernel.
    let local = query_host_statistics(kernel.host_port()).expect("local query");
    println!(
        "[beta, local] {} faults, {} in-flight chains at {} ns",
        local.counter(keys::VM_FAULTS),
        local.in_flight,
        local.now_ns
    );

    // Remote query: alpha holds only a proxy right for beta's host port;
    // the request, the reply port, and the reply all cross the fabric.
    let proxy = fabric.proxy_right(&alpha, &beta, kernel.host_port().clone());
    let remote = query_host_statistics(&proxy).expect("remote query");
    println!(
        "[alpha -> {}] {} faults fetched over the net ({} net messages on alpha)",
        remote.host,
        remote.counter(keys::VM_FAULTS),
        alpha.machine().stats.get(keys::NET_MESSAGES)
    );

    let vm = query_vm_statistics(&proxy).expect("remote vm query");
    println!(
        "[alpha -> {}] resident {} / total {} frames, {} memory node(s)",
        vm.host,
        vm.census.resident,
        vm.census.total,
        vm.nodes.len()
    );
    let info = query_task_info(&proxy).expect("remote task query");
    for t in &info.tasks {
        println!(
            "[alpha -> {}] task '{}': {} regions, {} bytes, {} resident pages",
            info.host, t.name, t.regions, t.virtual_bytes, t.resident_pages
        );
    }

    // The fetched snapshot renders on the querying side.
    println!("\nPrometheus exposition of the remote snapshot (excerpt):");
    for line in remote
        .to_prometheus()
        .lines()
        .filter(|l| l.starts_with("vm_faults") || l.starts_with("trace_dropped"))
    {
        println!("  {line}");
    }
    println!("done.");
}
