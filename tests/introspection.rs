//! Kernel introspection over IPC: the host port answers statistics, VM
//! census, task and trace queries — locally, and from another host purely
//! through the net fabric (the `host_info`/`vm_statistics` analogue, with
//! the location transparency Section 2 promises for all port-based
//! services).

use machcore::introspect::{
    query_host_statistics, query_task_info, query_trace, query_vm_statistics,
};
use machcore::{spawn_manager, DataManager, Kernel, KernelConfig, KernelConn, Task};
use machipc::OolBuffer;
use machnet::Fabric;
use machsim::stats::keys;
use machvm::VmProt;
use std::sync::Arc;

const PAGE: u64 = 4096;

/// Answers every request with pages stamped by page number.
struct StampPager;

impl DataManager for StampPager {
    fn data_request(&mut self, k: &KernelConn, object: u64, offset: u64, length: u64, _a: VmProt) {
        let data: Vec<u8> = (offset..offset + length)
            .map(|i| (i / PAGE) as u8)
            .collect();
        k.data_provided(object, offset, OolBuffer::from_vec(data), VmProt::NONE);
    }
}

/// Faults `pages` externally paged pages on `kernel` and returns the task
/// (kept alive so task_info can see it).
fn fault_workload(kernel: &Arc<Kernel>, name: &str, pages: u64) -> Arc<Task> {
    let task = Task::create(kernel, name);
    let mgr = spawn_manager(kernel.machine(), "stamp", StampPager);
    let addr = task
        .vm_allocate_with_pager(None, pages * PAGE, mgr.port(), 0)
        .unwrap();
    let mut b = [0u8; 1];
    for p in 0..pages {
        task.read_memory(addr + p * PAGE, &mut b).unwrap();
        assert_eq!(b[0], p as u8);
    }
    task
}

#[test]
fn host_statistics_reflect_a_known_workload() {
    let kernel = Kernel::boot(KernelConfig::default());
    let before = query_host_statistics(kernel.host_port()).unwrap();
    let _task = fault_workload(&kernel, "intro", 8);
    let after = query_host_statistics(kernel.host_port()).unwrap();

    // Registry diff across the workload: counters the query path itself
    // never touches must show exactly the workload's activity.
    assert!(after.counter(keys::VM_FAULTS) - before.counter(keys::VM_FAULTS) >= 8);
    // Cluster paging coalesces cold pages into few pager fills, but at
    // least one round-trip and at most one per page must have happened.
    let fills = after.counter(keys::VM_PAGER_FILLS) - before.counter(keys::VM_PAGER_FILLS);
    assert!((1..=8).contains(&fills), "pager fills: {fills}");
    assert_eq!(
        after.counter(keys::VM_ZERO_FILLS),
        before.counter(keys::VM_ZERO_FILLS),
        "no zero fills in an externally paged workload"
    );
    let fault_hist = after
        .histograms
        .iter()
        .find(|h| h.name == machsim::trace::keys::FAULT_TO_RESOLUTION)
        .expect("fault latency histogram present");
    assert!(fault_hist.count >= 8);

    // The fetched snapshot renders as Prometheus text on the client side.
    let prom = after.to_prometheus();
    assert!(prom.contains("vm_faults "));
    assert!(prom.contains("vm_fault_to_resolution_ns_bucket{le="));
    assert!(prom.contains("trace_dropped_events "));
}

#[test]
fn vm_statistics_and_task_info_describe_live_state() {
    let kernel = Kernel::boot(KernelConfig::default());
    let _task = fault_workload(&kernel, "census-task", 6);

    let vm = query_vm_statistics(kernel.host_port()).unwrap();
    assert!(vm.census.total > 0);
    assert!(vm.census.free <= vm.census.total);
    assert!(vm.census.resident >= 6, "faulted pages are resident");
    assert!(!vm.nodes.is_empty());
    let placed: u64 = vm.nodes.iter().map(|n| n.resident).sum();
    assert_eq!(placed, vm.census.resident, "the nodes cover the table");

    let info = query_task_info(kernel.host_port()).unwrap();
    let t = info
        .tasks
        .iter()
        .find(|t| t.name == "census-task")
        .expect("registered task visible");
    assert!(t.regions >= 1);
    assert_eq!(t.virtual_bytes, 6 * PAGE);
    assert!(t.resident_pages >= 6);
}

#[test]
fn trace_query_returns_the_fault_chain() {
    let kernel = Kernel::boot(KernelConfig::default());
    let _task = fault_workload(&kernel, "tracer", 4);

    let recent = query_trace(kernel.host_port(), 0, 256).unwrap();
    assert!(recent.records.iter().any(|r| r.kind == "fault"));
    let cid = recent
        .records
        .iter()
        .find(|r| r.kind == "data_request")
        .expect("pager round-trip traced")
        .correlation;
    assert_ne!(cid, 0);

    // Fetch that one chain by correlation id: fault through resume.
    let chain = query_trace(kernel.host_port(), cid, 256).unwrap();
    assert!(chain.records.iter().all(|r| r.correlation == cid));
    for kind in ["fault", "data_request", "data_provided", "resume"] {
        assert!(
            chain.records.iter().any(|r| r.kind == kind),
            "chain lacks {kind}"
        );
    }
}

#[test]
fn host_a_queries_host_b_across_the_fabric() {
    // Host alpha fetches beta's statistics purely via IPC: the host port
    // is proxied through the netmsgserver like any other port, so the
    // query, its reply port, and the reply all cross the network.
    let fabric = Fabric::new();
    let alpha = fabric.add_host("alpha");
    let beta = fabric.add_host("beta");
    let kernel_b = Kernel::boot_on(beta.machine().clone(), KernelConfig::default());

    let proxy = fabric.proxy_right(&alpha, &beta, kernel_b.host_port().clone());
    let before = query_host_statistics(&proxy).unwrap();
    assert_eq!(before.host, "beta", "snapshot names the serving host");

    let _task = fault_workload(&kernel_b, "remote-work", 8);

    let after = query_host_statistics(&proxy).unwrap();
    assert_eq!(after.host, "beta");
    assert!(after.counter(keys::VM_FAULTS) - before.counter(keys::VM_FAULTS) >= 8);
    let fills = after.counter(keys::VM_PAGER_FILLS) - before.counter(keys::VM_PAGER_FILLS);
    assert!((1..=8).contains(&fills), "pager fills: {fills}");
    assert_eq!(
        after.counter(keys::VM_ZERO_FILLS),
        before.counter(keys::VM_ZERO_FILLS)
    );
    // The query itself traveled the wire: alpha's net counters moved.
    assert!(alpha.machine().stats.get(keys::NET_MESSAGES) > 0);

    // The remote census and task list arrive the same way.
    let vm = query_vm_statistics(&proxy).unwrap();
    assert_eq!(vm.host, "beta");
    assert!(vm.census.resident >= 8);
    let info = query_task_info(&proxy).unwrap();
    assert!(info.tasks.iter().any(|t| t.name == "remote-work"));
}
