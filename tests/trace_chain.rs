//! End-to-end tests for the causal trace layer: one external-object fault
//! must produce one correlated chain spanning vm → ipc → pager → storage.

use machcore::{Kernel, KernelConfig, Task};
use machipc::{Message, ReceiveRight};
use machpagers::{FileServer, FsClient};
use machsim::stats::keys;
use machsim::trace::{self, keys as lat_keys};
use machsim::{span, EventKind, Machine, TraceEvent};
use machstorage::{BlockDevice, FlatFs};
use machvm::VmProt;
use std::sync::Arc;

/// Boots a kernel and file server on one machine with one 8 KiB file.
fn file_backed_setup() -> (Machine, Arc<Kernel>, Arc<FileServer>) {
    let machine = Machine::default_machine();
    let kernel = Kernel::boot_on(machine.clone(), KernelConfig::default());
    let dev = Arc::new(BlockDevice::new(&machine, 128));
    let fs = Arc::new(FlatFs::format(dev, 0));
    let server = FileServer::start(&machine, fs);
    server.fs().create("data.bin").unwrap();
    server
        .fs()
        .write("data.bin", 0, &vec![0x5Au8; 8192])
        .unwrap();
    (machine, kernel, server)
}

/// The `fault.submit` root opens of `events`: one per fault.
fn fault_roots(events: &[TraceEvent]) -> Vec<&TraceEvent> {
    events
        .iter()
        .filter(|e| e.kind == EventKind::SpanOpen("fault.submit"))
        .collect()
}

/// Whether `hops` appear among `chain`'s event names, in order.
fn in_causal_order(chain: &[TraceEvent], hops: &[&str]) -> bool {
    let mut next = 0;
    for e in chain {
        if next < hops.len() && e.kind.to_string() == hops[next] {
            next += 1;
        }
    }
    next == hops.len()
}

/// The tentpole acceptance test: a single fault on an externally paged
/// region yields one connected span tree under one correlation id, whose
/// hops run `fault.submit` → `ipc.queued` → `pager.service` → `disk_read`
/// → `pager.reply` → the root's close.
#[test]
fn external_fault_produces_one_correlated_chain() {
    let (machine, kernel, server) = file_backed_setup();
    let client = FsClient::new(server.port().clone());
    let task = Task::create(&kernel, "reader");
    let (addr, size) = client.read_file(&task, "data.bin").unwrap();
    assert_eq!(size, 8192);

    // Only the fault below should land in the buffer.
    machine.trace.clear();
    let faults_before = machine.stats.get(keys::VM_FAULTS);
    let mut byte = [0u8; 1];
    task.read_memory(addr, &mut byte).unwrap();
    assert_eq!(byte[0], 0x5A);

    let events = machine.trace.snapshot();
    let roots = fault_roots(&events);
    assert_eq!(roots.len(), 1, "one read -> one fault");
    assert_eq!(
        machine.stats.get(keys::VM_FAULTS) - faults_before,
        1,
        "one cid per fault"
    );
    let cid = roots[0].correlation_id.expect("fault allocates a cid");

    let chain = machine.trace.chain(cid);
    assert!(
        chain.iter().all(|e| e.correlation_id == Some(cid)),
        "every hop shares the fault's correlation id"
    );
    span::validate_chain_tree(&span::collect(&chain)).unwrap_or_else(|e| panic!("{e}: {chain:#?}"));
    assert!(
        in_causal_order(
            &chain,
            &[
                "fault.submit:open",
                "ipc.queued:open",
                "pager.service:open",
                "disk_read",
                "pager.reply:open",
                "fault.submit:close",
            ]
        ),
        "full chain was: {chain:#?}"
    );
    // Events are causally ordered: sequence numbers strictly increase.
    assert!(chain.windows(2).all(|w| w[0].seq < w[1].seq));

    // The latency histograms saw the same journey.
    for key in [
        lat_keys::FAULT_TO_RESOLUTION,
        lat_keys::REQUEST_TO_FILL,
        lat_keys::SEND_TO_RECEIVE,
    ] {
        let h = machine
            .latency
            .get(key)
            .unwrap_or_else(|| panic!("histogram {key} missing"));
        assert!(h.count() > 0, "{key} recorded no samples");
        assert!(h.p99_ns() >= h.p50_ns());
    }
}

/// Maps the file into a second task after a first one faulted it in: the
/// page is resident in the object, so the second task's fault never
/// leaves the vm layer.
fn warm_mapping() -> (Machine, Arc<Task>, u64) {
    let (machine, kernel, server) = file_backed_setup();
    let client = FsClient::new(server.port().clone());
    let task = Task::create(&kernel, "reader");
    let (addr, _) = client.read_file(&task, "data.bin").unwrap();
    let mut byte = [0u8; 1];
    task.read_memory(addr, &mut byte).unwrap(); // cold: fills the cache

    let task2 = Task::create(&kernel, "rereader");
    let (addr2, _) = client.read_file(&task2, "data.bin").unwrap();
    machine.trace.clear();
    (machine, task2, addr2)
}

/// A second fault on the same page is served from the VM page cache: same
/// correlation discipline, but the chain never leaves the vm layer.
#[test]
fn cached_fault_chain_stays_local() {
    let (machine, task, addr) = warm_mapping();
    let mut byte = [0u8; 1];
    task.read_memory(addr, &mut byte).unwrap();

    let events = machine.trace.snapshot();
    let roots = fault_roots(&events);
    assert_eq!(roots.len(), 1, "warm read still faults once");
    let chain = machine
        .trace
        .chain(roots[0].correlation_id.expect("fault allocates a cid"));
    span::validate_chain_tree(&span::collect(&chain)).unwrap_or_else(|e| panic!("{e}: {chain:#?}"));
    assert!(
        chain.iter().all(|e| !e.actor.starts_with("pager.")
            && !e.actor.starts_with("ipc.")
            && e.actor != "disk"),
        "warm fault should resolve without pager traffic: {chain:#?}"
    );
}

/// A resident page's fault is two spans and nothing else in the ring: the
/// root, then the pmap entry the map makes once the fault resolved.
#[test]
fn resident_page_fault_records_four_events() {
    let (machine, task, addr) = warm_mapping();
    let mut byte = [0u8; 1];
    task.read_memory(addr, &mut byte).expect("warm read");

    let events = machine.trace.snapshot();
    let roots = fault_roots(&events);
    assert_eq!(roots.len(), 1, "one read -> one fault");
    let kinds: Vec<String> = machine
        .trace
        .chain(roots[0].correlation_id.expect("fault allocates a cid"))
        .iter()
        .map(|e| e.kind.to_string())
        .collect();
    assert_eq!(
        kinds,
        [
            "fault.submit:open",
            "fault.submit:close",
            "vm.pmap_enter:open",
            "vm.pmap_enter:close",
        ]
    );
}

/// A fault's chain is the faulting thread's context only while the fault
/// runs: once a pager-backed `fault_ahead`, and then a `fault`, return,
/// the thread reads the context it had before, and its next uncorrelated
/// message stamps nothing into the finished chain.
#[test]
fn faulting_thread_leaves_the_faults_chain_when_it_returns() {
    let (machine, kernel, server) = file_backed_setup();
    let client = FsClient::new(server.port().clone());
    let task = Task::create(&kernel, "reader");
    let (addr, _) = client.read_file(&task, "data.bin").expect("map the file");
    let context = || (trace::current_correlation(), trace::current_span());
    let before = context();

    let submitted = task
        .map()
        .fault_ahead(addr, 4096, VmProt::READ)
        .expect("fault ahead");
    assert_eq!(submitted, 1, "the cold page goes to the file server");
    assert_eq!(context(), before, "context after fault_ahead");
    task.map().fault(addr + 4096, VmProt::READ).expect("fault");
    assert_eq!(context(), before, "context after fault");

    let (rx, tx) = ReceiveRight::allocate(&machine);
    let recorded = machine.trace.snapshot().len();
    tx.send(Message::new(1), None).expect("send");
    rx.receive(None).expect("receive");
    assert_eq!(
        machine.trace.snapshot().len(),
        recorded,
        "an uncorrelated send records no ring event"
    );
}

/// Tracing can be switched off and the stack keeps working silently.
#[test]
fn disabled_tracing_records_nothing() {
    let (machine, kernel, server) = file_backed_setup();
    machine.trace.set_enabled(false);
    machine.trace.clear();
    let client = FsClient::new(server.port().clone());
    let task = Task::create(&kernel, "reader");
    let (addr, _) = client.read_file(&task, "data.bin").unwrap();
    let mut byte = [0u8; 1];
    task.read_memory(addr, &mut byte).unwrap();
    assert_eq!(byte[0], 0x5A);
    assert!(machine.trace.is_empty());
}
