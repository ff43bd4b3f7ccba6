//! Satellite: a netmsgserver-proxied fault chain forms ONE connected
//! span tree. The fault happens on a workstation whose memory object is
//! a proxy for a file server on another host, so the pager protocol
//! rides the fabric both ways; the merged trace of both hosts must still
//! reconstruct into a single tree per fault — exactly one root, no
//! orphan spans — stitched across the network by `net.hop` spans that
//! open on one host's ring and close on the other's.

use machcore::{Kernel, KernelConfig, Task};
use machipc::{Message, MsgItem};
use machnet::Fabric;
use machpagers::FileServer;
use machsim::export;
use machsim::span::{self, SpanRecord};
use machsim::trace::CorrelationId;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const PAGE: u64 = 4096;

#[test]
fn proxied_fault_chain_is_one_connected_span_tree() {
    let fabric = Fabric::new();
    let server_host = fabric.add_host("fileserver");
    let client_host = fabric.add_host("workstation");
    let _server_kernel = Kernel::boot_on(server_host.machine().clone(), KernelConfig::default());
    let client_kernel = Kernel::boot_on(client_host.machine().clone(), KernelConfig::default());

    let dev = Arc::new(machstorage::BlockDevice::new(server_host.machine(), 128));
    let fs = Arc::new(machstorage::FlatFs::format(dev, 0));
    let server = FileServer::start(server_host.machine(), fs);
    server.fs().create("tree.doc").expect("fresh fs");
    server
        .fs()
        .write("tree.doc", 0, &vec![0x37u8; 2 * PAGE as usize])
        .expect("file fits the device");

    let reply = fabric
        .rpc(
            &client_host,
            &server_host,
            server.port(),
            Message::new(machpagers::fs::FS_READ_FILE).with(MsgItem::bytes(b"tree.doc".to_vec())),
            Some(Duration::from_secs(10)),
        )
        .expect("file server answers the RPC");
    assert_eq!(reply.id, machpagers::fs::FS_OK);
    let size = reply.body[0].as_u64s().expect("size word")[0];
    let MsgItem::SendRights(rights) = &reply.body[1] else {
        panic!("memory object expected");
    };
    // The fabric rewrote the right into a proxy on the client's host.
    let object_proxy = &rights[0];

    let task = Task::create(&client_kernel, "remote-reader");
    // Single-page faults: each chain is one data_request round trip, so
    // every tree below is one fault's worth of causality.
    task.map().set_fault_policy(machvm::FaultPolicy::trusting());
    let addr = task
        .map_object_copy(None, size, object_proxy, 0)
        .expect("proxied object maps");
    let mut b = [0u8; 1];
    task.read_memory(addr, &mut b)
        .expect("remote fault resolves");
    task.read_memory(addr + PAGE, &mut b)
        .expect("second remote fault resolves");

    // Each host's ring exports as a valid Chrome trace on its own (the
    // in-tree parser), and so does the merged view of both rings.
    let mut events = client_host.machine().trace.snapshot();
    events.extend(server_host.machine().trace.snapshot());
    for json in [
        export::chrome_trace_for(client_host.machine()),
        export::chrome_trace_for(server_host.machine()),
        export::chrome_trace(&events, 0),
    ] {
        let n = export::validate_chrome_trace(&json).expect("chrome trace parses");
        assert!(n > 0, "trace export is not empty");
    }

    // Rebuild spans from the MERGED rings: cross-host hops only pair up
    // when both ends' events are present.
    let spans = span::collect(&events);
    let mut chains: HashMap<CorrelationId, Vec<SpanRecord>> = HashMap::new();
    for s in &spans {
        if let Some(cid) = s.correlation {
            chains.entry(cid).or_default().push(s.clone());
        }
    }

    // The fault chains are the ones rooted at fault.submit; the proxied
    // ones additionally crossed the fabric.
    let fault_chains: Vec<&Vec<SpanRecord>> = chains
        .values()
        .filter(|c| c.iter().any(|s| s.name == "fault.submit"))
        .collect();
    assert!(
        !fault_chains.is_empty(),
        "the reads produced at least one fault chain"
    );
    let proxied = fault_chains
        .iter()
        .filter(|c| c.iter().any(|s| s.name == "net.hop" && s.is_cross_host()))
        .count();
    assert!(
        proxied >= 2,
        "both faults rode the fabric through the proxied object (saw {proxied})"
    );
    for chain in &fault_chains {
        span::validate_chain_tree(chain).unwrap_or_else(|e| {
            panic!(
                "proxied fault chain is not one connected tree: {e}\nspans: {:#?}",
                chain
                    .iter()
                    .map(|s| (s.name, s.id, s.parent, &s.open_host))
                    .collect::<Vec<_>>()
            )
        });
        // The tree is rooted at the fault itself, not at a network hop.
        let root = chain.iter().find(|s| s.parent == 0).expect("validated");
        assert_eq!(root.name, "fault.submit");
    }
}
