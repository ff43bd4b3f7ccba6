//! Integration: multi-host scenarios across the whole stack.

use machcore::{Kernel, KernelConfig, Task};
use machnet::Fabric;
use machpagers::{MigrationManager, MigrationStrategy, SharedMemoryServer};
use machsim::{CostModel, Topology};
use std::sync::Arc;
use std::time::Duration;

const PAGE: u64 = 4096;

#[test]
fn three_hosts_share_and_migrate() {
    // A shared memory region between two hosts, then a task migrates from
    // one of them to the other and keeps reading the shared region's
    // snapshot it carried along.
    let fabric = Fabric::new();
    let hs = fabric.add_host("server");
    let ha = fabric.add_host("alpha");
    let hb = fabric.add_host("beta");
    let ka = Kernel::boot_on(ha.machine().clone(), KernelConfig::default());
    let kb = Kernel::boot_on(hb.machine().clone(), KernelConfig::default());
    let ta = Task::create(&ka, "worker");
    let tb = Task::create(&kb, "peer");

    let shm = SharedMemoryServer::start(&fabric, &hs, 4 * PAGE);
    let aa = shm.attach(&ta, &ha).unwrap();
    let ab = shm.attach(&tb, &hb).unwrap();
    ta.write_memory(aa, b"state").unwrap();
    // The write returned once the server had flushed beta's copy, so
    // beta's first read sees it.
    let mut buf = [0u8; 5];
    tb.read_memory(ab, &mut buf).unwrap();
    assert_eq!(&buf, b"state");

    // The worker also has private memory; migrate it to beta.
    let private = ta.vm_allocate(16 * PAGE).unwrap();
    for i in 0..16u64 {
        ta.write_memory(private + i * PAGE, &[i as u8 + 1]).unwrap();
    }
    let mm = MigrationManager::new(&fabric);
    let migrated = mm
        .migrate_region(
            &ta,
            &ha,
            private,
            16 * PAGE,
            &kb,
            &hb,
            MigrationStrategy::CopyOnReference { prefetch_pages: 0 },
        )
        .unwrap();
    let mut b = [0u8; 1];
    migrated
        .task
        .read_memory(migrated.report.address + 9 * PAGE, &mut b)
        .unwrap();
    assert_eq!(b[0], 10);
}

#[test]
fn kernels_run_on_every_topology() {
    for topo in Topology::ALL {
        let k = Kernel::boot(KernelConfig {
            cost: CostModel::for_topology(topo),
            ..KernelConfig::default()
        });
        let t = Task::create(&k, "probe");
        let addr = t.vm_allocate(2 * PAGE).unwrap();
        t.write_memory(addr, &[9]).unwrap();
        let mut b = [0u8; 1];
        t.read_memory(addr, &mut b).unwrap();
        assert_eq!(b[0], 9, "topology {topo}");
    }
}

#[test]
fn partition_heals_and_shared_memory_recovers() {
    let fabric = Fabric::new();
    let hs = fabric.add_host("server");
    let ha = fabric.add_host("alpha");
    let ka = Kernel::boot_on(ha.machine().clone(), KernelConfig::default());
    let ta = Task::create(&ka, "a");
    let shm = SharedMemoryServer::start(&fabric, &hs, 2 * PAGE);
    let aa = shm.attach(&ta, &ha).unwrap();
    // Keep faults single-page: the point of this test is that the second
    // page stays absent until the partition heals, so the warm read must
    // not cluster-prefetch it.
    ta.map().set_fault_policy(machvm::FaultPolicy::trusting());
    // Warm the page while connected.
    let mut b = [0u8; 1];
    ta.read_memory(aa, &mut b).unwrap();
    // Partition the client from the server; cached pages still readable.
    fabric.set_partitioned(ha.id(), hs.id(), true);
    ta.read_memory(aa, &mut b).unwrap();
    // A fault on a NEW page would hang (manager unreachable): use a
    // timeout policy to observe it as a memory failure, per §6.2.1.
    ta.map()
        .set_fault_policy(machvm::FaultPolicy::abort_after(Duration::from_millis(100)));
    let err = ta.read_memory(aa + PAGE, &mut b);
    assert_eq!(err.unwrap_err(), machvm::VmError::Timeout);
    // Heal the partition; the same fault now completes.
    fabric.set_partitioned(ha.id(), hs.id(), false);
    ta.map()
        .set_fault_policy(machvm::FaultPolicy::abort_after(Duration::from_secs(5)));
    ta.read_memory(aa + PAGE, &mut b).unwrap();
}

#[test]
fn remote_file_server_works_through_the_network_message_server() {
    // The Accent heritage (Section 2): a filesystem server on one host
    // serving clients on another, with the external pager protocol riding
    // the fabric both ways. The client maps the file; every page fault's
    // data_request and data_provided cross the network.
    use machpagers::FileServer;
    use machsim::stats::keys;
    let fabric = Fabric::new();
    let server_host = fabric.add_host("fileserver");
    let client_host = fabric.add_host("workstation");
    let server_kernel = Kernel::boot_on(server_host.machine().clone(), KernelConfig::default());
    let client_kernel = Kernel::boot_on(client_host.machine().clone(), KernelConfig::default());
    let _ = &server_kernel;

    let dev = Arc::new(machstorage::BlockDevice::new(server_host.machine(), 128));
    let fs = Arc::new(machstorage::FlatFs::format(dev, 0));
    let server = FileServer::start(server_host.machine(), fs);
    server.fs().create("shared.doc").unwrap();
    server
        .fs()
        .write("shared.doc", 0, &vec![0x42u8; 8192])
        .unwrap();

    // The RPC crosses the fabric, and the memory object right in its
    // reply arrives rewritten into a proxy on the client's host, so both
    // the RPC and the pager protocol are charged as network traffic.
    use machipc::{Message, MsgItem};
    let reply = fabric
        .rpc(
            &client_host,
            &server_host,
            server.port(),
            Message::new(machpagers::fs::FS_READ_FILE).with(MsgItem::bytes(b"shared.doc".to_vec())),
            Some(Duration::from_secs(10)),
        )
        .unwrap();
    assert_eq!(reply.id, machpagers::fs::FS_OK);
    let size = reply.body[0].as_u64s().unwrap()[0];
    assert_eq!(size, 8192);
    let machipc::MsgItem::SendRights(rights) = &reply.body[1] else {
        panic!("memory object expected");
    };
    let object_proxy = &rights[0];
    let task = Task::create(&client_kernel, "remote-reader");
    let net0 = client_host.machine().stats.get(keys::NET_BYTES);
    let addr = task.map_object_copy(None, size, object_proxy, 0).unwrap();
    let mut buf = vec![0u8; size as usize];
    task.read_memory(addr, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0x42));
    assert!(
        client_host.machine().stats.get(keys::NET_BYTES) - net0 >= 8192,
        "page fills crossed the network"
    );
    // A second task on the same client host hits the local VM cache: no
    // further network traffic for the data.
    let net1 = client_host.machine().stats.get(keys::NET_BYTES);
    let task2 = Task::create(&client_kernel, "second-reader");
    let addr2 = task2.map_object_copy(None, size, object_proxy, 0).unwrap();
    task2.read_memory(addr2, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0x42));
    let extra = client_host.machine().stats.get(keys::NET_BYTES) - net1;
    assert!(
        extra < 8192,
        "warm mapping moved {extra} bytes over the network"
    );
}

#[test]
fn norma_traffic_is_orders_of_magnitude_pricier_than_local() {
    // Compare simulated cost of a warm local access on a UMA host vs one
    // remote page fetch across the NORMA fabric.
    let fabric = Fabric::new();
    let hs = fabric.add_host("server");
    let ha = fabric.add_host("alpha");
    let ka = Kernel::boot_on(ha.machine().clone(), KernelConfig::default());
    let ta = Task::create(&ka, "a");
    let shm = SharedMemoryServer::start(&fabric, &hs, PAGE);
    let aa = shm.attach(&ta, &ha).unwrap();
    let t0 = ha.machine().clock.now_ns();
    let mut b = [0u8; 1];
    ta.read_memory(aa, &mut b).unwrap(); // Remote fetch.
    let remote_cost = ha.machine().clock.now_ns() - t0;
    let t1 = ha.machine().clock.now_ns();
    ta.read_memory(aa, &mut b).unwrap(); // Local warm access.
    let local_cost = ha.machine().clock.now_ns() - t1;
    assert!(
        remote_cost > 100 * local_cost.max(1),
        "remote {remote_cost} vs local {local_cost}"
    );
}
