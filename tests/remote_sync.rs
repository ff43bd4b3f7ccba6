//! A kernel on another host maps a file shared, writes it and sends
//! `FS_SYNC` through the fabric: when `Done` arrives, the bytes are in the
//! file. The file server sends its `pager_clean_request` to the kernel's
//! proxy, which forwards it on the server's own thread, so the remote
//! kernel's `pager_data_write`s are queued on the file's port before the
//! server drains it and replies.

use machcore::{Kernel, KernelConfig, Task};
use machnet::Fabric;
use machpagers::{FileServer, FsClient};
use machstorage::{BlockDevice, FlatFs};
use std::sync::Arc;

#[test]
fn a_remote_kernels_sync_means_on_disk() {
    let fabric = Fabric::new();
    let server_host = fabric.add_host("fileserver");
    let client_host = fabric.add_host("workstation");
    let kernel = Kernel::boot_on(client_host.machine().clone(), KernelConfig::default());
    let task = Task::create(&kernel, "remote-writer");

    let dev = Arc::new(BlockDevice::new(server_host.machine(), 128));
    let server = FileServer::start(server_host.machine(), Arc::new(FlatFs::format(dev, 0)));
    let port = fabric.proxy_right(&client_host, &server_host, server.port().clone());
    let client = FsClient::new(port);
    client.create("remote.doc").expect("create");
    client
        .write_file("remote.doc", &[0; 4096])
        .expect("a page of zeros");
    let (addr, _) = client
        .open_mapped(&task, "remote.doc")
        .expect("the object arrives as a proxy");
    task.write_memory(addr, b"hello")
        .expect("a write fault through the fabric");

    client.sync(["remote.doc"]).expect("FS_SYNC answers");
    let mut on_disk = [0u8; 5];
    server
        .fs()
        .read("remote.doc", 0, &mut on_disk)
        .expect("the file");
    assert_eq!(
        &on_disk, b"hello",
        "the write is in the file when Done arrives"
    );
}
