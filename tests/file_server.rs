//! The file server is one task on one thread: its request port and every
//! open file's memory object port are one port group, so serving more files
//! costs no more host threads. The only test in its binary, so nothing else
//! starts or stops a thread while it counts them.

use machcore::{Kernel, KernelConfig, Task};
use machpagers::{FileServer, FsClient};
use machsim::wall::poll_until;
use machstorage::{BlockDevice, FlatFs};
use std::sync::Arc;
use std::time::Duration;

/// The threads of this process.
fn host_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("Linux /proc")
        .count()
}

/// A file server over a fresh disk with `files` files of two pages each,
/// every one opened shared by `task` and both its pages faulted in, so the
/// server has answered a `pager_init` and a `pager_data_request` per file.
fn serve_files(k: &Arc<Kernel>, task: &Task, files: usize) -> Arc<FileServer> {
    let fs = FlatFs::format(Arc::new(BlockDevice::new(k.machine(), 256)), 0);
    let server = FileServer::start(k.machine(), Arc::new(fs));
    let client = FsClient::new(server.port().clone());
    for i in 0..files {
        let name = format!("f{i}");
        client.create(&name).expect("create");
        client.write_file(&name, &[7; 8192]).expect("fill");
        let (addr, size) = client.open_mapped(task, &name).expect("open_mapped");
        let mut page = vec![0u8; size as usize];
        task.read_memory(addr, &mut page)
            .expect("fault the file in");
        assert!(page.iter().all(|&b| b == 7), "{name} reads back");
    }
    server
}

#[test]
fn a_file_server_serving_many_files_adds_one_host_thread() {
    let k = Kernel::boot(KernelConfig::default());
    let task = Task::create(&k, "client");
    let before = host_threads();
    let server = serve_files(&k, &task, 8);
    assert_eq!(host_threads(), before + 1, "one thread for eight files");
    drop(server);
    // A joined thread leaves /proc/self/task a moment after its join
    // returns: the count is read once that has happened.
    let settled = || host_threads() == before;
    let (patience, step) = (Duration::from_secs(5), Duration::from_millis(1));
    assert!(
        poll_until(patience, step, settled),
        "and it stops with its server"
    );
}
