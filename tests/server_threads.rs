//! A data-manager server is one task on one thread: camelot, the array
//! service, a shared memory server and a shm directory serving four
//! regions each add one host thread, and give it back when dropped. A
//! copy-on-reference migration's pager and its network proxy stop with the
//! migrated task. The only test in its binary, so nothing else starts or
//! stops a thread while it counts them.

use machcore::{Kernel, KernelConfig, Task};
use machnet::Fabric;
use machpagers::{
    ArrayService, CamelotClient, CamelotServer, GrantPolicy, MigrationManager, MigrationStrategy,
    SharedMemoryServer, ShmDirectory,
};
use machsim::wall::poll_until;
use machstorage::BlockDevice;
use std::sync::Arc;
use std::time::Duration;

const PAGE: u64 = 4096;

/// The threads of this process.
fn host_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("Linux /proc")
        .count()
}

/// The threads of this process named one of `names`.
fn threads_named(names: &[&str]) -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("Linux /proc");
    let comm = |task: std::fs::DirEntry| std::fs::read_to_string(task.path().join("comm")).ok();
    let named = |name: &String| names.contains(&name.trim_end());
    tasks.flatten().filter_map(comm).filter(named).count()
}

/// Whether, within 5 s, `n` threads are named one of `names`. The names
/// settle late: a joined thread leaves `/proc/self/task` a moment after
/// its join returns, and a new thread bears its spawner's name until it
/// first runs.
fn settles(names: &[&str], n: usize) -> bool {
    poll_until(Duration::from_secs(5), Duration::from_millis(1), || {
        threads_named(names) == n
    })
}

/// Whether the threads named one of `names` are gone within 5 s.
fn gone(names: &[&str]) -> bool {
    settles(names, 0)
}

/// Starts a server with `start`, which also serves a client through it,
/// and checks that it adds one host thread, named `thread`, and gives it
/// back on drop.
fn adds_one_thread<T>(what: &str, thread: &str, start: impl Fn() -> T) {
    assert!(gone(&[thread]), "no {thread} thread runs before {what}");
    let before = host_threads();
    let server = start();
    assert_eq!(host_threads(), before + 1, "{what} runs on one thread");
    drop(server);
    assert!(gone(&[thread]), "{what}'s thread stops with it");
    assert_eq!(host_threads(), before, "and no other thread is left");
}

/// Reads the first byte at `addr`, faulting it in from its manager.
fn fault_in(task: &Task, addr: u64) {
    let mut b = [0u8; 1];
    task.read_memory(addr, &mut b).expect("the manager answers");
}

#[test]
fn a_data_manager_server_adds_one_host_thread() {
    let fabric = Fabric::new();
    let (origin, destination) = (fabric.add_host("o"), fabric.add_host("d"));
    let k = Kernel::boot_on(origin.machine().clone(), KernelConfig::default());
    let task = Task::create(&k, "client");
    let machine = k.machine();

    let camelot = || {
        let dev = Arc::new(BlockDevice::new(machine, 256));
        let server = CamelotServer::format_and_start(machine, dev, 4 * PAGE);
        let client = CamelotClient::attach(&task, server.port()).expect("attach");
        let tx = client.begin().expect("begin");
        client
            .write(tx, 0, &[1; 8])
            .expect("a write faults the page in");
        client.commit(tx).expect("commit");
        server
    };
    let array = || {
        let service = ArrayService::start(machine, 4 * PAGE, |i| i as u8);
        let (addr, _) = ArrayService::attach(&task, service.port()).expect("attach");
        fault_in(&task, addr);
        service
    };
    let shared_memory = || {
        let server = SharedMemoryServer::start(&fabric, &origin, 4 * PAGE);
        fault_in(&task, server.attach(&task, &origin).expect("attach"));
        server
    };
    let directory = || {
        let directory = ShmDirectory::start(&origin, GrantPolicy::ReadLocked);
        let port = directory.port();
        for region in ["a", "b", "c", "d"] {
            let lookup =
                ShmDirectory::request(&fabric, port, &origin, &origin, &task, region, PAGE);
            fault_in(&task, lookup.expect("a local lookup").0);
        }
        directory
    };

    // Whatever the kernel starts at its first pager round trip (the fault
    // engine's timer, say) starts here, before the counts.
    drop(camelot());
    adds_one_thread("camelot", "camelot-server", camelot);
    adds_one_thread("the array service", "array-server", array);
    adds_one_thread("a shared memory server", "shm-server", shared_memory);
    adds_one_thread("a directory of four regions", "shm-server", directory);

    // A copy-on-reference migration: its pager on the origin, and the
    // destination's proxy for the pager's port.
    let there = Kernel::boot_on(destination.machine().clone(), KernelConfig::default());
    let source = Task::create(&k, "source");
    let addr = source.vm_allocate(4 * PAGE).expect("allocate");
    source.write_memory(addr, &[7]).expect("write");
    let migration = MigrationManager::new(&fabric);
    let strategy = MigrationStrategy::CopyOnReference { prefetch_pages: 0 };
    let migrated = migration
        .migrate_region(
            &source,
            &origin,
            addr,
            4 * PAGE,
            &there,
            &destination,
            strategy,
        )
        .expect("migrate");
    fault_in(&migrated.task, migrated.report.address);
    let its_threads = ["pager-migrate", "netmsg-d-o"];
    assert!(settles(&its_threads, 2), "its pager and proxy");
    drop(migrated);
    assert!(gone(&its_threads), "none outlives the migrated task");
}
