//! A data-manager server is one task on one thread: camelot, the array
//! service, a shared memory server (with local or remote clients) and a
//! shm directory serving four regions each add one host thread, and give
//! it back when dropped. A netmsg proxy is a kernel port, not a thread:
//! remote host queries add none, and a copy-on-reference migration runs
//! only its pager. A fault's deadline is kept by the thread waiting for
//! it: a kernel's first parked fault with a deadline adds none. The only
//! test in its binary, so nothing else starts or stops a thread while it
//! counts them.

use machcore::introspect::query_host_statistics;
use machcore::{spawn_manager, DataManager, Kernel, KernelConfig, KernelConn, Task};
use machnet::Fabric;
use machpagers::{
    ArrayService, CamelotClient, CamelotServer, GrantPolicy, MigrationManager, MigrationStrategy,
    SharedMemoryServer, ShmDirectory,
};
use machsim::wall::poll_until;
use machstorage::BlockDevice;
use machvm::{FaultPolicy, VmError, VmProt};
use std::sync::Arc;
use std::time::Duration;

const PAGE: u64 = 4096;

/// The threads of this process.
fn host_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("Linux /proc")
        .count()
}

/// The threads of this process whose name `keep` accepts.
fn threads_where(keep: impl Fn(&str) -> bool) -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("Linux /proc");
    let comm = |task: std::fs::DirEntry| std::fs::read_to_string(task.path().join("comm")).ok();
    let named = |name: &String| keep(name.trim_end());
    tasks.flatten().filter_map(comm).filter(named).count()
}

/// The threads of this process named one of `names`.
fn threads_named(names: &[&str]) -> usize {
    threads_where(|name| names.contains(&name))
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

/// Never answers anything.
struct SilentManager;

impl DataManager for SilentManager {
    fn data_request(&mut self, _k: &KernelConn, _object: u64, _offset: u64, _len: u64, _a: VmProt) {
    }
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

    // The kernel's first parked fault carries a policy deadline: its
    // waiter keeps it, and no thread starts to keep it instead.
    let silent = spawn_manager(machine, "silent", SilentManager);
    let object = k.object_for_port(silent.port(), PAGE);
    let before = host_threads();
    let policy = FaultPolicy::abort_after(Duration::from_millis(40));
    let ticket = k.fault_engine().submit(&object, 0, VmProt::READ, policy);
    assert!(!ticket.is_done(), "the fault parked");
    assert_eq!(host_threads(), before, "a parked deadline adds no thread");
    assert!(matches!(ticket.wait(), Err(VmError::Timeout)));
    drop(silent);

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

    // Two kernels on other hosts, reaching the shared memory server
    // through the fabric's proxies.
    let clients: Vec<_> = ["c1", "c2"]
        .into_iter()
        .map(|name| {
            let host = fabric.add_host(name);
            let kernel = Kernel::boot_on(host.machine().clone(), KernelConfig::default());
            (Task::create(&kernel, "remote-client"), host)
        })
        .collect();
    let remote_shared_memory = || {
        let server = SharedMemoryServer::start(&fabric, &origin, 4 * PAGE);
        for (task, host) in &clients {
            fault_in(task, server.attach(task, host).expect("a remote attach"));
        }
        server
    };
    // A copy-on-reference migration: its pager on the origin, reached
    // from the destination through a proxy.
    let there = Kernel::boot_on(destination.machine().clone(), KernelConfig::default());
    let source = Task::create(&k, "source");
    let addr = source.vm_allocate(4 * PAGE).expect("allocate");
    source.write_memory(addr, &[7]).expect("write");
    let migration = MigrationManager::new(&fabric);
    let strategy = MigrationStrategy::CopyOnReference { prefetch_pages: 0 };
    let migrate = || {
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
        migrated
    };

    // No server needs a run before its count: a kernel's first pager round
    // trip starts no thread.
    adds_one_thread("camelot", "camelot-server", camelot);
    adds_one_thread("the array service", "array-server", array);
    adds_one_thread("a shared memory server", "shm-server", shared_memory);
    adds_one_thread("a directory of four regions", "shm-server", directory);
    adds_one_thread(
        "a shared memory server with two remote clients",
        "shm-server",
        remote_shared_memory,
    );
    adds_one_thread("a copy-on-reference migration", "pager-migrate", migrate);

    // A remote host port, queried through its proxy: each query's reply
    // port gets a proxy of its own, and none of them is a thread.
    let before = host_threads();
    let host_port = fabric.proxy_right(&destination, &origin, k.host_port().clone());
    for _ in 0..16 {
        query_host_statistics(&host_port).expect("a remote query");
    }
    assert_eq!(host_threads(), before, "remote queries add no thread");
    let proxies = threads_where(|name| name.starts_with("netmsg"));
    assert_eq!(proxies, 0, "no proxy is a thread");
}
