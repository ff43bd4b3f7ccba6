//! No client can stop a server. Every in-tree server loop — the kernel's
//! EMM and host services, a data manager, the task port, the file server,
//! camelot, the blackboard, the shm directory, the array service and the
//! netmsg proxy — stops only on a message carrying its owner's key.

use machcore::introspect::query_host_statistics;
use machcore::objport::{RemoteTask, TaskPort};
use machcore::{spawn_manager, DataManager, Kernel, KernelConfig, KernelConn, Task};
use machipc::{Message, OolBuffer, ReceiveRight, SendRight};
use machnet::Fabric;
use machpagers::agora::Agent;
use machpagers::{
    ArrayService, Blackboard, CamelotClient, CamelotServer, FileServer, FsClient, GrantPolicy,
    ShmDirectory,
};
use machsim::stats::keys;
use machstorage::{BlockDevice, FlatFs};
use machvm::{FaultPolicy, VmProt};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Every id that once stopped an in-tree server: the kernel loops and the
/// data managers, the task port, the file server, the array service,
/// camelot, the blackboard, the shm directory and the netmsg proxy.
const STOP_IDS: [u32; 8] = [
    0x2FFF, 0x31FF, 0x41FF, 0x46FF, 0x47FF, 0x49FF, 0x4BFF, 0x7D1E,
];

const PATIENCE: Duration = Duration::from_secs(5);

/// Supplies pages of 7s, and keeps the request port of the kernel that
/// mapped it.
struct Fill(Arc<Mutex<Option<SendRight>>>);

impl DataManager for Fill {
    fn init(&mut self, kernel: &KernelConn, _object: u64) {
        *self.0.lock().expect("not poisoned") = Some(kernel.request_port().clone());
    }

    fn data_request(&mut self, k: &KernelConn, object: u64, offset: u64, length: u64, _: VmProt) {
        let data = OolBuffer::from_vec(vec![7; length as usize]);
        k.data_provided(object, offset, data, VmProt::NONE);
    }
}

#[test]
fn no_client_stops_a_server_whatever_id_it_sends() {
    let fabric = Fabric::new();
    let (home, away) = (fabric.add_host("home"), fabric.add_host("away"));
    let machine = home.machine();
    let k = Kernel::boot_on(machine.clone(), KernelConfig::default());
    let task = Task::create(&k, "client");
    task.map()
        .set_fault_policy(FaultPolicy::abort_after(PATIENCE));

    // A mapped data manager, and the kernel request port it was given.
    let request = Arc::new(Mutex::new(None));
    let manager = spawn_manager(machine, "fill", Fill(request.clone()));
    let mapped = task
        .vm_allocate_with_pager(None, 1 << 20, manager.port(), 0)
        .expect("map the manager's object");
    assert!(
        machsim::wall::poll_until(PATIENCE, Duration::from_millis(1), || request
            .lock()
            .is_ok_and(|port| port.is_some())),
        "pager_init never arrived"
    );
    let request = request.lock().ok().and_then(|port| port.clone());
    let request = request.expect("the kernel's request port");
    let fault_in = |page: u64| {
        let mut b = [0u8; 1];
        task.read_memory(mapped + page * 4096, &mut b).is_ok() && b[0] == 7
    };

    let task_port = TaskPort::serve(&Task::create(&k, "served"));
    let files = FlatFs::format(Arc::new(BlockDevice::new(machine, 256)), 0);
    let file_server = FileServer::start(machine, Arc::new(files));
    let camelot_dev = Arc::new(BlockDevice::new(machine, 256));
    let camelot = CamelotServer::format_and_start(machine, camelot_dev, 8 * 4096);
    let blackboard = Blackboard::start(&k, 4);
    let directory = ShmDirectory::start(&fabric, &home, GrantPolicy::ReadLocked);
    let array = ArrayService::start(machine, 4 * 4096, |_| 0);
    let (forwarded, target) = ReceiveRight::allocate(machine);
    let proxy = fabric.proxy(&away, &home, target);

    type StillServes<'a> = Box<dyn Fn() -> bool + 'a>;
    let servers: Vec<(&str, SendRight, StillServes)> = vec![
        ("kernel-emm", request, Box::new(|| fault_in(0))),
        ("kernel-host", k.host_port().clone(), {
            Box::new(|| query_host_statistics(k.host_port()).is_ok())
        }),
        (
            "data manager",
            manager.port().clone(),
            Box::new(|| fault_in(128)),
        ),
        ("task port", task_port.port().clone(), {
            let remote = RemoteTask::new(task_port.port().clone());
            Box::new(move || remote.vm_allocate(4096).is_ok())
        }),
        ("file server", file_server.port().clone(), {
            let client = FsClient::new(file_server.port().clone());
            Box::new(move || client.create("f").is_ok())
        }),
        ("camelot", camelot.port().clone(), {
            Box::new(|| {
                CamelotClient::attach(&task, camelot.port()).is_ok_and(|c| c.begin().is_ok())
            })
        }),
        ("blackboard", blackboard.service_port().clone(), {
            let remote = Agent::Remote {
                port: blackboard.service_port().clone(),
                _proxy: None,
            };
            Box::new(move || remote.post(1, b"hypothesis").is_ok())
        }),
        ("shm directory", directory.port().clone(), {
            let dir = directory.port();
            let region = || ShmDirectory::request(&fabric, dir, &home, &home, &task, "r", 4096);
            Box::new(move || region().is_ok())
        }),
        ("array service", array.port().clone(), {
            Box::new(|| ArrayService::attach(&task, array.port()).is_ok())
        }),
        // The proxy forwards every id, 0x7D1E included, and then the next.
        ("netmsg proxy", proxy.port().clone(), {
            Box::new(|| {
                proxy.port().send(Message::new(1), Some(PATIENCE)).is_ok()
                    && STOP_IDS.iter().chain(&[1]).all(|&id| {
                        forwarded
                            .receive(Some(PATIENCE))
                            .is_ok_and(|msg| msg.id == id)
                    })
            })
        }),
    ];
    for (name, port, still_serves) in &servers {
        for id in STOP_IDS {
            port.send(Message::new(id), Some(PATIENCE))
                .unwrap_or_else(|e| panic!("{name} refused {id:#x}: {e}"));
        }
        assert!(still_serves(), "a client's message stopped the {name}");
    }
    // To the kernel and to the manager, each is one more malformed call.
    assert_eq!(
        machine.stats.get(keys::EMM_MALFORMED_DROPPED),
        2 * STOP_IDS.len() as u64
    );
}
