//! Kernel object ports: tasks as message-reachable objects (Section 3.2).
//!
//! "The act of creating a task or thread returns send access rights to a
//! port that represents the new task or thread and that can be used to
//! manipulate it. Messages sent to such a port result in operations being
//! performed on the object it represents. ... The indirection provided by
//! message passing allows objects to be arbitrarily placed in the network
//! without regard to programming details. For example, a thread can
//! suspend another thread by sending a suspend message to the port
//! representing that other thread even if the request is initiated on
//! another node in a network."
//!
//! [`TaskPort`] gives a [`Task`] exactly that representation: a kernel port
//! ([`ReceiveRight::allocate_kernel`]) performs the operation the message
//! names on the sender's thread, so a request that blocks (a `vm_read` on a
//! silent pager) holds up only its caller. Being an ordinary port to its
//! senders, it can be reached through a [`machnet::Fabric`] proxy from
//! another host with the same code — the location independence the paper
//! highlights.

use crate::proto::Malformed;
use crate::task::Task;
use machipc::{IpcError, OolBuffer, ReceiveRight, SendRight, RPC_TIMEOUT};
use machvm::VmError;
use std::fmt;
use std::sync::Arc;

/// Success reply.
pub const TASK_OK: u32 = 0x3180;
/// Failure reply.
pub const TASK_ERR: u32 = 0x3181;

crate::protocol! {
    /// Operations on a task, sent to its kernel object port as RPCs.
    #[derive(Debug)]
    pub enum TaskRequest {
        /// `task_suspend`.
        Suspend = TASK_SUSPEND: 0x3101,
        /// `task_resume`.
        Resume = TASK_RESUME: 0x3102,
        /// `vm_statistics`.
        Statistics = TASK_STATISTICS: 0x3103,
        /// `vm_allocate(size)` anywhere.
        VmAllocate(size: u64) = TASK_VM_ALLOCATE: 0x3104,
        /// `vm_deallocate(address, size)`.
        VmDeallocate(address: u64, size: u64) = TASK_VM_DEALLOCATE: 0x3105,
        /// `vm_read(address, size)`.
        VmRead(address: u64, size: u64) = TASK_VM_READ: 0x3106,
        /// `vm_write(address, data)`.
        VmWrite(address: u64, data: OolBuffer) = TASK_VM_WRITE: 0x3107,
    }
}

crate::protocol! {
    /// The task port's answers.
    #[derive(Debug)]
    pub enum TaskReply {
        /// `vm_statistics`.
        Statistics(
            pagesize: u64, free: u64, active: u64, inactive: u64,
            faults: u64, pageins: u64, pageouts: u64,
        ) = TASK_OK,
        /// `vm_allocate`: the address of the memory.
        Allocated(address: u64) = TASK_OK,
        /// `vm_read`: the data, out-of-line.
        Data(data: OolBuffer) = TASK_OK,
        /// The operation was performed.
        Done = TASK_OK,
        /// The operation failed, or the request was malformed.
        Rejected = TASK_ERR,
    }
}

/// A task's kernel object port.
#[derive(Debug)]
pub struct TaskPort {
    /// Held for its drop, which destroys the port.
    _receive: ReceiveRight,
    port: SendRight,
}

/// Performs one request on `task`; one that returns nothing is `Done`.
fn perform(task: &Task, request: TaskRequest) -> Result<TaskReply, VmError> {
    match request {
        TaskRequest::Suspend => task.suspend(),
        TaskRequest::Resume => task.resume(),
        TaskRequest::Statistics => {
            let st = task.vm_statistics();
            return Ok(TaskReply::Statistics(
                st.pagesize,
                st.free_count,
                st.active_count,
                st.inactive_count,
                st.faults,
                st.pageins,
                st.pageouts,
            ));
        }
        TaskRequest::VmAllocate(size) => return task.vm_allocate(size).map(TaskReply::Allocated),
        TaskRequest::VmDeallocate(address, size) => task.vm_deallocate(address, size)?,
        TaskRequest::VmRead(address, size) => {
            return Ok(TaskReply::Data(OolBuffer::from_vec(
                task.vm_read(address, size)?,
            )));
        }
        TaskRequest::VmWrite(address, data) => task.vm_write(address, data.as_slice())?,
    }
    Ok(TaskReply::Done)
}

impl TaskPort {
    /// Publishes `task` as a kernel object port.
    pub fn serve(task: &Arc<Task>) -> Arc<TaskPort> {
        let (machine, served) = (task.machine().clone(), task.clone());
        let (_receive, port) = ReceiveRight::allocate_kernel(task.machine(), move |msg| {
            // Mark the kernel-object hop in the caller's chain, which the
            // handler runs in, so remote task operations show up there.
            machine.trace_event("kernel.objport", machsim::EventKind::Mark("task_request"));
            let reply = match TaskRequest::decode(msg).map(|r| perform(&served, r)) {
                Ok(Ok(reply)) => reply,
                _ => TaskReply::Rejected,
            };
            Some(reply.encode())
        });
        Arc::new(TaskPort { _receive, port })
    }

    /// The send right representing the task.
    pub fn port(&self) -> &SendRight {
        &self.port
    }
}

/// Client-side view of a remote task: RPC wrappers over a task port.
///
/// Works identically whether `port` is the task's own port or a network
/// proxy for it on another host.
pub struct RemoteTask {
    port: SendRight,
}

/// Errors manipulating a task through its port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskPortError {
    /// The RPC failed.
    Ipc(IpcError),
    /// The kernel rejected the operation.
    Rejected,
    /// A VM error was reported.
    Vm(VmError),
}

impl fmt::Display for TaskPortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskPortError::Ipc(e) => write!(f, "rpc: {e}"),
            TaskPortError::Rejected => f.write_str("operation rejected"),
            TaskPortError::Vm(e) => write!(f, "vm: {e}"),
        }
    }
}

impl std::error::Error for TaskPortError {}

impl From<IpcError> for TaskPortError {
    fn from(e: IpcError) -> Self {
        TaskPortError::Ipc(e)
    }
}

impl RemoteTask {
    /// Binds to a task port (possibly a proxy).
    pub fn new(port: SendRight) -> Self {
        Self { port }
    }

    /// Performs `request`; a failure, or a reply that is not the task
    /// port's, is `Rejected`.
    fn rpc(&self, request: TaskRequest) -> Result<TaskReply, TaskPortError> {
        let reply = self.port.rpc(request.encode(), RPC_TIMEOUT, RPC_TIMEOUT)?;
        match TaskReply::decode(reply) {
            Ok(TaskReply::Rejected) | Err(Malformed) => Err(TaskPortError::Rejected),
            Ok(reply) => Ok(reply),
        }
    }

    /// `task_suspend` by message.
    pub fn suspend(&self) -> Result<(), TaskPortError> {
        self.rpc(TaskRequest::Suspend).map(drop)
    }

    /// `task_resume` by message.
    pub fn resume(&self) -> Result<(), TaskPortError> {
        self.rpc(TaskRequest::Resume).map(drop)
    }

    /// `vm_statistics` by message; returns (pagesize, free, active,
    /// inactive, faults, pageins, pageouts).
    pub fn statistics(&self) -> Result<Vec<u64>, TaskPortError> {
        match self.rpc(TaskRequest::Statistics)? {
            TaskReply::Statistics(a, b, c, d, e, f, g) => Ok(vec![a, b, c, d, e, f, g]),
            _ => Err(TaskPortError::Rejected),
        }
    }

    /// `vm_allocate` by message.
    pub fn vm_allocate(&self, size: u64) -> Result<u64, TaskPortError> {
        match self.rpc(TaskRequest::VmAllocate(size))? {
            TaskReply::Allocated(address) => Ok(address),
            _ => Err(TaskPortError::Rejected),
        }
    }

    /// `vm_deallocate` by message.
    pub fn vm_deallocate(&self, address: u64, size: u64) -> Result<(), TaskPortError> {
        self.rpc(TaskRequest::VmDeallocate(address, size)).map(drop)
    }

    /// `vm_read` by message: reads another task's memory.
    pub fn vm_read(&self, address: u64, size: u64) -> Result<Vec<u8>, TaskPortError> {
        match self.rpc(TaskRequest::VmRead(address, size))? {
            TaskReply::Data(data) => Ok(data.as_slice().to_vec()),
            _ => Err(TaskPortError::Rejected),
        }
    }

    /// `vm_write` by message: writes another task's memory.
    pub fn vm_write(&self, address: u64, data: &[u8]) -> Result<(), TaskPortError> {
        let data = OolBuffer::from_slice(data);
        self.rpc(TaskRequest::VmWrite(address, data)).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Kernel, KernelConfig};
    use std::time::Duration;

    fn setup() -> (Arc<Kernel>, Arc<Task>, Arc<TaskPort>, RemoteTask) {
        let k = Kernel::boot(KernelConfig::default());
        let t = Task::create(&k, "served");
        let tp = TaskPort::serve(&t);
        let rt = RemoteTask::new(tp.port().clone());
        (k, t, tp, rt)
    }

    #[test]
    fn vm_operations_by_message() {
        let (_k, _t, _tp, rt) = setup();
        let addr = rt.vm_allocate(8192).unwrap();
        rt.vm_write(addr, b"via the task port").unwrap();
        assert_eq!(rt.vm_read(addr, 17).unwrap(), b"via the task port");
        rt.vm_deallocate(addr, 8192).unwrap();
        assert_eq!(rt.vm_read(addr, 1).unwrap_err(), TaskPortError::Rejected);
    }

    #[test]
    fn suspend_and_resume_by_message() {
        let (_k, t, _tp, rt) = setup();
        let addr = t.vm_allocate(4096).unwrap();
        rt.suspend().unwrap();
        assert!(t.is_suspended());
        let t2 = t.clone();
        let h = std::thread::spawn(move || t2.write_memory(addr, &[1]).unwrap());
        machsim::wall::sleep(Duration::from_millis(30));
        assert!(!h.is_finished());
        rt.resume().unwrap();
        h.join().unwrap();
    }

    #[test]
    fn statistics_by_message() {
        let (_k, t, _tp, rt) = setup();
        let addr = t.vm_allocate(4096).unwrap();
        t.write_memory(addr, &[1]).unwrap();
        let st = rt.statistics().unwrap();
        assert_eq!(st[0], 4096); // pagesize
        assert!(st[4] >= 1); // faults
    }

    #[test]
    fn a_request_does_not_queue_behind_a_stuck_one() {
        use crate::manager::{spawn_manager, DataManager, KernelConn};
        use machvm::VmProt;
        use std::sync::mpsc;

        /// Records each `data_request` and answers none.
        struct Silent(mpsc::Sender<(KernelConn, u64, u64, u64)>);
        impl DataManager for Silent {
            fn data_request(
                &mut self,
                k: &KernelConn,
                object: u64,
                offset: u64,
                len: u64,
                _: VmProt,
            ) {
                let _ = self.0.send((k.clone(), object, offset, len));
            }
        }
        let (k, t, tp, _rt) = setup();
        let (requests, requested) = mpsc::channel();
        let manager = spawn_manager(k.machine(), "silent", Silent(requests));
        let addr = t
            .vm_allocate_with_pager(None, 4096, manager.port(), 0)
            .expect("map the silent manager's object");
        // Client A reads the region through the task port, and its fault
        // waits on the manager.
        let client = || RemoteTask::new(tp.port().clone());
        let a = client();
        let reader = std::thread::spawn(move || a.vm_read(addr, 5));
        let (kernel, object, offset, length) = requested
            .recv_timeout(Duration::from_secs(5))
            .expect("A's fault reached the manager");
        // Client B's request is answered while A's is stuck.
        let (answered, answer) = mpsc::channel();
        let b = client();
        std::thread::spawn(move || answered.send(b.statistics()));
        let statistics = answer
            .recv_timeout(Duration::from_secs(2))
            .expect("B's request did not queue behind A's");
        assert!(statistics.is_ok(), "{statistics:?}");
        let data = OolBuffer::from_vec(vec![9; length as usize]);
        kernel.data_provided(object, offset, data, VmProt::NONE);
        assert_eq!(reader.join().expect("client A"), Ok(vec![9; 5]));
    }

    #[test]
    fn an_ok_with_no_body_is_a_rejection_not_a_panic() {
        let (k, _t, _tp, _rt) = setup();
        let (rx, tx) = ReceiveRight::allocate(k.machine());
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let msg = rx.receive(RPC_TIMEOUT).expect("a request");
                let reply = msg.reply.expect("an RPC");
                reply
                    .send(machipc::Message::new(TASK_OK), None)
                    .expect("the client waits");
            }
        });
        let remote = RemoteTask::new(tx);
        assert_eq!(remote.statistics(), Err(TaskPortError::Rejected));
        assert_eq!(remote.vm_allocate(4096), Err(TaskPortError::Rejected));
        server.join().expect("the bare server");
    }

    #[test]
    fn task_manipulated_across_the_network() {
        // "a thread can suspend another thread by sending a suspend
        // message to the port representing that other thread even if the
        // request is initiated on another node in a network."
        let fabric = Arc::new(machnet::Fabric::new());
        let ha = fabric.add_host("controller");
        let hb = fabric.add_host("worker-host");
        let kb = Kernel::boot_on(hb.machine().clone(), KernelConfig::default());
        let worker = Task::create(&kb, "worker");
        let tp = TaskPort::serve(&worker);
        // The controller manipulates the worker through a proxy port —
        // identical client code, network charged.
        let proxy = fabric.proxy_right(&ha, &hb, tp.port().clone());
        let remote = RemoteTask::new(proxy);
        let addr = remote.vm_allocate(4096).unwrap();
        remote.vm_write(addr, b"remote!").unwrap();
        assert_eq!(remote.vm_read(addr, 7).unwrap(), b"remote!");
        remote.suspend().unwrap();
        assert!(worker.is_suspended());
        remote.resume().unwrap();
        assert!(!worker.is_suspended());
        assert!(
            ha.machine().stats.get(machsim::stats::keys::NET_MESSAGES) >= 5,
            "operations crossed the network"
        );
    }
}
