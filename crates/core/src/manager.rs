//! The data-manager-side runtime: write a pager as a trait impl.
//!
//! "The memory object is not provided solely by the Mach kernel, but can be
//! created and serviced by a user-level data manager task." This module is
//! that task's skeleton: `dispatch` translates the kernel's protocol
//! messages (Table 3-5) into calls on a [`DataManager`] implementation,
//! handing it a [`KernelConn`] with typed methods for every manager →
//! kernel call (Table 3-6). A server task is a [`ManagerTask`], one thread
//! serving its request port and every memory object it backs;
//! [`spawn_manager`] is such a task whose own port is its one object's.
//!
//! A single memory object may be mapped by several independent kernels; the
//! manager then receives one `pager_init` per kernel, each carrying a
//! distinct request port — exactly the multi-kernel structure of the
//! Section 4.2 shared memory example.

use crate::proto::{KernelToManager, Malformed, ManagerToKernel, Parts};
use machipc::{
    serve_group, Message, OolBuffer, PortName, PortSpace, ReceiveRight, SendRight, Server,
    MSG_ID_PORT_DEATH,
};
use machsim::stats::keys;
use machsim::Machine;
use machvm::VmProt;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A manager's connection to one kernel: the pager request port plus typed
/// wrappers for the Table 3-6 calls.
#[derive(Clone)]
pub struct KernelConn {
    machine: Machine,
    request: SendRight,
}

impl fmt::Debug for KernelConn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KernelConn({:?})", self.request)
    }
}

impl KernelConn {
    /// Wraps a request port received in a kernel message.
    pub fn new(machine: &Machine, request: SendRight) -> Self {
        Self {
            machine: machine.clone(),
            request,
        }
    }

    /// The raw request port.
    pub fn request_port(&self) -> &SendRight {
        &self.request
    }

    fn send(&self, call: ManagerToKernel) {
        // A local kernel applies the call on this thread before the send
        // returns; a proxy for a remote one may block briefly. A dead
        // kernel is simply ignored (port death will follow).
        let patience = Some(Duration::from_secs(5));
        let _ = self.request.send(call.encode(), patience);
    }

    /// `pager_data_provided`: supplies the kernel with object data.
    pub fn data_provided(&self, object: u64, offset: u64, data: OolBuffer, lock: VmProt) {
        self.send(ManagerToKernel::DataProvided(object, offset, lock, data));
    }

    /// `pager_data_lock`: restricts access to cached data.
    pub fn data_lock(&self, object: u64, offset: u64, length: u64, lock: VmProt) {
        self.send(ManagerToKernel::DataLock(object, offset, length, lock));
    }

    /// `pager_flush_request`: invalidates cached data.
    pub fn flush_request(&self, object: u64, offset: u64, length: u64) {
        self.send(ManagerToKernel::FlushRequest(object, offset, length));
    }

    /// `pager_clean_request`: forces cached data to be written back.
    pub fn clean_request(&self, object: u64, offset: u64, length: u64) {
        self.send(ManagerToKernel::CleanRequest(object, offset, length));
    }

    /// `pager_cache`: advises whether data may be cached after the last
    /// reference is gone.
    pub fn cache(&self, object: u64, may_cache: bool) {
        self.send(ManagerToKernel::Cache(object, may_cache));
    }

    /// `pager_data_unavailable`: no data exists for the region.
    pub fn data_unavailable(&self, object: u64, offset: u64, size: u64) {
        self.send(ManagerToKernel::DataUnavailable(object, offset, size));
    }

    /// The manager's `vm_deallocate` of data it was sent with
    /// `pager_data_write` and has secured. A Table 3-3 call on the
    /// manager's own address space, not a message: the kernel sees the
    /// pages themselves go (when the last handle on the buffer drops) and
    /// believes the memory, not the call.
    pub fn release_laundry(&self, object: u64, bytes: u64) {
        let _ = (object, bytes);
        self.machine.clock.charge(self.machine.cost.syscall_ns);
    }

    /// Advises the kernel to request at most `pages` pages of this object
    /// per `pager_data_request` — the cluster-size attribute of
    /// `memory_object_set_attributes`. Managers that track caching per
    /// page per client (coherent shared memory) advise 1.
    pub fn set_cluster(&self, object: u64, pages: u64) {
        self.send(ManagerToKernel::SetCluster(object, pages));
    }

    /// The machine (host) the manager runs on.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }
}

/// A user-level data manager: implement this and hand it to
/// [`spawn_manager`].
///
/// Default method bodies make the trivial manager legal: one that never
/// supplies data (the paper's first failure mode, "Data manager doesn't
/// return data").
pub trait DataManager: Send + 'static {
    /// `pager_init`: a kernel mapped the memory object for the first time.
    fn init(&mut self, kernel: &KernelConn, object: u64) {
        let _ = (kernel, object);
    }

    /// `pager_data_request`: the kernel needs data.
    fn data_request(
        &mut self,
        kernel: &KernelConn,
        object: u64,
        offset: u64,
        length: u64,
        access: VmProt,
    );

    /// `pager_data_write`: the kernel is cleaning dirty pages.
    ///
    /// The default stores nothing but releases the laundry, keeping a
    /// well-behaved accounting profile.
    fn data_write(&mut self, kernel: &KernelConn, object: u64, offset: u64, data: OolBuffer) {
        let _ = offset;
        kernel.release_laundry(object, data.len() as u64);
    }

    /// `pager_data_unlock`: the kernel wants more access to locked data.
    fn data_unlock(
        &mut self,
        kernel: &KernelConn,
        object: u64,
        offset: u64,
        length: u64,
        access: VmProt,
    ) {
        let _ = (kernel, object, offset, length, access);
    }

    /// `pager_create`: the default pager accepts a kernel-created object.
    fn create(&mut self, kernel: &KernelConn, object: u64) {
        let _ = (kernel, object);
    }

    /// The kernel terminated the object: release its backing storage.
    fn object_terminated(&mut self, object: u64) {
        let _ = object;
    }

    /// A kernel's request port died: that kernel unmapped everything.
    fn kernel_detached(&mut self, port_id: u64) {
        let _ = port_id;
    }
}

/// Handle to a running data manager task that backs one memory object
/// ([`spawn_manager`]): its port ([`Server::port`], give this to
/// `vm_allocate_with_pager`). Dropping it stops the manager.
pub type ManagerHandle = Server;

/// Hands one message that arrived on the memory object port `self_port`
/// to its manager: the one reading of Table 3-5.
fn dispatch<M: DataManager>(machine: &Machine, self_port: &SendRight, mgr: &mut M, msg: Message) {
    if msg.id == MSG_ID_PORT_DEATH {
        let port = Parts::of(msg.body).words().next().unwrap_or(0);
        return mgr.kernel_detached(port);
    }
    let conn = |request| KernelConn::new(machine, request);
    // Any holder of a memory-object send right can put anything on this
    // queue: what is not a Table 3-5 call is dropped, counted.
    match KernelToManager::decode(msg) {
        Ok(KernelToManager::Init(object, request, _)) => {
            // Watch the request port so kernel detach is observed.
            request.subscribe_death(self_port);
            mgr.init(&conn(request), object);
        }
        Ok(KernelToManager::Create(object, Some(request))) => {
            request.subscribe_death(self_port);
            mgr.create(&conn(request), object);
        }
        // This kernel's own `pager_create` names no request port (the
        // default pager learns it from the first request or write).
        Ok(KernelToManager::Create(_, None)) => {}
        Ok(KernelToManager::DataRequest(object, offset, length, access, request)) => {
            // The service thread adopted the fault's correlation id when
            // it dequeued this message, so the service span (and any disk
            // reads the manager performs) lands in the chain. The span
            // covers the manager's whole handling of one request, and
            // becomes the thread's current span so the reply send (inside
            // `data_request`) nests under it.
            let sp = machine.span_open("pager.service");
            let _inside = machsim::trace::SpanScope::enter(sp);
            mgr.data_request(&conn(request), object, offset, length, access);
            machine.span_close("pager.service", sp);
        }
        Ok(KernelToManager::DataUnlock(object, offset, length, access, request)) => {
            mgr.data_unlock(&conn(request), object, offset, length, access)
        }
        // The data is laundry until the manager lets go of it.
        Ok(KernelToManager::DataWrite(object, offset, data, request)) => {
            mgr.data_write(&conn(request), object, offset, data)
        }
        Ok(KernelToManager::Terminate(object)) => mgr.object_terminated(object),
        Err(Malformed) => machine.stats.incr(keys::EMM_MALFORMED_DROPPED),
    }
}

/// Starts a data manager task, on a thread named `pager-<label>`, whose
/// own port is the memory object port `mgr` serves: what kernels queued
/// before the handle is dropped is served before the task stops.
pub fn spawn_manager<M: DataManager>(machine: &Machine, label: &str, mut mgr: M) -> ManagerHandle {
    let task = ManagerTask::<M>::new(machine);
    let object = task
        .space
        .send_right(task.request)
        .expect("the task holds its port");
    task.serve(&format!("pager-{label}"), move |task, msg| {
        dispatch(&task.machine, &object, &mut mgr, msg);
        None
    })
}

/// A data-manager server task: its request port and the memory object
/// port of every object it backs, enabled in its port space's default
/// group, which one thread serves ([`ManagerTask::serve`]). Each object's
/// manager is owned by that thread: a request reaches an object's state
/// through the task, and the state needs no lock.
pub struct ManagerTask<M> {
    machine: Machine,
    space: Arc<PortSpace>,
    request: PortName,
    /// Each memory object port's send right and its manager.
    objects: HashMap<PortName, (SendRight, M)>,
}

impl<M: DataManager> ManagerTask<M> {
    /// A task with a fresh request port and no objects yet.
    pub fn new(machine: &Machine) -> Self {
        let space = Arc::new(PortSpace::new(machine));
        let request = enabled_port(machine, &space, 1024).0;
        ManagerTask {
            machine: machine.clone(),
            space,
            request,
            objects: HashMap::new(),
        }
    }

    /// Backs a fresh memory object with `manager`: its port joins the
    /// group. Returns the port's name and a send right to give kernels.
    pub fn back(&mut self, manager: M) -> (PortName, SendRight) {
        // Kernels send with the notification path; keep a sane floor anyway.
        let (object, port) = enabled_port(&self.machine, &self.space, 4096);
        self.objects.insert(object, (port.clone(), manager));
        (object, port)
    }

    /// The memory object `object`'s send right and manager.
    pub fn object(&mut self, object: PortName) -> Option<&mut (SendRight, M)> {
        self.objects.get_mut(&object)
    }

    /// Hands a message from an object's port to its manager.
    fn serve_object(&mut self, object: PortName, msg: Message) {
        if let Some((port, manager)) = self.objects.get_mut(&object) {
            dispatch(&self.machine, port, manager, msg);
        }
    }

    /// Serves whatever is queued on `object`'s port now: what a local
    /// kernel queued while this thread called it is handled before the
    /// thread answers its caller.
    pub fn drain(&mut self, object: PortName) {
        while let Ok(msg) = self.space.receive(object, Some(Duration::ZERO)) {
            self.serve_object(object, msg);
        }
    }

    /// Starts the task's one thread, named `name`: a message on an object's
    /// port goes to its manager, one on the request port to `request`, with
    /// the task, whose answer is sent to the message's reply port. The
    /// returned server's port is the request port.
    pub fn serve<H>(mut self, name: &str, mut request: H) -> Server
    where
        H: FnMut(&mut Self, Message) -> Option<Message> + Send + 'static,
    {
        let (space, port) = (self.space.clone(), self.request);
        serve_group(name, space, port, move |from, msg| {
            if from == port {
                return request(&mut self, msg);
            }
            self.serve_object(from, msg);
            None
        })
        .expect("the request port is in the space")
    }
}

/// A fresh port in `space`'s default group, holding `backlog` messages.
fn enabled_port(machine: &Machine, space: &PortSpace, backlog: usize) -> (PortName, SendRight) {
    let (rx, port) = ReceiveRight::allocate(machine);
    rx.set_backlog(backlog);
    let name = space.insert_receive(rx);
    space
        .port_enable(name)
        .expect("the space holds the receive right");
    (name, port)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto;
    use machipc::MsgItem;
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// Supplies pages filled with a constant.
    struct ConstPager {
        fill: u8,
        log: Arc<Mutex<Vec<String>>>,
    }

    impl DataManager for ConstPager {
        fn init(&mut self, _kernel: &KernelConn, object: u64) {
            self.log.lock().push(format!("init {object}"));
        }

        fn data_request(
            &mut self,
            kernel: &KernelConn,
            object: u64,
            offset: u64,
            length: u64,
            _access: VmProt,
        ) {
            self.log.lock().push(format!("request {object} {offset}"));
            kernel.data_provided(
                object,
                offset,
                OolBuffer::from_vec(vec![self.fill; length as usize]),
                VmProt::NONE,
            );
        }

        fn kernel_detached(&mut self, _port: u64) {
            self.log.lock().push("detached".to_string());
        }
    }

    #[test]
    fn manager_answers_data_requests() {
        let m = Machine::default_machine();
        let log = Arc::new(Mutex::new(Vec::new()));
        let handle = spawn_manager(
            &m,
            "const",
            ConstPager {
                fill: 7,
                log: log.clone(),
            },
        );
        // Fake the kernel side: a request port we receive on.
        let (req_rx, req_tx) = ReceiveRight::allocate(&m);
        handle.port().send_notification(
            Message::new(proto::PAGER_INIT)
                .with(MsgItem::u64s(&[42]))
                .with(MsgItem::SendRights(vec![req_tx.clone()])),
        );
        handle.port().send_notification(
            Message::new(proto::PAGER_DATA_REQUEST)
                .with(MsgItem::u64s(&[42, 8192, 4096, VmProt::READ.0 as u64]))
                .with(MsgItem::SendRights(vec![req_tx])),
        );
        let reply = req_rx.receive(Some(Duration::from_secs(5))).unwrap();
        let Ok(ManagerToKernel::DataProvided(42, 8192, VmProt::NONE, data)) =
            ManagerToKernel::decode(reply)
        else {
            panic!("pager_data_provided for the page asked");
        };
        assert_eq!(data.len(), 4096);
        handle.shutdown();
        let log = log.lock();
        assert!(log.contains(&"init 42".to_string()));
        assert!(log.contains(&"request 42 8192".to_string()));
    }

    #[test]
    fn manager_observes_kernel_detach() {
        let m = Machine::default_machine();
        let log = Arc::new(Mutex::new(Vec::new()));
        let handle = spawn_manager(
            &m,
            "const",
            ConstPager {
                fill: 0,
                log: log.clone(),
            },
        );
        {
            let (req_rx, req_tx) = ReceiveRight::allocate(&m);
            handle.port().send_notification(
                Message::new(proto::PAGER_INIT)
                    .with(MsgItem::u64s(&[1]))
                    .with(MsgItem::SendRights(vec![req_tx])),
            );
            // Give the manager time to subscribe before the port dies.
            machsim::wall::sleep(Duration::from_millis(50));
            drop(req_rx);
        }
        machsim::wall::sleep(Duration::from_millis(50));
        handle.shutdown();
        assert!(log.lock().contains(&"detached".to_string()));
    }

    #[test]
    fn shutdown_is_idempotent_via_drop() {
        let m = Machine::default_machine();
        let log = Arc::new(Mutex::new(Vec::new()));
        let handle = spawn_manager(&m, "const", ConstPager { fill: 0, log });
        drop(handle); // Must not hang.
    }

    #[test]
    fn default_data_write_lets_go_of_the_data_and_sends_nothing() {
        struct W;
        impl DataManager for W {
            fn data_request(&mut self, _k: &KernelConn, _o: u64, _off: u64, _l: u64, _a: VmProt) {}
        }
        let m = Machine::default_machine();
        let handle = spawn_manager(&m, "w", W);
        let (req_rx, req_tx) = ReceiveRight::allocate(&m);
        let data = OolBuffer::from_vec(vec![0; 4096]);
        let watch = data.watch();
        handle.port().send_notification(
            Message::new(proto::PAGER_DATA_WRITE)
                .with(MsgItem::u64s(&[9, 0]))
                .with(MsgItem::OutOfLine(data))
                .with(MsgItem::SendRights(vec![req_tx])),
        );
        handle.shutdown();
        assert!(watch.is_released(), "the release is the buffer going away");
        assert!(req_rx.try_receive().is_none(), "and not a message");
    }

    #[test]
    fn truncated_kernel_messages_are_counted_not_a_panic() {
        let m = Machine::default_machine();
        let log = Arc::new(Mutex::new(Vec::new()));
        let handle = spawn_manager(
            &m,
            "const",
            ConstPager {
                fill: 7,
                log: log.clone(),
            },
        );
        let (req_rx, req_tx) = ReceiveRight::allocate(&m);
        // Every Table 3-5 id with one id short of its shape, then with no
        // request port at all (`pager_create` legitimately carries none).
        let shapes = [
            (proto::PAGER_INIT, 1),
            (proto::PAGER_DATA_REQUEST, 4),
            (proto::PAGER_DATA_WRITE, 2),
            (proto::PAGER_DATA_UNLOCK, 4),
            (proto::PAGER_CREATE, 1),
            (proto::PAGER_TERMINATE, 1),
        ];
        let mut malformed = 0;
        for (id, ids) in shapes {
            handle.port().send_notification(
                Message::new(id)
                    .with(MsgItem::u64s(&vec![42; ids - 1]))
                    .with(MsgItem::SendRights(vec![req_tx.clone()])),
            );
            malformed += 1;
            if !matches!(id, proto::PAGER_CREATE | proto::PAGER_TERMINATE) {
                handle
                    .port()
                    .send_notification(Message::new(id).with(MsgItem::u64s(&vec![42; ids])));
                malformed += 1;
            }
        }
        // A write with no data is not a write.
        handle.port().send_notification(
            Message::new(proto::PAGER_DATA_WRITE)
                .with(MsgItem::u64s(&[42, 0]))
                .with(MsgItem::SendRights(vec![req_tx.clone()])),
        );
        malformed += 1;
        // The manager thread survived all of it: an honest request is
        // still answered.
        handle.port().send_notification(
            Message::new(proto::PAGER_DATA_REQUEST)
                .with(MsgItem::u64s(&[42, 8192, 4096, VmProt::READ.0 as u64]))
                .with(MsgItem::SendRights(vec![req_tx])),
        );
        let reply = req_rx.receive(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(reply.id, proto::PAGER_DATA_PROVIDED);
        handle.shutdown();
        assert_eq!(
            m.stats.get(machsim::stats::keys::EMM_MALFORMED_DROPPED),
            malformed
        );
        assert_eq!(*log.lock(), vec!["request 42 8192".to_string()]);
    }
}
