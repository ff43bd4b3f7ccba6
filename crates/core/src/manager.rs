//! The data-manager-side runtime: write a pager as a trait impl.
//!
//! "The memory object is not provided solely by the Mach kernel, but can be
//! created and serviced by a user-level data manager task." This module is
//! that task's skeleton: [`spawn_manager`] allocates a memory object port,
//! starts a service thread, and translates the kernel's protocol messages
//! (Table 3-5) into calls on a [`DataManager`] implementation, handing it a
//! [`KernelConn`] with typed methods for every manager → kernel call
//! (Table 3-6).
//!
//! A single memory object may be mapped by several independent kernels; the
//! manager then receives one `pager_init` per kernel, each carrying a
//! distinct request port — exactly the multi-kernel structure of the
//! Section 4.2 shared memory example.

use crate::proto;
use machipc::{IpcError, Message, MsgItem, OolBuffer, ReceiveRight, SendRight, MSG_ID_PORT_DEATH};
use machsim::Machine;
use machvm::VmProt;
use std::fmt;
use std::thread::JoinHandle;
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

    /// Whether the kernel side still exists.
    pub fn is_alive(&self) -> bool {
        self.request.is_alive()
    }

    fn send(&self, msg: Message) {
        // Managers may block briefly; the kernel keeps a deep backlog on
        // request ports. A dead kernel is simply ignored (port death will
        // follow).
        let _ = self.request.send(msg, Some(Duration::from_secs(5)));
    }

    /// `pager_data_provided`: supplies the kernel with object data.
    pub fn data_provided(&self, object: u64, offset: u64, data: OolBuffer, lock: VmProt) {
        self.send(
            machipc::slab::message(proto::PAGER_DATA_PROVIDED)
                .with(MsgItem::u64s(&[object, offset, lock.0 as u64]))
                .with(MsgItem::OutOfLine(data)),
        );
    }

    /// `pager_data_lock`: restricts access to cached data.
    pub fn data_lock(&self, object: u64, offset: u64, length: u64, lock: VmProt) {
        self.send(
            machipc::slab::message(proto::PAGER_DATA_LOCK).with(MsgItem::u64s(&[
                object,
                offset,
                length,
                lock.0 as u64,
            ])),
        );
    }

    /// `pager_flush_request`: invalidates cached data.
    pub fn flush_request(&self, object: u64, offset: u64, length: u64) {
        self.send(
            machipc::slab::message(proto::PAGER_FLUSH_REQUEST)
                .with(MsgItem::u64s(&[object, offset, length])),
        );
    }

    /// `pager_clean_request`: forces cached data to be written back.
    pub fn clean_request(&self, object: u64, offset: u64, length: u64) {
        self.send(
            machipc::slab::message(proto::PAGER_CLEAN_REQUEST)
                .with(MsgItem::u64s(&[object, offset, length])),
        );
    }

    /// `pager_cache`: advises whether data may be cached after the last
    /// reference is gone.
    pub fn cache(&self, object: u64, may_cache: bool) {
        self.send(
            machipc::slab::message(proto::PAGER_CACHE)
                .with(MsgItem::u64s(&[object, may_cache as u64])),
        );
    }

    /// `pager_data_unavailable`: no data exists for the region.
    pub fn data_unavailable(&self, object: u64, offset: u64, size: u64) {
        self.send(
            machipc::slab::message(proto::PAGER_DATA_UNAVAILABLE)
                .with(MsgItem::u64s(&[object, offset, size])),
        );
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
        self.send(
            machipc::slab::message(proto::PAGER_SET_CLUSTER).with(MsgItem::u64s(&[object, pages])),
        );
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

/// Handle to a running data manager task.
pub struct ManagerHandle {
    /// The memory object port (give this to `vm_allocate_with_pager`).
    port: SendRight,
    thread: Option<JoinHandle<()>>,
}

impl fmt::Debug for ManagerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ManagerHandle({:?})", self.port)
    }
}

impl ManagerHandle {
    /// The memory object port served by this manager.
    pub fn port(&self) -> &SendRight {
        &self.port
    }

    /// Stops the manager thread.
    pub fn shutdown(mut self) {
        self.do_shutdown();
    }

    fn do_shutdown(&mut self) {
        if let Some(t) = self.thread.take() {
            self.port
                .send_notification(Message::new(proto::KERNEL_SHUTDOWN));
            let _ = t.join();
        }
    }
}

impl Drop for ManagerHandle {
    fn drop(&mut self) {
        self.do_shutdown();
    }
}

fn rights_of(msg: &mut Message) -> Vec<SendRight> {
    let mut out = Vec::new();
    for item in msg.body.iter_mut() {
        if let MsgItem::SendRights(r) = item {
            out.append(r);
        }
    }
    out
}

fn ool_of(msg: &Message) -> Option<OolBuffer> {
    msg.body.iter().find_map(|i| i.as_ool().cloned())
}

fn u64s_of(msg: &Message) -> Vec<u64> {
    msg.body
        .iter()
        .find_map(|i| i.as_u64s())
        .unwrap_or_default()
}

/// Messages a pager thread drains from its request port per batch.
const PAGER_BATCH: usize = 32;

/// Runs one dispatch step; returns `false` on shutdown.
fn dispatch<M: DataManager>(
    machine: &Machine,
    label: &str,
    self_port: &SendRight,
    mgr: &mut M,
    mut msg: Message,
) -> bool {
    let ids = u64s_of(&msg);
    // The kernel's request port, on the calls that carry one.
    let conn = rights_of(&mut msg)
        .into_iter()
        .next()
        .map(|request| KernelConn::new(machine, request));
    // Any holder of a memory-object send right can put anything on this
    // queue: decode by shape, and drop (counted) what is too short or has
    // no request port instead of indexing past its end.
    match (msg.id, ids.as_slice(), conn) {
        (proto::PAGER_INIT, &[object, ..], Some(conn)) => {
            // Watch the request port so kernel detach is observed.
            conn.request_port().subscribe_death(self_port);
            mgr.init(&conn, object);
        }
        (proto::PAGER_CREATE, &[object, ..], Some(conn)) => {
            conn.request_port().subscribe_death(self_port);
            mgr.create(&conn, object);
        }
        // This kernel's own `pager_create` names no request port (the
        // default pager learns it from the first request or write).
        (proto::PAGER_CREATE, &[_, ..], None) => {}
        (proto::PAGER_DATA_REQUEST, &[object, offset, length, access, ..], Some(conn)) => {
            // The service thread adopted the fault's correlation id when
            // it dequeued this message, so the event (and any disk reads
            // the manager performs) lands in the chain.
            machine.trace_event(&format!("pager.{label}"), machsim::EventKind::DataRequest);
            // The service span covers the manager's whole handling of one
            // request, and becomes the thread's current span so the reply
            // send (inside `data_request`) nests under it.
            let sp = machine.span_open("pager.service");
            let _inside = machsim::trace::SpanScope::enter(sp);
            mgr.data_request(&conn, object, offset, length, VmProt(access as u8));
            machine.span_close("pager.service", sp);
        }
        (proto::PAGER_DATA_UNLOCK, &[object, offset, length, access, ..], Some(conn)) => {
            mgr.data_unlock(&conn, object, offset, length, VmProt(access as u8));
        }
        (proto::PAGER_DATA_WRITE, &[object, offset, ..], Some(conn)) => {
            // The data is laundry until every handle on it is gone: the
            // manager's when `data_write` lets go, the message's below.
            let data = ool_of(&msg).unwrap_or_else(|| OolBuffer::from_vec(Vec::new()));
            mgr.data_write(&conn, object, offset, data);
        }
        (proto::PAGER_TERMINATE, &[object, ..], _) => mgr.object_terminated(object),
        (MSG_ID_PORT_DEATH, ids, _) => mgr.kernel_detached(ids.first().copied().unwrap_or(0)),
        (proto::KERNEL_SHUTDOWN, ..) => return false,
        // A Table 3-5 id none of the shapes above matched.
        (proto::PAGER_INIT..=proto::PAGER_TERMINATE, ..) => {
            machine
                .stats
                .incr(machsim::stats::keys::EMM_MALFORMED_DROPPED);
        }
        _ => {}
    }
    // Retire the drained message's buffers to the slab so the next
    // request in the storm allocates nothing.
    machipc::slab::recycle(msg);
    true
}

/// Starts a data manager task serving a fresh memory object port.
pub fn spawn_manager<M: DataManager>(machine: &Machine, label: &str, mut mgr: M) -> ManagerHandle {
    let (rx, tx) = ReceiveRight::allocate(machine);
    // Kernels send with the notification path; keep a sane floor anyway.
    rx.set_backlog(4096);
    let self_port = tx.clone();
    let machine = machine.clone();
    let label = label.to_string();
    let thread = std::thread::Builder::new()
        .name(format!("pager-{label}"))
        .spawn(move || 'serve: loop {
            // Batched drain: a paging storm delivers bursts of small
            // control messages, and one dequeue covers the whole burst.
            match rx.receive_many(PAGER_BATCH, None) {
                Ok(batch) => {
                    for msg in batch {
                        // Adopt each message's own chain context: batch
                        // dequeue installed only the last message's, and
                        // a burst mixes many faults' chains.
                        machsim::trace::set_current_correlation(machsim::CorrelationId::from_raw(
                            msg.correlation,
                        ));
                        machsim::trace::set_current_span(msg.span_context());
                        if !dispatch(&machine, &label, &self_port, &mut mgr, msg) {
                            break 'serve;
                        }
                    }
                }
                Err(IpcError::PortDied) => break,
                Err(_) => break,
            }
        })
        .expect("spawn pager thread");
    ManagerHandle {
        port: tx,
        thread: Some(thread),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(reply.id, proto::PAGER_DATA_PROVIDED);
        assert_eq!(u64s_of(&reply), vec![42, 8192, VmProt::NONE.0 as u64]);
        assert_eq!(ool_of(&reply).unwrap().len(), 4096);
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
