#![warn(missing_docs)]

//! A simulated network fabric connecting independent Mach kernels.
//!
//! The paper's NORMA class (Section 7) — HyperCubes, Ethernet workstation
//! farms — has "no hardware supplied mechanism for remote memory access";
//! everything remote is a message. This crate provides the substrate the
//! Section 4.2 network shared memory example and the Section 8.2 migration
//! example run on: a set of [`Host`]s (each with its own clock, counters
//! and cost model, i.e. its own kernel), connected by a [`Fabric`] that
//! meters every inter-host message at NORMA latencies and supports
//! partition injection for failure experiments.
//!
//! Message *delivery* reuses the ordinary IPC port machinery — a remote
//! send ends in a local enqueue on the destination host — so everything
//! built on ports (including the external pager protocol) works across
//! hosts unchanged. That is the paper's location independence: "a thread
//! can suspend another thread by sending a suspend message to the port
//! representing that other thread even if the request is initiated on
//! another node in a network."
//!
//! A proxy, the local stand-in for a port on another host, is a kernel
//! port: a send to it crosses the fabric on the sending thread, as Mach's
//! NORMA IPC forwards in the kernel, and no thread serves it.

use machipc::{IpcError, Message, PortId, ReceiveRight, SendRight, MSG_ID_PORT_DEATH};
use machsim::stats::keys;
use machsim::{CostModel, Machine, Topology};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Identity of a host on the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub usize);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host#{}", self.0)
    }
}

/// One machine on the network: an independent kernel with its own clock,
/// statistics and cost model.
pub struct Host {
    id: HostId,
    name: String,
    machine: Machine,
}

impl Host {
    /// Host identity on the fabric.
    pub fn id(&self) -> HostId {
        self.id
    }

    /// Human-readable host name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This host's machine context.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }
}

impl fmt::Debug for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Host({} {})", self.id, self.name)
    }
}

/// Network errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetError {
    /// The two hosts are partitioned from each other.
    Partitioned,
    /// The destination port failed (died, timed out, ...).
    Ipc(IpcError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Partitioned => f.write_str("hosts partitioned"),
            NetError::Ipc(e) => write!(f, "remote ipc failure: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<IpcError> for NetError {
    fn from(e: IpcError) -> Self {
        NetError::Ipc(e)
    }
}

struct FabricInner {
    hosts: Vec<Arc<Host>>,
    /// Unordered pairs of partitioned hosts.
    partitions: HashSet<(HostId, HostId)>,
    /// The netmsgserver's right-translation table: (proxy host, home
    /// host, original port) -> the proxy's port, so a right crossing
    /// repeatedly maps to one stable proxy.
    rewrites: HashMap<(HostId, HostId, PortId), ReceiveRight>,
}

/// The interconnect between hosts.
pub struct Fabric {
    inner: Mutex<FabricInner>,
    /// What a proxy's handler reaches the fabric through: weak, so the
    /// proxies the fabric owns do not keep it alive.
    self_ref: Weak<Fabric>,
}

impl fmt::Debug for Fabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fabric({} hosts)", self.inner.lock().hosts.len())
    }
}

fn pair(a: HostId, b: HostId) -> (HostId, HostId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Fabric {
    /// Creates an empty fabric.
    pub fn new() -> Arc<Self> {
        Arc::new_cyclic(|weak| Fabric {
            inner: Mutex::new(FabricInner {
                hosts: Vec::new(),
                partitions: HashSet::new(),
                rewrites: HashMap::new(),
            }),
            self_ref: weak.clone(),
        })
    }

    /// Returns the stable proxy on `on` for `target`, whose receiver is
    /// presumed to live on `home` — the network message server role of
    /// Mach's NORMA configurations.
    ///
    /// A send to the proxy is forwarded on the sending thread: charged as
    /// `on` → `home` traffic, its rights rewritten, and handed to `target`
    /// as a notification, since a kernel never waits on a user queue
    /// (Section 6.2.3). So a *remote* kernel runs the external pager
    /// protocol against a manager without either side knowing — "It is
    /// thus possible to run varying system configurations on different
    /// classes of machines while providing a consistent interface to all
    /// resources." Across a partition or to a dead target the message is
    /// dropped, like a lost datagram, and counted in `net.dropped`. The
    /// proxy watches its target and dies with it, so whoever watches the
    /// proxy learns of the death; it dies with the fabric too.
    pub fn proxy_right(&self, on: &Arc<Host>, home: &Arc<Host>, target: SendRight) -> SendRight {
        let key = (on.id(), home.id(), target.id());
        let mut inner = self.inner.lock();
        if let Some(port) = inner.rewrites.get(&key) {
            return port.make_send();
        }
        let (fabric, from, to) = (self.self_ref.clone(), on.clone(), home.clone());
        let forward_to = target.clone();
        let (port, proxy) = ReceiveRight::allocate_kernel(on.machine(), move |mut msg| {
            let fabric = fabric.upgrade()?;
            if msg.id == MSG_ID_PORT_DEATH && !forward_to.is_alive() {
                // Dropped once the lock is released: its death notices
                // may send through the fabric.
                let port = fabric.inner.lock().rewrites.remove(&key);
                drop(port);
                return None;
            }
            if fabric.cross(&from, &to, &mut msg).is_err() || !forward_to.send_notification(msg) {
                from.machine().stats.incr(keys::NET_DROPPED);
            }
            None
        });
        inner.rewrites.insert(key, port);
        drop(inner);
        // A target that is already dead posts its notice at once.
        target.subscribe_death(&proxy);
        proxy
    }

    /// Rewrites every send right (including the reply port) in a message
    /// that just traveled `home -> on`, so answers sent to those rights
    /// cross the network back and are charged. "The indirection provided
    /// by message passing allows objects to be arbitrarily placed in the
    /// network without regard to programming details."
    fn rewrite_rights(&self, on: &Arc<Host>, home: &Arc<Host>, msg: &mut Message) {
        if on.id() == home.id() {
            return;
        }
        if let Some(r) = msg.reply.take() {
            msg.reply = Some(self.proxy_right(on, home, r));
        }
        for item in msg.body.iter_mut() {
            if let machipc::MsgItem::SendRights(rights) = item {
                for r in rights.iter_mut() {
                    *r = self.proxy_right(on, home, r.clone());
                }
            }
        }
    }

    /// Adds a host with a NORMA-class cost model.
    pub fn add_host(&self, name: &str) -> Arc<Host> {
        self.add_host_with(name, CostModel::for_topology(Topology::Norma))
    }

    /// Adds a host with a specific machine model.
    pub fn add_host_with(&self, name: &str, cost: CostModel) -> Arc<Host> {
        let mut inner = self.inner.lock();
        let host = Arc::new(Host {
            id: HostId(inner.hosts.len()),
            name: name.to_string(),
            // Name the machine after the host so trace events say which
            // side of the fabric they happened on.
            machine: Machine::named(cost, name),
        });
        inner.hosts.push(host.clone());
        host
    }

    /// Number of hosts on the fabric.
    pub fn host_count(&self) -> usize {
        self.inner.lock().hosts.len()
    }

    /// Looks up a host by name.
    pub fn host_by_name(&self, name: &str) -> Option<Arc<Host>> {
        self.inner
            .lock()
            .hosts
            .iter()
            .find(|h| h.name == name)
            .cloned()
    }

    /// Sets or clears a partition between two hosts.
    pub fn set_partitioned(&self, a: HostId, b: HostId, partitioned: bool) {
        let mut inner = self.inner.lock();
        if partitioned {
            inner.partitions.insert(pair(a, b));
        } else {
            inner.partitions.remove(&pair(a, b));
        }
    }

    /// Whether two hosts can currently exchange messages.
    pub fn connected(&self, a: HostId, b: HostId) -> bool {
        a == b || !self.inner.lock().partitions.contains(&pair(a, b))
    }

    /// Charges both ends of one hop and emits the cross-host `net.hop`
    /// span: opened on the sender's trace ring, closed — with the *same*
    /// span id — on the receiver's, so merged traces stay one connected
    /// tree across the fabric. Returns the hop span id (0 when the
    /// message carries no correlation).
    fn charge_transfer(
        &self,
        from: &Host,
        to: &Host,
        bytes: u64,
        correlation: u64,
        parent_span: u64,
    ) -> u64 {
        let cid = machsim::CorrelationId::from_raw(correlation)
            .or_else(machsim::trace::current_correlation);
        let hop = match cid {
            Some(c) => {
                let parent = if parent_span != 0 {
                    parent_span
                } else {
                    machsim::trace::ambient_span_for(c.raw())
                };
                from.machine().span_open_with("net.hop", parent, cid, None)
            }
            None => 0,
        };
        for end in [from, to] {
            let m = end.machine();
            m.clock.charge(m.cost.net_op_ns(bytes));
            m.stats.incr(keys::NET_MESSAGES);
            m.stats.add(keys::NET_BYTES, bytes);
        }
        if hop != 0 {
            to.machine().span_close_with("net.hop", hop, cid);
        }
        hop
    }

    /// Carries `msg` across the network from `from` to `to`: refused
    /// across a partition, otherwise charged to both ends, nested under
    /// its `net.hop` span, and with the rights it carries rewritten so
    /// that they now live on `to`'s side and replies cross back through
    /// the fabric.
    fn cross(&self, from: &Arc<Host>, to: &Arc<Host>, msg: &mut Message) -> Result<(), NetError> {
        if !self.connected(from.id(), to.id()) {
            return Err(NetError::Partitioned);
        }
        // Out-of-line data crosses the wire: it is physically transmitted,
        // unlike the local case where it is remapped.
        let bytes = (msg.inline_len() + msg.ool_len()) as u64;
        let hop = self.charge_transfer(from, to, bytes, msg.correlation, msg.parent_span);
        if hop != 0 {
            // Remote-side spans nest under the network hop.
            msg.parent_span = hop;
        }
        self.rewrite_rights(to, from, msg);
        Ok(())
    }

    /// Sends `msg` from `from` to a port whose receiver lives on `to`.
    ///
    /// Both ends are charged NORMA message latency plus per-byte transfer
    /// cost; delivery itself reuses the local port queue on `to`.
    pub fn send(
        &self,
        from: &Arc<Host>,
        to: &Arc<Host>,
        port: &SendRight,
        mut msg: Message,
        timeout: Option<Duration>,
    ) -> Result<(), NetError> {
        self.cross(from, to, &mut msg)?;
        port.send(msg, timeout)?;
        Ok(())
    }

    /// Remote procedure call across the fabric: sends `msg` with a reply
    /// port and awaits the answer, charging both directions.
    pub fn rpc(
        &self,
        from: &Arc<Host>,
        to: &Arc<Host>,
        port: &SendRight,
        mut msg: Message,
        timeout: Option<Duration>,
    ) -> Result<Message, NetError> {
        self.cross(from, to, &mut msg)?;
        let mut reply = port.rpc(msg, timeout, timeout)?;
        self.cross(to, from, &mut reply)?;
        Ok(reply)
    }
}

/// A send right bound to a (fabric, source host, destination host) triple,
/// so remote services can be invoked with local-call syntax.
pub struct RemotePort {
    fabric: Arc<Fabric>,
    from: Arc<Host>,
    to: Arc<Host>,
    port: SendRight,
}

impl RemotePort {
    /// Binds `port` (receiver on `to`) for use from `from`.
    pub fn new(fabric: Arc<Fabric>, from: Arc<Host>, to: Arc<Host>, port: SendRight) -> Self {
        Self {
            fabric,
            from,
            to,
            port,
        }
    }

    /// Sends a one-way message.
    pub fn send(&self, msg: Message, timeout: Option<Duration>) -> Result<(), NetError> {
        self.fabric
            .send(&self.from, &self.to, &self.port, msg, timeout)
    }

    /// Remote procedure call.
    pub fn rpc(&self, msg: Message, timeout: Option<Duration>) -> Result<Message, NetError> {
        self.fabric
            .rpc(&self.from, &self.to, &self.port, msg, timeout)
    }

    /// The underlying send right.
    pub fn port(&self) -> &SendRight {
        &self.port
    }

    /// The destination host.
    pub fn to(&self) -> &Arc<Host> {
        &self.to
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machipc::{Message, MsgItem, ReceiveRight};

    fn two_hosts() -> (Arc<Fabric>, Arc<Host>, Arc<Host>) {
        let fabric = Fabric::new();
        let a = fabric.add_host("alpha");
        let b = fabric.add_host("beta");
        (fabric, a, b)
    }

    #[test]
    fn hosts_have_distinct_identities() {
        let (fabric, a, b) = two_hosts();
        assert_ne!(a.id(), b.id());
        assert_eq!(fabric.host_count(), 2);
        assert_eq!(fabric.host_by_name("beta").unwrap().id(), b.id());
        assert!(fabric.host_by_name("gamma").is_none());
    }

    #[test]
    fn remote_send_delivers_and_charges_both_ends() {
        let (fabric, a, b) = two_hosts();
        let (rx, tx) = ReceiveRight::allocate(b.machine());
        fabric
            .send(
                &a,
                &b,
                &tx,
                Message::new(1).with(MsgItem::bytes(vec![0; 100])),
                None,
            )
            .unwrap();
        assert_eq!(rx.receive(None).unwrap().id, 1);
        for host in [&a, &b] {
            assert_eq!(host.machine().stats.get(keys::NET_MESSAGES), 1);
            assert_eq!(host.machine().stats.get(keys::NET_BYTES), 100);
            // NORMA fixed latency is charged.
            assert!(host.machine().clock.now_ns() >= 300_000);
        }
    }

    #[test]
    fn partition_blocks_traffic() {
        let (fabric, a, b) = two_hosts();
        let (_rx, tx) = ReceiveRight::allocate(b.machine());
        fabric.set_partitioned(a.id(), b.id(), true);
        assert!(!fabric.connected(a.id(), b.id()));
        let err = fabric.send(&a, &b, &tx, Message::new(1), None).unwrap_err();
        assert_eq!(err, NetError::Partitioned);
        // Healing restores delivery.
        fabric.set_partitioned(a.id(), b.id(), false);
        fabric.send(&a, &b, &tx, Message::new(2), None).unwrap();
    }

    #[test]
    fn partition_is_symmetric() {
        let (fabric, a, b) = two_hosts();
        fabric.set_partitioned(b.id(), a.id(), true);
        assert!(!fabric.connected(a.id(), b.id()));
        assert!(fabric.connected(a.id(), a.id()));
    }

    #[test]
    fn rpc_round_trip_charges_both_directions() {
        let (fabric, a, b) = two_hosts();
        let (rx, tx) = ReceiveRight::allocate(b.machine());
        let server = std::thread::spawn(move || {
            let req = rx.receive(None).unwrap();
            req.reply
                .expect("reply port")
                .send(Message::new(req.id * 2), None)
                .unwrap();
        });
        let reply = fabric.rpc(&a, &b, &tx, Message::new(21), None).unwrap();
        assert_eq!(reply.id, 42);
        server.join().unwrap();
        assert_eq!(a.machine().stats.get(keys::NET_MESSAGES), 2);
        assert_eq!(b.machine().stats.get(keys::NET_MESSAGES), 2);
    }

    #[test]
    fn dead_remote_port_reports_ipc_error() {
        let (fabric, a, b) = two_hosts();
        let (rx, tx) = ReceiveRight::allocate(b.machine());
        drop(rx);
        let err = fabric.send(&a, &b, &tx, Message::new(1), None).unwrap_err();
        assert_eq!(err, NetError::Ipc(IpcError::PortDied));
    }

    #[test]
    fn remote_port_wrapper() {
        let (fabric, a, b) = two_hosts();
        let (rx, tx) = ReceiveRight::allocate(b.machine());
        let rp = RemotePort::new(fabric, a, b, tx);
        rp.send(Message::new(5), None).unwrap();
        assert_eq!(rx.receive(None).unwrap().id, 5);
        assert_eq!(rp.to().name(), "beta");
    }

    #[test]
    fn proxy_forwards_and_charges() {
        let (fabric, a, b) = two_hosts();
        let (rx, tx) = ReceiveRight::allocate(b.machine());
        let proxy = fabric.proxy_right(&a, &b, tx);
        // A local send on host A reaches the receiver on host B, with the
        // network charged in between, before the send returns.
        proxy
            .send(Message::new(33).with(MsgItem::bytes(vec![0; 64])), None)
            .unwrap();
        assert_eq!(rx.try_receive().map(|m| m.id), Some(33));
        assert_eq!(a.machine().stats.get(keys::NET_MESSAGES), 1);
        assert_eq!(b.machine().stats.get(keys::NET_MESSAGES), 1);
    }

    #[test]
    fn proxy_drops_messages_across_partition() {
        let (fabric, a, b) = two_hosts();
        let (rx, tx) = ReceiveRight::allocate(b.machine());
        let proxy = fabric.proxy_right(&a, &b, tx);
        fabric.set_partitioned(a.id(), b.id(), true);
        proxy.send(Message::new(1), None).unwrap();
        assert!(rx.try_receive().is_none());
        assert_eq!(a.machine().stats.get(keys::NET_DROPPED), 1);
    }

    #[test]
    fn a_forward_never_waits_on_the_targets_backlog() {
        let (fabric, a, b) = two_hosts();
        let (rx, tx) = ReceiveRight::allocate(b.machine());
        rx.set_backlog(1);
        let proxy = fabric.proxy_right(&a, &b, tx);
        for id in 0..3 {
            let sent = proxy.send(Message::new(id), Some(Duration::ZERO));
            sent.expect("a proxy never refuses a send");
        }
        assert_eq!(rx.queued(), 3);
    }

    #[test]
    fn no_proxy_outlives_its_target() {
        let (fabric, a, b) = two_hosts();
        let (rx, tx) = ReceiveRight::allocate(b.machine());
        let proxy = fabric.proxy_right(&a, &b, tx.clone());
        drop(rx);
        assert!(!proxy.is_alive());
        assert!(fabric.inner.lock().rewrites.is_empty());
        // A right whose receiver is already gone gets a dead proxy.
        assert!(!fabric.proxy_right(&a, &b, tx).is_alive());
        assert!(fabric.inner.lock().rewrites.is_empty());
    }

    #[test]
    fn concurrent_rewrites_of_one_right_make_one_proxy() {
        let (fabric, a, b) = two_hosts();
        let start = std::sync::Barrier::new(8);
        let mut targets = Vec::new();
        for round in 1..=10 {
            let (rx, tx) = ReceiveRight::allocate(b.machine());
            targets.push(rx);
            let proxies: Vec<SendRight> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..8)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            fabric.proxy_right(&a, &b, tx.clone())
                        })
                    })
                    .collect();
                let joined = workers.into_iter().map(|w| w.join().expect("no panic"));
                joined.collect()
            });
            assert!(proxies.iter().all(|p| p.same_port(&proxies[0])));
            assert_eq!(fabric.inner.lock().rewrites.len(), round);
        }
    }

    #[test]
    fn a_reply_ports_proxy_goes_once_the_reply_is_received() {
        let (fabric, a, b) = two_hosts();
        let (_rx, echo) =
            ReceiveRight::allocate_kernel(b.machine(), |msg| Some(Message::new(msg.id)));
        let proxy = fabric.proxy_right(&a, &b, echo);
        for id in 0..1000 {
            let reply = proxy.rpc(Message::new(id), None, None).expect("an echo");
            assert_eq!(reply.id, id);
        }
        // Each reply port's proxy died with it: the echo's is left.
        assert_eq!(fabric.inner.lock().rewrites.len(), 1);
        assert_eq!(b.machine().stats.get(keys::NET_MESSAGES), 2000);
    }

    #[test]
    fn no_proxy_outlives_the_fabric() {
        let (fabric, a, b) = two_hosts();
        let (_rx, tx) = ReceiveRight::allocate(b.machine());
        let proxy = fabric.proxy_right(&a, &b, tx);
        assert!(proxy.is_alive());
        drop(fabric);
        assert!(!proxy.is_alive());
        assert_eq!(proxy.send(Message::new(1), None), Err(IpcError::PortDied));
    }

    #[test]
    fn ool_data_is_charged_by_bytes_over_network() {
        // Locally OOL moves by remap; across the network it must be
        // transmitted, so the fabric charges per byte.
        let (fabric, a, b) = two_hosts();
        let (_rx, tx) = ReceiveRight::allocate(b.machine());
        let ool = machipc::OolBuffer::from_vec(vec![0u8; 8192]);
        fabric
            .send(
                &a,
                &b,
                &tx,
                Message::new(1).with(MsgItem::OutOfLine(ool)),
                None,
            )
            .unwrap();
        assert_eq!(a.machine().stats.get(keys::NET_BYTES), 8192);
    }
}
