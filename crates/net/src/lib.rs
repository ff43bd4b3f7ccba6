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

use machipc::{serve, IpcError, Message, SendRight, Server};
use machsim::stats::keys;
use machsim::{CostModel, Machine, Topology};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;
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
    /// Reverse proxies created by right rewriting, kept alive with the
    /// fabric (a netmsgserver keeps its translation entries for as long
    /// as it runs).
    auto_proxies: Vec<ProxyHandle>,
    /// Rewrite cache: (proxy host, home host, original port) -> proxy
    /// port, so a right crossing repeatedly maps to one stable proxy.
    rewrites: std::collections::HashMap<(HostId, HostId, machipc::PortId), SendRight>,
}

/// The interconnect between hosts.
pub struct Fabric {
    inner: Mutex<FabricInner>,
    /// Weak self-reference so &self methods can spawn proxies.
    self_ref: std::sync::Weak<Fabric>,
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
                auto_proxies: Vec::new(),
                rewrites: std::collections::HashMap::new(),
            }),
            self_ref: weak.clone(),
        })
    }

    fn arc(&self) -> Arc<Fabric> {
        self.self_ref.upgrade().expect("fabric alive")
    }

    /// Returns a stable proxy on `on` for `right`, whose receiver is
    /// presumed to live on `home` — the netmsgserver's right-translation
    /// table. Repeated rewrites of the same right reuse one proxy.
    pub fn proxy_right(&self, on: &Arc<Host>, home: &Arc<Host>, right: SendRight) -> SendRight {
        let key = (on.id(), home.id(), right.id());
        if let Some(existing) = self.inner.lock().rewrites.get(&key) {
            return existing.clone();
        }
        let handle = self.arc().proxy(on, home, right);
        let port = handle.port().clone();
        let mut inner = self.inner.lock();
        inner.auto_proxies.push(handle);
        inner.rewrites.insert(key, port.clone());
        port
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

    /// Sends `msg` from `from` to a port whose receiver lives on `to`.
    ///
    /// Both ends are charged NORMA message latency plus per-byte transfer
    /// cost; delivery itself reuses the local port queue on `to`.
    pub fn send(
        &self,
        from: &Arc<Host>,
        to: &Arc<Host>,
        port: &SendRight,
        msg: Message,
        timeout: Option<Duration>,
    ) -> Result<(), NetError> {
        if !self.connected(from.id(), to.id()) {
            return Err(NetError::Partitioned);
        }
        // Out-of-line data crosses the wire: it is physically transmitted,
        // unlike the local case where it is remapped.
        let bytes = (msg.inline_len() + msg.ool_len()) as u64;
        let mut msg = msg;
        let hop = self.charge_transfer(from, to, bytes, msg.correlation, msg.parent_span);
        if hop != 0 {
            // Remote-side spans nest under the network hop.
            msg.parent_span = hop;
        }
        // Rights in the message now live on `to`'s side of the network:
        // rewrite them so replies cross back through the fabric.
        self.rewrite_rights(to, from, &mut msg);
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
        msg: Message,
        timeout: Option<Duration>,
    ) -> Result<Message, NetError> {
        if !self.connected(from.id(), to.id()) {
            return Err(NetError::Partitioned);
        }
        let bytes = (msg.inline_len() + msg.ool_len()) as u64;
        let mut msg = msg;
        let hop = self.charge_transfer(from, to, bytes, msg.correlation, msg.parent_span);
        if hop != 0 {
            msg.parent_span = hop;
        }
        let mut reply = port.rpc(msg, timeout, timeout)?;
        let reply_bytes = (reply.inline_len() + reply.ool_len()) as u64;
        let back =
            self.charge_transfer(to, from, reply_bytes, reply.correlation, reply.parent_span);
        if back != 0 {
            reply.parent_span = back;
        }
        self.rewrite_rights(from, to, &mut reply);
        Ok(reply)
    }
}

/// A local stand-in port for a port on another host — the network message
/// server role of Mach's NORMA configurations.
///
/// Anything sent to the proxy's local port ([`Server::port`]) is charged as
/// network traffic between the two hosts and forwarded to the real port,
/// reply port and all. This is what lets a *remote* kernel run the
/// external pager protocol against a data manager on another machine
/// without either side knowing the difference — "It is thus possible to
/// run varying system configurations on different classes of machines
/// while providing a consistent interface to all resources." Dropping it
/// stops the forwarder; no message a sender can build stops it.
pub type ProxyHandle = Server;

impl Fabric {
    /// Creates a proxy on `on` for `target`, whose receiver lives on
    /// `remote`. Every message sent to the returned local port is charged
    /// as `on` → `remote` network traffic and forwarded.
    pub fn proxy(
        self: &Arc<Self>,
        on: &Arc<Host>,
        remote: &Arc<Host>,
        target: SendRight,
    ) -> ProxyHandle {
        let (rx, _) = machipc::ReceiveRight::allocate(on.machine());
        rx.set_backlog(65536);
        let fabric = self.clone();
        let name = format!("netmsg-{}-{}", on.name(), remote.name());
        let (on, remote) = (on.clone(), remote.clone());
        serve(name, rx, move |msg| {
            if fabric.send(&on, &remote, &target, msg, None).is_err() {
                // Partitioned or dead target: message dropped, exactly
                // like a lost datagram.
                on.machine().stats.incr(keys::NET_DROPPED);
            }
            None
        })
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
        let proxy = fabric.proxy(&a, &b, tx);
        // A local send on host A reaches the receiver on host B, with the
        // network charged in between.
        proxy
            .port()
            .send(Message::new(33).with(MsgItem::bytes(vec![0; 64])), None)
            .unwrap();
        let m = rx.receive(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(m.id, 33);
        assert_eq!(a.machine().stats.get(keys::NET_MESSAGES), 1);
        assert_eq!(b.machine().stats.get(keys::NET_MESSAGES), 1);
        drop(proxy); // Must not hang.
    }

    #[test]
    fn proxy_drops_messages_across_partition() {
        let (fabric, a, b) = two_hosts();
        let (rx, tx) = ReceiveRight::allocate(b.machine());
        let proxy = fabric.proxy(&a, &b, tx);
        fabric.set_partitioned(a.id(), b.id(), true);
        proxy.port().send(Message::new(1), None).unwrap();
        machsim::wall::sleep(Duration::from_millis(50));
        assert!(rx.try_receive().is_none());
        assert_eq!(a.machine().stats.get(machsim::stats::keys::NET_DROPPED), 1);
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
