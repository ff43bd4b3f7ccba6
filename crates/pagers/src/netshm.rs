//! Consistent network shared memory (Section 4.2).
//!
//! A data manager provides one shared memory region to clients on
//! *different hosts*, each with its own Mach kernel. The server follows
//! the paper's three-frame scenario:
//!
//! 1. Each kernel maps the object and the server receives one
//!    `pager_init` per kernel, recording each kernel's request port.
//! 2. Read faults: the server supplies the page *write-locked*
//!    (`lock_value = VM_PROT_WRITE`) and records every reader.
//! 3. A write fault on a read-locked page arrives as `pager_data_unlock`;
//!    the server invalidates every other use with `pager_flush_request`,
//!    then grants write access with `pager_data_lock` and no lock.
//!
//! The coherence discipline is the Li–Hudak single-writer/multiple-reader
//! protocol the paper cites: "Multiple read accesses with no writers are
//! permitted but only one writer can be allowed to modify a page of data
//! at a time", and "A subsequent attempt to read by another workstation
//! will cause the writer to revert to reader status."

use machcore::{spawn_manager, DataManager, KernelConn, ManagerHandle, Task};
use machipc::{OolBuffer, SendRight};
use machnet::{Fabric, Host, ProxyHandle};
use machvm::{VmError, VmProt};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

const PAGE: u64 = 4096;

/// How the server grants access on read faults.
///
/// The paper's example uses [`GrantPolicy::ReadLocked`] and notes in
/// footnote 9 that "It may be more practical to allow the first client
/// write access, and then to revoke it later" — that is
/// [`GrantPolicy::WriteFirst`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GrantPolicy {
    /// Readers always get write-locked pages; writes negotiate an unlock.
    #[default]
    ReadLocked,
    /// A sole user gets the page writable immediately; access is revoked
    /// when another client shows up.
    WriteFirst,
}

/// One kernel's attachment to the shared region.
struct Session {
    conn: KernelConn,
    object: u64,
}

/// Who holds a page, and how.
#[derive(Default)]
struct PageState {
    /// Sessions holding the page read-only.
    readers: Vec<usize>,
    /// Session holding the page writable, if any.
    writer: Option<usize>,
    /// Read requests waiting for the writer's data to come home.
    pending_reads: VecDeque<usize>,
}

struct ServerState {
    /// Grant policy (footnote 9).
    policy: GrantPolicy,
    /// Unlock negotiations served (for the ablation measurement).
    unlock_negotiations: u64,
    /// Master copy of the region.
    data: Vec<u8>,
    sessions: Vec<Session>,
    pages: HashMap<u64, PageState>,
    /// Event counters for the experiments.
    invalidations: u64,
    demotions: u64,
}

impl ServerState {
    fn page(&mut self, offset: u64) -> &mut PageState {
        self.pages.entry(offset - offset % PAGE).or_default()
    }

    /// Sends `pager_flush_request` to a session. The session's request
    /// right is a network-message-server proxy for remote kernels, so the
    /// traffic is charged by the fabric automatically.
    fn flush(&mut self, session: usize, offset: u64) {
        self.invalidations += 1;
        let s = &self.sessions[session];
        s.conn.flush_request(s.object, offset, PAGE);
    }

    /// Supplies a page to a session with the given lock.
    fn provide(&mut self, session: usize, offset: u64, lock: VmProt) {
        let page = offset - offset % PAGE;
        let data = self.data[page as usize..(page + PAGE) as usize].to_vec();
        let s = &self.sessions[session];
        s.conn
            .data_provided(s.object, page, OolBuffer::from_vec(data), lock);
    }

    /// Serves a read request given the current page state.
    fn serve_read(&mut self, session: usize, offset: u64) {
        let page_off = offset - offset % PAGE;
        let policy = self.policy;
        let st = self.page(page_off);
        if let Some(writer) = st.writer {
            if writer == session {
                // The writer re-faulting its own page (it was evicted
                // clean): re-supply it writable.
                self.provide(session, page_off, VmProt::NONE);
                return;
            }
            // "A subsequent attempt to read by another workstation will
            // cause the writer to revert to reader status": flush the
            // writer and finish when its data comes home.
            st.pending_reads.push_back(session);
            self.demotions += 1;
            self.flush(writer, page_off);
            return;
        }
        if policy == GrantPolicy::WriteFirst && st.readers.is_empty() {
            // Footnote 9: the sole user gets the page writable right away;
            // a later client's request will revoke it.
            st.writer = Some(session);
            self.provide(session, page_off, VmProt::NONE);
            return;
        }
        if !st.readers.contains(&session) {
            st.readers.push(session);
        }
        // Readers get the page write-locked.
        self.provide(session, page_off, VmProt::WRITE);
    }

    /// Grants write access to a session, invalidating all other uses.
    fn grant_write(&mut self, session: usize, offset: u64, already_has_page: bool) {
        let page_off = offset - offset % PAGE;
        let st = self.page(page_off);
        let others: Vec<usize> = st
            .readers
            .iter()
            .copied()
            .filter(|&r| r != session)
            .chain(st.writer.iter().copied().filter(|&w| w != session))
            .collect();
        st.readers.clear();
        st.writer = Some(session);
        for other in others {
            self.flush(other, page_off);
        }
        if already_has_page {
            // The kernel has the (read-locked) page; relax the lock.
            let s = &self.sessions[session];
            s.conn.data_lock(s.object, page_off, PAGE, VmProt::NONE);
        } else {
            self.provide(session, page_off, VmProt::NONE);
        }
    }
}

/// The shared memory data manager.
struct ShmManager {
    state: Arc<Mutex<ServerState>>,
}

impl DataManager for ShmManager {
    fn init(&mut self, kernel: &KernelConn, object: u64) {
        self.state.lock().sessions.push(Session {
            conn: kernel.clone(),
            object,
        });
        // Single-page coherence: a clustered request would make the
        // kernel prefetch neighbors — registering the client for pages it
        // never asked about and, on a write fault, granting it spurious
        // write ownership of every page in the cluster run. Sent after
        // the session is registered: a client that has seen the attribute
        // land (`map_and_await_init`) may fault, and its request finds a session.
        kernel.set_cluster(object, 1);
    }

    fn data_request(
        &mut self,
        kernel: &KernelConn,
        _object: u64,
        offset: u64,
        length: u64,
        access: VmProt,
    ) {
        let mut st = self.state.lock();
        let Some(session) = st
            .sessions
            .iter()
            .position(|s| s.conn.request_port().same_port(kernel.request_port()))
        else {
            return;
        };
        // Distinguish ownership grants from plain read service in the
        // fault chain (coherence bugs look identical without this).
        kernel.machine().trace_event(
            "pager.netshm",
            machsim::EventKind::Mark(if access.allows(VmProt::WRITE) {
                "shm_grant_write"
            } else {
                "shm_serve_read"
            }),
        );
        let mut page = offset - offset % PAGE;
        let end = offset + length;
        while page < end {
            if access.allows(VmProt::WRITE) {
                st.grant_write(session, page, false);
            } else {
                st.serve_read(session, page);
            }
            page += PAGE;
        }
    }

    fn data_unlock(
        &mut self,
        kernel: &KernelConn,
        _object: u64,
        offset: u64,
        length: u64,
        access: VmProt,
    ) {
        let mut st = self.state.lock();
        let Some(session) = st
            .sessions
            .iter()
            .position(|s| s.conn.request_port().same_port(kernel.request_port()))
        else {
            return;
        };
        let mut page = offset - offset % PAGE;
        let end = offset + length;
        while page < end {
            if access.allows(VmProt::WRITE) {
                st.unlock_negotiations += 1;
                st.grant_write(session, page, true);
            }
            page += PAGE;
        }
    }

    fn data_write(&mut self, kernel: &KernelConn, object: u64, offset: u64, data: OolBuffer) {
        let mut st = self.state.lock();
        let session = st
            .sessions
            .iter()
            .position(|s| s.conn.request_port().same_port(kernel.request_port()));
        // Update the master copy.
        let page = (offset - offset % PAGE) as usize;
        let n = data.len().min(st.data.len().saturating_sub(page));
        let slice = data.as_slice()[..n].to_vec();
        st.data[page..page + n].copy_from_slice(&slice);
        if let Some(session) = session {
            let page_state = st.page(offset);
            if page_state.writer == Some(session) {
                page_state.writer = None;
            }
            // The writer's data is home: serve queued readers.
            let pending: Vec<usize> = st.page(offset).pending_reads.drain(..).collect();
            for reader in pending {
                st.serve_read(reader, offset);
            }
        }
        kernel.release_laundry(object, data.len() as u64);
    }

    fn kernel_detached(&mut self, _port: u64) {
        // Keep sessions; a full implementation would garbage collect.
    }
}

/// A consistent network shared memory service.
pub struct SharedMemoryServer {
    state: Arc<Mutex<ServerState>>,
    handle: ManagerHandle,
    fabric: Arc<Fabric>,
    server_host: Arc<Host>,
    /// Proxies keeping remote attachments alive.
    proxies: Mutex<Vec<ProxyHandle>>,
    size: u64,
}

impl fmt::Debug for SharedMemoryServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedMemoryServer({} bytes)", self.size)
    }
}

impl SharedMemoryServer {
    /// Starts a shared memory service of `size` bytes on `server_host`.
    pub fn start(fabric: &Arc<Fabric>, server_host: &Arc<Host>, size: u64) -> Arc<Self> {
        Self::start_with_policy(fabric, server_host, size, GrantPolicy::ReadLocked)
    }

    /// Starts the service with an explicit grant policy (footnote 9).
    pub fn start_with_policy(
        fabric: &Arc<Fabric>,
        server_host: &Arc<Host>,
        size: u64,
        policy: GrantPolicy,
    ) -> Arc<Self> {
        let state = Arc::new(Mutex::new(ServerState {
            policy,
            unlock_negotiations: 0,
            data: vec![0u8; size as usize],
            sessions: Vec::new(),
            pages: HashMap::new(),
            invalidations: 0,
            demotions: 0,
        }));
        let handle = spawn_manager(
            server_host.machine(),
            "netshm",
            ShmManager {
                state: state.clone(),
            },
        );
        Arc::new(SharedMemoryServer {
            state,
            handle,
            fabric: fabric.clone(),
            server_host: server_host.clone(),
            proxies: Mutex::new(Vec::new()),
            size,
        })
    }

    /// The memory object port (local to the server's host).
    pub fn port(&self) -> &SendRight {
        self.handle.port()
    }

    /// Region size.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Maps the shared region into `task`, which runs on `client_host`.
    ///
    /// Remote clients reach the memory object through a network message
    /// server proxy, so all pager traffic is charged as network traffic.
    pub fn attach(&self, task: &Task, client_host: &Arc<Host>) -> Result<u64, VmError> {
        let port = self.handle.port().clone();
        let port = if client_host.id() == self.server_host.id() {
            port
        } else {
            let proxy = self.fabric.proxy(client_host, &self.server_host, port);
            let p = proxy.port().clone();
            self.proxies.lock().push(proxy);
            p
        };
        map_and_await_init(task, &port, self.size)
    }

    /// (invalidations sent, writer demotions) — coherence traffic counters.
    pub fn coherence_counters(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.invalidations, st.demotions)
    }

    /// Write-unlock negotiations the server has performed.
    pub fn unlock_negotiations(&self) -> u64 {
        self.state.lock().unlock_negotiations
    }

    /// Reads the master copy (for assertions).
    pub fn master_copy(&self, offset: u64, len: usize) -> Vec<u8> {
        let st = self.state.lock();
        st.data[offset as usize..offset as usize + len].to_vec()
    }
}

/// RPC: look up (or create) a shared region by name; the reply carries
/// the memory object port — "the shared memory server finds the memory
/// object, X, and returns it" (Section 4.2).
pub const SHM_LOOKUP: u32 = 0x4B01;
/// Success reply.
pub const SHM_OK: u32 = 0x4B80;
/// Failure reply.
pub const SHM_ERR: u32 = 0x4B81;
const SHM_SHUTDOWN: u32 = 0x4BFF;

/// The Section 4.2 front door: a directory of named shared memory regions.
///
/// "In our example, the first client has made a request for a shared
/// memory region not in use by any other client. The shared memory server
/// creates a memory object (i.e., allocates a port) to refer to this
/// region and returns that memory object, X, to the first client. The
/// second client, running on a different host, later makes a request for
/// the same shared memory region. The shared memory server finds the
/// memory object, X, and returns it to the second client."
///
/// Remote clients call [`ShmDirectory::request`] through the fabric; the
/// network message server's right rewriting delivers them a proxied
/// memory object port, so mapping it runs the whole pager protocol over
/// the network with no further ceremony.
pub struct ShmDirectory {
    port: SendRight,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl fmt::Debug for ShmDirectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ShmDirectory({:?})", self.port)
    }
}

impl ShmDirectory {
    /// Starts a directory of shared regions on `server_host`.
    pub fn start(
        fabric: &Arc<Fabric>,
        server_host: &Arc<Host>,
        policy: GrantPolicy,
    ) -> Arc<ShmDirectory> {
        let (rx, tx) = machipc::ReceiveRight::allocate(server_host.machine());
        rx.set_backlog(1024);
        let fabric = fabric.clone();
        let server_host = server_host.clone();
        let thread = std::thread::Builder::new()
            .name("shm-directory".into())
            .spawn(move || {
                let mut regions: HashMap<String, Arc<SharedMemoryServer>> = HashMap::new();
                loop {
                    let Ok(msg) = rx.receive(None) else { break };
                    let reply = |m: machipc::Message| {
                        if let Some(r) = &msg.reply {
                            let _ = r.send(m, Some(std::time::Duration::from_secs(5)));
                        }
                    };
                    match msg.id {
                        SHM_LOOKUP => {
                            let name = msg
                                .body
                                .iter()
                                .find_map(|i| i.as_bytes())
                                .map(|b| String::from_utf8_lossy(b).to_string());
                            let size = msg
                                .body
                                .iter()
                                .find_map(|i| i.as_u64s())
                                .and_then(|v| v.first().copied());
                            match (name, size) {
                                (Some(name), Some(size)) if size > 0 => {
                                    let region = regions.entry(name).or_insert_with(|| {
                                        SharedMemoryServer::start_with_policy(
                                            &fabric,
                                            &server_host,
                                            size,
                                            policy,
                                        )
                                    });
                                    reply(
                                        machipc::Message::new(SHM_OK)
                                            .with(machipc::MsgItem::u64s(&[region.size()]))
                                            .with(machipc::MsgItem::SendRights(vec![region
                                                .port()
                                                .clone()])),
                                    );
                                }
                                _ => reply(machipc::Message::new(SHM_ERR)),
                            }
                        }
                        SHM_SHUTDOWN => break,
                        _ => reply(machipc::Message::new(SHM_ERR)),
                    }
                }
            })
            .expect("spawn shm directory");
        Arc::new(ShmDirectory {
            port: tx,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// The directory's RPC port (reachable through the fabric by remote
    /// clients).
    pub fn port(&self) -> &SendRight {
        &self.port
    }

    /// Client side: requests the region `name` (created with `size` bytes
    /// on first use) and maps it into `task`. `server_host` is where the
    /// directory runs; traffic from a different `client_host` rides the
    /// fabric. Returns `(address, size)`.
    pub fn request(
        fabric: &Arc<Fabric>,
        directory: &SendRight,
        server_host: &Arc<Host>,
        client_host: &Arc<Host>,
        task: &Task,
        name: &str,
        size: u64,
    ) -> Result<(u64, u64), VmError> {
        let msg = machipc::Message::new(SHM_LOOKUP)
            .with(machipc::MsgItem::bytes(name.as_bytes().to_vec()))
            .with(machipc::MsgItem::u64s(&[size]));
        let reply = if client_host.id() == server_host.id() {
            directory
                .rpc(
                    msg,
                    Some(std::time::Duration::from_secs(10)),
                    Some(std::time::Duration::from_secs(10)),
                )
                .map_err(|_| VmError::ObjectDestroyed)?
        } else {
            fabric
                .rpc(
                    client_host,
                    server_host,
                    directory,
                    msg,
                    Some(std::time::Duration::from_secs(10)),
                )
                .map_err(|_| VmError::ObjectDestroyed)?
        };
        if reply.id != SHM_OK {
            return Err(VmError::ObjectDestroyed);
        }
        let actual = reply.body[0].as_u64s().ok_or(VmError::ObjectDestroyed)?[0];
        let machipc::MsgItem::SendRights(rights) = &reply.body[1] else {
            return Err(VmError::ObjectDestroyed);
        };
        // When the client is remote the fabric rewrote the right into a
        // local proxy; either way, map it.
        let addr = map_and_await_init(task, &rights[0], actual)?;
        Ok((addr, actual))
    }
}

/// Maps the `size`-byte region behind `port` into `task` and waits until
/// the server has handled this kernel's `pager_init`.
///
/// `pager_init` travels asynchronously (possibly through a proxy), and a
/// fault taken before the server has handled it can reach the server
/// first, find no session for this kernel and go unanswered. The server
/// registers the session and then sends its single-page cluster
/// attribute, so the attribute landing here means the session exists and
/// later mappers see ordered host slots — the stand-in for real Mach's
/// kernel blocking new mappings until `memory_object_set_attributes`
/// arrives. It also means no fault cluster-prefetches pages the server
/// tracks per client. A server that never answers is an error, not a
/// mapping whose first fault hangs.
fn map_and_await_init(task: &Task, port: &SendRight, size: u64) -> Result<u64, VmError> {
    let addr = task.vm_allocate_with_pager(None, size, port, 0)?;
    let object = task.kernel().object_for_port(port, size);
    // Wall-clock bound: generous enough for a proxied `pager_init` on a
    // loaded 2-core host; the common case returns within a poll or two.
    let initialized = machsim::wall::poll_until(
        std::time::Duration::from_secs(5),
        std::time::Duration::from_millis(2),
        || object.cluster_hint() == 1,
    );
    if !initialized {
        // The caller must see the timeout, whatever unmapping says.
        let _ = task.vm_deallocate(addr, size);
        return Err(VmError::Timeout);
    }
    Ok(addr)
}

impl Drop for ShmDirectory {
    fn drop(&mut self) {
        self.port
            .send_notification(machipc::Message::new(SHM_SHUTDOWN));
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machcore::{Kernel, KernelConfig};
    use machsim::stats::keys;
    use std::time::Duration;

    /// One booted client host of the two-host rig.
    type Client = (Arc<Host>, Arc<Kernel>, Arc<Task>);

    /// Two kernels on two fabric hosts sharing one region.
    fn setup(
        size: u64,
    ) -> (
        Arc<Fabric>,
        Client,
        Client,
        Arc<SharedMemoryServer>,
        (u64, u64),
    ) {
        let fabric = Fabric::new();
        let server_host = fabric.add_host("server");
        let host_a = fabric.add_host("alpha");
        let host_b = fabric.add_host("beta");
        let kernel_a = Kernel::boot_on(host_a.machine().clone(), KernelConfig::default());
        let kernel_b = Kernel::boot_on(host_b.machine().clone(), KernelConfig::default());
        let task_a = Task::create(&kernel_a, "client-a");
        let task_b = Task::create(&kernel_b, "client-b");
        let server = SharedMemoryServer::start(&fabric, &server_host, size);
        let addr_a = server.attach(&task_a, &host_a).unwrap();
        let addr_b = server.attach(&task_b, &host_b).unwrap();
        (
            fabric,
            (host_a, kernel_a, task_a),
            (host_b, kernel_b, task_b),
            server,
            (addr_a, addr_b),
        )
    }

    fn eventually(mut f: impl FnMut() -> bool) -> bool {
        for _ in 0..200 {
            if f() {
                return true;
            }
            machsim::wall::sleep(Duration::from_millis(10));
        }
        false
    }

    #[test]
    fn both_clients_read_the_same_page() {
        let (_f, (_ha, _ka, ta), (_hb, _kb, tb), server, (aa, ab)) = setup(4 * PAGE);
        let mut buf = [0u8; 4];
        ta.read_memory(aa, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 4]);
        tb.read_memory(ab, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 4]);
        let (inv, dem) = server.coherence_counters();
        assert_eq!((inv, dem), (0, 0), "pure reading causes no invalidations");
    }

    #[test]
    fn write_fault_invalidates_readers_and_propagates() {
        let (_f, (_ha, _ka, ta), (_hb, _kb, tb), server, (aa, ab)) = setup(4 * PAGE);
        let mut buf = [0u8; 5];
        // Both read the first page (read-locked, two readers).
        ta.read_memory(aa, &mut buf).unwrap();
        tb.read_memory(ab, &mut buf).unwrap();
        // A writes: kernel A sends data_unlock; the server flushes B and
        // grants A write access.
        ta.write_memory(aa, b"hello").unwrap();
        let (inv, _dem) = server.coherence_counters();
        assert!(inv >= 1, "B was invalidated");
        // B reads again: the server demotes A (flush) and serves B the
        // fresh data once A's page comes home.
        assert!(eventually(|| {
            let mut b = [0u8; 5];
            tb.read_memory(ab, &mut b).is_ok() && &b == b"hello"
        }));
        let (_inv, dem) = server.coherence_counters();
        assert!(dem >= 1, "writer demoted to reader");
        assert_eq!(server.master_copy(0, 5), b"hello");
    }

    #[test]
    fn ping_pong_alternating_writers() {
        let (_f, (_ha, _ka, ta), (_hb, _kb, tb), _server, (aa, ab)) = setup(4 * PAGE);
        for round in 0..5u8 {
            ta.write_memory(aa, &[round * 2]).unwrap();
            assert!(eventually(|| {
                let mut b = [0u8; 1];
                tb.read_memory(ab, &mut b).is_ok() && b[0] == round * 2
            }));
            tb.write_memory(ab, &[round * 2 + 1]).unwrap();
            assert!(eventually(|| {
                let mut b = [0u8; 1];
                ta.read_memory(aa, &mut b).is_ok() && b[0] == round * 2 + 1
            }));
        }
    }

    #[test]
    fn different_pages_do_not_interfere() {
        let (_f, (_ha, _ka, ta), (_hb, _kb, tb), server, (aa, ab)) = setup(4 * PAGE);
        ta.write_memory(aa, &[1]).unwrap();
        tb.write_memory(ab + PAGE, &[2]).unwrap();
        let (inv, _) = server.coherence_counters();
        assert_eq!(
            inv, 0,
            "writes to different pages cause no coherence traffic"
        );
    }

    /// Builds a single-kernel, single-client setup with a given policy.
    fn one_client(policy: GrantPolicy) -> (Arc<SharedMemoryServer>, Arc<Task>, u64) {
        let fabric = Fabric::new();
        let hs = fabric.add_host("server");
        let ha = fabric.add_host("alpha");
        let ka = Kernel::boot_on(ha.machine().clone(), KernelConfig::default());
        let ta = Task::create(&ka, "solo");
        let server = SharedMemoryServer::start_with_policy(&fabric, &hs, 2 * PAGE, policy);
        let addr = server.attach(&ta, &ha).unwrap();
        std::mem::forget(ka);
        (server, ta, addr)
    }

    #[test]
    fn write_first_policy_skips_unlock_negotiation() {
        // Footnote 9: granting the sole client write access up front saves
        // the data_unlock round trip the ReadLocked policy pays.
        let (server_rl, task_rl, addr_rl) = one_client(GrantPolicy::ReadLocked);
        let mut b = [0u8; 1];
        task_rl.read_memory(addr_rl, &mut b).unwrap();
        task_rl.write_memory(addr_rl, &[1]).unwrap();
        assert!(server_rl.unlock_negotiations() >= 1);

        let (server_wf, task_wf, addr_wf) = one_client(GrantPolicy::WriteFirst);
        task_wf.read_memory(addr_wf, &mut b).unwrap();
        task_wf.write_memory(addr_wf, &[1]).unwrap();
        assert_eq!(server_wf.unlock_negotiations(), 0);
    }

    #[test]
    fn write_first_is_revoked_when_second_client_reads() {
        let fabric = Fabric::new();
        let hs = fabric.add_host("server");
        let ha = fabric.add_host("alpha");
        let hb = fabric.add_host("beta");
        let ka = Kernel::boot_on(ha.machine().clone(), KernelConfig::default());
        let kb = Kernel::boot_on(hb.machine().clone(), KernelConfig::default());
        let ta = Task::create(&ka, "a");
        let tb = Task::create(&kb, "b");
        let server =
            SharedMemoryServer::start_with_policy(&fabric, &hs, 2 * PAGE, GrantPolicy::WriteFirst);
        let aa = server.attach(&ta, &ha).unwrap();
        let ab = server.attach(&tb, &hb).unwrap();
        // A reads: optimistically granted write access, then writes freely.
        let mut b = [0u8; 1];
        ta.read_memory(aa, &mut b).unwrap();
        ta.write_memory(aa, &[0x77]).unwrap();
        assert_eq!(server.unlock_negotiations(), 0);
        // B shows up: A is revoked (demoted), B sees the data.
        assert!(eventually(|| {
            let mut bb = [0u8; 1];
            tb.read_memory(ab, &mut bb).is_ok() && bb[0] == 0x77
        }));
        let (_inv, dem) = server.coherence_counters();
        assert!(dem >= 1, "optimistic writer was demoted");
    }

    #[test]
    fn three_clients_converge_on_one_page() {
        let fabric = Fabric::new();
        let hs = fabric.add_host("server");
        let hosts: Vec<_> = (0..3).map(|i| fabric.add_host(&format!("h{i}"))).collect();
        let kernels: Vec<_> = hosts
            .iter()
            .map(|h| Kernel::boot_on(h.machine().clone(), KernelConfig::default()))
            .collect();
        let tasks: Vec<_> = kernels
            .iter()
            .enumerate()
            .map(|(i, k)| Task::create(k, &format!("t{i}")))
            .collect();
        let server = SharedMemoryServer::start(&fabric, &hs, 2 * PAGE);
        let addrs: Vec<u64> = tasks
            .iter()
            .zip(hosts.iter())
            .map(|(t, h)| server.attach(t, h).unwrap())
            .collect();
        // Each client writes in turn; all three must observe each value.
        for (round, writer) in [(1u8, 0usize), (2, 1), (3, 2)] {
            tasks[writer].write_memory(addrs[writer], &[round]).unwrap();
            for (t, &a) in tasks.iter().zip(addrs.iter()) {
                assert!(
                    eventually(|| {
                        let mut bb = [0u8; 1];
                        t.read_memory(a, &mut bb).is_ok() && bb[0] == round
                    }),
                    "client failed to observe round {round}"
                );
            }
        }
    }

    #[test]
    fn remote_traffic_is_charged_to_the_network() {
        let (_f, (ha, _ka, ta), _b, _server, (aa, _ab)) = setup(4 * PAGE);
        let before = ha.machine().stats.get(keys::NET_MESSAGES);
        let mut buf = [0u8; 1];
        ta.read_memory(aa, &mut buf).unwrap();
        assert!(
            ha.machine().stats.get(keys::NET_MESSAGES) > before,
            "page fetch crossed the network"
        );
    }

    #[test]
    fn locality_determines_coherence_traffic() {
        // The Li result the paper cites: efficiency "depends on the extent
        // to which they exhibit read/write locality". Partitioned pages:
        // no traffic; contended page: traffic per alternation.
        let (_f, a, b, server, (aa, ab)) = setup(8 * PAGE);
        let (_, _, ta) = a;
        let (_, _, tb) = b;
        // Phase 1: disjoint working sets.
        for i in 0..4u64 {
            ta.write_memory(aa + i * PAGE, &[1]).unwrap();
            tb.write_memory(ab + (4 + i) * PAGE, &[2]).unwrap();
        }
        let (inv_disjoint, _) = server.coherence_counters();
        assert_eq!(inv_disjoint, 0);
        // Phase 2: shared hot page.
        for round in 0..4u8 {
            ta.write_memory(aa, &[round]).unwrap();
            assert!(eventually(|| {
                let mut bb = [0u8; 1];
                tb.read_memory(ab, &mut bb).is_ok() && bb[0] == round
            }));
        }
        let (inv_contended, _) = server.coherence_counters();
        assert!(
            inv_contended >= 3,
            "contention produced invalidations: {inv_contended}"
        );
    }

    #[test]
    fn directory_serves_the_same_region_to_both_clients() {
        // The paper's opening flow: client one requests a region by name
        // (created), client two — on a different host — requests the same
        // name and receives the same memory object X.
        let fabric = Fabric::new();
        let hs = fabric.add_host("server");
        let ha = fabric.add_host("alpha");
        let hb = fabric.add_host("beta");
        let ka = Kernel::boot_on(ha.machine().clone(), KernelConfig::default());
        let kb = Kernel::boot_on(hb.machine().clone(), KernelConfig::default());
        let ta = Task::create(&ka, "one");
        let tb = Task::create(&kb, "two");
        let dir = ShmDirectory::start(&fabric, &hs, GrantPolicy::ReadLocked);
        let (aa, size_a) =
            ShmDirectory::request(&fabric, dir.port(), &hs, &ha, &ta, "blackboard", 4 * PAGE)
                .unwrap();
        let (ab, size_b) =
            ShmDirectory::request(&fabric, dir.port(), &hs, &hb, &tb, "blackboard", 4 * PAGE)
                .unwrap();
        assert_eq!(size_a, 4 * PAGE);
        assert_eq!(size_b, 4 * PAGE);
        // Same region: a write by one is (eventually) read by the other.
        ta.write_memory(aa, b"shared by name").unwrap();
        assert!(eventually(|| {
            let mut b = [0u8; 14];
            tb.read_memory(ab, &mut b).is_ok() && &b == b"shared by name"
        }));
    }

    #[test]
    fn directory_isolates_different_names() {
        let fabric = Fabric::new();
        let hs = fabric.add_host("server");
        let ha = fabric.add_host("alpha");
        let ka = Kernel::boot_on(ha.machine().clone(), KernelConfig::default());
        let t = Task::create(&ka, "t");
        let dir = ShmDirectory::start(&fabric, &hs, GrantPolicy::ReadLocked);
        let (a1, _) =
            ShmDirectory::request(&fabric, dir.port(), &hs, &ha, &t, "one", 2 * PAGE).unwrap();
        let (a2, _) =
            ShmDirectory::request(&fabric, dir.port(), &hs, &ha, &t, "two", 2 * PAGE).unwrap();
        t.write_memory(a1, &[0xAA]).unwrap();
        // Region "two" is untouched.
        let mut b = [0u8; 1];
        t.read_memory(a2, &mut b).unwrap();
        assert_eq!(b[0], 0);
    }

    #[test]
    fn fault_right_after_directory_request_is_answered() {
        // Regression: `request` used to return as soon as the region was
        // mapped, so this fault could reach the server before the
        // kernel's `pager_init`, find no session and wait forever. The
        // timeout turns that hang into a failure.
        let fabric = Fabric::new();
        let hs = fabric.add_host("server");
        let ha = fabric.add_host("alpha");
        let config = KernelConfig {
            fault_policy: machvm::FaultPolicy {
                pager_timeout: Some(Duration::from_secs(5)),
                ..machvm::FaultPolicy::default()
            },
            ..KernelConfig::default()
        };
        let ka = Kernel::boot_on(ha.machine().clone(), config);
        let t = Task::create(&ka, "t");
        let dir = ShmDirectory::start(&fabric, &hs, GrantPolicy::ReadLocked);
        for i in 0..200 {
            let name = format!("region-{i}");
            let (addr, _) = ShmDirectory::request(&fabric, dir.port(), &hs, &ha, &t, &name, PAGE)
                .expect("the directory maps a fresh region");
            let mut b = [0xFFu8; 1];
            t.read_memory(addr, &mut b)
                .expect("the first fault on a fresh region is answered");
            assert_eq!(b[0], 0, "region {i} starts zeroed");
        }
    }
}
