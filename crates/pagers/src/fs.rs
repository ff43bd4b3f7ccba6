//! The minimal filesystem data manager of Section 4.1.
//!
//! "An example of a service which minimally uses the Mach external
//! interface is a filesystem server which provides read-whole-file /
//! write-whole-file functionality." A client's `fs_read_file` returns *new
//! virtual memory*: the server creates a memory object for the file and
//! the client maps it copy-on-write, so "other applications will
//! consistently see the original file contents while the random changes
//! are being made."
//!
//! Beyond the paper's minimal example, the server also supports shared
//! read/write mappings (`open_mapped`) and sync — the building blocks the
//! Section 8.1 UNIX emulation needs — and advises `pager_cache` so file
//! pages stay in the VM cache between opens. That advice is the entire
//! mechanism behind Section 9's performance claims.
//!
//! The server is one task on one thread, a [`ManagerTask`]: its request
//! port and every open file's memory object port are one port group, and
//! each file's pager is a [`DataManager`] that thread owns. So `FS_SYNC`
//! writes the files back on the thread that answers it: each
//! `pager_clean_request`, applied by a local kernel on the sender's
//! thread, queues its `pager_data_write`s on a port this thread takes
//! from before it replies. A kernel behind a network proxy applies the
//! clean later, and its writes are served when they arrive.

use machcore::proto::Malformed;
use machcore::{DataManager, KernelConn, ManagerTask, Task};
use machipc::{IpcError, OolBuffer, PortName, SendRight, Server, RPC_TIMEOUT};
use machsim::{EventKind, Machine};
use machstorage::{FlatFs, FsError};
use machvm::{VmError, VmProt};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Generic success reply.
pub const FS_OK: u32 = 0x4180;
/// Generic failure reply.
pub const FS_ERR: u32 = 0x4181;

machcore::protocol! {
    /// Requests to the file server, each naming a file (UTF-8).
    #[derive(Debug)]
    pub enum FsRequest {
        /// `fs_read_file`: a copy-on-write mapping of the whole file.
        ReadFile(name: String) = FS_READ_FILE: 0x4101,
        /// `fs_write_file(name, data)`: `data` replaces the file's prefix.
        WriteFile(name: String, data: OolBuffer) = FS_WRITE_FILE: 0x4102,
        /// Create an empty file.
        Create(name: String) = FS_CREATE: 0x4103,
        /// The file's memory object, for a shared mapping.
        OpenMapped(name: String) = FS_OPEN_MAPPED: 0x4104,
        /// Write the named files' cached modifications back. From a local
        /// kernel they are in the files when the server answers.
        Sync(names: Vec<String>) = FS_SYNC: 0x4105,
        /// The file's size.
        Stat(name: String) = FS_STAT: 0x4106,
    }
}

machcore::protocol! {
    /// The file server's answers.
    #[derive(Debug)]
    pub enum FsReply {
        /// `(size, object)`: the file's memory object (read, open).
        Object(size: u64, object: SendRight) = FS_OK,
        /// The file's size (stat).
        Size(size: u64) = FS_OK,
        /// Done (create, write, sync).
        Done = FS_OK,
        /// The request failed, or was malformed.
        Failed = FS_ERR,
    }
}

/// The pager of one file's memory object.
struct FilePager {
    fs: Arc<FlatFs>,
    name: String,
    /// Kernel connections that mapped this file, with the object id each
    /// kernel assigned.
    conns: Vec<(KernelConn, u64)>,
    /// File size when the memory object was created.
    size: u64,
}

impl DataManager for FilePager {
    fn init(&mut self, kernel: &KernelConn, object: u64) {
        // Keep file pages cached after the last unmap: this is the "bulk
        // of physical memory as a cache of secondary storage" behaviour.
        kernel.cache(object, true);
        self.conns.push((kernel.clone(), object));
    }

    fn data_request(
        &mut self,
        kernel: &KernelConn,
        object: u64,
        offset: u64,
        length: u64,
        _access: VmProt,
    ) {
        let size = self.fs.size(&self.name).unwrap_or(0) as u64;
        if offset >= size {
            // Beyond EOF: zero-filled.
            kernel
                .machine()
                .trace_event("pager.fs", EventKind::Mark("fs_eof_unavailable"));
            kernel.data_unavailable(object, offset, length);
            return;
        }
        // Read whole pages; the tail past EOF is zero-padded.
        kernel
            .machine()
            .trace_event("pager.fs", EventKind::Mark("fs_file_read"));
        let mut data = vec![0u8; length as usize];
        let n = ((size - offset) as usize).min(length as usize);
        if self
            .fs
            .read(&self.name, offset as usize, &mut data[..n])
            .is_err()
        {
            kernel.data_unavailable(object, offset, length);
            return;
        }
        kernel.data_provided(object, offset, OolBuffer::from_vec(data), VmProt::NONE);
    }

    fn data_write(&mut self, kernel: &KernelConn, object: u64, offset: u64, data: OolBuffer) {
        // Writes from shared mappings come home here, a page at a time;
        // clamp to file size so the zero tail of the last page does not
        // extend the file.
        let size = self.fs.size(&self.name).unwrap_or(0);
        let n = data.len().min(size.saturating_sub(offset as usize));
        let _ = self
            .fs
            .write(&self.name, offset as usize, &data.as_slice()[..n]);
        kernel.release_laundry(object, data.len() as u64);
    }

    fn kernel_detached(&mut self, _port: u64) {
        // §4.1 port_death: release per-kernel resources.
        self.conns.clear();
    }
}

/// The filesystem server task.
pub struct FileServer {
    fs: Arc<FlatFs>,
    server: Server,
}

impl fmt::Debug for FileServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FileServer({:?})", self.fs)
    }
}

/// The server's own state beside its task's: the memory object port of
/// each open file.
struct Files {
    fs: Arc<FlatFs>,
    names: HashMap<String, PortName>,
}

impl Files {
    /// Performs one request; one with nothing to return answers `Done`.
    fn perform(
        &mut self,
        task: &mut ManagerTask<FilePager>,
        request: FsRequest,
    ) -> Result<FsReply, FsError> {
        match request {
            FsRequest::Create(name) => self.fs.create(&name)?,
            FsRequest::ReadFile(name) | FsRequest::OpenMapped(name) => {
                let size = self.fs.size(&name)? as u64;
                if let Some((port, pager)) = self.names.get(&name).and_then(|&o| task.object(o)) {
                    return Ok(FsReply::Object(pager.size.max(size), port.clone()));
                }
                let (object, port) = task.back(FilePager {
                    fs: self.fs.clone(),
                    name: name.clone(),
                    conns: Vec::new(),
                    size,
                });
                self.names.insert(name, object);
                return Ok(FsReply::Object(size, port));
            }
            FsRequest::WriteFile(name, data) => {
                self.fs.size(&name)?; // Writes do not create files.
                self.fs.write(&name, 0, data.as_slice())?
            }
            FsRequest::Sync(names) => {
                for object in names.iter().filter_map(|name| self.names.get(name)) {
                    for (conn, id) in task.object(*object).map_or(&[][..], |(_, p)| &p.conns) {
                        conn.clean_request(*id, 0, u64::MAX / 2);
                    }
                    // A local kernel applied each clean on this thread,
                    // queueing its `pager_data_write`s on the file's port:
                    // written here, they are in the file when `Done` goes.
                    task.drain(*object);
                }
            }
            FsRequest::Stat(name) => return Ok(FsReply::Size(self.fs.size(&name)? as u64)),
        }
        Ok(FsReply::Done)
    }
}

impl FileServer {
    /// Starts a filesystem server over `fs`: one task, one thread.
    pub fn start(machine: &Machine, fs: Arc<FlatFs>) -> Arc<FileServer> {
        let names = HashMap::new();
        let mut files = Files {
            fs: fs.clone(),
            names,
        };
        let server = ManagerTask::new(machine).serve("file-server", move |task, msg| {
            let reply = FsRequest::decode(msg).map(|request| files.perform(task, request));
            Some(
                reply
                    .ok()
                    .and_then(Result::ok)
                    .unwrap_or(FsReply::Failed)
                    .encode(),
            )
        });
        Arc::new(FileServer { fs, server })
    }

    /// The server's request port.
    pub fn port(&self) -> &SendRight {
        self.server.port()
    }

    /// The backing filesystem (for tests and tooling).
    pub fn fs(&self) -> &Arc<FlatFs> {
        &self.fs
    }
}

/// Client-side errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsClientError {
    /// The RPC failed.
    Ipc(IpcError),
    /// The server reported failure.
    Server,
    /// Mapping the returned object failed.
    Vm(VmError),
}

impl fmt::Display for FsClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsClientError::Ipc(e) => write!(f, "rpc failed: {e}"),
            FsClientError::Server => f.write_str("server error"),
            FsClientError::Vm(e) => write!(f, "mapping failed: {e}"),
        }
    }
}

impl std::error::Error for FsClientError {}

impl From<IpcError> for FsClientError {
    fn from(e: IpcError) -> Self {
        FsClientError::Ipc(e)
    }
}

impl From<VmError> for FsClientError {
    fn from(e: VmError) -> Self {
        FsClientError::Vm(e)
    }
}

/// Client library for the filesystem server (the `fs_read_file` /
/// `fs_write_file` calls of Section 4.1).
pub struct FsClient {
    server: SendRight,
}

impl FsClient {
    /// Binds a client to a server port.
    pub fn new(server: SendRight) -> Self {
        Self { server }
    }

    /// Performs `request`; a failure, or a reply that is not the file
    /// server's, is `Server`.
    fn rpc(&self, request: FsRequest) -> Result<FsReply, FsClientError> {
        let reply = self
            .server
            .rpc(request.encode(), RPC_TIMEOUT, RPC_TIMEOUT)?;
        match FsReply::decode(reply) {
            Ok(FsReply::Failed) | Err(Malformed) => Err(FsClientError::Server),
            Ok(reply) => Ok(reply),
        }
    }

    /// Creates an empty file.
    pub fn create(&self, name: &str) -> Result<(), FsClientError> {
        self.rpc(FsRequest::Create(name.to_string())).map(drop)
    }

    /// `fs_read_file`: maps the file copy-on-write into `task`; returns
    /// `(address, size)`. "This memory is copy-on-write in the
    /// application's address space."
    pub fn read_file(&self, task: &Task, name: &str) -> Result<(u64, u64), FsClientError> {
        let request = FsRequest::ReadFile(name.to_string());
        let FsReply::Object(size, object) = self.rpc(request)? else {
            return Err(FsClientError::Server);
        };
        let address = task.map_object_copy(None, size.max(1), &object, 0)?;
        Ok((address, size))
    }

    /// Maps the file shared read/write into `task` (writes flow back to
    /// the file via `pager_data_write`); returns `(address, size)`.
    pub fn open_mapped(&self, task: &Task, name: &str) -> Result<(u64, u64), FsClientError> {
        let request = FsRequest::OpenMapped(name.to_string());
        let FsReply::Object(size, object) = self.rpc(request)? else {
            return Err(FsClientError::Server);
        };
        let address = task.vm_allocate_with_pager(None, size.max(1), &object, 0)?;
        Ok((address, size))
    }

    /// `fs_write_file`: replaces the file's prefix with `data`.
    pub fn write_file(&self, name: &str, data: &[u8]) -> Result<(), FsClientError> {
        let data = OolBuffer::from_slice(data);
        self.rpc(FsRequest::WriteFile(name.to_string(), data))
            .map(drop)
    }

    /// Writes the cached modifications of every named file back to the
    /// server, in one request: they are in the files when this returns,
    /// whether the kernel that holds them is on the server's host or
    /// behind a network proxy.
    pub fn sync(
        &self,
        names: impl IntoIterator<Item = impl AsRef<str>>,
    ) -> Result<(), FsClientError> {
        let names = names.into_iter().map(|n| n.as_ref().to_string()).collect();
        self.rpc(FsRequest::Sync(names)).map(drop)
    }

    /// Returns the file's current size.
    pub fn stat(&self, name: &str) -> Result<u64, FsClientError> {
        match self.rpc(FsRequest::Stat(name.to_string()))? {
            FsReply::Size(size) => Ok(size),
            _ => Err(FsClientError::Server),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use machcore::{Kernel, KernelConfig};
    use machipc::{Message, MsgItem, ReceiveRight};
    use machstorage::BlockDevice;

    fn setup() -> (Arc<Kernel>, Arc<FileServer>, FsClient) {
        let k = Kernel::boot(KernelConfig::default());
        let dev = Arc::new(BlockDevice::new(k.machine(), 256));
        let fs = Arc::new(FlatFs::format(dev, 0));
        let server = FileServer::start(k.machine(), fs);
        let client = FsClient::new(server.port().clone());
        (k, server, client)
    }

    #[test]
    fn read_whole_file_through_mapping() {
        let (k, server, client) = setup();
        server.fs().create("hello.txt").unwrap();
        server
            .fs()
            .write("hello.txt", 0, b"hello mapped world")
            .unwrap();
        let task = Task::create(&k, "app");
        let (addr, size) = client.read_file(&task, "hello.txt").unwrap();
        assert_eq!(size, 18);
        let mut buf = vec![0u8; size as usize];
        task.read_memory(addr, &mut buf).unwrap();
        assert_eq!(&buf, b"hello mapped world");
    }

    #[test]
    fn cow_read_gives_consistent_view_to_others() {
        // The §4.1 scenario: one client randomly mutates its copy while
        // another consistently sees the original contents.
        let (k, server, client) = setup();
        server.fs().create("f").unwrap();
        server.fs().write("f", 0, &vec![7u8; 8192]).unwrap();
        let mutator = Task::create(&k, "mutator");
        let reader = Task::create(&k, "reader");
        let (maddr, _) = client.read_file(&mutator, "f").unwrap();
        mutator.write_memory(maddr + 100, &[0xFF; 32]).unwrap();
        let (raddr, _) = client.read_file(&reader, "f").unwrap();
        let mut b = [0u8; 32];
        reader.read_memory(raddr + 100, &mut b).unwrap();
        assert_eq!(b, [7u8; 32], "reader sees original file contents");
        // And the file itself is untouched.
        assert_eq!(server.fs().read_all("f").unwrap(), vec![7u8; 8192]);
    }

    #[test]
    fn explicit_write_back() {
        let (k, server, client) = setup();
        client.create("out").unwrap();
        client.write_file("out", b"stored via message").unwrap();
        assert_eq!(server.fs().read_all("out").unwrap(), b"stored via message");
        // Round-trip through a fresh mapping.
        let task = Task::create(&k, "t");
        let (addr, size) = client.read_file(&task, "out").unwrap();
        let mut buf = vec![0u8; size as usize];
        task.read_memory(addr, &mut buf).unwrap();
        assert_eq!(&buf, b"stored via message");
    }

    #[test]
    fn second_open_hits_vm_cache() {
        let (k, server, client) = setup();
        server.fs().create("hot").unwrap();
        server.fs().write("hot", 0, &vec![1u8; 16384]).unwrap();
        let t1 = Task::create(&k, "t1");
        let (a1, s1) = client.read_file(&t1, "hot").unwrap();
        let mut buf = vec![0u8; s1 as usize];
        t1.read_memory(a1, &mut buf).unwrap();
        let disk_reads_after_first = k.machine().stats.get(machsim::stats::keys::DISK_READS);
        t1.vm_deallocate(a1, s1).unwrap();
        // A different task re-reads: all pages must come from the cache.
        let t2 = Task::create(&k, "t2");
        let (a2, s2) = client.read_file(&t2, "hot").unwrap();
        t2.read_memory(a2, &mut buf).unwrap();
        assert_eq!(s2, s1);
        assert!(buf.iter().all(|&b| b == 1));
        assert_eq!(
            k.machine().stats.get(machsim::stats::keys::DISK_READS),
            disk_reads_after_first,
            "no disk I/O on the warm open"
        );
    }

    #[test]
    fn shared_mapping_writes_reach_the_file_on_sync() {
        let (k, server, client) = setup();
        server.fs().create("db").unwrap();
        server.fs().write("db", 0, &vec![0u8; 4096]).unwrap();
        let task = Task::create(&k, "writer");
        let (addr, _) = client.open_mapped(&task, "db").unwrap();
        task.write_memory(addr, b"dirty page").unwrap();
        client.sync(["db"]).unwrap();
        let contents = server.fs().read_all("db").unwrap();
        assert_eq!(&contents[..10], b"dirty page");
    }

    #[test]
    fn one_sync_writes_every_named_file_before_it_answers() {
        let (k, server, client) = setup();
        let task = Task::create(&k, "writer");
        let names = ["a", "b", "c"];
        for name in names {
            client.create(name).expect("create");
            client.write_file(name, &[0; 4096]).expect("size the file");
            let (addr, _) = client.open_mapped(&task, name).expect("open_mapped");
            task.write_memory(addr, name.as_bytes())
                .expect("write through the mapping");
        }
        client.sync(names).expect("sync");
        for name in names {
            let contents = server.fs().read_all(name).expect("read");
            assert_eq!(&contents[..1], name.as_bytes(), "{name} is on disk");
        }
        // A name the server never opened has nothing cached to write.
        client.sync(["never-opened"]).expect("sync");
    }

    #[test]
    fn a_write_back_does_not_grow_the_file_to_a_page() {
        let (k, server, client) = setup();
        server.fs().create("short").expect("create");
        server.fs().write("short", 0, &[b'.'; 100]).expect("write");
        let task = Task::create(&k, "writer");
        let (addr, size) = client.open_mapped(&task, "short").expect("open_mapped");
        assert_eq!(size, 100);
        task.write_memory(addr, b"hello")
            .expect("write through the mapping");
        client.sync(["short"]).expect("sync");
        assert_eq!(client.stat("short").expect("stat"), 100);
        let mut expected = b"hello".to_vec();
        expected.resize(100, b'.');
        assert_eq!(server.fs().read_all("short").expect("read"), expected);
    }

    #[test]
    fn missing_file_reports_server_error() {
        let (k, _server, client) = setup();
        let task = Task::create(&k, "t");
        assert_eq!(
            client.read_file(&task, "nope").unwrap_err(),
            FsClientError::Server
        );
        assert_eq!(client.stat("nope").unwrap_err(), FsClientError::Server);
    }

    #[test]
    fn a_name_that_is_not_utf8_is_an_error_not_a_file() {
        let (_k, server, _client) = setup();
        // Both would be "\u{FFFD}" if decoded lossily: one file, two names.
        for name in [vec![0xFF], vec![0xFE]] {
            let create = Message::new(FS_CREATE).with(MsgItem::bytes(name));
            let reply = server.port().rpc(create, RPC_TIMEOUT, RPC_TIMEOUT);
            assert_eq!(reply.expect("the server answers").id, FS_ERR);
        }
        assert!(!server.fs().exists("\u{FFFD}"));
    }

    /// A port that answers each of `n` requests with a bare `id`.
    pub(crate) fn bare_server(machine: &Machine, id: u32, n: usize) -> SendRight {
        let (rx, tx) = ReceiveRight::allocate(machine);
        std::thread::spawn(move || {
            for _ in 0..n {
                let Ok(msg) = rx.receive(RPC_TIMEOUT) else {
                    return;
                };
                if let Some(reply) = msg.reply {
                    let _ = reply.send(Message::new(id), None);
                }
            }
        });
        tx
    }

    #[test]
    fn an_ok_with_no_body_is_a_server_error_not_a_panic() {
        let k = Kernel::boot(KernelConfig::default());
        let task = Task::create(&k, "client");
        let client = FsClient::new(bare_server(k.machine(), FS_OK, 3));
        let server_error = Err(FsClientError::Server);
        assert_eq!(client.read_file(&task, "f"), server_error);
        assert_eq!(client.open_mapped(&task, "f"), server_error);
        assert_eq!(client.stat("f").map(|_| (0, 0)), server_error);
    }

    #[test]
    fn stat_matches_size() {
        let (_k, server, client) = setup();
        server.fs().create("s").unwrap();
        server.fs().write("s", 0, &vec![0u8; 1234]).unwrap();
        assert_eq!(client.stat("s").unwrap(), 1234);
    }
}
