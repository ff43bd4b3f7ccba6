//! Mapped-file UNIX emulation (Section 8.1).
//!
//! `open` maps the file into the emulation task's address space through
//! the filesystem server's external pager; `read` and `write` "operate
//! directly on virtual memory". There is no fixed-size file cache: file
//! pages live in the machine-wide VM cache and compete for the *bulk* of
//! physical memory, and because the file pager advises `pager_cache`,
//! they survive close/open cycles. That difference in cache size — 10% vs
//! everything — is the entire mechanism behind the paper's 2x compilation
//! and 10x I/O-operation results.

use crate::{Fd, UnixError, UnixIo};
use machcore::Task;
use machpagers::{FsClient, FsClientError};
use machvm::VmProt;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

struct OpenFile {
    name: Arc<str>,
    addr: u64,
    size: usize,
}

/// Descriptors in one chunk of the table.
const CHUNK: usize = 64;
/// Chunks the table grows to: 4096 descriptors open at once.
const CHUNKS: usize = 64;
/// The first descriptor handed out; 0, 1 and 2 are UNIX's standard
/// input, output and error.
const FIRST_FD: u32 = 3;

/// One descriptor: the open file, or nothing. Each slot is alone on its
/// cache line (128 bytes: the pair of lines an x86 core prefetches
/// together). Its lock is taken by the threads using that descriptor and
/// by an `open` looking for a free slot, so threads reading through
/// different descriptors write no line in common.
#[repr(align(128))]
#[derive(Default)]
struct Slot(Mutex<Option<OpenFile>>);

/// The descriptor table: one slot per descriptor, in chunks published
/// once each (as a `Pmap`'s radix nodes are) and never moved, so a slot
/// is reached without a table-wide lock.
struct FdTable {
    chunks: [OnceLock<Box<[Slot; CHUNK]>>; CHUNKS],
}

impl FdTable {
    fn new() -> Self {
        Self {
            chunks: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// The slot of `fd`, if the table has grown to it.
    fn slot(&self, fd: Fd) -> Option<&Slot> {
        let index = fd.0.checked_sub(FIRST_FD)? as usize;
        self.chunks.get(index / CHUNK)?.get()?.get(index % CHUNK)
    }

    /// Puts `file` in the lowest free slot, as UNIX's `open` takes the
    /// lowest free descriptor, growing the table by a chunk when every
    /// slot is taken. `None` when all `CHUNKS` chunks are full.
    fn insert(&self, file: OpenFile) -> Option<Fd> {
        for (c, chunk) in self.chunks.iter().enumerate() {
            let slots = chunk.get_or_init(|| Box::new(std::array::from_fn(|_| Slot::default())));
            for (i, slot) in slots.iter().enumerate() {
                let mut open = slot.0.lock();
                if open.is_none() {
                    *open = Some(file);
                    return Some(Fd(FIRST_FD + (c * CHUNK + i) as u32));
                }
            }
        }
        None
    }
}

/// The mapped-file UNIX emulation.
pub struct MachUnix {
    task: Arc<Task>,
    client: FsClient,
    fds: FdTable,
    /// Mappings kept after close so re-opens reuse the same region
    /// (mirroring the VM cache persistence; the mapping itself is cheap):
    /// `(address, size the FS_OPEN_MAPPED reply carried)`. That size is
    /// the file's size as far as this library goes — `read`/`write` bound
    /// against it and `size_of` answers from it. Taken by `open` and
    /// `size_of`, never by `read` or `write`.
    cached_maps: Mutex<HashMap<Arc<str>, (u64, usize)>>,
    /// Files written through a descriptor since the last `sync_all` — the
    /// only ones whose pages can be dirty. Taken by `write` and
    /// `sync_all`, never by `read`.
    written: Mutex<BTreeSet<Arc<str>>>,
}

fn from_fs(e: FsClientError) -> UnixError {
    UnixError::Substrate(e.to_string())
}

impl MachUnix {
    /// Creates the emulation library inside `task`, speaking to a
    /// filesystem server through `client`.
    pub fn new(task: &Arc<Task>, client: FsClient) -> Self {
        Self {
            task: task.clone(),
            client,
            fds: FdTable::new(),
            cached_maps: Mutex::new(HashMap::new()),
            written: Mutex::new(BTreeSet::new()),
        }
    }

    /// Runs `f` on `fd`'s open file under its slot's lock.
    fn with_open<R>(&self, fd: Fd, f: impl FnOnce(&OpenFile) -> R) -> Result<R, UnixError> {
        let slot = self.fds.slot(fd).ok_or(UnixError::BadFd)?;
        let open = slot.0.lock();
        open.as_ref().map(f).ok_or(UnixError::BadFd)
    }

    /// Hands the range's absent pages to the continuation-based fault
    /// engine before the copy loop touches them: each absent run of a
    /// cold sequential read is one fault — one request, one park — instead
    /// of a fault per page, and a warm range costs only pmap probes.
    /// Errors are deliberately dropped: the copy loop right behind this
    /// call faults the same pages synchronously and reports them properly.
    fn fault_ahead(&self, addr: u64, len: usize, access: VmProt) {
        let _ = self.task.map().fault_ahead(addr, len as u64, access);
    }
}

impl UnixIo for MachUnix {
    fn create(&self, name: &str, size: usize) -> Result<(), UnixError> {
        self.client.create(name).map_err(from_fs)?;
        if size > 0 {
            self.client
                .write_file(name, &vec![0u8; size])
                .map_err(from_fs)?;
        }
        Ok(())
    }

    fn open(&self, name: &str) -> Result<Fd, UnixError> {
        self.task
            .machine()
            .clock
            .charge(self.task.machine().cost.syscall_ns);
        let cached = self
            .cached_maps
            .lock()
            .get_key_value(name)
            .map(|(n, &m)| (n.clone(), m));
        let (name, (addr, size)) = match cached {
            Some(cached) => cached,
            None => {
                // "An open call would result in the file being mapped into
                // memory."
                let (addr, size) = self.client.open_mapped(&self.task, name).map_err(from_fs)?;
                let name: Arc<str> = name.into();
                let map = (addr, size as usize);
                self.cached_maps.lock().insert(name.clone(), map);
                (name, map)
            }
        };
        self.fds
            .insert(OpenFile { name, addr, size })
            .ok_or_else(|| UnixError::Substrate("descriptor table full".into()))
    }

    fn read(&self, fd: Fd, offset: usize, buf: &mut [u8]) -> Result<(), UnixError> {
        let (addr, size) = self.with_open(fd, |f| (f.addr, f.size))?;
        if offset + buf.len() > size {
            return Err(UnixError::OutOfRange);
        }
        // "Subsequent read and write calls would operate directly on
        // virtual memory": no system call, no kernel/user copy.
        self.fault_ahead(addr + offset as u64, buf.len(), VmProt::READ);
        self.task
            .read_memory(addr + offset as u64, buf)
            .map_err(|e| UnixError::Substrate(e.to_string()))
    }

    fn write(&self, fd: Fd, offset: usize, data: &[u8]) -> Result<(), UnixError> {
        let (name, addr, size) = self.with_open(fd, |f| (f.name.clone(), f.addr, f.size))?;
        if offset + data.len() > size {
            return Err(UnixError::OutOfRange);
        }
        self.written.lock().insert(name);
        self.fault_ahead(addr + offset as u64, data.len(), VmProt::WRITE);
        self.task
            .write_memory(addr + offset as u64, data)
            .map_err(|e| UnixError::Substrate(e.to_string()))
    }

    fn close(&self, fd: Fd) -> Result<(), UnixError> {
        // The mapping stays (cached_maps); dirty pages stay in the VM
        // cache and reach the server on eviction or sync.
        let slot = self.fds.slot(fd).ok_or(UnixError::BadFd)?;
        let closed = slot.0.lock().take();
        closed.map(drop).ok_or(UnixError::BadFd)
    }

    /// One `FS_SYNC` naming every file written since the last call. The
    /// file server answers it once the kernel's `pager_data_write`s for
    /// those files are in the filesystem, so the write-back is done when
    /// this returns, and the next build dirties pages that are clean.
    fn sync_all(&self) -> Result<(), UnixError> {
        // A file only ever read has nothing to clean.
        let names = std::mem::take(&mut *self.written.lock());
        if names.is_empty() {
            return Ok(());
        }
        self.client.sync(&names).map_err(|e| {
            // Still unsynced.
            self.written.lock().extend(names);
            from_fs(e)
        })
    }

    /// Answered from the mapping once the file has been opened: what the
    /// library knows from its own address space it does not cross a
    /// protection boundary to ask, and `read` can reach exactly the size
    /// reported here. Only a name never opened costs an `FS_STAT`.
    fn size_of(&self, name: &str) -> Result<usize, UnixError> {
        if let Some(&(_, size)) = self.cached_maps.lock().get(name) {
            return Ok(size);
        }
        Ok(self.client.stat(name).map_err(from_fs)? as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machcore::{Kernel, KernelConfig};
    use machpagers::fs::{FsRequest, FS_STAT, FS_SYNC};
    use machpagers::FileServer;
    use machsim::stats::keys;
    use machstorage::{BlockDevice, FlatFs};

    fn setup() -> (Arc<Kernel>, Arc<FileServer>, MachUnix) {
        let k = Kernel::boot(KernelConfig::default());
        let dev = Arc::new(BlockDevice::new(k.machine(), 512));
        let fs = Arc::new(FlatFs::format(dev, 0));
        let server = FileServer::start(k.machine(), fs);
        let task = Task::create(&k, "unix-emul");
        let unix = MachUnix::new(&task, FsClient::new(server.port().clone()));
        (k, server, unix)
    }

    #[test]
    fn create_write_read_roundtrip() {
        let (_k, _s, u) = setup();
        u.create("f", 8192).unwrap();
        let fd = u.open("f").unwrap();
        u.write(fd, 100, b"mapped").unwrap();
        let mut b = [0u8; 6];
        u.read(fd, 100, &mut b).unwrap();
        assert_eq!(&b, b"mapped");
        u.close(fd).unwrap();
        assert_eq!(u.size_of("f").unwrap(), 8192);
    }

    #[test]
    fn reopen_after_close_needs_no_disk_io() {
        let (k, _s, u) = setup();
        u.create("hot", 16384).unwrap();
        let fd = u.open("hot").unwrap();
        let mut b = vec![0u8; 16384];
        u.read(fd, 0, &mut b).unwrap();
        u.close(fd).unwrap();
        let reads = k.machine().stats.get(keys::DISK_READS);
        // Close + reopen + full re-read: all from the VM cache.
        let fd2 = u.open("hot").unwrap();
        u.read(fd2, 0, &mut b).unwrap();
        assert_eq!(k.machine().stats.get(keys::DISK_READS), reads);
    }

    #[test]
    fn writes_survive_sync_to_server_fs() {
        let (_k, server, u) = setup();
        u.create("out", 4096).unwrap();
        let fd = u.open("out").unwrap();
        u.write(fd, 0, b"durable?").unwrap();
        u.close(fd).unwrap();
        u.sync_all().unwrap();
        assert_eq!(&server.fs().read_all("out").unwrap()[..8], b"durable?");
    }

    /// The names carried by each request a tap logged.
    type TapLog = Arc<Mutex<Vec<Vec<String>>>>;

    /// A `MachUnix` behind a tap in front of the file server: the tap
    /// logs the names carried by each request with id `logged` and
    /// forwards everything (the reply port rides along, so replies go
    /// direct). Returns the emulation, the log, and a closure that stops
    /// the tap.
    fn tapped(
        k: &Arc<Kernel>,
        server: &Arc<FileServer>,
        logged: u32,
    ) -> (MachUnix, TapLog, impl FnOnce()) {
        // No file-server id: what stops the tap.
        const TAP_STOP: u32 = u32::MAX;
        let (tap_rx, tap_tx) = machipc::ReceiveRight::allocate(k.machine());
        let log = Arc::new(Mutex::new(Vec::new()));
        let tap = {
            let (log, real) = (log.clone(), server.port().clone());
            std::thread::spawn(move || {
                while let Ok(mut msg) = tap_rx.receive(None) {
                    if msg.id == TAP_STOP {
                        break;
                    }
                    if msg.id == logged {
                        let reply = msg.reply.take();
                        let request = FsRequest::decode(msg).expect("a file server request");
                        log.lock().push(match &request {
                            FsRequest::Sync(names) => names.clone(),
                            FsRequest::Stat(name) => vec![name.clone()],
                            _ => Vec::new(),
                        });
                        msg = request.encode();
                        msg.reply = reply;
                    }
                    real.send(msg, None).expect("file server is up");
                }
            })
        };
        let u = MachUnix::new(&Task::create(k, "unix-emul"), FsClient::new(tap_tx.clone()));
        let stop = move || {
            tap_tx
                .send(machipc::Message::new(TAP_STOP), None)
                .expect("tap is up");
            tap.join().expect("tap thread");
        };
        (u, log, stop)
    }

    #[test]
    fn sync_all_syncs_only_what_was_written() -> Result<(), UnixError> {
        let (k, server, _) = setup();
        let (u, syncs, stop) = tapped(&k, &server, FS_SYNC);
        let names = ["a", "b", "c", "d"];
        for name in names {
            u.create(name, 4096)?;
        }
        let fds = names
            .iter()
            .map(|n| u.open(n))
            .collect::<Result<Vec<Fd>, _>>()?;
        let mut b = [0u8; 4];
        u.read(fds[0], 0, &mut b)?;
        u.write(fds[1], 0, b"dirt")?;
        u.read(fds[2], 0, &mut b)?;
        u.write(fds[3], 0, b"dirt")?;
        u.close(fds[1])?;
        u.sync_all()?;
        let written = [vec!["b".to_string(), "d".to_string()]];
        assert_eq!(*syncs.lock(), written, "one FS_SYNC naming b and d");
        // Nothing written since: nothing to sync.
        u.sync_all()?;
        assert_eq!(*syncs.lock(), written);
        stop();
        Ok(())
    }

    #[test]
    fn size_of_an_unopened_name_asks_the_server_once_then_never() -> Result<(), UnixError> {
        let (k, server, _) = setup();
        let (u, stats, stop) = tapped(&k, &server, FS_STAT);
        u.create("f", 8192)?;
        // First contact with the name: the library has no mapping to ask.
        assert_eq!(u.size_of("f")?, 8192);
        assert_eq!(stats.lock().len(), 1);
        // Open, in use, closed: the mapping answers every time.
        let fd = u.open("f")?;
        assert_eq!(u.size_of("f")?, 8192);
        u.write(fd, 0, b"x")?;
        u.close(fd)?;
        assert_eq!(u.size_of("f")?, 8192);
        u.sync_all()?;
        assert_eq!(u.size_of("f")?, 8192);
        assert_eq!(stats.lock().len(), 1);
        assert!(matches!(u.size_of("absent"), Err(UnixError::Substrate(_))));
        assert_eq!(
            *stats.lock(),
            [vec!["f".to_string()], vec!["absent".to_string()]]
        );
        stop();
        Ok(())
    }

    #[test]
    fn size_of_and_read_agree_on_an_open_file() -> Result<(), UnixError> {
        let (_k, server, u) = setup();
        u.create("f", 8192)?;
        let fd = u.open("f")?;
        // The file grows behind the library's back; its mapping does not.
        server
            .fs()
            .write("f", 8192, &[7u8; 4096])
            .expect("room to grow");
        assert_eq!(server.fs().size("f").expect("f exists"), 12288);
        // `read_whole`'s loop: whatever size is reported must be readable.
        let size = u.size_of("f")?;
        let mut buf = [0u8; 4096];
        for pos in (0..size).step_by(buf.len()) {
            let n = buf.len().min(size - pos);
            u.read(fd, pos, &mut buf[..n])?;
        }
        assert_eq!(size, 8192, "the size the open mapped");
        assert_eq!(
            u.read(fd, size, &mut buf[..1]).unwrap_err(),
            UnixError::OutOfRange
        );
        Ok(())
    }

    #[test]
    fn bounds_are_enforced() {
        let (_k, _s, u) = setup();
        u.create("f", 100).unwrap();
        let fd = u.open("f").unwrap();
        let mut b = [0u8; 200];
        assert_eq!(u.read(fd, 0, &mut b).unwrap_err(), UnixError::OutOfRange);
        assert_eq!(
            u.write(fd, 50, &[0u8; 60]).unwrap_err(),
            UnixError::OutOfRange
        );
    }

    #[test]
    fn a_closed_or_never_opened_descriptor_is_bad() -> Result<(), UnixError> {
        let (_k, _s, u) = setup();
        u.create("f", 4096)?;
        let mut b = [0u8; 1];
        for never in [Fd(0), Fd(2), Fd(FIRST_FD), Fd(FIRST_FD + 1), Fd(u32::MAX)] {
            assert_eq!(u.read(never, 0, &mut b), Err(UnixError::BadFd));
            assert_eq!(u.write(never, 0, b"x"), Err(UnixError::BadFd));
            assert_eq!(u.close(never), Err(UnixError::BadFd));
        }
        let fd = u.open("f")?;
        u.close(fd)?;
        assert_eq!(u.read(fd, 0, &mut b), Err(UnixError::BadFd));
        assert_eq!(u.write(fd, 0, b"x"), Err(UnixError::BadFd));
        assert_eq!(u.close(fd), Err(UnixError::BadFd));
        Ok(())
    }

    #[test]
    fn open_takes_the_lowest_free_descriptor() -> Result<(), UnixError> {
        let (_k, _s, u) = setup();
        u.create("f", 4096)?;
        let fds = (0..4).map(|_| u.open("f")).collect::<Result<Vec<_>, _>>()?;
        assert_eq!(fds, [Fd(3), Fd(4), Fd(5), Fd(6)]);
        u.close(fds[2])?;
        u.close(fds[1])?;
        assert_eq!(u.open("f")?, Fd(4));
        assert_eq!(u.open("f")?, Fd(5));
        assert_eq!(u.open("f")?, Fd(7));
        Ok(())
    }

    #[test]
    fn a_hundred_files_are_open_at_once() -> Result<(), UnixError> {
        let (_k, _s, u) = setup();
        let mut fds = Vec::new();
        for i in 0..100u8 {
            let name = format!("f{i}");
            u.create(&name, 4096)?;
            let fd = u.open(&name)?;
            u.write(fd, 0, &[i])?;
            fds.push(fd);
        }
        // Past one chunk of the table, and every descriptor still its own.
        assert_eq!(fds.last(), Some(&Fd(FIRST_FD + 99)));
        for (i, &fd) in fds.iter().enumerate() {
            let mut b = [0u8; 1];
            u.read(fd, 0, &mut b)?;
            assert_eq!(b[0], i as u8);
        }
        for fd in fds {
            u.close(fd)?;
        }
        Ok(())
    }

    #[test]
    fn four_threads_open_read_and_close_concurrently() -> Result<(), UnixError> {
        let (_k, _s, u) = setup();
        for t in 0..4u8 {
            let name = format!("t{t}");
            u.create(&name, 8192)?;
            let fd = u.open(&name)?;
            u.write(fd, 0, &[t; 8192])?;
            u.close(fd)?;
        }
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..4u8)
                .map(|t| {
                    let u = &u;
                    scope.spawn(move || -> Result<(), UnixError> {
                        let name = format!("t{t}");
                        let mut b = vec![0u8; 8192];
                        for _ in 0..1000 {
                            let fd = u.open(&name)?;
                            u.read(fd, 0, &mut b)?;
                            assert!(b.iter().all(|&x| x == t), "{name} read back another file");
                            u.close(fd)?;
                        }
                        Ok(())
                    })
                })
                .collect();
            threads
                .into_iter()
                .try_for_each(|t| t.join().expect("reader thread"))
        })?;
        // Every descriptor came back: the lowest is free again.
        assert_eq!(u.open("t0")?, Fd(FIRST_FD));
        Ok(())
    }

    #[test]
    fn two_fds_share_the_mapping() {
        let (_k, _s, u) = setup();
        u.create("f", 4096).unwrap();
        let fd1 = u.open("f").unwrap();
        let fd2 = u.open("f").unwrap();
        u.write(fd1, 0, b"x").unwrap();
        let mut b = [0u8; 1];
        u.read(fd2, 0, &mut b).unwrap();
        assert_eq!(&b, b"x");
    }
}
