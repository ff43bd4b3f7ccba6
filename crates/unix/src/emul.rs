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
use std::sync::Arc;

struct OpenFile {
    name: Arc<str>,
    addr: u64,
    size: usize,
}

struct EmulState {
    next_fd: u32,
    open: HashMap<Fd, OpenFile>,
    /// Mappings kept after close so re-opens reuse the same region
    /// (mirroring the VM cache persistence; the mapping itself is cheap):
    /// `(address, size the FS_OPEN_MAPPED reply carried)`. That size is
    /// the file's size as far as this library goes — `read`/`write` bound
    /// against it and `size_of` answers from it.
    cached_maps: HashMap<Arc<str>, (u64, usize)>,
    /// Files written through a descriptor since the last `sync_all` — the
    /// only ones whose pages can be dirty.
    written: BTreeSet<Arc<str>>,
}

/// The mapped-file UNIX emulation.
pub struct MachUnix {
    task: Arc<Task>,
    client: FsClient,
    state: Mutex<EmulState>,
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
            state: Mutex::new(EmulState {
                next_fd: 3,
                open: HashMap::new(),
                cached_maps: HashMap::new(),
                written: BTreeSet::new(),
            }),
        }
    }

    fn entry(&self, fd: Fd) -> Result<(u64, usize), UnixError> {
        let st = self.state.lock();
        let f = st.open.get(&fd).ok_or(UnixError::BadFd)?;
        Ok((f.addr, f.size))
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
        let mut st = self.state.lock();
        let (name, (addr, size)) = match st.cached_maps.get_key_value(name) {
            Some((name, &m)) => (name.clone(), m),
            None => {
                drop(st);
                // "An open call would result in the file being mapped into
                // memory."
                let (addr, size) = self.client.open_mapped(&self.task, name).map_err(from_fs)?;
                let name: Arc<str> = name.into();
                st = self.state.lock();
                st.cached_maps.insert(name.clone(), (addr, size as usize));
                (name, (addr, size as usize))
            }
        };
        let fd = Fd(st.next_fd);
        st.next_fd += 1;
        st.open.insert(fd, OpenFile { name, addr, size });
        Ok(fd)
    }

    fn read(&self, fd: Fd, offset: usize, buf: &mut [u8]) -> Result<(), UnixError> {
        let (addr, size) = self.entry(fd)?;
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
        let addr = {
            let mut st = self.state.lock();
            let f = st.open.get(&fd).ok_or(UnixError::BadFd)?;
            if offset + data.len() > f.size {
                return Err(UnixError::OutOfRange);
            }
            let (name, addr) = (f.name.clone(), f.addr);
            st.written.insert(name);
            addr
        };
        self.fault_ahead(addr + offset as u64, data.len(), VmProt::WRITE);
        self.task
            .write_memory(addr + offset as u64, data)
            .map_err(|e| UnixError::Substrate(e.to_string()))
    }

    fn close(&self, fd: Fd) -> Result<(), UnixError> {
        // The mapping stays (cached_maps); dirty pages stay in the VM
        // cache and reach the server on eviction or sync.
        self.state
            .lock()
            .open
            .remove(&fd)
            .map(|_| ())
            .ok_or(UnixError::BadFd)
    }

    /// One `FS_SYNC` per file written since the last call; the server
    /// answers each once it has sent the kernel a `pager_clean_request`,
    /// so the write-back is under way, not done, when this returns (a
    /// build that starts at once can dirty a page again before the clean
    /// reaches it, and the two builds then share one `pager_data_write`).
    fn sync_all(&self) -> Result<(), UnixError> {
        // A file only ever read has nothing to clean.
        let names = std::mem::take(&mut self.state.lock().written);
        for (i, name) in names.iter().enumerate() {
            if let Err(e) = self.client.sync(name) {
                // Still unsynced: this one and everything after it.
                let mut st = self.state.lock();
                st.written.extend(names.iter().skip(i).cloned());
                return Err(from_fs(e));
            }
        }
        Ok(())
    }

    /// Answered from the mapping once the file has been opened: what the
    /// library knows from its own address space it does not cross a
    /// protection boundary to ask, and `read` can reach exactly the size
    /// reported here. Only a name never opened costs an `FS_STAT`.
    fn size_of(&self, name: &str) -> Result<usize, UnixError> {
        if let Some(&(_, size)) = self.state.lock().cached_maps.get(name) {
            return Ok(size);
        }
        Ok(self.client.stat(name).map_err(from_fs)? as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machcore::{Kernel, KernelConfig};
    use machpagers::FileServer;
    use machsim::stats::keys;
    use machstorage::{BlockDevice, FlatFs};
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        // Allow the clean request to propagate.
        let landed = machsim::wall::poll_until(
            std::time::Duration::from_secs(2),
            std::time::Duration::from_millis(10),
            || &server.fs().read_all("out").unwrap()[..8] == b"durable?",
        );
        assert!(landed, "sync never landed");
    }

    /// A `MachUnix` behind a tap in front of the file server: the tap
    /// counts the requests with id `counted` and forwards everything (the
    /// reply port rides along, so replies go direct). Returns the
    /// emulation, the count, and a closure that stops the tap.
    fn tapped(
        k: &Arc<Kernel>,
        server: &Arc<FileServer>,
        counted: u32,
    ) -> (MachUnix, Arc<AtomicUsize>, impl FnOnce()) {
        // No file-server id: what stops the tap.
        const TAP_STOP: u32 = u32::MAX;
        let (tap_rx, tap_tx) = machipc::ReceiveRight::allocate(k.machine());
        let count = Arc::new(AtomicUsize::new(0));
        let tap = {
            let (count, real) = (count.clone(), server.port().clone());
            std::thread::spawn(move || {
                while let Ok(msg) = tap_rx.receive(None) {
                    if msg.id == TAP_STOP {
                        break;
                    }
                    if msg.id == counted {
                        count.fetch_add(1, Ordering::Relaxed);
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
        (u, count, stop)
    }

    #[test]
    fn sync_all_syncs_only_what_was_written() -> Result<(), UnixError> {
        let (k, server, _) = setup();
        let (u, syncs, stop) = tapped(&k, &server, machpagers::fs::FS_SYNC);
        let names = ["a", "b", "c"];
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
        u.close(fds[1])?;
        u.sync_all()?;
        assert_eq!(syncs.load(Ordering::Relaxed), 1, "only b was written");
        // Nothing written since: nothing to sync.
        u.sync_all()?;
        assert_eq!(syncs.load(Ordering::Relaxed), 1);
        stop();
        Ok(())
    }

    #[test]
    fn size_of_an_unopened_name_asks_the_server_once_then_never() -> Result<(), UnixError> {
        let (k, server, _) = setup();
        let (u, stats, stop) = tapped(&k, &server, machpagers::fs::FS_STAT);
        u.create("f", 8192)?;
        // First contact with the name: the library has no mapping to ask.
        assert_eq!(u.size_of("f")?, 8192);
        assert_eq!(stats.load(Ordering::Relaxed), 1);
        // Open, in use, closed: the mapping answers every time.
        let fd = u.open("f")?;
        assert_eq!(u.size_of("f")?, 8192);
        u.write(fd, 0, b"x")?;
        u.close(fd)?;
        assert_eq!(u.size_of("f")?, 8192);
        u.sync_all()?;
        assert_eq!(u.size_of("f")?, 8192);
        assert_eq!(stats.load(Ordering::Relaxed), 1);
        assert!(matches!(u.size_of("absent"), Err(UnixError::Substrate(_))));
        assert_eq!(stats.load(Ordering::Relaxed), 2);
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
