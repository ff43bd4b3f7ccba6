//! A Camelot-style recoverable-object disk manager (Section 8.3).
//!
//! "In Camelot, servers maintain permanent objects in virtual memory backed
//! by the Camelot disk manager. Camelot uses the write-ahead logging
//! technique to implement permanent, failure-atomic transactions. When the
//! disk manager receives a pager_flush_request from the kernel, it
//! verifies that the proper log records have been written before writing
//! the specified pages to disk."
//!
//! Clients map a *recoverable segment* into their address space and access
//! it as ordinary memory; Mach manages the physical cache while this disk
//! manager guarantees write-ahead ordering. The transaction interface
//! (begin / log-update / commit / abort) runs over the server's RPC port,
//! and [`CamelotServer::recover`] replays the durable log after a crash —
//! redoing committed transactions, undoing uncommitted ones.
//!
//! The disk manager is one task on one thread, a [`ManagerTask`]: the
//! transaction port and the segment's memory object port are one port
//! group, and the segment's manager owns the log and the database.
//!
//! The paper's listed benefits are all observable here: clients do not
//! implement page replacement, they need no fixed-size buffers, and
//! "recoverable data can be written directly to permanent backing storage
//! without first being written to temporary paging storage" — the
//! experiment asserts the default pager's partition stays cold.

use machcore::proto::Malformed;
use machcore::{DataManager, KernelConn, ManagerTask, Task};
use machipc::{IpcError, OolBuffer, SendRight, Server, RPC_TIMEOUT};
use machsim::Machine;
use machstorage::{BlockDevice, FlatFs, LogRecord, WriteAheadLog};
use machvm::{VmError, VmProt};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

const SEGMENT_FILE: &str = "recoverable-segment";

machcore::protocol! {
    /// Requests to the disk manager's transaction port, each an RPC.
    #[derive(Debug)]
    pub enum TxRequest {
        /// Attach to the recoverable segment.
        Attach = TX_ATTACH: 0x4701,
        /// Begin a transaction.
        Begin = TX_BEGIN: 0x4702,
        /// Log an update: `(txid, offset, before, after)`, the two images
        /// out-of-line.
        Log(txid: u64, offset: u64, before: OolBuffer, after: OolBuffer) = TX_LOG: 0x4703,
        /// Commit `txid`: the log is forced.
        Commit(txid: u64) = TX_COMMIT: 0x4704,
        /// Abort `txid`.
        Abort(txid: u64) = TX_ABORT: 0x4705,
        /// The manager's counters, once the page writes already queued
        /// on the segment's port are written.
        Stats = TX_STATS: 0x4706,
    }
}

machcore::protocol! {
    /// The transaction port's answers.
    #[derive(Debug)]
    pub enum TxReply {
        /// `(size, object)`: the segment's memory object (attach).
        Attached(size: u64, object: SendRight) = TX_OK: 0x4780,
        /// The new transaction's id (begin).
        Began(txid: u64) = TX_OK,
        /// Done (log, commit, abort).
        Done = TX_OK,
        /// `(forced_before_data, checkpoints)` (stats).
        Stats(forced_before_data: u64, checkpoints: u64) = TX_STATS_REPLY: 0x4782,
        /// The operation failed, or the request was malformed.
        Failed = TX_ERR: 0x4781,
    }
}

/// The segment's manager: the log, the database and the transactions,
/// owned by the server's thread.
struct DiskManager {
    wal: WriteAheadLog,
    db: Arc<FlatFs>,
    next_txid: u64,
    /// Transactions begun but neither committed nor aborted.
    active: HashSet<u64>,
    /// Statistics: how many times the WAL was forced before page data.
    forced_before_data: u64,
    /// Statistics: checkpoints taken.
    checkpoints: u64,
}

impl DiskManager {
    /// Begins a transaction.
    fn begin(&mut self) -> u64 {
        let txid = self.next_txid;
        self.next_txid += 1;
        self.active.insert(txid);
        txid
    }

    /// Ends `txid` with a commit record (forcing the log) or an abort
    /// record; whether the log took it.
    fn end(&mut self, txid: u64, commit: bool) -> bool {
        let ok = if commit {
            self.wal.append(&LogRecord::Commit { txid }).is_ok() && self.wal.force().is_ok()
        } else {
            self.wal.append(&LogRecord::Abort { txid }).is_ok()
        };
        self.active.remove(&txid);
        self.maybe_checkpoint();
        ok
    }

    /// Checkpoint: when no transaction is active and the log is running
    /// out of room, apply every committed update to the database (redo is
    /// idempotent) and truncate the log. Recovery from an empty log plus
    /// the checkpointed database is trivially consistent.
    fn maybe_checkpoint(&mut self) {
        if !self.active.is_empty() {
            return;
        }
        if self.wal.durable_len() + self.wal.pending_len() < self.wal.capacity() / 2 {
            return;
        }
        let _ = self.wal.force();
        let Ok(records) = self.wal.recover() else {
            return;
        };
        for (_, offset, _, after) in updates(&records).filter(|u| u.0) {
            let _ = self.db.write(SEGMENT_FILE, offset as usize, after);
        }
        self.wal.reset();
        self.checkpoints += 1;
    }
}

/// Each update in `records`, in log order, with whether its transaction
/// committed: `(committed, offset, before, after)`.
fn updates(records: &[LogRecord]) -> impl DoubleEndedIterator<Item = (bool, u64, &[u8], &[u8])> {
    let committed: HashSet<u64> = records
        .iter()
        .filter_map(|r| match r {
            LogRecord::Commit { txid } => Some(*txid),
            _ => None,
        })
        .collect();
    records.iter().filter_map(move |r| match r {
        LogRecord::Update {
            txid,
            offset,
            before,
            after,
            ..
        } => Some((committed.contains(txid), *offset, &before[..], &after[..])),
        _ => None,
    })
}

impl DataManager for DiskManager {
    fn data_request(
        &mut self,
        kernel: &KernelConn,
        object: u64,
        offset: u64,
        length: u64,
        _access: VmProt,
    ) {
        let size = self.db.size(SEGMENT_FILE).unwrap_or(0);
        let mut data = vec![0u8; length as usize];
        let n = (size.saturating_sub(offset as usize)).min(length as usize);
        if n > 0 {
            let _ = self.db.read(SEGMENT_FILE, offset as usize, &mut data[..n]);
        }
        kernel.data_provided(object, offset, OolBuffer::from_vec(data), VmProt::NONE);
    }

    fn data_write(&mut self, kernel: &KernelConn, object: u64, offset: u64, data: OolBuffer) {
        // The §8.3 invariant, write-ahead: force the log, then write the page.
        if self.wal.pending_len() > 0 {
            self.wal.force().expect("log force");
            self.forced_before_data += 1;
        }
        let _ = self
            .db
            .write(SEGMENT_FILE, offset as usize, data.as_slice());
        kernel.release_laundry(object, data.len() as u64);
    }
}

/// The Camelot disk manager: recoverable segment + WAL + transactions.
pub struct CamelotServer {
    server: Server,
    segment_size: u64,
}

impl fmt::Debug for CamelotServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CamelotServer({} bytes)", self.segment_size)
    }
}

/// How the device is split between log and database.
const LOG_BLOCKS: usize = 64;

impl CamelotServer {
    /// Formats `dev` (log + database) and starts the disk manager.
    pub fn format_and_start(
        machine: &Machine,
        dev: Arc<BlockDevice>,
        segment_size: u64,
    ) -> Arc<CamelotServer> {
        let wal = WriteAheadLog::format(dev.clone(), 0, LOG_BLOCKS);
        let db = Arc::new(FlatFs::format(dev, LOG_BLOCKS));
        db.create(SEGMENT_FILE).expect("fresh database");
        db.truncate(SEGMENT_FILE, segment_size as usize)
            .expect("segment fits device");
        let mut task = ManagerTask::new(machine);
        let (segment, object_port) = task.back(DiskManager {
            wal,
            db,
            next_txid: 1,
            active: HashSet::new(),
            forced_before_data: 0,
            checkpoints: 0,
        });
        let done = |ok| if ok { TxReply::Done } else { TxReply::Failed };
        let server = task.serve("camelot-server", move |task, msg| {
            let request = TxRequest::decode(msg);
            if let Ok(TxRequest::Stats) = request {
                // As `FS_SYNC` does: a local kernel's writes, queued
                // before this request, count.
                task.drain(segment);
            }
            let (_, state) = task.object(segment).expect("the segment is backed");
            let reply = match request {
                Ok(TxRequest::Attach) => TxReply::Attached(segment_size, object_port.clone()),
                Ok(TxRequest::Begin) => TxReply::Began(state.begin()),
                Ok(TxRequest::Log(txid, offset, before, after)) => {
                    let rec = LogRecord::Update {
                        txid,
                        object: 0,
                        offset,
                        before: before.to_mut_vec(),
                        after: after.to_mut_vec(),
                    };
                    done(state.wal.append(&rec).is_ok())
                }
                Ok(TxRequest::Commit(txid)) => done(state.end(txid, true)),
                Ok(TxRequest::Abort(txid)) => done(state.end(txid, false)),
                Ok(TxRequest::Stats) => TxReply::Stats(state.forced_before_data, state.checkpoints),
                Err(Malformed) => TxReply::Failed,
            };
            Some(reply.encode())
        });
        Arc::new(CamelotServer {
            server,
            segment_size,
        })
    }

    /// The transaction RPC port.
    pub fn port(&self) -> &SendRight {
        self.server.port()
    }

    /// `(forced_before_data, checkpoints)`, asked of the server.
    fn stats(&self) -> (u64, u64) {
        match rpc(self.port(), TxRequest::Stats) {
            Ok(TxReply::Stats(forced, checkpoints)) => (forced, checkpoints),
            _ => panic!("the disk manager answers its own handle"),
        }
    }

    /// How many times the WAL was forced ahead of page data, counting the
    /// writes a local kernel had sent when this was called.
    pub fn forced_before_data(&self) -> u64 {
        self.stats().0
    }

    /// Checkpoints taken (committed redo applied, log truncated).
    pub fn checkpoints(&self) -> u64 {
        self.stats().1
    }

    /// Crash recovery: reopens the device and restores the segment to a
    /// transaction-consistent state — committed updates redone, others
    /// undone (in reverse order).
    ///
    /// Returns `(redone, undone)` update counts.
    pub fn recover(dev: Arc<BlockDevice>) -> (usize, usize) {
        let wal = WriteAheadLog::open(dev.clone(), 0, LOG_BLOCKS).expect("reopen log");
        let records = wal.recover().expect("scan log");
        let db = FlatFs::format(dev, LOG_BLOCKS);
        // Formatting rebuilt in-memory metadata over the same blocks; the
        // segment file must be re-described. A production system would
        // persist the fs metadata; re-creating it over the same block list
        // is equivalent for a single-file database.
        let _ = db.create(SEGMENT_FILE);
        let (mut redone, mut undone) = (0, 0);
        // Redo committed updates in log order.
        for (_, offset, _, after) in updates(&records).filter(|u| u.0) {
            let _ = db.write(SEGMENT_FILE, offset as usize, after);
            redone += 1;
        }
        // Undo uncommitted updates in reverse log order.
        for (_, offset, before, _) in updates(&records).rev().filter(|u| !u.0) {
            let _ = db.write(SEGMENT_FILE, offset as usize, before);
            undone += 1;
        }
        (redone, undone)
    }

    /// Reads the segment from a raw device after recovery (test helper).
    pub fn read_segment_raw(dev: &Arc<BlockDevice>, size: usize) -> Vec<u8> {
        let db = FlatFs::format(dev.clone(), LOG_BLOCKS);
        let _ = db.create(SEGMENT_FILE);
        let _ = db.truncate(SEGMENT_FILE, size);
        db.read_all(SEGMENT_FILE).unwrap_or_default()
    }
}

/// Client-side transaction errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxError {
    /// RPC failure.
    Ipc(IpcError),
    /// Server rejected the operation.
    Server,
    /// VM failure while accessing the mapped segment.
    Vm(VmError),
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::Ipc(e) => write!(f, "rpc: {e}"),
            TxError::Server => f.write_str("server rejected"),
            TxError::Vm(e) => write!(f, "vm: {e}"),
        }
    }
}

impl std::error::Error for TxError {}

impl From<IpcError> for TxError {
    fn from(e: IpcError) -> Self {
        TxError::Ipc(e)
    }
}

impl From<VmError> for TxError {
    fn from(e: VmError) -> Self {
        TxError::Vm(e)
    }
}

/// A Camelot client: the recoverable segment mapped into a task.
pub struct CamelotClient {
    task: Arc<Task>,
    server: SendRight,
    addr: u64,
    size: u64,
}

impl CamelotClient {
    /// Attaches `task` to the server's recoverable segment.
    ///
    /// "Camelot clients can access data easily and quickly by mapping
    /// memory objects into their virtual address spaces."
    pub fn attach(task: &Arc<Task>, server: &SendRight) -> Result<CamelotClient, TxError> {
        let TxReply::Attached(size, object) = rpc(server, TxRequest::Attach)? else {
            return Err(TxError::Server);
        };
        let addr = task.vm_allocate_with_pager(None, size, &object, 0)?;
        Ok(CamelotClient {
            task: task.clone(),
            server: server.clone(),
            addr,
            size,
        })
    }

    /// Segment size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Begins a transaction.
    pub fn begin(&self) -> Result<u64, TxError> {
        match rpc(&self.server, TxRequest::Begin)? {
            TxReply::Began(txid) => Ok(txid),
            _ => Err(TxError::Server),
        }
    }

    /// Transactionally writes `data` at `offset`: logs before/after images
    /// with the server, then updates the mapped memory.
    pub fn write(&self, txid: u64, offset: u64, data: &[u8]) -> Result<(), TxError> {
        let mut before = vec![0u8; data.len()];
        self.task.read_memory(self.addr + offset, &mut before)?;
        let (before, after) = (OolBuffer::from_vec(before), OolBuffer::from_slice(data));
        rpc(&self.server, TxRequest::Log(txid, offset, before, after))?;
        self.task.write_memory(self.addr + offset, data)?;
        Ok(())
    }

    /// Reads from the mapped segment.
    pub fn read(&self, offset: u64, out: &mut [u8]) -> Result<(), TxError> {
        self.task.read_memory(self.addr + offset, out)?;
        Ok(())
    }

    /// Commits: the server appends a commit record and forces the log.
    pub fn commit(&self, txid: u64) -> Result<(), TxError> {
        rpc(&self.server, TxRequest::Commit(txid)).map(drop)
    }

    /// Aborts a transaction.
    pub fn abort(&self, txid: u64) -> Result<(), TxError> {
        rpc(&self.server, TxRequest::Abort(txid)).map(drop)
    }
}

/// Performs `request` on the transaction port; a failure, or a reply that
/// is not the port's, is `Server`.
fn rpc(server: &SendRight, request: TxRequest) -> Result<TxReply, TxError> {
    let reply = server.rpc(request.encode(), RPC_TIMEOUT, RPC_TIMEOUT)?;
    match TxReply::decode(reply) {
        Ok(TxReply::Failed) | Err(Malformed) => Err(TxError::Server),
        Ok(reply) => Ok(reply),
    }
}

/// Simple bank-account view over a segment: one u64 balance per slot.
pub fn balance_of(segment: &[u8], account: usize) -> u64 {
    let p = account * 8;
    u64::from_le_bytes(segment[p..p + 8].try_into().expect("8 bytes"))
}

/// Encodes a balance for [`CamelotClient::write`].
pub fn encode_balance(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: usize = 4096;
    use machcore::{Kernel, KernelConfig};
    use machipc::{Message, MsgItem};
    use std::time::Duration;

    fn setup(segment: u64) -> (Arc<Kernel>, Arc<BlockDevice>, Arc<CamelotServer>) {
        let k = Kernel::boot(KernelConfig::default());
        let dev = Arc::new(BlockDevice::new(k.machine(), 256));
        let server = CamelotServer::format_and_start(k.machine(), dev.clone(), segment);
        (k, dev, server)
    }

    #[test]
    fn transactional_transfer_commits() {
        let (k, _dev, server) = setup(8 * PAGE as u64);
        let task = Task::create(&k, "bank");
        let client = CamelotClient::attach(&task, server.port()).unwrap();
        // Accounts 0 and 1 start at 0; fund account 0 with 100.
        let tx0 = client.begin().unwrap();
        client.write(tx0, 0, &encode_balance(100)).unwrap();
        client.commit(tx0).unwrap();
        // Transfer 40 from account 0 to 1.
        let tx1 = client.begin().unwrap();
        client.write(tx1, 0, &encode_balance(60)).unwrap();
        client.write(tx1, 8, &encode_balance(40)).unwrap();
        client.commit(tx1).unwrap();
        let mut buf = [0u8; 16];
        client.read(0, &mut buf).unwrap();
        assert_eq!(balance_of(&buf, 0), 60);
        assert_eq!(balance_of(&buf, 1), 40);
    }

    #[test]
    fn wal_forced_before_page_data() {
        let (k, _dev, server) = setup(8 * PAGE as u64);
        let task = Task::create(&k, "bank");
        let client = CamelotClient::attach(&task, server.port()).unwrap();
        let tx = client.begin().unwrap();
        client.write(tx, 0, &encode_balance(7)).unwrap();
        // Do NOT commit; ask the kernel to clean the dirty mapped page by
        // evicting (simulate with an explicit flush through the fs of the
        // kernel: here we just touch enough memory to force pageout).
        // Simpler: deallocate the mapping, which cleans dirty pages.
        drop(client);
        task.vm_deallocate(task.vm_regions()[0].start, task.vm_regions()[0].size)
            .unwrap();
        // The pager received the dirty page and forced the log first.
        for _ in 0..100 {
            if server.forced_before_data() > 0 {
                break;
            }
            machsim::wall::sleep(Duration::from_millis(10));
        }
        assert!(server.forced_before_data() > 0, "log forced before data");
        // The uncommitted update is in the durable segment now, but the
        // log has its before-image; recovery will undo it.
    }

    #[test]
    fn recovery_redoes_committed_and_undoes_uncommitted() {
        let (k, dev, server) = setup(8 * PAGE as u64);
        let task = Task::create(&k, "bank");
        let client = CamelotClient::attach(&task, server.port()).unwrap();
        // Committed transaction: account 0 = 100.
        let tx0 = client.begin().unwrap();
        client.write(tx0, 0, &encode_balance(100)).unwrap();
        client.commit(tx0).unwrap();
        // Uncommitted transaction: account 0 = 1, account 1 = 999.
        let tx1 = client.begin().unwrap();
        client.write(tx1, 0, &encode_balance(1)).unwrap();
        client.write(tx1, 8, &encode_balance(999)).unwrap();
        // Force the in-flight updates into the log (but no commit): a
        // flush of dirty pages triggers the WAL-before-data path, which
        // forces pending records.
        drop(client);
        drop(task);
        drop(server);
        drop(k); // Crash: kernel and server gone; device survives.
        let (redone, undone) = CamelotServer::recover(dev.clone());
        assert!(redone >= 1, "committed update redone");
        assert!(undone >= 2, "uncommitted updates undone");
        let segment = CamelotServer::read_segment_raw(&dev, 8 * PAGE);
        assert_eq!(balance_of(&segment, 0), 100, "committed value restored");
        assert_eq!(balance_of(&segment, 1), 0, "uncommitted value undone");
    }

    #[test]
    fn recoverable_data_bypasses_paging_storage() {
        // "Recoverable data can be written directly to permanent backing
        // storage without first being written to temporary paging
        // storage": evictions of camelot pages go to the camelot pager,
        // never the default pager.
        let (_k, _dev, server) = setup(64 * PAGE as u64);
        let small_kernel = Kernel::boot(KernelConfig {
            memory_bytes: 16 * 4096,
            reserve_pages: 4,
            ..KernelConfig::default()
        });
        let task = Task::create(&small_kernel, "bank");
        // Attach against the server (the server lives on the big kernel's
        // machine but ports are location transparent here).
        let client = CamelotClient::attach(&task, server.port()).unwrap();
        let tx = client.begin().unwrap();
        for page in 0..32u64 {
            client
                .write(tx, page * PAGE as u64, &encode_balance(page))
                .unwrap();
        }
        client.commit(tx).unwrap();
        // Evictions happened on the small kernel; none used its default
        // pager's partition.
        assert!(
            small_kernel
                .machine()
                .stats
                .get(machsim::stats::keys::VM_PAGEOUTS)
                > 0,
            "camelot pages were evicted"
        );
        assert_eq!(
            small_kernel
                .machine()
                .stats
                .get(machsim::stats::keys::DEFAULT_PAGER_PARTITION_FULL),
            0
        );
        assert_eq!(
            small_kernel
                .machine()
                .stats
                .get(machsim::stats::keys::VM_DEFAULT_PAGER_TAKEOVERS),
            0,
            "no pageouts diverted to paging storage"
        );
    }

    #[test]
    fn a_short_request_is_an_error_not_a_dead_server() {
        let (k, _dev, server) = setup(8 * PAGE as u64);
        let one_word = || MsgItem::u64s(&[1]);
        let image = || MsgItem::OutOfLine(OolBuffer::from_vec(vec![0; 8]));
        let short = [
            Message::new(TX_COMMIT),
            Message::new(TX_ABORT),
            Message::new(TX_LOG),
            Message::new(TX_LOG)
                .with(one_word())
                .with(image())
                .with(image()),
            Message::new(TX_LOG)
                .with(MsgItem::u64s(&[1, 0]))
                .with(image()),
        ];
        let timeout = Some(Duration::from_secs(2));
        for msg in short {
            let reply = server.port().rpc(msg, timeout, timeout);
            assert_eq!(reply.expect("the server answers").id, TX_ERR);
        }
        let task = Task::create(&k, "bank");
        let client = CamelotClient::attach(&task, server.port()).expect("still serving");
        client.begin().expect("a transaction");
    }

    #[test]
    fn an_attach_reply_without_size_or_segment_is_an_error_not_a_panic() {
        let k = Kernel::boot(KernelConfig::default());
        let task = Task::create(&k, "client");
        let ok = crate::fs::tests::bare_server(k.machine(), TX_OK, 1);
        assert_eq!(
            CamelotClient::attach(&task, &ok).err(),
            Some(TxError::Server)
        );
    }
}
