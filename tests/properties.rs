//! Property-style tests over core data structures and invariants.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these properties are exercised with the workspace's own deterministic
//! [`SplitMix64`] generator: each property runs a fixed number of seeded
//! cases, so failures reproduce exactly and the value space covered is
//! still randomized.

use machcore::objport::{TaskReply, TaskRequest};
use machcore::proto::{HostRequest, KernelToManager, Malformed, ManagerToKernel};
use machcore::{Kernel, KernelConfig, Task};
use machipc::{Message, MsgItem, OolBuffer, ReceiveRight, SendRight, TypeTag};
use machpagers::agora::{BbReply, BbRequest};
use machpagers::array::{ArrayReply, ArrayRequest};
use machpagers::camelot::{TxReply, TxRequest};
use machpagers::fs::{FsReply, FsRequest};
use machpagers::netshm::{ShmReply, ShmRequest};
use machpagers::remote_region::RegionMessage;
use machsim::{Machine, SplitMix64};
use machstorage::{BlockDevice, FlatFs, LogRecord, WriteAheadLog};
use machvm::{PhysicalMemory, VmMap, VmProt};
use std::sync::Arc;

const CASES: u64 = 32;

fn bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// FlatFs behaves like a byte vector under arbitrary writes.
#[test]
fn flatfs_matches_reference_model() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xF1A7 + case);
        let m = Machine::default_machine();
        let dev = Arc::new(BlockDevice::new(&m, 256));
        let fs = FlatFs::format(dev, 0);
        fs.create("f").unwrap();
        let mut model: Vec<u8> = Vec::new();
        let nops = 1 + rng.next_below(11) as usize;
        for _ in 0..nops {
            let offset = rng.next_below(40_000) as usize;
            let len = 1 + rng.next_below(1_999) as usize;
            let data = bytes(&mut rng, len);
            fs.write("f", offset, &data).unwrap();
            if model.len() < offset + data.len() {
                model.resize(offset + data.len(), 0);
            }
            model[offset..offset + data.len()].copy_from_slice(&data);
        }
        assert_eq!(fs.read_all("f").unwrap(), model, "case {case}");
    }
}

/// WAL append/force/recover round-trips arbitrary record sequences.
#[test]
fn wal_roundtrip() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x3A1 + case);
        let m = Machine::default_machine();
        let dev = Arc::new(BlockDevice::new(&m, 64));
        let wal = WriteAheadLog::format(dev.clone(), 0, 64);
        let nrecs = 1 + rng.next_below(19) as usize;
        let records: Vec<LogRecord> = (0..nrecs)
            .map(|_| {
                let txid = rng.next_u64();
                match rng.next_below(3) {
                    0 => {
                        let len = rng.next_below(200) as usize;
                        let before = bytes(&mut rng, len);
                        LogRecord::Update {
                            txid,
                            object: 1,
                            offset: rng.next_u64(),
                            after: before.iter().rev().cloned().collect(),
                            before,
                        }
                    }
                    1 => LogRecord::Commit { txid },
                    _ => LogRecord::Abort { txid },
                }
            })
            .collect();
        for r in &records {
            wal.append(r).unwrap();
        }
        wal.force().unwrap();
        // Recover through a reopen (fresh in-memory state from disk).
        let wal2 = WriteAheadLog::open(dev, 0, 64).unwrap();
        assert_eq!(wal2.recover().unwrap(), records, "case {case}");
    }
}

/// vm_regions never overlap and vm_read/vm_write round-trip after any
/// sequence of allocations and deallocations.
#[test]
fn address_map_invariants() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xADD2 + case);
        let m = Machine::default_machine();
        let phys = PhysicalMemory::new(&m, 128 * 4096, 4096, 2);
        let map = VmMap::new(&phys);
        let mut live: Vec<(u64, u64)> = Vec::new();
        let nops = 1 + rng.next_below(23) as usize;
        for _ in 0..nops {
            let pages = 1 + rng.next_below(7);
            let dealloc = rng.chance(1, 2);
            if dealloc && !live.is_empty() {
                let (addr, size) = live.remove(0);
                map.deallocate(addr, size).unwrap();
            } else {
                let size = pages * 4096;
                let addr = map.allocate(None, size).unwrap();
                map.write(addr, &[pages as u8]).unwrap();
                live.push((addr, size));
            }
            // Invariant: regions are sorted and disjoint.
            let regions = map.regions();
            for w in regions.windows(2) {
                assert!(w[0].start + w[0].size <= w[1].start, "case {case}");
            }
        }
        // Every live region still holds its marker byte.
        for (addr, size) in &live {
            let data = map.read(*addr, 1).unwrap();
            assert_eq!(data[0] as u64 * 4096, *size, "case {case}");
        }
    }
}

/// Copy-on-write isolation survives arbitrary fork/write interleaving.
#[test]
fn cow_isolation() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xC0 + case);
        let kernel = Kernel::boot(KernelConfig {
            memory_bytes: 64 * 4096,
            ..KernelConfig::default()
        });
        let parent = Task::create(&kernel, "p");
        let addr = parent.vm_allocate(4 * 4096).unwrap();
        for p in 0..4u64 {
            parent.write_memory(addr + p * 4096, &[0]).unwrap();
        }
        let child = parent.fork("c");
        let mut parent_model = [0u8; 4];
        let mut child_model = [0u8; 4];
        let nwrites = 1 + rng.next_below(15) as usize;
        for _ in 0..nwrites {
            let page = rng.next_below(4);
            let value = rng.next_u64() as u8;
            let target = addr + page * 4096;
            if rng.chance(1, 2) {
                child.write_memory(target, &[value]).unwrap();
                child_model[page as usize] = value;
            } else {
                parent.write_memory(target, &[value]).unwrap();
                parent_model[page as usize] = value;
            }
        }
        for p in 0..4u64 {
            let mut b = [0u8; 1];
            parent.read_memory(addr + p * 4096, &mut b).unwrap();
            assert_eq!(b[0], parent_model[p as usize], "case {case}");
            child.read_memory(addr + p * 4096, &mut b).unwrap();
            assert_eq!(b[0], child_model[p as usize], "case {case}");
        }
    }
}

/// OolBuffer transfers share storage until written.
#[test]
fn ool_buffer_sharing() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x001 + case);
        let len = 1 + rng.next_below(9_999) as usize;
        let data = bytes(&mut rng, len);
        let a = OolBuffer::from_slice(&data);
        let b = a.clone();
        assert!(a.shares_storage_with(&b), "case {case}");
        let mut private = b.to_mut_vec();
        if let Some(first) = private.first_mut() {
            *first = first.wrapping_add(1);
        }
        assert_eq!(a.as_slice(), &data[..], "case {case}");
    }
}

/// Messages from each sender arrive in that sender's send order (FIFO
/// per sender), regardless of interleaving.
#[test]
fn ipc_fifo_per_sender() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xF1F0 + case);
        let nsenders = 2 + rng.next_below(3) as usize;
        let counts: Vec<usize> = (0..nsenders)
            .map(|_| 1 + rng.next_below(19) as usize)
            .collect();
        let machine = Machine::default_machine();
        let (rx, tx) = machipc::ReceiveRight::allocate(&machine);
        rx.set_backlog(1024);
        let total: usize = counts.iter().sum();
        std::thread::scope(|s| {
            for (sender_id, &n) in counts.iter().enumerate() {
                let tx = tx.clone();
                s.spawn(move || {
                    for seq in 0..n {
                        tx.send(machipc::Message::new((sender_id * 1000 + seq) as u32), None)
                            .unwrap();
                    }
                });
            }
            let mut last_seen: Vec<i64> = vec![-1; counts.len()];
            for _ in 0..total {
                let m = rx
                    .receive(Some(std::time::Duration::from_secs(10)))
                    .unwrap();
                let sender = (m.id / 1000) as usize;
                let seq = (m.id % 1000) as i64;
                assert!(seq > last_seen[sender], "sender {sender} reordered");
                last_seen[sender] = seq;
            }
        });
    }
}

/// Port name spaces: names stay valid until deallocated, never after.
#[test]
fn portspace_name_lifecycle() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x9A3E + case);
        let machine = Machine::default_machine();
        let space = machipc::PortSpace::new(&machine);
        let mut live: Vec<machipc::PortName> = Vec::new();
        let mut dead: Vec<machipc::PortName> = Vec::new();
        let nops = 1 + rng.next_below(39) as usize;
        for _ in 0..nops {
            if rng.chance(1, 2) || live.is_empty() {
                live.push(space.port_allocate());
            } else {
                let name = live.remove(0);
                space.port_deallocate(name).unwrap();
                dead.push(name);
            }
            for n in &live {
                assert!(space.port_status(*n).is_ok(), "case {case}");
            }
            for n in &dead {
                assert!(space.port_status(*n).is_err(), "case {case}");
            }
        }
    }
}

/// The resident page cache never lies: supply then lookup returns the
/// same bytes, and flush forgets them.
#[test]
fn resident_cache_consistency() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x2E5 + case);
        let npages = 1 + rng.next_below(5) as usize;
        let pages: Vec<Vec<u8>> = (0..npages).map(|_| bytes(&mut rng, 4096)).collect();
        let m = Machine::default_machine();
        let phys = PhysicalMemory::new(&m, 32 * 4096, 4096, 2);
        let obj = machvm::VmObject::new_temporary(1 << 20);
        for (i, page) in pages.iter().enumerate() {
            phys.supply_page(
                &obj,
                (i as u64) * 4096,
                OolBuffer::from_slice(page),
                VmProt::NONE,
            )
            .unwrap();
        }
        for (i, page) in pages.iter().enumerate() {
            match phys.lookup(obj.id(), (i as u64) * 4096) {
                machvm::PageLookup::Resident { frame, .. } => {
                    phys.with_frame(frame, |d| assert_eq!(d, &page[..]));
                }
                other => panic!("case {case}: expected resident, got {other:?}"),
            }
        }
        phys.release_object(&obj, false);
        assert_eq!(phys.resident_pages_of(obj.id()), 0, "case {case}");
    }
}

/// What the resident table should hold, kept the plain way: page key ->
/// (fill byte, manager lock, modified), and the keys with a fill pending.
#[derive(Default)]
struct TableModel {
    pages: std::collections::BTreeMap<(usize, u64), (u8, VmProt, bool)>,
    pending: std::collections::BTreeSet<(usize, u64)>,
}

impl TableModel {
    /// The resident keys of object `o` in `[first, end)`.
    fn span(&self, o: usize, first: u64, end: u64) -> Vec<(usize, u64)> {
        self.pages
            .range((o, first)..(o, end))
            .map(|(&k, _)| k)
            .collect()
    }
}

/// The resident table against a plain ordered-map model: seeded sequences
/// of every range operation over three objects — claims, supplies
/// (aligned, unaligned, overlapping what is resident), unavailable
/// replies, cancels, flushes, cleans, locks, collapses, releases and
/// reclaim — with the table's own invariants checked after every step,
/// and every frame and claim accounted for at the end.
#[test]
fn resident_table_matches_an_ordered_map_model() -> Result<(), machvm::VmError> {
    const PS: u64 = 4096;
    const PAGES: u64 = 24;
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x7AB1E + case);
        let m = Machine::default_machine();
        let phys = PhysicalMemory::new(&m, 256 * PS as usize, PS as usize, 2);
        let baseline = phys.frame_census();
        let objects: Vec<_> = (0..3)
            .map(|_| machvm::VmObject::new_temporary(PAGES * PS))
            .collect();
        let mut model = TableModel::default();
        for step in 0..120 {
            let at = format!("case {case} step {step}");
            let o = rng.next_below(3) as usize;
            let (object, id) = (&objects[o], objects[o].id());
            // Offsets are page-granular, some with the same odd alignment.
            let first = rng.next_below(PAGES) * PS + if rng.chance(1, 4) { 100 } else { 0 };
            let pages = 1 + rng.next_below(6);
            let run = (0..pages).map(|i| (o, first + i * PS));
            let end = first + pages * PS;
            // Cache-control requests work on whole pages from the one
            // `first` lies in, and reach every alignment inside them.
            let floor = first - first % PS;
            match rng.next_below(12) {
                0 => {
                    let free = |k: &(usize, u64)| {
                        !model.pages.contains_key(k) && !model.pending.contains(k)
                    };
                    let limit = (PAGES * PS).max(first + PS).div_ceil(PS) * PS;
                    let want = run.clone().take_while(|k| k.1 < limit && free(k)).count();
                    let got = phys.begin_fill_run(id, first, pages as usize, PAGES * PS);
                    assert_eq!(got.unwrap_or(0), want, "{at}: claim");
                    model.pending.extend(run.take(want));
                }
                1..=3 => {
                    let tag = 1 + rng.next_below(250) as u8;
                    let data = OolBuffer::from_vec(vec![tag; (pages * PS) as usize]);
                    let lock = if rng.chance(1, 3) {
                        VmProt::WRITE
                    } else {
                        VmProt::NONE
                    };
                    let mut fresh = 0;
                    for k in run {
                        model.pending.remove(&k);
                        model.pages.entry(k).or_insert_with(|| {
                            fresh += 1;
                            (tag, lock, false)
                        });
                    }
                    assert_eq!(phys.supply_page(object, first, data, lock)?, fresh, "{at}");
                }
                4 => {
                    let mut fresh = 0;
                    for k in run {
                        model.pending.remove(&k);
                        model.pages.entry(k).or_insert_with(|| {
                            fresh += 1;
                            (0, VmProt::NONE, false)
                        });
                    }
                    assert_eq!(
                        phys.data_unavailable(object, first, pages * PS)?,
                        fresh,
                        "{at}"
                    );
                }
                5 => {
                    phys.cancel_fill_run(id, first, pages as usize);
                    for k in run {
                        model.pending.remove(&k);
                    }
                }
                6 => {
                    phys.flush_range(object, first, pages * PS);
                    for k in model.span(o, floor, end) {
                        model.pages.remove(&k);
                    }
                }
                7 => {
                    // Modify, then clean: the pages stay, unmodified.
                    for k in model.span(o, floor, end) {
                        if let machvm::PageLookup::Resident { frame, .. } = phys.lookup(id, k.1) {
                            phys.set_modified(frame);
                        }
                        assert_eq!(phys.page_dirty(id, k.1), Some(true), "{at}");
                    }
                    phys.clean_range(object, first, pages * PS);
                    for k in model.span(o, floor, end) {
                        model.pages.entry(k).and_modify(|p| p.2 = false);
                    }
                }
                8 => {
                    let lock = if rng.chance(1, 2) {
                        VmProt::WRITE
                    } else {
                        VmProt::NONE
                    };
                    phys.lock_range(object, first, pages * PS, lock);
                    for k in model.span(o, floor, end) {
                        model.pages.entry(k).and_modify(|p| p.1 = lock);
                    }
                }
                9 => {
                    // Collapse `o` into the next object, which shadows a
                    // window of it.
                    let to = (o + 1) % 3;
                    let size = pages * PS;
                    let mut leftovers = false;
                    for k in model.span(o, 0, u64::MAX) {
                        let dst = (to, k.1.wrapping_sub(floor));
                        if k.1 < floor || dst.1 >= size || model.pages.contains_key(&dst) {
                            leftovers = true;
                        } else if let Some(page) = model.pages.remove(&k) {
                            model.pages.insert(dst, page);
                        }
                    }
                    let got = phys.rekey_range(id, floor, &objects[to], size);
                    assert_eq!(got, leftovers, "{at}: collapse leftovers");
                }
                10 => {
                    phys.release_object(object, false);
                    model.pages.retain(|k, _| k.0 != o);
                    model.pending.retain(|k| k.0 != o);
                }
                _ => {
                    // Reclaim picks its own victims: the model drops what
                    // is gone, and as many must be gone as were freed.
                    let freed = phys.reclaim_pages(pages as usize);
                    let before = model.pages.len();
                    model
                        .pages
                        .retain(|k, _| phys.page_lock(objects[k.0].id(), k.1).is_some());
                    assert_eq!(before - model.pages.len(), freed, "{at}: reclaim");
                }
            }
            phys.check_invariants();
            for (o, object) in objects.iter().enumerate() {
                let want: Vec<u64> = model.span(o, 0, u64::MAX).iter().map(|k| k.1).collect();
                assert_eq!(phys.object_offsets(object.id()), want, "{at}: object {o}");
            }
            for (&(o, offset), &(tag, lock, dirty)) in &model.pages {
                let id = objects[o].id();
                assert_eq!(phys.page_lock(id, offset), Some(lock), "{at}");
                assert_eq!(phys.page_dirty(id, offset), Some(dirty), "{at}");
                let machvm::PageLookup::Resident { frame, .. } = phys.lookup(id, offset) else {
                    panic!("{at}: a page the offsets listed is not resident");
                };
                phys.with_frame(frame, |d| assert!(d.iter().all(|&b| b == tag), "{at}"));
            }
            let census = phys.frame_census();
            assert_eq!(census.pending, model.pending.len() as u64, "{at}");
            assert_eq!(census.resident, model.pages.len() as u64, "{at}");
        }
        for object in &objects {
            phys.release_object(object, false);
        }
        phys.check_invariants();
        assert_eq!(phys.frame_census(), baseline, "case {case}");
    }
    Ok(())
}

/// Random values for every kind of protocol field. Rights name one of a
/// few live ports, so a right that comes back names a known port.
struct Fields {
    rng: SplitMix64,
    ports: Vec<(ReceiveRight, SendRight)>,
}

impl Fields {
    fn new(seed: u64) -> Self {
        let machine = Machine::default_machine();
        let ports = (0..4).map(|_| ReceiveRight::allocate(&machine)).collect();
        Fields {
            rng: SplitMix64::new(seed),
            ports,
        }
    }

    fn word(&mut self) -> u64 {
        self.rng.next_u64()
    }

    fn prot(&mut self) -> VmProt {
        VmProt(self.rng.next_u64() as u8)
    }

    fn data(&mut self) -> OolBuffer {
        let len = self.rng.next_below(9_000) as usize;
        OolBuffer::from_vec(bytes(&mut self.rng, len))
    }

    /// Any UTF-8 text, multi-byte characters included.
    fn name(&mut self) -> String {
        let len = self.rng.next_below(12);
        let mut char = || char::from_u32(self.rng.next_below(0x800) as u32).unwrap_or('?');
        (0..len).map(|_| char()).collect()
    }

    fn payload(&mut self) -> Vec<u8> {
        let len = self.rng.next_below(48) as usize;
        bytes(&mut self.rng, len)
    }

    fn right(&mut self) -> SendRight {
        self.ports[self.rng.next_below(4) as usize].1.clone()
    }

    fn maybe_right(&mut self) -> Option<SendRight> {
        self.rng.chance(1, 2).then(|| self.right())
    }
}

/// `decode(encode(m))` is `m`: the same variant with the same fields, its
/// rights compared by port (their `Debug`) and its buffer by contents.
fn round_trip<T: std::fmt::Debug>(
    m: T,
    encode: fn(T) -> Message,
    decode: fn(Message) -> Result<T, Malformed>,
    data: fn(&T) -> Option<&OolBuffer>,
) {
    let want = (format!("{m:?}"), data(&m).map(|d| d.as_slice().to_vec()));
    let got = decode(encode(m)).unwrap_or_else(|e| panic!("{} does not decode: {e:?}", want.0));
    let got = (
        format!("{got:?}"),
        data(&got).map(|d| d.as_slice().to_vec()),
    );
    assert_eq!(got, want);
}

fn k2m_data(m: &KernelToManager) -> Option<&OolBuffer> {
    match m {
        KernelToManager::DataWrite(_, _, data, _) => Some(data),
        _ => None,
    }
}

fn m2k_data(m: &ManagerToKernel) -> Option<&OolBuffer> {
    match m {
        ManagerToKernel::DataProvided(_, _, _, data) => Some(data),
        _ => None,
    }
}

fn task_request_data(m: &TaskRequest) -> Option<&OolBuffer> {
    match m {
        TaskRequest::VmWrite(_, data) => Some(data),
        _ => None,
    }
}

fn task_reply_data(m: &TaskReply) -> Option<&OolBuffer> {
    match m {
        TaskReply::Data(data) => Some(data),
        _ => None,
    }
}

fn fs_request_data(m: &FsRequest) -> Option<&OolBuffer> {
    match m {
        FsRequest::WriteFile(_, data) => Some(data),
        _ => None,
    }
}

/// The after image; both images' lengths are in the `Debug` form.
fn tx_request_data(m: &TxRequest) -> Option<&OolBuffer> {
    match m {
        TxRequest::Log(_, _, _, after) => Some(after),
        _ => None,
    }
}

fn shm_reply_data(m: &ShmReply) -> Option<&OolBuffer> {
    match m {
        ShmReply::Inspected(.., data) => Some(data),
        _ => None,
    }
}

fn region_data(m: &RegionMessage) -> Option<&OolBuffer> {
    match m {
        RegionMessage::Eager(_, data) => Some(data),
        RegionMessage::Handle(..) => None,
    }
}

/// Every variant of every protocol, requests and replies, survives encode
/// then decode with random fields.
#[test]
fn protocol_messages_round_trip() {
    for case in 0..CASES {
        let mut f = Fields::new(0xC0DEC + case);
        let k2m = [
            KernelToManager::Init(f.word(), f.right(), f.maybe_right()),
            KernelToManager::DataRequest(f.word(), f.word(), f.word(), f.prot(), f.right()),
            KernelToManager::DataWrite(f.word(), f.word(), f.data(), f.right()),
            KernelToManager::DataUnlock(f.word(), f.word(), f.word(), f.prot(), f.right()),
            KernelToManager::Create(f.word(), f.maybe_right()),
            KernelToManager::Terminate(f.word()),
        ];
        for m in k2m {
            round_trip(
                m,
                KernelToManager::encode,
                KernelToManager::decode,
                k2m_data,
            );
        }
        let m2k = [
            ManagerToKernel::DataProvided(f.word(), f.word(), f.prot(), f.data()),
            ManagerToKernel::DataLock(f.word(), f.word(), f.word(), f.prot()),
            ManagerToKernel::FlushRequest(f.word(), f.word(), f.word()),
            ManagerToKernel::CleanRequest(f.word(), f.word(), f.word()),
            ManagerToKernel::Cache(f.word(), f.rng.chance(1, 2)),
            ManagerToKernel::DataUnavailable(f.word(), f.word(), f.word()),
            ManagerToKernel::SetCluster(f.word(), f.word()),
        ];
        for m in m2k {
            round_trip(
                m,
                ManagerToKernel::encode,
                ManagerToKernel::decode,
                m2k_data,
            );
        }
        let host = [
            HostRequest::Statistics,
            HostRequest::VmStatistics,
            HostRequest::TaskInfo,
            HostRequest::TraceQuery(f.word(), f.word()),
        ];
        for m in host {
            round_trip(m, HostRequest::encode, HostRequest::decode, |_| None);
        }
        let task = [
            TaskRequest::Suspend,
            TaskRequest::Resume,
            TaskRequest::Statistics,
            TaskRequest::VmAllocate(f.word()),
            TaskRequest::VmDeallocate(f.word(), f.word()),
            TaskRequest::VmRead(f.word(), f.word()),
            TaskRequest::VmWrite(f.word(), f.data()),
        ];
        for m in task {
            round_trip(
                m,
                TaskRequest::encode,
                TaskRequest::decode,
                task_request_data,
            );
        }
        let (a, b, c, d, e, g, h) = (
            f.word(),
            f.word(),
            f.word(),
            f.word(),
            f.word(),
            f.word(),
            f.word(),
        );
        let task_replies = [
            TaskReply::Statistics(a, b, c, d, e, g, h),
            TaskReply::Allocated(f.word()),
            TaskReply::Data(f.data()),
            TaskReply::Done,
            TaskReply::Rejected,
        ];
        for m in task_replies {
            round_trip(m, TaskReply::encode, TaskReply::decode, task_reply_data);
        }
        let fs = [
            FsRequest::ReadFile(f.name()),
            FsRequest::WriteFile(f.name(), f.data()),
            FsRequest::Create(f.name()),
            FsRequest::OpenMapped(f.name()),
            FsRequest::Sync(vec![f.name(), f.name()]),
            FsRequest::Stat(f.name()),
        ];
        for m in fs {
            round_trip(m, FsRequest::encode, FsRequest::decode, fs_request_data);
        }
        let fs_replies = [
            FsReply::Object(f.word(), f.right()),
            FsReply::Size(f.word()),
            FsReply::Done,
            FsReply::Failed,
        ];
        for m in fs_replies {
            round_trip(m, FsReply::encode, FsReply::decode, |_| None);
        }
        let tx = [
            TxRequest::Attach,
            TxRequest::Begin,
            TxRequest::Log(f.word(), f.word(), f.data(), f.data()),
            TxRequest::Commit(f.word()),
            TxRequest::Abort(f.word()),
            TxRequest::Stats,
        ];
        for m in tx {
            round_trip(m, TxRequest::encode, TxRequest::decode, tx_request_data);
        }
        let tx_replies = [
            TxReply::Attached(f.word(), f.right()),
            TxReply::Began(f.word()),
            TxReply::Done,
            TxReply::Stats(f.word(), f.word()),
            TxReply::Failed,
        ];
        for m in tx_replies {
            round_trip(m, TxReply::encode, TxReply::decode, |_| None);
        }
        let bb = [
            BbRequest::Post(f.word(), f.payload()),
            BbRequest::Read(f.word()),
            BbRequest::Evaluate(f.word(), f.word()),
        ];
        for m in bb {
            round_trip(m, BbRequest::encode, BbRequest::decode, |_| None);
        }
        let bb_replies = [
            BbReply::Slot(f.word(), f.word(), f.payload()),
            BbReply::Done,
            BbReply::Rejected,
        ];
        for m in bb_replies {
            round_trip(m, BbReply::encode, BbReply::decode, |_| None);
        }
        let shm = [
            ShmRequest::Lookup(f.name(), f.word()),
            ShmRequest::Inspect(f.name()),
        ];
        for m in shm {
            round_trip(m, ShmRequest::encode, ShmRequest::decode, |_| None);
        }
        let shm_replies = [
            ShmReply::Region(f.word(), f.right()),
            ShmReply::Inspected(f.word(), f.word(), f.word(), f.data()),
            ShmReply::Failed,
        ];
        for m in shm_replies {
            round_trip(m, ShmReply::encode, ShmReply::decode, shm_reply_data);
        }
        let array = ArrayRequest::Attach;
        round_trip(array, ArrayRequest::encode, ArrayRequest::decode, |_| None);
        let attached = ArrayReply::Attached(f.word(), f.right());
        round_trip(attached, ArrayReply::encode, ArrayReply::decode, |_| None);
        let regions = [
            RegionMessage::Handle(f.word(), f.right()),
            RegionMessage::Eager(f.word(), f.data()),
        ];
        for m in regions {
            round_trip(m, RegionMessage::encode, RegionMessage::decode, region_data);
        }
    }
}

/// A message with `id` and zero to four items of random kinds and sizes.
fn random_message(rng: &mut SplitMix64, id: u32, right: &SendRight) -> Message {
    let tags = [
        TypeTag::Byte,
        TypeTag::Char,
        TypeTag::Int32,
        TypeTag::Int64,
        TypeTag::Bool,
    ];
    let mut msg = Message::new(id);
    for _ in 0..rng.next_below(5) {
        let len = rng.next_below(41) as usize;
        let item = match rng.next_below(5) {
            0 => MsgItem::Inline {
                tag: tags[rng.next_below(5) as usize],
                data: bytes(rng, len),
            },
            1 => MsgItem::u64s(&(0..len / 6).map(|_| rng.next_u64()).collect::<Vec<_>>()),
            2 => MsgItem::OutOfLine(OolBuffer::from_vec(bytes(rng, len))),
            3 => MsgItem::SendRights(vec![right.clone(); len % 4]),
            _ => MsgItem::Opaque {
                tag: rng.next_u64() as u32,
                handle: Arc::new(()),
            },
        };
        msg.body.push(item);
    }
    msg
}

/// No decoder panics on what any sender may put on its port: 10 000
/// random messages, each with an id from one of the protocols (0x2306,
/// unassigned, is inside Table 3-6's range) and random items, go to every
/// decoder.
#[test]
fn protocol_decoders_never_panic() {
    let ids: Vec<u32> = (0x2200..=0x2205)
        .chain(0x2300..=0x2307)
        .chain(0x2500..=0x2507)
        .chain((0x3101..=0x3107).chain([0x3180, 0x3181]))
        .chain((0x4101..=0x4106).chain([0x4180, 0x4181]))
        .chain((0x4701..=0x4706).chain([0x4780, 0x4781, 0x4782]))
        .chain((0x4901..=0x4903).chain([0x4980, 0x4981]))
        .chain((0x4B01..=0x4B02).chain(0x4B80..=0x4B82))
        .chain([0x4601, 0x4680, 0x4A01, 0x4A02])
        .collect();
    let (_port, right) = ReceiveRight::allocate(&Machine::default_machine());
    let mut rng = SplitMix64::new(0xDEC0DE);
    let mut decoded = 0;
    for _ in 0..10_000 {
        let id = ids[rng.next_below(ids.len() as u64) as usize];
        let seed = rng.next_u64();
        let msg = || random_message(&mut SplitMix64::new(seed), id, &right);
        decoded += [
            KernelToManager::decode(msg()).is_ok(),
            ManagerToKernel::decode(msg()).is_ok(),
            HostRequest::decode(msg()).is_ok(),
            TaskRequest::decode(msg()).is_ok(),
            TaskReply::decode(msg()).is_ok(),
            FsRequest::decode(msg()).is_ok(),
            FsReply::decode(msg()).is_ok(),
            TxRequest::decode(msg()).is_ok(),
            TxReply::decode(msg()).is_ok(),
            BbRequest::decode(msg()).is_ok(),
            BbReply::decode(msg()).is_ok(),
            ShmRequest::decode(msg()).is_ok(),
            ShmReply::decode(msg()).is_ok(),
            ArrayRequest::decode(msg()).is_ok(),
            ArrayReply::decode(msg()).is_ok(),
            RegionMessage::decode(msg()).is_ok(),
        ]
        .iter()
        .filter(|ok| **ok)
        .count();
    }
    // Some random bodies do fit their id: the decoders were exercised
    // past their id check.
    assert!(decoded > 100, "only {decoded} random messages decoded");
}
