//! `pager_read` and `pager_write` — memory implemented *by* communication.
//!
//! Both map a 16 MiB object served by the benchmark's own in-memory
//! `DataManager` into a kernel with 4 MiB of memory, so the working set is
//! four times memory and eviction is constant.
//!
//! `pager_read`: two client threads of one task, each owning a disjoint
//! half of the object, do what `MachUnix::read` does — `fault_ahead` over
//! 64 KiB at a seeded aligned offset, then `read_memory` of those 16
//! pages. Many faults are outstanding at once: continuation engine,
//! cluster fills, `send_many` batching, the manager runtime, resident
//! shards under two clients. Evictions are clean.
//!
//! `pager_write`: one client writes 8 bytes at a seeded page — a blocking
//! single-page write fault, and in steady state about one dirty pageout
//! per op (`pager_data_write` + `release_laundry`). The same layers, used
//! differently: a read-path gain that costs the write path shows here.

use super::{client_rng, OpSamples, Workload, PAGE};
use crate::spans;
use machcore::{spawn_manager, DataManager, Kernel, KernelConfig, KernelConn, ManagerHandle, Task};
use machipc::OolBuffer;
use machsim::{Machine, SplitMix64};
use machvm::VmProt;
use std::sync::Arc;

const MEMORY_BYTES: usize = 4 << 20;
const OBJECT_BYTES: u64 = 16 << 20;
const OBJECT_PAGES: u64 = OBJECT_BYTES / PAGE;
const WORDS_PER_PAGE: u64 = PAGE / 8;
/// Bytes one `pager_read` op covers.
const READ_BYTES: u64 = 64 << 10;
/// Where in its page a `pager_write` op writes (word 0 keeps the pattern).
const WRITE_AT: u64 = 64;

/// Word `w` of page `page` as the pager first supplies it.
fn pattern(page: u64, w: u64) -> u64 {
    page * WORDS_PER_PAGE + w
}

/// The benchmark's data manager: serves a computed pattern, stores what
/// it is sent, and serves that back. Its callbacks are span boundaries.
struct BenchPager {
    /// Clients own equal, disjoint ranges of the object; a request is
    /// attached to the op of the client whose range it falls in.
    bytes_per_client: u64,
    written_back: Vec<Option<Box<[u8]>>>,
}

impl BenchPager {
    fn new(clients: u64) -> Self {
        Self {
            bytes_per_client: OBJECT_BYTES / clients,
            written_back: vec![None; OBJECT_PAGES as usize],
        }
    }

    fn client_of(&self, offset: u64) -> usize {
        ((offset / self.bytes_per_client) as usize).min(spans::MAX_CLIENTS - 1)
    }
}

impl DataManager for BenchPager {
    fn data_request(
        &mut self,
        kernel: &KernelConn,
        object: u64,
        offset: u64,
        length: u64,
        _access: VmProt,
    ) {
        // The span is the pager's own time only; the reply send belongs
        // to the reply path.
        let span = spans::child("manager.data_request", self.client_of(offset));
        let mut data = vec![0u8; length as usize];
        for (i, out) in data.chunks_mut(PAGE as usize).enumerate() {
            let page = offset / PAGE + i as u64;
            match self.written_back.get(page as usize) {
                Some(Some(stored)) => out.copy_from_slice(&stored[..out.len()]),
                _ => {
                    for (w, word) in out.chunks_exact_mut(8).enumerate() {
                        word.copy_from_slice(&pattern(page, w as u64).to_le_bytes());
                    }
                }
            }
        }
        drop(span);
        kernel.data_provided(object, offset, OolBuffer::from_vec(data), VmProt::NONE);
    }

    fn data_write(&mut self, kernel: &KernelConn, object: u64, offset: u64, data: OolBuffer) {
        let span = spans::child("manager.data_write", self.client_of(offset));
        for (i, page) in data.as_slice().chunks(PAGE as usize).enumerate() {
            if let Some(slot) = self.written_back.get_mut((offset / PAGE) as usize + i) {
                *slot = Some(page.into());
            }
        }
        drop(span);
        kernel.release_laundry(object, data.len() as u64);
    }
}

/// Kernel, task, manager and the mapped object both workloads start from.
struct Rig {
    // Field order is drop order: unmap, stop the manager, stop the kernel.
    task: Arc<Task>,
    _manager: ManagerHandle,
    kernel: Arc<Kernel>,
    base: u64,
}

fn rig(clients: u64, label: &str) -> Rig {
    let kernel = Kernel::boot(KernelConfig::with_memory(MEMORY_BYTES));
    let manager = spawn_manager(kernel.machine(), label, BenchPager::new(clients));
    let task = Task::create(&kernel, label);
    let base = task
        .vm_allocate_with_pager(None, OBJECT_BYTES, manager.port(), 0)
        .expect("map the benchmark pager's object");
    Rig {
        task,
        _manager: manager,
        kernel,
        base,
    }
}

pub struct PagerRead {
    rig: Rig,
    clients: [ReadClient; 2],
}

struct ReadClient {
    rng: SplitMix64,
    buf: Vec<u8>,
}

/// Seeded 64 KiB-aligned offset inside `client`'s half of the object.
pub fn read_offset(rng: &mut SplitMix64, client: u64) -> u64 {
    let half = OBJECT_BYTES / 2;
    client * half + rng.next_below(half / READ_BYTES) * READ_BYTES
}

pub fn setup_read(seed: u64) -> Box<dyn Workload> {
    let client = |c| ReadClient {
        rng: client_rng(seed, c),
        buf: vec![0u8; READ_BYTES as usize],
    };
    Box::new(PagerRead {
        rig: rig(2, "pager-read"),
        clients: [client(0), client(1)],
    })
}

fn verify_read(offset: u64, buf: &[u8]) -> Result<(), String> {
    for (i, word) in buf.chunks_exact(8).enumerate() {
        let (page, w) = (
            offset / PAGE + i as u64 / WORDS_PER_PAGE,
            i as u64 % WORDS_PER_PAGE,
        );
        if word != pattern(page, w).to_le_bytes() {
            return Err(format!("read at {offset:#x}: wrong bytes in page {page}"));
        }
    }
    Ok(())
}

impl Workload for PagerRead {
    fn machine(&self) -> &Machine {
        self.rig.kernel.machine()
    }

    fn kernel(&self) -> Option<&Arc<Kernel>> {
        Some(&self.rig.kernel)
    }

    fn round(&mut self, ops: usize, out: &mut OpSamples) {
        let (task, base) = (&self.rig.task, self.rig.base);
        let clock = &self.rig.kernel.machine().clock;
        let per_client = ops / self.clients.len();
        let results: Vec<OpSamples> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || {
                        let mut mine = OpSamples::with_capacity(per_client);
                        for _ in 0..per_client {
                            let offset = read_offset(&mut client.rng, c as u64);
                            let addr = base + offset;
                            let buf = &mut client.buf;
                            let done = mine.time(clock, c, || {
                                task.map()
                                    .fault_ahead(addr, READ_BYTES, VmProt::READ)
                                    .map_err(|e| format!("fault_ahead {offset:#x}: {e}"))?;
                                task.read_memory(addr, buf)
                                    .map_err(|e| format!("read {offset:#x}: {e}"))
                            });
                            if done.is_some() {
                                if let Err(e) = verify_read(offset, &client.buf) {
                                    mine.fail(e);
                                }
                            }
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pager_read client panicked"))
                .collect()
        });
        for r in results {
            out.merge(r);
        }
    }
}

pub struct PagerWrite {
    rig: Rig,
    rng: SplitMix64,
    seq: u64,
    /// Last value written to each page (0 = never written).
    written: Vec<u64>,
}

pub fn setup_write(seed: u64) -> Box<dyn Workload> {
    Box::new(PagerWrite {
        rig: rig(1, "pager-write"),
        rng: client_rng(seed, 0),
        seq: 0,
        written: vec![0; OBJECT_PAGES as usize],
    })
}

impl Workload for PagerWrite {
    fn machine(&self) -> &Machine {
        self.rig.kernel.machine()
    }

    fn kernel(&self) -> Option<&Arc<Kernel>> {
        Some(&self.rig.kernel)
    }

    fn round(&mut self, ops: usize, out: &mut OpSamples) {
        let (task, base) = (&self.rig.task, self.rig.base);
        let clock = &self.rig.kernel.machine().clock;
        for _ in 0..ops {
            self.seq += 1;
            let (seq, page) = (self.seq, self.rng.next_below(OBJECT_PAGES));
            let done = out.time(clock, 0, || {
                task.write_memory(base + page * PAGE + WRITE_AT, &seq.to_le_bytes())
                    .map_err(|e| format!("write page {page}: {e}"))
            });
            if done.is_some() {
                self.written[page as usize] = seq;
            }
        }
    }

    /// Reads a seeded sample of written pages back: the evicted ones (most
    /// of them, at 4x memory) come back through `pager_data_write` and
    /// `pager_data_request`.
    fn final_check(&mut self) -> Vec<String> {
        let mut violations = Vec::new();
        let written: Vec<u64> = (0..OBJECT_PAGES)
            .filter(|&p| self.written[p as usize] != 0)
            .collect();
        for _ in 0..written.len().min(64) {
            let page = written[self.rng.next_below(written.len() as u64) as usize];
            let mut b = [0u8; (WRITE_AT + 8) as usize];
            let got = self
                .rig
                .task
                .read_memory(self.rig.base + page * PAGE, &mut b);
            let word = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
            if got.is_err()
                || word(0) != pattern(page, 0)
                || word(WRITE_AT as usize) != self.written[page as usize]
            {
                violations.push(format!("page {page} did not read back what was written"));
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_offsets_stay_in_the_clients_half() {
        for client in 0..2 {
            let mut rng = client_rng(3, client as usize);
            for _ in 0..1_000 {
                let off = read_offset(&mut rng, client);
                assert_eq!(off % READ_BYTES, 0);
                assert_eq!(off / (OBJECT_BYTES / 2), client);
                assert!(off + READ_BYTES <= OBJECT_BYTES);
            }
        }
    }
}
