//! Copy-on-reference task migration (Section 8.2).
//!
//! "Edward Zayas showed that migration could be performed efficiently
//! using copy-on-reference techniques. The task migration service can
//! create a memory object to represent a region of the original task's
//! address space, and map that region into the new task's address space on
//! the remote host. The kernel managing the remote host treats page faults
//! on the newly-migrated task by making paging requests on that memory
//! object, just as it does for other tasks."
//!
//! Three strategies, per the paper's discussion of generality:
//!
//! * [`MigrationStrategy::Eager`] — copy the whole address space before
//!   the task resumes (the baseline migration cost model);
//! * [`MigrationStrategy::CopyOnReference`] — pages move only when
//!   referenced;
//! * pre-paging — `CopyOnReference` with a prefetch window: "the migration
//!   manager may provide some data in advance for tasks with predictable
//!   access patterns".

use crate::netshm::map_and_await_init;
use machcore::{spawn_manager, DataManager, Kernel, KernelConn, ManagerHandle, Task};
use machipc::OolBuffer;
use machnet::{Fabric, Host};
use machsim::stats::keys;
use machvm::{VmError, VmProt};
use std::fmt;
use std::sync::Arc;

const PAGE: u64 = 4096;

/// How a task's memory moves to the new host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationStrategy {
    /// Transfer every page before the task resumes.
    Eager,
    /// Transfer pages on first reference; `prefetch_pages` extra pages per
    /// fault model the paper's pre-paging option (0 = pure on-demand).
    CopyOnReference {
        /// Additional pages shipped with every demand fill.
        prefetch_pages: u64,
    },
}

/// The migration manager's pager: serves the origin task's memory over
/// the network. Transfers are charged by the network message server the
/// destination kernel reaches the pager through.
struct MigrationPager {
    /// Snapshot of the origin region (the origin task is frozen during
    /// migration, so a snapshot is equivalent to reading it lazily).
    source: Arc<Vec<u8>>,
    prefetch_pages: u64,
}

impl DataManager for MigrationPager {
    fn init(&mut self, kernel: &KernelConn, object: u64) {
        // Copy-on-reference means *only referenced pages* cross the
        // network; kernel cluster paging would drag whole runs over the
        // wire on every fault. Pre-paging stays a manager decision
        // (`prefetch_pages`), per §8.2.
        kernel.set_cluster(object, 1);
    }

    fn data_request(
        &mut self,
        kernel: &KernelConn,
        object: u64,
        offset: u64,
        length: u64,
        _access: VmProt,
    ) {
        // Demand pages plus the prefetch window, clamped to the region.
        let total = (length + self.prefetch_pages * PAGE)
            .min(self.source.len() as u64 - offset.min(self.source.len() as u64));
        let end = (offset + total).min(self.source.len() as u64);
        if offset >= end {
            kernel.data_unavailable(object, offset, length);
            return;
        }
        let data = self.source[offset as usize..end as usize].to_vec();
        kernel.data_provided(object, offset, OolBuffer::from_vec(data), VmProt::NONE);
    }
}

/// Outcome of a migration.
#[derive(Clone, Debug)]
pub struct MigrationReport {
    /// Simulated nanoseconds from migration start until the task could
    /// execute its first instruction on the new host.
    pub resume_latency_ns: u64,
    /// Bytes moved across the network before resume.
    pub bytes_before_resume: u64,
    /// The migrated region's address in the new task.
    pub address: u64,
    /// Region size.
    pub size: u64,
}

/// The task migration service.
pub struct MigrationManager {
    fabric: Arc<Fabric>,
}

impl fmt::Debug for MigrationManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MigrationManager")
    }
}

/// A migrated task plus the pager keeping its origin pages reachable.
pub struct MigratedTask {
    /// The new task on the destination host.
    pub task: Arc<Task>,
    /// The report for this migration.
    pub report: MigrationReport,
    /// Keeps the copy-on-reference pager alive (None for eager).
    _pager: Option<ManagerHandle>,
}

impl MigrationManager {
    /// Creates a migration service over a fabric.
    pub fn new(fabric: &Arc<Fabric>) -> Self {
        Self {
            fabric: fabric.clone(),
        }
    }

    /// Migrates `[address, address+size)` of `source_task` (on
    /// `origin`) to a fresh task on `destination`/`dst_kernel`.
    #[allow(clippy::too_many_arguments)]
    pub fn migrate_region(
        &self,
        source_task: &Arc<Task>,
        origin: &Arc<Host>,
        address: u64,
        size: u64,
        dst_kernel: &Arc<Kernel>,
        destination: &Arc<Host>,
        strategy: MigrationStrategy,
    ) -> Result<MigratedTask, VmError> {
        // Freeze the origin task and snapshot the region (§8.2: the
        // memory object "represents a region of the original task's
        // address space").
        source_task.suspend();
        let snapshot = Arc::new(source_task.vm_read(address, size)?);
        let new_task = Task::create(dst_kernel, &format!("{}-migrated", source_task.name()));
        let t0 = destination.machine().clock.now_ns();
        let net0 = destination.machine().stats.get(keys::NET_BYTES);
        match strategy {
            MigrationStrategy::Eager => {
                // Ship everything, then build the task's memory.
                for end in [origin, destination] {
                    let m = end.machine();
                    m.clock.charge(m.cost.net_op_ns(size));
                    m.stats.incr(keys::NET_MESSAGES);
                    m.stats.add(keys::NET_BYTES, size);
                }
                let addr = new_task.vm_allocate(size)?;
                new_task.vm_write(addr, &snapshot)?;
                let report = MigrationReport {
                    resume_latency_ns: destination.machine().clock.now_ns() - t0,
                    bytes_before_resume: destination.machine().stats.get(keys::NET_BYTES) - net0,
                    address: addr,
                    size,
                };
                Ok(MigratedTask {
                    task: new_task,
                    report,
                    _pager: None,
                })
            }
            MigrationStrategy::CopyOnReference { prefetch_pages } => {
                let pager = MigrationPager {
                    source: snapshot,
                    prefetch_pages,
                };
                let handle = spawn_manager(origin.machine(), "migrate", pager);
                // The destination kernel reaches the pager through the
                // network message server.
                let proxied = self
                    .fabric
                    .proxy(destination, origin, handle.port().clone());
                // Until the pager's cluster advice lands, a fault would
                // pull a kernel-sized cluster and void the
                // copy-on-reference accounting.
                let addr = map_and_await_init(&new_task, proxied.port(), size)?;
                // Leak the proxy alongside the pager handle so the object
                // stays reachable for the task's lifetime.
                std::mem::forget(proxied);
                let report = MigrationReport {
                    resume_latency_ns: destination.machine().clock.now_ns() - t0,
                    bytes_before_resume: destination.machine().stats.get(keys::NET_BYTES) - net0,
                    address: addr,
                    size,
                };
                Ok(MigratedTask {
                    task: new_task,
                    report,
                    _pager: Some(handle),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machcore::KernelConfig;

    type HostKernel = (Arc<Host>, Arc<Kernel>);

    fn setup() -> (Arc<Fabric>, HostKernel, HostKernel) {
        let fabric = Fabric::new();
        let ha = fabric.add_host("origin");
        let hb = fabric.add_host("destination");
        let ka = Kernel::boot_on(ha.machine().clone(), KernelConfig::default());
        let kb = Kernel::boot_on(hb.machine().clone(), KernelConfig::default());
        (fabric, (ha, ka), (hb, kb))
    }

    fn make_source(k: &Arc<Kernel>, pages: u64) -> (Arc<Task>, u64) {
        let t = Task::create(k, "source");
        let addr = t.vm_allocate(pages * PAGE).unwrap();
        for i in 0..pages {
            t.write_memory(addr + i * PAGE, &[i as u8 + 1]).unwrap();
        }
        (t, addr)
    }

    #[test]
    fn eager_moves_everything_up_front() {
        let (fabric, (ha, ka), (hb, kb)) = setup();
        let (src, addr) = make_source(&ka, 16);
        let mm = MigrationManager::new(&fabric);
        let migrated = mm
            .migrate_region(
                &src,
                &ha,
                addr,
                16 * PAGE,
                &kb,
                &hb,
                MigrationStrategy::Eager,
            )
            .unwrap();
        assert_eq!(migrated.report.bytes_before_resume, 16 * PAGE);
        let mut b = [0u8; 1];
        migrated
            .task
            .read_memory(migrated.report.address + 5 * PAGE, &mut b)
            .unwrap();
        assert_eq!(b[0], 6);
    }

    #[test]
    fn copy_on_reference_moves_nothing_up_front() {
        let (fabric, (ha, ka), (hb, kb)) = setup();
        let (src, addr) = make_source(&ka, 16);
        let mm = MigrationManager::new(&fabric);
        let migrated = mm
            .migrate_region(
                &src,
                &ha,
                addr,
                16 * PAGE,
                &kb,
                &hb,
                MigrationStrategy::CopyOnReference { prefetch_pages: 0 },
            )
            .unwrap();
        // Only the pager_init control message crosses before resume.
        assert!(migrated.report.bytes_before_resume < PAGE);
        assert!(migrated.report.resume_latency_ns < 10_000_000);
        // Touch three pages: only those cross the network.
        let net0 = hb.machine().stats.get(keys::NET_BYTES);
        for page in [0u64, 7, 15] {
            let mut b = [0u8; 1];
            migrated
                .task
                .read_memory(migrated.report.address + page * PAGE, &mut b)
                .unwrap();
            assert_eq!(b[0], page as u8 + 1);
        }
        let moved = hb.machine().stats.get(keys::NET_BYTES) - net0;
        // 3 demand pages (plus protocol crossings via the proxy).
        assert!((3 * PAGE..6 * PAGE).contains(&moved), "moved {moved}");
    }

    #[test]
    fn eager_is_slower_to_resume_but_touching_everything_evens_out() {
        let (fabric, (ha, ka), (hb, kb)) = setup();
        let (src, addr) = make_source(&ka, 64);
        let mm = MigrationManager::new(&fabric);
        let eager = mm
            .migrate_region(
                &src,
                &ha,
                addr,
                64 * PAGE,
                &kb,
                &hb,
                MigrationStrategy::Eager,
            )
            .unwrap();
        src.resume();
        let (src2, addr2) = make_source(&ka, 64);
        let cor = mm
            .migrate_region(
                &src2,
                &ha,
                addr2,
                64 * PAGE,
                &kb,
                &hb,
                MigrationStrategy::CopyOnReference { prefetch_pages: 0 },
            )
            .unwrap();
        assert!(
            cor.report.resume_latency_ns < eager.report.resume_latency_ns,
            "copy-on-reference resumes faster: {} vs {}",
            cor.report.resume_latency_ns,
            eager.report.resume_latency_ns
        );
    }

    #[test]
    fn prefetch_reduces_fault_count() {
        let (fabric, (ha, ka), (hb, kb)) = setup();
        let mm = MigrationManager::new(&fabric);
        let mut fills = Vec::new();
        for prefetch in [0u64, 7] {
            let (src, addr) = make_source(&ka, 32);
            let migrated = mm
                .migrate_region(
                    &src,
                    &ha,
                    addr,
                    32 * PAGE,
                    &kb,
                    &hb,
                    MigrationStrategy::CopyOnReference {
                        prefetch_pages: prefetch,
                    },
                )
                .unwrap();
            let fills0 = hb.machine().stats.get(keys::VM_PAGER_FILLS);
            // Sequential scan: the predictable pattern pre-paging targets.
            for page in 0..32u64 {
                let mut b = [0u8; 1];
                migrated
                    .task
                    .read_memory(migrated.report.address + page * PAGE, &mut b)
                    .unwrap();
            }
            fills.push(hb.machine().stats.get(keys::VM_PAGER_FILLS) - fills0);
            src.resume();
        }
        assert!(
            fills[1] * 2 < fills[0],
            "prefetching cut demand fills: {fills:?}"
        );
    }

    #[test]
    fn migrated_task_data_is_a_snapshot() {
        let (fabric, (ha, ka), (hb, kb)) = setup();
        let (src, addr) = make_source(&ka, 4);
        let mm = MigrationManager::new(&fabric);
        let migrated = mm
            .migrate_region(
                &src,
                &ha,
                addr,
                4 * PAGE,
                &kb,
                &hb,
                MigrationStrategy::CopyOnReference { prefetch_pages: 0 },
            )
            .unwrap();
        // The origin resumes and scribbles; the migrated task still sees
        // the migration-time contents.
        src.resume();
        src.write_memory(addr, &[0xEE]).unwrap();
        let mut b = [0u8; 1];
        migrated
            .task
            .read_memory(migrated.report.address, &mut b)
            .unwrap();
        assert_eq!(b[0], 1);
    }
}
