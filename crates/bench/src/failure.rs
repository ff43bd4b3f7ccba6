//! E13 — memory failure handling (Sections 6.1 and 6.2).
//!
//! One row per failure mode from the paper's list, each exercised against
//! the corresponding defense: fault timeouts ("the same options provided
//! for communications failure may be applied to memory failures"),
//! zero-fill substitution, and default-pager takeover for managers that
//! hoard laundry.

use crate::table::Table;
use machcore::{spawn_manager, Kernel, KernelConfig, Task};

use machpagers::{FileServer, FsClient};
use machsim::stats::keys;
use machvm::{FaultPolicy, VmError};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

/// One failure-mode experiment outcome.
#[derive(Clone, Debug)]
pub struct FailureRow {
    /// The paper's failure mode.
    pub mode: String,
    /// The defense exercised.
    pub defense: String,
    /// What happened.
    pub outcome: String,
    /// Whether the kernel survived with the expected behaviour.
    pub ok: bool,
}

/// Runs every failure scenario.
pub fn run_default() -> Vec<FailureRow> {
    let mut rows = Vec::new();

    // 1. Data manager doesn't return data -> fault timeout aborts.
    {
        let k = Kernel::boot(KernelConfig::default());
        let t = Task::create(&k, "victim");
        t.map()
            .set_fault_policy(FaultPolicy::abort_after(Duration::from_millis(50)));
        let mgr = spawn_manager(
            k.machine(),
            "silent",
            machpagers::hostile::SilentPager::default(),
        );
        let addr = t.vm_allocate_with_pager(None, 4096, mgr.port(), 0).unwrap();
        let mut b = [0u8; 1];
        let err = t.read_memory(addr, &mut b);
        rows.push(FailureRow {
            mode: "manager never supplies data".into(),
            defense: "fault timeout, abort request".into(),
            outcome: format!("{err:?}"),
            ok: err == Err(VmError::Timeout),
        });
    }

    // 2. Same failure, zero-fill substitution.
    {
        let k = Kernel::boot(KernelConfig::default());
        let t = Task::create(&k, "victim");
        t.map()
            .set_fault_policy(FaultPolicy::zero_fill_after(Duration::from_millis(50)));
        let mgr = spawn_manager(
            k.machine(),
            "silent",
            machpagers::hostile::SilentPager::default(),
        );
        let addr = t.vm_allocate_with_pager(None, 4096, mgr.port(), 0).unwrap();
        let mut b = [7u8; 1];
        let res = t.read_memory(addr, &mut b);
        rows.push(FailureRow {
            mode: "manager never supplies data".into(),
            defense: "timeout, substitute zero-filled memory".into(),
            outcome: format!("read {:?} -> {}", res, b[0]),
            ok: res.is_ok() && b[0] == 0,
        });
    }

    // 3. Manager fails to free flushed data -> default pager takeover.
    {
        let k = Kernel::boot(KernelConfig {
            memory_bytes: 24 * 4096,
            reserve_pages: 4,
            ..KernelConfig::default()
        });
        let t = Task::create(&k, "writer");
        let mgr = spawn_manager(
            k.machine(),
            "hoarder",
            machpagers::hostile::HoarderPager {
                hoarded: Arc::new(AtomicU64::new(0)),
            },
        );
        let pages = 256u64;
        let addr = t
            .vm_allocate_with_pager(None, pages * 4096, mgr.port(), 0)
            .unwrap();
        // Two passes with the hoarder's deadline between them: the first
        // puts it far over its laundry limit, the second finds it still
        // there with nothing released.
        let mut all_written = true;
        for pass in 0..2 {
            if pass == 1 {
                machsim::wall::sleep(
                    machcore::backend::LAUNDRY_DEADLINE + Duration::from_millis(50),
                );
            }
            for i in 0..pages {
                all_written &= t.write_memory(addr + i * 4096, &[1]).is_ok();
            }
        }
        let takeovers = k
            .machine()
            .stats
            .get(machsim::stats::keys::VM_DEFAULT_PAGER_TAKEOVERS);
        rows.push(FailureRow {
            mode: "manager hoards written-back data".into(),
            defense: "laundry limit + deadline, default pager takeover".into(),
            outcome: format!("{takeovers} pageouts diverted"),
            ok: all_written && takeovers > 0,
        });
    }

    // 4. Manager floods the cache -> extra pages visible, kernel healthy.
    {
        let k = Kernel::boot(KernelConfig::default());
        let t = Task::create(&k, "victim");
        let mgr = spawn_manager(
            k.machine(),
            "flood",
            machpagers::hostile::FloodPager { burst_pages: 16 },
        );
        let addr = t
            .vm_allocate_with_pager(None, 64 * 4096, mgr.port(), 0)
            .unwrap();
        let mut b = [0u8; 1];
        let res = t.read_memory(addr, &mut b);
        machsim::wall::sleep(Duration::from_millis(100));
        let resident = k.phys().resident_pages();
        rows.push(FailureRow {
            mode: "manager floods the cache".into(),
            defense: "replacement reclaims; flood observable".into(),
            outcome: format!("1 fault -> {resident} resident pages"),
            ok: res.is_ok() && resident >= 16,
        });
    }

    // 5. Manager backs its own data -> vm_regions reveals the hazard.
    {
        let k = Kernel::boot(KernelConfig::default());
        let dev = Arc::new(machstorage::BlockDevice::new(k.machine(), 64));
        let fsd = Arc::new(machstorage::FlatFs::format(dev, 0));
        let server = FileServer::start(k.machine(), fsd);
        let client = FsClient::new(server.port().clone());
        server.fs().create("self").unwrap();
        server.fs().write("self", 0, &[0u8; 4096]).unwrap();
        let t = Task::create(&k, "introspector");
        let (addr, size) = client.read_file(&t, "self").unwrap();
        // §6.1: "A task may use the vm_regions call to obtain information
        // about the makeup of its address space" to avoid touching memory
        // it provides itself.
        let regions = t.vm_regions();
        let covered = regions
            .iter()
            .any(|r| r.start <= addr && addr + size <= r.start + r.size);
        rows.push(FailureRow {
            mode: "manager backs its own data (deadlock risk)".into(),
            defense: "vm_regions exposes the backing object".into(),
            outcome: format!("{} regions, mapping visible: {covered}", regions.len()),
            ok: covered,
        });
    }

    // 6. Communication analogy: msg_receive timeout mirrors fault timeout.
    {
        let k = Kernel::boot(KernelConfig::default());
        let (rx, _tx) = machipc::ReceiveRight::allocate(k.machine());
        let t0 = machsim::wall::now();
        let err = rx.receive(Some(Duration::from_millis(50)));
        let ipc_timeout = matches!(err, Err(machipc::IpcError::Timeout));
        rows.push(FailureRow {
            mode: "communication failure (silent sender)".into(),
            defense: "msg_receive timeout (the §6.2.1 analogy)".into(),
            outcome: format!("timed out after {:?}", t0.elapsed()),
            ok: ipc_timeout,
        });
        let _ = k.machine().stats.get(keys::MSG_SENT);
    }

    rows
}

/// Renders the E13 table.
pub fn table(rows: &[FailureRow]) -> Table {
    let mut t = Table::new(
        "E13 — memory failure modes and defenses (Section 6)",
        &["failure mode", "defense", "outcome", "ok"],
    );
    for r in rows {
        t.row(&[
            r.mode.clone(),
            r.defense.clone(),
            r.outcome.clone(),
            if r.ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_defense_holds() {
        for row in run_default() {
            assert!(row.ok, "failure scenario regressed: {row:?}");
        }
    }
}
