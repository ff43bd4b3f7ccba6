//! Replication write-shootdown (`machvm::resident::numa_write_if`).
//!
//! A read-hot page may have per-node read-only replicas. A write shoots
//! the whole replica set down *and* mutates the primary under one
//! continuous write hold of the resident table
//! ([`protocol::write_requires_shootdown`]),
//! so a racing reader — or the replication policy re-growing a replica
//! — serializes entirely before the shootdown or entirely after the
//! write.
//!
//! Invariant: read-your-writes — a read after a write never observes a
//! stale replica.

use crate::exec::Tid;
use crate::{Checker, Mutex, Report};
use machvm::protocol;
use std::sync::Arc;

/// Deliberate protocol breakages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// The writer releases the table between the shootdown and the
    /// primary write: the replication policy can sneak a stale replica
    /// back in between the two halves.
    SplitLockHold,
}

/// One resident table entry: the primary's data and, when present, a
/// node-local replica copy.
struct Entry {
    primary: usize,
    replica: Option<usize>,
}

fn body(mutation: Option<Mutation>) {
    let table = Arc::new(Mutex::new(
        "resident",
        Entry {
            primary: 0,
            replica: Some(0),
        },
    ));

    // The replication policy: re-grows a replica from the primary
    // whenever it finds none (production `replicate_locked`).
    let replicator = {
        let table = table.clone();
        crate::spawn(move || {
            let mut s = table.lock();
            if s.replica.is_none() {
                s.replica = Some(s.primary);
            }
        })
    };

    // The writer runs on the main thread: shoot down, then write.
    if mutation == Some(Mutation::SplitLockHold) {
        {
            let mut s = table.lock();
            if protocol::write_requires_shootdown(usize::from(s.replica.is_some())) {
                s.replica = None;
            }
        }
        {
            let mut s = table.lock();
            s.primary = 1;
        }
    } else {
        let mut s = table.lock();
        if protocol::write_requires_shootdown(usize::from(s.replica.is_some())) {
            s.replica = None;
        }
        s.primary = 1;
    }

    // Read-your-writes: the writer's own read, replica-preferring like
    // `numa_read_if`.
    {
        let s = table.lock();
        let v = if protocol::replica_serves_read(s.replica.is_some()) {
            s.replica.expect("replica_serves_read implies presence")
        } else {
            s.primary
        };
        crate::assert(v == 1, "read-your-writes after shootdown");
    }

    replicator.join();
}

/// Explores the model; `mutation = None` is the genuine protocol.
pub fn check(bound: Option<usize>, mutation: Option<Mutation>) -> Report {
    Checker::new()
        .bound(bound)
        .check("shootdown", move || body(mutation))
}

/// Replays one recorded schedule against the genuine model.
pub fn replay(schedule: &[Tid]) -> Report {
    Checker::new().replay("shootdown", schedule, || body(None))
}
