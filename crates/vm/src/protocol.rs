//! The continuation park/recheck and replication shootdown protocols,
//! distilled into the predicates both the production paths
//! ([`crate::continuation`], [`crate::resident`]) and the machmc models
//! (`crates/mc/src/models/`) call, so model and kernel cannot silently
//! diverge.

/// Whether a stepped continuation must park: only if the wait that made
/// it yield *still* blocks, re-probed under the continuation-table lock.
/// Parking on a stale wait drops the page event that already fired —
/// the race machmc's `park_resume` model checks; the pager's completion
/// takes the same table lock before taking a parked continuation off the
/// table to resume it, so the re-check and the wakeup serialize.
#[must_use]
pub fn must_park(wait_still_blocked: bool) -> bool {
    wait_still_blocked
}

/// Whether an engine call resumes, before it returns, what its thread's
/// page events woke: only the thread's outermost call does, so resumes
/// never nest. Skipping that strands a fault taken off the table —
/// machmc's `park_resume` model raises an event inside another's step.
#[must_use]
pub fn resumes_on_return(outermost: bool) -> bool {
    outermost
}

/// How a write to a replicated page begins: every replica (there may be
/// none) is shot down first, under the *same continuous* write hold of
/// the resident table as the primary mutation. A reader then serializes entirely
/// before the shootdown (stale replica, old data — consistent) or
/// entirely after the write (no replica, new data) — read-your-writes,
/// machmc's `shootdown` model.
#[must_use]
pub fn write_requires_shootdown(replicas: usize) -> bool {
    replicas > 0
}

/// Whether a reader holding the resident table may serve from a replica it
/// found in the table: presence under the lock is sufficient, because
/// [`write_requires_shootdown`] guarantees no replica survives into the
/// post-write half of any writer's critical section.
#[must_use]
pub fn replica_serves_read(present_under_lock: bool) -> bool {
    present_under_lock
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_iff_still_blocked() {
        assert!(must_park(true));
        assert!(!must_park(false));
    }

    #[test]
    fn only_the_outermost_call_resumes() {
        assert!(resumes_on_return(true));
        assert!(!resumes_on_return(false));
    }

    #[test]
    fn shootdown_and_replica_read() {
        assert!(!write_requires_shootdown(0));
        assert!(write_requires_shootdown(2));
        assert!(replica_serves_read(true));
        assert!(!replica_serves_read(false));
    }
}
