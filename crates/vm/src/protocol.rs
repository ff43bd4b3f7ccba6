//! The continuation park/recheck and replication shootdown protocols,
//! distilled into the predicates both the production paths
//! ([`crate::continuation`], [`crate::resident`]) and the machmc models
//! (`crates/mc/src/models/`) call, so model and kernel cannot silently
//! diverge.

/// Whether a stepped continuation must park: only if the wait that made
/// it yield *still* blocks, re-probed under the continuation-table lock.
/// Parking on a stale wait drops the page event that already fired —
/// the race machmc's `park_resume` model checks; the pager's completion
/// takes the same table lock before moving a parked continuation to the
/// ready list, so the re-check and the wakeup serialize.
#[must_use]
pub fn must_park(wait_still_blocked: bool) -> bool {
    wait_still_blocked
}

/// Whether the completion loop may sleep on its condvar: only with no
/// continuation ready, no pager run queued, and no stop requested — all
/// three read under the table lock that `on_range_event` and `shutdown`
/// take before notifying.
#[must_use]
pub fn engine_may_sleep(ready_empty: bool, runs_empty: bool, stop: bool) -> bool {
    ready_empty && runs_empty && !stop
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
    fn sleep_needs_total_quiet() {
        assert!(engine_may_sleep(true, true, false));
        assert!(!engine_may_sleep(false, true, false));
        assert!(!engine_may_sleep(true, false, false));
        assert!(!engine_may_sleep(true, true, true));
    }

    #[test]
    fn shootdown_and_replica_read() {
        assert!(!write_requires_shootdown(0));
        assert!(write_requires_shootdown(2));
        assert!(replica_serves_read(true));
        assert!(!replica_serves_read(false));
    }
}
