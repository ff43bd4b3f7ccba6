//! The scheduler's push→touch→notify idle-parking and shutdown-drain
//! protocol, distilled into the predicates both the production worker
//! loop and the machmc `sched_shutdown` model call, so model and kernel
//! cannot silently diverge.

/// Whether a per-CPU queue's lock-free depth mirror shows work. The
/// mirror is only a hint (the queue lock is the truth), but the
/// park-side re-check below reads it under the idle lock, which every
/// submitter's empty `idle` critical section serializes with.
#[must_use]
pub fn queue_nonempty(depth: usize) -> bool {
    depth > 0
}

/// Whether an idle worker may block on the wake signal: only if, re-
/// checked *under the idle lock*, there is still no visible work and no
/// stop request. A submitter pushes, then bridges through the idle lock
/// (`drop(idle.lock())`), then notifies — so its push can never land
/// between this re-check and the wait's atomic release-and-sleep, the
/// lost-wakeup window machmc's `sched_shutdown` model checks.
#[must_use]
pub fn worker_may_park(has_work: bool, stop: bool) -> bool {
    !has_work && !stop
}

/// Whether a submission may be queued at all: after stop, queues are
/// draining and the submitter must run the unit inline instead (no unit
/// is ever lost, merely displaced onto the caller).
#[must_use]
pub fn accepts_units(stop: bool) -> bool {
    !stop
}

/// Whether a worker that observed stop must keep draining its local
/// queue before exiting: as long as the queue still yields units.
/// Submissions racing the stop flag either saw it (ran inline) or
/// pushed before the workers' final drain — either way every unit runs.
#[must_use]
pub fn drain_after_stop(local_has_units: bool) -> bool {
    local_has_units
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_needs_quiet_and_live() {
        assert!(worker_may_park(false, false));
        assert!(!worker_may_park(true, false));
        assert!(!worker_may_park(false, true));
    }

    #[test]
    fn depth_mirror_and_drain() {
        assert!(!queue_nonempty(0));
        assert!(queue_nonempty(3));
        assert!(accepts_units(false));
        assert!(!accepts_units(true));
        assert!(drain_after_stop(true));
        assert!(!drain_after_stop(false));
    }
}
