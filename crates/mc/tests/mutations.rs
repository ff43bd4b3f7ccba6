//! Mutation fixtures: each protocol model, with its guarding fix
//! deliberately reverted, must reproduce a counterexample — proof the
//! checker would catch the bug class the protocol exists to prevent
//! (same style as the machlint fixtures: positives must fire, the
//! genuine article must stay clean).
//!
//! The genuine models are additionally checked clean here so a broken
//! protocol extraction cannot hide behind a green `--all` that only ran
//! in check.sh, and one counterexample schedule is replayed to pin the
//! determinism contract.

use machmc::models::{park_resume, sched_shutdown, shootdown};
use machmc::Report;

/// The genuine model must be clean, complete, and actually exercise its
/// invariant assertions.
fn assert_clean(r: &Report) {
    assert!(
        r.failure.is_none(),
        "genuine `{}` must be clean:\n{}",
        r.model,
        r.render_failure().unwrap_or_default()
    );
    assert!(!r.incomplete, "genuine `{}` search must finish", r.model);
    assert!(
        r.assertions > 0,
        "genuine `{}` never reached its invariant assertions",
        r.model
    );
}

/// A mutated model must produce a counterexample.
fn assert_caught(r: &Report, what: &str) {
    assert!(
        r.failure.is_some(),
        "mutation `{what}` of `{}` was NOT caught ({} executions explored)",
        r.model,
        r.executions
    );
}

#[test]
fn park_resume_genuine_is_clean() {
    assert_clean(&park_resume::check(None, None));
}

#[test]
fn park_resume_without_recheck_is_caught() {
    // Parking without re-probing the wait under the table lock drops a
    // fill that completed between step and park.
    assert_caught(
        &park_resume::check(None, Some(park_resume::Mutation::SkipRecheck)),
        "SkipRecheck",
    );
}

#[test]
fn park_resume_with_the_event_before_the_last_install_is_caught() {
    // Reporting a two-page fill's one event before its second page is in
    // wakes the fault to park again on that page, with no event to come.
    assert_caught(
        &park_resume::check(None, Some(park_resume::Mutation::EventBeforeLastInstall)),
        "EventBeforeLastInstall",
    );
}

#[test]
fn park_resume_forgetting_what_a_nested_event_woke_is_caught() {
    // A page event raised inside another fault's step takes the parked
    // fault off the table onto that thread's list; a call that returns
    // without resuming the list strands the fault's ticket.
    assert_caught(
        &park_resume::check(None, Some(park_resume::Mutation::ForgetDeferred)),
        "ForgetDeferred",
    );
}

#[test]
fn shootdown_genuine_is_clean() {
    assert_clean(&shootdown::check(None, None));
}

#[test]
fn shootdown_split_across_two_holds_is_caught() {
    // Shooting down and writing under separate lock holds lets the
    // replication policy re-grow a stale replica in between.
    assert_caught(
        &shootdown::check(None, Some(shootdown::Mutation::SplitLockHold)),
        "SplitLockHold",
    );
}

#[test]
fn sched_shutdown_genuine_is_clean() {
    assert_clean(&sched_shutdown::check(None, None));
}

#[test]
fn sched_shutdown_skipping_drain_is_caught() {
    // Exiting on stop without draining the local queue strands any unit
    // pushed after the worker's last take.
    assert_caught(
        &sched_shutdown::check(None, Some(sched_shutdown::Mutation::SkipDrain)),
        "SkipDrain",
    );
}

#[test]
fn sched_shutdown_without_bridge_is_caught() {
    // Notifying without the empty idle critical section can land the
    // wakeup between the worker's under-lock re-check and its wait.
    assert_caught(
        &sched_shutdown::check(None, Some(sched_shutdown::Mutation::NoBridge)),
        "NoBridge",
    );
}

#[test]
fn counterexample_schedules_replay() {
    // The replay contract end-to-end on a real model: a recorded
    // counterexample schedule reproduces the same failure class.
    let r = park_resume::check(None, Some(park_resume::Mutation::SkipRecheck));
    let f = r.failure.expect("SkipRecheck produces a counterexample");
    // Replay runs the *genuine* model: the recorded schedule exercises
    // the same window, but the re-check defuses it — the replay must at
    // least complete without diverging from the recorded decisions.
    let replayed = park_resume::replay(&f.schedule);
    if let Some(rf) = &replayed.failure {
        assert!(
            !rf.message.contains("diverged"),
            "replay must follow the recorded schedule: {}",
            rf.message
        );
    }
}

#[test]
fn preemption_bound_still_catches_the_missing_recheck() {
    // CI runs `--bound 3`; the cheapest real bug must still be in reach.
    assert_caught(
        &park_resume::check(Some(3), Some(park_resume::Mutation::SkipRecheck)),
        "SkipRecheck under --bound 3",
    );
}
