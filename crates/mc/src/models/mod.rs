//! The three protocol models `machmc --all` checks.
//!
//! Each model is a distilled two-thread rendition of one production
//! protocol, written against the [`crate::sync`] shims and calling the
//! *same* `protocol` predicate modules the kernel routes through
//! (`machvm::protocol`, `machsched::protocol`), so the model and the
//! kernel cannot silently diverge. Each also carries a `Mutation` enum of
//! deliberate protocol breakages; the fixtures in `crates/mc/tests/`
//! prove every mutation still reproduces a counterexample, i.e. the
//! checker would catch the bug the protocol guards against.
//!
//! The port has no model: it is a monitor (one mutex, two condvars, every
//! decision under the lock), and machlint L8 checks that its waits loop.
//!
//! | model            | production protocol                  | invariant                      |
//! |------------------|--------------------------------------|--------------------------------|
//! | `park_resume`    | continuation table park/recheck, a   | never drops a page event       |
//! |                  | two-page run and its one range event,|                                |
//! |                  | an event raised in another's step    |                                |
//! | `shootdown`      | replication write-shootdown          | read-your-writes               |
//! | `sched_shutdown` | scheduler idle parking + shutdown    | no unit lost at shutdown       |

pub mod park_resume;
pub mod sched_shutdown;
pub mod shootdown;

use crate::exec::Tid;
use crate::Report;

/// Every model name, in the order `--all` checks them.
pub const ALL: &[&str] = &["park_resume", "shootdown", "sched_shutdown"];

/// Checks the genuine (unmutated) model `name` with an optional
/// preemption bound. `None` for an unknown name.
pub fn check(name: &str, bound: Option<usize>) -> Option<Report> {
    Some(match name {
        "park_resume" => park_resume::check(bound, None),
        "shootdown" => shootdown::check(bound, None),
        "sched_shutdown" => sched_shutdown::check(bound, None),
        _ => return None,
    })
}

/// Replays one recorded schedule against the genuine model `name`.
pub fn replay(name: &str, schedule: &[Tid]) -> Option<Report> {
    Some(match name {
        "park_resume" => park_resume::replay(schedule),
        "shootdown" => shootdown::replay(schedule),
        "sched_shutdown" => sched_shutdown::replay(schedule),
        _ => return None,
    })
}
