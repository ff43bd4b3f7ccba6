#![warn(missing_docs)]

//! machmc — a loom-style deterministic model checker for the kernel's
//! hand-rolled concurrency protocols.
//!
//! The memory/communication duality means every correctness claim in
//! this reproduction rests on a handful of small protocols: the
//! continuation table's park/recheck race, replication write-shootdown,
//! and the scheduler's push→touch→notify idle parking. Stress tests and
//! the lockdep witness *sample* schedules; machmc *enumerates* them.
//!
//! A model is an ordinary closure written against the [`sync`] shims
//! (`mc::AtomicUsize`, `mc::Mutex`, `mc::Condvar`, `mc::spawn`). The
//! engine runs it under a controlled scheduler — one virtual thread at a
//! time, a schedule point at every shared access — and drives an
//! exhaustive depth-first search over interleavings with sleep-set
//! reduction (DPOR-lite) and an optional preemption bound. A violated
//! [`sync::assert`], a panic, or a deadlock yields a counterexample: the
//! full interleaving plus a dot-separated schedule string replayable
//! with `machmc --model <m> --replay <schedule>`.
//!
//! The three protocol models live in [`models`]; they call the very same
//! `protocol` predicate modules (`machvm::protocol`,
//! `machsched::protocol`) the production code routes through, so model
//! and kernel cannot silently diverge. `scripts/
//! check.sh` and CI run `machmc --all` as a gate; `crates/mc/tests/`
//! holds mutation fixtures proving each model still catches the bug its
//! protocol guards against.

pub mod exec;
pub mod models;
pub mod sync;

pub use sync::{assert, spawn, spin, AtomicBool, AtomicUsize, Condvar, JoinHandle, Mutex};

use exec::{Ctl, Node, Outcome, Tid};
use std::sync::Mutex as StdMutex;

/// A counterexample: what went wrong and the schedule reaching it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Human-readable description (assertion text, deadlock report…).
    pub message: String,
    /// The decision sequence; replay with `--replay` after joining with
    /// dots.
    pub schedule: Vec<Tid>,
    /// The full interleaving, one transition per line.
    pub trace: Vec<String>,
}

impl Failure {
    /// The schedule as the dot-separated string `--replay` accepts.
    pub fn schedule_string(&self) -> String {
        self.schedule
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(".")
    }
}

/// The result of checking one model.
#[derive(Clone, Debug)]
pub struct Report {
    /// Model name.
    pub model: String,
    /// Complete interleavings executed (including sleep-set-pruned
    /// partial ones).
    pub executions: usize,
    /// Transitions newly explored across all executions.
    pub states: usize,
    /// Longest interleaving, in transitions.
    pub max_depth: usize,
    /// `mc::assert` checks performed across all executions.
    pub assertions: usize,
    /// Executions cut short as provably redundant or over the bound.
    pub pruned: usize,
    /// Wall-clock time spent, in milliseconds (host metric; the bench
    /// ratchet floors only the host-independent fields).
    pub wall_ms: u64,
    /// The first counterexample found, if any.
    pub failure: Option<Failure>,
    /// True if the search hit the execution cap before finishing.
    pub incomplete: bool,
}

impl Report {
    /// One summary line for check.sh / CI logs.
    pub fn summary(&self) -> String {
        let verdict = match (&self.failure, self.incomplete) {
            (Some(_), _) => "COUNTEREXAMPLE",
            (None, true) => "INCOMPLETE",
            (None, false) => "ok",
        };
        format!(
            "model {:<16} {:>7} states {:>6} executions  depth {:<3} asserts {:<6} {}",
            self.model, self.states, self.executions, self.max_depth, self.assertions, verdict
        )
    }

    /// The counterexample rendered for humans, if one was found.
    pub fn render_failure(&self) -> Option<String> {
        let f = self.failure.as_ref()?;
        let mut out = String::new();
        out.push_str(&format!(
            "counterexample in model `{}`: {}\n  interleaving:\n",
            self.model, f.message
        ));
        for line in &f.trace {
            out.push_str(&format!("    {line}\n"));
        }
        out.push_str(&format!(
            "  replay: machmc --model {} --replay {}\n",
            self.model,
            f.schedule_string()
        ));
        Some(out)
    }
}

/// Schedule explorer configuration.
pub struct Checker {
    bound: Option<usize>,
    max_executions: usize,
}

impl Default for Checker {
    fn default() -> Self {
        Checker::new()
    }
}

/// Executions are serialized process-wide: the engine parks threads on a
/// process-global panic hook swap, and two concurrent searches would
/// fight over it.
static CHECK_GATE: StdMutex<()> = StdMutex::new(());

impl Checker {
    /// An unbounded exhaustive checker (the default for the small
    /// protocol models).
    pub fn new() -> Checker {
        Checker {
            bound: None,
            max_executions: 200_000,
        }
    }

    /// Caps preemptions per schedule (Chess-style). `None` = unbounded.
    pub fn bound(mut self, bound: Option<usize>) -> Checker {
        self.bound = bound;
        self
    }

    /// Caps the number of executions (a runaway-model backstop).
    pub fn max_executions(mut self, n: usize) -> Checker {
        self.max_executions = n;
        self
    }

    /// Exhaustively explores `model`'s interleavings, stopping at the
    /// first counterexample.
    pub fn check<F>(&self, name: &str, model: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        self.run(name, model, None)
    }

    /// Replays one recorded schedule (a counterexample's dot-string,
    /// parsed to ids) instead of searching.
    pub fn replay<F>(&self, name: &str, schedule: &[Tid], model: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        self.run(name, model, Some(schedule.to_vec()))
    }

    fn run<F>(&self, name: &str, model: F, replay: Option<Vec<Tid>>) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let _gate = CHECK_GATE.lock().unwrap_or_else(|e| e.into_inner());
        // Counterexamples and engine-initiated unwinds are reported via
        // Failure values; the default hook would spray every one of them
        // onto stderr mid-search.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));

        let model = std::sync::Arc::new(model);
        let start = std::time::Instant::now();
        let mut report = Report {
            model: name.to_string(),
            executions: 0,
            states: 0,
            max_depth: 0,
            assertions: 0,
            pruned: 0,
            wall_ms: 0,
            failure: None,
            incomplete: false,
        };

        // The persistent DFS stack; each execution replays the chosen
        // prefix and extends it with fresh nodes.
        let mut stack: Vec<Node> = Vec::new();
        let mut forced: Vec<Tid> = replay.clone().unwrap_or_default();
        let mut init_sleep: Vec<(Tid, exec::Op)> = Vec::new();
        let user_replay = replay.is_some();

        loop {
            if report.executions >= self.max_executions {
                report.incomplete = true;
                break;
            }
            let ctl = Ctl::new(forced.clone(), init_sleep.clone(), self.bound, user_replay);
            let t0 = ctl.register_thread();
            let ctl2 = ctl.clone();
            let m = model.clone();
            let h = std::thread::Builder::new()
                .name("mc-t0".into())
                .stack_size(128 * 1024)
                .spawn(move || exec::run_virtual_thread(ctl2, t0, Box::new(move || m())))
                .expect("spawn mc root thread");
            ctl.adopt_handle(h);
            ctl.start();
            let (outcome, stats) = ctl.wait_done();

            report.executions += 1;
            report.states += stats.schedule.len().saturating_sub(stats.forced_len);
            report.max_depth = report.max_depth.max(stats.schedule.len());
            report.assertions += stats.assertions;
            match outcome {
                Outcome::Failed { message } => {
                    report.failure = Some(Failure {
                        message,
                        schedule: stats.schedule,
                        trace: stats.trace,
                    });
                    break;
                }
                Outcome::Pruned => report.pruned += 1,
                Outcome::Complete => {}
            }
            if user_replay {
                break;
            }
            stack.extend(stats.fresh);

            // Backtrack to the deepest node with an unexplored,
            // admissible branch; sleep the branch just taken.
            let next = loop {
                let Some(top) = stack.last_mut() else {
                    break None;
                };
                let prev_choice = top.chosen;
                top.explored.push(prev_choice);
                match top.next_branch(self.bound) {
                    Some(alt) => {
                        top.chosen = alt;
                        break Some(alt);
                    }
                    None => {
                        stack.pop();
                    }
                }
            };
            let Some(alt) = next else {
                break; // search space exhausted
            };
            forced = stack.iter().map(|n| n.chosen).collect();
            init_sleep = stack.last().map(|n| n.child_sleep(alt)).unwrap_or_default();
        }

        report.wall_ms = start.elapsed().as_millis() as u64;
        std::panic::set_hook(prev_hook);
        report
    }
}

/// Parses a `--replay` dot-string (`"0.1.0.2"`) into thread ids.
pub fn parse_schedule(s: &str) -> Result<Vec<Tid>, String> {
    s.split('.')
        .filter(|p| !p.is_empty())
        .map(|p| {
            p.trim()
                .parse::<Tid>()
                .map_err(|e| format!("bad schedule step `{p}`: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::SeqCst;
    use std::sync::Arc;

    #[test]
    fn two_increments_are_explored_and_pass() {
        let r = Checker::new().check("incr", || {
            let a = Arc::new(AtomicUsize::new("a", 0));
            let a2 = a.clone();
            let h = spawn(move || {
                a2.fetch_add(1, SeqCst);
            });
            a.fetch_add(1, SeqCst);
            h.join();
            assert(a.load(SeqCst) == 2, "both increments land");
        });
        assert!(r.failure.is_none(), "{:?}", r.failure);
        assert!(r.executions >= 2, "at least two interleavings explored");
        assert!(r.assertions > 0);
    }

    #[test]
    fn racy_read_modify_write_is_caught() {
        // A classic lost update: load, then store load+1, non-atomically.
        let r = Checker::new().check("lost-update", || {
            let a = Arc::new(AtomicUsize::new("a", 0));
            let a2 = a.clone();
            let h = spawn(move || {
                let v = a2.load(SeqCst);
                a2.store(v + 1, SeqCst);
            });
            let v = a.load(SeqCst);
            a.store(v + 1, SeqCst);
            h.join();
            assert(a.load(SeqCst) == 2, "no lost update");
        });
        let f = r.failure.expect("lost update must be found");
        assert!(f.message.contains("no lost update"), "{}", f.message);
    }

    #[test]
    fn lost_wakeup_without_recheck_deadlocks() {
        // The predicate is checked *outside* the lock and the wait has
        // no re-check: the store+notify can land in the window between
        // check and wait, and the model condvar has no timeout to paper
        // over the lost wakeup — the schedule deadlocks.
        let r = Checker::new().check("naked-wait", || {
            let flag = Arc::new(AtomicUsize::new("flag", 0));
            let m = Arc::new(Mutex::new("m", ()));
            let cv = Arc::new(Condvar::new("cv"));
            let (flag2, m2, cv2) = (flag.clone(), m.clone(), cv.clone());
            let h = spawn(move || {
                if flag2.load(SeqCst) == 0 {
                    let mut g = m2.lock();
                    cv2.wait(&mut g);
                }
            });
            flag.store(1, SeqCst);
            cv.notify_all();
            h.join();
        });
        let f = r.failure.expect("lost wakeup must deadlock somewhere");
        assert!(f.message.contains("deadlock"), "{}", f.message);
    }

    #[test]
    fn condvar_with_recheck_under_lock_is_clean() {
        let r = Checker::new().check("guarded-wait", || {
            let m = Arc::new(Mutex::new("m", false));
            let cv = Arc::new(Condvar::new("cv"));
            let (m2, cv2) = (m.clone(), cv.clone());
            let h = spawn(move || {
                let mut g = m2.lock();
                while !*g {
                    cv2.wait(&mut g);
                }
            });
            {
                let mut g = m.lock();
                *g = true;
                // notify under the lock: no lost-wakeup window at all
                cv.notify_all();
            }
            h.join();
        });
        assert!(r.failure.is_none(), "{:?}", r.failure);
    }

    #[test]
    fn counterexamples_replay_deterministically() {
        let model = || {
            let a = Arc::new(AtomicUsize::new("a", 0));
            let a2 = a.clone();
            let h = spawn(move || {
                let v = a2.load(SeqCst);
                a2.store(v + 1, SeqCst);
            });
            let v = a.load(SeqCst);
            a.store(v + 1, SeqCst);
            h.join();
            assert(a.load(SeqCst) == 2, "no lost update");
        };
        let r = Checker::new().check("replay-src", model);
        let f = r.failure.expect("counterexample expected");
        let r2 = Checker::new().replay("replay-dst", &f.schedule, model);
        let f2 = r2.failure.expect("replay reproduces the failure");
        assert_eq!(f.message, f2.message);
    }

    #[test]
    fn preemption_bound_shrinks_the_search() {
        let model = || {
            let a = Arc::new(AtomicUsize::new("a", 0));
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let a = a.clone();
                    spawn(move || {
                        a.fetch_add(1, SeqCst);
                        a.fetch_add(1, SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
        };
        let full = Checker::new().check("bound-full", model);
        let bounded = Checker::new().bound(Some(1)).check("bound-1", model);
        assert!(full.failure.is_none() && bounded.failure.is_none());
        assert!(
            bounded.executions < full.executions,
            "bound must prune: {} !< {}",
            bounded.executions,
            full.executions
        );
    }

    #[test]
    fn deadlock_on_lock_cycle_is_reported() {
        let r = Checker::new().check("abba", || {
            let a = Arc::new(Mutex::new("A", ()));
            let b = Arc::new(Mutex::new("B", ()));
            let (a2, b2) = (a.clone(), b.clone());
            let h = spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            let _gb = b.lock();
            let _ga = a.lock();
            drop((_ga, _gb));
            h.join();
        });
        let f = r.failure.expect("ABBA deadlock must be found");
        assert!(f.message.contains("deadlock"), "{}", f.message);
    }

    #[test]
    fn schedule_string_round_trips() {
        assert_eq!(parse_schedule("0.1.0.2").expect("parses"), vec![0, 1, 0, 2]);
        assert!(parse_schedule("0.x.2").is_err());
    }
}
