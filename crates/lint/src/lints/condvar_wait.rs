//! L8 — condvar wait-loop: every `.block(…)` — `machsim::wall::Signal`'s
//! wait, the one blocking call left once waits go through that seam — in
//! the configured files must sit inside a `while`/`loop`/`for` body so
//! the predicate is re-checked after the wakeup. A wait guarded only by an
//! `if` turns a spurious wakeup — or a wakeup stolen by another waiter —
//! into silent predicate violation; `machmc`'s condvar deliberately has
//! no spurious wakeups so its models catch *lost* wakeups, which makes
//! this lint the static half of the pair: the dynamic checker proves
//! notify reaches a waiter, the lint proves the waiter re-checks.
//! `Latch::wait` and the port sets' `SetWaker::wait` loop internally, on
//! a `block` this lint checks, so their callers need no loop.
//!
//! Detection is lexical: a wait call is "in a loop" when any enclosing
//! block between it and its function's body brace was opened by a loop
//! keyword. Functions whose *caller* owns the loop (a `run_once` step
//! body) carry a justified `[[condvar.allow]]` entry instead.

use crate::config::CondvarConfig;
use crate::model::FileModel;
use crate::Finding;

/// The blocking-wait method names checked.
const WAITS: &[&str] = &["block"];

/// Runs the lint over one file.
pub fn check(model: &FileModel, cfg: &CondvarConfig, findings: &mut Vec<Finding>) {
    let toks = &model.tokens;
    for i in 0..toks.len() {
        if model.is_test[i] {
            continue;
        }
        let Some(name) = toks[i].ident().filter(|s| WAITS.contains(s)) else {
            continue;
        };
        if i == 0 || !toks[i - 1].is_punct('.') || !toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        let Some(f) = model.enclosing_fn(i) else {
            continue;
        };
        let Some(body) = f.body_start else {
            continue;
        };
        if cfg.allowed(&model.path, &f.name) || in_loop(model, body, i) {
            continue;
        }
        findings.push(Finding {
            file: model.path.clone(),
            line: toks[i].line,
            lint: "condvar-wait",
            msg: format!(
                "`.{name}()` in `{}` is not inside a while/loop re-check — a \
                 spurious or stolen wakeup returns with the predicate still \
                 false; loop on the predicate or add a [[condvar.allow]] \
                 entry naming the caller that owns the loop",
                f.name
            ),
        });
    }
}

/// Whether any block enclosing token `i` (inside the function body that
/// opens at token `body`) was opened by a loop keyword. Braces inside
/// parens/brackets (struct literals in arguments, `matches!` patterns)
/// are not blocks and are ignored.
fn in_loop(model: &FileModel, body: usize, i: usize) -> bool {
    let toks = &model.tokens;
    let mut stack: Vec<bool> = Vec::new();
    let mut pending_loop = false;
    let mut grouping = 0usize;
    for t in &toks[body + 1..i] {
        if t.is_punct('(') || t.is_punct('[') {
            grouping += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            grouping = grouping.saturating_sub(1);
        } else if grouping > 0 {
            continue;
        } else if t.is_punct('{') {
            stack.push(pending_loop);
            pending_loop = false;
        } else if t.is_punct('}') {
            stack.pop();
        } else if t.is_ident("while") || t.is_ident("loop") || t.is_ident("for") {
            pending_loop = true;
        }
    }
    stack.iter().any(|&l| l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CondvarConfig, FnAllow};

    fn run(src: &str) -> Vec<Finding> {
        let cfg = CondvarConfig {
            files: vec!["a.rs".into()],
            allow: vec![FnAllow {
                file: "a.rs".into(),
                function: "step".into(),
                reason: "caller owns the loop".into(),
            }],
        };
        let model = FileModel::new("a.rs".into(), src);
        let mut out = Vec::new();
        check(&model, &cfg, &mut out);
        out
    }

    #[test]
    fn wait_under_if_fires_with_line() {
        let f = run("fn f() {\n if empty {\n  cv.block(&mut g, None);\n }\n}");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
        assert!(f[0].msg.contains("`f`"), "{f:?}");
    }

    #[test]
    fn wait_in_while_is_quiet() {
        let f = run("fn f() { while empty { cv.block(&mut g, None); } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn wait_in_match_arm_inside_loop_is_quiet() {
        // The timer's shape: the re-check loop owns a match.
        let f = run(
            "fn f() { loop { match s { Empty => { cv.block(&mut g, Some(&d)); } _ => break, } } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn timed_block_under_if_fires() {
        let f = run("fn f() { if may_sleep { cv.block(&mut g, Some(&d)); } }");
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("block"), "{f:?}");
    }

    #[test]
    fn allowlisted_step_function_is_quiet() {
        let f = run("fn step() { if may_sleep { cv.block(&mut g, Some(&d)); } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn braces_inside_call_arguments_are_not_blocks() {
        // The struct literal's `{}` inside the condition must not eat the
        // loop keyword's pending flag.
        let f = run("fn f() { while probe(Q { id: 0 }) { cv.block(&mut g, None); } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn non_method_block_idents_are_ignored() {
        let f = run("fn f() { block(); x.blocked(); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_code_is_skipped() {
        let f = run("#[cfg(test)]\nmod t {\n fn t() { if x { cv.block(&mut g, None); } }\n}");
        assert!(f.is_empty(), "{f:?}");
    }
}
