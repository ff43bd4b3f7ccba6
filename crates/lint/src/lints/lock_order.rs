//! L1 — lock-order: every function that nests classified lock
//! acquisitions must take them in the declared hierarchy order.
//!
//! The analysis is a per-function scope simulation over the token stream.
//! An acquisition is any `.<field>.lock()` / `.<field>.read()` /
//! `.<field>.write()` where `<field>` is classified in `[lock.fields]`.
//! Guard liveness is approximated conservatively:
//!
//! - a guard bound by a statement-leading `let` lives to the end of the
//!   enclosing block (or an explicit `drop(name)`);
//! - an unbound (temporary) guard lives to the end of the statement —
//!   the `;` — or to the next `{`, which over-approximates Rust's real
//!   temporary-lifetime rules in `if`/`match` heads in the *safe*
//!   direction for a lint: a guard the simulator drops early can only
//!   suppress a finding the runtime lockdep witness would still catch.
//!
//! A finding fires when an acquisition's class ranks *before* a held
//! class (out of order), or ties it (same-class nesting, the deadlock
//! shape index-ordering protocols exist for) — unless the enclosing
//! function has a justified `[[lock.allow]]` entry.

use crate::config::LockConfig;
use crate::model::FileModel;
use crate::Finding;

/// One live guard in the simulation.
struct Guard {
    /// Binding name, if the guard was `let`-bound.
    name: Option<String>,
    /// Class name (interned in the config's hierarchy).
    class: String,
    /// Hierarchy rank.
    rank: usize,
    /// Whether the guard dies at end-of-statement.
    temp: bool,
    /// Block depth at which the guard was created.
    depth: usize,
}

/// Runs the lint over one file (already confirmed to be in scope).
pub fn check(model: &FileModel, cfg: &LockConfig, findings: &mut Vec<Finding>) {
    for f in &model.fns {
        let Some(start) = f.body_start else { continue };
        if model.is_test[start] {
            continue;
        }
        check_fn(model, cfg, f.name.as_str(), start, f.body_end, findings);
    }
}

/// Simulates one function body.
fn check_fn(
    model: &FileModel,
    cfg: &LockConfig,
    fn_name: &str,
    start: usize,
    end: usize,
    findings: &mut Vec<Finding>,
) {
    let toks = &model.tokens;
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    // Name of a statement-leading `let` binding awaiting its initializer.
    let mut pending_let: Option<String> = None;
    let mut at_stmt_start = true;

    let mut i = start;
    while i < end.min(toks.len()) {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            guards.retain(|g| !g.temp);
            at_stmt_start = true;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            guards.retain(|g| g.depth < depth);
            depth = depth.saturating_sub(1);
            at_stmt_start = true;
            i += 1;
            continue;
        }
        if t.is_punct(';') {
            guards.retain(|g| !g.temp);
            pending_let = None;
            at_stmt_start = true;
            i += 1;
            continue;
        }
        // Statement-leading `let [mut] name`.
        if at_stmt_start && t.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            pending_let = toks.get(j).and_then(|t| t.ident()).map(str::to_string);
            at_stmt_start = false;
            i = j + 1;
            continue;
        }
        at_stmt_start = false;
        // drop(name) releases a named guard.
        if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            if let Some(name) = toks.get(i + 2).and_then(|t| t.ident()) {
                if let Some(pos) = guards.iter().rposition(|g| g.name.as_deref() == Some(name)) {
                    guards.remove(pos);
                }
            }
            i += 4;
            continue;
        }
        // Acquisition: `.<field>.{lock,read,write}()`.
        if let Some((class, after)) = match_acquisition(model, cfg, i) {
            let rank = cfg
                .rank(&class)
                .expect("config validation pinned fields to hierarchy classes");
            let line = toks[i].line;
            for held in &guards {
                let problem = if held.rank > rank {
                    Some(format!(
                        "'{}' (rank {}) acquired while '{}' (rank {}) is held; \
                         the hierarchy is {}",
                        class,
                        rank,
                        held.class,
                        held.rank,
                        cfg.hierarchy.join(" → ")
                    ))
                } else if held.rank == rank {
                    Some(format!(
                        "nested same-class acquisition of '{class}' needs a \
                         [[lock.allow]] entry documenting its ordering protocol"
                    ))
                } else {
                    None
                };
                if let Some(msg) = problem {
                    if !cfg.allowed(&model.path, fn_name) {
                        findings.push(Finding {
                            file: model.path.clone(),
                            line,
                            lint: "lock-order",
                            msg: format!("in fn {fn_name}: {msg}"),
                        });
                    }
                }
            }
            // `let g = x.lock();` binds; `x.lock().foo()` and bare
            // `x.lock()` are temporaries.
            let projected = toks
                .get(after)
                .is_some_and(|t| t.is_punct('.') || t.is_punct('?'));
            let name = if projected { None } else { pending_let.take() };
            let temp = name.is_none();
            guards.push(Guard {
                name,
                class,
                rank,
                temp,
                depth,
            });
            i = after;
            continue;
        }
        i += 1;
    }
}

/// Matches `.<field>.{lock,read,write}()` starting at token `i` (the
/// first `.`). Returns the class and the index after the closing paren.
fn match_acquisition(model: &FileModel, cfg: &LockConfig, i: usize) -> Option<(String, usize)> {
    let toks = &model.tokens;
    if !toks.get(i)?.is_punct('.') {
        return None;
    }
    let field = toks.get(i + 1)?.ident()?;
    let class = cfg.fields.get(field)?;
    if !toks.get(i + 2)?.is_punct('.') {
        return None;
    }
    let method = toks.get(i + 3)?.ident()?;
    if !matches!(method, "lock" | "read" | "write") {
        return None;
    }
    if !toks.get(i + 4)?.is_punct('(') || !toks.get(i + 5)?.is_punct(')') {
        return None;
    }
    Some((class.clone(), i + 6))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, LockConfig};
    use crate::toml;

    fn cfg() -> LockConfig {
        let doc = toml::parse(
            r#"
[scan]
include = ["crates"]
[lock]
hierarchy = ["shard", "frame-meta", "frame-data", "queues"]
files = ["vm.rs"]
[lock.fields]
state = "shard"
meta = "frame-meta"
data = "frame-data"
queues = "queues"
[counter_keys]
methods = ["incr"]
keys_file = "k.rs"
[trace]
"#,
        )
        .unwrap();
        Config::from_doc(&doc).unwrap().lock
    }

    fn run(src: &str) -> Vec<Finding> {
        let model = FileModel::new("vm.rs".into(), src);
        let mut out = Vec::new();
        check(&model, &cfg(), &mut out);
        out
    }

    #[test]
    fn in_order_nesting_is_clean() {
        let f =
            run("fn f(&self) { let st = self.shard.state.lock(); let q = self.queues.lock(); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn out_of_order_nesting_fires() {
        let f = run(
            "fn f(&self) {\n let q = self.queues.lock();\n let st = self.shard.state.lock();\n}",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
        assert!(f[0].msg.contains("'shard'"), "{}", f[0].msg);
    }

    #[test]
    fn drop_releases_the_guard() {
        let f = run(
            "fn f(&self) { let q = self.queues.lock(); drop(q); let st = self.shard.state.lock(); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn block_scope_releases_guards() {
        let f = run(
            "fn f(&self) { { let q = self.queues.lock(); } let st = self.shard.state.lock(); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn temporaries_die_at_statement_end() {
        let f =
            run("fn f(&self) { self.queues.lock().push(1); let st = self.shard.state.lock(); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn same_class_nesting_requires_allowlist() {
        let f =
            run("fn f(&self) { let a = self.left.state.lock(); let b = self.right.state.lock(); }");
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("same-class"), "{}", f[0].msg);
    }

    #[test]
    fn test_code_is_skipped() {
        let f = run(
            "#[test]\nfn t() { let q = self.queues.lock(); let st = self.shard.state.lock(); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
