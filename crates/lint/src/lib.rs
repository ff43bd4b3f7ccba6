//! machlint — workspace static analysis for the kernel's concurrency and
//! simulation invariants.
//!
//! The simulated kernel has invariants the compiler can't see:
//!
//! - **L1 lock-order** — the resident-memory fault path must take its
//!   locks in the declared hierarchy order (fault-table → resident →
//!   frame-data → queues); see `machvm::lockdep` for the
//!   runtime half of this check.
//! - **L2 sim-time** — simulation results must not depend on the host's
//!   wall clock; real-time reads live only in the `machsim::wall`
//!   airlock.
//! - **L3 counter-key** — stats/latency registry keys come from the
//!   `keys::` const modules, never string literals.
//! - **L4 panic-budget** — per-crate `unwrap()` counts ratchet downward
//!   against `lint-baseline.toml`.
//! - **L5 trace-cover** — public entry points that charge the simulated
//!   clock must emit trace events.
//! - **L6 span-pair** — files instrumented with phase spans must open
//!   and close the same set of span-name literals, so no phase leaks
//!   unclosed spans into critical-path reports.
//! - **L7 atomic-ordering** — every `Ordering::` literal outside the
//!   simulator/model-checker airlocks must appear in a justified
//!   `[[atomics.allow]]` entry; the ordering choice is a protocol claim
//!   and claims get written down.
//! - **L8 condvar-wait** — `.wait`/`.wait_for` in the protocol files
//!   must sit inside a `while`/`loop` predicate re-check, never a bare
//!   `if` (the static half of what `machmc`'s lost-wakeup models check
//!   dynamically).
//! - **L9 unchecked-send** — `let _ =` discards of delivery Results
//!   (`send`, `send_many`, `notify`) carry a justified `[[send.allow]]`
//!   entry or they are findings.
//!
//! Configuration lives in `machlint.toml` at the workspace root; every
//! allowlist bypass carries a written justification. `scripts/check.sh`
//! and CI run `cargo run -q -p machlint -- --workspace` as a hard gate.

pub mod config;
pub mod lexer;
pub mod lints;
pub mod model;
pub mod toml;

use config::{baseline_from_doc, Config};
use model::FileModel;
use std::fmt;
use std::path::{Path, PathBuf};

/// One lint violation, with a clickable `file:line` span.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The lint's short name (`lock-order`, `sim-time`, …).
    pub lint: &'static str,
    /// Human-readable description of the violation.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.msg
        )
    }
}

/// The outcome of a full workspace run.
pub struct Report {
    /// Violations; non-empty means the gate fails.
    pub findings: Vec<Finding>,
    /// Informational messages (ratchet reminders, baseline updates).
    pub notes: Vec<String>,
    /// Number of `.rs` files analyzed.
    pub files_scanned: usize,
}

/// Runs all nine lints over the workspace rooted at `root`.
///
/// With `update_baseline`, rewrites `lint-baseline.toml` to the observed
/// unwrap counts instead of reporting panic-budget findings.
pub fn run(root: &Path, update_baseline: bool) -> Result<Report, String> {
    let cfg_path = root.join("machlint.toml");
    let cfg_src =
        std::fs::read_to_string(&cfg_path).map_err(|e| format!("{}: {e}", cfg_path.display()))?;
    let cfg = Config::from_doc(&toml::parse(&cfg_src).map_err(|e| format!("machlint.toml: {e}"))?)?;

    let baseline_path = root.join("lint-baseline.toml");
    let baseline_src = std::fs::read_to_string(&baseline_path)
        .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
    let baseline = baseline_from_doc(
        &toml::parse(&baseline_src).map_err(|e| format!("lint-baseline.toml: {e}"))?,
    )?;

    let files = collect_files(root, &cfg)?;
    let mut models = Vec::with_capacity(files.len());
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
        models.push(FileModel::new(rel.clone(), &src));
    }

    let mut findings = Vec::new();
    let mut notes = Vec::new();
    for m in &models {
        if cfg.lock.files.iter().any(|f| f == &m.path) {
            lints::lock_order::check(m, &cfg.lock, &mut findings);
        }
        lints::sim_time::check(m, &cfg.sim_time, &mut findings);
        lints::counter_keys::check(m, &cfg.counter_keys, &mut findings);
        if cfg.trace.files.iter().any(|f| f == &m.path) {
            lints::trace_cover::check(m, &cfg.trace, &mut findings);
        }
        if cfg.trace.span_files.iter().any(|f| f == &m.path) {
            lints::span_pair::check(m, &cfg.trace, &mut findings);
        }
        lints::atomics::check(m, &cfg.atomics, &mut findings);
        if cfg.condvar.files.iter().any(|f| f == &m.path) {
            lints::condvar_wait::check(m, &cfg.condvar, &mut findings);
        }
        lints::unchecked_send::check(m, &cfg.send, &mut findings);
    }

    let counts = lints::panic_budget::count(&models);
    if update_baseline {
        let mut table = toml::Table::new();
        for (k, &n) in &counts {
            if n > 0 {
                table.insert(k.clone(), toml::Value::Int(n));
            }
        }
        let body = toml::write_table(&table);
        let text = format!(
            "# L4 panic-budget baseline: per-crate unwrap() budgets, tests included.\n\
             # Maintained by `machlint --workspace --update-baseline`; counts may\n\
             # only go down. A crate with no entry has a budget of zero.\n\
             [unwraps]\n{body}"
        );
        std::fs::write(&baseline_path, text)
            .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
        notes.push(format!(
            "panic-budget: baseline rewritten with current counts ({} crates)",
            counts.values().filter(|&&n| n > 0).count()
        ));
    } else {
        lints::panic_budget::check(&counts, &baseline, &mut findings, &mut notes);
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(Report {
        findings,
        notes,
        files_scanned: models.len(),
    })
}

/// All `.rs` files under the configured include roots, minus excluded
/// prefixes, as sorted `/`-separated workspace-relative paths.
fn collect_files(root: &Path, cfg: &Config) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for inc in &cfg.include {
        let dir = root.join(inc);
        if dir.is_dir() {
            walk(&dir, root, &cfg.exclude, &mut out)?;
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// Recursive directory walk (depth-first, name order).
fn walk(dir: &Path, root: &Path, exclude: &[String], out: &mut Vec<String>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let rel = path
            .strip_prefix(root)
            .map_err(|e| e.to_string())?
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if exclude
            .iter()
            .any(|ex| rel == *ex || rel.starts_with(&format!("{ex}/")))
        {
            continue;
        }
        if path.is_dir() {
            walk(&path, root, exclude, out)?;
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Extracts `pub const NAME: &str = "value";` pairs from a source file —
/// the shape of the `stats::keys` / `trace::keys` modules. Used by the
/// workspace regression test to assert machlint and `keys::ALL` agree on
/// the canonical key set.
pub fn extract_key_consts(src: &str) -> Vec<(String, String)> {
    let toks = lexer::lex(src);
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("const") {
            if let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) {
                // Scan the type annotation up to `=`; only `str`-typed
                // consts with a literal initializer are keys.
                let mut j = i + 2;
                let mut is_str_type = false;
                while j < toks.len() && !toks[j].is_punct('=') && !toks[j].is_punct(';') {
                    if toks[j].is_ident("str") {
                        is_str_type = true;
                    }
                    if toks[j].is_punct('[') {
                        // `&[&str]` — an array like keys::ALL, not a key.
                        is_str_type = false;
                        break;
                    }
                    j += 1;
                }
                if is_str_type && toks.get(j).is_some_and(|t| t.is_punct('=')) {
                    if let Some(lexer::Tok::Str(v)) = toks.get(j + 1).map(|t| &t.tok) {
                        out.push((name.to_string(), v.clone()));
                        i = j + 2;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_key_consts_and_skips_all_array() {
        let src = r#"
pub mod keys {
    pub const VM_FAULTS: &str = "vm.faults";
    pub const IPC_SENDS: &str = "ipc.sends";
    pub const ALL: &[&str] = &[VM_FAULTS, IPC_SENDS];
    pub const LIMIT: usize = 4;
}
"#;
        let keys = extract_key_consts(src);
        assert_eq!(
            keys,
            vec![
                ("VM_FAULTS".to_string(), "vm.faults".to_string()),
                ("IPC_SENDS".to_string(), "ipc.sends".to_string()),
            ]
        );
    }

    #[test]
    fn finding_display_is_clickable() {
        let f = Finding {
            file: "crates/vm/src/resident.rs".into(),
            line: 42,
            lint: "lock-order",
            msg: "boom".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/vm/src/resident.rs:42: [lock-order] boom"
        );
    }
}
