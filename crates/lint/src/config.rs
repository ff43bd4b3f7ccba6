//! Typed views over `machlint.toml` and `lint-baseline.toml`.
//!
//! Loading is strict: unknown lock classes, allowlist entries missing a
//! `reason`, or malformed values are hard errors. An allowlist bypass
//! without a written justification is exactly the kind of silent decay
//! machlint exists to prevent.

use crate::toml::{Doc, Table};
use std::collections::BTreeMap;

/// Full machlint configuration (from `machlint.toml`).
#[derive(Debug)]
pub struct Config {
    /// Directories (relative to the workspace root) to scan.
    pub include: Vec<String>,
    /// Path prefixes to skip (vendored shims, fixtures, build output).
    pub exclude: Vec<String>,
    /// L1 lock-order configuration.
    pub lock: LockConfig,
    /// L2 sim-time purity configuration.
    pub sim_time: SimTimeConfig,
    /// L3 counter-key configuration.
    pub counter_keys: CounterKeysConfig,
    /// L5 trace-coverage configuration.
    pub trace: TraceConfig,
    /// L7 atomic-ordering audit configuration.
    pub atomics: AtomicsConfig,
    /// L8 condvar wait-loop configuration.
    pub condvar: CondvarConfig,
    /// L9 unchecked-send configuration.
    pub send: SendConfig,
}

/// L1: the declared lock hierarchy and where it applies.
#[derive(Debug)]
pub struct LockConfig {
    /// Class names, outermost first; index is the class's rank.
    pub hierarchy: Vec<String>,
    /// Files (workspace-relative) the lint analyzes.
    pub files: Vec<String>,
    /// Struct-field name → class name; an acquisition is classified by
    /// the field it goes through (`…​.state.lock()` → that field's class).
    pub fields: BTreeMap<String, String>,
    /// Functions exempt from the ordering check, with justification.
    pub allow: Vec<FnAllow>,
}

impl LockConfig {
    /// Rank of `class` in the hierarchy, if declared.
    pub fn rank(&self, class: &str) -> Option<usize> {
        self.hierarchy.iter().position(|c| c == class)
    }

    /// Whether (file, function) carries a justified exemption.
    pub fn allowed(&self, file: &str, function: &str) -> bool {
        self.allow
            .iter()
            .any(|a| a.file == file && a.function == function)
    }
}

/// L2: which files may touch the real clock.
#[derive(Debug)]
pub struct SimTimeConfig {
    /// Files (workspace-relative) allowed to use wall-clock primitives.
    pub allow: Vec<FileAllow>,
}

impl SimTimeConfig {
    /// Whether `file` is a justified wall-clock site.
    pub fn allowed(&self, file: &str) -> bool {
        self.allow.iter().any(|a| a.file == file)
    }
}

/// L3: registry methods whose first argument must be a `keys::` const.
#[derive(Debug)]
pub struct CounterKeysConfig {
    /// Method names checked for literal first arguments.
    pub methods: Vec<String>,
    /// The file declaring the canonical key consts (for the regression
    /// test tying machlint to `stats::keys::ALL`).
    pub keys_file: String,
}

/// L5: sim-time-charging entry points must emit trace events.
/// L6: span-instrumented files must pair every phase open with a close.
#[derive(Debug)]
pub struct TraceConfig {
    /// Files (workspace-relative) holding the charged entry points.
    pub files: Vec<String>,
    /// Files (workspace-relative) instrumented with phase spans; each
    /// must open and close the same set of span-name literals (L6).
    pub span_files: Vec<String>,
    /// Methods that charge the simulated clock.
    pub charge_methods: Vec<String>,
    /// Identifiers that count as emitting observability.
    pub emitters: Vec<String>,
    /// Functions exempt from the coverage check, with justification.
    pub allow: Vec<FnAllow>,
}

impl TraceConfig {
    /// Whether (file, function) carries a justified exemption.
    pub fn allowed(&self, file: &str, function: &str) -> bool {
        self.allow
            .iter()
            .any(|a| a.file == file && a.function == function)
    }
}

/// L7: where `Ordering::` literals are audited and which are justified.
#[derive(Debug)]
pub struct AtomicsConfig {
    /// Path prefixes exempt from the audit (the simulator's wall-clock
    /// airlock and the model checker's shims define orderings, they
    /// don't consume them).
    pub exempt: Vec<String>,
    /// Per-file justified ordering sets.
    pub allow: Vec<OrderingAllow>,
}

impl AtomicsConfig {
    /// Whether `file` sits under an exempt prefix.
    pub fn exempt(&self, file: &str) -> bool {
        self.exempt
            .iter()
            .any(|p| file == p || file.starts_with(&format!("{p}/")))
    }

    /// Whether `file` carries a justified entry covering `ordering`.
    pub fn allowed(&self, file: &str, ordering: &str) -> bool {
        self.allow
            .iter()
            .any(|a| a.file == file && a.orderings.iter().any(|o| o == ordering))
    }
}

/// One file's justified atomic-ordering set; `reason` is mandatory.
#[derive(Debug)]
pub struct OrderingAllow {
    /// Workspace-relative file path.
    pub file: String,
    /// The orderings this file may use (`Relaxed` … `SeqCst`).
    pub orderings: Vec<String>,
    /// The protocol argument justifying them. Never empty.
    pub reason: String,
}

/// L8: which files' condvar waits must loop on their predicate.
#[derive(Debug)]
pub struct CondvarConfig {
    /// Files (workspace-relative) the lint analyzes.
    pub files: Vec<String>,
    /// Functions whose caller owns the re-check loop, with justification.
    pub allow: Vec<FnAllow>,
}

impl CondvarConfig {
    /// Whether (file, function) carries a justified exemption.
    pub fn allowed(&self, file: &str, function: &str) -> bool {
        self.allow
            .iter()
            .any(|a| a.file == file && a.function == function)
    }
}

/// L9: delivery methods whose discarded Results need justification.
#[derive(Debug)]
pub struct SendConfig {
    /// Method names whose `Result` may not be `let _ =`-discarded
    /// without an allowlist entry.
    pub methods: Vec<String>,
    /// Functions with a justified discard, with reason.
    pub allow: Vec<FnAllow>,
}

impl SendConfig {
    /// Whether (file, function) carries a justified exemption.
    pub fn allowed(&self, file: &str, function: &str) -> bool {
        self.allow
            .iter()
            .any(|a| a.file == file && a.function == function)
    }
}

/// A per-function exemption; `reason` is mandatory.
#[derive(Debug)]
pub struct FnAllow {
    /// Workspace-relative file path.
    pub file: String,
    /// Function name within that file.
    pub function: String,
    /// Why the bypass is sound. Never empty.
    pub reason: String,
}

/// A per-file exemption; `reason` is mandatory.
#[derive(Debug)]
pub struct FileAllow {
    /// Workspace-relative file path.
    pub file: String,
    /// Why the bypass is sound. Never empty.
    pub reason: String,
}

/// The L4 ratchet baseline (from `lint-baseline.toml`): crate key →
/// committed `unwrap()` count.
pub type Baseline = BTreeMap<String, i64>;

impl Config {
    /// Builds a config from a parsed `machlint.toml`, validating
    /// cross-references.
    pub fn from_doc(doc: &Doc) -> Result<Config, String> {
        let include = doc.get_str_array("scan", "include");
        if include.is_empty() {
            return Err("[scan] include must list at least one directory".into());
        }
        let exclude = doc.get_str_array("scan", "exclude");

        let hierarchy = doc.get_str_array("lock", "hierarchy");
        if hierarchy.is_empty() {
            return Err("[lock] hierarchy must list the lock classes in rank order".into());
        }
        let lock_files = doc.get_str_array("lock", "files");
        let mut fields = BTreeMap::new();
        if let Some(table) = doc.table("lock.fields") {
            for (field, class) in table {
                let class = class
                    .as_str()
                    .ok_or_else(|| format!("[lock.fields] {field} must be a class name string"))?;
                if !hierarchy.iter().any(|c| c == class) {
                    return Err(format!(
                        "[lock.fields] {field} names unknown class `{class}` \
                         (hierarchy: {})",
                        hierarchy.join(" → ")
                    ));
                }
                fields.insert(field.clone(), class.to_string());
            }
        }
        let lock = LockConfig {
            hierarchy,
            files: lock_files,
            fields,
            allow: fn_allows(doc, "lock.allow")?,
        };

        let sim_time = SimTimeConfig {
            allow: file_allows(doc, "sim_time.allow")?,
        };

        let methods = doc.get_str_array("counter_keys", "methods");
        if methods.is_empty() {
            return Err("[counter_keys] methods must list the registry call names".into());
        }
        let keys_file = doc
            .get_str("counter_keys", "keys_file")
            .ok_or("[counter_keys] keys_file is required")?
            .to_string();
        let counter_keys = CounterKeysConfig { methods, keys_file };

        let trace = TraceConfig {
            files: doc.get_str_array("trace", "files"),
            span_files: doc.get_str_array("trace", "span_files"),
            charge_methods: doc.get_str_array("trace", "charge_methods"),
            emitters: doc.get_str_array("trace", "emitters"),
            allow: fn_allows(doc, "trace.allow")?,
        };
        if !trace.files.is_empty() && (trace.charge_methods.is_empty() || trace.emitters.is_empty())
        {
            return Err("[trace] files without charge_methods/emitters checks nothing".into());
        }

        let atomics = AtomicsConfig {
            exempt: doc.get_str_array("atomics", "exempt"),
            allow: ordering_allows(doc, "atomics.allow")?,
        };
        let condvar = CondvarConfig {
            files: doc.get_str_array("condvar", "files"),
            allow: fn_allows(doc, "condvar.allow")?,
        };
        let send = SendConfig {
            methods: doc.get_str_array("send", "methods"),
            allow: fn_allows(doc, "send.allow")?,
        };
        if !send.allow.is_empty() && send.methods.is_empty() {
            return Err("[[send.allow]] entries without [send] methods check nothing".into());
        }

        Ok(Config {
            include,
            exclude,
            lock,
            sim_time,
            counter_keys,
            trace,
            atomics,
            condvar,
            send,
        })
    }
}

/// Reads `[[path]]` entries with mandatory file/orderings/reason,
/// validating each ordering name.
fn ordering_allows(doc: &Doc, path: &str) -> Result<Vec<OrderingAllow>, String> {
    doc.table_array(path)
        .iter()
        .map(|t| {
            let orderings: Vec<String> = t
                .get("orderings")
                .and_then(|v| v.as_str_array())
                .ok_or_else(|| format!("every [[{path}]] entry needs an `orderings` array"))?
                .to_vec();
            if orderings.is_empty() {
                return Err(format!("[[{path}]] `orderings` must not be empty"));
            }
            for o in &orderings {
                if !crate::lints::atomics::ORDERINGS.contains(&o.as_str()) {
                    return Err(format!(
                        "[[{path}]] names unknown ordering `{o}` (valid: {})",
                        crate::lints::atomics::ORDERINGS.join(", ")
                    ));
                }
            }
            Ok(OrderingAllow {
                file: require_str(t, path, "file")?,
                orderings,
                reason: require_str(t, path, "reason")?,
            })
        })
        .collect()
}

/// Reads `[[path]]` entries with mandatory file/function/reason.
fn fn_allows(doc: &Doc, path: &str) -> Result<Vec<FnAllow>, String> {
    doc.table_array(path)
        .iter()
        .map(|t| {
            Ok(FnAllow {
                file: require_str(t, path, "file")?,
                function: require_str(t, path, "function")?,
                reason: require_str(t, path, "reason")?,
            })
        })
        .collect()
}

/// Reads `[[path]]` entries with mandatory file/reason.
fn file_allows(doc: &Doc, path: &str) -> Result<Vec<FileAllow>, String> {
    doc.table_array(path)
        .iter()
        .map(|t| {
            Ok(FileAllow {
                file: require_str(t, path, "file")?,
                reason: require_str(t, path, "reason")?,
            })
        })
        .collect()
}

/// A non-empty string field of an allowlist entry.
fn require_str(t: &Table, path: &str, key: &str) -> Result<String, String> {
    let v = t
        .get(key)
        .and_then(|v| v.as_str())
        .ok_or_else(|| format!("every [[{path}]] entry needs a `{key}` string"))?;
    if v.trim().is_empty() {
        return Err(format!("[[{path}]] `{key}` must not be empty"));
    }
    Ok(v.to_string())
}

/// Parses `lint-baseline.toml`'s `[unwraps]` table.
pub fn baseline_from_doc(doc: &Doc) -> Result<Baseline, String> {
    let table = doc
        .table("unwraps")
        .ok_or("lint-baseline.toml must have an [unwraps] table")?;
    let mut out = Baseline::new();
    for (k, v) in table {
        let n = v
            .as_int()
            .ok_or_else(|| format!("[unwraps] {k} must be an integer"))?;
        if n < 0 {
            return Err(format!("[unwraps] {k} must be non-negative"));
        }
        out.insert(k.clone(), n);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toml;

    fn minimal() -> String {
        r#"
[scan]
include = ["crates"]
exclude = ["compat"]

[lock]
hierarchy = ["fault-table", "resident", "frame-data", "queues"]
files = ["crates/vm/src/resident.rs"]

[lock.fields]
table = "fault-table"
resident = "resident"
data = "frame-data"
queues = "queues"

[counter_keys]
methods = ["counter", "incr", "add"]
keys_file = "crates/sim/src/stats.rs"

[trace]
files = ["crates/vm/src/fault.rs"]
charge_methods = ["charge"]
emitters = ["trace_event"]
"#
        .to_string()
    }

    #[test]
    fn minimal_config_loads() {
        let doc = toml::parse(&minimal()).unwrap();
        let cfg = Config::from_doc(&doc).unwrap();
        assert_eq!(cfg.lock.rank("queues"), Some(3));
        assert_eq!(cfg.lock.fields["resident"], "resident");
    }

    #[test]
    fn unknown_lock_class_is_rejected() {
        let src = minimal().replace("resident = \"resident\"", "resident = \"residentt\"");
        let doc = toml::parse(&src).unwrap();
        let err = Config::from_doc(&doc).unwrap_err();
        assert!(err.contains("unknown class"), "{err}");
    }

    #[test]
    fn allow_entries_require_reasons() {
        let src = format!(
            "{}\n[[lock.allow]]\nfile = \"a.rs\"\nfunction = \"f\"\n",
            minimal()
        );
        let doc = toml::parse(&src).unwrap();
        let err = Config::from_doc(&doc).unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn ordering_allows_parse_and_validate_names() {
        let src = format!(
            "{}\n[atomics]\nexempt = [\"crates/sim\"]\n\n[[atomics.allow]]\n\
             file = \"crates/ipc/src/port.rs\"\norderings = [\"Acquire\", \"Relaxed\"]\n\
             reason = \"depth protocol\"\n",
            minimal()
        );
        let cfg = Config::from_doc(&toml::parse(&src).expect("parses")).expect("validates");
        assert!(cfg.atomics.exempt("crates/sim/src/wall.rs"));
        assert!(cfg.atomics.allowed("crates/ipc/src/port.rs", "Acquire"));
        assert!(!cfg.atomics.allowed("crates/ipc/src/port.rs", "SeqCst"));

        let bad = src.replace("\"Relaxed\"", "\"Relaxd\"");
        let err = Config::from_doc(&toml::parse(&bad).expect("parses")).unwrap_err();
        assert!(err.contains("unknown ordering"), "{err}");
    }

    #[test]
    fn send_allow_without_methods_is_rejected() {
        let src = format!(
            "{}\n[[send.allow]]\nfile = \"a.rs\"\nfunction = \"f\"\nreason = \"r\"\n",
            minimal()
        );
        let err = Config::from_doc(&toml::parse(&src).expect("parses")).unwrap_err();
        assert!(err.contains("[send] methods"), "{err}");
    }

    #[test]
    fn baseline_parses_and_rejects_negatives() {
        let doc = toml::parse("[unwraps]\n\"crates/vm\" = 40\nroot = 7\n").unwrap();
        let b = baseline_from_doc(&doc).unwrap();
        assert_eq!(b["crates/vm"], 40);
        let doc = toml::parse("[unwraps]\nroot = -1\n").unwrap();
        assert!(baseline_from_doc(&doc).is_err());
    }
}
