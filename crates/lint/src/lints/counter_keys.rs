//! L3 — counter-key literals: production call sites of the stats and
//! latency registries must name keys through the `stats::keys` /
//! `trace::keys` consts, never as string literals. Literal keys drift:
//! a typo silently creates a second counter and every dashboard keyed on
//! the const misses it.
//!
//! The check flags `.<method>("literal", …)` for the configured method
//! set in non-test code. Test code may use literals freely — tests often
//! probe the registry's behavior with scratch keys.

use crate::config::CounterKeysConfig;
use crate::lexer::Tok;
use crate::model::FileModel;
use crate::Finding;

/// Runs the lint over one file.
pub fn check(model: &FileModel, cfg: &CounterKeysConfig, findings: &mut Vec<Finding>) {
    let toks = &model.tokens;
    for i in 0..toks.len() {
        if model.is_test[i] || !toks[i].is_punct('.') {
            continue;
        }
        let Some(method) = toks.get(i + 1).and_then(|t| t.ident()) else {
            continue;
        };
        if !cfg.methods.iter().any(|m| m == method) {
            continue;
        }
        if !toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let Some(Tok::Str(lit)) = toks.get(i + 3).map(|t| &t.tok) else {
            continue;
        };
        findings.push(Finding {
            file: model.path.clone(),
            line: toks[i + 3].line,
            lint: "counter-key",
            msg: format!(
                ".{method}(\"{lit}\") uses a string literal; \
                 name the key through a stats::keys / trace::keys const"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CounterKeysConfig;

    fn run(src: &str) -> Vec<Finding> {
        let cfg = CounterKeysConfig {
            methods: vec!["incr".into(), "add".into(), "record".into()],
            keys_file: "k.rs".into(),
        };
        let model = FileModel::new("a.rs".into(), src);
        let mut out = Vec::new();
        check(&model, &cfg, &mut out);
        out
    }

    #[test]
    fn literal_key_fires() {
        let f = run("fn f(s: &Stats) {\n s.incr(\"vm.faults\");\n}");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
        assert!(f[0].msg.contains("vm.faults"));
    }

    #[test]
    fn const_key_is_clean() {
        let f = run("fn f(s: &Stats) { s.incr(keys::VM_FAULTS); s.add(keys::X, 2); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_code_may_use_literals() {
        let f = run("#[test]\nfn t() { s.incr(\"scratch\"); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unrelated_methods_with_string_args_are_fine() {
        let f = run("fn f() { m.insert(\"k\", v); x.expect(\"msg\"); }");
        assert!(f.is_empty(), "{f:?}");
    }
}
