//! Each lint must fire on the known-bad fixtures at exactly the marked
//! spans — and stay quiet on the deliberately-correct code next to them.
//! The fixtures under `tests/fixtures/` are lexed, never compiled, and
//! the workspace scan excludes them (see `machlint.toml` `[scan]`).

use machlint::config::{Config, SimTimeConfig};
use machlint::model::FileModel;
use machlint::{lints, toml, Finding};

/// A config mirroring the real `machlint.toml` shapes, scoped to the
/// fixture paths.
fn fixture_config() -> Config {
    let src = r#"
[scan]
include = ["tests"]

[lock]
hierarchy = ["shard", "frame-meta", "frame-data", "queues"]
files = ["tests/fixtures/bad_lock_order.rs"]

[lock.fields]
state = "shard"
meta = "frame-meta"
data = "frame-data"
queues = "queues"

[counter_keys]
methods = ["incr", "add", "record"]
keys_file = "crates/sim/src/stats.rs"

[trace]
files = ["tests/fixtures/uncovered_entry.rs"]
charge_methods = ["charge", "charge_us", "charge_ms"]
emitters = ["trace_event", "trace_event_with", "record", "enter"]

[atomics]
exempt = ["crates/sim", "crates/mc"]

[[atomics.allow]]
file = "tests/fixtures/bad_ordering.rs"
orderings = ["Acquire", "Relaxed"]
reason = "fixture: pretend an acquire/release protocol is documented"

[condvar]
files = ["tests/fixtures/wait_in_if.rs"]

[[condvar.allow]]
file = "tests/fixtures/wait_in_if.rs"
function = "step_once"
reason = "fixture: the caller owns the re-check loop"

[send]
methods = ["send", "send_many", "notify"]

[[send.allow]]
file = "tests/fixtures/dropped_send.rs"
function = "reply_to"
reason = "fixture: reply ports may die before the reply lands"
"#;
    Config::from_doc(&toml::parse(src).expect("fixture config parses"))
        .expect("fixture config validates")
}

fn spans(findings: &[Finding], lint: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.lint == lint)
        .map(|f| f.line)
        .collect()
}

#[test]
fn lock_order_fires_on_bad_nestings_with_spans() {
    let cfg = fixture_config();
    let model = FileModel::new(
        "tests/fixtures/bad_lock_order.rs".into(),
        include_str!("fixtures/bad_lock_order.rs"),
    );
    let mut findings = Vec::new();
    lints::lock_order::check(&model, &cfg.lock, &mut findings);
    assert_eq!(
        spans(&findings, "lock-order"),
        vec![9, 15, 21],
        "{findings:#?}"
    );
    // The two out-of-order nestings name both classes; the same-class
    // nesting asks for an allowlist entry.
    assert!(findings[0].msg.contains("'shard'") && findings[0].msg.contains("'queues'"));
    assert!(findings[1].msg.contains("'frame-meta'"));
    assert!(findings[2].msg.contains("same-class"));
}

#[test]
fn lock_order_respects_allowlist() {
    let src = r#"
[scan]
include = ["tests"]

[lock]
hierarchy = ["shard", "frame-meta", "frame-data", "queues"]
files = ["tests/fixtures/bad_lock_order.rs"]

[lock.fields]
state = "shard"

[[lock.allow]]
file = "tests/fixtures/bad_lock_order.rs"
function = "unlisted_same_class"
reason = "fixture: pretend an index-ordering protocol exists"

[counter_keys]
methods = ["incr"]
keys_file = "crates/sim/src/stats.rs"

[trace]
"#;
    let cfg = Config::from_doc(&toml::parse(src).unwrap()).unwrap();
    let model = FileModel::new(
        "tests/fixtures/bad_lock_order.rs".into(),
        include_str!("fixtures/bad_lock_order.rs"),
    );
    let mut findings = Vec::new();
    lints::lock_order::check(&model, &cfg.lock, &mut findings);
    assert!(
        spans(&findings, "lock-order").is_empty(),
        "only shard is classified and its same-class nesting is allowlisted: {findings:#?}"
    );
}

#[test]
fn sim_time_fires_on_wall_clock_uses_with_spans() {
    let model = FileModel::new(
        "tests/fixtures/wall_clock.rs".into(),
        include_str!("fixtures/wall_clock.rs"),
    );
    let mut findings = Vec::new();
    lints::sim_time::check(&model, &SimTimeConfig { allow: vec![] }, &mut findings);
    // Line 4: SystemTime in the use list; 7: Instant::now; 12: SystemTime
    // return type; 13: SystemTime::now; 17: thread::sleep. The airlock
    // comparison code and the string/comment mentions stay quiet.
    assert_eq!(
        spans(&findings, "sim-time"),
        vec![4, 7, 12, 13, 17],
        "{findings:#?}"
    );
}

#[test]
fn counter_keys_fires_on_literals_not_consts_or_tests() {
    let cfg = fixture_config();
    let model = FileModel::new(
        "tests/fixtures/literal_keys.rs".into(),
        include_str!("fixtures/literal_keys.rs"),
    );
    let mut findings = Vec::new();
    lints::counter_keys::check(&model, &cfg.counter_keys, &mut findings);
    assert_eq!(
        spans(&findings, "counter-key"),
        vec![5, 6, 7],
        "{findings:#?}"
    );
    assert!(findings[0].msg.contains("vm.faults"));
}

#[test]
fn trace_cover_fires_on_uncharted_pub_entry_points() {
    let cfg = fixture_config();
    let model = FileModel::new(
        "tests/fixtures/uncovered_entry.rs".into(),
        include_str!("fixtures/uncovered_entry.rs"),
    );
    let mut findings = Vec::new();
    lints::trace_cover::check(&model, &cfg.trace, &mut findings);
    assert_eq!(spans(&findings, "trace-cover"), vec![5], "{findings:#?}");
    assert!(findings[0].msg.contains("pub fn send"));
}

#[test]
fn atomic_ordering_fires_on_unlisted_orderings_with_spans() {
    let cfg = fixture_config();
    let model = FileModel::new(
        "tests/fixtures/bad_ordering.rs".into(),
        include_str!("fixtures/bad_ordering.rs"),
    );
    let mut findings = Vec::new();
    lints::atomics::check(&model, &cfg.atomics, &mut findings);
    // 6: SeqCst store; 10: Release store; 22: brace import. The
    // allowlisted pair, cmp::Ordering, and test code stay quiet.
    assert_eq!(
        spans(&findings, "atomic-ordering"),
        vec![6, 10, 22],
        "{findings:#?}"
    );
    assert!(findings[0].msg.contains("SeqCst"));
    assert!(findings[2].msg.contains("brace-importing"));
}

#[test]
fn atomic_ordering_allowlist_covers_the_orderings() {
    let mut cfg = fixture_config();
    cfg.atomics.allow[0]
        .orderings
        .extend(["SeqCst".to_string(), "Release".to_string()]);
    let model = FileModel::new(
        "tests/fixtures/bad_ordering.rs".into(),
        include_str!("fixtures/bad_ordering.rs"),
    );
    let mut findings = Vec::new();
    lints::atomics::check(&model, &cfg.atomics, &mut findings);
    // Only the brace import is left: it hides use sites regardless of
    // how generous the allow set is.
    assert_eq!(
        spans(&findings, "atomic-ordering"),
        vec![22],
        "{findings:#?}"
    );
}

#[test]
fn condvar_wait_fires_on_if_guarded_waits_with_spans() {
    let cfg = fixture_config();
    let model = FileModel::new(
        "tests/fixtures/wait_in_if.rs".into(),
        include_str!("fixtures/wait_in_if.rs"),
    );
    let mut findings = Vec::new();
    lints::condvar_wait::check(&model, &cfg.condvar, &mut findings);
    // 8: block under if; 15: timed block under if. The while loop, the
    // match-arm-inside-loop, the allowlisted step, and test code stay
    // quiet.
    assert_eq!(
        spans(&findings, "condvar-wait"),
        vec![8, 15],
        "{findings:#?}"
    );
    assert!(findings[0].msg.contains("wait_under_if"));
}

#[test]
fn unchecked_send_fires_on_unjustified_discards_with_spans() {
    let cfg = fixture_config();
    let model = FileModel::new(
        "tests/fixtures/dropped_send.rs".into(),
        include_str!("fixtures/dropped_send.rs"),
    );
    let mut findings = Vec::new();
    lints::unchecked_send::check(&model, &cfg.send, &mut findings);
    // 6: send; 10: send_many. The allowlisted reply_to, the propagated
    // Result, the named binding, the unrelated discard, and test code
    // stay quiet.
    assert_eq!(
        spans(&findings, "unchecked-send"),
        vec![6, 10],
        "{findings:#?}"
    );
    assert!(findings[0].msg.contains("fire_and_forget"));
    assert!(findings[1].msg.contains("send_many"));
}

#[test]
fn trace_cover_allowlist_covers_the_entry() {
    let mut cfg = fixture_config();
    cfg.trace.allow.push(machlint::config::FnAllow {
        file: "tests/fixtures/uncovered_entry.rs".into(),
        function: "send".into(),
        reason: "fixture: delegated tracing".into(),
    });
    let model = FileModel::new(
        "tests/fixtures/uncovered_entry.rs".into(),
        include_str!("fixtures/uncovered_entry.rs"),
    );
    let mut findings = Vec::new();
    lints::trace_cover::check(&model, &cfg.trace, &mut findings);
    assert!(findings.is_empty(), "{findings:#?}");
}
