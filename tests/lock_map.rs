//! The lock hierarchy is declared twice: machlint's L1 lint reads it from
//! `machlint.toml`'s `[lock] hierarchy` and checks every nested
//! acquisition statically, and `machsim::lockdep::LockClass` ranks the
//! classes the runtime witness checks. The two halves agree only if they
//! name the same classes in the same order.

use machsim::lockdep::LockClass;
use std::path::Path;

#[test]
fn machlint_and_lockdep_rank_the_same_classes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cfg_src = std::fs::read_to_string(root.join("machlint.toml"))
        .expect("machlint.toml exists at the workspace root");
    let cfg = machlint::config::Config::from_doc(
        &machlint::toml::parse(&cfg_src).expect("machlint.toml parses"),
    )
    .expect("machlint.toml is a valid config");

    let ranked: Vec<&str> = LockClass::ALL.iter().map(|c| c.name()).collect();
    assert_eq!(
        cfg.lock.hierarchy, ranked,
        "machlint.toml's [lock] hierarchy and LockClass::ALL disagree"
    );
    for (rank, class) in LockClass::ALL.iter().enumerate() {
        assert_eq!(usize::from(class.rank()), rank, "{class:?} is out of place");
    }
}
