#!/usr/bin/env sh
# Repo-wide lint gate: clippy with warnings denied, rustfmt drift, bench
# smoke runs, the machmark suite smoke + sim fingerprints, the machmc
# schedule-exploration models, the lockdep runtime witnesses, and
# machlint's static invariants. Run before sending a change; CI runs the
# same commands.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> fault_scaling bench (smoke)"
cargo bench -p machbench --bench fault_scaling -- --smoke

echo "==> numa_placement bench (smoke)"
cargo bench -p machbench --bench numa_placement -- --smoke

echo "==> ipc_scaling bench (smoke: batched vs unbatched, handoff vs enqueue)"
cargo bench -p machbench --bench ipc_scaling -- --smoke

echo "==> fault_concurrency bench (smoke: continuation engine outstanding-fault sweep)"
cargo bench -p machbench --bench fault_concurrency -- --smoke

echo "==> parallel_build bench (smoke: scheduler-driven build, P1 warm speedup + P2 I/O cut)"
cargo bench -p machbench --bench parallel_build -- --smoke

echo "==> machmark (smoke: all six workloads, one short round each, every output check)"
bash benchmark/run.sh --smoke

echo "==> machmark verify (vm_fork and msg_ool sim fingerprints repeat exactly)"
bash benchmark/run.sh verify

echo "==> machmc (schedule exploration: every concurrency-protocol model, full bound)"
cargo run -q --release -p machmc -- --all --json BENCH_mc.json

echo "==> bench baseline diff (ratchet: BENCH_*.json vs bench-baseline.toml)"
cargo run -q -p machbench --bin report bench-diff

echo "==> export smoke (chrome-trace + prometheus round-trip)"
cargo run -q -p machbench --bin report export-smoke

echo "==> critical-path smoke (span profiler: chain coverage, lock contention, gauges)"
cargo run -q --release -p machbench --bin report critical-path --smoke

echo "==> lockdep witness (stress + NUMA tests model-check the lock hierarchy)"
cargo test -q --features lockdep --test stress --test numa

echo "==> lockdep witness (scheduler: run-queue -> fault-table nesting is order-checked)"
cargo test -q -p machsched --features lockdep --test lockdep_witness

echo "==> machlint (static invariants: lock-order, sim-time, counter-key, panic-budget, trace-cover, span-pair, atomic-ordering, condvar-wait, unchecked-send)"
cargo run -q -p machlint -- --workspace

echo "OK: clippy clean, formatting clean, fault_scaling, numa_placement, fault_concurrency, parallel_build, machmark smoke + verify, machmc + baseline diff, export smoke, critical-path smoke, lockdep witnesses and machlint passed."
