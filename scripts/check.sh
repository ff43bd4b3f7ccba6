#!/usr/bin/env sh
# Repo-wide lint gate: clippy with warnings denied, rustfmt drift, the
# whole workspace's tests, a repeat loop over the threaded tests, bench
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

# Lines matching the pattern "$1" in the non-test code of the files that
# follow: each file up to its `mod tests`.
non_test() {
    pattern=$1
    shift
    PATTERN=$pattern awk 'FNR == 1 { t = 0 } /^(pub\(crate\) )?mod tests/ { t = 1 } !t && $0 ~ ENVIRON["PATTERN"] { print FILENAME ":" FNR ": " $0 }' "$@"
}

echo "==> one decoder per protocol (no message read by shape outside machcore::proto's codec)"
decoders=$(non_test 'as_u64s\(\)|as_ool\(\)|body\[[0-9]\]' crates/core/src/*.rs crates/pagers/src/*.rs crates/net/src/*.rs | grep -v '^crates/core/src/proto.rs:' || true)
if [ -n "$decoders" ]; then
    echo "$decoders"
    exit 1
fi

echo "==> one kind of server loop (threads only in machipc::serve and the kernel's watchdog and pageout daemon; one stop id)"
threads=$(non_test 'thread::(Builder|spawn)' crates/ipc/src/*.rs crates/core/src/*.rs crates/pagers/src/*.rs crates/net/src/*.rs | cut -d: -f1 | sort | uniq -c | tr -s ' ' | tr '\n' ';')
if [ "$threads" != " 2 crates/core/src/kernel.rs; 1 crates/ipc/src/serve.rs;" ]; then
    echo "thread sites: $threads"
    exit 1
fi
stops=$(non_test 'const [A-Z_]*(SHUTDOWN|STOP)[A-Z_]*: u32' crates/ipc/src/*.rs crates/core/src/*.rs crates/pagers/src/*.rs crates/net/src/*.rs | cut -d: -f1)
if [ "$stops" != "crates/ipc/src/serve.rs" ]; then
    echo "stop ids: $stops"
    exit 1
fi

echo "==> cargo test -q --workspace (every crate's unit tests, not only the root package's)"
cargo test -q --workspace

# The tests whose assertions once depended on the host's schedule, and the
# two storms over the fault path: 20 rounds under full parallelism, and 20
# more pinned to one core where the host can pin.
repeat_threaded_tests() {
    log=target/threaded-tests.log
    for round in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
        {
            "$@" cargo test -q -p machsched --lib local_pile_is_stolen_by_idle_cpus &&
                "$@" cargo test -q -p machbench --lib rpc_costs_about_two_messages &&
                "$@" cargo test -q --test sched --test fault_async --test stress \
                    --test request_sizing --test fault_locks --test watchdog \
                    --test pager_fill
        } >"$log" 2>&1 || {
            cat "$log"
            echo "threaded tests failed in round $round"
            exit 1
        }
    done
}
echo "==> threaded tests x20 (steal pile, RPC cost bounds, sched + fault_async + stress storms, run faults: request_sizing + fault_locks, watchdog in_flight, pager_fill replies resuming on their own thread)"
repeat_threaded_tests
if command -v taskset >/dev/null 2>&1; then
    echo "==> threaded tests x20 on one core (taskset -c 0)"
    repeat_threaded_tests taskset -c 0
fi

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

echo "OK: clippy clean, formatting clean, one decoder and one server loop, workspace tests, threaded-test repeats, fault_scaling, numa_placement, fault_concurrency, parallel_build, machmark smoke + verify, machmc + baseline diff, export smoke, critical-path smoke, lockdep witnesses and machlint passed."
