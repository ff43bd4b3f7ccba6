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

echo "==> one codec (no message built or read by hand outside machcore::proto's codec but msg.rs's sends under a caller's id)"
codec='as_u64s\(\)|as_ool\(\)|body\[[0-9]\]|Parts::of\(|MsgItem::(u64s|bytes)\(|Message::new\('
by_hand=$(non_test "$codec" crates/core/src/*.rs crates/pagers/src/*.rs crates/net/src/*.rs | grep -v -e '^crates/core/src/proto.rs:' -e '^crates/core/src/msg.rs:[0-9]*: *dest\.send(Message::new(id)' || true)
if [ -n "$by_hand" ]; then
    echo "$by_hand"
    exit 1
fi

echo "==> one thread site (machipc::serve_group, the one loop every ManagerTask and server runs, outside machsched, machmc, machbench and machlint; one stop id)"
sources=$(ls crates/*/src/*.rs | grep -v -E '^crates/(sched|mc|bench|lint)/')
# shellcheck disable=SC2086 # one word per source file
threads=$(non_test 'thread::(Builder|spawn)' $sources | cut -d: -f1 | sort | uniq -c | tr -s ' ' | tr '\n' ';')
if [ "$threads" != " 1 crates/ipc/src/serve.rs;" ]; then
    echo "thread sites: $threads"
    exit 1
fi
stops=$(non_test 'const [A-Z_]*(SHUTDOWN|STOP)[A-Z_]*: u32' crates/ipc/src/*.rs crates/core/src/*.rs crates/pagers/src/*.rs crates/net/src/*.rs | cut -d: -f1)
if [ "$stops" != "crates/ipc/src/serve.rs" ]; then
    echo "stop ids: $stops"
    exit 1
fi

echo "==> pageout runs on the allocation that crosses the low watermark (no pageout alarm, wake or retry in non-test machvm)"
pageout_alarms=$(non_test 'wake_pageout|PAGEOUT_RETRY|Alarm::Pageout' crates/vm/src/*.rs)
if [ -n "$pageout_alarms" ]; then
    echo "$pageout_alarms"
    exit 1
fi

echo "==> a fault's deadline is kept by the thread that waits for it (no fault engine timer thread, timer loop or timer lock class in non-test code)"
# shellcheck disable=SC2046 # one word per source file
timers=$(non_test 'vm-timer|run_timer|LockClass::Timer' $(ls crates/*/src/*.rs crates/*/src/*/*.rs src/*.rs))
if [ -n "$timers" ]; then
    echo "$timers"
    exit 1
fi

echo "==> a fault's one bound is its table slot (no per-pager in-flight budget, deferred-run queue or its knob and counter in non-test code outside machlint)"
# shellcheck disable=SC2046 # one word per source file
budgets=$(non_test 'pager_inflight_pages|PagerBudget|deferred_by|VM_PAGER_DEFERRED_RUNS' $(ls crates/*/src/*.rs crates/*/src/*/*.rs crates/*/benches/*.rs src/*.rs | grep -v '^crates/lint/'))
if [ -n "$budgets" ]; then
    echo "$budgets"
    exit 1
fi

echo "==> no address as a key (no as_ptr(..) cast to an integer in non-test kernel code, outside machmc, machbench and machlint)"
# shellcheck disable=SC2046 # one word per source file
addresses=$(non_test 'as_ptr\(.*\) as .*usize' $(ls crates/*/src/*.rs crates/*/src/*/*.rs src/*.rs | grep -v -E '^crates/(mc|bench|lint)/'))
if [ -n "$addresses" ]; then
    echo "$addresses"
    exit 1
fi

echo "==> a server is a task: the one loop receives on a port group (no ReceiveRight in non-test machipc serve.rs)"
single=$(non_test 'ReceiveRight' crates/ipc/src/serve.rs)
if [ -n "$single" ]; then
    echo "$single"
    exit 1
fi

echo "==> the kernel serves no port with a thread (machcore serves only through ManagerTask, in manager.rs; kernel objects are kernel ports)"
served=$(non_test '(^|[^A-Za-z0-9_])serve(_group)?\(' crates/core/src/*.rs | grep -v 'fn serve(' | cut -d: -f1 | sort -u)
if [ "$served" != "crates/core/src/manager.rs" ]; then
    echo "files calling serve: $served"
    exit 1
fi

echo "==> the network forwards on the sender's thread (a netmsg proxy is a kernel port: no serve( and no thread:: in non-test machnet)"
forwarders=$(non_test '(^|[^A-Za-z0-9_])serve\(|thread::' crates/net/src/*.rs)
if [ -n "$forwarders" ]; then
    echo "$forwarders"
    exit 1
fi

echo "==> no non-test poll (machsim::wall::poll_until is for tests; code waits on a Signal or a Latch)"
# shellcheck disable=SC2046 # one word per source file
polls=$(non_test 'poll_until' $(ls crates/*/src/*.rs crates/*/src/*/*.rs src/*.rs | grep -v '^crates/sim/src/wall.rs$'))
if [ -n "$polls" ]; then
    echo "$polls"
    exit 1
fi

echo "==> a data manager's state is owned by its thread (no Arc<Mutex< in non-test machpagers code: a server's managers live in its ManagerTask)"
shared=$(non_test 'Arc<Mutex<' crates/pagers/src/*.rs)
if [ -n "$shared" ]; then
    echo "$shared"
    exit 1
fi

echo "==> one way to wait (no Condvar outside machsim::wall, outside machmc, machbench and machlint; doc comments excepted)"
# shellcheck disable=SC2046 # one word per source file
waits=$(non_test 'Condvar' $(ls crates/*/src/*.rs | grep -v -E '^crates/(mc|bench|lint)/') | grep -v -E '^[^:]*:[0-9]+: *//' | cut -d: -f1 | sort -u | tr '\n' ';')
if [ "$waits" != "crates/sim/src/wall.rs;" ]; then
    echo "files naming Condvar: $waits"
    exit 1
fi

echo "==> cargo test -q --workspace (every crate's unit tests, not only the root package's)"
cargo test -q --workspace

# The tests whose assertions once depended on the host's schedule, and the
# two storms over the fault path: 20 rounds under full parallelism, and 20
# more pinned to one core where the host can pin. unix_equivalence's message
# and disk-write counts are exact because FS_SYNC answers with the writes
# on disk, and remote_sync holds a kernel behind a netmsg proxy to the same;
# laundry's reclaims are exact because its kernel never crosses the low
# watermark, pageout_replay's storm replays because pageout runs on the
# allocating thread, and the fault engine sends one sweep's requests in
# booking order; the repeats hold them to that.
repeat_threaded_tests() {
    log=target/threaded-tests.log
    for round in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
        {
            "$@" cargo test -q -p machsched --lib local_pile_is_stolen_by_idle_cpus &&
                "$@" cargo test -q -p machbench --lib rpc_costs_about_two_messages &&
                "$@" cargo test -q -p machvm --lib flushed_runs_leave_in_booking_order &&
                "$@" cargo test -q --test sched --test fault_async --test stress \
                    --test request_sizing --test fault_locks --test watchdog \
                    --test pager_fill --test pmap_race --test unix_equivalence \
                    --test remote_sync --test laundry --test pageout_replay
        } >"$log" 2>&1 || {
            cat "$log"
            echo "threaded tests failed in round $round"
            exit 1
        }
    done
}
echo "==> threaded tests x20 (steal pile, RPC cost bounds, requests sent in booking order, sched + fault_async + stress storms, run faults: request_sizing + fault_locks, watchdog in_flight, pager_fill replies resuming on their own thread, pmap_race lock-free translations, unix_equivalence exact write-back counts, remote_sync on disk through a proxy, laundry exact reclaims, pageout_replay storm replays)"
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

echo "==> critical-path smoke (span profiler: chain coverage, lock contention, parked depth)"
cargo run -q --release -p machbench --bin report critical-path --smoke

echo "==> lockdep witness (stress, NUMA, and a manager's thread applying its replies: fault_async + pager_fill + servers; machvm's unit tests, whose resident stress test races installs, copies, cleans and evictions under resident -> queues)"
cargo test -q --features lockdep --test stress --test numa --test fault_async --test pager_fill \
    --test servers
cargo test -q -p machvm --features lockdep --lib

echo "==> lockdep witness (scheduler: run-queue -> fault-table nesting is order-checked)"
cargo test -q -p machsched --features lockdep --test lockdep_witness

echo "==> machlint (static invariants: lock-order, sim-time, counter-key, panic-budget, trace-cover, span-pair, atomic-ordering, condvar-wait, unchecked-send)"
cargo run -q -p machlint -- --workspace

echo "OK: clippy clean, formatting clean, one codec, one thread site, fault deadlines kept by their waiters, a fault's one bound is its table slot, pageout on the allocating thread, no address as a key, a server is a task receiving on a port group, no kernel object served by a thread, the network forwards on the sender's thread, no non-test poll, a data manager's state owned by its thread and one way to wait, workspace tests, threaded-test repeats, fault_scaling, numa_placement, fault_concurrency, parallel_build, machmark smoke + verify, machmc + baseline diff, export smoke, critical-path smoke, lockdep witnesses and machlint passed."
