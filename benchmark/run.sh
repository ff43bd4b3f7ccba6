#!/usr/bin/env bash
# Builds machmark (offline, release) and runs it.
#
#   benchmark/run.sh [--seed N] [--smoke]
#       every workload, interleaved rounds, checks, all metrics, result file
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last stdout line is the JSON result the driver reads
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh verify
#
# Works from any directory; reads and writes only inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# The driver names the build directory relative to the checkout; without
# one, share the repository's own target directory.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/machmark"

case "${1:-}" in
    compare | verify | run | suite)
        cmd="$1"
        shift
        ;;
    *)
        cmd=suite
        for arg in "$@"; do
            if [ "$arg" = "--workload" ]; then
                cmd=run
            fi
        done
        ;;
esac

case "$cmd" in
    compare) exec "$bin" compare "$@" ;;
    *) exec "$bin" "$cmd" --out-dir "$here/out" "$@" ;;
esac
