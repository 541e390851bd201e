#!/usr/bin/env bash
# Build the benchmark (release) and run it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace]   every workload, one child process each
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one workload (the driver's call)
#   benchmark/run.sh compare A.json B.json                judge B against baseline A
#   benchmark/run.sh manifest                             print BENCHMARK.json from the catalogue
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/benchmark"

case "${1:-}" in
compare | manifest) exec "$bin" "$@" ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" run --out "$here/out" "$@"
    fi
done
exec "$bin" all --out "$here/out" "$@"
