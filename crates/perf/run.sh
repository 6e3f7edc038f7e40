#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source, then
# run it with the arguments given (the driver passes --workload, --seed,
# --seconds and --trace). Run from the root of a checkout:
#
#   bash crates/perf/run.sh --workload sparse_pull --seed 1 --seconds 20 --trace 0
#   bash crates/perf/run.sh list
#
# The build uses the published crates when cargo can resolve them without
# a network (a vendor dir, a warm registry cache). Where it cannot, as in
# the sandbox this was written in, every crates.io dependency of the
# workspace is patched to a stand-in under crates/perf/standins (see
# README.md). Which of the two a binary was built against is compiled in
# and printed by every run. Cargo's output goes to stderr, so the run's
# JSON object stays the last line of stdout. In a directory without the
# workspace both builds fail and nothing is printed on stdout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
target="${CARGO_TARGET_DIR:-target}"
[[ -f Cargo.toml ]] || { echo "crates/perf/run.sh: no optrep workspace in $PWD" >&2; exit 1; }

build() {
    OPTREP_PERF_DEPS="$1" cargo build --release --quiet --offline -p optrep-perf "${@:2}" >&2
}
if ! build "crates.io" 2>/dev/null; then
    build "stand-ins (crates/perf/standins)" --config crates/perf/cargo/offline.toml
fi
exec "$target/release/perf" "$@"
