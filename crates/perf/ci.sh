#!/usr/bin/env bash
# What CI would run for the benchmark, without touching .github/: build,
# check BENCHMARK.json against the binary, run the crate's tests, run every
# workload at smoke size, and re-parse one traced run's span file. Run from
# anywhere; takes about a minute.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
target="${CARGO_TARGET_DIR:-target}"

bash crates/perf/run.sh list --check BENCHMARK.json >/dev/null
perf="$target/release/perf"
# The tests build against what run.sh settled on.
if "$perf" --workload sparse_pull --seed 1 --smoke | grep -q '^dependencies: crates.io'; then
    cargo test --release --quiet --offline -p optrep-perf
else
    cargo test --release --quiet --config crates/perf/cargo/offline.toml \
        -p optrep-perf -p bytes -p crossbeam
fi
"$perf" all --smoke --seconds 1 --out "$target/perf/ci-all.json" >/dev/null
"$perf" --workload dense_pull --seed 3 --seconds 1 --trace 1 --smoke >/dev/null
"$perf" check-trace "$target/perf/trace-dense_pull-3.jsonl"
echo "crates/perf/ci.sh: ok"
