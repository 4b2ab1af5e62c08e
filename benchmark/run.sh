#!/usr/bin/env bash
# Builds the benchmark in release mode (offline, root release profile) and
# runs it.
#
#   benchmark/run.sh --workload NAME [--seed S] [--seconds T] [--trace 0|1]
#   benchmark/run.sh [--seed S] [--seconds T] [--traced] [--out PATH]
#
# With --workload this is the driver's interface: one workload, and the
# last line of stdout is the JSON result. Without it every workload runs in
# turn. --trace 1 / --traced is the separate traced run (per-layer metrics,
# span log written to benchmark/out/trace.json); the default run measures
# the end-to-end metrics with telemetry off.
# Exit code: 0 ok, 1 a check failed, 2 usage; other codes are build errors.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/marnet-benchmark"

for arg in "$@"; do
    if [[ $arg == --workload ]]; then
        exec "$bin" "$@"
    fi
done

status=0
for workload in $("$bin" --list); do
    code=0
    "$bin" --workload "$workload" "$@" || code=$?
    if ((code == 2)); then exit 2; fi # a usage error is the same for all
    if ((code > status)); then status=$code; fi
done
exit "$status"
