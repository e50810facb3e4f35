#!/usr/bin/env bash
# Runs every workload once and prints each one's metrics by name and unit.
# Usage, from the repository root:
#   bash perfbench/run_all.sh [seed] [seconds] [trace]
# Exits nonzero if any workload's correctness or config-liveness gate fails.
set -euo pipefail
seed=${1:-1}
seconds=${2:-25}
trace=${3:-0}
status=0
for workload in durable-write mem-open hot-mixed; do
    echo "=== ${workload}"
    cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "${workload}" --seed "${seed}" --seconds "${seconds}" --trace "${trace}" || status=1
done
exit "${status}"
