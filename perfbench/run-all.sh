#!/usr/bin/env bash
# Run every benchmark workload once and print each result line, prefixed
# with the workload name. Exits non-zero if any workload's output check
# failed. Run from the repository root:
#
#   bash perfbench/run-all.sh [seed] [seconds] [trace]
set -u -o pipefail
seed=${1:-0}
seconds=${2:-25}
trace=${3:-0}
status=0
for w in figure-sweep audit-serial fuzz-campaign backend-replay; do
    rc=0
    line=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1) || rc=$?
    echo "$w $line"
    if [ "$rc" -ne 0 ]; then
        echo "$w: exit code $rc" >&2
        status=1
    fi
done
exit "$status"
