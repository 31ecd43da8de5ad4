#!/usr/bin/env bash
# The one command: every workload, plain and traced, each in its own process.
# Arguments are passed through, e.g.
#   benchmark/run.sh --aa            two sets, compared against the bounds
#   benchmark/run.sh --traced        per-layer metrics and trace files only
#   benchmark/run.sh --smoke         tiny slices, a few seconds, numbers mean nothing
#   benchmark/run.sh --workload store_fork --seed 7 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- "$@"
