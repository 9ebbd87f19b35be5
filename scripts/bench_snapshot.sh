#!/usr/bin/env bash
# Observability overhead guard for CI: runs the bench_obs harness at tiny
# scale and leaves target/harness/BENCH_obs.json for artifact upload.
# (Join timings live in the ledger: benchmark/run.sh, `query.*_join_ms`.)
#
# Usage: scripts/bench_snapshot.sh [scale]
#   scale: tiny (default) | small | medium
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-${TRIPRO_SCALE:-tiny}}"
export TRIPRO_SCALE="$SCALE"

echo "[bench_snapshot] scale=$TRIPRO_SCALE threads=${TRIPRO_THREADS:-auto}"
cargo run --release -p tripro-bench --bin bench_obs

test -s target/harness/BENCH_obs.json
echo "[bench_snapshot] ok: target/harness/BENCH_obs.json"
