#!/usr/bin/env bash
# Smoke test for the tripro-serve query service: build a tiny synthetic
# dataset, serve it, drive it with the tripro-load generator (which exits
# nonzero on any protocol or transport error), and shut the server down
# over the wire. tripro-load leaves its tally in
# target/harness/BENCH_serve.json.
#
# Usage: scripts/smoke_serve.sh [addr]
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${1:-127.0.0.1:3750}"
WORK="target/smoke_serve"
rm -rf "$WORK"
mkdir -p "$WORK"

echo "[smoke_serve] building release binaries"
cargo build --release -p tripro-cli -p tripro-bench --bin tripro --bin tripro-load

BIN=target/release

echo "[smoke_serve] generating + compressing a tiny dataset"
"$BIN/tripro" generate --out "$WORK/data" --nuclei 16 --vessels 0
"$BIN/tripro" build --in "$WORK/data/nuclei_a" --out "$WORK/store_a"
"$BIN/tripro" build --in "$WORK/data/nuclei_b" --out "$WORK/store_b"

echo "[smoke_serve] starting server on $ADDR"
"$BIN/tripro" serve --target "$WORK/store_a" --source "$WORK/store_b" \
    --addr "$ADDR" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

# Wait for the listener to come up (tripro-load's shard-info probe would also
# fail fast, but retrying here keeps the failure mode clear).
for _ in $(seq 1 50); do
    if (exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR#*:}") 2>/dev/null; then
        exec 3>&- || true
        break
    fi
    sleep 0.2
done

echo "[smoke_serve] closed-loop mixed workload"
"$BIN/tripro-load" --addr "$ADDR" --clients 4 --requests 50

echo "[smoke_serve] scraping the Metrics frame and validating the exposition"
METRICS="$WORK/metrics.txt"
# --check validates the Prometheus text rendered from the node's snapshot
# and exits nonzero on malformed exposition, failing the smoke test.
"$BIN/tripro" metrics --addr "$ADDR" --check > "$METRICS"
test -s "$METRICS"
grep -q '^# TYPE tripro_query_latency_seconds histogram$' "$METRICS"
grep -q 'tripro_requests_total{outcome="admitted"}' "$METRICS"

echo "[smoke_serve] open-loop workload with per-request deadlines, then shutdown"
"$BIN/tripro-load" --addr "$ADDR" --clients 2 --requests 25 --rate 200 \
    --deadline-ms 2000 --shutdown

wait "$SERVER_PID"
trap - EXIT

test -s target/harness/BENCH_serve.json
echo "[smoke_serve] ok: target/harness/BENCH_serve.json"
