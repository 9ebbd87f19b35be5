#!/usr/bin/env bash
# Smoke test for the sharded serve tier: build a tiny synthetic dataset,
# start a loopback 3-shard cluster behind a coordinator next to a
# single-engine reference serving the same stores, and assert
#
#   1. the cluster answers the mixed workload byte-identically to the
#      single engine (tripro-load --verify exits nonzero on divergence),
#   2. per-shard scatter metrics are visible on the coordinator,
#   3. the coordinator's exposition is federated: per-node families
#      (node="shard0..2") plus an exact node="cluster" aggregate,
#   4. `tripro trace --addr` on the coordinator renders stitched cluster
#      waterfalls with child spans from all 3 shards under one trace id,
#      with the cost line and a fanout line naming all 3 shards,
#   5. every process drains cleanly on a wire Shutdown frame.
#
# Usage: scripts/smoke_cluster.sh [port-base]   (default 3760)
set -euo pipefail
cd "$(dirname "$0")/.."

BASE="${1:-3760}"
SINGLE="127.0.0.1:$BASE"
S1="127.0.0.1:$((BASE + 1))"
S2="127.0.0.1:$((BASE + 2))"
S3="127.0.0.1:$((BASE + 3))"
COORD="127.0.0.1:$((BASE + 4))"
WORK="target/smoke_cluster"
rm -rf "$WORK"
mkdir -p "$WORK"

echo "[smoke_cluster] building release binaries"
cargo build --release -p tripro-cli -p tripro-bench --bin tripro --bin tripro-load

BIN=target/release

echo "[smoke_cluster] generating + compressing a tiny dataset"
"$BIN/tripro" generate --out "$WORK/data" --nuclei 16 --vessels 0
"$BIN/tripro" build --in "$WORK/data/nuclei_a" --out "$WORK/store_a"
"$BIN/tripro" build --in "$WORK/data/nuclei_b" --out "$WORK/store_b"

PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

await_port() {
    local addr=$1
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/${addr%:*}/${addr#*:}") 2>/dev/null; then
            exec 3>&- || true
            return 0
        fi
        sleep 0.2
    done
    echo "[smoke_cluster] $addr never came up" >&2
    return 1
}

echo "[smoke_cluster] starting single-engine reference on $SINGLE"
"$BIN/tripro" serve --target "$WORK/store_a" --source "$WORK/store_b" \
    --addr "$SINGLE" &
PIDS+=($!)

echo "[smoke_cluster] starting 3 shards"
i=0
for addr in "$S1" "$S2" "$S3"; do
    "$BIN/tripro" serve --target "$WORK/store_a" --source "$WORK/store_b" \
        --addr "$addr" --shard-index "$i" --shard-count 3 --epoch 1 \
        --trace-slow-ms 0 &
    PIDS+=($!)
    i=$((i + 1))
done
for addr in "$SINGLE" "$S1" "$S2" "$S3"; do await_port "$addr"; done

echo "[smoke_cluster] starting coordinator on $COORD"
# --max-inflight above the client count so a small CI box never sheds
# the verification workload for lack of executor slots.
"$BIN/tripro" serve --coordinator --target "$WORK/store_a" \
    --shards "$S1,$S2,$S3" --addr "$COORD" --epoch 1 --max-inflight 16 \
    --trace-slow-ms 0 &
PIDS+=($!)
await_port "$COORD"

echo "[smoke_cluster] mixed workload through the coordinator, verified against the single engine"
"$BIN/tripro-load" --addr "$COORD" --verify "$SINGLE" --clients 4 --requests 40 \
    --mix intersect,within,nn,knn,contains --out "$WORK/BENCH_cluster.json"

echo "[smoke_cluster] checking per-shard scatter metrics on the coordinator"
METRICS="$WORK/metrics.txt"
"$BIN/tripro" metrics --addr "$COORD" --check > "$METRICS"
grep -q '^# TYPE tripro_shard_fanout histogram$' "$METRICS"
grep -q 'tripro_shard_subquery_seconds' "$METRICS"
grep -q 'tripro_merge_seconds' "$METRICS"

echo "[smoke_cluster] federated exposition: per-node families + cluster aggregate"
for node in cluster coordinator shard0 shard1 shard2; do
    grep -q "node=\"$node\"" "$METRICS" || {
        echo "[smoke_cluster] federated exposition is missing node=\"$node\"" >&2
        exit 1
    }
done
# Every shard must export the engine's query-latency family; the
# coordinator (which merges, not executes) must export its merge timer.
for node in shard0 shard1 shard2; do
    grep 'tripro_query_latency_seconds_count{' "$METRICS" \
        | grep -q "node=\"$node\"" || {
        echo "[smoke_cluster] no tripro_query_latency_seconds for node=\"$node\"" >&2
        exit 1
    }
done
grep 'tripro_merge_seconds_count{' "$METRICS" | grep -q 'node="coordinator"' || {
    echo "[smoke_cluster] no tripro_merge_seconds for node=\"coordinator\"" >&2
    exit 1
}

echo "[smoke_cluster] cross-node trace waterfalls on the coordinator"
TRACES="$WORK/traces.txt"
"$BIN/tripro" trace --addr "$COORD" > "$TRACES"
# At least one stitched record must contain a child span from every
# shard, plus the cost line and a fanout line naming every shard (which
# decodes each shard's wire summary); records are blocks starting with
# "trace 0x...".
awk '
    function check() { if (s0 && s1 && s2 && cost && f0 && f1 && f2) ok = 1 }
    /^trace 0x/ { check(); s0 = s1 = s2 = cost = f0 = f1 = f2 = 0 }
    /shard=0/ { s0 = 1 }
    /shard=1/ { s1 = 1 }
    /shard=2/ { s2 = 1 }
    /^ *cost: / { cost = 1 }
    /^ *fanout:/ { f0 = / shard 0 /; f1 = / shard 1 /; f2 = / shard 2 / }
    END { check(); exit !ok }
' "$TRACES" || {
    echo "[smoke_cluster] no trace waterfall spans all 3 shards with their cost and fanout:" >&2
    head -40 "$TRACES" >&2
    exit 1
}

echo "[smoke_cluster] byte-identity columns in the artifact"
grep -q '"mismatches":0' "$WORK/BENCH_cluster.json"
grep -q '"shard_errors":0' "$WORK/BENCH_cluster.json"

echo "[smoke_cluster] drain shutdown of every process over the wire"
"$BIN/tripro-load" --addr "$COORD,$S1,$S2,$S3,$SINGLE" --clients 1 --requests 1 \
    --shutdown --out "$WORK/BENCH_shutdown.json"

# Every process must exit zero on its own (clean drain, no kill needed).
for pid in "${PIDS[@]}"; do
    wait "$pid"
done
PIDS=()
trap - EXIT

echo "[smoke_cluster] ok"
