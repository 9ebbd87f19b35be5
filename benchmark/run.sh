#!/usr/bin/env bash
# 3DPro benchmark ledger — build the benchmark package, then run it.
#
#   benchmark/run.sh [--seed N]            whole suite: per workload, an
#                                          untraced then a traced run
#   benchmark/run.sh --check [--seed N]    noise gate: untraced suite twice,
#                                          fail if any end-to-end metric's two
#                                          values differ by more than its bound
#   benchmark/run.sh --self-test           a flipped result digest must fail
#   benchmark/run.sh --manifest            print BENCHMARK.json's content
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; last stdout line is JSON
#
# Exits non-zero when the build fails, a result mismatches its oracle, or a
# gate fails. Trace files go to benchmark/out/.
set -euo pipefail

root="$PWD"
here="$(cd "$(dirname "$0")" && pwd)"

# Cargo resolves a relative CARGO_TARGET_DIR against its working directory,
# which is about to change; pin it to where the caller meant.
if [[ -n "${CARGO_TARGET_DIR:-}" && "$CARGO_TARGET_DIR" != /* ]]; then
    export CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR"
fi

# Build from inside the package: benchmark/.cargo/config.toml (shared target
# directory) only applies there. Build chatter goes to stderr; stdout is the
# report.
cd "$here"
cargo build --release --offline --locked >&2
bin="${CARGO_TARGET_DIR:-$here/../target}/release/tripro-benchmark"

cd "$root"
exec "$bin" --out-dir "$here/out" "$@"
