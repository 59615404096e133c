#!/usr/bin/env bash
# Run every bench binary through the shared runner (bench/runner.h)
# and merge the per-bench JSONs into BENCH_oceanstore.json at the
# repo root.  Validation fails the run if any claim_* metric (a paper
# check) failed.
#
# usage: scripts/bench.sh [--smoke] [BUILD_DIR]
#   --smoke    1 repeat, tiny kernel configs (CI gate; the paper
#              tables always run at full size; default is the full
#              5-repeat measurement)
#   BUILD_DIR  cmake build tree (default: build)

set -euo pipefail

cd "$(dirname "$0")/.."

MODE="--bench"
if [[ "${1:-}" == "--smoke" ]]; then
    MODE="--smoke"
    shift
fi
BUILD="${1:-build}"

if [[ ! -d "$BUILD/bench" ]]; then
    echo "bench.sh: no $BUILD/bench — run: cmake -B $BUILD -S . && cmake --build $BUILD -j" >&2
    exit 1
fi

BENCHES=(
    bench_archival_reliability
    bench_bloom_location
    bench_ciphertext_ops
    bench_conflict_resolution
    bench_dissemination
    bench_erasure_codes
    bench_fragment_requests
    bench_plaxton_locality
    bench_prefetch
    bench_runtime
    bench_storage
    bench_update_cost
    bench_update_latency
    bench_workload
)

OUTDIR="$BUILD/bench_json"
mkdir -p "$OUTDIR"

JSONS=()
for b in "${BENCHES[@]}"; do
    echo "=== $b $MODE ==="
    "$BUILD/bench/$b" "$MODE" --json "$OUTDIR/$b.json"
    JSONS+=("$OUTDIR/$b.json")
done

python3 scripts/validate_bench_json.py "${JSONS[@]}"
python3 scripts/merge_bench_json.py BENCH_oceanstore.json "${JSONS[@]}"

echo
echo "wrote BENCH_oceanstore.json"
