#!/usr/bin/env bash
# Noise study: two sets of full runs of the same commit, compared against
# the benchmark's own bounds.
#
#   benchmark/noise.sh [runs-per-set (default 5)] [seconds-per-run (default run_seconds)]
#
# Each set runs every workload once per seed 1..N — a different seed per
# run, the same seeds in both sets, one set after the other — and keeps the
# last stdout line of each run. `--compare` then prints, for every workload
# × end-to-end metric, both sets' medians and quartiles, set A's spread
# (q3 - q1 over the median), how much worse set B's median is, and the
# bound, and exits non-zero when a spread or a gap exceeds its bound.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${1:-5}
seconds=${2:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
if [ "$runs" -lt 5 ]; then
    echo "noise.sh: a set needs at least 5 runs" >&2
    exit 2
fi

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/gear-benchmark"
out=benchmark/out
mkdir -p "$out"

for set in A B; do
    : > "$out/noise-$set.jsonl"
    for workload in publish deploy_cold rollout fleet; do
        for seed in $(seq 1 "$runs"); do
            line=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
                --out "$out/noise-last.json" | tail -n 1)
            echo "$workload $line" >> "$out/noise-$set.jsonl"
            echo "set $set $workload seed $seed done" >&2
        done
    done
done

"$bin" --compare "$out/noise-A.jsonl" "$out/noise-B.jsonl"
