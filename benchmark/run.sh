#!/usr/bin/env bash
# Runs the whole benchmark for one seed: every listed workload untraced
# (end-to-end metrics), then traced (per-layer metrics), one result file
# per run. From the repository root:
#
#   benchmark/run.sh [seed] [outdir]      # defaults: 42, benchmark/out/seed<seed>
#
# Compare two such directories with
#   cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --compare A B
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-42}"
out="${2:-benchmark/out/seed${seed}}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
mapfile -t workloads < <(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')

mkdir -p "$out"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bench=(cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml --)

failed=0
for trace in 0 1; do
    for w in "${workloads[@]}"; do
        suffix=""; [ "$trace" = 1 ] && suffix=".traced"
        echo "== $w (seed $seed, trace $trace)"
        "${bench[@]}" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            --out "$out/$w$suffix.json" | grep -v '^{' || failed=1
    done
done
echo "results in $out"
exit "$failed"
