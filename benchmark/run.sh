#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload in one process; the last line of standard output is the
#       result object BENCHMARK.json describes.
#   benchmark/run.sh [--seed <n>] [--seconds <s>]
#       every workload, untraced then traced, each in a process of its own;
#       gathers the per-run records into benchmark/out/result.json and exits
#       non-zero if any op of any run went unverified.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

build_start=$(date +%s.%N)
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
build_s=$(echo "$(date +%s.%N) $build_start" | awk '{printf "%.3f", $1 - $2}')
commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
bin=("$target/release/sting-benchmark" --build-s "$build_s" --commit "$commit")

if [[ " $* " == *" --workload "* ]]; then
    exec "${bin[@]}" "$@"
fi

status=0
records=()
for workload in fork_tree tuple_farm echo_server scheme_mix; do
    for trace in 0 1; do
        "${bin[@]}" --workload "$workload" --trace "$trace" "$@" | grep -v '^{' || status=1
        records+=("$here/out/$workload-trace$trace.json")
    done
done
{
    printf '{"runs": [\n'
    for i in "${!records[@]}"; do
        [[ $i -gt 0 ]] && printf ',\n'
        cat "${records[$i]}"
    done
    printf ']}\n'
} > "$here/out/result.json"
echo "wrote $here/out/result.json" >&2
exit $status
