#!/usr/bin/env bash
# benchmark/repeat.sh N [first-seed]
#
# Runs the benchmark command of BENCHMARK.json N times on every workload,
# each time with another seed, tracing off.  Prints, per workload and
# end-to-end metric, the median, the quartiles (Python's
# statistics.quantiles), their distance as a share of the median, and
# (max - min) / median, beside the metric's bound.  The values of every run
# go to benchmark/out/repeat-<first-seed>.json so two sets can be compared.
# Exits non-zero when an op failed or a quartile spread (setup_s apart,
# which is judged on medians only) exceeds its bound.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
exec python3 - "${1:?usage: repeat.sh N [first-seed]}" "${2:-1}" <<'PY'
import json, statistics, subprocess, sys

runs, first_seed = int(sys.argv[1]), int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
values, failed = {}, 0
for w in (w["name"] for w in bench["workloads"]):
    for seed in range(first_seed, first_seed + runs):
        cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        failed += result["failed"] + (0 if result["correct"] else 1)
        for name, m in result["metrics"].items():
            values.setdefault(w, {}).setdefault(name, []).append(m["value"])
        print(f"{w} seed {seed}: " + "  ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)

json.dump({"first_seed": first_seed, "values": values},
          open(f"benchmark/out/repeat-{first_seed}.json", "w"), indent=1)

over = 0
print(f"\n{'workload':12} {'metric':18} {'median':>11} {'q1':>11} {'q3':>11} "
      f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}")
for w, metrics in values.items():
    for e in bench["end_to_end"]:
        v = metrics[e["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        iqr, rng = (q3 - q1) / med, (max(v) - min(v)) / med
        wide = iqr > e["bound"] and e["name"] != "setup_s"
        over += wide
        print(f"{w:12} {e['name']:18} {med:11.5g} {q1:11.5g} {q3:11.5g} "
              f"{iqr:8.4f} {rng:9.4f} {e['bound']:6.2f}{'  OVER' if wide else ''}")
print(f"\nfailed ops: {failed}; spreads over their bound: {over}")
sys.exit(1 if failed or over else 0)
PY
