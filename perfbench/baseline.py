"""Run the benchmark over seeds 1-10, twice, and record the medians and
quartiles.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

For each workload in BENCHMARK.json it makes two sets of untraced runs, one
run per seed in each, and two traced runs of the first seed.  Per set and
end-to-end metric it writes the median, quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median and
the sample count, and the same for the unpaced wall times; per end-to-end
metric, the change of the second set's median against the first and whether
it is within the metric's bound; per per-layer metric, both traced values
and whether they repeat exactly; and the tracing overhead: traced minus
untraced paced ``primary_s`` and ``secondary_s`` on the first seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
SETS = 2


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n"
                         f"{out.stderr}")
    lines = out.stdout.splitlines()
    env = json.loads(lines[0].removeprefix("env "))
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("wall ") and not trace:
            result["wall"] = {k: float(v) for k, v in
                              (kv.split("=") for kv in line.split()[1:])}
    print(f"{workload} seed={seed} trace={trace} "
          f"failed={result['failed']}/{result['attempted']}", flush=True)
    return env, result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "n": len(values),
            "values": values}


def run_set(workload, seconds, bench):
    runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
    return {
        "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"]
                                           for _, r in runs])
                       for m in bench["end_to_end"]},
        "wall": {name: summary([r["wall"][name] for _, r in runs])
                 for name in runs[0][1]["wall"]},
        "failed": [r["failed"] for _, r in runs],
        "attempted": [r["attempted"] for _, r in runs],
        "first_seed": runs[0][1]["metrics"],
        "env": [env for env, _ in runs],
    }


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    seconds = bench["run_seconds"]

    record = {"seeds": SEEDS, "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        sets = [run_set(workload, seconds, bench) for _ in range(SETS)]
        change = {}
        for m in bench["end_to_end"]:
            first, second = (s["end_to_end"][m["name"]]["median"]
                             for s in sets)
            worse = (second - first) / first
            if m["better"] == "higher":
                worse = -worse
            change[m["name"]] = {"worse_by": worse,
                                 "within_bound": worse <= m["bound"]}
        traced = [run(workload, SEEDS[0], seconds, 1) for _ in range(2)]
        layer = {}
        for m in bench["per_layer"]:
            a, b = (r["metrics"][m["name"]]["value"] for _, r in traced)
            layer[m["name"]] = {"values": [a, b], "repeats": a == b}
        overhead = {name: statistics.median(layer[f"traced.{name}"]["values"])
                    - sets[0]["first_seed"][name]["value"]
                    for name in ("primary_s", "secondary_s")}
        record["workloads"][workload] = {
            "sets": sets,
            "second_median_against_first": change,
            "per_layer_traced_seed": SEEDS[0],
            "per_layer": layer,
            "tracing_overhead_s": overhead,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for workload, rec in record["workloads"].items():
        for name, c in rec["second_median_against_first"].items():
            spreads = " ".join(f"{s['end_to_end'][name]['spread']:.4f}"
                               for s in rec["sets"])
            print(f"{workload:13s} {name:12s} spreads={spreads} "
                  f"second_worse_by={c['worse_by']:+.4f}")


if __name__ == "__main__":
    main()
