"""Measure the baseline: two sets of ten seeds per workload, plus a traced run.

    python3 perfbench/baseline.py

Runs run.py the way BENCHMARK.json describes, from the repository root, and
writes baseline.json next to this script.  Each set runs every workload on
seeds 0-9.  For each workload and end-to-end metric it records, per set, the
median, the quartiles and the spread (quartile distance over the median)
that BENCHMARK.json's bounds are set against.  It also records how far the
second set's median lies from the first's, and the median distance between
the two runs of one seed, which is machine noise alone because a seed fixes
the inputs.  Last come the per-module metrics of a traced seed-0 run.  This
takes about 45 minutes.
"""

import json
import os
import statistics
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(10)
SETS = 2


def bench(spec, workload, seed, trace):
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True).stdout.splitlines()
    return json.loads(out[-2])["environment"], json.loads(out[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    # values[workload][metric][set] lists one value per seed
    values = {w: {m: [[] for _ in range(SETS)] for m in bounds}
              for w in workloads}
    counts = {w: {"attempted": 0, "failed": 0} for w in workloads}
    baseline = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS),
                "sets": SETS, "end_to_end": {}, "per_layer_seed0": {}}
    for k in range(SETS):
        for workload in workloads:
            for seed in SEEDS:
                env, result = bench(spec, workload, seed, 0)
                baseline.setdefault("environment", env)
                counts[workload]["attempted"] += result["attempted"]
                counts[workload]["failed"] += result["failed"]
                for name, metric in result["metrics"].items():
                    values[workload][name][k].append(metric["value"])
                print(f"set {k} {workload} seed {seed}: "
                      + json.dumps(result), flush=True)
    for workload in workloads:
        rows = dict(counts[workload])
        for name, sets in values[workload].items():
            row = {"sets": [spread(v) for v in sets]}
            first, second = (s["median"] for s in row["sets"][:2])
            row["set_median_change"] = second / first - 1
            row["same_seed_change"] = statistics.median(
                abs(b / a - 1) for a, b in zip(sets[0], sets[1]))
            row["bound"] = bounds[name]
            rows[name] = row
            print(f"{workload} {name}: spreads "
                  + " ".join(f"{s['spread']:.3f}" for s in row["sets"])
                  + f", set medians {row['set_median_change']:+.3f}, "
                  f"same seed {row['same_seed_change']:.3f} "
                  f"(bound {bounds[name]})", flush=True)
        baseline["end_to_end"][workload] = rows
        _, traced = bench(spec, workload, 0, 1)
        baseline["per_layer_seed0"][workload] = {
            name: metric["value"] for name, metric in traced["metrics"].items()}
    with open(os.path.join(HERE, "baseline.json"), "w",
              encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
