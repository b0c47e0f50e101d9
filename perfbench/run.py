"""Geodrive benchmark: one workload, timed end to end or traced per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it benchmarks the geodrive package in
that checkout's src/ directory, so nothing needs installing.  The metrics
and their units are the ones BENCHMARK.json lists: with --trace 0 the
end-to-end metrics, with --trace 1 the per-module ones.

Set-up time is measured from the start of a fresh interpreter to the point
where the CLI is imported and every config is generated and validated.  It
is taken in several processes and reported as the median.  The passes run
in one further process, whose peak RSS is reported.  The last stdout line
is the JSON result; the line before it records the environment.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HARNESS = os.path.join(HERE, "harness.py")

SETUP_PROBES = 14  # set-up-only processes, besides the one that runs passes
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"  # one thread each: steadier on a shared machine
GRACE_S = 100  # allowed beyond --seconds for the last pass and the checks


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("GEODRIVE_DIGITS", None)  # would override the configs' digits
    env.update({cap: THREADS for cap in THREAD_CAPS})
    return env


def start(argv, env):
    """Start a harness process; returns it and its seconds to READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, HARNESS, *argv], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, 30)
        raise BenchError("the harness failed during set-up")
    return proc, ready_s


def finish(proc, timeout):
    """Wait for a harness process; returns its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"the harness ran longer than {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"the harness exited with code {proc.returncode}")
    return out


def run(args):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(SRC, "geodrive", "cli.py")):
        raise BenchError(f"no geodrive source under {SRC}")
    loadavg = os.getloadavg()
    env = child_env()
    argv = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_s = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, ready_s = start(argv + ["--seconds", "0", "--setup-only"],
                                  env)
            finish(proc, 60)
            setup_s.append(ready_s)
    proc, ready_s = start(argv + ["--seconds", str(args.seconds),
                                  "--trace", str(args.trace)], env)
    setup_s.append(ready_s)
    result = json.loads(finish(proc, args.seconds + GRACE_S).splitlines()[-1])

    measured = dict(result["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setup_s)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    environment = dict(result["environment"], loadavg_at_start=loadavg,
                       setup_samples_s=setup_s, pass_wall_s=result["pass_wall_s"],
                       bytes_per_pass=result["bytes_per_pass"])
    print(json.dumps({"environment": environment}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    try:
        run(args)
    except (BenchError, OSError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
