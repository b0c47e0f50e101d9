"""One benchmark process: set up a workload, then time passes over it.

    python3 perfbench/harness.py --workload NAME --seed N --seconds S
        [--trace 0|1] [--size full|smoke] [--setup-only]

run.py starts this script with geodrive's source directory on PYTHONPATH.
It prints READY once the imports are done and every config is generated and
validated; with --setup-only it stops there.  Otherwise it runs passes for
--seconds seconds.  A pass runs each operation through `geodrive run`
(`cli.main`) into a fresh directory, checks the outputs, then deletes the
directory.  The last stdout line is a JSON
object with the metrics of this process.

With --trace 1 the passes alternate between untraced and traced ones, so
the same process reports the per-module breakdown and the tracing overhead.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(HERE, "_work")
TRACE_DIR = os.path.join(HERE, "_traces")
EXPECTED_PATH = os.path.join(HERE, "expected_seed0.json")

ENERGY_TOL = 1e-12
NORM_TOL = 1e-9
CHART_TOL = 1e-9
RESIDUE_TOL = 1e-3
SEED0_RTOL = 1e-9


def setup(workload, seed, size):
    """Import the CLI, generate the workload's configs and validate them."""
    from geodrive import cli
    import workloads

    ops = workloads.build(workload, seed, size)
    for op in ops:
        errors = cli.validate_config(op["config"])
        if errors:
            raise ValueError(f"{op['label']}: invalid config {errors}")
    return ops


class Capture:
    """Keeps the Bolza trajectories the CLI builds, for the output checks.

    A context manager: it wraps the two names through which the CLI path
    builds trajectories and restores them on exit.  Untraced passes pay one
    extra python call per operation for it.
    """

    def __init__(self):
        self.bolza = []
        self._saved = []

    def __enter__(self):
        from geodrive import cli, response, trajectories

        for module in (cli, response):
            original = module.trajectory

            def trajectory(spec, original=original):
                traj = original(spec)
                if isinstance(traj, trajectories.BolzaTrajectory):
                    self.bolza.append(traj)
                return traj

            self._saved.append((module, original))
            module.trajectory = trajectory
        return self

    def __exit__(self, *exc):
        for module, original in self._saved:
            module.trajectory = original
        self._saved.clear()


def load_expected(workload, seed, size):
    """The seed-0 values recorded at the baseline commit, or None."""
    if seed != 0 or size != "full":
        return None
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def observed_values(summary, trajectories):
    """The values of one operation that seed 0 must reproduce."""
    keys = ("samples", "final_running_average", "value", "nearest_quantum",
            "final_estimate", "chi_square")
    out = {k: summary[k] for k in keys if k in summary}
    if trajectories:
        out["crossings"] = sum(len(t.crossings) for t in trajectories)
    return out


def check_bolza(traj):
    """Energy conservation and the closed form at a few samples."""
    import mpmath as mp
    import numpy as np
    from geodrive.trajectories import bolza_closed_form

    failures = []
    spec = traj.spec
    drift = float(np.abs(traj.energies() - spec.speed ** 2 / 2).max())
    if not drift < ENERGY_TOL:
        failures.append(f"energy drift {drift:.3e} >= {ENERGY_TOL:g}")
    n = len(traj)
    for k in sorted({0, n // 3, 2 * n // 3, n - 1}):
        chart = traj.chart_map(k)
        z_ref, p_ref = bolza_closed_form(spec.z0, spec.direction, spec.speed,
                                         traj.t[k], digits=traj.digits)
        with mp.workdps(traj.digits):
            dz = float(abs(chart(z_ref) - traj.z[k]))
            dp = float(abs(chart.push_forward(z_ref, p_ref) - traj.p[k]))
        scale = max(1.0, abs(traj.p[k]))
        if not (dz < CHART_TOL and dp < CHART_TOL * scale):
            failures.append(f"sample {k} is off the closed form: "
                            f"|dz| = {dz:.3e}, |dp| = {dp:.3e}")
    return failures


def check_op(op, summary, trajectories, expected=None):
    """Every check of one operation's output; returns the failures."""
    failures = []
    if "norm_deviation" in summary and \
            not summary["norm_deviation"] < NORM_TOL:
        failures.append(f"norm deviation {summary['norm_deviation']:.3e}")
    for traj in trajectories:
        failures.extend(check_bolza(traj))
    if "quantum" in op:
        nearest = summary["nearest_quantum"]
        if op["config"]["manifold"] != "bolza":  # the sign is a convention
            nearest = abs(nearest)
        if not math.isclose(nearest, op["quantum"], rel_tol=1e-12,
                            abs_tol=1e-12):
            failures.append(f"nearest quantum {nearest!r}, expected "
                            f"{op['quantum']!r}")
        if not summary["residue"] < RESIDUE_TOL:
            failures.append(f"residue {summary['residue']:.3e}")
    if expected is not None:
        got = observed_values(summary, trajectories)
        for key, want in expected.items():
            value = got.get(key)
            if value is None or not math.isclose(
                    value, want, rel_tol=SEED0_RTOL, abs_tol=1e-12):
                failures.append(f"seed-0 {key} = {value!r}, recorded "
                                f"{want!r}")
    return failures


def submit(op, pass_dir):
    """Run one operation as `geodrive run CONFIG` does; returns its seconds
    and the summary that its manifest records.

    The config is written with its output prefix inside pass_dir, and
    `cli.main(["run", path])` runs it with stdout discarded.  Only that
    call is timed.  A nonzero exit code raises RuntimeError.
    """
    from geodrive import cli

    prefix = os.path.join(pass_dir, op["label"] + "_")
    config_path = prefix + "config.json"
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(dict(op["config"], output={"prefix": prefix}), fh)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", config_path])
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"geodrive run exited with code {code}")
    with open(prefix + "manifest.json", encoding="utf-8") as fh:
        return elapsed, json.load(fh)["summary"]


def run_pass(ops, capture, expected=None, tracer=None):
    """Submit every operation once; returns the pass record.

    Only the `geodrive run` calls are timed.  The checks run after the
    tracer is removed, so they add no spans, and a failed check counts as a
    failed operation.
    """
    import spans

    pass_dir = tempfile.mkdtemp(dir=WORK_DIR)
    restore = None
    if tracer is not None:
        tracer.reset()
        restore = spans.instrument(tracer)
    done = []
    cpu0 = time.process_time()
    try:
        for op in ops:
            capture.bolza.clear()
            elapsed, summary, error = 0.0, None, None
            try:
                elapsed, summary = submit(op, pass_dir)
            except Exception:  # counted as a failed operation
                error = traceback.format_exc(limit=3)
            done.append((op, elapsed, summary, list(capture.bolza), error))
    finally:
        cpu_s = time.process_time() - cpu0
        if restore is not None:
            restore()
    wall_s = sum(elapsed for _, elapsed, _, _, _ in done)
    failures = []
    for op, _, summary, trajectories, error in done:
        if error:
            problems = [error]
        elif expected is not None and op["label"] not in expected:
            problems = ["no seed-0 values recorded"]
        else:
            want = None if expected is None else expected[op["label"]]
            try:
                problems = check_op(op, summary, trajectories, want)
            except Exception:  # a check that cannot run fails the operation
                problems = [traceback.format_exc(limit=3)]
        if problems:
            failures.append(f"{op['label']}: " + "; ".join(problems))
    written = sum(os.path.getsize(os.path.join(d, f))
                  for d, _, names in os.walk(pass_dir) for f in names)
    shutil.rmtree(pass_dir)
    return {
        "wall_s": wall_s,
        "points": sum(op["points"] for op in ops),
        "cpu_s": cpu_s,
        "bytes": written,
        "attempted": len(ops),
        "failures": failures,
        "modules": None if tracer is None
        else spans.module_metrics(tracer, wall_s),
    }


def environment():
    import platform

    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "thread_caps": {k: v for k, v in os.environ.items()
                        if k.endswith("_NUM_THREADS")},
    }


def summarize(passes, trace_on):
    """Metrics of the whole run: medians over passes."""
    plain = [p for traced, p in passes if not traced]
    wall = statistics.median(p["wall_s"] for p in plain)
    if not trace_on:
        return {
            "wall_s": wall,
            "points_per_s": statistics.median(p["points"] / p["wall_s"]
                                              for p in plain),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    traced = [p for is_traced, p in passes if is_traced]
    out = {key: statistics.median(p["modules"][key] for p in traced)
           for key in traced[0]["modules"]}
    out["process.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
    out["process.cpu_util"] = statistics.median(p["cpu_s"] / p["wall_s"]
                                                for p in plain)
    out["trace.overhead"] = statistics.median(
        p["wall_s"] for p in traced) / wall - 1
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ops = setup(args.workload, args.seed, args.size)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import spans

    expected = load_expected(args.workload, args.seed, args.size)
    tracer = spans.Tracer() if args.trace else None
    os.makedirs(WORK_DIR, exist_ok=True)
    passes = []
    deadline = time.perf_counter() + args.seconds
    loop_s = []  # each pass with its checks and clean-up
    with Capture() as capture:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            start = time.perf_counter()
            passes.append((traced, run_pass(ops, capture, expected,
                                            tracer if traced else None)))
            loop_s.append(time.perf_counter() - start)
            # stop when one more pass would likely end after the deadline
            ends = time.perf_counter() + statistics.median(loop_s)
            if ends > deadline and len({t for t, _ in passes}) == \
                    1 + args.trace:
                break
    if tracer is not None:
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.dump(os.path.join(
            TRACE_DIR, f"{args.workload}-seed{args.seed}.jsonl"))
    failures = [f for _, p in passes for f in p["failures"]]
    for line in failures[:10]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({
        "attempted": sum(p["attempted"] for _, p in passes),
        "failed": len(failures),
        "pass_wall_s": [p["wall_s"] for _, p in passes],
        "bytes_per_pass": passes[0][1]["bytes"],
        "environment": environment(),
        "metrics": summarize(passes, args.trace),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
