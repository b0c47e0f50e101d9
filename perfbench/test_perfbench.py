"""Smoke tests of the benchmark itself, at tiny horizons and grids."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from geodrive import cli  # noqa: E402


def _pass(workload, seed=1, mutate=None, expected=None, tracer=None):
    ops = harness.setup(workload, seed, "smoke")
    if mutate is not None:
        mutate(ops)
    os.makedirs(harness.WORK_DIR, exist_ok=True)
    with harness.Capture() as capture:
        return ops, harness.run_pass(ops, capture, expected, tracer)


def _group(workload, group, seed=0):
    return [op for op in workloads.build(workload, seed)
            if op["group"] == group]


def test_seed_zero_is_the_preset_inputs():
    slow = _group("bolza-drives", "slow-drive")[0]["config"]
    assert slow["drive"]["direction"] == math.pi / 9
    assert slow["drive"]["z0"] == [0.0, 0.0]
    assert slow["model"]["epsilon"] == 0.5
    flat = _group("flat-and-grids", "flat-drives")
    assert flat[0]["config"]["drive"]["omega"] == [0.02,
                                                   workloads.GOLDEN * 0.02]
    assert flat[0]["config"]["drive"]["theta0"] == [-math.pi, -math.pi]
    sweep = _group("flat-and-grids", "invariant-sweep")
    assert [op["config"]["model"].get("epsilon", op["config"]["model"].get(
        "m")) for op in sweep] == list(workloads.CHERN_EPSILONS
                                       + workloads.DIPOLAR_MASSES)


def test_seed_draws_are_reproducible_and_stay_in_phase():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
        assert workloads.build(name, 7) != workloads.build(name, 8)
    for seed in range(20):
        for op in _group("flat-and-grids", "invariant-sweep", seed):
            model = op["config"]["model"]
            if "epsilon" in model:
                assert op["quantum"] == (1.0 if abs(model["epsilon"]) < 1
                                         else 0.0)
            else:
                assert op["quantum"] == workloads.dipolar_quantum(model["m"])
        for op in _group("bolza-drives", "unit-speed", seed):
            assert abs(complex(*op["config"]["drive"]["z0"])) <= 0.3


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_checks_clean(workload):
    ops, record = _pass(workload)
    assert record["failures"] == []
    assert record["attempted"] == len(ops)
    assert record["bytes"] > 0
    assert not [name for name in os.listdir(harness.WORK_DIR)
                if name.startswith("tmp")]
    assert cli.trajectory.__module__ == "geodrive.trajectories"


def test_wrong_quantum_fails_the_operation():
    def mutate(ops):
        next(op for op in ops if "quantum" in op)["quantum"] += 1.0

    _, record = _pass("flat-and-grids", mutate=mutate)
    assert len(record["failures"]) == 1
    assert record["failures"][0].startswith(
        "klein_invariant: nearest quantum")


def test_nonzero_exit_code_fails_the_operation():
    def mutate(ops):
        ops[0]["config"]["drive"]["T"] = -1.0

    ops, record = _pass("bolza-drives", mutate=mutate)
    assert len(record["failures"]) == 1
    assert record["failures"][0].startswith(ops[0]["label"] + ":")
    assert "exited with code 2" in record["failures"][0]


def test_wrong_seed_zero_value_fails_the_operation():
    expected = {"hdqs": {"final_running_average": 123.0}, "ergodicity": {}}
    _, record = _pass("bolza-drives", seed=0, expected=expected)
    assert len(record["failures"]) == 1
    assert "final_running_average" in record["failures"][0]


def test_broken_trajectory_fails_the_bolza_checks(tmp_path):
    op = harness.setup("bolza-drives", 1, "smoke")[1]
    assert op["group"] == "unit-speed"
    with harness.Capture() as capture:
        _, summary = cli.execute(op["config"], str(tmp_path / "u_"))
        traj = capture.bolza[0]
    assert harness.check_op(op, summary, [traj]) == []
    traj.z[len(traj) // 3] += 1e-6
    failures = harness.check_op(op, summary, [traj])
    assert any("off the closed form" in f for f in failures)


def test_traced_pass_accounts_for_the_wall_time():
    tracer = spans.Tracer()
    _, record = _pass("bolza-drives", tracer=tracer)
    modules = record["modules"]
    # module spans cover most of the wall time; cli's own code is the rest
    residual = modules["cli.residual_s"] / modules["trace.wall_s"]
    assert 0.9 < modules["trace.coverage"]
    assert 0.0 < residual < 0.1
    assert modules["trace.coverage"] + residual <= 1.0 + 1e-9
    assert modules["cli.write_s"] > 0
    assert modules["trajectories.samples"] == 401 + 1001
    assert modules["trajectories.digits"] == 161
    assert modules["evolution.steps"] == 200
    assert modules["response.steps"] == 201
    assert modules["hyperbolic.map_calls"] > 0
    assert cli.execute.__module__ == "geodrive.cli"
    assert cli.execute.__name__ == "execute"
    assert not hasattr(cli.execute, "__wrapped__")


def test_harness_reports_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "harness.py"), "--workload",
         "flat-and-grids", "--seed", "2", "--seconds", "0", "--trace", "1",
         "--size", "smoke"], env=env, capture_output=True, text=True,
        timeout=120, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["failed"] == 0
    assert set(names) <= set(result["metrics"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_traces",
                                                  "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bolza-drives",
         "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
