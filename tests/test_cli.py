"""Tests for the config runner: validation diagnostics, exit codes,
artifact layout, and reproducibility of the CSV output."""

import copy
import csv
import json
import math
import os
import subprocess
import sys
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geodrive import cli
from geodrive.cli import (PRESETS, SCHEMA, _job, _path, _schema_errors,
                          _write_csv, main, validate_config)
from geodrive.models import BUILTIN_MODELS
from geodrive.response import IMAG_TOL
from geodrive.topology import chern_bolza, dipolar_chern, quadrupole_chern


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def torus_trajectory_cfg(prefix):
    return {"kind": "trajectory", "manifold": "torus",
            "drive": {"T": 5.0, "dt": 0.01, "omega": [1.0, 0.7],
                      "theta0": [0.3, -0.4]},
            "output": {"prefix": prefix}}


def error_paths(cfg):
    return [path for path, _ in validate_config(cfg)]


class TestValidateConfig:
    def test_good_config_is_clean(self):
        assert validate_config(torus_trajectory_cfg("x_")) == []

    def test_missing_required_keys(self):
        paths = error_paths({"manifold": "torus"})
        assert "(root)" in paths  # both kind and output are flagged
        assert len(paths) == 2

    def test_bad_enum(self):
        cfg = torus_trajectory_cfg("x_")
        cfg["kind"] = "orbit"
        assert "kind" in error_paths(cfg)

    def test_unknown_top_level_key(self):
        cfg = torus_trajectory_cfg("x_")
        cfg["extra"] = 1
        assert validate_config(cfg)

    def test_model_manifold_mismatch(self):
        cfg = {"kind": "invariant", "manifold": "klein",
               "model": {"name": "bolza_qubit", "epsilon": 0.5},
               "output": {"prefix": "x_"}}
        assert "model.name" in error_paths(cfg)

    def test_bolza_qubit_needs_epsilon(self):
        cfg = {"kind": "invariant", "manifold": "bolza",
               "model": {"name": "bolza_qubit"}, "output": {"prefix": "x_"}}
        assert "model.epsilon" in error_paths(cfg)
        cfg["model"]["epsilon"] = 1.0  # gap closes there
        assert "model.epsilon" in error_paths(cfg)

    @pytest.mark.parametrize("name, manifold, params, unknown", [
        ("bolza_qubit", "bolza", {"epsilon": 0.5}, "m"),
        ("klein_qubit", "klein", {"m": 2.0}, "rho"),
        ("rp2_qubit", "rp2", {"m": 1.0}, "epsilon"),
    ])
    def test_models_reject_unknown_keys(self, name, manifold, params,
                                        unknown):
        cfg = {"kind": "invariant", "manifold": manifold,
               "model": dict(params, name=name, **{unknown: 0.5}),
               "output": {"prefix": "x_"}}
        assert validate_config(cfg) == [
            (f"model.{unknown}", f"not a parameter of {name}")]

    def test_flat_models_need_m(self):
        cfg = {"kind": "invariant", "manifold": "klein",
               "model": {"name": "klein_qubit"}, "output": {"prefix": "x_"}}
        assert "model.m" in error_paths(cfg)

    def test_kind_requirements(self):
        cfg = {"kind": "evolve", "manifold": "klein",
               "drive": {"T": 1.0}, "output": {"prefix": "x_"}}
        assert "model" in error_paths(cfg)
        cfg2 = torus_trajectory_cfg("x_")
        del cfg2["drive"]["T"]
        assert "drive.T" in error_paths(cfg2)

    def test_no_torus_response(self):
        cfg = {"kind": "response", "manifold": "torus",
               "model": {"name": "klein_qubit", "m": 2.0},
               "output": {"prefix": "x_"}}
        paths = error_paths(cfg)
        assert "manifold" in paths
        assert "model.name" in paths  # klein model on torus config

    def test_ergodicity_constraints(self):
        cfg = {"kind": "ergodicity", "manifold": "bolza",
               "drive": {"T": 10.0, "lambda": 0.5},
               "output": {"prefix": "x_"}}
        assert "drive.lambda" in error_paths(cfg)
        cfg["manifold"] = "klein"
        assert "manifold" in error_paths(cfg)

    def test_numeric_ranges(self):
        cfg = torus_trajectory_cfg("x_")
        cfg["drive"]["dt"] = -0.01
        cfg["numerics"] = {"digits": 20, "r": 1.5}
        paths = error_paths(cfg)
        assert {"drive.dt", "numerics.digits", "numerics.r"} <= set(paths)
        # a flat response without T runs for a horizon set by omega_x
        flat = {"kind": "response", "manifold": "klein",
                "model": {"name": "klein_qubit", "m": 2.0},
                "drive": {"omega": [0.0, 0.08]}, "output": {"prefix": "x_"}}
        assert error_paths(flat) == ["drive.omega"]

    def test_preset_configs_pass_validation(self):
        for cfg in preset_configs():
            assert validate_config(cfg) == []

    def test_schema_keywords_one_by_one(self):
        # 1.5 fails both type and minimum; a bool is no integer, 2.0 is one;
        # NaN passes the range keywords
        cfg = {"kind": "invariant", "manifold": "klein", "extra": 1, "x": 2,
               "numerics": {"grid": [1.5, True], "digits": 40.0,
                            "r": math.nan},
               "output": {}}
        assert sorted(error_paths(cfg)) == [
            "(root)", "numerics.grid.0", "numerics.grid.0",
            "numerics.grid.1", "output"]


def preset_configs():
    return [job["config"] for build in PRESETS.values() for job in build()
            if job["config"] is not None]


def benchmark_shaped_configs():
    bolza = {"lambda": 0.05, "T": 100.0, "dt": 0.01, "direction": 0.35,
             "z0": [0.1, -0.2]}
    flat = {"omega": [0.02, 0.0324], "T": 1000.0, "dt": 0.01,
            "theta0": [-math.pi, -math.pi]}
    return [
        {"kind": "response", "manifold": "bolza",
         "model": {"name": "bolza_qubit", "epsilon": 0.5}, "drive": bolza,
         "numerics": {"digits": 74}, "output": {"prefix": ""}},
        {"kind": "ergodicity", "manifold": "bolza",
         "drive": dict(bolza, **{"lambda": 1.0, "T": 150.0}),
         "numerics": {"r": 0.6, "bins": 36, "digits": 161},
         "output": {"prefix": ""}},
        {"kind": "response", "manifold": "rp2",
         "model": {"name": "rp2_qubit", "m": 1.0}, "drive": flat,
         "output": {"prefix": ""}},
        {"kind": "evolve", "manifold": "klein",
         "model": {"name": "klein_qubit", "m": 2.0}, "drive": flat,
         "numerics": {"band": 0, "gap_threshold": 1e-6},
         "output": {"prefix": ""}},
        {"kind": "invariant", "manifold": "bolza",
         "model": {"name": "bolza_qubit", "epsilon": 0.5, "rho": 0.55},
         "numerics": {"grid": [100], "band": 1, "radius": 0.6},
         "output": {"prefix": ""}},
        {"kind": "response", "manifold": "bolza",
         "model": {"name": "bolza_qubit", "epsilon": 0.5},
         "drive": {"counterdiabatic": True}, "output": {"prefix": ""}},
    ]


BASES = preset_configs() + benchmark_shaped_configs()

ODD_VALUES = st.one_of(
    st.sampled_from([True, False, 0, 1, -1, 2, 2.0, 2.5, 0.5, 1e300,
                     math.nan, math.inf, -math.inf, "", "klein", None, [],
                     [3], [3, 4, 5], [2.0, True], {}, {"name": "x"}]),
    st.floats(), st.integers(-10, 1000)).map(copy.deepcopy)

KEYS = st.sampled_from(["extra", "name", "kind", "T", "lambda", "grid",
                        "digits", "r", "prefix", "epsilon", "m", "omega"])


def _slots(node, path=()):
    """The path of every value inside a config, () for the config."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _slots(value, (*path, key))


@st.composite
def mutated_configs(draw):
    """A preset or benchmark-shaped config after one to four edits: a
    value replaced, a key or item deleted, a key added or an item
    appended."""
    cfg = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 4))):
        path = draw(st.sampled_from(list(_slots(cfg))))
        parent, node = None, cfg
        for key in path:
            parent, node = node, node[key]
        edit = draw(st.sampled_from(["replace", "delete", "add"]))
        if edit == "add" and isinstance(node, dict):
            node[draw(KEYS)] = draw(ODD_VALUES)
        elif edit == "add" and isinstance(node, list):
            node.append(draw(ODD_VALUES))
        elif edit == "replace" and path:
            parent[path[-1]] = draw(ODD_VALUES)
        elif edit == "delete" and path:
            del parent[path[-1]]
    return cfg


@pytest.fixture(scope="module")
def draft_2020_12_paths():
    """The error paths jsonschema's Draft 2020-12 validator gives for
    SCHEMA: the oracle of the in-tree check."""
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(SCHEMA)
    return lambda cfg: Counter(_path(e.absolute_path)
                               for e in validator.iter_errors(cfg))


def schema_paths(cfg):
    return Counter(_path(path) for path, _ in _schema_errors(SCHEMA, cfg))


class TestSchemaAgreement:
    def test_valid_configs(self, draft_2020_12_paths):
        for cfg in BASES:
            assert schema_paths(cfg) == draft_2020_12_paths(cfg) == Counter()

    @settings(max_examples=400, deadline=None)
    @given(cfg=mutated_configs())
    def test_mutated_configs(self, draft_2020_12_paths, cfg):
        assert schema_paths(cfg) == draft_2020_12_paths(cfg)

    @pytest.mark.parametrize("cfg", [None, [], "x", 1.0, {}, {"kind": True}])
    def test_documents_that_are_no_config(self, draft_2020_12_paths, cfg):
        assert schema_paths(cfg) == draft_2020_12_paths(cfg) != Counter()


def test_validation_imports_neither_jsonschema_nor_multiprocessing():
    # a fresh interpreter, as `geodrive run` and `validate` start
    code = ("import sys\n"
            "from geodrive.cli import PRESETS, validate_config\n"
            "for build in PRESETS.values():\n"
            "    for job in build():\n"
            "        if job['config'] is not None:\n"
            "            assert validate_config(job['config']) == []\n"
            "top = {name.split('.')[0] for name in sys.modules}\n"
            "print(sorted(top & {'jsonschema', 'multiprocessing'}))\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.normpath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestExitCodes:
    def test_run_trajectory_and_reproducibility(self, tmp_path, capsys):
        p1 = str(tmp_path / "a_")
        p2 = str(tmp_path / "b_")
        assert main(["run", write_cfg(tmp_path, torus_trajectory_cfg(p1))]) == 0
        assert "wrote 1 file(s)" in capsys.readouterr().out
        assert main(["run", write_cfg(tmp_path, torus_trajectory_cfg(p2),
                                      name="cfg2.json")]) == 0
        csv1 = (tmp_path / "a_trajectory.csv").read_bytes()
        csv2 = (tmp_path / "b_trajectory.csv").read_bytes()
        assert csv1 == csv2
        manifest = json.loads((tmp_path / "a_manifest.json").read_text())
        assert manifest["summary"]["samples"] == 501
        assert manifest["config"]["kind"] == "trajectory"
        assert manifest["environment"] == {
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__, "mpmath": mpmath.__version__}

    def test_keys_a_kind_never_reads_are_config_errors(self, tmp_path,
                                                      capsys):
        klein = {"name": "klein_qubit", "m": 2.0}
        flat = {"T": 1.0, "omega": [0.5, 0.8]}
        cases = [
            ("drive.lambda", {"kind": "trajectory", "manifold": "torus",
                              "drive": dict(flat, **{"lambda": 0.5})}),
            ("numerics.bins", {"kind": "evolve", "manifold": "klein",
                               "model": klein, "drive": flat,
                               "numerics": {"bins": 10}}),
            ("drive.counterdiabatic", {"kind": "response",
                                       "manifold": "klein", "model": klein,
                                       "drive": dict(flat,
                                                     counterdiabatic=True)}),
            ("numerics.radius", {"kind": "invariant", "manifold": "klein",
                                 "model": klein,
                                 "numerics": {"radius": 0.7}}),
            ("numerics.band", {"kind": "ergodicity", "manifold": "bolza",
                               "drive": {"T": 1.0},
                               "numerics": {"band": 0}}),
        ]
        for field, cfg in cases:
            cfg["output"] = {"prefix": str(tmp_path / "k_")}
            path = write_cfg(tmp_path, cfg)
            for command in ("validate", "run"):
                assert main([command, path]) == 2
                err = capsys.readouterr().err
                assert err.startswith(f"config error: {field}: not read by "
                                      f"a {cfg['kind']} run on ")
                assert len(err.splitlines()) == 1

    def test_validate_prints_plan(self, tmp_path, capsys):
        path = write_cfg(tmp_path, torus_trajectory_cfg("x_"))
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "config OK: kind=trajectory manifold=torus" in out
        assert "steps: 500" in out

    def test_validate_plans_the_response_drive_the_run_takes(
            self, tmp_path, capsys):
        # a flat response without T runs for omega_x T = 400, at dt/2
        cfg = {"kind": "response", "manifold": "klein",
               "model": {"name": "klein_qubit", "m": 2.0},
               "drive": {"omega": [0.05, 0.08]},
               "output": {"prefix": "x_"}}
        assert main(["validate", write_cfg(tmp_path, cfg)]) == 0
        assert "steps: 800000 (dt = 0.01), trajectory samples: 1600001" \
            in capsys.readouterr().out
        del cfg["drive"]
        assert main(["validate", write_cfg(tmp_path, cfg)]) == 0
        assert "steps: 2000000 " in capsys.readouterr().out
        cfg = {"kind": "response", "manifold": "bolza",
               "model": {"name": "bolza_qubit", "epsilon": 0.5},
               "output": {"prefix": "x_"}}
        assert main(["validate", write_cfg(tmp_path, cfg)]) == 0
        out = capsys.readouterr().out
        assert "steps: 200000 " in out
        assert "precision digits: 74 (arc length 100)" in out

    def test_start_outside_the_domain_is_config_error(self, tmp_path,
                                                      capsys):
        # named at the field path, by the check the library applies when
        # the run builds the drive or the model, instead of failing the run
        klein = {"name": "klein_qubit", "m": 2.0}
        cases = [
            ("drive.z0", {"kind": "trajectory", "manifold": "bolza",
                          "drive": {"T": 1.0, "z0": [0.9, 0.0]}}),
            ("drive.theta0", {"kind": "trajectory", "manifold": "klein",
                              "drive": {"T": 1.0, "theta0": [0.5, 0.5]}}),
            ("model.epsilon", {"kind": "invariant", "manifold": "klein",
                               "model": dict(klein, epsilon=0.5)}),
            ("model.rho", {"kind": "invariant", "manifold": "bolza",
                           "model": {"name": "bolza_qubit", "epsilon": 0.5,
                                     "rho": 0.7}}),
            ("drive.omega", {"kind": "response", "manifold": "klein",
                             "model": klein,
                             "drive": {"omega": [0.0, 0.08]}}),
            ("model.epsilon", {"kind": "invariant", "manifold": "bolza",
                               "model": {"name": "bolza_qubit",
                                         "epsilon": 1.0}}),
            # a support that the default integration radius 0.62 does not
            # cover, then a set radius that does not cover the default one
            ("model.rho", {"kind": "invariant", "manifold": "bolza",
                           "model": {"name": "bolza_qubit", "epsilon": 0.5,
                                     "rho": 0.63}}),
            ("numerics.radius", {"kind": "invariant", "manifold": "bolza",
                                 "model": {"name": "bolza_qubit",
                                           "epsilon": 0.5},
                                 "numerics": {"radius": 0.6}}),
        ]
        for field, cfg in cases:
            cfg["output"] = {"prefix": str(tmp_path / "d_")}
            path = write_cfg(tmp_path, cfg)
            for command in ("validate", "run"):
                assert main([command, path]) == 2
                err = capsys.readouterr().err
                assert f"config error: {field}: " in err
                assert len(err.splitlines()) == 1

    def test_bad_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["run", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_reports_paths(self, tmp_path, capsys):
        cfg = torus_trajectory_cfg("x_")
        del cfg["drive"]["T"]
        assert main(["run", write_cfg(tmp_path, cfg)]) == 2
        assert "drive.T" in capsys.readouterr().err

    @pytest.mark.parametrize("manifold, model, grid", [
        ("klein", {"name": "klein_qubit", "m": 2.0}, [40, 20]),
        ("bolza", {"name": "bolza_qubit", "epsilon": 0.5}, [30]),
    ])
    def test_integral_float_grid_runs_as_its_integers(self, tmp_path,
                                                      manifold, model, grid):
        # a grid of 2.0-style floats passes validation, so it must run
        csvs = []
        for label, cells in (("int", grid), ("float", [float(n)
                                                       for n in grid])):
            prefix = str(tmp_path / f"{label}_")
            cfg = {"kind": "invariant", "manifold": manifold,
                   "model": model, "numerics": {"grid": cells},
                   "output": {"prefix": prefix}}
            path = write_cfg(tmp_path, cfg, name=f"{label}.json")
            assert main(["validate", path]) == 0
            assert main(["run", path]) == 0
            csvs.append((tmp_path / f"{label}_curvature.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_bolza_grid_is_square(self, tmp_path, capsys):
        # two unequal entries are a config error; two equal ones run as one
        model = {"name": "bolza_qubit", "epsilon": 0.5}
        csvs = []
        for label, grid in (("uneven", [30, 10]), ("one", [30]),
                            ("two", [30, 30])):
            prefix = str(tmp_path / f"{label}_")
            cfg = {"kind": "invariant", "manifold": "bolza", "model": model,
                   "numerics": {"grid": grid}, "output": {"prefix": prefix}}
            path = write_cfg(tmp_path, cfg, name=f"{label}.json")
            if label == "uneven":
                for command in ("validate", "run"):
                    assert main([command, path]) == 2
                    err = capsys.readouterr().err
                    assert err.startswith("config error: numerics.grid: ")
                    assert len(err.splitlines()) == 1
                assert not os.path.exists(prefix + "curvature.csv")
                continue
            assert main(["run", path]) == 0
            csvs.append((tmp_path / f"{label}_curvature.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_gap_closing_run_is_runtime_error(self, tmp_path, capsys):
        cfg = {"kind": "invariant", "manifold": "klein",
               "model": {"name": "klein_qubit", "m": 1.0},
               "numerics": {"grid": [40, 20]},
               "output": {"prefix": str(tmp_path / "gap_")}}
        assert main(["run", write_cfg(tmp_path, cfg)]) == 3
        assert "runtime error" in capsys.readouterr().err

    def test_memory_error_is_runtime_error(self, tmp_path, monkeypatch,
                                           capsys):
        # a plan too large for memory: reported, with no traceback and no
        # manifest, and nothing large is allocated to show it
        def execute(cfg):
            raise MemoryError("Unable to allocate 71.1 PiB for an array")
        monkeypatch.setattr(cli, "execute", execute)
        cfg = torus_trajectory_cfg(str(tmp_path / "big_"))
        assert main(["run", write_cfg(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err
        assert err == ("runtime error: Unable to allocate 71.1 PiB for an "
                       "array\n")
        assert not os.path.exists(tmp_path / "big_manifest.json")

    def test_unknown_preset(self, capsys):
        assert main(["preset", "fig9-nothing"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_closed_stdout_is_a_clean_exit(self, tmp_path):
        # `geodrive run cfg.json | head -0`: the reader is gone before the
        # report is printed, and the command's status still stands
        prefix = str(tmp_path / "pipe_")
        path = write_cfg(tmp_path, torus_trajectory_cfg(prefix))
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.normpath(src))
        for command in ("run", "validate"):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "geodrive.cli", command, path],
                    stdout=write_end, stderr=subprocess.PIPE, env=env,
                    text=True, timeout=120)
            finally:
                os.close(write_end)
            assert proc.returncode == 0, proc.stderr
            assert "Traceback" not in proc.stderr
            assert "BrokenPipeError" not in proc.stderr
        assert os.path.exists(prefix + "manifest.json")


class TestRunKinds:
    def run_ok(self, tmp_path, cfg):
        assert main(["run", write_cfg(tmp_path, cfg)]) == 0
        prefix = cfg["output"]["prefix"]
        return json.loads(open(prefix + "manifest.json").read())

    def test_invariant_klein(self, tmp_path):
        prefix = str(tmp_path / "inv_")
        cfg = {"kind": "invariant", "manifold": "klein",
               "model": {"name": "klein_qubit", "m": 2.0},
               "numerics": {"grid": [60, 30], "band": 1},
               "output": {"prefix": prefix}}
        manifest = self.run_ok(tmp_path, cfg)
        assert manifest["summary"]["value"] == pytest.approx(math.pi / 2,
                                                             abs=1e-2)
        assert manifest["summary"]["quantization_unit"] == pytest.approx(
            math.pi / 2)
        assert os.path.exists(prefix + "curvature.csv")

    @pytest.mark.parametrize("manifold, model, grid, compute", [
        ("bolza", {"name": "bolza_qubit", "epsilon": 0.5}, [30], chern_bolza),
        ("klein", {"name": "klein_qubit", "m": 2.0}, [40, 20], dipolar_chern),
        ("rp2", {"name": "rp2_qubit", "m": 1.0}, [20, 20], quadrupole_chern),
    ])
    def test_curvature_csv_is_the_per_row_text(self, tmp_path, manifold,
                                               model, grid, compute):
        # the axis cells are formatted once per axis value and repeated;
        # the file must still read as repr of every double of the grid
        prefix = str(tmp_path / "inv_")
        self.run_ok(tmp_path, {"kind": "invariant", "manifold": manifold,
                               "model": model,
                               "numerics": {"grid": grid, "band": 1},
                               "output": {"prefix": prefix}})
        params = {k: v for k, v in model.items() if k != "name"}
        resolution = grid[0] if manifold == "bolza" else tuple(grid)
        _, field = compute(BUILTIN_MODELS[model["name"]](**params),
                           resolution=resolution, band=1, with_field=True)
        n1, n2 = len(field.x1), len(field.x2)
        expected = per_row_csv([("x1", np.repeat(field.x1, n2), "f"),
                                ("x2", np.tile(field.x2, n1), "f"),
                                ("omega", field.omega.ravel(), "f")])
        with open(prefix + "curvature.csv", "rb") as fh:
            assert fh.read() == expected.encode()

    @pytest.mark.parametrize("manifold, model, grid, compute", [
        ("bolza", {"name": "bolza_qubit", "epsilon": 0.5}, [30], chern_bolza),
        ("klein", {"name": "klein_qubit", "m": 2.0}, [40, 20], dipolar_chern),
        ("rp2", {"name": "rp2_qubit", "m": 1.0}, [20, 20], quadrupole_chern),
    ])
    def test_invariant_manifest_has_grid_minima(self, tmp_path, manifold,
                                                model, grid, compute):
        # the whole-grid minima themselves are checked in test_topology
        prefix = str(tmp_path / "inv_")
        summary = self.run_ok(tmp_path, {
            "kind": "invariant", "manifold": manifold, "model": model,
            "numerics": {"grid": grid, "band": 1},
            "output": {"prefix": prefix}})["summary"]
        params = {k: v for k, v in model.items() if k != "name"}
        resolution = grid[0] if manifold == "bolza" else tuple(grid)
        result = compute(BUILTIN_MODELS[model["name"]](**params),
                         resolution=resolution, band=1)
        assert summary["min_gap"] == result.min_gap > 0.0
        assert summary["min_overlap"] == result.min_overlap >= 1e-6

    def check_evolve(self, tmp_path, manifold, model, drive):
        prefix = str(tmp_path / "ev_")
        cfg = {"kind": "evolve", "manifold": manifold, "model": model,
               "drive": dict(drive, T=10.0, dt=0.02),
               "output": {"prefix": prefix}}
        manifest = self.run_ok(tmp_path, cfg)
        summary = manifest["summary"]
        assert summary["max_norm_deviation"] < 1e-9
        assert summary["steps"] == 500
        assert 0.0 < summary["min_fidelity"] <= 1.0
        header = open(prefix + "evolve.csv").readline().strip()
        assert header == "t,norm,fidelity"

    def test_evolve_klein(self, tmp_path):
        self.check_evolve(tmp_path, "klein",
                          {"name": "klein_qubit", "m": 2.0},
                          {"omega": [0.2, 0.31],
                           "theta0": [-math.pi, -math.pi]})

    def test_evolve_bolza(self, tmp_path):
        self.check_evolve(tmp_path, "bolza",
                          {"name": "bolza_qubit", "epsilon": 0.5},
                          {"lambda": 0.05, "direction": 0.4})

    def test_response_klein(self, tmp_path):
        prefix = str(tmp_path / "resp_")
        cfg = {"kind": "response", "manifold": "klein",
               "model": {"name": "klein_qubit", "m": 2.0},
               "drive": {"T": 50.0, "dt": 0.02, "omega": [0.5, 0.81],
                         "theta0": [-math.pi, -math.pi]},
               "output": {"prefix": prefix}}
        manifest = self.run_ok(tmp_path, cfg)
        summary = manifest["summary"]
        assert summary["norm_deviation"] < 1e-9
        assert summary["normalization"] == pytest.approx(0.81 ** 2 / math.pi)
        assert math.isfinite(summary["final_running_average"])
        assert 0 <= summary["max_imag_expectation"] < IMAG_TOL
        # the minimum gap along the drive, 2|d| at the step midpoints
        assert 0 < summary["min_gap"] < math.inf
        stats = summary["stats"]
        assert stats["steps"] == 2500 and stats["windows"] == 1
        assert stats["min_gap"] == summary["min_gap"]
        assert 0 < stats["min_gap_t"] < 50.0
        assert stats["output_bytes"] == 24 * 2501

    def test_ergodicity_short(self, tmp_path):
        prefix = str(tmp_path / "erg_")
        cfg = {"kind": "ergodicity", "manifold": "bolza",
               "drive": {"T": 30.0, "dt": 0.01, "lambda": 1.0,
                         "direction": math.pi / 9},
               "output": {"prefix": prefix}}
        manifest = self.run_ok(tmp_path, cfg)
        summary = manifest["summary"]
        assert summary["r"] == 0.6
        assert summary["final_relative_error"] < 0.5
        assert summary["propagation"]["crossings"] > 0
        assert os.path.exists(prefix + "area.csv")
        assert os.path.exists(prefix + "angles.csv")

    def test_bolza_runs_report_propagation(self, tmp_path):
        drive = {"T": 4.0, "dt": 0.01, "lambda": 1.0, "direction": 0.3}
        keys = {"digits", "crossings", "anchors", "vertex_passages",
                "certificate_max_diff", "exact_membership", "propagate_s"}
        traj_cfg = {"kind": "trajectory", "manifold": "bolza", "drive": drive,
                    "output": {"prefix": str(tmp_path / "traj_")}}
        resp_cfg = {"kind": "response", "manifold": "bolza",
                    "model": {"name": "bolza_qubit", "epsilon": 0.5},
                    "drive": dict(drive, **{"lambda": 0.05, "T": 2.0}),
                    "output": {"prefix": str(tmp_path / "resp_")}}
        for cfg in (traj_cfg, resp_cfg):
            summary = self.run_ok(tmp_path, cfg)["summary"]
            assert set(summary["propagation"]) == keys
            assert summary["propagation"]["anchors"] == \
                summary["propagation"]["crossings"] + 1


class TestPreset:
    def test_fig4_chern_end_to_end(self, tmp_path, capsys):
        out = str(tmp_path / "chern")
        assert main(["preset", "fig4-chern", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "OFF TARGET" not in stdout
        manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
        assert set(manifest["environment"]) == {"python", "numpy", "mpmath"}
        rows = manifest["summary"]["comparisons"]
        assert len(rows) == 7
        assert all(row["within_tolerance"] for row in rows)
        with open(os.path.join(out, "summary.csv"), newline="") as fh:
            table = list(csv.DictReader(fh))
        assert [row["label"] for row in table] == \
            [row["label"] for row in rows]
        for row in table:
            for key, cell in row.items():
                if key != "label" and cell not in ("", "true", "false"):
                    float(cell)  # a plain number, not np.float64(...)

    def test_si_gt_end_to_end(self, tmp_path, capsys):
        # the one CLI path into evolution.g_correction
        out = tmp_path / "gt"
        assert main(["preset", "si-gt", "--out", str(out)]) == 0
        assert "OFF TARGET" not in capsys.readouterr().out
        for lam in ("0.05", "0.025"):
            with open(out / f"gt_gt_lam{lam}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert list(rows[0]) == ["t", "G"]
            assert float(rows[0]["G"]) == 0.0
        manifest = json.loads((out / "manifest.json").read_text())
        [row] = manifest["summary"]["comparisons"]
        assert row["within_tolerance"]
        assert row["value"] == pytest.approx(1.95152, abs=1e-5)

    def test_off_target_row_fails_the_preset(self, tmp_path, monkeypatch,
                                             capsys):
        cfg = {"kind": "invariant", "manifold": "klein",
               "model": {"name": "klein_qubit", "m": 2.0},
               "numerics": {"grid": [40, 20]}, "output": {"prefix": ""}}
        # |D_y| = pi/2 here, so a target of 3 cannot be met
        monkeypatch.setitem(PRESETS, "unmet",
                            lambda: [_job("m2", 3.0, 1e-3, cfg=cfg)])
        assert main(["preset", "unmet", "--out", str(tmp_path)]) == 4
        assert "m2: value 1.5" in capsys.readouterr().out
        with open(tmp_path / "summary.csv", newline="") as fh:
            assert [row["within_tolerance"] for row in csv.DictReader(fh)] \
                == ["false"]

    def test_jobs_give_the_rows_of_one_process(self, tmp_path, monkeypatch,
                                               capsys):
        def cfg(m):
            return {"kind": "invariant", "manifold": "klein",
                    "model": {"name": "klein_qubit", "m": m},
                    "numerics": {"grid": [40, 20]}, "output": {"prefix": ""}}

        monkeypatch.setitem(PRESETS, "pair", lambda: [
            _job("m2", math.pi / 2, 0.1, cfg=cfg(2.0)),
            _job("m4", 0.0, 0.1, cfg=cfg(4.0))])
        results = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["preset", "pair", "--out", str(out),
                         "--jobs", jobs]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            csvs = {name: (out / name).read_bytes()
                    for name in sorted(os.listdir(out))
                    if name.endswith(".csv")}
            results.append((csvs, manifest["summary"]["comparisons"]))
        assert len(results[0][0]) == 3  # two curvature CSVs and the summary
        assert results[0] == results[1]

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_is_config_error(self, tmp_path, monkeypatch,
                                            capsys, jobs):
        monkeypatch.setitem(PRESETS, "never",
                            lambda: pytest.fail("the preset ran"))
        out = tmp_path / "out"
        assert main(["preset", "never", "--out", str(out),
                     "--jobs", jobs]) == 2
        assert "config error: jobs must be at least 1" \
            in capsys.readouterr().err
        assert not out.exists()


def test_summary_csv(tmp_path, monkeypatch):
    # keys in order of first appearance; None and a missing key are empty
    # cells, a bool is true/false, a float (np.float64 too) its repr and an
    # int its str
    rows = [{"epsilon": -0.5, "label": "eps-0.5", "value": np.float64(1 / 3),
             "target": 1, "abs_error": None, "within_tolerance": True},
            {"label": "m2", "value": 1e-20, "target": 0,
             "abs_error": np.float64(0.1), "within_tolerance": False,
             "m": 2}]
    expected = ("epsilon,label,value,target,abs_error,within_tolerance,m\n"
                "-0.5,eps-0.5,0.3333333333333333,1,,true,\n"
                ",m2,1e-20,0,0.1,false,2\n")
    path = str(tmp_path / "summary.csv")
    assert cli._write_sweep_csv(path, rows) == path
    with open(path, "rb") as fh:
        assert fh.read() == expected.encode()

    # it is written by _write_csv, so a failed write leaves no file
    def fails(a):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "_cells", fails)
    os.remove(path)
    with pytest.raises(KeyboardInterrupt):
        cli._write_sweep_csv(path, rows)
    assert os.listdir(tmp_path) == []


def per_row_csv(cols):
    """The CSV text of the per-row rule: repr of each double, str of each
    int, and each text cell as it is."""
    cell = {"f": lambda v: repr(float(v)), "i": lambda v: str(int(v)),
            "s": str}
    lines = [",".join(name for name, _, _ in cols)]
    for i in range(len(cols[0][1])):
        lines.append(",".join(cell[k](a[i]) for _, a, k in cols))
    return "\n".join(lines) + "\n"


# rows per block in TestWriteCsv, small enough that block edges fall inside
# files of a few hundred rows
BLOCK = 256


class TestWriteCsv:
    SPECIAL = [-0.0, 0.0, 5e-324, 1e16, 1e22, 0.1, 1 / 3, math.nan,
               math.inf, -math.inf]

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", BLOCK)

    def check(self, tmp_path, cols, expected=None):
        # expected: the same columns with each _Axis written out row by row
        path = str(tmp_path / "sub" / "out.csv")
        assert _write_csv(path, cols) == path
        with open(path, "rb") as fh:
            assert fh.read() == per_row_csv(expected or cols).encode()

    def test_special_values(self, tmp_path):
        vals = np.array(self.SPECIAL * 3)
        self.check(tmp_path, [
            ("f64", vals, "f"),
            ("f32", vals.astype(np.float32), "f"),
            ("n", np.arange(len(vals)) - 7, "i"),
        ])
        text = (tmp_path / "sub" / "out.csv").read_text()
        assert text.splitlines()[1].startswith("-0.0,-0.0,-7")
        assert "5e-324" in text and "1e+16" in text and "nan" in text

    def test_ints_and_text_only(self, tmp_path):
        n = 2 * BLOCK + 3
        self.check(tmp_path, [("k", np.arange(n) - 9, "i"),
                              ("s", np.resize(np.array(["a", "", "-0.5"],
                                                       dtype=object), n), "s")])

    def test_header_only(self, tmp_path):
        self.check(tmp_path, [("a", np.empty(0), "f"),
                              ("b", np.empty(0, dtype=int), "i")])
        assert (tmp_path / "sub" / "out.csv").read_text() == "a,b\n"

    def test_grid_columns_across_blocks(self, tmp_path):
        # grid axes as the curvature writer passes them, with special axis
        # values, next to repeat/tile float columns, a strided column and
        # ints, over a row count that is not a multiple of the block size
        x1 = np.array(self.SPECIAL[:3] + [1e16, -1.5, math.nan, math.pi])
        n1, n2 = len(x1), BLOCK // 3 + 5
        x2 = np.linspace(-math.pi, 0.0, n2)
        x2[:4] = [-0.0, 5e-324, 1e16, math.nan]
        omega = np.random.default_rng(0).standard_normal((n1 * n2, 2))
        assert (n1 * n2) % BLOCK
        rows = n1 * n2
        tail = [("omega", omega[:, 1], "f"),
                ("k", np.arange(rows, dtype=np.int32), "i")]
        self.check(tmp_path,
                   [("x1", cli._Axis(x1, n2, rows), "x"),
                    ("x2", cli._Axis(x2, 1, rows), "x"),
                    ("r1", np.repeat(x1, n2), "f"),
                    ("r2", np.tile(x2, n1), "f"), *tail],
                   [("x1", np.repeat(x1, n2), "f"),
                    ("x2", np.tile(x2, n1), "f"),
                    ("r1", np.repeat(x1, n2), "f"),
                    ("r2", np.tile(x2, n1), "f"), *tail])

    def test_text_columns_across_blocks(self, tmp_path):
        # an 's' column of repeated axis text between float columns
        n = 3 * BLOCK + 7
        axis = np.array([repr(v) for v in self.SPECIAL], dtype=object)
        x = np.random.default_rng(1).standard_normal(n)
        self.check(tmp_path, [("x", x, "f"), ("s", np.resize(axis, n), "s"),
                              ("y", x[::-1], "f")])

    def test_all_float_file_is_one_kernel_call_a_block(self, tmp_path,
                                                       monkeypatch):
        # the kernel's rows are the block, so no cell goes through _cells,
        # and a write that fails in the kernel leaves no file
        kernel, calls = cli.slots, []

        def counted(x):
            calls.append(len(x))
            if fail and len(calls) == 2:
                raise KeyboardInterrupt
            return kernel(x)

        def no_cells(a):
            raise AssertionError("_cells called")
        monkeypatch.setattr(cli, "slots", counted)
        monkeypatch.setattr(cli, "_cells", no_cells)
        n = 3 * BLOCK + 5
        t = np.arange(n) * 0.02
        cols = [("t", t, "f"), ("x", np.cos(t), "f"),
                ("y", np.array(self.SPECIAL * n)[:n], "f")]
        fail = False
        self.check(tmp_path, cols)
        assert calls == [3 * BLOCK] * 3 + [3 * 5]
        calls.clear()
        fail = True
        with pytest.raises(KeyboardInterrupt):
            _write_csv(str(tmp_path / "out.csv"), cols)
        assert calls == [3 * BLOCK] * 2
        assert not os.path.exists(tmp_path / "out.csv")

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        cells, calls = cli._cells, []

        def second_block_fails(a):
            calls.append(len(a))
            if len(calls) == 2:
                raise KeyboardInterrupt
            return cells(a)
        monkeypatch.setattr(cli, "_cells", second_block_fails)
        n = 3 * BLOCK
        with pytest.raises(KeyboardInterrupt):
            _write_csv(str(tmp_path / "out.csv"),
                       [("x", np.zeros(n), "f"), ("k", np.arange(n), "i")])
        assert calls == [BLOCK, BLOCK]
        assert os.listdir(tmp_path) == []

    def test_short_column_is_an_error(self, tmp_path):
        # raised before any file is opened
        with pytest.raises(ValueError, match="unequal length"):
            _write_csv(str(tmp_path / "out.csv"),
                       [("a", np.zeros(500), "f"), ("b", np.zeros(499), "f")])
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("values", [
        np.array([1 + 2j, 3 - 4j]), np.array([1.0, 2.0], dtype=object),
        np.array(["1.5", "2"])])
    def test_float_column_of_no_real_dtype_is_an_error(self, tmp_path,
                                                       values):
        # a complex column would lose its imaginary part and text would be
        # parsed; raised before any file is opened
        n = 500
        with pytest.raises(ValueError, match=r"out\.csv: .*'z'"):
            _write_csv(str(tmp_path / "out.csv"),
                       [("a", np.zeros(n), "f"),
                        ("z", np.resize(values, n), "f")])
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("kind", ["d", "F", "", None])
    def test_unknown_kind_is_an_error(self, tmp_path, kind):
        # raised before any file is opened
        with pytest.raises(ValueError, match=r"out\.csv: .*'b'"):
            _write_csv(str(tmp_path / "out.csv"),
                       [("a", np.zeros(500), "f"), ("b", np.zeros(500), kind)])
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("cells", [["café", "x"], [b"caf\xc3\xa9", b"x"],
                                       np.array(["x", "é"], dtype=object)])
    def test_non_ascii_text_is_an_error(self, tmp_path, cells):
        # raised before any file is opened, so not even the missing output
        # directory is made
        with pytest.raises(ValueError, match=r"out\.csv: .*non-ASCII.*'label'"):
            _write_csv(str(tmp_path / "new" / "out.csv"),
                       [("k", np.arange(2), "i"), ("label", cells, "s")])
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("n", [0, 1, cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS,
                               cli._BLOCK_ROWS + 1])
def test_files_at_the_block_size(tmp_path, n):
    # the block size the writer runs with: empty, one-row and block-edge files
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    x[::11] = np.round(x[::11], 2)
    cols = [("t", np.arange(n) * 0.02, "f"), ("x", x, "f"),
            ("k", np.arange(n) - 7, "i"),
            ("s", np.resize(np.array(["a", "bc", "-0.5"], dtype=object), n),
             "s")]
    path = str(tmp_path / "out.csv")
    _write_csv(path, cols)
    with open(path, "rb") as fh:
        assert fh.read() == per_row_csv(cols).encode()
