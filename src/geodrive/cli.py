"""Config-driven experiment runner.

Three commands:

    geodrive run <config.json>        execute one experiment config
    geodrive validate <config.json>   check a config and print its plan
    geodrive preset <name> [--out DIR] [--jobs N]

Configs are JSON documents with top-level keys kind / manifold / model /
drive / numerics / output.  Every successful run writes its artifacts
(CSV) plus a manifest JSON echoing the config, the library version, wall
time, the file list and summary metrics.  Exit codes: 0 success, 2 config
error, 3 runtime error, 4 a preset row outside its tolerance.

validate builds the model and drive the run builds, so a value the
library rejects is reported at the config field it came from before
anything runs.  A config passes the library only the keys it sets: every
default lives with the function that takes the argument.

CSV cells use the shortest round-trip decimal form of each double, so
identical configs produce byte-identical files.  Rows are written in
blocks, and within a block each distinct double is formatted once; the
bytes are those of formatting every cell on its own.  A large file is cut
into one contiguous row range per available core: forked children format
all ranges but the first into unlinked temporary files in the output
directory, and the parent appends them in order, so the bytes are those of
one process.  On one core, or below 2 * _SPLIT_CELLS cells, nothing forks.
"""

import argparse
import contextlib
import functools
import inspect
import json
import math
import operator
import os
import shutil
import sys
import tempfile
import time
import warnings

import numpy as np

from . import GeodriveError, ValidationError, WriteError, __version__
from .trajectories import GeodesicSpec, default_digits, trajectory
from .models import BUILTIN_MODELS, bolza_qubit
from .evolution import evolve, fidelity, g_correction, track_band
from .response import GOLDEN, drive_spec, run_hdqs, run_klein, run_rp2
from .topology import (chern_bolza, check_radius, dipolar_chern,
                       quadrupole_chern)
from .ergodicity import disk_area_exact, ergodicity_report

_PAIR = {"type": "array", "items": {"type": "number"},
         "minItems": 2, "maxItems": 2}

SCHEMA = {
    "type": "object",
    "required": ["kind", "manifold", "output"],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["trajectory", "evolve", "response", "invariant",
                          "ergodicity"]},
        "manifold": {"enum": ["bolza", "torus", "klein", "rp2"]},
        "model": {
            "type": "object",
            "required": ["name"],
            # the other keys are the factory's parameters, checked against
            # its signature
            "additionalProperties": {"type": "number"},
            "properties": {"name": {"enum": sorted(BUILTIN_MODELS)}},
        },
        "drive": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lambda": {"type": "number", "exclusiveMinimum": 0},
                "omega": _PAIR,
                "z0": _PAIR,
                "direction": {"type": "number"},
                "theta0": _PAIR,
                "T": {"type": "number", "minimum": 0},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "counterdiabatic": {"type": "boolean"},
            },
        },
        "numerics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "digits": {"type": "integer", "minimum": 30},
                "grid": {"type": "array", "minItems": 1, "maxItems": 2,
                         "items": {"type": "integer", "minimum": 2}},
                "band": {"type": "integer", "minimum": 0},
                "radius": {"type": "number"},
                "r": {"type": "number", "minimum": 0,
                      "exclusiveMaximum": 1},
                "bins": {"type": "integer", "minimum": 1},
                "gap_threshold": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "output": {
            "type": "object",
            "required": ["prefix"],
            "additionalProperties": False,
            "properties": {"prefix": {"type": "string"}},
        },
    },
}

# config key -> (library keyword, conversion), one table per config section.
# A run passes only the keys its config sets, so each default stays with the
# function that takes the argument; a ValidationError's param is mapped back
# to the config field through the same tables.
_KEYWORDS = {
    "drive": {
        "lambda": ("lam", float), "T": ("T", float), "dt": ("dt", float),
        "direction": ("direction", float),
        "z0": ("z0", lambda xy: complex(*xy)),
        "omega": ("omega", tuple), "theta0": ("theta0", tuple),
        "counterdiabatic": ("counterdiabatic", bool),
    },
    "numerics": {
        "digits": ("digits", int), "band": ("band", int),
        # grid [n] means n x n on the flat manifolds
        "grid": ("resolution", lambda grid: (int(grid[0]), int(grid[-1]))),
        "radius": ("radius", float), "r": ("r", float),
        "bins": ("bins", int), "gap_threshold": ("gap_threshold", float),
    },
}

_FIELDS = {keyword: f"{section}.{key}"
           for section, table in _KEYWORDS.items()
           for key, (keyword, _) in table.items()}


def _path(parts):
    return ".".join(str(p) for p in parts) or "(root)"


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "number": (int, float), "integer": int}

# range keyword -> (test that fails the value, message)
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge,
                         "greater than or equal to the maximum of"),
}


def _is_type(value, name):
    """A bool is neither a number nor an integer, and 2.0 is an integer."""
    if isinstance(value, bool) and name in ("number", "integer"):
        return False
    if name == "integer" and isinstance(value, float):
        return value.is_integer()
    return isinstance(value, _TYPES[name])


def _schema_errors(schema, value, path=()):
    """(path, message) pairs of value against schema, with Draft 2020-12's
    semantics for the keywords SCHEMA uses.

    Each keyword is checked on its own, range keywords apply to any number
    (NaN passes them), each missing required key is an error at the
    object's path, and an object's unexpected keys are one error.
    """
    errors = []
    if "type" in schema and not _is_type(value, schema["type"]):
        errors.append((path, f"{value!r} is not of type {schema['type']!r}"))
    if "enum" in schema and value not in schema["enum"]:
        errors.append((path, f"{value!r} is not one of {schema['enum']!r}"))
    if _is_type(value, "number"):
        errors += [(path, f"{value!r} is {text} {schema[key]!r}")
                   for key, (fails, text) in _BOUNDS.items()
                   if key in schema and fails(value, schema[key])]
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            errors.append((path, f"{value!r} is too short"))
        if len(value) > schema.get("maxItems", math.inf):
            errors.append((path, f"{value!r} is too long"))
        for i, item in enumerate(value if "items" in schema else ()):
            errors += _schema_errors(schema["items"], item, (*path, i))
    if isinstance(value, dict):
        errors += [(path, f"{key!r} is a required property")
                   for key in schema.get("required", ()) if key not in value]
        properties = schema.get("properties", {})
        for key, sub in properties.items():
            if key in value:
                errors += _schema_errors(sub, value[key], (*path, key))
        extra = [key for key in value if key not in properties]
        rest = schema.get("additionalProperties", True)
        if rest is False and extra:
            errors.append((path, "unexpected keys: "
                                 + ", ".join(map(repr, extra))))
        elif isinstance(rest, dict):
            for key in extra:
                errors += _schema_errors(rest, value[key], (*path, key))
    return errors


def _model_errors(cfg):
    """The model's keys against its factory's signature, then the model
    built as the run builds it."""
    name, manifold = cfg["model"]["name"], cfg["manifold"]
    params = inspect.signature(BUILTIN_MODELS[name]).parameters
    errors = [(f"model.{key}", f"not a parameter of {name}")
              for key in cfg["model"] if key != "name" and key not in params]
    errors += [(f"model.{key}", f"required by {name}")
               for key, param in params.items()
               if param.default is param.empty and key not in cfg["model"]]
    if errors:
        return errors
    try:
        model = _build_model(cfg)
    except ValidationError as err:
        return [(f"model.{err.param}" if err.param else "model", str(err))]
    if model.manifold != manifold:
        return [("model.name",
                 f"{name} lives on {model.manifold}, config says {manifold}")]
    if cfg["kind"] == "invariant" and manifold == "bolza":
        kw = _calls(cfg)["invariant"]
        try:
            check_radius(model, kw.get("radius", inspect.signature(
                chern_bolza).parameters["radius"].default))
        except ValidationError as err:
            return [("numerics.radius" if "radius" in kw else "model.rho",
                     str(err))]
    return []


def validate_config(cfg):
    """All diagnostics for a config dict as (field-path, message) pairs.

    After the schema and the rules on what each kind runs, a set key that
    no library call of the run reads is an error at its field; then the
    model and the drive are built as the run builds them, and a
    ValidationError they raise is reported at the config field of the
    argument it names.
    """
    errors = [(_path(path), message) for path, message in sorted(
        _schema_errors(SCHEMA, cfg), key=lambda e: list(map(str, e[0])))]
    if errors:
        # structural problems make the consistency checks unreliable
        return errors

    kind, manifold = cfg["kind"], cfg["manifold"]
    drive = cfg.get("drive", {})
    if kind in ("evolve", "response", "invariant") and "model" not in cfg:
        errors.append(("model", f"required when kind = {kind}"))
    if kind in ("trajectory", "evolve", "ergodicity") and "T" not in drive:
        errors.append(("drive.T", f"required when kind = {kind}"))
    if kind in ("response", "invariant") and manifold == "torus":
        errors.append(("manifold",
                       f"no {kind} pipeline is defined on the torus"))
    if kind == "invariant" and manifold == "bolza" and \
            len(set(cfg.get("numerics", {}).get("grid", []))) > 1:
        errors.append(("numerics.grid", "the Bolza grid is square; give "
                                        "one entry or two equal ones"))
    if kind == "ergodicity":
        if manifold != "bolza":
            errors.append(("manifold", "ergodicity diagnostics need a "
                                       "Bolza trajectory"))
        if "lambda" in drive and drive["lambda"] != 1.0:
            errors.append(("drive.lambda",
                           "the area estimator requires a unit-speed run"))
    read = {_FIELDS[keyword] for kw in _calls(cfg).values() for keyword in kw}
    errors += [(f"{section}.{key}",
                f"not read by a {kind} run on {manifold}")
               for section in _KEYWORDS for key in cfg.get(section, {})
               if f"{section}.{key}" not in read]

    if not errors and kind != "invariant":
        try:
            _drive(cfg)
        except ValidationError as err:
            errors.append((_FIELDS.get(err.param, "drive"), str(err)))
    if "model" in cfg:
        errors += _model_errors(cfg)
    return errors


# --------------------------------------------------------------------------
# artifact writers


# rows formatted and written at a time: the heap that a block's strings
# grow stays resident after the writer returns and adds to the peak of the
# drive that follows (about 0.15 MiB at 256 rows, 0.6 MiB at 1024)
_BLOCK_ROWS = 256

# cells per row range: a file is split only from twice this size.  A fork
# and its copy-on-write faults cost 3 ms or more; per file, in a process of
# about 40 MB, 30k cells took 29-38 ms in one range and 36-54 ms in two,
# and 300k cells 392-440 ms in one and 234-238 ms in two
_SPLIT_CELLS = 2 ** 16


def _cells(a, kind):
    """CSV cells of one column block: repr of each double, str of each int.

    Each distinct double (by bit pattern, so -0.0 and 0.0 stay apart) is
    formatted once: grid columns repeat a few hundred axis values.
    """
    if kind == "i":
        return list(map(str, a.tolist()))
    bits = a.astype(np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array(list(map(repr, distinct.view(np.float64).tolist())),
                    dtype=object)
    return text[inverse].tolist()


def _write_rows(fh, arrays, start, stop):
    """Write rows [start, stop) of the columns to the binary file fh."""
    for lo in range(start, stop, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, stop)
        block = [_cells(a[lo:hi], k) for a, k in arrays]
        fh.write(("\n".join(map(",".join, zip(*block))) + "\n").encode())


def _fork_rows(fd, arrays, start, stop):
    """Fork a child that writes rows [start, stop) to fd; returns its pid.

    The child exits 0 once the rows are written, 1 on any error, by
    os._exit: it runs no exit handlers, never flushes the parent's stdio
    and never returns into the parent's frames, even when interrupted.
    """
    parent = os.getpid()
    status = 1
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns when it forks a process with threads, such
            # as numpy's BLAS pool; the child only formats and writes, and
            # calls no BLAS and takes no lock those threads could hold
            warnings.filterwarnings("ignore", r".*multi-threaded.*fork\(\)",
                                    DeprecationWarning)
            pid = os.fork()
        if pid:
            return pid
        with open(fd, "wb", closefd=False) as out:
            _write_rows(out, arrays, start, stop)
        status = 0
    except Exception:
        if os.getpid() == parent:
            raise
        import traceback
        os.write(2, traceback.format_exc().encode())
    finally:
        if os.getpid() != parent:
            os._exit(status)


def _write_csv(path, cols):
    """Write columns as CSV; cols is a list of (name, array, 'f'|'i').

    The rows are cut into min(cores, cells // _SPLIT_CELLS) contiguous
    ranges, at least one.  The parent writes the header and the first
    range; a forked child formats each later range into an unlinked
    temporary file, which the parent appends once the child has exited 0.
    No child outlives the call, and a failed write leaves no file behind.
    """
    arrays = [(np.asarray(a), k) for _, a, k in cols]
    n = len(arrays[0][0])
    if any(len(a) != n for a, _ in arrays):
        raise ValueError(f"{path}: columns of unequal length "
                         f"{[len(a) for a, _ in arrays]}")
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    parts = max(1, min(len(os.sched_getaffinity(0)),
                       n * len(arrays) // _SPLIT_CELLS))
    bounds = [n * i // parts for i in range(parts + 1)]
    children = []  # (pid, temporary file, first row, end row), in order
    reaped = 0
    try:
        with contextlib.ExitStack() as temps:
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                fd = temps.enter_context(
                    tempfile.TemporaryFile(dir=parent or ".")).fileno()
                children.append((_fork_rows(fd, arrays, start, stop), fd,
                                 start, stop))
            with open(path, "wb") as fh:
                fh.write((",".join(name for name, _, _ in cols)
                          + "\n").encode())
                _write_rows(fh, arrays, 0, bounds[1])
                for pid, fd, start, stop in children:
                    status = os.waitpid(pid, 0)[1]
                    reaped += 1
                    if status:
                        raise WriteError(
                            f"{path}: the process writing rows {start} to "
                            f"{stop - 1} failed (exit code "
                            f"{os.waitstatus_to_exitcode(status)})")
                    os.lseek(fd, 0, os.SEEK_SET)
                    with open(fd, "rb", closefd=False) as part:
                        shutil.copyfileobj(part, fh)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        raise
    finally:
        # children are left to reap only when the write has failed; each
        # ends once its range is written, or at once on the terminal's ^C
        for pid, *_ in children[reaped:]:
            os.waitpid(pid, 0)
    return path


def _json_default(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def _write_manifest(path, payload):
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True,
                  default=_json_default)
        fh.write("\n")
    return path


# --------------------------------------------------------------------------
# executors (one per config kind), each returning (files, summary)


def _args(cfg, section, *keys):
    """Keyword arguments for those of the keys of one config section that
    the config sets."""
    table, values = _KEYWORDS[section], cfg.get(section, {})
    return {table[key][0]: table[key][1](values[key])
            for key in keys if key in values}


def _drive_args(cfg):
    """The arguments of response.drive_spec that a config sets: a Bolza
    drive reads lambda, direction, z0 and digits, a flat one omega and
    theta0."""
    if cfg["manifold"] == "bolza":
        return (_args(cfg, "drive", "lambda", "T", "dt", "direction", "z0")
                | _args(cfg, "numerics", "digits"))
    return _args(cfg, "drive", "T", "dt", "omega", "theta0")


def _calls(cfg):
    """Keyword arguments of each library call a run of this config makes,
    from the keys the config sets, as {call: kwargs}.

    The executors take their arguments from here, and validate_config
    reports a set key that no call reads.
    """
    kind, bolza = cfg["kind"], cfg["manifold"] == "bolza"
    numerics = functools.partial(_args, cfg, "numerics")
    if kind == "invariant":
        return {"invariant": numerics("band", "grid", "gap_threshold",
                                      *(("radius",) if bolza else ()))}
    calls = {"drive": _drive_args(cfg)}
    if kind == "evolve":
        calls["track_band"] = numerics("band", "gap_threshold")
        calls["evolve"] = numerics("gap_threshold")
    elif kind == "response":
        calls["run"] = numerics("band", "gap_threshold")
        if bolza:
            calls["run"] |= _args(cfg, "drive", "counterdiabatic")
    elif kind == "ergodicity":
        calls["ergodicity_report"] = numerics("r", "bins")
    return calls


def _drive(cfg):
    """The drive a run of this config samples.

    Responses take response.drive_spec's drive, sampled at dt/2; the other
    kinds a GeodesicSpec, sampled at dt/2 for evolve so that steps of dt
    have their midpoints on samples.
    """
    args = _drive_args(cfg)
    if cfg["kind"] == "response":
        return drive_spec(cfg["manifold"], **args)
    dt = args.pop("dt", 0.01)
    if "lam" in args:
        args["speed"] = args.pop("lam")
    return GeodesicSpec(manifold=cfg["manifold"],
                        dt=dt / 2 if cfg["kind"] == "evolve" else dt, **args)


def _build_model(cfg):
    params = {k: v for k, v in cfg["model"].items() if k != "name"}
    return BUILTIN_MODELS[cfg["model"]["name"]](**params)


def _run_trajectory(cfg, prefix):
    traj = trajectory(_drive(cfg))
    path = prefix + "trajectory.csv"
    if cfg["manifold"] == "bolza":
        _write_csv(path, [("t", traj.t, "f"),
                          ("re_z", traj.z.real, "f"),
                          ("im_z", traj.z.imag, "f"),
                          ("re_p", traj.p.real, "f"),
                          ("im_p", traj.p.imag, "f"),
                          ("word_len", traj.word_len, "i")])
        drift = np.abs(traj.energies() - traj.spec.speed ** 2 / 2).max()
        summary = {"samples": len(traj.t), "digits": traj.digits,
                   "final_word_length": int(traj.word_len[-1]),
                   "max_energy_drift": float(drift),
                   "propagation": traj.stats}
    else:
        vel = traj.velocities()
        _write_csv(path, [("t", traj.t, "f"),
                          ("theta_x", traj.theta[:, 0], "f"),
                          ("theta_y", traj.theta[:, 1], "f"),
                          ("vx", vel[:, 0], "f"),
                          ("vy", vel[:, 1], "f"),
                          ("nx", traj.crossings[:, 0], "i"),
                          ("ny", traj.crossings[:, 1], "i")])
        summary = {"samples": len(traj.t),
                   "final_crossings": [int(n) for n in traj.crossings[-1]]}
    return [path], summary


def _run_evolve(cfg, prefix):
    model = _build_model(cfg)
    calls = _calls(cfg)
    traj = trajectory(_drive(cfg))
    track = track_band(model, traj.subsample(2), **calls["track_band"])
    result = evolve(track.states[0], model, traj, **calls["evolve"])
    fid = fidelity(result.states, track.states[: len(result.states)])
    path = _write_csv(prefix + "evolve.csv",
                      [("t", result.t, "f"),
                       ("norm", result.norms, "f"),
                       ("fidelity", fid, "f")])
    summary = {"band": track.band, "steps": len(result.t) - 1,
               "min_fidelity": float(fid.min()),
               "final_fidelity": float(fid[-1]),
               "max_norm_deviation": float(np.abs(result.norms - 1).max()),
               "min_gap": track.min_gap}
    return [path], summary


def _run_response(cfg, prefix):
    model = _build_model(cfg)
    calls = _calls(cfg)
    runner = {"bolza": run_hdqs, "klein": run_klein,
              "rp2": run_rp2}[cfg["manifold"]]
    run = runner(model, **calls["drive"], **calls["run"])
    curve = run.curve
    path = _write_csv(prefix + "response.csv",
                      [("T", curve.T, "f"),
                       ("expectation", curve.expectation, "f"),
                       ("running_average", curve.values, "f")])
    summary = {"band": run.band, "samples": len(run.series.t),
               "final_running_average": curve.final_value,
               "normalization": curve.normalization,
               "norm_deviation": run.norm_deviation,
               "max_imag_expectation": run.worst_imag,
               "min_gap": run.min_gap, "stats": run.stats}
    if run.propagation is not None:
        summary["propagation"] = run.propagation
    return [path], summary


def _run_invariant(cfg, prefix):
    model = _build_model(cfg)
    kw = _calls(cfg)["invariant"]
    if cfg["manifold"] == "bolza":
        if "resolution" in kw:  # the grid is square
            kw["resolution"] = kw["resolution"][0]
        result, field = chern_bolza(model, with_field=True, **kw)
    else:
        compute = dipolar_chern if cfg["manifold"] == "klein" \
            else quadrupole_chern
        result, field = compute(model, with_field=True, **kw)
    n1, n2 = len(field.x1), len(field.x2)
    path = _write_csv(prefix + "curvature.csv",
                      [("x1", np.repeat(field.x1, n2), "f"),
                       ("x2", np.tile(field.x2, n1), "f"),
                       ("omega", field.omega.ravel(), "f")])
    summary = {"band": field.band, "value": result.value,
               "quantization_unit": result.quantization_unit,
               "nearest_quantum": result.nearest_quantum,
               "residue": result.residue,
               "grid_shape": list(result.grid_shape)}
    return [path], summary


def _run_ergodicity(cfg, prefix):
    traj = trajectory(_drive(cfg))
    report = ergodicity_report(traj, **_calls(cfg)["ergodicity_report"])
    hist = report.histogram
    files = [
        _write_csv(prefix + "area.csv",
                   [("T", report.T, "f"), ("S_est", report.estimates, "f")]),
        _write_csv(prefix + "angles.csv",
                   [("bin_center", hist.centers, "f"),
                    ("count", hist.counts, "i"),
                    ("density", hist.density, "f")]),
    ]
    summary = {"r": report.r, "exact_area": report.exact_area,
               "final_estimate": report.final_estimate,
               "final_relative_error": report.final_relative_error,
               "chi_square": hist.chi_square,
               "p_value": float(hist.p_value),
               "max_density_deviation":
                   float(np.abs(hist.density - 1 / (2 * math.pi)).max()),
               "propagation": traj.stats}
    return files, summary


_EXECUTORS = {
    "trajectory": _run_trajectory,
    "evolve": _run_evolve,
    "response": _run_response,
    "invariant": _run_invariant,
    "ergodicity": _run_ergodicity,
}


def execute(cfg, prefix=None):
    """Run a validated config, returning (files, summary)."""
    prefix = cfg["output"]["prefix"] if prefix is None else prefix
    return _EXECUTORS[cfg["kind"]](cfg, prefix)


# --------------------------------------------------------------------------
# presets: the figure parameter sets, run through the same executors


def _run_gt(params, prefix):
    """Geometric-correction magnitude |G(t)| for a pair of matched runs.

    The two runs cover the same arc (lambda T fixed), so their |G| curves
    are directly comparable; the summary reports each maximum, the
    late/early growth ratio per run, and the cross-run maximum ratio.
    """
    model = bolza_qubit(params["epsilon"])
    files, runs = [], []
    for lam, T in params["pairs"]:
        spec = GeodesicSpec(manifold="bolza", T=T, dt=params["dt"],
                            z0=0j, direction=math.pi / 9, speed=lam)
        series = g_correction(model, trajectory(spec), m=params["m"],
                              n=params["n"], lam=lam)
        files.append(_write_csv(f"{prefix}gt_lam{lam:g}.csv",
                                [("t", series.t, "f"),
                                 ("G", series.magnitude, "f")]))
        early = series.magnitude[series.t <= T / 2]
        late = series.magnitude[series.t >= T / 2]
        runs.append({"lambda": lam, "T": T,
                     "max_G": float(series.magnitude.max()),
                     "late_over_early": float(late.max() / early.max())})
    summary = {"runs": runs,
               "max_G_ratio": runs[0]["max_G"] / runs[1]["max_G"]}
    return files, summary


def _job(label, target, tolerance, cfg=None, params=None, sweep=None):
    """One preset row: a config run through execute, or (cfg None) the
    |G| pair of _run_gt, compared with its target."""
    return {"label": label, "config": cfg, "params": params,
            "target": target, "tolerance": tolerance, "sweep": sweep or {}}


def _response_cfg(manifold, model, drive):
    return {"kind": "response", "manifold": manifold, "model": model,
            "drive": drive, "output": {"prefix": ""}}


def _preset_fig4_chern():
    jobs = []
    for eps in (-2.0, -1.5, -0.5, 0.0, 0.5, 1.5, 2.0):
        cfg = {"kind": "invariant", "manifold": "bolza",
               "model": {"name": "bolza_qubit", "epsilon": eps},
               "numerics": {"grid": [200], "band": 1},
               "output": {"prefix": ""}}
        jobs.append(_job(f"eps{eps:g}", 1.0 if abs(eps) < 1 else 0.0, 1e-3,
                         cfg=cfg, sweep={"epsilon": eps}))
    return jobs


def _preset_fig4_response():
    jobs = []
    for lam in (0.1, 0.05, 0.025):
        for eps in (0.5, 1.5):
            # the error of w(T) is a fluctuation of an ergodic average, set
            # by the arc lambda T: every row covers an arc of at least 100
            cfg = _response_cfg(
                "bolza", {"name": "bolza_qubit", "epsilon": eps},
                {"lambda": lam, "T": max(2000.0, 100 / lam), "dt": 0.01,
                 "direction": math.pi / 9, "z0": [0.0, 0.0]})
            jobs.append(_job(f"lam{lam:g}_eps{eps:g}",
                             1.0 if eps < 1 else 0.0, 0.15, cfg=cfg,
                             sweep={"lambda": lam, "epsilon": eps}))
    return jobs


def _klein_target(m):
    if abs(m) < 1:
        return math.pi
    return math.pi / 2 if abs(m) < 3 else 0.0


def _preset_fig5_dipolar():
    jobs = []
    for m in (0.25, 0.5, 0.75, 1.5, 2.0, 2.5, 3.5, 4.0, 5.0):
        cfg = {"kind": "invariant", "manifold": "klein",
               "model": {"name": "klein_qubit", "m": m},
               "numerics": {"grid": [400, 200], "band": 1},
               "output": {"prefix": ""}}
        jobs.append(_job(f"m{m:g}", _klein_target(m), 1e-2 * math.pi,
                         cfg=cfg, sweep={"m": m}))
    return jobs


def _preset_fig5_response():
    jobs = []
    for m in (0.5, 2.0, 4.0):
        cfg = _response_cfg(
            "klein", {"name": "klein_qubit", "m": m},
            {"omega": [0.02, GOLDEN * 0.02], "T": 20000.0, "dt": 0.01,
             "theta0": [-math.pi, -math.pi]})
        jobs.append(_job(f"m{m:g}", _klein_target(m), 0.15 * math.pi / 2,
                         cfg=cfg, sweep={"m": m}))
    return jobs


def _preset_si_rp2():
    jobs = []
    for m in (1.0, 4.0):
        target = math.pi ** 2 / 2 if m == 1.0 else 0.0
        inv = {"kind": "invariant", "manifold": "rp2",
               "model": {"name": "rp2_qubit", "m": m},
               "numerics": {"grid": [200, 200], "band": 1},
               "output": {"prefix": ""}}
        jobs.append(_job(f"q_m{m:g}", target, 0.02 * math.pi ** 2 / 2,
                         cfg=inv, sweep={"m": m}))
        resp = _response_cfg(
            "rp2", {"name": "rp2_qubit", "m": m},
            {"omega": [0.02, GOLDEN * 0.02], "T": 20000.0, "dt": 0.01,
             "theta0": [0.0, 0.0]})
        jobs.append(_job(f"mu_m{m:g}", target, 0.15 * math.pi ** 2 / 2,
                         cfg=resp, sweep={"m": m}))
    return jobs


def _preset_si_ergodicity():
    cfg = {"kind": "ergodicity", "manifold": "bolza",
           "drive": {"lambda": 1.0, "direction": math.pi / 9,
                     "z0": [0.0, 0.0], "T": 2000.0, "dt": 0.01},
           "numerics": {"r": 0.6, "bins": 36},
           "output": {"prefix": ""}}
    return [_job("area", disk_area_exact(0.6), 0.05 * disk_area_exact(0.6),
                 cfg=cfg)]


def _preset_si_gt():
    params = {"epsilon": 0.5, "m": 0, "n": 1, "dt": 0.01,
              "pairs": [[0.05, 200.0], [0.025, 400.0]]}
    # matched arcs: max|G| should scale roughly linearly with lambda
    return [_job("gt", 2.0, 0.5, params=params)]


PRESETS = {
    "fig4-chern": _preset_fig4_chern,
    "fig4-response": _preset_fig4_response,
    "fig5-dipolar": _preset_fig5_dipolar,
    "fig5-response": _preset_fig5_response,
    "si-rp2": _preset_si_rp2,
    "si-ergodicity": _preset_si_ergodicity,
    "si-gt": _preset_si_gt,
}

# the summary value a row compares, by config kind
_VALUE_KEYS = {"invariant": "value", "response": "final_running_average",
               "ergodicity": "final_estimate"}


def _preset_worker(job):
    if job["config"] is None:
        return _run_gt(job["params"], job["prefix"])
    return execute(job["config"], job["prefix"])


def _compare(job, summary):
    cfg = job["config"]
    value = summary["max_G_ratio" if cfg is None
                    else _VALUE_KEYS[cfg["kind"]]]
    # the signs of the Klein and RP2 invariants are conventions
    flat = cfg is not None and cfg["manifold"] in ("klein", "rp2")
    abs_error = abs((abs(value) if flat else value) - job["target"])
    return {**job["sweep"], "label": job["label"], "value": value,
            "target": job["target"], "abs_error": abs_error,
            "within_tolerance": bool(abs_error <= job["tolerance"])}


def _write_sweep_csv(path, rows):
    keys = []
    for row in rows:
        keys.extend(k for k in row if k not in keys)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(keys) + "\n")
        for row in rows:
            cells = []
            for k in keys:
                v = row.get(k)
                if v is None:
                    cells.append("")
                elif isinstance(v, bool):
                    cells.append(str(v).lower())
                elif isinstance(v, (float, np.floating)):
                    cells.append(repr(float(v)))
                else:
                    cells.append(str(v))
            fh.write(",".join(cells) + "\n")
    return path


def run_preset(name, out=None, jobs=1):
    """Execute a named preset; returns (manifest_path, manifest_dict)."""
    if name not in PRESETS:
        raise ValidationError(f"unknown preset {name!r}; choose from "
                              + ", ".join(sorted(PRESETS)))
    out = out or os.path.join("geodrive-out", name)
    os.makedirs(out, exist_ok=True)
    t0 = time.perf_counter()
    job_list = PRESETS[name]()
    for job in job_list:
        job["prefix"] = os.path.join(out, job["label"]) + "_"
    if jobs > 1 and len(job_list) > 1:
        # imported here: a run in one process does not pay for it
        from multiprocessing import get_context
        with get_context("fork").Pool(min(jobs, len(job_list))) as pool:
            results = pool.map(_preset_worker, job_list)
    else:
        results = [_preset_worker(job) for job in job_list]
    comparisons, runs, files = [], [], []
    for job, (job_files, summary) in zip(job_list, results):
        files.extend(job_files)
        runs.append({"label": job["label"], "params": job["sweep"],
                     "files": job_files, "summary": summary})
        comparisons.append(_compare(job, summary))
    files.append(_write_sweep_csv(os.path.join(out, "summary.csv"),
                                  comparisons))
    manifest = {
        "preset": name,
        "version": __version__,
        "wall_time_s": time.perf_counter() - t0,
        "files": files,
        "runs": runs,
        "summary": {"comparisons": comparisons},
    }
    path = _write_manifest(os.path.join(out, "manifest.json"), manifest)
    return path, manifest


# --------------------------------------------------------------------------
# commands: each returns its exit status and the lines it reports on stdout,
# which main prints, so that the status is settled before any output


def _load_valid_config(path):
    """The config at path, or None once every config error is printed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return None
    errors = validate_config(cfg)
    for field, message in errors:
        print(f"config error: {field}: {message}", file=sys.stderr)
    return None if errors else cfg


def cmd_run(args):
    cfg = _load_valid_config(args.config)
    if cfg is None:
        return 2, []
    t0 = time.perf_counter()
    try:
        files, summary = execute(cfg)
    except GeodriveError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 3, []
    prefix = cfg["output"]["prefix"]
    manifest_path = _write_manifest(prefix + "manifest.json", {
        "config": cfg,
        "version": __version__,
        "wall_time_s": time.perf_counter() - t0,
        "files": files,
        "summary": summary,
    })
    return 0, [f"wrote {len(files)} file(s) and {manifest_path}",
               *(f"  {key}: {value}" for key, value in summary.items())]


def cmd_validate(args):
    cfg = _load_valid_config(args.config)
    if cfg is None:
        return 2, []
    kind, manifold = cfg["kind"], cfg["manifold"]
    numerics = cfg.get("numerics", {})
    lines = [f"config OK: kind={kind} manifold={manifold}"]
    if kind != "invariant":
        spec = _drive(cfg)
        # evolve and response take steps of twice the sample spacing
        half = kind in ("evolve", "response")
        steps, dt = ((spec.n_steps // 2, 2 * spec.dt) if half
                     else (spec.n_steps, spec.dt))
        lines.append(f"  steps: {steps} (dt = {dt:g}), "
                     f"trajectory samples: {spec.n_steps + 1}")
        if manifold == "bolza":
            arc = spec.speed * spec.n_steps * spec.dt
            digits = spec.digits or default_digits(arc)
            lines.append(f"  precision digits: {digits} "
                         f"(arc length {arc:g})")
    if "grid" in numerics:
        lines.append(f"  grid: {numerics['grid']}")
    return 0, lines


def cmd_preset(args):
    try:
        path, manifest = run_preset(args.name, out=args.out, jobs=args.jobs)
    except ValidationError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2, []
    except GeodriveError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 3, []
    rows = manifest["summary"]["comparisons"]
    lines = [f"preset {args.name}: {len(manifest['files'])} file(s), "
             f"manifest {path}"]
    for row in rows:
        status = "ok" if row["within_tolerance"] else "OFF TARGET"
        lines.append(f"  {row['label']}: value {row['value']:.6g} "
                     f"target {row['target']:.6g}  {status}")
    return (0 if all(row["within_tolerance"] for row in rows) else 4), lines


# built once per process: main runs once per config when callers such as
# the tests drive the CLI in-process, and argparse set-up costs about a
# millisecond each time
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="geodrive",
        description="Geodesic-driven quantum system experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a JSON experiment config")
    p_run.add_argument("config", help="path to the config file")
    p_val = sub.add_parser("validate",
                           help="check a config without executing it")
    p_val.add_argument("config", help="path to the config file")
    p_pre = sub.add_parser("preset", help="run a stored figure preset")
    p_pre.add_argument("name", help="preset name, e.g. fig4-chern")
    p_pre.add_argument("--out", default=None, help="output directory")
    p_pre.add_argument("--jobs", type=int, default=1,
                       help="worker processes for independent sweep points")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    command = {"run": cmd_run, "validate": cmd_validate,
               "preset": cmd_preset}[args.command]
    status, lines = command(args)
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early, which is not an error of the
        # command; stdout goes to devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
