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

CSV cells use the shortest round-trip decimal form of each double, the
text of repr, so identical configs produce byte-identical files.  Cells
are formatted a block of rows at a time: the doubles of a block by one
call to a numpy kernel (geodrive.shortest), the ints and text of each
column by one cast to bytes; each cell is a NUL-padded row of a byte
matrix, and a block is written as that matrix with its NULs removed.  The
axis values of a curvature grid are formatted once each and their text is
repeated over the grid, which gives the bytes of formatting every cell on
its own.  A preset's summary.csv goes through the same writer as text
columns.
"""

import argparse
import contextlib
import functools
import inspect
import json
import math
import operator
import os
import sys
import time

import numpy as np

from . import GeodriveError, ValidationError, __version__
from .trajectories import GeodesicSpec, default_digits, trajectory
from .models import BUILTIN_MODELS, bolza_qubit
from .evolution import evolve, fidelity, g_correction, track_band
from .response import GOLDEN, drive_spec, run_hdqs, run_klein, run_rp2
from .topology import (chern_bolza, check_radius, dipolar_chern,
                       quadrupole_chern)
from .ergodicity import disk_area_exact, ergodicity_report
from .shortest import WIDTH, slots

_PAIR = {"type": "array", "items": {"type": "number"},
         "minItems": 2, "maxItems": 2}

# config key -> (library keyword, conversion, JSON schema), one table per
# config section and the one statement of its keys.  A run passes only the
# keys its config sets, so each default stays with the function that takes
# the argument; a ValidationError's param maps back to its config field.
_KEYWORDS = {
    "drive": {
        "lambda": ("lam", float, {"type": "number", "exclusiveMinimum": 0}),
        "omega": ("omega", tuple, _PAIR),
        "z0": ("z0", lambda xy: complex(*xy), _PAIR),
        "direction": ("direction", float, {"type": "number"}),
        "theta0": ("theta0", tuple, _PAIR),
        "T": ("T", float, {"type": "number", "minimum": 0}),
        "dt": ("dt", float, {"type": "number", "exclusiveMinimum": 0}),
        "counterdiabatic": ("counterdiabatic", bool, {"type": "boolean"}),
    },
    "numerics": {
        "digits": ("digits", int, {"type": "integer", "minimum": 30}),
        # grid [n] means n x n on the flat manifolds
        "grid": ("resolution", lambda grid: (int(grid[0]), int(grid[-1])),
                 {"type": "array", "minItems": 1, "maxItems": 2,
                  "items": {"type": "integer", "minimum": 2}}),
        "band": ("band", int, {"type": "integer", "minimum": 0}),
        "radius": ("radius", float, {"type": "number"}),
        "r": ("r", float,
              {"type": "number", "minimum": 0, "exclusiveMaximum": 1}),
        "bins": ("bins", int, {"type": "integer", "minimum": 1}),
        "gap_threshold": ("gap_threshold", float,
                          {"type": "number", "exclusiveMinimum": 0}),
    },
}

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
        **{section: {"type": "object", "additionalProperties": False,
                     "properties": {key: schema for key, (_, _, schema)
                                    in table.items()}}
           for section, table in _KEYWORDS.items()},
        "output": {
            "type": "object",
            "required": ["prefix"],
            "additionalProperties": False,
            "properties": {"prefix": {"type": "string"}},
        },
    },
}

_FIELDS = {keyword: f"{section}.{key}"
           for section, table in _KEYWORDS.items()
           for key, (keyword, _, _) in table.items()}


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


# rows formatted and written at a time.  A call of the float kernel costs
# about 0.2 ms of numpy call overhead whatever its size and holds about
# 250 bytes per double while it runs; a block's matrix, mask and text hold
# about 130 more per cell.  With one call per float column block, on a
# response-like file (3 float columns, 60k rows, one process): 1024 rows
# 92-122 ms, 2048 64 ms, 4096 57-80 ms, 8192 72 ms; bolza-drives peak RSS
# 42.15 MiB at 1024 or 2048 rows, 42.43 at 4096
_BLOCK_ROWS = 2048

def _cells(a):
    """The cells of an int or text column block as a uint8 matrix, one row
    per cell: its nonzero bytes are the cell's text (an int's decimal form,
    or the ASCII text of an "s" cell), and its last byte is NUL, left for
    the separator."""
    text = a.astype("S", copy=False)
    cells = np.zeros((len(a), text.itemsize + 1), dtype=np.uint8)
    cells[:, :-1] = text.view(np.uint8).reshape(len(a), text.itemsize)
    return cells


class _Axis:
    """One axis of a grid as an 'x' column of rows cells: row r holds
    values[r // every % len(values)].  The axes of a row-major n1 x n2
    grid are _Axis(x1, n2, n1 * n2) and _Axis(x2, 1, n1 * n2)."""

    def __init__(self, values, every, rows):
        self.values = np.asarray(values, dtype=np.float64)
        self.every, self.rows = every, rows

    def __len__(self):
        return self.rows

    def cells(self):
        """The cells of the axis values as a uint8 matrix, each value's text
        left-justified, then NUL, with a last NUL byte for the separator."""
        text = slots(self.values)
        used = text != 0
        width = used.sum(axis=1).max(initial=0)
        # a stable sort on NUL moves the text bytes of a row to its front
        front = np.argsort(~used, axis=1, kind="stable")[:, :width]
        cells = np.zeros((len(text), width + 1), dtype=np.uint8)
        cells[:, :width] = np.take_along_axis(text, front, axis=1)
        return cells


def _write_rows(fh, columns):
    """Write the rows of the columns to the binary file fh.

    A block's cells are rows of one uint8 matrix: those of its doubles from
    one kernel call, the shortest text that reads back as each double, as
    repr gives it; those of an axis gathered from its cells, formatted
    once; those of its ints and text from _cells.
    """
    floats = [a for a, k in columns if k == "f"]
    axis_cells = [a.cells() if k == "x" else None for a, k in columns]
    n = len(columns[0][0])
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        if floats:
            # one call for every float column, as a call costs about 0.2 ms
            # whatever its size; its rows are the block's cells row by row
            doubles = slots(np.stack([a[lo:hi] for a in floats], axis=1)
                            .ravel()).reshape(hi - lo, -1)
        if len(floats) == len(columns):
            block, widths = doubles, [WIDTH] * len(columns)
        else:
            split = iter(np.hsplit(doubles, len(floats)) if floats else ())
            rows = np.arange(lo, hi)
            cells = [text[rows // a.every % len(text)] if text is not None
                     else next(split) if k == "f" else _cells(a[lo:hi])
                     for (a, k), text in zip(columns, axis_cells)]
            widths = [c.shape[1] for c in cells]
            block = np.concatenate(cells, axis=1)
            del cells, split
        # the last byte of each cell separates it from the next
        ends = np.cumsum(widths) - 1
        block[:, ends[:-1]] = ord(",")
        block[:, ends[-1]] = ord("\n")
        fh.write(block[block != 0])


def _write_csv(path, cols):
    """Write columns as CSV; cols is a list of (name, array, kind).

    An 'f' column, of real numbers, and an 'x' column, an _Axis of a grid,
    are written as doubles, an 'i' column as ints and an 's' column, ASCII
    text, as it is.  An unknown kind, an 'f' column of complex numbers,
    objects or text, an 's' column with a non-ASCII cell, or columns of
    unequal length raise ValueError before any file is opened.  A failed
    write leaves no file behind.
    """
    arrays = [(a if k == "x" else np.asarray(a), k) for _, a, k in cols]
    unknown = [f"{name!r} ({k!r})" for name, _, k in cols
               if k not in ("f", "i", "s", "x")]
    if unknown:
        raise ValueError(f"{path}: unknown column kind of "
                         f"{', '.join(unknown)}; use 'f', 'i', 's' or 'x'")
    # a complex double would lose its imaginary part, and text would be
    # parsed, if cast to float64
    unreal = [f"{name!r} ({a.dtype})" for (name, _, k), (a, _) in
              zip(cols, arrays) if k == "f" and a.dtype.kind not in "biuf"]
    if unreal:
        raise ValueError(f"{path}: 'f' column of no real dtype: "
                         f"{', '.join(unreal)}")
    # _cells casts text to ASCII bytes after the open; a column repeats a
    # few distinct cells, so each is checked once here
    nonascii = [repr(name) for (name, _, k), (a, _) in zip(cols, arrays)
                if k == "s" and not all(
                    c.isascii() for c in set(a.tolist())
                    if isinstance(c, (str, bytes)))]
    if nonascii:
        raise ValueError(f"{path}: 's' column of non-ASCII text: "
                         f"{', '.join(nonascii)}")
    arrays = [(a.astype(np.float64, copy=False) if k == "f" else a, k)
              for a, k in arrays]
    n = len(arrays[0][0])
    if any(len(a) != n for a, _ in arrays):
        raise ValueError(f"{path}: columns of unequal length "
                         f"{[len(a) for a, _ in arrays]}")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    try:
        with open(path, "wb") as fh:
            fh.write((",".join(name for name, _, _ in cols) + "\n").encode())
            _write_rows(fh, arrays)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        raise
    return path


def _json_default(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def _environment():
    """The versions of Python, numpy and mpmath a run's numbers come from."""
    # mpmath is loaded by the modules cli imports; a top-level import ahead
    # of them raised the peak RSS of a geodrive process by about 0.25 MiB
    import mpmath as mp
    return {"python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__, "mpmath": mp.__version__}


def _write_manifest(path, payload):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
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
    # each axis value is formatted once, n1 + n2 doubles for the axis
    # cells, not 2 * n1 * n2, and no array over the grid is made for them
    rows = field.omega.size
    path = _write_csv(prefix + "curvature.csv",
                      [("x1", _Axis(field.x1, len(field.x2), rows), "x"),
                       ("x2", _Axis(field.x2, 1, rows), "x"),
                       ("omega", field.omega.ravel(), "f")])
    summary = {"band": field.band, "value": result.value,
               "quantization_unit": result.quantization_unit,
               "nearest_quantum": result.nearest_quantum,
               "residue": result.residue,
               "grid_shape": list(result.grid_shape),
               "min_gap": result.min_gap, "min_overlap": result.min_overlap}
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


def _summary_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_sweep_csv(path, rows):
    """Preset summary rows as text columns, one per key in order of first
    appearance, written by _write_csv."""
    keys = list(dict.fromkeys(k for row in rows for k in row))
    return _write_csv(path, [(k, [_summary_cell(row.get(k)) for row in rows],
                              "s") for k in keys])


def run_preset(name, out=None, jobs=1):
    """Execute a named preset; returns (manifest_path, manifest_dict)."""
    if name not in PRESETS:
        raise ValidationError(f"unknown preset {name!r}; choose from "
                              + ", ".join(sorted(PRESETS)))
    if jobs < 1:
        raise ValidationError(f"jobs must be at least 1, got {jobs}",
                              param="jobs")
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
        "environment": _environment(),
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
    except (GeodriveError, MemoryError) as err:
        # a MemoryError is a plan too large for this machine: numpy's names
        # the allocation it could not make
        print(f"runtime error: {str(err) or type(err).__name__}",
              file=sys.stderr)
        return 3, []
    prefix = cfg["output"]["prefix"]
    manifest_path = _write_manifest(prefix + "manifest.json", {
        "config": cfg,
        "version": __version__,
        "environment": _environment(),
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
