"""Seeded inputs for the two benchmark workloads.

Each workload is a list of operations; an operation is one `geodrive run`
config plus what its output is checked against.  Each workload joins two
groups of operations: `bolza-drives` runs the slow drive and the unit-speed
drive, `flat-and-grids` the flat drives and the invariant sweep.  Seed 0
reproduces the preset and acceptance parameters.  Any other seed draws
drive directions, start points and model parameters from
`random.Random(seed)`, keeping every model inside the phase of its seed-0
value, so the expected quantum of each invariant does not depend on the
seed.

Horizons and grids are cut from the paper's sizes so that one pass takes a
few seconds; each cut keeps the property its group exists for (see
README.md).  The "smoke" size runs the same configs at tiny horizons and
grids, for the benchmark's own tests.
"""

import math
import random

GOLDEN = (1 + math.sqrt(5)) / 2

WORKLOADS = {
    "bolza-drives": ("slow-drive", "unit-speed"),
    "flat-and-grids": ("flat-drives", "invariant-sweep"),
}

SIZES = {
    "full": {
        # lambda T = 5 at the 74 digits of the lambda T = 100 drive, so the
        # per-sample mpmath cost is that of criterion 2
        "slow_T": 100.0, "slow_digits": 74,
        # half the T = 300 drive at its 161 digits: about 95 crossings,
        # and the bisection outweighs the per-sample work
        "unit_T": 150.0, "unit_digits": 161,
        # omega_x T = 20 instead of 400: the arrays still dominate peak RSS
        "flat_T": 1000.0, "flat_klein_grid": [400, 200],
        "flat_rp2_grid": [200, 200],
        "chern_grid": 100, "dipolar_grid": [200, 100],
    },
    "smoke": {
        "slow_T": 2.0, "slow_digits": 74,
        "unit_T": 10.0, "unit_digits": 161,
        "flat_T": 50.0, "flat_klein_grid": [24, 12],
        "flat_rp2_grid": [16, 16],
        "chern_grid": 24, "dipolar_grid": [24, 12],
    },
}

CHERN_EPSILONS = (-2.0, -1.5, -0.5, 0.0, 0.5, 1.5, 2.0)
DIPOLAR_MASSES = (0.25, 0.5, 0.75, 1.5, 2.0, 2.5, 3.5, 4.0, 5.0)


def dipolar_quantum(m):
    """|D_y| of klein_qubit(m): pi below m = 1, pi/2 up to m = 3, then 0."""
    if abs(m) < 1:
        return math.pi
    return math.pi / 2 if abs(m) < 3 else 0.0


def grid_nodes(manifold, shape):
    """Eigenvector nodes behind an invariant on a (nx, ny) plaquette grid."""
    nx, ny = shape
    if manifold == "klein":  # theta_x wraps, so its last node is the first
        return nx * (ny + 1)
    return (nx + 1) * (ny + 1)


def _config(kind, manifold, model=None, drive=None, numerics=None):
    cfg = {"kind": kind, "manifold": manifold, "output": {"prefix": ""}}
    if model is not None:
        cfg["model"] = model
    if drive is not None:
        cfg["drive"] = drive
    if numerics is not None:
        cfg["numerics"] = numerics
    return cfg


def _drive_samples(T, dt):
    return int(round(T / dt)) + 1


def build(workload, seed, size="full"):
    """The operations of one workload: a list of dicts with keys

    label    unique within the workload
    group    the group of operations it belongs to
    config   the `geodrive run` config
    points   manifold points the result is built from (trajectory
             samples for drives, eigenvector nodes for grids)
    quantum  (invariants only) the expected nearest quantum; compared in
             absolute value where the sign is a convention
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from "
                         + ", ".join(WORKLOADS))
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    sz = SIZES[size]
    rng = random.Random(seed)

    def pick(preset, lo, hi):
        return preset if seed == 0 else rng.uniform(lo, hi)

    ops = []
    for group in WORKLOADS[workload]:
        for op in _GROUPS[group](sz, pick):
            op["group"] = group
            ops.append(op)
    return ops


def _start_point(pick):
    # well inside the octagon, whose inradius is about 0.64
    r, phi = math.sqrt(pick(0.0, 0.0, 0.09)), pick(0.0, 0.0, 2 * math.pi)
    return [r * math.cos(phi), r * math.sin(phi)]


def _slow_drive(sz, pick):
    T = sz["slow_T"]
    drive = {"lambda": 0.05, "T": T, "dt": 0.01,
             "direction": pick(math.pi / 9, 0, 2 * math.pi),
             "z0": _start_point(pick)}
    model = {"name": "bolza_qubit", "epsilon": pick(0.5, 0.3, 0.7)}
    return [{"label": "hdqs",
             "config": _config("response", "bolza", model, drive,
                               {"digits": sz["slow_digits"]}),
             # response runs sample the drive at dt / 2
             "points": _drive_samples(T, 0.005)}]


def _unit_speed(sz, pick):
    T = sz["unit_T"]
    drive = {"lambda": 1.0, "T": T, "dt": 0.01,
             "direction": pick(math.pi / 9, 0, 2 * math.pi),
             "z0": _start_point(pick)}
    return [{"label": "ergodicity",
             "config": _config("ergodicity", "bolza", drive=drive,
                               numerics={"r": 0.6, "bins": 36,
                                         "digits": sz["unit_digits"]}),
             "points": _drive_samples(T, 0.01)}]


def _flat_drives(sz, pick):
    T = sz["flat_T"]
    ratio = pick(GOLDEN, 1.5, 1.75)
    m_klein = pick(2.0, 1.6, 2.4)
    m_rp2 = pick(1.0, 0.6, 1.4)
    klein_start = [pick(-math.pi, -math.pi, math.pi),
                   pick(-math.pi, -math.pi, 0.0)]
    rp2_start = [pick(0.0, 0.0, math.pi), pick(0.0, 0.0, math.pi)]
    ops = []
    for manifold, m, start in (("klein", m_klein, klein_start),
                               ("rp2", m_rp2, rp2_start)):
        drive = {"omega": [0.02, ratio * 0.02], "T": T, "dt": 0.01,
                 "theta0": start}
        ops.append({"label": f"{manifold}_response",
                    "config": _config("response", manifold,
                                      {"name": f"{manifold}_qubit", "m": m},
                                      drive),
                    "points": _drive_samples(T, 0.005)})
    for manifold, m, grid, quantum in (
            ("klein", m_klein, sz["flat_klein_grid"], math.pi / 2),
            ("rp2", m_rp2, sz["flat_rp2_grid"], math.pi ** 2 / 2)):
        ops.append({"label": f"{manifold}_invariant",
                    "config": _config("invariant", manifold,
                                      {"name": f"{manifold}_qubit", "m": m},
                                      numerics={"grid": grid, "band": 1}),
                    "points": grid_nodes(manifold, grid),
                    "quantum": quantum})
    return ops


def _invariant_sweep(sz, pick):
    # the fig4-chern and fig5-dipolar preset invariants
    ops = []
    res = sz["chern_grid"]
    for eps in CHERN_EPSILONS:
        value = pick(eps, eps - 0.2, eps + 0.2)
        ops.append({"label": f"chern_eps{eps:g}",
                    "config": _config("invariant", "bolza",
                                      {"name": "bolza_qubit",
                                       "epsilon": value},
                                      numerics={"grid": [res], "band": 1}),
                    "points": grid_nodes("bolza", (res, res)),
                    "quantum": 1.0 if abs(value) < 1 else 0.0})
    grid = sz["dipolar_grid"]
    for m in DIPOLAR_MASSES:
        value = pick(m, m - 0.1, m + 0.1)
        ops.append({"label": f"dipolar_m{m:g}",
                    "config": _config("invariant", "klein",
                                      {"name": "klein_qubit", "m": value},
                                      numerics={"grid": grid, "band": 1}),
                    "points": grid_nodes("klein", grid),
                    "quantum": dipolar_quantum(value)})
    return ops


_GROUPS = {
    "slow-drive": _slow_drive,
    "unit-speed": _unit_speed,
    "flat-drives": _flat_drives,
    "invariant-sweep": _invariant_sweep,
}
