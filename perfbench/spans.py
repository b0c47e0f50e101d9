"""Spans around the calls into each geodrive module, installed from outside.

Nothing in the package changes: `instrument` replaces the names through
which one module calls another (module attributes and class methods) with
timing wrappers, and returns a function that puts the originals back.  Each
span records its name, start, end and the index of its parent span.  A
span's name starts with the module that owns the called function, so a
module's self time is the time of its spans minus the part their child
spans cover.
"""

import functools
import inspect
import json
import os
import time
from collections import Counter

import numpy as np

from geodrive import cli, evolution, hyperbolic, models, response, topology
from geodrive import trajectories

from workloads import grid_nodes

# modules reported by self time; cli is split into validate_s, write_s and
# residual_s
SELF_TIMED = ("trajectories", "hyperbolic", "evolution", "models",
              "topology", "response", "ergodicity")


class Tracer:
    """In-memory span list plus counters updated at the same boundaries."""

    def __init__(self):
        self.spans = []      # [name, start_ns, end_ns, parent index]
        self.counts = Counter()
        self._stack = []

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._stack.clear()

    def wrap(self, name, fn, count=None):
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def self_times(self):
        """Seconds of self time per span name."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += (end - start - covered) * 1e-9
        return out

    def dump(self, path):
        """Write the spans as JSON lines: name, start_ns, end_ns, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


# --------------------------------------------------------------------------
# counters, called with (counts, args, result) after the span closes


def _count_trajectory(c, args, traj):
    c["trajectories.samples"] += len(traj.t)
    if isinstance(traj, trajectories.BolzaTrajectory):
        c["trajectories.crossings"] += len(traj.crossings)
        c["trajectories.digits"] = max(c["trajectories.digits"], traj.digits)


def _count_evolve(c, args, result):
    c["evolution.steps"] += len(result.t) - 1
    dev = float(np.abs(result.norms - 1).max())
    c["evolution.norm_deviation"] = max(c["evolution.norm_deviation"], dev)


def _count_response(c, args, run):
    c["response.steps"] += len(run.series.t)


def _count_points(c, args, result):
    c["models.points"] += len(args[1])


def _count_point(c, args, result):
    c["models.points"] += 1


def _count_eig(c, args, result):
    c["models.eig_points"] += len(result.energies)


def _count_eig_one(c, args, result):
    c["models.eig_points"] += 1


def _count_nodes(manifold):
    def count(c, args, result):
        res = result[0] if isinstance(result, tuple) else result
        c["topology.nodes"] += grid_nodes(manifold, res.grid_shape)
    return count


def _count_csv(c, args, path):
    c["cli.rows_written"] += len(args[1][0][1])
    c["cli.bytes_written"] += os.path.getsize(path)


def _count_file(c, args, path):
    c["cli.bytes_written"] += os.path.getsize(path)


# (owner, attribute, span name, counter): the names through which the
# workloads' CLI path crosses from one module into another
_TARGETS = [
    (cli, "cmd_run", "cli.cmd_run", None),
    (cli, "validate_config", "cli.validate_config", None),
    (cli, "execute", "cli.execute", None),
    (cli, "_write_csv", "cli.write_csv", _count_csv),
    (cli, "_write_manifest", "cli.write_manifest", _count_file),
    (cli, "trajectory", "trajectories.trajectory", _count_trajectory),
    (cli, "run_hdqs", "response.run_hdqs", _count_response),
    (cli, "run_klein", "response.run_klein", _count_response),
    (cli, "run_rp2", "response.run_rp2", _count_response),
    (cli, "chern_bolza", "topology.chern_bolza", _count_nodes("bolza")),
    (cli, "dipolar_chern", "topology.dipolar_chern", _count_nodes("klein")),
    (cli, "quadrupole_chern", "topology.quadrupole_chern",
     _count_nodes("rp2")),
    (cli, "ergodicity_report", "ergodicity.ergodicity_report", None),
    (response, "trajectory", "trajectories.trajectory", _count_trajectory),
    (response, "evolve", "evolution.evolve", _count_evolve),
    (response, "eigensystem", "models.eigensystem", _count_eig_one),
    (response, "gap_report", "models.gap_report", None),
    (evolution, "eig_many", "models.eig_many", _count_eig),
    (evolution, "bloch_vector", "models.bloch_vector", None),
    (topology, "eig_many", "models.eig_many", _count_eig),
    (topology, "gap_report", "models.gap_report", None),
    (topology, "mirror_symmetry_residual", "models.mirror_symmetry_residual",
     None),
    (topology, "s_symmetry_residual", "models.s_symmetry_residual", None),
    (models, "eig_many", "models.eig_many", _count_eig),
    (models.ParentHamiltonian, "evaluate", "models.evaluate", _count_point),
    (models.ParentHamiltonian, "evaluate_many", "models.evaluate_many",
     _count_points),
    (models.ParentHamiltonian, "gradient_many", "models.gradient_many",
     _count_points),
    (trajectories.BolzaTrajectory, "velocities",
     "trajectories.velocities", None),
    (trajectories.FlatTrajectory, "velocities", "trajectories.velocities",
     None),
    (trajectories, "bolza_group", "hyperbolic.bolza_group", None),
    (hyperbolic, "in_fundamental_domain", "hyperbolic.in_fundamental_domain",
     None),
] + [
    (hyperbolic.MobiusMap, attr, f"hyperbolic.MobiusMap.{attr}", None)
    for attr in ("__call__", "compose", "inverse", "rotation",
                 "translation_to")
] + [
    (hyperbolic.BolzaGroup, attr, f"hyperbolic.BolzaGroup.{attr}", None)
    for attr in ("element", "items")
] + [
    (hyperbolic.FundamentalOctagon, attr,
     f"hyperbolic.FundamentalOctagon.{attr}", None)
    for attr in ("contains", "min_depth")
]


def instrument(tracer):
    """Wrap every target; returns a function that restores the originals."""
    saved = []
    for owner, attr, name, count in _TARGETS:
        static = inspect.getattr_static(owner, attr)
        wrapped = tracer.wrap(name, getattr(owner, attr), count)
        if isinstance(static, staticmethod):
            wrapped = staticmethod(wrapped)
        saved.append((owner, attr, static))
        setattr(owner, attr, wrapped)

    def restore():
        for owner, attr, static in reversed(saved):
            setattr(owner, attr, static)

    return restore


def module_metrics(tracer, wall_s):
    """Per-module metrics of one traced pass whose timed ops took wall_s."""
    by_name = tracer.self_times()
    by_module = Counter()
    for name, seconds in by_name.items():
        by_module[name.split(".", 1)[0]] += seconds
    c = tracer.counts
    # cli code outside any module call: argument parsing, config loading,
    # model and drive set-up, array reshaping and the printed summary
    residual = by_name["cli.cmd_run"] + by_name["cli.execute"]
    out = {f"{m}.self_s": by_module[m] for m in SELF_TIMED}
    out.update({
        "trajectories.samples": c["trajectories.samples"],
        "trajectories.crossings": c["trajectories.crossings"],
        "trajectories.digits": c["trajectories.digits"],
        "trajectories.us_per_sample":
            1e6 * by_module["trajectories"] / c["trajectories.samples"]
            if c["trajectories.samples"] else 0.0,
        "hyperbolic.map_calls": sum(1 for s in tracer.spans
                                    if s[0].startswith("hyperbolic.")),
        "evolution.steps": c["evolution.steps"],
        "evolution.ns_per_step":
            1e9 * by_module["evolution"] / c["evolution.steps"]
            if c["evolution.steps"] else 0.0,
        "evolution.norm_deviation": c["evolution.norm_deviation"],
        "models.evaluate_s": by_name["models.evaluate_many"]
                             + by_name["models.evaluate"],
        "models.gradient_s": by_name["models.gradient_many"],
        "models.eig_s": by_name["models.eig_many"]
                        + by_name["models.eigensystem"],
        "models.points": c["models.points"],
        "models.eig_points": c["models.eig_points"],
        "topology.nodes": c["topology.nodes"],
        "response.steps": c["response.steps"],
        "cli.validate_s": by_name["cli.validate_config"],
        "cli.write_s": by_name["cli.write_csv"]
                       + by_name["cli.write_manifest"],
        "cli.residual_s": residual,
        "cli.bytes_written": c["cli.bytes_written"],
        "cli.rows_written": c["cli.rows_written"],
        "trace.wall_s": wall_s,
        "trace.coverage": (sum(by_module.values()) - residual) / wall_s,
    })
    return out
