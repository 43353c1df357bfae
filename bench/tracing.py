"""Per-layer tracing from outside the program.

A traced pass runs ``ccwinner.cli.main(["solve", ...])`` with the CLI's calls
into each layer wrapped in a ``perf_counter`` span.  Functions the solvers
call internally (profile build, normalize, canonicalize, the grid prefix
table) are timed standalone on the same input after the pass, and a solver's
self time is its span minus those standalone timings: an estimate, since the
calls inside the solver may run warmer or colder than the standalone ones.
Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import ccwinner.cli as cli
from ccwinner.core import PreferenceProfile, canonicalize, normalize_to_root_order
from ccwinner.grid_solver import build_grid_prefix

# CLI module attributes wrapped during a traced pass, with their span names
WRAPPED = {
    "load_instance": "cli.load_instance",
    "check_consistency": "validation.consistency",
    "check_structure": "validation.single_crossing",
    "solve_line_dp": "line_solver.solve",
    "solve_line_egal_threshold": "line_solver.solve",
    "solve_line_klink": "line_solver.solve",
    "solve_tree_dp": "tree_solver.solve",
    "solve_grid_laminar": "grid_solver.solve",
    "solve_grid_bicriterial": "grid_solver.solve",
    "result_to_doc": "cli.serialize",
    "_write_json": "cli.serialize",
}
SOLVER_SPANS = ("line_solver.solve", "tree_solver.solve", "grid_solver.solve")


class Tracer:
    """Spans with name, start, end, parent span and the pass they belong to."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.run = None
        self.returned: dict = {}

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        record = {"id": sid, "name": name, "parent": self._open[-1] if self._open else None,
                  "run": self.run, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, attr: str, fn):
        name = WRAPPED[attr]

        def traced(*args, **kwargs):
            with self.span(name):
                value = fn(*args, **kwargs)
            self.returned[attr] = value
            return value

        return traced

    def durations(self, run, name: str) -> float:
        """Summed duration of the spans called `name` in one pass."""
        return sum(s["end"] - s["start"] for s in self.spans if s["run"] == run and s["name"] == name)

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": self.spans}, handle)


@contextmanager
def patched_cli(tracer: Tracer):
    saved = {attr: getattr(cli, attr) for attr in WRAPPED}
    try:
        for attr, fn in saved.items():
            setattr(cli, attr, tracer.wrap(attr, fn))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(cli, attr, fn)


def traced_pass(tracer: Tracer, run, argv: list[str]) -> int:
    """One pass of the CLI with spans around its calls into each layer."""
    tracer.run = run
    tracer.returned = {}
    with patched_cli(tracer), tracer.span("pass"):
        return cli.main(argv)


def standalone_children(tracer: Tracer, run, workload, rankings) -> dict:
    """Time, on this pass's input, the calls the solver makes inside itself.

    Returns seconds per child name and the solver's self-time estimate.
    ``rankings`` are the instance's decoded 0-based rankings.
    """
    tracer.run = run
    profile, structure, _ = tracer.returned["load_instance"]
    solver_attr = next(a for a in tracer.returned if a.startswith("solve_"))
    result = tracer.returned[solver_attr]
    if isinstance(result, tuple):  # grid-laminar also returns its tiling
        result = result[0]
    times = {}

    def timed(name, fn, *args):
        with tracer.span(name):
            t0 = time.perf_counter()
            value = fn(*args)
            times[name] = time.perf_counter() - t0
        return value

    with tracer.span("standalone"):
        timed("core.profile_build", PreferenceProfile.from_rankings, rankings)
        timed("core.normalize", normalize_to_root_order, profile, structure)
        timed("core.canonicalize", canonicalize, profile, result.assignment)
        if workload.structure == "grid":
            timed("grid_solver.build_prefix", build_grid_prefix, profile, structure)
        if "threshold" in result.stats:  # egalitarian line: one 0/1 DP per probe
            t = result.stats["threshold"]
            capped_rho = tuple(tuple(0 if x <= t else 1 for x in row) for row in profile.rho)
            capped = timed("core.profile_build_01", PreferenceProfile, profile.rankings, capped_rho)
            timed("core.normalize_01", normalize_to_root_order, capped, structure)
            timed("core.canonicalize_01", canonicalize, capped, result.assignment)

    solver_span = sum(tracer.durations(run, name) for name in SOLVER_SPANS)
    if workload.structure == "grid":
        children = times["grid_solver.build_prefix"]
    elif "core.profile_build_01" in times:
        probe = times["core.profile_build_01"] + times["core.normalize_01"] + times["core.canonicalize_01"]
        children = result.stats["dp_calls"] * probe
    else:
        children = times["core.normalize"] + times["core.canonicalize"]
    times["solver.solve"] = solver_span
    times["solver.self"] = solver_span - children
    return times


def solver_counts(tracer: Tracer) -> dict:
    """Work counters from the solver's SolveResult.stats, zero for idle layers."""
    attr = next(a for a in tracer.returned if a.startswith("solve_"))
    result = tracer.returned[attr]
    if isinstance(result, tuple):
        result = result[0]
    stats = result.stats
    line = attr.startswith("solve_line")
    tree = attr == "solve_tree_dp"
    grid = attr.startswith("solve_grid")
    return {
        "line_solver.states": stats.get("states", 0) if line else 0,
        "line_solver.l_star": stats.get("l_star", 0) if line else 0,
        "line_solver.dp_calls": stats.get("dp_calls", 1) if line else 0,
        "line_solver.threshold": stats.get("threshold", 0) if line else 0,
        "tree_solver.merge_iterations": stats.get("merge_iterations", 0) if tree else 0,
        "tree_solver.states": stats.get("states", 0) if tree else 0,
        "tree_solver.l_star": stats.get("l_star", 0) if tree else 0,
        "grid_solver.dp_cells": stats.get("dp_cells", 0) if grid else 0,
        "grid_solver.rects": stats.get("rects", 0) if grid else 0,
    }
