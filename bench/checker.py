"""Reference optima and the per-pass output checker.

Each reference is computed once per instance, outside every timing, by a
route other than the one the timed pass takes:

* line-bulk: ``solve_line_klink`` on the instance with identical adjacent
  voters merged and their rho rows summed (exact: on a single-crossing line
  identical voters are contiguous and a canonical answer serves them alike);
* line-egal: ``solve_line_dp`` with the egalitarian objective on the merged
  instance (identical voters have equal rows, so their maximum is the row);
* tree: a top-cover certificate computed from the rankings alone (below);
* grid: brute force over all k-member committees; on the lift-row family only
  the row block can be anyone's cheapest candidate and it varies by row only,
  so full-width row bands reach the committee optimum and the best laminar
  tiling equals it.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from workloads import Instance

from ccwinner.core import Line, Objective, PreferenceProfile
from ccwinner.line_solver import solve_line_dp, solve_line_klink


class NoReference(Exception):
    """The independent reference could not certify an optimum for this instance."""


def _merged_line(inst: Instance) -> PreferenceProfile:
    ranked = inst.rankings[inst.order]
    pos = inst.positions[inst.order]
    starts = np.flatnonzero(np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)])
    weights = np.diff(np.r_[starts, len(ranked)])
    rho = pos[starts] * weights[:, None] if inst.workload.objective == "utilitarian" else pos[starts]
    rankings = tuple(tuple(int(c) for c in r) for r in ranked[starts])
    return PreferenceProfile(rankings, tuple(tuple(int(x) for x in row) for row in rho))


def _top_cover_optimum(inst: Instance) -> int:
    """Utilitarian optimum when the cheapest way to miss a top is the second choice.

    A voter whose top choice is outside the committee pays at least the rho of
    their second choice, so dropping the tops with the smallest such totals
    gives a lower bound.  Keeping the k heaviest tops attains it exactly when
    every voter with a dropped top has their second choice in the committee;
    otherwise there is no certificate.
    """
    k = inst.workload.k
    pos = inst.positions
    tops = inst.rankings[:, 0]
    n, m = pos.shape
    miss = np.bincount(tops, weights=pos[np.arange(n), inst.rankings[:, 1]], minlength=m)
    present = np.unique(tops)
    keep = present[np.argsort(-miss[present], kind="stable")[:k]]
    bound = int(miss[present].sum() - miss[keep].sum())
    attained = int(pos[:, keep].min(axis=1).sum())
    if attained != bound:
        raise NoReference(f"top-cover bound {bound} not attained ({attained})")
    return bound


def _committee_optimum(inst: Instance) -> int:
    pos, weights = np.unique(inst.positions, axis=0, return_counts=True)
    best = None
    for committee in itertools.combinations(range(pos.shape[1]), inst.workload.k):
        got = int(pos[:, committee].min(axis=1) @ weights)
        if best is None or got < best:
            best = got
    return best


def reference_optimum(inst: Instance) -> int:
    """The optimal objective value of the instance, by an independent route."""
    w = inst.workload
    if w.structure == "line":
        merged = _merged_line(inst)
        line = Line(tuple(range(merged.n)))
        if w.objective == "egalitarian":
            return solve_line_dp(merged, line, w.k, Objective.EGALITARIAN).egal_cost
        return solve_line_klink(merged, line, w.k).total_cost
    if w.structure == "tree":
        return _top_cover_optimum(inst)
    return _committee_optimum(inst)


class Checker:
    """Checks one pass's result document against the instance and the reference."""

    def __init__(self, inst: Instance, reference: int):
        self.inst = inst
        self.reference = reference
        self.pos = inst.positions

    def problems(self, doc: dict) -> list[str]:
        """Every way the result is wrong, as short tagged messages; empty when correct."""
        w = self.inst.workload
        n, m = self.pos.shape
        found = []
        if doc.get("k") != w.k or doc.get("objective") != w.objective:
            found.append(f"request: k={doc.get('k')} objective={doc.get('objective')}")
        rep = np.asarray(doc["assignment"], dtype=np.int64) - 1
        if rep.shape != (n,) or rep.min() < 0 or rep.max() >= m:
            return found + ["assignment: wrong length or label out of range"]
        committee = sorted(doc["committee"])
        if sorted(set(committee)) != committee or set(committee) != set((rep + 1).tolist()):
            found.append("committee: not the set of assigned representatives")
        if doc["k_used"] != len(committee) or doc["k_used"] > w.k:
            found.append(f"k_used: {doc['k_used']} for {len(committee)} members, k = {w.k}")

        paid = self.pos[np.arange(n), rep]
        total, egal = int(paid.sum()), int(paid.max())
        if doc["total_cost"] != total or doc["egal_cost"] != egal:
            found.append(
                f"cost: reported {doc['total_cost']}/{doc['egal_cost']}, recomputed {total}/{egal}"
            )
        optimum = egal if w.objective == "egalitarian" else total
        if optimum != self.reference:
            found.append(f"optimum: {optimum}, reference {self.reference}")

        if w.structure == "grid":
            found += self._grid_problems(doc, rep)
            return found
        members = np.array(committee, dtype=np.int64) - 1
        if (paid != self.pos[:, members].min(axis=1)).any():
            found.append("canonical: a voter is not served by their top committee member")
        if w.structure == "line":
            along = rep[self.inst.order]
            runs = 1 + int((along[1:] != along[:-1]).sum())
            if runs != len(np.unique(along)):
                found.append("fiber: a committee member serves a non-contiguous block")
        else:
            parent = self.inst.parent
            child = np.flatnonzero(parent >= 0)
            inner = child[rep[child] == rep[parent[child]]]
            edges = np.bincount(rep[inner], minlength=m)
            sizes = np.bincount(rep, minlength=m)
            if (edges[sizes > 0] != sizes[sizes > 0] - 1).any():
                found.append("fiber: a committee member serves a disconnected vertex set")
        return found

    def _grid_problems(self, doc: dict, rep: np.ndarray) -> list[str]:
        w = self.inst.workload
        rects = doc["stats"].get("tiling", [])
        reps = doc["stats"].get("reps", [])
        if not rects or len(rects) != len(reps) or len(rects) > w.k:
            return [f"tiling: {len(rects)} rectangles, {len(reps)} representatives, k = {w.k}"]
        cover = np.zeros((w.n1, w.n2), dtype=np.int64)
        served = np.full((w.n1, w.n2), -1, dtype=np.int64)
        for (i0, i1, j0, j1), c in zip(rects, reps):
            cover[i0 - 1 : i1, j0 - 1 : j1] += 1
            served[i0 - 1 : i1, j0 - 1 : j1] = c - 1
        if (cover != 1).any():
            return ["tiling: rectangles do not partition the grid"]
        if (served.ravel() != rep).any():
            return ["fiber: a voter is not served by their rectangle's representative"]
        return []


def read_result(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
