"""Exhaustive reference solvers.

These are deliberately slow and obviously correct; every fast solver in the
package is tested against them at desk scale.  No pruning beyond the early
exit at cost zero.  They read the profile through its ``rho`` tuple view,
one entry at a time, so they share no array code with the solvers.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Optional

from .core import Assignment, Objective, PreferenceProfile, SolveResult
from .errors import BudgetExceeded, IncompleteTilings, InvalidK

#: Committees (or tilings) examined before giving up.
DEFAULT_BUDGET = 500_000


def committee_count(m: int, k: int) -> int:
    """Number of candidate committees of size 1..min(k, m)."""
    return sum(comb(m, s) for s in range(1, min(k, m) + 1))


def best_assignment_for(profile: PreferenceProfile, committee) -> Assignment:
    """Assign every voter the committee member with the lowest misrepresentation.

    Ties go to the smallest candidate index.  With a consistent rho this is
    the voter's highest-ranked member up to rho ties.
    """
    rep = tuple(min(committee, key=lambda c: (profile.rho[v][c], c)) for v in range(profile.n))
    return Assignment(rep)


def _objective_value(profile: PreferenceProfile, assignment: Assignment, objective: Objective):
    values = [profile.rho[v][c] for v, c in enumerate(assignment.rep)]
    return sum(values) if objective is Objective.UTILITARIAN else max(values)


def brute_force(
    profile: PreferenceProfile,
    k: int,
    objective: Objective = Objective.UTILITARIAN,
    budget: Optional[int] = DEFAULT_BUDGET,
) -> SolveResult:
    """Optimal committee by enumerating every committee of size at most k.

    Committees are scanned by increasing size, each size in lexicographic
    order, and only a strictly better cost replaces the incumbent; so among
    optimal committees the smallest one (by size, then lexicographically)
    wins.  Stops early once cost 0 is reached.

    Raises
    ------
    InvalidK
        If k < 1.
    BudgetExceeded
        If the number of committees to scan exceeds `budget`.
    """
    if k < 1:
        raise InvalidK(f"committee size bound must be at least 1, got {k}")
    total = committee_count(profile.m, k)
    if budget is not None and total > budget:
        raise BudgetExceeded(f"{total} committees exceed the budget of {budget}")

    best = None
    best_cost = None
    for size in range(1, min(k, profile.m) + 1):
        for committee in combinations(range(profile.m), size):
            assignment = best_assignment_for(profile, committee)
            value = _objective_value(profile, assignment, objective)
            if best_cost is None or value < best_cost:
                best, best_cost = assignment, value
                if best_cost == 0:
                    break
        if best_cost == 0:
            break
    return SolveResult.from_assignment(
        profile, best, "oracle", {"objective": objective.value, "committees_scanned": total}
    )


def brute_force_tiling(
    profile: PreferenceProfile,
    grid,
    k: int,
    budget: Optional[int] = DEFAULT_BUDGET,
    tilings=None,
) -> SolveResult:
    """Optimal utilitarian cost over every partition of the grid into at most k rectangles.

    Each rectangle gets the candidate minimizing its summed misrepresentation
    (ties to the smallest index; sums computed directly, no prefix tables).
    On single-crossing grid instances this agrees with `brute_force`, because
    optimal canonical assignments have rectangular fibers.  `tilings` can
    supply a pre-enumerated list to share across calls (an empty one raises
    `IncompleteTilings`, a listed tiling of another grid or with more than k
    rectangles `InvalidTiling`); the winning tiling is reported in stats as
    inclusive (i0, i1, j0, j1) tuples with its per-rect representatives.
    """
    from .grid_solver import _check_listed_tiling, enumerate_tilings

    if k < 1:
        raise InvalidK(f"committee size bound must be at least 1, got {k}")
    if tilings is None:
        tilings = list(enumerate_tilings(grid, k, budget=budget))

    best_cost = None
    best_rects = None
    best_reps = None
    for at, tiling in enumerate(tilings):
        _check_listed_tiling(at, tiling, grid, k)
        total = 0
        reps = []
        for rect in tiling.rects:
            rect_best = None
            rect_cand = None
            for c in range(profile.m):
                s = sum(
                    profile.rho[grid.index(i, j)][c]
                    for i in range(rect.i0, rect.i1 + 1)
                    for j in range(rect.j0, rect.j1 + 1)
                )
                if rect_best is None or s < rect_best:
                    rect_best, rect_cand = s, c
            total += rect_best
            reps.append(rect_cand)
        if best_cost is None or total < best_cost:
            best_cost = total
            best_rects = tiling.rects
            best_reps = tuple(reps)
            if best_cost == 0:
                break
    if best_rects is None:
        raise IncompleteTilings("no tilings to scan")

    rep = [None] * profile.n
    for rect, c in zip(best_rects, best_reps):
        for i in range(rect.i0, rect.i1 + 1):
            for j in range(rect.j0, rect.j1 + 1):
                rep[grid.index(i, j)] = c
    stats = {
        "tiling": tuple((r.i0, r.i1, r.j0, r.j1) for r in best_rects),
        "reps": best_reps,
        "tilings_scanned": len(tilings),
    }
    return SolveResult.from_assignment(profile, Assignment(tuple(rep)), "oracle-tiling", stats)
