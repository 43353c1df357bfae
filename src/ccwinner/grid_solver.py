"""Rectangle-tiling solvers for profiles that are single-crossing on a grid.

On a single-crossing grid instance the optimal committee assignment has
box-shaped fibers, so winner determination becomes: partition the grid into
at most k rectangles and give each rectangle its cheapest candidate.  The
dynamic program below searches the LAMINAR tilings (those obtainable by
recursive full-width or full-height cuts).  Whether some optimal tiling is
always laminar is open; `check_laminar_conjecture` probes it empirically,
and `solve_grid_bicriterial` sidesteps it by raising the budget to k^2,
which is enough to refine any k-tiling into a laminar one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import Assignment, Grid, PreferenceProfile, SolveResult, int_dtype, to_rho_units
from .errors import BudgetExceeded, InvalidK, InvalidTiling

__all__ = [
    "Rect",
    "Tiling",
    "GridPrefix",
    "build_grid_prefix",
    "rect_cost",
    "solve_grid_laminar",
    "solve_grid_bicriterial",
    "refine_to_laminar",
    "is_laminar",
    "enumerate_tilings",
    "check_laminar_conjecture",
]

DEFAULT_TILING_BUDGET = 2_000_000


@dataclass(frozen=True)
class Rect:
    """Inclusive cell bounds [i0:i1] x [j0:j1], 0-based."""

    i0: int
    i1: int
    j0: int
    j1: int

    def __post_init__(self):
        if not (0 <= self.i0 <= self.i1 and 0 <= self.j0 <= self.j1):
            raise InvalidTiling(f"degenerate rectangle {self!r}")

    @property
    def area(self) -> int:
        return (self.i1 - self.i0 + 1) * (self.j1 - self.j0 + 1)

    def cells(self):
        for i in range(self.i0, self.i1 + 1):
            for j in range(self.j0, self.j1 + 1):
                yield i, j


@dataclass(frozen=True)
class Tiling:
    """An exact partition of a grid into rectangles, optionally with representatives.

    Construction validates the partition (pairwise disjoint, no gaps) against
    the bounding box of the rectangles and sorts them top-left row-major,
    permuting `reps` along.  The covered dimensions are exposed as n1, n2.
    """

    rects: tuple[Rect, ...]
    reps: Optional[tuple[int, ...]] = None
    n1: int = field(init=False)
    n2: int = field(init=False)

    def __post_init__(self):
        rects = tuple(self.rects)
        if not rects:
            raise InvalidTiling("a tiling needs at least one rectangle")
        reps = self.reps
        if reps is not None:
            reps = tuple(reps)
            if len(reps) != len(rects):
                raise InvalidTiling("one representative per rectangle required")
            order = sorted(range(len(rects)), key=lambda t: _rect_key(rects[t]))
            rects = tuple(rects[t] for t in order)
            reps = tuple(reps[t] for t in order)
        else:
            rects = tuple(sorted(rects, key=_rect_key))
        n1 = max(r.i1 for r in rects) + 1
        n2 = max(r.j1 for r in rects) + 1
        cover = [[-1] * n2 for _ in range(n1)]
        for t, r in enumerate(rects):
            for i, j in r.cells():
                if cover[i][j] != -1:
                    raise InvalidTiling(f"rectangles {cover[i][j]} and {t} overlap at ({i}, {j})")
                cover[i][j] = t
        for i in range(n1):
            for j in range(n2):
                if cover[i][j] == -1:
                    raise InvalidTiling(f"cell ({i}, {j}) is uncovered")
        object.__setattr__(self, "rects", rects)
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)


def _rect_key(r: Rect):
    return (r.i0, r.j0, r.i1, r.j1)


@dataclass(frozen=True)
class GridPrefix:
    """Per-candidate 2D prefix sums of scaled rho.

    ``table`` is a read-only (m, n1+1, n2+1) array (int64, or object past
    the int64 range) whose [c, i, j] entry sums candidate c's scaled values
    over the cells above row i and left of column j.  Divide by ``scale``
    for rho units.
    """

    table: np.ndarray
    n1: int
    n2: int
    m: int
    scale: int = 1


def build_grid_prefix(profile: PreferenceProfile, grid: Grid) -> GridPrefix:
    if profile.n != grid.n:
        raise ValueError(f"grid has {grid.n} cells, profile has {profile.n} voters")
    n1, n2, m = grid.n1, grid.n2, profile.m
    dtype = int_dtype(grid.n * int(profile.scaled.max()))
    cells = profile.scaled.astype(dtype, copy=False).reshape(n1, n2, m).transpose(2, 0, 1)
    table = np.zeros((m, n1 + 1, n2 + 1), dtype=dtype)
    table[:, 1:, 1:] = cells.cumsum(axis=1).cumsum(axis=2)
    table.flags.writeable = False
    return GridPrefix(table, n1, n2, m, profile.scale)


def rect_cost(prefix2d: GridPrefix, rect: Rect):
    """Cheapest single candidate for a rectangle: (cost, candidate), ties to smallest.

    The cost is in rho units.
    """
    t = prefix2d.table
    i0, i1, j0, j1 = rect.i0, rect.i1 + 1, rect.j0, rect.j1 + 1
    sums = t[:, i1, j1] - t[:, i0, j1] - t[:, i1, j0] + t[:, i0, j0]
    cand = int(sums.argmin())
    return to_rho_units(int(sums[cand]), prefix2d.scale), cand


def _shape_minima(prefix: GridPrefix, h: int, w: int):
    """Cheapest scaled cost and candidate of every h x w rectangle, ties to smallest.

    Two (n1-h+1, n2-w+1) arrays; entry [i0, j0] is the rectangle whose top-left
    cell is (i0, j0).
    """
    t = prefix.table
    p1, p2 = prefix.n1 - h + 1, prefix.n2 - w + 1
    sums = t[:, h:, w:] - t[:, :p1, w:] - t[:, h:, :p2] + t[:, :p1, :p2]
    return sums.min(axis=0), sums.argmin(axis=0)


def _solve_laminar(profile: PreferenceProfile, grid: Grid, budget: int, algorithm: str):
    """The laminar DP, one rectangle shape (h, w) at a time.

    For each shape, ``value[h, w][i0, j0, l-1]`` is the cheapest laminar
    tiling with at most l rectangles of the h x w rectangle at (i0, j0), in
    scaled units.  ``cut[h, w]`` records how it was reached: -1 uncut, a-1
    for a vertical cut after a columns, w-2+b for a horizontal cut after b
    rows; ``split[h, w]`` holds the budget l1 of the left or top half.  The
    candidates of each l are stacked cut by cut (vertical cuts, then
    horizontal, each ascending), l1 ascending within a cut, so the first
    argmin is the earliest of the scalar scan, and it replaces the uncut
    rectangle only when strictly cheaper.
    """
    n1, n2 = grid.n1, grid.n2
    kk = min(budget, n1 * n2)
    prefix = build_grid_prefix(profile, grid)

    value: dict = {}
    cut: dict = {}
    split: dict = {}
    cand: dict = {}
    # increasing height + width guarantees both halves of any cut are ready
    for size in range(2, n1 + n2 + 1):
        for h in range(max(1, size - n2), min(n1, size - 1) + 1):
            w = size - h
            p1, p2 = n1 - h + 1, n2 - w + 1
            const, cand[h, w] = _shape_minima(prefix, h, w)
            val = np.repeat(const[:, :, None], kk, axis=2)
            how = np.full((p1, p2, kk), -1, dtype=np.int32)
            l1s = np.zeros((p1, p2, kk), dtype=np.int32)
            halves = [(value[h, a][:, :p2], value[h, w - a][:, a : a + p2]) for a in range(1, w)]
            halves += [(value[b, w][:p1], value[h - b, w][b : b + p1]) for b in range(1, h)]
            if halves and kk > 1:
                first = np.stack([x for x, _ in halves], axis=2)  # (p1, p2, cuts, kk)
                second = np.stack([y for _, y in halves], axis=2)
                for l in range(2, kk + 1):
                    # entry (cut, l1): l1 rectangles in the first half, l - l1 in the second
                    sums = (first[..., : l - 1] + second[..., l - 2 :: -1]).reshape(p1, p2, -1)
                    best = sums.argmin(axis=2)
                    got = sums.min(axis=2)
                    win = got < const
                    val[..., l - 1] = np.where(win, got, const)
                    how[..., l - 1] = np.where(win, best // (l - 1), -1)
                    l1s[..., l - 1] = best % (l - 1) + 1
            value[h, w], cut[h, w], split[h, w] = val, how, l1s

    rects = []
    reps = []
    stack = [(0, 0, n1, n2, kk)]
    while stack:
        i0, j0, h, w, l = stack.pop()
        c = int(cut[h, w][i0, j0, l - 1])
        if c < 0:
            rects.append(Rect(i0, i0 + h - 1, j0, j0 + w - 1))
            reps.append(int(cand[h, w][i0, j0]))
            continue
        l1 = int(split[h, w][i0, j0, l - 1])
        if c < w - 1:
            a = c + 1
            stack.append((i0, j0, h, a, l1))
            stack.append((i0, j0 + a, h, w - a, l - l1))
        else:
            b = c - w + 2
            stack.append((i0, j0, b, w, l1))
            stack.append((i0 + b, j0, h - b, w, l - l1))
    tiling = Tiling(tuple(rects), tuple(reps))

    rep = np.empty((n1, n2), dtype=np.int64)
    for r, c in zip(tiling.rects, tiling.reps):
        rep[r.i0 : r.i1 + 1, r.j0 : r.j1 + 1] = c
    n_rects = n1 * (n1 + 1) // 2 * (n2 * (n2 + 1) // 2)  # every sub-rectangle has a table row
    stats = {"rects": len(tiling.rects), "budget": kk, "dp_cells": n_rects * kk}
    assignment = Assignment(rep.ravel().tolist())
    result = SolveResult.from_assignment(profile, assignment, algorithm, stats)
    return result, tiling


def solve_grid_laminar(profile: PreferenceProfile, grid: Grid, k: int):
    """Best laminar tiling with at most k rectangles, one candidate per rectangle.

    Returns (SolveResult, Tiling).  The assignment keeps each voter on their
    rectangle's representative (it is not re-canonicalized, so the tiling
    stays readable from the assignment).  A rectangle's optimum is
    nonincreasing in its budget l and the answer is the full grid at
    l = min(k, cells); ties prefer an uncut rectangle, then vertical over
    horizontal cuts, then the earlier cut and the smaller left budget.
    """
    if k < 1:
        raise InvalidK(f"committee size bound must be at least 1, got {k}")
    return _solve_laminar(profile, grid, k, "grid-laminar")


def solve_grid_bicriterial(profile: PreferenceProfile, grid: Grid, k: int) -> SolveResult:
    """Laminar solve with budget k^2: cost at most the best unrestricted k-tiling.

    Any k-tiling refines into a laminar tiling with at most k^2 rectangles by
    cutting along all of its grid lines, and refining never raises the cost,
    so the k^2 laminar optimum lower-bounds the k-tiling optimum while using
    a committee of at most k^2 (capped at the cell count).
    """
    if k < 1:
        raise InvalidK(f"committee size bound must be at least 1, got {k}")
    result, _ = _solve_laminar(profile, grid, k * k, "grid-bicriterial")
    return result


def refine_to_laminar(tiling: Tiling) -> Tiling:
    """Cut along every grid line of the tiling: the product refinement.

    The result is laminar (it is a full product grid), refines the input
    (each input rectangle is a union of output rectangles), and has at most
    k^2 rectangles when the input has k.  Representatives, if present, are
    inherited from the containing input rectangle.
    """
    xs = sorted({r.i0 for r in tiling.rects} | {r.i1 + 1 for r in tiling.rects})
    ys = sorted({r.j0 for r in tiling.rects} | {r.j1 + 1 for r in tiling.rects})
    owner = {}
    for t, r in enumerate(tiling.rects):
        for cell in r.cells():
            owner[cell] = t
    rects = []
    reps = [] if tiling.reps is not None else None
    for i0, i1 in zip(xs, xs[1:]):
        for j0, j1 in zip(ys, ys[1:]):
            rects.append(Rect(i0, i1 - 1, j0, j1 - 1))
            if reps is not None:
                reps.append(tiling.reps[owner[(i0, j0)]])
    return Tiling(tuple(rects), tuple(reps) if reps is not None else None)


def is_laminar(tiling: Tiling) -> bool:
    """Whether the tiling arises from recursive full cuts (guillotine test).

    Any full cut of a guillotine partition leaves two guillotine halves, so
    committing to the first cut found is safe and each cut strictly shrinks
    the piece under inspection.
    """

    def split(rects) -> bool:
        if len(rects) == 1:
            return True
        for x in sorted({r.i0 for r in rects})[1:]:
            if all(r.i1 < x or r.i0 >= x for r in rects):
                above = [r for r in rects if r.i1 < x]
                return split(above) and split([r for r in rects if r.i0 >= x])
        for y in sorted({r.j0 for r in rects})[1:]:
            if all(r.j1 < y or r.j0 >= y for r in rects):
                left = [r for r in rects if r.j1 < y]
                return split(left) and split([r for r in rects if r.j0 >= y])
        return False

    return split(list(tiling.rects))


def enumerate_tilings(
    grid: Grid, k: int, budget: Optional[int] = DEFAULT_TILING_BUDGET
) -> Iterator[Tiling]:
    """Every partition of the grid into at most k rectangles, each exactly once.

    Recursion on the topmost-leftmost uncovered cell: every rectangle having
    it as top-left corner is tried in turn, so each partition is produced
    once, in a deterministic order.  Raises BudgetExceeded beyond `budget`
    tilings.
    """
    if k < 1:
        raise InvalidK(f"committee size bound must be at least 1, got {k}")
    n1, n2 = grid.n1, grid.n2
    cover = [[False] * n2 for _ in range(n1)]
    placed: list[Rect] = []
    produced = 0

    def first_uncovered():
        for i in range(n1):
            row = cover[i]
            for j in range(n2):
                if not row[j]:
                    return i, j
        return None

    def walk(remaining: int) -> Iterator[Tiling]:
        nonlocal produced
        start = first_uncovered()
        if start is None:
            produced += 1
            if budget is not None and produced > budget:
                raise BudgetExceeded(f"more than {budget} tilings")
            yield Tiling(tuple(placed))
            return
        if remaining == 0:
            return
        r, c = start
        width = n2 - c
        for r2 in range(r, n1):
            run = 0
            row = cover[r2]
            while run < width and not row[c + run]:
                run += 1
            width = run
            if width == 0:
                break
            for c2 in range(c, c + width):
                rect = Rect(r, r2, c, c2)
                for i, j in rect.cells():
                    cover[i][j] = True
                placed.append(rect)
                yield from walk(remaining - 1)
                placed.pop()
                for i, j in rect.cells():
                    cover[i][j] = False

    return walk(k)


def check_laminar_conjecture(
    profile: PreferenceProfile,
    grid: Grid,
    k: int,
    budget: Optional[int] = DEFAULT_TILING_BUDGET,
    tilings: Optional[Sequence[Tiling]] = None,
) -> Optional[Tiling]:
    """Probe whether some optimal k-tiling is laminar on this instance.

    Compares the laminar DP against exhaustive enumeration; returns None when
    the laminar optimum matches the unrestricted optimum and otherwise the
    strictly cheaper non-laminar tiling (with its representatives filled in).
    `tilings` may supply a pre-enumerated list to share across instances on
    the same grid.
    """
    laminar_cost = solve_grid_laminar(profile, grid, k)[0].total_cost
    prefix = build_grid_prefix(profile, grid)
    minima = {}  # (h, w) -> nested lists of scaled costs and candidates
    best_cost = None
    best: Optional[Tiling] = None
    if tilings is None:
        tilings = enumerate_tilings(grid, k, budget=budget)
    for tiling in tilings:
        total = 0
        reps = []
        for r in tiling.rects:
            shape = (r.i1 - r.i0 + 1, r.j1 - r.j0 + 1)
            if shape not in minima:
                minima[shape] = tuple(a.tolist() for a in _shape_minima(prefix, *shape))
            costs, cands = minima[shape]
            total += costs[r.i0][r.j0]
            reps.append(cands[r.i0][r.j0])
        if best_cost is None or total < best_cost:
            best_cost = total
            best = Tiling(tiling.rects, tuple(reps))
    assert best_cost is not None
    best_cost = to_rho_units(best_cost, prefix.scale)
    assert best_cost <= laminar_cost
    return best if best_cost < laminar_cost else None
