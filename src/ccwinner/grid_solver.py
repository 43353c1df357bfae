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
from .errors import BudgetExceeded, IncompleteTilings, InvalidK, InvalidN, InvalidTiling

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

    @classmethod
    def _trusted(cls, i0: int, i1: int, j0: int, j1: int) -> "Rect":
        """A rectangle whose bounds the caller has already checked."""
        rect = cls.__new__(cls)
        rect.__dict__.update(i0=i0, i1=i1, j0=j0, j1=j1)
        return rect

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

    @classmethod
    def _trusted(cls, rects: tuple, n1: int, n2: int) -> "Tiling":
        """A tiling, without representatives, of rectangles already sorted and known to tile n1 x n2."""
        tiling = cls.__new__(cls)
        tiling.__dict__.update(rects=rects, reps=None, n1=n1, n2=n2)
        return tiling


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
        raise InvalidN(f"grid has {grid.n} cells, profile has {profile.n} voters")
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
    if rect.i1 >= prefix2d.n1 or rect.j1 >= prefix2d.n2:
        raise InvalidTiling(f"{rect!r} falls outside the {prefix2d.n1}x{prefix2d.n2} grid")
    shape = [[rect.i0], [rect.j0], [rect.i1 - rect.i0 + 1], [rect.j1 - rect.j0 + 1]]
    cost, cand = _rect_minima(prefix2d, *np.array(shape))
    return to_rho_units(int(cost[0]), prefix2d.scale), int(cand[0])


def _layout(n1: int, n2: int):
    """(row, i0, j0, h, w, ends): one flat row for each sub-rectangle of the grid.

    ``row[h, w, i0, j0]`` numbers the h x w rectangle at top-left cell (i0,
    j0); rows run by anti-diagonal s = h + w, then h, then (i0, j0)
    row-major, so diagonal s is rows ``ends[s-1]:ends[s]`` of i0, j0, h, w.
    """
    h, w, i0, j0 = np.ogrid[: n1 + 1, : n2 + 1, :n1, :n2]
    cells = np.array(np.nonzero((h >= 1) & (w >= 1) & (i0 + h <= n1) & (j0 + w <= n2)))
    h, w, i0, j0 = cells[:, np.argsort(cells[0] + cells[1], kind="stable")]
    row = np.zeros((n1 + 1, n2 + 1, n1, n2), dtype=np.intp)
    row[h, w, i0, j0] = np.arange(len(h))
    return row, i0, j0, h, w, np.searchsorted(h + w, np.arange(n1 + n2 + 1), side="right")


def _rect_minima(prefix: GridPrefix, i0, j0, h, w):
    """Cheapest scaled cost and candidate of each rectangle (flat arrays), ties to smallest."""
    table = prefix.table.reshape(prefix.m, -1)
    top = i0 * (prefix.n2 + 1) + j0
    low = top + h * (prefix.n2 + 1)
    sums = table.take(low + w, 1) - table.take(top + w, 1) - table.take(low, 1) + table.take(top, 1)
    cand = sums.argmin(axis=0)
    return sums[cand, np.arange(len(cand))], cand


def _solve_laminar(profile: PreferenceProfile, grid: Grid, budget: int, algorithm: str):
    """The laminar DP, one anti-diagonal s = h + w of rectangle shapes at a time.

    ``value[l-1, row]`` is the cheapest laminar tiling with at most l
    rectangles of the rectangle that `_layout` numbers ``row``, in scaled units.
    A rectangle on diagonal s has s-2 cuts, a-1 after a columns (vertical)
    then w-2+b after b rows (horizontal), and their halves lie on earlier
    diagonals.  For each l, one argmin per rectangle scans the uncut cost,
    then (cut, l1) cut-major with l1 ascending, l1 the budget of the left or
    top half: as in the scalar scan, a cut wins only when strictly cheaper.
    ``choice[l-1, row]`` keeps the argmin, 0 uncut, else 1 + cut*(l-1) + l1-1.
    Transients hold one diagonal: O(rows x cuts x budget).
    """
    n1, n2 = grid.n1, grid.n2
    kk = min(budget, n1 * n2)
    prefix = build_grid_prefix(profile, grid)
    row, i0, j0, h, w, ends = _layout(n1, n2)
    value = np.empty((kk, len(h)), dtype=prefix.table.dtype)
    choice = np.zeros((kk, len(h)), dtype=np.int32)
    cand = np.empty(len(h), dtype=np.intp)
    for s in range(2, n1 + n2 + 1):
        d = slice(ends[s - 1], ends[s])
        hh, ww, ii, jj = h[d], w[d], i0[d], j0[d]
        const, cand[d] = _rect_minima(prefix, ii, jj, hh, ww)
        value[0, d] = const
        c = np.arange(s - 2)[:, None]
        dx = np.where(c < ww - 1, c + 1, 0)  # columns left of a vertical cut
        dy = np.where(c < ww - 1, 0, c - ww + 2)  # rows above a horizontal cut
        # (kk-1, cuts, rows): the value of each half at budgets 1..kk-1
        first = value[: kk - 1].take(row[np.where(dy, dy, hh), np.where(dx, dx, ww), ii, jj], 1)
        second = value[: kk - 1].take(row[hh - dy, ww - dx, ii + dy, jj + dx], 1)
        cuts, rows = dx.shape
        sums = np.empty((1 + cuts * (kk - 1), rows), dtype=value.dtype)
        sums[0] = const
        at = np.arange(rows)
        for l in range(2, kk + 1):
            live = sums[: 1 + cuts * (l - 1)]
            by_l1 = live[1:].reshape(cuts, l - 1, rows).transpose(1, 0, 2)
            np.add(first[: l - 1], second[l - 2 :: -1], out=by_l1)
            live.argmin(axis=0, out=choice[l - 1, d])
            value[l - 1, d] = live[choice[l - 1, d], at]

    rects, reps, stack = [], [], [(0, 0, n1, n2, kk)]
    while stack:
        i0, j0, h, w, l = stack.pop()
        r = row[h, w, i0, j0]
        best = int(choice[l - 1, r])
        if best == 0:
            rects.append(Rect(i0, i0 + h - 1, j0, j0 + w - 1))
            reps.append(int(cand[r]))
            continue
        c, l1 = divmod(best - 1, l - 1)
        dx, dy = (c + 1, 0) if c < w - 1 else (0, c - w + 2)
        stack.append((i0, j0, dy or h, dx or w, l1 + 1))
        stack.append((i0 + dy, j0 + dx, h - dy, w - dx, l - l1 - 1))
    tiling = Tiling(tuple(rects), tuple(reps))

    rep = np.empty((n1, n2), dtype=np.int64)
    for r, c in zip(tiling.rects, tiling.reps):
        rep[r.i0 : r.i1 + 1, r.j0 : r.j1 + 1] = c
    stats = {"rects": len(tiling.rects), "budget": kk, "dp_cells": value.size}
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
    it as top-left corner is tried in turn, taller ones after all widths of
    a shorter one, so each partition is produced once, in a deterministic
    order.  Placing rectangles there keeps the covered cells a prefix of
    every column, so the search state is a skyline, the covered height of
    each column: the cell is in row min(heights), at the first column of
    that height, and the rectangle's width is bounded by the run of columns
    of that same height.  Raises BudgetExceeded beyond `budget` tilings.
    The walk places rectangles in `_rect_key` order and yields only exact
    partitions, so tilings and rectangles skip the constructors' checks.
    """
    if k < 1:
        raise InvalidK(f"committee size bound must be at least 1, got {k}")
    n1, n2 = grid.n1, grid.n2
    heights = [0] * n2
    placed: list[Rect] = []
    produced = 0

    def walk(remaining: int) -> Iterator[Tiling]:
        nonlocal produced
        r = min(heights)
        if r == n1:
            produced += 1
            if budget is not None and produced > budget:
                raise BudgetExceeded(f"more than {budget} tilings")
            yield Tiling._trusted(tuple(placed), n1, n2)
            return
        if remaining == 0:
            return
        c = end = heights.index(r)
        while end < n2 and heights[end] == r:
            end += 1
        for r2 in range(r + 1, n1 + 1):
            for c2 in range(c, end):  # columns c..c2-1 already stand at r2
                heights[c2] = r2
                placed.append(Rect._trusted(r, r2 - 1, c, c2))
                yield from walk(remaining - 1)
                placed.pop()
            heights[c:end] = [r] * (end - c)

    return walk(k)


def _check_listed_tiling(at: int, tiling: Tiling, grid: Grid, k: int) -> None:
    """Raise InvalidTiling unless ``tiling``, entry ``at`` of a list, tiles this grid with <= k parts."""
    if (tiling.n1, tiling.n2) != (grid.n1, grid.n2):
        raise InvalidTiling(
            f"tilings[{at}] covers a {tiling.n1}x{tiling.n2} grid, not the {grid.n1}x{grid.n2} grid"
        )
    if len(tiling.rects) > k:
        raise InvalidTiling(f"tilings[{at}] has {len(tiling.rects)} rectangles, more than k = {k}")


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
    the same grid; an empty list, or one whose best tiling costs more than
    the laminar optimum, raises `IncompleteTilings`, and a listed tiling of
    another grid or with more than k rectangles raises `InvalidTiling`.
    """
    laminar_cost = solve_grid_laminar(profile, grid, k)[0].total_cost
    prefix = build_grid_prefix(profile, grid)
    row, *rects, _ = _layout(grid.n1, grid.n2)
    row, costs, cands = (a.tolist() for a in (row, *_rect_minima(prefix, *rects)))
    best_cost = None
    best: Optional[Tiling] = None
    if tilings is None:
        tilings = enumerate_tilings(grid, k, budget=budget)
    for at, tiling in enumerate(tilings):
        _check_listed_tiling(at, tiling, grid, k)
        total = 0
        reps = []
        for r in tiling.rects:
            at = row[r.i1 - r.i0 + 1][r.j1 - r.j0 + 1][r.i0][r.j0]
            total += costs[at]
            reps.append(cands[at])
        if best_cost is None or total < best_cost:
            best_cost = total
            best = Tiling(tiling.rects, tuple(reps))
    if best_cost is None:
        raise IncompleteTilings("no tilings to compare with the laminar DP")
    best_cost = to_rho_units(best_cost, prefix.scale)
    if best_cost > laminar_cost:
        raise IncompleteTilings(
            f"the best of the tilings costs {best_cost}, above the laminar DP's {laminar_cost}"
        )
    return best if best_cost < laminar_cost else None
