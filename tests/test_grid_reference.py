"""The diagonal-batched laminar grid DP against the scalar DP it replaced.

``reference_laminar`` is the earlier dict-and-loop implementation, kept
as it was except that it builds its own prefix lists: one rectangle at a
time, tables in a tuple-keyed dict, a strict-``<`` scan over (cut, l1).  The array DP must
return the same tiling, representatives, assignment and counters on every
instance, ties included, and stay exact on rational and huge rho.

``reference_enumerate_tilings`` is the earlier tiling enumerator, kept as
it was: an n1 x n2 cover matrix, scanned row-major for the first uncovered
cell, with each rectangle row's run of uncovered cells re-scanned.  The
skyline enumerator must yield the same tilings in the same order and stop
at the same count when the budget runs out.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from ccwinner.core import Assignment, Grid, PreferenceProfile, to_rho_units
from ccwinner.errors import BudgetExceeded
from ccwinner.generators import gen_sc_grid
from ccwinner.grid_solver import (
    Rect,
    Tiling,
    build_grid_prefix,
    enumerate_tilings,
    rect_cost,
    solve_grid_bicriterial,
    solve_grid_laminar,
)
from ccwinner.oracle import brute_force_tiling


def reference_rect_cost(table, scale, rect):
    i0, i1, j0, j1 = rect.i0, rect.i1 + 1, rect.j0, rect.j1 + 1
    best = None
    cand = None
    for c in range(len(table)):
        t = table[c]
        s = t[i1][j1] - t[i0][j1] - t[i1][j0] + t[i0][j0]
        if best is None or s < best:
            best, cand = s, c
    return to_rho_units(best, scale), cand


def reference_laminar(profile, grid, budget):
    """(tiling, assignment, stats) of the scalar laminar DP with ``budget`` rectangles."""
    n1, n2 = grid.n1, grid.n2
    kk = min(budget, n1 * n2)
    cells = np.array(profile.scaled.tolist(), dtype=object).reshape(n1, n2, profile.m)
    table = np.zeros((profile.m, n1 + 1, n2 + 1), dtype=object)
    table[:, 1:, 1:] = cells.transpose(2, 0, 1).cumsum(axis=1).cumsum(axis=2)
    table = table.tolist()

    dyp: dict = {}
    choice: dict = {}
    for size in range(2, n1 + n2 + 1):
        for h in range(1, min(n1, size - 1) + 1):
            w = size - h
            if w > n2:
                continue
            for i0 in range(n1 - h + 1):
                i1 = i0 + h - 1
                for j0 in range(n2 - w + 1):
                    j1 = j0 + w - 1
                    key = (i0, i1, j0, j1)
                    const, cand = reference_rect_cost(table, profile.scale, Rect(i0, i1, j0, j1))
                    vec = []
                    chv = []
                    for l in range(1, kk + 1):
                        best = const
                        ch = ("const", cand)
                        for j in range(j0, j1):
                            left = dyp[(i0, i1, j0, j)]
                            right = dyp[(i0, i1, j + 1, j1)]
                            for l1 in range(1, l):
                                got = left[l1 - 1] + right[l - l1 - 1]
                                if got < best:
                                    best, ch = got, ("vert", j, l1)
                        for i in range(i0, i1):
                            top = dyp[(i0, i, j0, j1)]
                            bottom = dyp[(i + 1, i1, j0, j1)]
                            for l1 in range(1, l):
                                got = top[l1 - 1] + bottom[l - l1 - 1]
                                if got < best:
                                    best, ch = got, ("hor", i, l1)
                        vec.append(best)
                        chv.append(ch)
                    dyp[key] = vec
                    choice[key] = chv

    rects = []
    reps = []
    stack = [((0, n1 - 1, 0, n2 - 1), kk)]
    while stack:
        (i0, i1, j0, j1), l = stack.pop()
        ch = choice[(i0, i1, j0, j1)][l - 1]
        if ch[0] == "const":
            rects.append(Rect(i0, i1, j0, j1))
            reps.append(ch[1])
        elif ch[0] == "vert":
            _, cut, l1 = ch
            stack.append(((i0, i1, j0, cut), l1))
            stack.append(((i0, i1, cut + 1, j1), l - l1))
        else:
            _, cut, l1 = ch
            stack.append(((i0, cut, j0, j1), l1))
            stack.append(((cut + 1, i1, j0, j1), l - l1))
    tiling = Tiling(tuple(rects), tuple(reps))
    rep = [0] * profile.n
    for r, c in zip(tiling.rects, tiling.reps):
        for i, j in r.cells():
            rep[grid.index(i, j)] = c
    stats = {"rects": len(tiling.rects), "budget": kk, "dp_cells": len(dyp) * kk}
    return tiling, Assignment(tuple(rep)), stats


def shuffled(rng, m):
    r = list(range(m))
    rng.shuffle(r)
    return tuple(r)


def tie_heavy_profile(rng, kind, n, m):
    """Profiles whose rectangle costs and cut sums tie a lot."""
    if kind == "zero":
        rankings = tuple(shuffled(rng, m) for _ in range(n))
        return PreferenceProfile(rankings, [[0] * m for _ in range(n)])
    if kind == "identical":
        return PreferenceProfile.from_rankings((shuffled(rng, m),) * n)
    pool = [shuffled(rng, m) for _ in range(2)]  # Borda with repeated rankings
    return PreferenceProfile.from_rankings(tuple(rng.choice(pool) for _ in range(n)))


def random_instance(rng, trial):
    n1, n2, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
    grid = Grid(n1, n2)
    kind = ("sc", "random", "zero", "identical", "repeated")[trial % 5]
    if kind == "sc":
        return gen_sc_grid(30_000 + trial, n1, n2, m)[0], grid
    if kind == "random":
        return PreferenceProfile.from_rankings(
            tuple(shuffled(rng, m) for _ in range(grid.n))
        ), grid
    return tie_heavy_profile(rng, kind, grid.n, m), grid


def assert_matches_reference(profile, grid, budget):
    result, tiling = solve_grid_laminar(profile, grid, budget)
    want_tiling, want_assignment, want_stats = reference_laminar(profile, grid, budget)
    assert tiling == want_tiling
    assert tiling.reps == want_tiling.reps
    assert result.assignment == want_assignment
    for key in ("rects", "budget", "dp_cells"):
        assert result.stats[key] == want_stats[key], key
    return result


def test_array_dp_returns_the_scalar_tilings():
    rng = random.Random(97)
    for trial in range(220):
        profile, grid = random_instance(rng, trial)
        k = rng.randint(2, 4)
        for budget in (k, k * k):
            assert_matches_reference(profile, grid, budget)


def test_array_dp_matches_the_scalar_dp_at_large_budgets():
    rng = random.Random(101)
    for trial in range(5):
        n1, n2 = rng.randint(4, 6), rng.randint(4, 6)
        profile, grid = gen_sc_grid(38_000 + trial, n1, n2, 6)
        assert_matches_reference(profile, grid, grid.n)
        repeated = tie_heavy_profile(rng, "repeated", grid.n, 4)
        assert_matches_reference(repeated, grid, 9)


def test_bicriterial_is_the_laminar_dp_at_k_squared():
    rng = random.Random(103)
    for trial in range(20):
        profile, grid = random_instance(rng, trial)
        k = rng.randint(1, 3)
        got = solve_grid_bicriterial(profile, grid, k)
        want, _ = solve_grid_laminar(profile, grid, k * k)
        assert got.assignment == want.assignment
        assert got.stats == want.stats


# ---------------------------------------------------------------------------
# exact arithmetic


def with_rho(profile, rho_of):
    """Same rankings; rho[v] nondecreasing along voter v's ranking."""
    rows = []
    for v, ranking in enumerate(profile.rankings):
        row = [0] * profile.m
        for p, c in enumerate(ranking):
            row[c] = rho_of(v, p)
        rows.append(row)
    return PreferenceProfile(profile.rankings, rows)


def rational_profile(rng, profile):
    denominators = [rng.choice((3, 7, 11)) for _ in range(profile.n)]
    steps = [sorted(rng.randint(0, 20) for _ in range(profile.m)) for _ in range(profile.n)]
    return with_rho(profile, lambda v, p: Fraction(steps[v][p], denominators[v]))


def is_exact_number(x):
    return type(x) in (int, Fraction)


def test_rational_rho_matches_the_tiling_oracle():
    rng = random.Random(107)
    for trial in range(40):
        n1, n2, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        base, grid = gen_sc_grid(32_000 + trial, n1, n2, rng.randint(2, 5))
        profile = rational_profile(rng, base)
        assert profile.scale > 1
        result, _ = solve_grid_laminar(profile, grid, k)
        want = brute_force_tiling(profile, grid, k).total_cost
        assert result.total_cost == want, trial
        assert is_exact_number(result.total_cost) and is_exact_number(result.egal_cost)
        low = solve_grid_bicriterial(profile, grid, k).total_cost
        assert low <= want and is_exact_number(low)
        assert_matches_reference(profile, grid, k)
        assert_matches_reference(profile, grid, k * k)


def test_rho_past_int64_runs_on_the_object_engine():
    rng = random.Random(109)
    big = 2**70
    for trial in range(12):
        n1, n2, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
        base, grid = gen_sc_grid(34_000 + trial, n1, n2, rng.randint(2, 5))
        profile = with_rho(base, lambda v, p: p * big)
        assert build_grid_prefix(profile, grid).table.dtype == object
        result, tiling = solve_grid_laminar(profile, grid, k)
        small, small_tiling = solve_grid_laminar(base, grid, k)
        assert tiling == small_tiling and tiling.reps == small_tiling.reps
        assert result.total_cost == big * small.total_cost
        assert type(result.total_cost) is int
        if n1 * n2 <= 9:
            assert result.total_cost == brute_force_tiling(profile, grid, k).total_cost
        low = solve_grid_bicriterial(profile, grid, k)
        assert low.total_cost == big * solve_grid_bicriterial(base, grid, k).total_cost
        assert_matches_reference(profile, grid, k * k)


def test_rect_cost_returns_python_numbers():
    rng = random.Random(113)
    base, grid = gen_sc_grid(36_000, 3, 4, 5)
    for profile in (base, rational_profile(rng, base), with_rho(base, lambda v, p: p * 2**70)):
        prefix = build_grid_prefix(profile, grid)
        assert prefix.table.shape == (5, 4, 5)
        assert not prefix.table.flags.writeable
        table = prefix.table.tolist()
        for _ in range(30):
            i0, j0 = rng.randrange(3), rng.randrange(4)
            rect = Rect(i0, rng.randrange(i0, 3), j0, rng.randrange(j0, 4))
            got, cand = rect_cost(prefix, rect)
            assert is_exact_number(got) and type(cand) is int
            assert (got, cand) == reference_rect_cost(table, profile.scale, rect)


# ---------------------------------------------------------------------------
# thin and single-cell grids

# (n1, n2, gen_sc_grid seed, m): seeds whose optimum at budget 3 is positive
THIN_GRIDS = ((1, 9, 40_071, 5), (9, 1, 40_078, 5), (2, 7, 40_011, 7), (7, 2, 40_133, 5),
              (1, 1, 40_000, 5))


def test_thin_and_single_cell_grids_match_the_scalar_dp():
    """Grids whose cuts all run one way, or that have none: the edges of the cut indexing."""
    rng = random.Random(127)
    for n1, n2, seed, m in THIN_GRIDS:
        borda, grid = gen_sc_grid(seed, n1, n2, m)
        profiles = (
            borda,
            tie_heavy_profile(rng, "zero", grid.n, m),
            tie_heavy_profile(rng, "repeated", grid.n, m),
        )
        for profile in profiles:
            for budget in (1, 3, grid.n):
                assert_matches_reference(profile, grid, budget)


def test_thin_grid_past_int64_matches_the_scalar_dp():
    base, grid = gen_sc_grid(40_133, 7, 2, 5)
    profile = with_rho(base, lambda v, p: p * 2**70)
    assert build_grid_prefix(profile, grid).table.dtype == object
    for budget in (1, 3, grid.n):
        result = assert_matches_reference(profile, grid, budget)
        assert type(result.total_cost) is int
        assert result.total_cost > 0 or budget == grid.n


# ---------------------------------------------------------------------------
# tiling enumeration


def reference_enumerate_tilings(grid, k, budget):
    n1, n2 = grid.n1, grid.n2
    cover = [[False] * n2 for _ in range(n1)]
    placed = []
    produced = 0

    def first_uncovered():
        for i in range(n1):
            row = cover[i]
            for j in range(n2):
                if not row[j]:
                    return i, j
        return None

    def walk(remaining):
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


def produced_until_budget(tilings):
    """The rectangles of each tiling yielded, then the budget error's message (or None)."""
    got = []
    try:
        for tiling in tilings:
            got.append(tiling.rects)
    except BudgetExceeded as exc:
        return got, str(exc)
    return got, None


@pytest.mark.parametrize("n1", [1, 2, 3, 4])
def test_skyline_enumeration_yields_the_cover_matrix_sequence(n1):
    """Every grid with n1 <= 4, n2 <= 5 and k <= 6, in order; 27,615 tilings in all."""
    total = 0
    for n2 in range(1, 6):
        for k in range(1, 7):
            grid = Grid(n1, n2)
            got = [t.rects for t in enumerate_tilings(grid, k, budget=None)]
            assert got == [t.rects for t in reference_enumerate_tilings(grid, k, None)], (n2, k)
            total += len(got)
    assert total == {1: 137, 2: 1299, 3: 6571, 4: 19608}[n1]


def test_skyline_enumeration_runs_out_of_budget_at_the_same_tiling():
    for n1, n2, k in ((2, 3, 6), (3, 3, 4), (4, 5, 3), (1, 5, 5)):
        grid = Grid(n1, n2)
        count = sum(1 for _ in enumerate_tilings(grid, k, budget=None))
        for budget in (0, 1, count // 2, count - 1, count):
            got = produced_until_budget(enumerate_tilings(grid, k, budget=budget))
            assert got == produced_until_budget(reference_enumerate_tilings(grid, k, budget))
            assert len(got[0]) == min(budget, count)
            assert (got[1] is None) == (budget >= count)
