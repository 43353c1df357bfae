"""Tests for the grid tiling solvers."""

import random

import pytest

from ccwinner.core import Grid, Line, PreferenceProfile, canonicalize
from ccwinner.errors import BudgetExceeded, IncompleteTilings, InvalidK, InvalidTiling
from ccwinner.generators import gen_sc_grid, gen_sc_line
from ccwinner.grid_solver import (
    Rect,
    Tiling,
    build_grid_prefix,
    check_laminar_conjecture,
    enumerate_tilings,
    is_laminar,
    rect_cost,
    refine_to_laminar,
    solve_grid_bicriterial,
    solve_grid_laminar,
)
from ccwinner.line_solver import solve_line_dp
from ccwinner.oracle import brute_force, brute_force_tiling

PINWHEEL = (
    Rect(0, 0, 0, 1),
    Rect(0, 1, 2, 2),
    Rect(1, 2, 0, 0),
    Rect(1, 1, 1, 1),
    Rect(2, 2, 1, 2),
)


def random_profile(rng, n, m):
    rankings = []
    for _ in range(n):
        r = list(range(m))
        rng.shuffle(r)
        rankings.append(tuple(r))
    return PreferenceProfile.from_rankings(tuple(rankings))


# ---------------------------------------------------------------------------
# types


def test_rect_rejects_degenerate():
    with pytest.raises(InvalidTiling):
        Rect(1, 0, 0, 0)
    with pytest.raises(InvalidTiling):
        Rect(0, 0, -1, 0)


def test_tiling_requires_exact_partition():
    with pytest.raises(InvalidTiling):
        Tiling((Rect(0, 0, 0, 0), Rect(0, 1, 0, 1)))  # overlap
    with pytest.raises(InvalidTiling):
        Tiling((Rect(0, 0, 0, 0), Rect(1, 1, 1, 1)))  # gaps at the off-corners
    with pytest.raises(InvalidTiling):
        Tiling((Rect(0, 1, 0, 1),), reps=(1, 2))


def test_tiling_sorts_rects_with_reps():
    tiling = Tiling((Rect(1, 1, 0, 1), Rect(0, 0, 0, 1)), reps=(7, 3))
    assert tiling.rects == (Rect(0, 0, 0, 1), Rect(1, 1, 0, 1))
    assert tiling.reps == (3, 7)
    assert (tiling.n1, tiling.n2) == (2, 2)


def test_pinwheel_is_a_valid_tiling():
    tiling = Tiling(PINWHEEL)
    assert len(tiling.rects) == 5 and (tiling.n1, tiling.n2) == (3, 3)


# ---------------------------------------------------------------------------
# rectangle costs


def test_singleton_rect_is_free_under_borda():
    profile, grid = gen_sc_grid(3, 2, 3, 4)
    prefix = build_grid_prefix(profile, grid)
    for i in range(2):
        for j in range(3):
            got, cand = rect_cost(prefix, Rect(i, i, j, j))
            assert got == 0
            assert cand == profile.rankings[grid.index(i, j)][0]


def test_identical_voters_make_the_full_grid_free():
    ranking = (2, 0, 1)
    profile = PreferenceProfile.from_rankings((ranking,) * 6)
    prefix = build_grid_prefix(profile, Grid(2, 3))
    assert rect_cost(prefix, Rect(0, 1, 0, 2)) == (0, 2)


def test_rect_cost_matches_direct_summation():
    rng = random.Random(11)
    profile = random_profile(rng, 35, 6)
    grid = Grid(5, 7)
    prefix = build_grid_prefix(profile, grid)
    for _ in range(1000):
        i0 = rng.randrange(5)
        i1 = rng.randrange(i0, 5)
        j0 = rng.randrange(7)
        j1 = rng.randrange(j0, 7)
        sums = [
            sum(
                profile.rho[grid.index(i, j)][c]
                for i in range(i0, i1 + 1)
                for j in range(j0, j1 + 1)
            )
            for c in range(6)
        ]
        best = min(sums)
        assert rect_cost(prefix, Rect(i0, i1, j0, j1)) == (best, sums.index(best))


@pytest.mark.parametrize("rect", [Rect(0, 0, 2, 7), Rect(4, 5, 0, 0), Rect(0, 5, 0, 7)])
def test_rect_cost_rejects_rectangles_outside_the_grid(rect):
    """Flat indices would wrap a too-wide rectangle into the next row without this check."""
    profile = random_profile(random.Random(13), 35, 6)
    with pytest.raises(InvalidTiling, match="outside the 5x7 grid"):
        rect_cost(build_grid_prefix(profile, Grid(5, 7)), rect)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_1x2():
    got = list(enumerate_tilings(Grid(1, 2), 2))
    assert len(got) == 2
    assert {t.rects for t in got} == {
        (Rect(0, 0, 0, 1),),
        (Rect(0, 0, 0, 0), Rect(0, 0, 1, 1)),
    }


def test_enumerate_2x2_counts():
    got = list(enumerate_tilings(Grid(2, 2), 4))
    assert len(got) == 8
    assert len({t.rects for t in got}) == 8  # each partition exactly once

    # independent count: set partitions of the 4 cells whose blocks are rects
    def is_rect(cells):
        rows = [i for i, _ in cells]
        cols = [j for _, j in cells]
        return (max(rows) - min(rows) + 1) * (max(cols) - min(cols) + 1) == len(cells)

    cells = [(i, j) for i in range(2) for j in range(2)]
    count = 0
    for mask in range(4**4):
        labels = [(mask >> (2 * t)) & 3 for t in range(4)]
        if any(lab > max(labels[:t], default=-1) + 1 for t, lab in enumerate(labels)):
            continue  # restricted growth strings only: each partition counted once
        blocks = [
            [cells[t] for t in range(4) if labels[t] == b] for b in range(max(labels) + 1)
        ]
        if all(is_rect(b) for b in blocks):
            count += 1
    assert count == 8


def test_enumerate_k1_is_the_full_grid():
    got = list(enumerate_tilings(Grid(3, 4), 1))
    assert got == [Tiling((Rect(0, 2, 0, 3),))]


def test_enumerated_tilings_pass_the_public_checks():
    """Enumeration skips validation; the checking constructors accept every tiling it yields as is."""
    for n1 in range(1, 5):
        for n2 in range(1, 6):
            for tiling in enumerate_tilings(Grid(n1, n2), 5):
                assert Tiling(tiling.rects) == tiling
                assert (tiling.n1, tiling.n2) == (n1, n2)
                assert all(Rect(r.i0, r.i1, r.j0, r.j1) == r for r in tiling.rects)


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_tilings(Grid(2, 2), 4, budget=3))
    with pytest.raises(InvalidK):
        enumerate_tilings(Grid(2, 2), 0)


# ---------------------------------------------------------------------------
# laminarity


def test_obvious_laminar_tilings():
    assert is_laminar(Tiling((Rect(0, 2, 0, 2),)))
    assert is_laminar(Tiling(tuple(Rect(i, i, 0, 2) for i in range(3))))
    assert is_laminar(Tiling(tuple(Rect(i, i, j, j) for i in range(2) for j in range(2))))


def test_pinwheel_is_not_laminar():
    assert not is_laminar(Tiling(PINWHEEL))


def test_is_laminar_matches_exhaustive_cut_search():
    # reference recognizer tries every cut instead of committing to the first
    def slow(rects):
        if len(rects) == 1:
            return True
        for x in sorted({r.i0 for r in rects})[1:]:
            if all(r.i1 < x or r.i0 >= x for r in rects):
                if slow([r for r in rects if r.i1 < x]) and slow(
                    [r for r in rects if r.i0 >= x]
                ):
                    return True
        for y in sorted({r.j0 for r in rects})[1:]:
            if all(r.j1 < y or r.j0 >= y for r in rects):
                if slow([r for r in rects if r.j1 < y]) and slow(
                    [r for r in rects if r.j0 >= y]
                ):
                    return True
        return False

    seen = [0, 0]
    for tiling in enumerate_tilings(Grid(3, 3), 9):
        got = is_laminar(tiling)
        assert got == slow(list(tiling.rects)), tiling.rects
        seen[got] += 1
    assert seen[0] and seen[1]  # both outcomes exercised


def test_refine_single_rect_is_identity():
    tiling = Tiling((Rect(0, 3, 0, 2),), reps=(5,))
    assert refine_to_laminar(tiling) == tiling


def test_refine_pinwheel():
    refined = refine_to_laminar(Tiling(PINWHEEL, reps=(0, 1, 2, 3, 4)))
    assert len(refined.rects) == 9  # the full 3x3 product, well under 5^2
    assert refined.rects == tuple(Rect(i, i, j, j) for i in range(3) for j in range(3))
    assert is_laminar(refined)
    # each refined cell inherits the representative of its covering rect
    owner = {}
    for rect, rep in zip(PINWHEEL, (0, 1, 2, 3, 4)):
        for cell in rect.cells():
            owner[cell] = rep
    assert refined.reps == tuple(owner[(i, j)] for i in range(3) for j in range(3))


def test_refinement_never_costs_more():
    rng = random.Random(23)
    profile, grid = gen_sc_grid(60, 3, 4, 5)
    prefix = build_grid_prefix(profile, grid)

    def best_total(tiling):
        return sum(rect_cost(prefix, r)[0] for r in tiling.rects)

    tilings = list(enumerate_tilings(grid, 6))
    for tiling in rng.sample(tilings, min(200, len(tilings))):
        refined = refine_to_laminar(tiling)
        assert is_laminar(refined)
        assert len(refined.rects) <= len(tiling.rects) ** 2
        assert best_total(refined) <= best_total(tiling)


# ---------------------------------------------------------------------------
# the laminar DP


def test_single_row_grid_agrees_with_the_line_solver():
    rng = random.Random(31)
    for trial in range(120):
        n, m = rng.randint(1, 9), rng.randint(1, 5)
        k = rng.randint(1, 4)
        profile, _ = gen_sc_line(14000 + trial, n, m)
        result, tiling = solve_grid_laminar(profile, Grid(1, n), k)
        on_line = solve_line_dp(profile, Line(tuple(range(n))), k)
        assert result.total_cost == on_line.total_cost, (n, m, k, trial)
        assert len(tiling.rects) <= min(k, n)


def test_k1_takes_the_best_constant():
    profile, grid = gen_sc_grid(7, 3, 3, 4)
    result, tiling = solve_grid_laminar(profile, grid, 1)
    totals = [sum(profile.rho[v][c] for v in range(9)) for c in range(4)]
    assert result.total_cost == min(totals)
    assert tiling.rects == (Rect(0, 2, 0, 2),)
    assert tiling.reps == (totals.index(min(totals)),)


def test_matches_exhaustive_tilings_on_small_grids():
    rng = random.Random(43)
    for trial in range(60):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 4)
        k = rng.randint(1, 4)
        profile, grid = gen_sc_grid(16000 + trial, n1, n2, rng.randint(1, 5))
        got = solve_grid_laminar(profile, grid, k)[0].total_cost
        want = brute_force_tiling(profile, grid, k).total_cost
        assert got == want, (n1, n2, k, trial)


def test_assignment_reads_back_the_tiling():
    profile, grid = gen_sc_grid(9, 3, 3, 5)
    result, tiling = solve_grid_laminar(profile, grid, 3)
    for rect, rep in zip(tiling.rects, tiling.reps):
        for i, j in rect.cells():
            assert result.assignment.rep[grid.index(i, j)] == rep
    assert sum(r.area for r in tiling.rects) == 9


def test_cost_nonincreasing_in_k_and_free_at_cell_count():
    profile, grid = gen_sc_grid(77, 3, 4, 6)
    costs = [solve_grid_laminar(profile, grid, k)[0].total_cost for k in range(1, 14)]
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    floor = sum(min(row) for row in profile.rho)
    assert costs[-1] == floor  # k >= n1*n2: all singletons available
    assert costs[11] == floor  # the cap at the cell count kicks in at k = 12


def test_dp_rejects_bad_k():
    profile, grid = gen_sc_grid(1, 2, 2, 3)
    with pytest.raises(InvalidK):
        solve_grid_laminar(profile, grid, 0)
    with pytest.raises(InvalidK):
        solve_grid_bicriterial(profile, grid, 0)


# ---------------------------------------------------------------------------
# bicriterial budget


def test_bicriterial_k1_equals_laminar_k1():
    profile, grid = gen_sc_grid(5, 3, 3, 4)
    a = solve_grid_bicriterial(profile, grid, 1)
    b, _ = solve_grid_laminar(profile, grid, 1)
    assert a.total_cost == b.total_cost and a.assignment == b.assignment


def test_bicriterial_sandwich():
    # laminar(k^2) <= best unrestricted k-tiling <= laminar(k)
    rng = random.Random(59)
    for trial in range(40):
        n1, n2 = rng.randint(2, 3), rng.randint(2, 3)
        k = rng.randint(1, 3)
        profile, grid = gen_sc_grid(18000 + trial, n1, n2, rng.randint(2, 5))
        lo = solve_grid_bicriterial(profile, grid, k).total_cost
        mid = brute_force_tiling(profile, grid, k).total_cost
        hi = solve_grid_laminar(profile, grid, k)[0].total_cost
        assert lo <= mid <= hi, (n1, n2, k, trial)
        assert len(
            solve_grid_bicriterial(profile, grid, k).assignment.committee
        ) <= min(k * k, n1 * n2)


# ---------------------------------------------------------------------------
# pinned tilings of larger grids

# (rects as "i0,i1,j0,j1|...", reps, total_cost) of each instance at budgets 6
# (solve_grid_laminar, k = 6) and 16 (solve_grid_bicriterial, k = 4), recorded
# from the one-shape-at-a-time DP.  The gen_sc_grid instances have at most 7
# distinct top choices, so their costs are mostly 0 and they pin tie-breaks;
# the random-ranking grid pins a positive optimum.
LARGE_TILINGS = {
    ("sc", 10, 12, 24, 9, 6): (
        "0,0,0,11|1,2,0,11|3,5,0,11|6,6,0,11|7,8,0,11|9,9,0,11", "0,1,6,8,12,13", 0
    ),
    ("sc", 10, 12, 24, 9, 16): (
        "0,0,0,0|0,0,1,11|1,2,0,0|1,1,1,11|2,2,1,11|3,5,0,0|3,3,1,11|4,4,1,11|5,5,1,11"
        "|6,6,0,0|6,6,1,11|7,8,0,0|7,7,1,11|8,8,1,11|9,9,0,0|9,9,1,11",
        "0,0,1,1,1,6,6,6,6,8,8,12,12,12,13,13",
        0,
    ),
    ("sc", 12, 12, 24, 35, 6): (
        "0,0,0,11|1,1,0,11|2,2,0,11|3,5,0,11|6,8,0,11|9,11,0,11", "0,1,3,5,8,11", 12
    ),
    ("sc", 12, 12, 24, 35, 16): (
        "0,0,0,0|0,0,1,11|1,1,0,0|1,1,1,11|2,2,0,0|2,2,1,11|3,5,0,0|3,3,1,11|4,4,1,11"
        "|5,5,1,11|6,8,0,0|6,8,1,11|9,10,0,0|9,10,1,11|11,11,0,0|11,11,1,11",
        "0,0,1,1,3,3,5,5,5,5,8,8,11,11,16,16",
        0,
    ),
    ("random", 12, 12, 8, 41, 6): (
        "0,11,0,0|0,0,1,11|1,11,1,3|1,11,4,4|1,5,5,11|6,11,5,11", "4,2,1,5,7,3", 357
    ),
    ("random", 12, 12, 8, 41, 16): (
        "0,1,0,2|0,0,3,11|1,3,3,3|1,11,4,4|1,11,5,5|1,8,6,6|1,8,7,7|1,2,8,10|1,11,11,11"
        "|2,11,0,0|2,6,1,2|3,5,8,10|4,11,3,3|6,11,8,10|7,11,1,2|9,11,6,7",
        "0,2,1,5,7,2,6,3,4,4,5,4,3,3,1,5",
        245,
    ),
}


@pytest.mark.parametrize("case", sorted(LARGE_TILINGS))
def test_large_grid_tilings_are_pinned(case):
    kind, n1, n2, m, seed, budget = case
    if kind == "sc":
        profile, grid = gen_sc_grid(seed, n1, n2, m)
    else:
        profile, grid = random_profile(random.Random(seed), n1 * n2, m), Grid(n1, n2)
    result, tiling = solve_grid_laminar(profile, grid, budget)
    rects = "|".join(f"{r.i0},{r.i1},{r.j0},{r.j1}" for r in tiling.rects)
    assert (rects, ",".join(map(str, tiling.reps)), result.total_cost) == LARGE_TILINGS[case]
    if budget == 16:
        bicriterial = solve_grid_bicriterial(profile, grid, 4)
        assert bicriterial.assignment == result.assignment
        assert bicriterial.total_cost == result.total_cost


# ---------------------------------------------------------------------------
# the conjecture checker and cross-oracle ties


def test_conjecture_holds_on_small_instances():
    rng = random.Random(61)
    for trial in range(30):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        k = rng.randint(1, 4)
        profile, grid = gen_sc_grid(20000 + trial, n1, n2, rng.randint(1, 5))
        assert check_laminar_conjecture(profile, grid, k) is None, (n1, n2, k, trial)


def test_conjecture_checker_reuses_cached_tilings():
    profile, grid = gen_sc_grid(8, 2, 3, 4)
    cache = list(enumerate_tilings(grid, 3))
    assert check_laminar_conjecture(profile, grid, 3, tilings=cache) is None


def test_conjecture_checker_rejects_an_empty_tiling_list():
    profile, grid = gen_sc_grid(8, 2, 3, 4)
    with pytest.raises(IncompleteTilings, match="no tilings"):
        check_laminar_conjecture(profile, grid, 3, tilings=[])


def test_tiling_oracle_rejects_an_empty_tiling_list():
    """It raised a bare TypeError after scanning nothing."""
    profile, grid = gen_sc_grid(8, 2, 3, 4)
    with pytest.raises(IncompleteTilings, match="no tilings"):
        brute_force_tiling(profile, grid, 3, tilings=[])


def test_conjecture_checker_rejects_tilings_that_miss_the_laminar_optimum():
    profile, grid = gen_sc_grid(0, 2, 3, 4)
    # the whole grid costs 3 as one rectangle, the laminar 3-tiling costs 0
    whole = list(enumerate_tilings(grid, 1))
    with pytest.raises(IncompleteTilings, match="above the laminar DP"):
        check_laminar_conjecture(profile, grid, 3, tilings=whole)


def conjecture_check(profile, grid, k, tilings):
    return check_laminar_conjecture(profile, grid, k, tilings=tilings)


def oracle_check(profile, grid, k, tilings):
    return brute_force_tiling(profile, grid, k, tilings=tilings)


@pytest.mark.parametrize("check", [conjecture_check, oracle_check])
def test_tiling_lists_with_more_than_k_rectangles_are_rejected(check):
    """Unchecked, the conjecture checker returned the 6-rectangle tiling as a counterexample."""
    profile, grid = gen_sc_grid(0, 2, 3, 4)
    tilings = list(enumerate_tilings(grid, 6))
    assert len(tilings) == 34 and len(tilings[0].rects) == 6
    with pytest.raises(InvalidTiling, match=r"tilings\[0\] has 6 rectangles, more than k = 1"):
        check(profile, grid, 1, tilings)
    pairs = list(enumerate_tilings(grid, 2))
    assert len(pairs[0].rects) == 2
    with pytest.raises(InvalidTiling, match=r"tilings\[0\] has 2 rectangles, more than k = 1"):
        check(profile, grid, 1, pairs)


@pytest.mark.parametrize("check", [conjecture_check, oracle_check])
def test_tiling_lists_of_another_grid_are_rejected(check):
    """Unchecked, 3x3 tilings on a 2x3 grid raised a bare IndexError."""
    profile, grid = gen_sc_grid(0, 2, 3, 4)
    tilings = list(enumerate_tilings(Grid(3, 3), 3))
    with pytest.raises(InvalidTiling, match=r"tilings\[0\] covers a 3x3 grid, not the 2x3 grid"):
        check(profile, grid, 3, tilings)
    smaller = [Tiling((Rect(0, 1, 0, 1),))]  # a 2x2 grid: no index error, a wrong answer
    with pytest.raises(InvalidTiling, match=r"tilings\[0\] covers a 2x2 grid"):
        check(profile, grid, 3, smaller)


def test_tiling_oracle_matches_committee_oracle_on_sc_grids():
    rng = random.Random(67)
    for trial in range(60):
        n1, n2 = rng.randint(1, 2), rng.randint(1, 3)
        k = rng.randint(1, 4)
        profile, grid = gen_sc_grid(22000 + trial, n1, n2, rng.randint(1, 4))
        a = brute_force_tiling(profile, grid, k).total_cost
        b = brute_force(profile, k).total_cost
        assert a == b, (n1, n2, k, trial)


def test_canonical_fibers_are_boxes_on_sc_grids():
    rng = random.Random(71)
    for trial in range(40):
        n1, n2 = rng.randint(2, 3), rng.randint(2, 4)
        k = rng.randint(1, 4)
        profile, grid = gen_sc_grid(24000 + trial, n1, n2, rng.randint(2, 5))
        rep = canonicalize(profile, brute_force(profile, k).assignment).rep
        for c in set(rep):
            fiber = [grid.coords(v) for v in range(grid.n) if rep[v] == c]
            rows = [i for i, _ in fiber]
            cols = [j for _, j in fiber]
            box = (max(rows) - min(rows) + 1) * (max(cols) - min(cols) + 1)
            assert box == len(fiber), (trial, c)
