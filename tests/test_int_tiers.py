"""Every DP route in its narrowest integer tier against wider integer rules.

``core.int_dtype`` picks int16, int32 or int64 by the bound each engine
computes, else object arrays. ``int64_rule`` is the rule it replaced: int64
up to 2^63 - 1, else object. Patched into ``core`` and every ccwinner module
that imported ``int_dtype``, it reruns a route on the same input, and every
result field but ``engine`` must be equal: assignment, committee, both costs,
``k_used`` and every stat. The tier-1 tests run a few seeds per structure;
``differential_solves(structure, seeds)`` runs any number of them.

The edge section builds, for each engine, instances whose bound lands one
step at or below and one step above 2^15 - 1 and 2^31 - 1. It checks the
tier chosen for that bound (and the ``engine`` a route reports for it) and
the result against the object engine, every bound mapped to object arrays.
numpy integer arrays wrap without a warning, so only such a comparison sees
a bound that is too small.
"""

import dataclasses
import random
import sys
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from ccwinner import cli, core, grid_solver, line_solver, tree_solver
from ccwinner.core import Grid, Objective, PreferenceProfile, RootedTree
from ccwinner.generators import gen_sc_grid, gen_sc_line, gen_sc_tree

INT64_MAX = (1 << 63) - 1
TIERS = ("int16", "int32", "int64", "object")
EDGES = ((1 << 15) - 1, (1 << 31) - 1)
BELOW = {EDGES[0]: np.int16, EDGES[1]: np.int32}  # the tier a bound at or below the edge takes
ABOVE = {EDGES[0]: np.int32, EDGES[1]: np.int64}
SIDES = ("below", "above")
DRAWS = ("zero", "step", "borda", "rational", "scaled")
SCALES = (300, 70_000, 1 << 33, 1 << 61)  # Borda times these reaches int32, int64 and object


def int64_rule(bound):
    return np.int64 if bound <= INT64_MAX else object


def object_rule(bound):
    return object


@contextmanager
def tier_rule(rule):
    """``rule`` in place of ``int_dtype`` in core and in every ccwinner module that imported it."""
    original = core.int_dtype
    modules = [
        module
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "ccwinner" and vars(module).get("int_dtype") is original
    ]
    with pytest.MonkeyPatch.context() as patch:
        for module in modules:
            patch.setattr(module, "int_dtype", rule)
        yield modules


def test_the_rule_reaches_every_module_that_uses_it():
    with tier_rule(int64_rule) as modules:
        assert {core, line_solver, tree_solver, grid_solver} <= set(modules)
    assert core.int_dtype(1) is np.int16 and line_solver.int_dtype is core.int_dtype


def test_int_dtype_picks_the_narrowest_tier():
    for bound, dtype in (
        (0, np.int16), ((1 << 15) - 1, np.int16), (1 << 15, np.int32),
        ((1 << 31) - 1, np.int32), (1 << 31, np.int64), (INT64_MAX, np.int64),
        (INT64_MAX + 1, object),
    ):
        assert core.int_dtype(bound) is dtype, bound


def split(answer):
    """(result, the rest): grid-laminar also returns its tiling."""
    return answer if isinstance(answer, tuple) else (answer, None)


def without_engine(result):
    return dataclasses.replace(result, stats={k: v for k, v in result.stats.items() if k != "engine"})


def assert_same_but_engine(got, want, where):
    (got, got_tiling), (want, want_tiling) = split(got), split(want)
    assert without_engine(got) == without_engine(want), where
    if got_tiling is not None:
        assert got_tiling == want_tiling and got_tiling.reps == want_tiling.reps, where
    assert ("engine" in got.stats) == ("engine" in want.stats), where


def assert_same_as_int64_rule(solve, where):
    """As shipped and on the int64 rule: the same answer, in a tier no wider."""
    got = solve()
    with tier_rule(int64_rule):
        want = solve()
    assert_same_but_engine(got, want, where)
    got, want = split(got)[0], split(want)[0]
    if "engine" in got.stats:
        assert want.stats["engine"] in ("int64", "object"), where
        assert TIERS.index(got.stats["engine"]) <= TIERS.index(want.stats["engine"]), where


# ---------------------------------------------------------------------------
# seeded tie-heavy instances


def with_draw(profile, rng, draw):
    """The rankings with rho drawn as ``draw``, nondecreasing down each voter's ranking."""
    m, scale = profile.m, rng.choice(SCALES)
    rows = []
    for ranking in profile.rankings:
        if draw == "zero":
            values = [0] * m
        elif draw == "step":
            values = sorted(rng.choice((0, 0, 1, 3)) for _ in range(m))
        elif draw == "borda":
            values = list(range(m))
        elif draw == "rational":
            values = sorted(Fraction(rng.randint(0, 20), rng.choice((3, 7, 11))) for _ in range(m))
        else:
            values = [p * scale for p in range(m)]
        row = [0] * m
        for p, c in enumerate(ranking):
            row[c] = values[p]
        rows.append(row)
    return PreferenceProfile(profile.rankings, rows)


def line_case(seed):
    """A single-crossing line with few swaps, so many voters repeat a ranking.

    Every fourth line has more than 64 voters, where the checkpointed sweep
    runs segments shorter than the line.
    """
    rng = random.Random(seed)
    n = rng.randint(1, 40) if seed % 4 else rng.randint(65, 150)
    m, k = rng.randint(1, 7), rng.randint(1, 9)
    profile, line = gen_sc_line(
        seed, n, m, max_swaps=rng.randint(0, m * (m - 1) // 2), shuffle_voters=seed % 2 == 1
    )
    return with_draw(profile, rng, DRAWS[seed % len(DRAWS)]), line, k


def checkpointed(solve):
    def run():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(line_solver, "_BIT_BUDGET", 0)
            return solve()

    return run


def line_solves(seed):
    profile, line, k = line_case(seed)
    for objective in Objective:
        unmerged = lambda o=objective: line_solver.solve_line_dp(profile, line, k, o)  # noqa: E731
        merged = lambda o=objective: cli._dispatch(profile, line, "line-dp", o, k)  # noqa: E731
        for what, solve in (("unmerged", unmerged), ("merged", merged)):
            yield ("line-dp", objective.value, what, "one sweep"), solve
            yield ("line-dp", objective.value, what, "checkpointed"), checkpointed(solve)
    yield ("line-klink", "unmerged"), lambda: line_solver.solve_line_klink(profile, line, k)
    yield ("line-klink", "merged"), lambda: cli._dispatch(
        profile, line, "line-klink", Objective.UTILITARIAN, k
    )
    yield ("threshold", "unmerged"), lambda: line_solver.solve_line_egal_threshold(profile, line, k)
    yield ("threshold", "merged"), lambda: cli._dispatch(
        profile, line, "line-klink", Objective.EGALITARIAN, k
    )


def shaped_tree(rng, shape, n):
    if shape == "path":
        parent = (None,) + tuple(range(n - 1))
    elif shape == "star":
        parent = (None,) + (0,) * (n - 1)
    elif shape == "hub":  # root children with 1-6 leaves each
        parent = [None]
        while len(parent) < n:
            parent.append(0)
            hub = len(parent) - 1
            parent.extend([hub] * min(rng.randint(1, 6), n - len(parent)))
        parent = tuple(parent)
    else:  # caterpillar: a spine of about n / 3 vertices, the rest leaves on it
        spine = max(1, n // 3)
        parent = (None,) + tuple(range(spine - 1)) + tuple(rng.randrange(spine) for _ in range(n - spine))
    return RootedTree.from_parent(parent, 0)


TREE_SHAPES = ("path", "star", "hub", "caterpillar", "gen_sc_tree")


def tree_solves(seed):
    rng = random.Random(seed)
    n, m = rng.randint(2, 40), rng.randint(1, 7)
    shape = TREE_SHAPES[seed % len(TREE_SHAPES)]
    if shape == "gen_sc_tree":
        profile, tree = gen_sc_tree(seed, n, m, max_edge_swaps=rng.randint(0, 2))
    else:
        pool = [tuple(rng.sample(range(m), m)) for _ in range(3)]
        profile = PreferenceProfile.from_rankings(tuple(rng.choice(pool) for _ in range(n)))
        tree = shaped_tree(rng, shape, n)
    profile = with_draw(profile, rng, DRAWS[seed // len(TREE_SHAPES) % len(DRAWS)])
    k = rng.randint(1, n)  # k = n takes the tops shortcut, which runs no DP
    for objective in Objective:
        yield ("tree-dp", shape, objective.value), lambda o=objective: tree_solver.solve_tree_dp(
            profile, tree, k, o
        )


def grid_solves(seed):
    rng = random.Random(seed)
    n1, n2, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 6)
    grid = Grid(n1, n2)
    if seed % 2:
        profile = gen_sc_grid(seed, n1, n2, m)[0]
    else:
        pool = [tuple(rng.sample(range(m), m)) for _ in range(2)]
        profile = PreferenceProfile.from_rankings(tuple(rng.choice(pool) for _ in range(grid.n)))
    profile = with_draw(profile, rng, DRAWS[seed // 2 % len(DRAWS)])
    k = rng.randint(1, 4)
    yield ("grid-laminar",), lambda: grid_solver.solve_grid_laminar(profile, grid, k)
    yield ("grid-bicriterial",), lambda: grid_solver.solve_grid_bicriterial(profile, grid, k)


SOLVES = {"line": line_solves, "tree": tree_solves, "grid": grid_solves}


def differential_solves(structure, seeds) -> int:
    """Every route of ``structure`` on each seed's instance, as shipped and on the
    int64 rule; returns the number of solves compared."""
    count = 0
    for seed in seeds:
        for what, solve in SOLVES[structure](seed):
            assert_same_as_int64_rule(solve, (structure, seed, *what))
            count += 1
    return count


@pytest.mark.parametrize("structure, seeds", [("line", 60), ("tree", 300), ("grid", 150)])
def test_tiers_answer_as_the_int64_rule(structure, seeds):
    assert differential_solves(structure, range(seeds)) >= 2 * seeds


# ---------------------------------------------------------------------------
# bounds at 2^15 - 1 and 2^31 - 1


def tops_at(edge, bound_of):
    """The largest top whose bound is at most ``edge``, and the next: one step below and above."""
    lo, hi = 0, edge + 1  # every bound here grows at least by one per unit of top
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if bound_of(mid) <= edge else (lo, mid - 1)
    return {"below": lo, "above": lo + 1}


def record_tiers(solve):
    """``solve()`` as shipped, plus every bound int_dtype was asked for and the tier it returned."""
    original, seen = core.int_dtype, {}

    def recording(bound):
        seen[bound] = original(bound)
        return seen[bound]

    with tier_rule(recording):
        return solve(), seen


def assert_tier_at_edge(solve, bound, edge, side):
    """``bound`` lands on ``side`` of ``edge``: the solve holds it in the tier for that
    side and answers as the object engine does. Returns the shipped answer."""
    assert bound <= edge if side == "below" else bound > edge
    got, seen = record_tiers(solve)
    assert seen.get(bound) is tier(edge, side), (bound, seen)
    with tier_rule(object_rule):
        want = solve()
    assert_same_but_engine(got, want, (edge, side))
    if "engine" in split(want)[0].stats:
        assert split(want)[0].stats["engine"] == "object"
    return got


def tier(edge, side):
    return (BELOW if side == "below" else ABOVE)[edge]


def tier_name(edge, side):
    return np.dtype(tier(edge, side)).name


def line_with_top(n, m, top, seed=1, swaps=2):
    """A single-crossing line whose every voter pays ``top`` at their last choice,
    so the largest entry is ``top`` and column sums come near n * top."""
    profile, line = gen_sc_line(seed, n, m, max_swaps=swaps)
    rng = random.Random(seed)
    rows = []
    for ranking in profile.rankings:
        values = sorted(rng.choice((0, 1, top - 1, top)) for _ in range(m - 1)) + [top]
        row = [0] * m
        for p, c in enumerate(ranking):
            row[c] = values[p]
        rows.append(row)
    return PreferenceProfile(profile.rankings, rows), line


@pytest.mark.parametrize("edge", EDGES)
@pytest.mark.parametrize("side", SIDES)
def test_line_voter_loop_at_the_tier_edges(edge, side):
    """The voter loop holds inf + top, inf = n * top + 1: egalitarian DPs and k > m."""
    n, m = 9, 4
    top = tops_at(edge, lambda t: (n + 1) * t + 1)[side]
    profile, line = line_with_top(n, m, top)
    for k, objective in ((3, Objective.EGALITARIAN), (m + 1, Objective.UTILITARIAN)):
        got = assert_tier_at_edge(
            lambda: line_solver.solve_line_dp(profile, line, k, objective), (n + 1) * top + 1, edge, side
        )
        assert got.stats["engine"] == tier_name(edge, side)


@pytest.mark.parametrize("edge", EDGES)
@pytest.mark.parametrize("side", SIDES)
def test_plane_path_at_the_tier_edges(edge, side, monkeypatch):
    """The plane path's tile buffers hold its unclipped sums, up to 2 * inf, while its
    planes stay in the voter loop's tier; a single tile holds the whole line."""
    n, m = 9, 4
    top = tops_at(edge, lambda t: 2 * (n * t + 1))[side]
    profile, line = line_with_top(n, m, top)
    plane_sweeps = []
    sweep = line_solver._plane_sweep
    monkeypatch.setattr(line_solver, "_plane_sweep", lambda *a: plane_sweeps.append(1) or sweep(*a))
    solve = lambda: line_solver.solve_line_dp(profile, line, 3)  # noqa: E731
    got = assert_tier_at_edge(solve, 2 * (n * top + 1), edge, side)
    assert plane_sweeps, "the plane path did not run"
    assert got.stats["engine"] == np.dtype(core.int_dtype((n + 1) * top + 1)).name


@pytest.mark.parametrize("side", SIDES)
def test_witness_dp_at_the_int16_edge(side):
    """The 0/1 witness rows give inf = n + 1: the plane path's sums reach 2n + 2, which
    crosses 2^15 - 1 at n = 16383 (2^31 - 1 would need 2^30 voters)."""
    edge = EDGES[0]
    n = 16382 if side == "below" else 16383
    rng = np.random.default_rng(n)
    rows = rng.random((n, 3)) < 0.3
    rows[:, 1] = True  # one candidate every voter pays: its column sum is n

    def witness():
        rep, l_star, engine, sweeps = line_solver._dp_engine(rows, 2, False)
        stats = {"sweeps": sweeps, "engine": engine}
        return core.SolveResult(core.Assignment(rep), 0, 0, l_star, "witness", stats)

    got = assert_tier_at_edge(witness, 2 * (n + 1), edge, side)
    assert got.stats["engine"] == "int16"  # the planes hold n + 2


@pytest.mark.parametrize("edge", EDGES)
@pytest.mark.parametrize("side", SIDES)
def test_egalitarian_threshold_at_the_tier_edges(edge, side):
    n, m = 9, 4
    top = tops_at(edge, lambda t: (n + 1) * t + 1)[side]
    profile, line = line_with_top(n, m, top)
    got = assert_tier_at_edge(
        lambda: line_solver.solve_line_egal_threshold(profile, line, 2), (n + 1) * top + 1, edge, side
    )
    assert got.stats["engine"] == tier_name(edge, side)


@pytest.mark.parametrize("edge", EDGES)
@pytest.mark.parametrize("side", SIDES)
def test_merged_sums_at_the_tier_edges(edge, side):
    """Merging sums each run of identical voters: up to n * top, and a run is n long."""
    n, m = 12, 4
    top = tops_at(edge, lambda t: n * t)[side]
    profile, line = line_with_top(n, m, top, swaps=1)  # at most two rankings: long runs
    got = assert_tier_at_edge(
        lambda: cli._dispatch(profile, line, "line-dp", Objective.UTILITARIAN, 3), n * top, edge, side
    )
    assert got.stats["compressed_n"] < n
    merged = line_solver.merge_identical_voters(profile, line)
    assert merged.table_scaled.dtype == tier(edge, side)


@pytest.mark.parametrize("edge", EDGES)
@pytest.mark.parametrize("side", SIDES)
def test_klink_prefix_at_the_tier_edges(edge, side):
    """The k-link prefix table holds n * top."""
    n, m = 12, 4
    top = tops_at(edge, lambda t: n * t)[side]
    profile, line = line_with_top(n, m, top)
    for k in (1, 2, 3):
        got = assert_tier_at_edge(lambda: line_solver.solve_line_klink(profile, line, k), n * top, edge, side)
        assert got.stats["engine"] == tier_name(edge, side)
    assert line_solver.build_prefix_sums(profile, line).table.dtype.name == tier_name(edge, side)


def test_monge_check_adds_two_weights_past_the_prefix_tier():
    """Both sides of the Monge inequality add two segment weights, up to twice the
    largest column total: here the prefix table is int16 and w(0, 4) + w(1, 3) is
    33000, while the other side, 32000, is the larger side if that sum wraps."""
    t, x = 5000, 1000
    profile = PreferenceProfile(((1, 0),) * 2 + ((0, 1),) * 2, ((t + x, t),) * 2 + ((t, t + x),) * 2)
    prefix = line_solver.build_prefix_sums(profile, range(4))
    assert prefix.table.dtype == np.int16
    assert line_solver.check_concave_monge(prefix) is None  # single-crossing


def exact_k_path_case():
    """A Borda line whose k-link search ends in ``_exact_k_path``: its rows, lambda and k."""
    for seed in range(200):
        profile, line = gen_sc_line(seed, 12, 5)
        rows = line_solver._normalized_rows(profile, line)[0]
        for k in range(2, 6):
            calls = []
            with pytest.MonkeyPatch.context() as patch:
                walk = line_solver._exact_k_path
                patch.setattr(line_solver, "_exact_k_path", lambda *a: calls.append(a[1]) or walk(*a))
                line_solver.solve_line_klink(profile, line, k)
            if calls:
                return rows, calls[0], k
    raise AssertionError("no Borda line took the exactly-k path")


@pytest.mark.parametrize("edge", EDGES)
@pytest.mark.parametrize("side", SIDES)
def test_exact_k_path_at_the_tier_edges(edge, side):
    """The tight-arc walk holds a prefix cost plus a weight plus lambda. Scaling the
    weights and lambda by s scales every penalized cost, so the optimal link counts,
    the path and the bound, s times the unscaled one, stay put."""
    rows, lam, k = exact_k_path_case()

    def walk(s):
        klink = line_solver.KLinkInstance(line_solver._prefix_sums(rows * s, 1))
        path = line_solver._exact_k_path(klink, lam * s, k)
        return core.SolveResult(core.Assignment(path), 0, 0, k, "exact-k path", {})

    def bound(s):  # the largest the walk asks for: the other is n, for its link counts
        klink = line_solver.KLinkInstance(line_solver._prefix_sums(rows * s, 1))
        return max(record_tiers(lambda: line_solver._exact_k_path(klink, lam * s, k))[1])

    unit = bound(1)
    assert unit > len(rows)
    s = {"below": edge // unit, "above": edge // unit + 1}[side]
    assert bound(s) == s * unit
    got = assert_tier_at_edge(lambda: walk(s), s * unit, edge, side)
    assert got.assignment == walk(1).assignment


def tree_with_top(n, m, top, seed=3):
    profile, tree = gen_sc_tree(seed, n, m, max_edge_swaps=1)
    rng = random.Random(seed)
    rows = []
    for ranking in profile.rankings:
        values = sorted(rng.choice((0, 1, top - 1, top)) for _ in range(m - 1)) + [top]
        row = [0] * m
        for p, c in enumerate(ranking):
            row[c] = values[p]
        rows.append(row)
    return PreferenceProfile(profile.rankings, rows), tree


@pytest.mark.parametrize("edge", EDGES)
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("objective", list(Objective))
def test_tree_tables_at_the_tier_edges(edge, side, objective):
    """A utilitarian fold adds two table entries of at most inf = n * top + 1; an
    egalitarian one takes their max, which never passes inf."""
    n, m = 14, 4
    scale = 2 if objective is Objective.UTILITARIAN else 1
    top = tops_at(edge, lambda t: scale * (n * t + 1))[side]
    profile, tree = tree_with_top(n, m, top)
    for k in (2, 5):
        got = assert_tier_at_edge(
            lambda: tree_solver.solve_tree_dp(profile, tree, k, objective),
            scale * (n * top + 1), edge, side,
        )
        assert got.stats["engine"] == tier_name(edge, side)


@pytest.mark.parametrize("edge", EDGES)
@pytest.mark.parametrize("side", SIDES)
def test_grid_tables_at_the_tier_edges(edge, side):
    """The grid prefix holds cells * top; a rectangle sum's partial differences stay within it."""
    grid, m = Grid(3, 4), 4
    top = tops_at(edge, lambda t: grid.n * t)[side]
    rankings = gen_sc_grid(5, grid.n1, grid.n2, m)[0].rankings
    rng = random.Random(7)
    rows = []
    for ranking in rankings:
        values = sorted(rng.choice((0, 1, top - 1, top)) for _ in range(m - 1)) + [top]
        rows.append([values[ranking.index(c)] for c in range(m)])
    profile = PreferenceProfile(rankings, rows)
    for k in (1, 3):
        for solve in (grid_solver.solve_grid_laminar, grid_solver.solve_grid_bicriterial):
            got = assert_tier_at_edge(lambda: solve(profile, grid, k), grid.n * top, edge, side)
            assert split(got)[0].stats["engine"] == tier_name(edge, side)
