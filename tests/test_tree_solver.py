"""Tests for the tree dynamic program."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from ccwinner.core import (
    Assignment,
    Objective,
    PreferenceProfile,
    RootedTree,
    cost,
    int_dtype,
    normalize_to_root_order,
    reference_ranking,
)
from ccwinner import tree_solver
from ccwinner.errors import InconsistentTables, InvalidK
from ccwinner.generators import gen_sc_line, gen_sc_tree, gen_star_instance
from ccwinner.line_solver import solve_line_dp
from ccwinner.oracle import brute_force
from ccwinner.tree_solver import merge_child_plane, solve_tree_dp, subtree_sizes

# the merge tests below fold two voters with rho entries up to 5, so
# n * max + 1 exceeds every finite value, as in solve_tree_dp
INF = 2 * 5 + 1


def path_tree(n):
    return RootedTree.from_parent((None,) + tuple(range(n - 1)), 0)


# ---------------------------------------------------------------------------
# subtree sizes


def test_subtree_sizes_on_a_path():
    size, partial = subtree_sizes(path_tree(4))
    assert size == [4, 3, 2, 1]
    assert partial[0] == (4, 1)  # one child, then the singleton
    assert partial[3] == (1,)  # leaf


def test_subtree_sizes_on_the_star():
    _, tree = gen_star_instance(5)
    size, partial = subtree_sizes(tree)
    assert size == [5, 1, 1, 1, 1]
    # peeling leaves one at a time: |T_{root,i}| = 6 - i
    assert partial[0] == (5, 4, 3, 2, 1)


def test_partial_sizes_pair_identity():
    # sum of |T_u| * |T_{v,i+1}| over all (v, child i) counts each voter
    # pair once, the balance behind the quadratic bound on merge work
    rng = random.Random(7)
    for trial in range(100):
        n = rng.randint(2, 40)
        _, tree = gen_sc_tree(1000 + trial, n, 3)
        size, partial = subtree_sizes(tree)
        pairs = sum(
            size[u] * partial[v][i + 1]
            for v in range(n)
            for i, u in enumerate(tree.child_order[v])
        )
        assert pairs == n * (n - 1) // 2


# ---------------------------------------------------------------------------
# one child fold, pinned by hand


def test_merge_single_leaf_child():
    # parent rho (3, 1, 4), leaf child rho (2, 5, 0)
    parent_rho = (3, 1, 4)
    child_dyp1 = [[2, 5, 0]]
    plane = [list(parent_rho)]
    new, its = merge_child_plane(plane, child_dyp1, 2, Objective.UTILITARIAN, inf=INF)
    # l=1 is SAME only: both voters on c
    assert new[0].tolist() == [5, 6, 4]
    # l=2 is DIFF only: child strictly above c, so min(dyp1[u][0][c+1:]) + rho(v, c)
    assert new[1].tolist() == [3, 1, INF]
    assert its == 2


def test_merge_egalitarian_uses_max():
    plane = [[3, 1, 4]]
    new, _ = merge_child_plane(plane, [[2, 5, 0]], 2, Objective.EGALITARIAN, inf=INF)
    assert new[0].tolist() == [3, 5, 4]
    assert new[1].tolist() == [3, 1, INF]


# ---------------------------------------------------------------------------
# the star family, solved by hand


def test_star_costs_step_down_by_one():
    profile, tree = gen_star_instance(5)
    for k in range(1, 6):
        result = solve_tree_dp(profile, tree, k)
        assert result.total_cost == 5 - k
        assert cost(profile, result.assignment, Objective.UTILITARIAN) == 5 - k


def test_star_k1_elects_the_center():
    profile, tree = gen_star_instance(5)
    result = solve_tree_dp(profile, tree, 1)
    assert result.assignment.committee == frozenset({0})
    assert result.total_cost == 4


def test_star_egalitarian():
    profile, tree = gen_star_instance(5)
    assert solve_tree_dp(profile, tree, 1, Objective.EGALITARIAN).egal_cost == 1
    assert solve_tree_dp(profile, tree, 5, Objective.EGALITARIAN).egal_cost == 0


# ---------------------------------------------------------------------------
# agreement with the oracle and with the line solver


@pytest.mark.parametrize("objective", list(Objective))
def test_matches_brute_force(objective):
    rng = random.Random(21)
    key = "total_cost" if objective is Objective.UTILITARIAN else "egal_cost"
    for trial in range(80):
        n, m = rng.randint(1, 8), rng.randint(1, 6)
        k = rng.randint(1, 4)
        profile, tree = gen_sc_tree(5000 + trial, n, m)
        got = solve_tree_dp(profile, tree, k, objective)
        want = brute_force(profile, k, objective)
        assert getattr(got, key) == getattr(want, key), (n, m, k, trial)
        assert cost(profile, got.assignment, objective) == getattr(got, key)


PRIMES_BELOW_1000 = [p for p in range(2, 1000) if all(p % d for d in range(2, int(p**0.5) + 1))]


@pytest.mark.parametrize("objective", list(Objective))
def test_rational_rho_past_the_float_range(objective):
    # every voter adds j / P_v at rank position j, P_v a product of its share
    # of the primes below 1000: rho stays consistent and the common
    # denominator passes 2**1024, beyond anything a float can hold
    key = "total_cost" if objective is Objective.UTILITARIAN else "egal_cost"
    for trial in range(6):
        base, tree = gen_sc_tree(7000 + trial, 8, 4)
        rho = [list(row) for row in base.rho]
        for v, ranking in enumerate(base.rankings):
            denominator = 1
            for p in PRIMES_BELOW_1000[v :: base.n]:
                denominator *= p
            for j, c in enumerate(ranking):
                rho[v][c] += Fraction(j, denominator)
        profile = PreferenceProfile(base.rankings, rho)
        assert profile.scale > 2**1024
        for k in (1, 2, 3):
            got = solve_tree_dp(profile, tree, k, objective)
            want = brute_force(profile, k, objective)
            assert getattr(got, key) == getattr(want, key), (trial, k)
            assert cost(profile, got.assignment, objective) == getattr(got, key)


def test_path_tree_agrees_with_line_solver():
    rng = random.Random(33)
    for trial in range(60):
        n, m = rng.randint(2, 12), rng.randint(2, 6)
        k = rng.randint(1, 5)
        profile, line = gen_sc_line(7000 + trial, n, m)
        tree = path_tree(n)
        for objective in Objective:
            on_tree = solve_tree_dp(profile, tree, k, objective)
            on_line = solve_line_dp(profile, line, k, objective)
            key = "total_cost" if objective is Objective.UTILITARIAN else "egal_cost"
            assert getattr(on_tree, key) == getattr(on_line, key), (n, m, k, trial)


# ---------------------------------------------------------------------------
# structure of the answers


def test_cost_is_nonincreasing_in_k():
    profile, tree = gen_sc_tree(42, 14, 5)
    costs = [solve_tree_dp(profile, tree, k).total_cost for k in range(1, 15)]
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    assert costs[-1] == 0  # k >= n hands everyone their top


def test_committee_fibers_are_connected():
    rng = random.Random(55)
    for trial in range(40):
        n, m = rng.randint(2, 16), rng.randint(2, 6)
        k = rng.randint(1, 4)
        profile, tree = gen_sc_tree(9000 + trial, n, m)
        rep = solve_tree_dp(profile, tree, k).assignment.rep
        for c in set(rep):
            fiber = {v for v in range(n) if rep[v] == c}
            inner_edges = sum(
                1 for v in fiber if tree.parent[v] is not None and tree.parent[v] in fiber
            )
            assert inner_edges == len(fiber) - 1, (trial, c)


def test_representatives_grow_away_from_the_root():
    rng = random.Random(56)
    for trial in range(40):
        n, m = rng.randint(2, 16), rng.randint(2, 6)
        k = rng.randint(1, 4)
        profile, tree = gen_sc_tree(9500 + trial, n, m)
        rep = solve_tree_dp(profile, tree, k).assignment.rep
        _, inverse = normalize_to_root_order(profile, tree)
        to_new = {old: new for new, old in enumerate(inverse)}
        for v in range(n):
            if tree.parent[v] is not None:
                assert to_new[rep[tree.parent[v]]] <= to_new[rep[v]]


def test_merge_work_stays_within_the_bound():
    rng = random.Random(77)
    for trial in range(30):
        n, m = rng.randint(2, 30), rng.randint(2, 5)
        k = min(rng.randint(1, 8), n - 1)  # k >= n would shortcut past the DP
        profile, tree = gen_sc_tree(11000 + trial, n, m)
        stats = solve_tree_dp(profile, tree, k).stats
        assert stats["merge_iterations"] <= 2 * min(n * n, 2 * n * k)


# ---------------------------------------------------------------------------
# edges


def test_rejects_empty_committee():
    profile, tree = gen_sc_tree(1, 4, 3)
    with pytest.raises(InvalidK):
        solve_tree_dp(profile, tree, 0)


def test_committee_bound_may_exceed_m():
    profile, tree = gen_sc_tree(2, 5, 3)
    result = solve_tree_dp(profile, tree, 4)
    assert result.total_cost == brute_force(profile, 4).total_cost


def test_single_voter():
    profile = PreferenceProfile.from_rankings(((1, 0, 2),))
    tree = RootedTree.from_parent((None,), 0)
    result = solve_tree_dp(profile, tree, 1)
    assert result.assignment.rep == (1,)
    assert result.total_cost == 0


def test_deterministic():
    profile, tree = gen_sc_tree(8, 12, 4)
    a = solve_tree_dp(profile, tree, 3)
    b = solve_tree_dp(profile, tree, 3)
    assert a.assignment == b.assignment and a.stats == b.stats


@pytest.mark.parametrize("objective", list(Objective))
def test_walk_rejects_a_tampered_table(monkeypatch, objective):
    walk = tree_solver._reconstruct

    def tampered(rows, tree, k, objective, dyp1, *rest):
        # every root entry one above what its children's tables reach
        dyp1[tree.root] = dyp1[tree.root] + 1
        return walk(rows, tree, k, objective, dyp1, *rest)

    monkeypatch.setattr(tree_solver, "_reconstruct", tampered)
    # a root with two children, then the end of a path, whose one child
    # splits against the root alone
    for profile, tree in (gen_sc_tree(48, 20, 5), (gen_sc_line(48, 20, 5)[0], path_tree(20))):
        where = f"vertex {tree.root}, child {tree.child_order[tree.root][0]}: "
        with pytest.raises(InconsistentTables, match=where + ".* the table holds"):
            solve_tree_dp(profile, tree, 3, objective)


@pytest.mark.parametrize("objective", list(Objective))
def test_walk_rejects_a_tampered_table_below_the_root(monkeypatch, objective):
    """Each vertex's table entry rides on the stack from its parent's split; a
    table one above what its own children reach is caught at the parent or at
    the vertex itself."""
    walk = tree_solver._reconstruct
    random_profile, random_tree = gen_sc_tree(48, 40, 5)
    wide = [
        v for v in range(random_tree.n)
        if v != random_tree.root and len(random_tree.child_order[v]) >= 3
    ]
    path = path_tree(20)
    assert wide and len(path.child_order[5]) == 1
    # a vertex with three or more children, then a one-child vertex on a path
    for profile, tree, vertex in (
        (random_profile, random_tree, wide[0]), (gen_sc_line(48, 20, 5)[0], path, 5)
    ):

        def tampered(rows, tree, k, objective, dyp1, *rest, vertex=vertex):
            dyp1[vertex] = dyp1[vertex] + 1
            return walk(rows, tree, k, objective, dyp1, *rest)

        monkeypatch.setattr(tree_solver, "_reconstruct", tampered)
        with pytest.raises(InconsistentTables, match=r"the splits reach \d+, the table holds \d+"):
            solve_tree_dp(profile, tree, 3, objective)


def perfect_binary_tree(n):
    return RootedTree.from_parent((None,) + tuple((v - 1) // 2 for v in range(1, n)), 0)


@pytest.mark.parametrize(
    "shape, refolds",
    [("star", 9 - 2), ("star-of-2", 0), ("binary", 0), ("path", 0)],
)
@pytest.mark.parametrize("objective", list(Objective))
def test_walk_refolds_all_but_two_children_of_a_vertex(monkeypatch, shape, refolds, objective):
    """A vertex with K >= 2 children refolds K - 2 of them: the first child needs no
    rest of its own, and the innermost rest is the last child's pieces against the
    vertex's own entry. A one-child vertex refolds nothing."""
    calls = []
    fold_column = tree_solver._fold_column
    monkeypatch.setattr(tree_solver, "_fold_column", lambda *a: calls.append(a) or fold_column(*a))
    rng = random.Random(5)
    if shape.startswith("star"):
        profile, tree = gen_star_instance(10 if shape == "star" else 3)  # the center is the root
    elif shape == "binary":
        tree = perfect_binary_tree(31)
        rows = [sorted(rng.randint(0, 4) for _ in range(4)) for _ in range(tree.n)]
        profile = PreferenceProfile(((0, 1, 2, 3),) * tree.n, rows)
    else:
        profile, _ = gen_sc_line(6, 20, 5)
        tree = path_tree(20)
    for k in (1, 2):  # below n, so the walk runs
        calls.clear()
        solve_tree_dp(profile, tree, k, objective)
        assert len(calls) == refolds, (shape, k)


def test_solve_keeps_one_table_per_vertex():
    """Suffix minima are derived where they are read, never stored per vertex.

    Keeping a second (suffix-minimum) table per vertex until the walk ends
    took this solve's traced peak to 3.4 MB; one table per vertex reads 2.0.
    """
    profile, tree = gen_sc_tree(3, 3000, 12)
    solve_tree_dp(profile, tree, 40)  # the first call also allocates one-off caches
    tracemalloc.start()
    try:
        solve_tree_dp(profile, tree, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * 2**20, f"{peak / 2**20:.2f} MB"


def test_finished_tables_hold_only_their_own_memory():
    """No table keeps alive the batch slots of vertices that were folded further.

    A table that stayed a view into a batched fold result whose other slots
    were refolded kept those slots alive: on this tree the non-leaf tables
    held 1.22 MB of arrays for 1.03 MB of their own. Leaf tables are views
    into the rows, which the solve holds anyway.
    """
    profile, tree = gen_sc_tree(3, 3000, 12)
    inverse = reference_ranking(profile, tree)
    inf = profile.n * int(profile.scaled.max()) + 1
    rows = profile.scaled[:, list(inverse)].astype(int_dtype(2 * inf), copy=False)
    tables, _ = tree_solver._dp_tables(rows, tree, 40, Objective.UTILITARIAN, inf)

    def owner(a):
        return a if a.base is None else a.base

    inner = [t for t in tables if owner(t) is not owner(rows)]
    held = {id(owner(t)): owner(t).nbytes for t in inner}
    assert len(inner) > 1000  # most vertices fold children
    assert sum(held.values()) == sum(t.nbytes for t in inner)
