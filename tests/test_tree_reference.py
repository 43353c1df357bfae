"""The array tree DP against the scalar DP it replaced.

``reference_merge_child_plane``, ``reference_suffix_min_rows``,
``reference_reconstruct`` and ``reference_tree_dp`` are the earlier
list-and-loop implementation, kept as it was: tables are lists of rows of
Python ints, the fold runs an (l, t, c) triple loop.  The array DP must
return the same planes, counters, assignment and costs on every instance,
ties included, and stay exact on rational and huge rho.
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from ccwinner.cli import instance_to_doc, main
from ccwinner.core import (
    Assignment,
    Objective,
    PreferenceProfile,
    RootedTree,
    SolveResult,
    canonicalize,
    reference_ranking,
    relabel_assignment,
)
from ccwinner.generators import gen_sc_tree
from ccwinner.oracle import brute_force
from ccwinner.tree_solver import merge_child_plane, solve_tree_dp, subtree_sizes


def reference_merge_child_plane(plane, child_dyp0, child_dyp1, upper_size, child_size, k,
                                objective, *, inf):
    egal = objective is Objective.EGALITARIAN
    m = len(plane[0])
    s, szu = upper_size, child_size
    bound = min(k, s + szu)
    ext0 = [tuple(row) + (inf,) for row in child_dyp0]  # sentinel for c+1 == m
    new = [[inf] * m for _ in range(bound)]
    iterations = 0
    for l in range(1, bound + 1):
        row = new[l - 1]
        t_lo, t_hi = max(1, l - s), min(l - 1, szu)
        iterations += max(0, t_hi - t_lo + 1)
        for t in range(t_lo, t_hi + 1):
            d0 = ext0[t - 1]
            rest = plane[l - t - 1]
            for c in range(m):
                got = max(d0[c + 1], rest[c]) if egal else d0[c + 1] + rest[c]
                if got < row[c]:
                    row[c] = got
        t_lo, t_hi = max(1, l + 1 - s), min(l, szu)
        iterations += max(0, t_hi - t_lo + 1)
        for t in range(t_lo, t_hi + 1):
            d1 = child_dyp1[t - 1]
            rest = plane[l - t]
            for c in range(m):
                got = max(d1[c], rest[c]) if egal else d1[c] + rest[c]
                if got < row[c]:
                    row[c] = got
    return new, iterations


def reference_suffix_min_rows(plane, m):
    out = []
    for row in plane:
        acc = list(row)
        for c in range(m - 2, -1, -1):
            if acc[c + 1] < acc[c]:
                acc[c] = acc[c + 1]
        out.append(acc)
    return out


def reference_tree_dp(profile, tree, k, objective=Objective.UTILITARIAN):
    n, m = profile.n, profile.m
    if k >= n:
        assignment = Assignment(tuple(profile.rank[:, 0].tolist()))
        return SolveResult.from_assignment(
            profile, assignment, "tree-dp", {"shortcut": "tops", "merge_iterations": 0}
        )
    inverse = reference_ranking(profile, tree)
    rows = profile.scaled[:, list(inverse)].tolist()
    inf = n * int(profile.scaled.max()) + 1
    size, partial = subtree_sizes(tree)
    dyp0 = [None] * n
    dyp1 = [None] * n
    merges = 0
    post = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        post.append(v)
        stack.extend(tree.child_order[v])
    for v in reversed(post):
        plane = [rows[v]]
        upper = 1
        for u in reversed(tree.child_order[v]):
            plane, its = reference_merge_child_plane(
                plane, dyp0[u], dyp1[u], upper, size[u], k, objective, inf=inf
            )
            merges += its
            upper += size[u]
        dyp1[v] = plane
        dyp0[v] = reference_suffix_min_rows(plane, m)
    root = tree.root
    first = [dyp0[root][l - 1][0] for l in range(1, min(k, n) + 1)]
    l_star = first.index(min(first)) + 1
    rep = reference_reconstruct(rows, tree, k, objective, dyp0, dyp1, size, partial, l_star, inf)
    assignment = canonicalize(profile, relabel_assignment(Assignment(tuple(rep)), inverse))
    cells = 2 * m * sum(min(k, size[v]) for v in range(n))
    stats = {"merge_iterations": merges, "states": m * merges + cells, "l_star": l_star}
    return SolveResult.from_assignment(profile, assignment, "tree-dp", stats)


def reference_reconstruct(rows, tree, k, objective, dyp0, dyp1, size, partial, l_star, inf):
    egal = objective is Objective.EGALITARIAN
    m = len(rows[0])
    rep = [0] * tree.n
    stack = [(tree.root, l_star, 0, True)]
    while stack:
        v, l, c, floating = stack.pop()
        if floating:
            while dyp1[v][l - 1][c] != dyp0[v][l - 1][c]:
                c += 1
        rep[v] = c
        children = tree.child_order[v]
        if not children:
            continue
        vectors = [[rows[v][c]]]
        upper = 1
        for u in reversed(children):
            prev = vectors[-1]
            bound = min(k, upper + size[u])
            vec = [inf] * bound
            for l2 in range(1, bound + 1):
                best = inf
                for t in range(max(1, l2 - upper), min(l2 - 1, size[u]) + 1):
                    side = dyp0[u][t - 1][c + 1] if c + 1 < m else inf
                    got = max(side, prev[l2 - t - 1]) if egal else side + prev[l2 - t - 1]
                    if got < best:
                        best = got
                for t in range(max(1, l2 + 1 - upper), min(l2, size[u]) + 1):
                    got = (
                        max(dyp1[u][t - 1][c], prev[l2 - t])
                        if egal
                        else dyp1[u][t - 1][c] + prev[l2 - t]
                    )
                    if got < best:
                        best = got
                vec[l2 - 1] = best
            vectors.append(vec)
            upper += size[u]
        vectors.reverse()
        for i, u in enumerate(children):
            upper = partial[v][i + 1]
            target = vectors[i][l - 1]
            chosen = None
            for t in range(max(1, l + 1 - upper), min(l, size[u]) + 1):
                got = (
                    max(dyp1[u][t - 1][c], vectors[i + 1][l - t])
                    if egal
                    else dyp1[u][t - 1][c] + vectors[i + 1][l - t]
                )
                if got == target:
                    chosen = (u, t, c, False)
                    l = l - t + 1
                    break
            if chosen is None:
                for t in range(max(1, l - upper), min(l - 1, size[u]) + 1):
                    side = dyp0[u][t - 1][c + 1] if c + 1 < m else inf
                    got = (
                        max(side, vectors[i + 1][l - t - 1])
                        if egal
                        else side + vectors[i + 1][l - t - 1]
                    )
                    if got == target:
                        chosen = (u, t, c + 1, True)
                        l = l - t
                        break
            if chosen is None:
                raise AssertionError("no branch reproduces the table value")
            stack.append(chosen)
    return rep


# ---------------------------------------------------------------------------
# instances


def shuffled(rng, m):
    r = list(range(m))
    rng.shuffle(r)
    return tuple(r)


def random_tree(rng, n):
    """Random recursive tree with shuffled labels, a random root and child order."""
    labels = list(range(n))
    rng.shuffle(labels)
    parent = [None] * n
    for v in range(1, n):
        parent[labels[v]] = labels[rng.randrange(v)]
    children = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if p is not None:
            children[p].append(v)
    for ch in children:
        rng.shuffle(ch)
    return RootedTree(tuple(parent), labels[0], tuple(tuple(ch) for ch in children))


def star_tree(n):
    return RootedTree.from_parent((None,) + (0,) * (n - 1), 0)


def path_tree(n):
    return RootedTree.from_parent((None,) + tuple(range(n - 1)), 0)


def caterpillar_tree(rng, n):
    """A spine of about n / 3 vertices with every other vertex a leaf on it."""
    spine = max(1, n // 3)
    legs = tuple(rng.randrange(spine) for _ in range(n - spine))
    return RootedTree.from_parent((None,) + tuple(range(spine - 1)) + legs, 0)


def lift_branch_instance(rng, n, m):
    """The root votes the identity and a path per candidate j lifts j to the top;
    every other vertex copies one of the 8 newest vertices (90%) or any vertex."""
    parent, rankings = [None], [tuple(range(m))]
    for j in range(1, m):
        prev = 0
        for d in range(1, j + 1):
            lifted = [c for c in range(m) if c != j]
            lifted.insert(j - d, j)
            parent.append(prev)
            rankings.append(tuple(lifted))
            prev = len(parent) - 1
    while len(parent) < n:
        size = len(parent)
        u = size - 1 - rng.randrange(min(8, size)) if rng.random() < 0.9 else rng.randrange(size)
        parent.append(u)
        rankings.append(rankings[u])
    return PreferenceProfile.from_rankings(tuple(rankings)), RootedTree.from_parent(tuple(parent), 0)


def with_rho(profile, rho_of):
    """Same rankings; rho[v] nondecreasing along voter v's ranking."""
    rows = []
    for v, ranking in enumerate(profile.rankings):
        row = [0] * profile.m
        for p, c in enumerate(ranking):
            row[c] = rho_of(v, p)
        rows.append(row)
    return PreferenceProfile(profile.rankings, rows)


def random_instance(rng, trial):
    """Single-crossing, random and tie-heavy profiles on random, star and path trees."""
    n, m = rng.randint(2, 40), rng.randint(1, 7)
    kind = ("sc", "sc-steps", "random", "zero", "identical", "star", "path")[trial % 7]
    if kind in ("sc", "sc-steps"):
        profile, tree = gen_sc_tree(40_000 + trial, n, m)
        if kind == "sc-steps":
            steps = [sorted(rng.randint(0, 9) for _ in range(m)) for _ in range(n)]
            profile = with_rho(profile, lambda v, p: steps[v][p])
        return profile, tree
    rankings = tuple(shuffled(rng, m) for _ in range(n))
    if kind == "zero":
        return PreferenceProfile(rankings, [[0] * m for _ in range(n)]), random_tree(rng, n)
    if kind == "identical":
        return PreferenceProfile.from_rankings((rankings[0],) * n), random_tree(rng, n)
    if kind == "random":
        return PreferenceProfile.from_rankings(rankings), random_tree(rng, n)
    pool = rankings[:2]  # Borda over two repeated rankings
    profile = PreferenceProfile.from_rankings(tuple(rng.choice(pool) for _ in range(n)))
    return profile, star_tree(n) if kind == "star" else path_tree(n)


def is_exact_number(x):
    return type(x) in (int, Fraction)


def assert_matches_reference(profile, tree, k, objective):
    got = solve_tree_dp(profile, tree, k, objective)
    want = reference_tree_dp(profile, tree, k, objective)
    assert got.assignment.rep == want.assignment.rep
    assert got.total_cost == want.total_cost and got.egal_cost == want.egal_cost
    assert got.stats == want.stats
    assert all(type(x) is int for x in got.stats.values())
    assert is_exact_number(got.total_cost) and is_exact_number(got.egal_cost)
    return got


# ---------------------------------------------------------------------------
# equality with the scalar DP


@pytest.mark.parametrize("objective", list(Objective))
def test_array_dp_returns_the_scalar_answers(objective):
    rng = random.Random(211 if objective is Objective.UTILITARIAN else 223)
    for trial in range(300):
        profile, tree = random_instance(rng, trial)
        k = rng.randint(1, profile.n - 1)
        assert_matches_reference(profile, tree, k, objective)


def test_merge_returns_the_reference_planes():
    rng = random.Random(227)
    for trial in range(300):
        objective = list(Objective)[trial % 2]
        m, k = rng.randint(1, 7), rng.randint(1, 12)
        s, szu = rng.randint(1, 15), rng.randint(1, 15)
        inf = 7 * 20 + 1

        def table(rows):
            # finite values up to 20 with some infeasible states
            return [[inf if rng.random() < 0.15 else rng.randint(0, 20) for _ in range(m)]
                    for _ in range(rows)]

        plane = table(min(k, s))
        child_dyp1 = table(min(k, szu))
        child_dyp0 = reference_suffix_min_rows(child_dyp1, m)
        args = (plane, child_dyp0, child_dyp1, s, szu, k, objective)
        new, its = merge_child_plane(*args, inf=inf)
        want, want_its = reference_merge_child_plane(*args, inf=inf)
        assert new.shape == (min(k, s + szu), m)
        assert new.tolist() == want and its == want_its, trial
        assert type(its) is int


@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("big", [1, 2**70], ids=["int64", "object"])
@pytest.mark.parametrize("side", ["plane-shorter", "equal", "plane-longer"])
def test_merge_folds_along_either_side(side, big, objective):
    """The fold loops over the plane or the child's pieces, whichever is shorter."""
    rng = random.Random(239)
    inf = (7 * 20 + 1) * big
    trials = 0
    while trials < 60:
        m, k = rng.randint(1, 6), rng.randint(1, 14)
        s, szu = rng.randint(1, 15), rng.randint(1, 15)
        rows, pieces = min(k, s), min(szu, min(k, s + szu) - 1) + 1
        if side != ("plane-shorter" if rows < pieces else "equal" if rows == pieces else "plane-longer"):
            continue
        trials += 1

        def table(n_rows):
            # finite values up to 20 (times big) with some infeasible states
            return [[inf if rng.random() < 0.15 else big * rng.randint(0, 20) for _ in range(m)]
                    for _ in range(n_rows)]

        plane = table(rows)
        child_dyp1 = table(min(k, szu))
        child_dyp0 = reference_suffix_min_rows(child_dyp1, m)
        dtype = np.int64 if big == 1 else object
        tables = [np.array(t, dtype=dtype) for t in (plane, child_dyp0, child_dyp1)]
        new, its = merge_child_plane(*tables, s, szu, k, objective, inf=inf)
        want, want_its = reference_merge_child_plane(
            plane, child_dyp0, child_dyp1, s, szu, k, objective, inf=inf
        )
        assert new.dtype == dtype
        assert new.tolist() == want and its == want_its, (m, k, s, szu)
        assert type(its) is int


@pytest.mark.parametrize("shape", ["path", "star", "caterpillar", "lift-branch"])
def test_shaped_trees_return_the_scalar_answers(shape):
    rng = random.Random(241)
    for trial in range(12):
        n, m = rng.randint(25, 60), rng.randint(2, 7)
        if shape == "lift-branch":
            profile, tree = lift_branch_instance(rng, n, m)
        else:
            pool = [shuffled(rng, m) for _ in range(3)]
            profile = PreferenceProfile.from_rankings(tuple(rng.choice(pool) for _ in range(n)))
            if shape == "path":
                tree = path_tree(n)
            elif shape == "star":
                tree = star_tree(n)
            else:
                tree = caterpillar_tree(rng, n)
        if trial % 3 == 1:  # ties everywhere
            profile = with_rho(profile, lambda v, p: 0)
        elif trial % 3 == 2:  # few distinct steps
            steps = [sorted(rng.randint(0, 2) for _ in range(m)) for _ in range(n)]
            profile = with_rho(profile, lambda v, p: steps[v][p])
        k = rng.randint(1, min(12, n - 1))
        for objective in Objective:
            assert_matches_reference(profile, tree, k, objective)


# ---------------------------------------------------------------------------
# exact arithmetic


def test_rho_past_int64_runs_on_the_object_engine():
    rng = random.Random(229)
    for trial in range(40):
        n, m = rng.randint(2, 8), rng.randint(1, 5)
        k = rng.randint(1, n - 1)
        base, tree = gen_sc_tree(42_000 + trial, n, m)
        for big in (2**60, 2**70):  # past int64 in the tables, then in rho itself
            profile = with_rho(base, lambda v, p: p * big)
            for objective in Objective:
                got = assert_matches_reference(profile, tree, k, objective)
                small = solve_tree_dp(base, tree, k, objective)
                assert got.assignment == small.assignment
                assert got.total_cost == big * small.total_cost
                assert got.egal_cost == big * small.egal_cost
                key = "total_cost" if objective is Objective.UTILITARIAN else "egal_cost"
                assert getattr(got, key) == getattr(brute_force(profile, k, objective), key)


def test_rational_rho_matches_brute_force():
    rng = random.Random(233)
    for trial in range(40):
        n, m = rng.randint(2, 8), rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        base, tree = gen_sc_tree(44_000 + trial, n, m)
        denominators = [rng.choice((3, 7, 11)) for _ in range(n)]
        steps = [sorted(rng.randint(0, 20) for _ in range(m)) for _ in range(n)]
        profile = with_rho(base, lambda v, p: Fraction(steps[v][p], denominators[v]))
        assert profile.scale > 1
        for objective in Objective:
            got = assert_matches_reference(profile, tree, k, objective)
            key = "total_cost" if objective is Objective.UTILITARIAN else "egal_cost"
            assert getattr(got, key) == getattr(brute_force(profile, k, objective), key)


def test_object_engine_tree_result_file(tmp_path):
    base, tree = gen_sc_tree(46_000, 12, 5)
    profile = with_rho(base, lambda v, p: p * 2**70)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_doc(profile, tree)))
    out = tmp_path / "result.json"
    assert main(["solve", str(path), "--k", "3", "--algorithm", "tree-dp", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    want = solve_tree_dp(profile, tree, 3)
    assert doc["total_cost"] == want.total_cost == 2**70 * solve_tree_dp(base, tree, 3).total_cost
    assert doc["assignment"] == [c + 1 for c in want.assignment.rep]
    assert doc["stats"]["merge_iterations"] == want.stats["merge_iterations"]
