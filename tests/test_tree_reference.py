"""The array tree DP against the scalar DP it replaced.

``reference_merge_child_plane``, ``reference_suffix_min_rows``,
``reference_tables``, ``reference_reconstruct`` and ``reference_tree_dp``
are the earlier list-and-loop implementation, kept as it was: tables are
lists of rows of Python ints, built one vertex at a time in post order, and
the fold runs an (l, t, c) triple loop.  The array DP must return the same
planes, tables, counters, assignment and costs on every instance, ties
included, and stay exact on rational and huge rho.

``reference_floating_walk`` is the array walk as it was before its states
were resolved at push: a DIFF split pushed a "floating" state, bounded
below by c + 1, which the pop resolved to the first minimum of the child's
table row from there on. The walk must give the same representatives.
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from ccwinner import tree_solver
from ccwinner.cli import instance_to_doc, main
from ccwinner.core import (
    Assignment,
    Objective,
    PreferenceProfile,
    RootedTree,
    SolveResult,
    canonicalize,
    int_dtype,
    reference_ranking,
)
from ccwinner.generators import gen_sc_line, gen_sc_tree
from ccwinner.oracle import brute_force
from ccwinner.tree_solver import (
    _dp_tables,
    _merge_iterations,
    merge_child_plane,
    solve_tree_dp,
    subtree_sizes,
)


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
    dyp0, dyp1, merges = reference_tables(rows, tree, size, k, objective, inf)
    root = tree.root
    first = [dyp0[root][l - 1][0] for l in range(1, min(k, n) + 1)]
    l_star = first.index(min(first)) + 1
    rep = reference_reconstruct(rows, tree, k, objective, dyp0, dyp1, size, partial, l_star, inf)
    assignment = canonicalize(profile, Assignment(tuple(inverse[c] for c in rep)))
    cells = 2 * m * sum(min(k, size[v]) for v in range(n))
    bound = inf if objective is Objective.EGALITARIAN else 2 * inf  # a max never passes inf
    stats = {
        "engine": np.dtype(int_dtype(bound)).name,
        "merge_iterations": merges,
        "states": m * merges + cells,
        "l_star": l_star,
    }
    return SolveResult.from_assignment(profile, assignment, "tree-dp", stats)


def reference_tables(rows, tree, size, k, objective, inf):
    n, m = tree.n, len(rows[0])
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
    return dyp0, dyp1, merges


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


def hairy_caterpillar_tree(rng, n):
    """A spine of about n / 3 vertices with hanging paths of 1-4 vertices,
    so every height level past the leaves mixes spine and hair vertices."""
    spine = max(1, n // 3)
    parent = [None] + list(range(spine - 1))
    while len(parent) < n:
        prev = rng.randrange(spine)
        for _ in range(min(rng.randint(1, 4), n - len(parent))):
            parent.append(prev)
            prev = len(parent) - 1
    return RootedTree.from_parent(tuple(parent), 0)


def complete_binary_tree(n):
    return RootedTree.from_parent((None,) + tuple((v - 1) // 2 for v in range(1, n)), 0)


def hub_tree(n):
    """Root children of height 1: a hub with n // 3 leaves, two hubs with two
    leaves each and one-leaf stems (n >= 12), so one level has many one-child
    vertices and rounds past the first batch several vertices' later children."""
    parent = [None]
    for leaves in (n // 3, 2, 2):
        parent.append(0)
        parent.extend([len(parent) - 1] * leaves)
    while len(parent) < n:
        parent.append(0)
        if len(parent) < n:
            parent.append(len(parent) - 1)
    return RootedTree.from_parent(tuple(parent), 0)


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
    assert all(type(x) is int for key, x in got.stats.items() if key != "engine")
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
        new, its = merge_child_plane(plane, child_dyp1, k, objective, inf=inf)
        want, want_its = reference_merge_child_plane(
            plane, child_dyp0, child_dyp1, s, szu, k, objective, inf=inf
        )
        assert new.shape == (min(k, s + szu), m)
        assert new.tolist() == want and its == want_its, trial
        assert type(its) is int


def test_merge_iterations_closed_form_matches_the_generator_sum():
    """Every (rows, bound, same_hi, diff_hi) a fold reaches with k <= 12."""
    reached = set()
    for k in range(1, 13):
        for upper in range(1, k + 2):  # sizes past k + 1 clip to the same tuple
            for child in range(1, k + 2):
                bound = min(k, upper + child)
                reached.add((min(k, upper), bound, min(child, bound), min(child, bound - 1)))
    for rows, bound, same_hi, diff_hi in reached:
        old = sum(
            min(rows, bound - i) * ((i < same_hi) + (i > 0)) for i in range(diff_hi + 1)
        )
        assert _merge_iterations(rows, bound, same_hi, diff_hi) == old, (rows, bound, same_hi, diff_hi)
    assert len(reached) > 300


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
        tables = [np.array(t, dtype=dtype) for t in (plane, child_dyp1)]
        new, its = merge_child_plane(*tables, k, objective, inf=inf)
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


def assert_tables_match_reference(profile, tree, k, objective):
    """Every vertex's dyp1 table, and its suffix minima, equal the vertex-by-vertex
    sweep's dyp1 and dyp0 tables."""
    n, m = profile.n, profile.m
    inverse = reference_ranking(profile, tree)
    inf = n * int(profile.scaled.max()) + 1
    rows = profile.scaled[:, list(inverse)].astype(int_dtype(2 * inf), copy=False)
    size, _ = subtree_sizes(tree)
    dyp1, merges = _dp_tables(rows, tree, k, objective, inf)
    want0, want1, want_merges = reference_tables(rows.tolist(), tree, size, k, objective, inf)
    assert merges == want_merges
    for v in range(n):
        got = dyp1[v]
        assert got.shape == (min(k, size[v]), m) and got.dtype == rows.dtype, v
        assert got.tolist() == want1[v], v
        assert np.minimum.accumulate(got[:, ::-1], axis=1)[:, ::-1].tolist() == want0[v], v
    assert_matches_reference(profile, tree, k, objective)


@pytest.mark.parametrize("rho", ["zero", "steps", "borda", "rational", "2^70"])
@pytest.mark.parametrize(
    "shape", ["hairy-caterpillar", "star", "complete-binary", "hub", "lift-branch"]
)
def test_level_sweep_tables_equal_the_reference(shape, rho):
    """Levels that mix table heights: every table, not only the answers."""
    rng = random.Random(251)
    for trial in range(3):
        n, m = rng.randint(12, 36), rng.randint(2, 6)
        if shape == "lift-branch":
            profile, tree = lift_branch_instance(rng, n, m)
            n = profile.n
        else:
            pool = [shuffled(rng, m) for _ in range(3)]
            profile = PreferenceProfile.from_rankings(tuple(rng.choice(pool) for _ in range(n)))
            tree = {
                "hairy-caterpillar": lambda: hairy_caterpillar_tree(rng, n),
                "star": lambda: star_tree(n),
                "complete-binary": lambda: complete_binary_tree(n),
                "hub": lambda: hub_tree(n),
            }[shape]()
        if rho == "zero":
            profile = with_rho(profile, lambda v, p: 0)
        elif rho == "steps":
            steps = [sorted(rng.randint(0, 2) for _ in range(m)) for _ in range(n)]
            profile = with_rho(profile, lambda v, p: steps[v][p])
        elif rho == "rational":
            denominators = [rng.choice((3, 7, 11)) for _ in range(n)]
            profile = with_rho(profile, lambda v, p: Fraction(p, denominators[v]))
        elif rho == "2^70":
            profile = with_rho(profile, lambda v, p: p * 2**70)
        k = (2, rng.randint(3, 8), n - 1)[trial]
        for objective in Objective:
            assert_tables_match_reference(profile, tree, k, objective)


def count_sweep_folds(monkeypatch):
    """Record every ``_fold`` call of the sweep (its batch size) and every
    ``merge_child_plane`` call (its plane's rows); the walk is not counted."""
    folds, merges = [], []
    fold, merge = tree_solver._fold, tree_solver.merge_child_plane
    dp_tables = tree_solver._dp_tables

    def counted_fold(a, *rest):
        folds.append(a.shape[0] if a.ndim == 3 else 1)
        return fold(a, *rest)

    def counted_merge(plane, *rest, **kw):
        merges.append(np.shape(plane)[-2])
        return merge(plane, *rest, **kw)

    def sweep_counted(*args):
        with monkeypatch.context() as patch:
            patch.setattr(tree_solver, "_fold", counted_fold)
            patch.setattr(tree_solver, "merge_child_plane", counted_merge)
            return dp_tables(*args)

    monkeypatch.setattr(tree_solver, "_dp_tables", sweep_counted)
    return folds, merges


@pytest.mark.parametrize("height", [2, 3, 5])
def test_perfect_binary_levels_fold_once_past_the_flat_pass(monkeypatch, height):
    """First folds run in the flat pass, which folds nothing through ``_fold``.
    Round 2 then folds every vertex of an internal level in one call, since
    they share their shapes, and the lone root's one later child is one fold:
    one call per internal level, covering every internal vertex once."""
    rng = random.Random(263)
    n = 2**height - 1
    pool = [shuffled(rng, 4) for _ in range(3)]
    profile = PreferenceProfile.from_rankings(tuple(rng.choice(pool) for _ in range(n)))
    folds, merges = count_sweep_folds(monkeypatch)
    for objective in Objective:
        folds.clear()
        merges.clear()
        assert_matches_reference(profile, complete_binary_tree(n), 2, objective)
        assert len(folds) == height - 1
        assert sum(folds) == (n - 1) // 2
        assert 1 not in merges  # no call folds a one-row plane


@pytest.mark.parametrize("degree", [2, 3, 5, 9, 30, 33])
def test_star_center_folds_in_log_rounds(monkeypatch, degree):
    """A star's center is alone on its level: after the flat pass, its other
    degree - 1 leaves are combined in ceil(log2(degree - 1)) rounds and folded
    into its plane once, not folded one call per leaf. Tables and the
    counter equal the one-leaf-at-a-time reference."""
    rng = random.Random(269)
    n = degree + 1
    pool = [shuffled(rng, 4) for _ in range(3)]
    profile = PreferenceProfile.from_rankings(tuple(rng.choice(pool) for _ in range(n)))
    folds, merges = count_sweep_folds(monkeypatch)
    for k in sorted({2, min(5, n - 1), n - 1}):
        for objective in Objective:
            folds.clear()
            merges.clear()
            assert_tables_match_reference(profile, star_tree(n), k, objective)
            assert len(folds) == (degree - 2).bit_length() + 1
            assert not merges


@pytest.mark.parametrize("leaves, path", [(1100, 0), (40, 6)])
def test_wide_vertex_runs_bound_the_padded_stack(monkeypatch, leaves, path):
    """A lone vertex's children are stacked in runs: a new run starts where
    the tables get short (a k-row path next to one-row leaves) or the stack
    would pass ``_RUN_ROWS`` rows (over a thousand leaves). Tables and the
    counter still equal the one-child-at-a-time reference."""
    rng = random.Random(281)
    parent = [None] + list(range(path))  # the root's first child heads the path
    parent += [0] * leaves
    tree = RootedTree.from_parent(tuple(parent), 0)
    n, m = len(parent), 3
    pool = [shuffled(rng, m) for _ in range(3)]
    profile = PreferenceProfile.from_rankings(tuple(rng.choice(pool) for _ in range(n)))
    steps = [sorted(rng.randint(0, 2) for _ in range(m)) for _ in range(n)]
    profile = with_rho(profile, lambda v, p: steps[v][p])
    runs = []
    pieces = tree_solver._pieces

    def counted(stack, *rest):
        runs.append(stack.shape)
        return pieces(stack, *rest)

    inverse = reference_ranking(profile, tree)
    inf = n * int(profile.scaled.max()) + 1
    rows = profile.scaled[:, list(inverse)].astype(int_dtype(2 * inf), copy=False)
    for objective in Objective:
        runs.clear()
        with monkeypatch.context() as patch:
            patch.setattr(tree_solver, "_pieces", counted)
            _dp_tables(rows, tree, 4, objective, inf)
        assert len(runs) >= 2
        assert all(slots * height <= tree_solver._RUN_ROWS for slots, height, _ in runs)
        assert_tables_match_reference(profile, tree, 4, objective)


def mixed_boundary_tree(rng, n, k):
    """A random recursive tree whose child lists end, at random, in a path of
    k vertices (a k-row table) or a leaf (a one-row table)."""
    parent = [None]
    while len(parent) < n:
        p = rng.randrange(len(parent))
        hang = k if rng.random() < 0.4 else 1
        for _ in range(min(hang, n - len(parent))):
            parent.append(p)
            p = len(parent) - 1
    return RootedTree.from_parent(tuple(parent), 0)


def flat_pass_segments(tree, k):
    """Per level, the table heights of the non-leaf vertices' last children,
    in the flat pass's order: one-child vertices first."""
    size, _ = subtree_sizes(tree)
    children = tree.child_order
    out = []
    for level in tree_solver._height_levels(tree):
        inner = [v for v in level if len(children[v]) == 1]
        inner += [v for v in level if len(children[v]) > 1]
        out.append([min(k, size[children[v][-1]]) for v in inner])
    return out


@pytest.mark.parametrize("k", [2, 3])
def test_flat_pass_segments_of_k_rows_meet_shorter_ones(k):
    """A k-row segment of the flat pass has no DIFF-only row after it, so its
    suffix minima must not reach the next segment's first row; levels that
    mix k-row and shorter last children keep every table equal to the
    vertex-by-vertex reference, under both objectives and on every rho."""
    rng = random.Random(271 + k)
    mixed = 0
    for trial in range(60):
        n, m = rng.randint(8, 30), rng.randint(2, 5)
        tree = mixed_boundary_tree(rng, n, k)
        pool = [shuffled(rng, m) for _ in range(3)]
        profile = PreferenceProfile.from_rankings(tuple(rng.choice(pool) for _ in range(n)))
        rho = trial % 4
        if rho == 1:
            profile = with_rho(profile, lambda v, p: 0)
        elif rho == 2:
            steps = [sorted(rng.randint(0, 2) for _ in range(m)) for _ in range(n)]
            profile = with_rho(profile, lambda v, p: steps[v][p])
        elif rho == 3:
            profile = with_rho(profile, lambda v, p: p * 2**70)
        for heights in flat_pass_segments(tree, k):
            # a k-row segment followed by another segment, next to a shorter one
            mixed += k in heights[:-1] and min(heights) < k
        for objective in Objective:
            assert_tables_match_reference(profile, tree, k, objective)
    assert mixed >= 15


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


# ---------------------------------------------------------------------------
# the walk against its floating-state form


def reference_floating_walk(rows, tree, k, objective, dyp1, l_star, inf):
    egal = objective is Objective.EGALITARIAN
    m = rows.shape[1]
    rep = [0] * tree.n
    stack = [(tree.root, l_star, 0, True)]
    while stack:
        v, l, c, floating = stack.pop()
        if floating:
            c += int(np.argmin(dyp1[v][l - 1, c:]))
        rep[v] = c
        children = tree.child_order[v]
        if not children:
            continue
        starts = [c, c + 1][: m - c]
        pairs = [np.minimum.reduceat(dyp1[u], starts, axis=1) for u in children]
        rests = [rows[v : v + 1, c : c + 2]]
        for pair in reversed(pairs[1:]):
            fold, _ = merge_child_plane(rests[-1], pair, k, objective, inf=inf)
            rests.append(fold)
        rests.reverse()
        carried = int(dyp1[v][l - 1, c])
        for i, u in enumerate(children):
            rest = rests[i][:, 0].tolist()
            d1 = pairs[i][:, 0].tolist()
            d0 = pairs[i][:, 1].tolist() if c + 1 < m else [inf] * len(d1)
            upper, child = len(rest), len(d1)
            same_ts = range(max(1, l + 1 - upper), min(l, child) + 1)
            diff_ts = range(max(1, l - upper), min(l - 1, child) + 1)
            if egal:
                got = [max(d1[t - 1], rest[l - t]) for t in same_ts]
                got += [max(d0[t - 1], rest[l - t - 1]) for t in diff_ts]
            else:
                got = [d1[t - 1] + rest[l - t] for t in same_ts]
                got += [d0[t - 1] + rest[l - t - 1] for t in diff_ts]
            best = min(got)
            assert best == carried
            j = got.index(best)
            if j < len(same_ts):
                t = same_ts[j]
                stack.append((u, t, c, False))
                l = l - t + 1
            else:
                t = diff_ts[j - len(same_ts)]
                stack.append((u, t, c + 1, True))
                l = l - t
            carried = rest[l - 1]
    return rep


@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("big", [1, 2**70], ids=["int64", "object"])
def test_column_refold_is_column_zero_of_the_plane_fold(objective, big):
    """The walk's refold equals column 0 of ``merge_child_plane`` on (rows, 2)
    inputs, and on (rows, 1) inputs at c = m - 1, where no DIFF piece enters."""
    rng = random.Random(277)
    inf = (7 * 20 + 1) * big
    dtype = np.int64 if big == 1 else object
    op = np.maximum if objective is Objective.EGALITARIAN else np.add
    truncated = 0
    for trial in range(300):
        k = rng.randint(1, 12)
        rows, child = rng.randint(1, k), rng.randint(1, k)
        columns = 1 if trial % 4 == 0 else 2  # 1: the candidate c = m - 1

        def column_pair(n_rows):
            return np.array(
                [[inf if rng.random() < 0.15 else big * rng.randint(0, 20) for _ in range(columns)]
                 for _ in range(n_rows)],
                dtype=dtype,
            )

        plane, pair = column_pair(rows), column_pair(child)
        want, _ = merge_child_plane(plane, pair, k, objective, inf=inf)
        got = tree_solver._fold_column(plane[:, 0].copy(), pair, k, op, inf)
        assert got.dtype == dtype
        assert got.tolist() == want[:, 0].tolist(), (trial, k, rows, child)
        truncated += rows + child > k
    assert truncated > 50


def tie_heavy_tree_instance(rng, trial):
    """The random instances above, or a shaped tree under 0/step rho over three rankings."""
    if trial % 4:
        return random_instance(rng, trial)
    n, m = rng.randint(12, 50), rng.randint(2, 6)
    tree = (caterpillar_tree(rng, n), hairy_caterpillar_tree(rng, n), hub_tree(n),
            complete_binary_tree(n))[trial // 4 % 4]
    pool = [shuffled(rng, m) for _ in range(3)]
    profile = PreferenceProfile.from_rankings(tuple(rng.choice(pool) for _ in range(n)))
    steps = [sorted(rng.randint(0, 2) for _ in range(m)) for _ in range(n)]
    return with_rho(profile, lambda v, p: steps[v][p] if trial % 8 else 0), tree


def walk_args(profile, tree, k, objective):
    """The reference ranking and the arguments ``solve_tree_dp`` hands its walk."""
    inverse = reference_ranking(profile, tree)
    inf = profile.n * int(profile.scaled.max()) + 1
    rows = profile.scaled[:, list(inverse)].astype(int_dtype(2 * inf), copy=False)
    dyp1, _ = _dp_tables(rows, tree, k, objective, inf)
    l_star = int(np.argmin(dyp1[tree.root].min(axis=1))) + 1
    return inverse, (rows, tree, k, objective, dyp1, l_star, inf)


def floating_walk_differential(objective, trials) -> int:
    """The walk against the floating walk on the first ``trials`` seeded tie-heavy
    trees; returns the number of walks compared."""
    rng = random.Random(251 if objective is Objective.UTILITARIAN else 257)
    count = 0
    for trial in range(trials):
        profile, tree = tie_heavy_tree_instance(rng, trial)
        if profile.n < 2:
            continue
        k = rng.randint(1, min(15, profile.n - 1))
        _, args = walk_args(profile, tree, k, objective)
        assert tree_solver._reconstruct(*args) == reference_floating_walk(*args), trial
        count += 1
    return count


@pytest.mark.parametrize("objective", list(Objective))
def test_walk_resolved_at_push_matches_the_floating_walk(objective):
    assert floating_walk_differential(objective, 1000) == 1000


def assert_solve_follows_the_floating_walk(profile, tree, k, objective):
    """The walk equals the floating walk, and the solve answers its committee."""
    inverse, args = walk_args(profile, tree, k, objective)
    want = reference_floating_walk(*args)
    assert tree_solver._reconstruct(*args) == want
    committee = {inverse[c] for c in want}
    got = solve_tree_dp(profile, tree, k, objective)
    assert got == SolveResult.from_committee(profile, committee, "tree-dp", got.stats)
    return want


def path_heavy_instance(rng, trial):
    """A path, a caterpillar or a root with paths hanging off it (a small
    lift-branch tree), under Borda, 0/1 or step rho: most vertices have one
    child, whose split the walk reads as two table entries."""
    m = rng.randint(2, 6)
    shape = ("path", "caterpillar", "lift")[trial % 3]
    if shape == "lift":
        profile, tree = lift_branch_instance(rng, 1 + m * (m - 1) // 2, m)
    elif shape == "path":
        profile, _ = gen_sc_line(48_000 + trial, rng.randint(2, 40), m)
        tree = path_tree(profile.n)
    else:
        n = rng.randint(2, 40)
        pool = [shuffled(rng, m) for _ in range(3)]
        profile = PreferenceProfile.from_rankings(tuple(rng.choice(pool) for _ in range(n)))
        tree = caterpillar_tree(rng, n)
    rho = trial // 3 % 3
    if rho == 1:  # 0 on the first few positions, 1 below them
        cut = [rng.randint(1, m) for _ in range(profile.n)]
        profile = with_rho(profile, lambda v, p: int(p >= cut[v]))
    elif rho == 2:
        steps = [sorted(rng.randint(0, 3) for _ in range(m)) for _ in range(profile.n)]
        profile = with_rho(profile, lambda v, p: steps[v][p])
    return profile, tree


@pytest.mark.parametrize("objective", list(Objective))
def test_path_heavy_walk_matches_the_floating_walk(objective):
    rng = random.Random(263 if objective is Objective.UTILITARIAN else 269)
    for trial in range(300):
        profile, tree = path_heavy_instance(rng, trial)
        if profile.n < 2:
            continue
        k = rng.randint(1, min(8, profile.n - 1))
        assert_solve_follows_the_floating_walk(profile, tree, k, objective)


@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("big", [1, 2**64])  # 2**64: the object engine
def test_walk_reaches_the_last_candidate_at_a_one_child_vertex(objective, big):
    """At c = m - 1 a one-child vertex has only its SAME split."""
    rankings = ((0, 1, 2),) * 2 + ((1, 0, 2), (1, 2, 0)) + ((2, 1, 0),) * 2
    profile = with_rho(PreferenceProfile.from_rankings(rankings), lambda v, p: p * big)
    tree = path_tree(6)
    rows = walk_args(profile, tree, 3, objective)[1][0]
    assert rows.dtype == (object if big > 1 else np.int16)
    rep = assert_solve_follows_the_floating_walk(profile, tree, 3, objective)
    assert rep == [0, 0, 1, 1, 2, 2]
    assert tree.child_order[4] == (5,)  # vertex 4 sits on candidate m - 1 with one child
