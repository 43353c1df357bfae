import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccwinner.core import Grid, Line, PreferenceProfile, RootedTree
from ccwinner.errors import CCWinnerError, InvalidN
from ccwinner.generators import gen_sc_tree
from ccwinner.grid_solver import build_grid_prefix
from ccwinner.line_solver import solve_line_dp
from ccwinner.tree_solver import solve_tree_dp
from ccwinner.validation import (
    ConsistencyViolation,
    CrossingViolation,
    check_consistency,
    check_sc_grid,
    check_sc_line,
    check_sc_tree,
    check_structure,
    _tree_side_violation,
)


def prefers(profile, v, c, d):
    return profile.rankings[v].index(c) < profile.rankings[v].index(d)


def verify_line_witness(profile, line, w):
    p = {v: i for i, v in enumerate(line.order)}
    assert p[w.v1] < p[w.v2] < p[w.v3]
    assert prefers(profile, w.v1, w.c, w.c_other)
    assert not prefers(profile, w.v2, w.c, w.c_other)
    assert prefers(profile, w.v3, w.c, w.c_other)


def verify_tree_witness(profile, tree, w):
    assert w.v2 in tree.path(w.v1, w.v3)
    assert prefers(profile, w.v1, w.c, w.c_other)
    assert not prefers(profile, w.v2, w.c, w.c_other)
    assert prefers(profile, w.v3, w.c, w.c_other)


def verify_grid_witness(profile, grid, w):
    (si, sj), (ui, uj), (ti, tj) = (grid.coords(v) for v in (w.v1, w.v2, w.v3))
    assert min(si, ti) <= ui <= max(si, ti)
    assert min(sj, tj) <= uj <= max(sj, tj)
    assert prefers(profile, w.v1, w.c, w.c_other)
    assert not prefers(profile, w.v2, w.c, w.c_other)
    assert prefers(profile, w.v3, w.c, w.c_other)


def random_profile(rng, n, m):
    rankings = []
    for _ in range(n):
        r = list(range(m))
        rng.shuffle(r)
        rankings.append(tuple(r))
    return PreferenceProfile.from_rankings(rankings)


def sc_line_states(rng, m, swaps):
    """Rankings along a random reduced word of adjacent transpositions."""
    current = list(range(m))
    states = [tuple(current)]
    for _ in range(swaps):
        valid = [p for p in range(m - 1) if current[p] < current[p + 1]]
        if not valid:
            break
        p = rng.choice(valid)
        current[p], current[p + 1] = current[p + 1], current[p]
        states.append(tuple(current))
    return states


def test_rank_positions():
    profile = PreferenceProfile.from_rankings(((2, 0, 1), (0, 1, 2)))
    # row v maps candidate -> rank position, the inverse of the ranking
    assert profile.pos.tolist() == [[1, 2, 0], [0, 1, 2]]


def test_consistency_borda_ok():
    rng = random.Random(7)
    for _ in range(50):
        assert check_consistency(random_profile(rng, 6, 5)) is None


def full_gather_consistency(profile):
    """The consistency check as one gather along the rankings, for every profile."""
    along = np.take_along_axis(profile.scaled, profile.rank, axis=1)
    hits = np.argwhere(along[:, :-1] > along[:, 1:])
    if len(hits) == 0:
        return None
    v, p = (int(x) for x in hits[0])
    return ConsistencyViolation(v, int(profile.rank[v, p]), int(profile.rank[v, p + 1]))


def test_consistency_without_the_gather_equals_the_full_gather():
    rng = np.random.default_rng(20)
    kinds = {"borda": 0, "explicit borda": 0, "inconsistent": 0}
    for trial in range(600):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        rank = np.argsort(rng.random((n, m)), axis=1)
        built = PreferenceProfile.from_rankings(rank)
        if trial % 3 == 0:
            profile, kind = built, "borda"
            assert profile.scaled is profile.pos
        else:
            rho = built.pos.copy()
            kind = "explicit borda"
            if trial % 3 == 2 and m > 1:
                v = int(rng.integers(n))
                rho[v, rank[v, 0]] = m  # the top choice now costs most
                kind = "inconsistent"
            profile = PreferenceProfile.from_rankings(rank, rho)
            assert profile.scaled is not profile.pos
        kinds[kind] += 1
        expected = full_gather_consistency(profile)
        assert check_consistency(profile) == expected
        assert (expected is None) == (kind != "inconsistent")
    assert min(kinds.values()) >= 150


def test_consistency_violation_forced():
    profile = PreferenceProfile.from_rankings(((0, 1),), ((1, 0),))
    assert check_consistency(profile) == ConsistencyViolation(0, 0, 1)


def test_consistency_allows_ties():
    profile = PreferenceProfile.from_rankings(((0, 1, 2),), ((0, 0, 1),))
    assert check_consistency(profile) is None


def test_line_identical_rankings_ok():
    profile = PreferenceProfile.from_rankings(((1, 0, 2),) * 4)
    assert check_sc_line(profile, Line((2, 0, 1, 3))) is None


def test_line_double_crossing_detected():
    profile = PreferenceProfile.from_rankings(((0, 1), (1, 0), (0, 1)))
    w = check_sc_line(profile, Line((0, 1, 2)))
    assert w == CrossingViolation(0, 1, 0, 1, 2)
    verify_line_witness(profile, Line((0, 1, 2)), w)


def test_line_order_is_respected():
    # Same rankings become single-crossing once the middle voter moves out.
    profile = PreferenceProfile.from_rankings(((0, 1), (1, 0), (0, 1)))
    assert check_sc_line(profile, Line((1, 0, 2))) is None
    assert check_sc_line(profile, Line((0, 2, 1))) is None


def test_line_random_reduced_words_ok():
    rng = random.Random(13)
    for _ in range(100):
        m = rng.randint(1, 6)
        states = sc_line_states(rng, m, rng.randint(0, m * (m - 1) // 2))
        n = rng.randint(1, 8)
        picks = sorted(rng.randrange(len(states)) for _ in range(n))
        profile = PreferenceProfile.from_rankings([states[t] for t in picks])
        assert check_sc_line(profile, Line(tuple(range(n)))) is None


def test_tree_path_agrees_with_line():
    rng = random.Random(29)
    for _ in range(60):
        n, m = rng.randint(2, 7), rng.randint(2, 5)
        profile = random_profile(rng, n, m)
        line = Line(tuple(range(n)))
        path_tree = RootedTree.from_parent((None,) + tuple(range(n - 1)), 0)
        assert (check_sc_line(profile, line) is None) == (
            check_sc_tree(profile, path_tree) is None
        )


def test_tree_star_double_cut_detected():
    # Two leaves flip the same pair; the root sits between them.
    profile = PreferenceProfile.from_rankings(((0, 1, 2), (1, 0, 2), (1, 0, 2)))
    star = RootedTree.from_parent((None, 0, 0), 0)
    w = check_sc_tree(profile, star)
    assert (w.c, w.c_other, w.v2) == (1, 0, 0)
    verify_tree_witness(profile, star, w)


def test_tree_star_disjoint_cuts_ok():
    profile = PreferenceProfile.from_rankings(((0, 1, 2), (1, 0, 2), (0, 2, 1)))
    star = RootedTree.from_parent((None, 0, 0), 0)
    assert check_sc_tree(profile, star) is None


def test_tree_mutation_eventually_caught():
    rng = random.Random(47)
    caught = 0
    for _ in range(40):
        n, m = rng.randint(3, 7), rng.randint(3, 5)
        states = sc_line_states(rng, m, rng.randint(0, 4))
        rankings = [list(states[min(i, len(states) - 1)]) for i in range(n)]
        tree = RootedTree.from_parent(
            (None,) + tuple(rng.randrange(v) for v in range(1, n)), 0
        )
        profile = PreferenceProfile.from_rankings(rankings)
        if check_sc_tree(profile, tree) is not None:
            continue
        # Swap random adjacent entries in one ranking until the checker objects.
        for _ in range(30):
            v = rng.randrange(n)
            p = rng.randrange(m - 1)
            rankings[v][p], rankings[v][p + 1] = rankings[v][p + 1], rankings[v][p]
            mutated = PreferenceProfile.from_rankings(rankings)
            w = check_sc_tree(mutated, tree)
            if w is not None:
                verify_tree_witness(mutated, tree, w)
                caught += 1
                break
    assert caught >= 10


def test_grid_box_violation_forced():
    # Corners prefer candidate 0, the cell between them prefers 1.
    rankings = ((0, 1), (1, 0), (0, 1), (0, 1))
    profile = PreferenceProfile.from_rankings(rankings)
    w = check_sc_grid(profile, Grid(2, 2))
    assert w is not None and (w.c, w.c_other) == (0, 1)
    assert w.v2 == 1
    verify_grid_witness(profile, Grid(2, 2), w)


def test_grid_row_and_column_band_constructions_ok():
    # A pair's supporter set must be a full row or column band, so sampling a
    # single-crossing line sequence down one axis is sound.
    rng = random.Random(61)
    for _ in range(60):
        n1, n2, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(2, 5)
        states = sc_line_states(rng, m, rng.randint(0, 6))
        by_row = [states[min(i, len(states) - 1)] for i in range(n1) for _ in range(n2)]
        by_col = [states[min(j, len(states) - 1)] for _ in range(n1) for j in range(n2)]
        for rankings in (by_row, by_col):
            profile = PreferenceProfile.from_rankings(rankings)
            assert check_sc_grid(profile, Grid(n1, n2)) is None


def test_grid_antidiagonal_sampling_is_not_single_crossing():
    # Constant-along-antidiagonals sampling is unsound: on a 2x2 grid with one
    # swap after the first antidiagonal, the pair flips twice along the
    # shortest path (0,1) -> (0,0) -> (1,0).
    states = [(0, 1), (1, 0)]
    rankings = [states[min(i + j, 1)] for i in range(2) for j in range(2)]
    profile = PreferenceProfile.from_rankings(rankings)
    w = check_sc_grid(profile, Grid(2, 2))
    assert w is not None
    verify_grid_witness(profile, Grid(2, 2), w)


def test_grid_1xn_matches_line_checker():
    rng = random.Random(83)
    for _ in range(120):
        n, m = rng.randint(1, 6), rng.randint(2, 4)
        profile = random_profile(rng, n, m)
        row_ok = check_sc_grid(profile, Grid(1, n)) is None
        col_ok = check_sc_grid(profile, Grid(n, 1)) is None
        line_ok = check_sc_line(profile, Line(tuple(range(n)))) is None
        assert row_ok == line_ok == col_ok


def test_check_structure_dispatch():
    profile = PreferenceProfile.from_rankings(((0, 1), (0, 1)))
    assert check_structure(profile, Line((0, 1))) is None
    assert check_structure(profile, RootedTree.from_parent((None, 0), 0)) is None
    assert check_structure(profile, Grid(1, 2)) is None
    with pytest.raises(TypeError):
        check_structure(profile, "line")


def test_size_mismatch_rejected():
    """Every check and solver raises InvalidN, still a ValueError, when the sizes disagree."""
    profile = PreferenceProfile.from_rankings(((0, 1), (0, 1)))
    path3 = RootedTree.from_parent((None, 0, 1), 0)
    calls = [
        (check_sc_line, (profile, Line((0, 1, 2))), "line order and profile disagree"),
        (check_sc_tree, (profile, path3), "tree and profile disagree"),
        (check_sc_grid, (profile, Grid(2, 2)), "grid shape and profile disagree"),
        (solve_line_dp, (profile, Line((0, 1, 2)), 1), "order covers 3 voters, profile has 2"),
        (solve_tree_dp, (profile, path3, 1), "tree covers 3 voters, profile has 2"),
        (build_grid_prefix, (profile, Grid(2, 2)), "grid has 4 cells, profile has 2 voters"),
    ]
    for call, args, message in calls:
        with pytest.raises(InvalidN, match=message) as caught:
            call(*args)
        assert isinstance(caught.value, ValueError) and isinstance(caught.value, CCWinnerError)


@st.composite
def arbitrary_instance(draw):
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 8))
    rankings = [tuple(draw(st.permutations(range(m)))) for _ in range(n)]
    return PreferenceProfile.from_rankings(rankings)


@settings(max_examples=80)
@given(arbitrary_instance(), st.randoms(use_true_random=False))
def test_any_witness_is_genuine(profile, rng):
    """Whatever a checker returns must be independently verifiable."""
    n = profile.n
    order = list(range(n))
    rng.shuffle(order)
    line = Line(tuple(order))
    w = check_sc_line(profile, line)
    if w is not None:
        verify_line_witness(profile, line, w)
    parent = (None,) + tuple(rng.randrange(v) for v in range(1, n))
    tree = RootedTree.from_parent(parent, 0)
    w = check_sc_tree(profile, tree)
    if w is not None:
        verify_tree_witness(profile, tree, w)
    for n1 in range(1, n + 1):
        if n % n1 == 0:
            grid = Grid(n1, n // n1)
            w = check_sc_grid(profile, grid)
            if w is not None:
                verify_grid_witness(profile, grid, w)


# ---------------------------------------------------------------------------
# the array checks against per-element references


def reference_consistency(profile):
    for v, ranking in enumerate(profile.rankings):
        row = profile.rho[v]
        for p in range(len(ranking) - 1):
            if row[ranking[p]] > row[ranking[p + 1]]:
                return ConsistencyViolation(v, ranking[p], ranking[p + 1])
    return None


def reference_tree_side(tree, inside):
    """Connectivity test with a per-vertex edge count, witness as the checker reports it."""
    members = np.flatnonzero(inside)
    if len(members) == 0:
        return None
    edges = sum(
        1 for v in range(tree.n) if v != tree.root and inside[v] and inside[tree.parent[v]]
    )
    if edges == len(members) - 1:
        return None
    start = int(members[0])
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        neighbors = list(tree.child_order[v])
        if v != tree.root:
            neighbors.append(tree.parent[v])
        for u in neighbors:
            if inside[u] and u not in seen:
                seen.add(u)
                queue.append(u)
    v3 = int(next(v for v in members if int(v) not in seen))
    v2 = next(u for u in tree.path(start, v3) if not inside[u])
    return start, v2, v3


def reference_check_sc_tree(profile, tree):
    """One ordered pair at a time, as the tree checker first did."""
    pos = np.array([[r.index(c) for c in range(profile.m)] for r in profile.rankings])
    for a in range(profile.m):
        for b in range(a + 1, profile.m):
            prefers_a = pos[:, a] < pos[:, b]
            for c, c_other, inside in ((a, b, prefers_a), (b, a, ~prefers_a)):
                witness = reference_tree_side(tree, inside)
                if witness is not None:
                    return CrossingViolation(c, c_other, *witness)
    return None


@st.composite
def mislabeled_tree(draw):
    """Arbitrary rankings on a random tree with a random root and child order."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(2, 4))
    rankings = [tuple(draw(st.permutations(range(m)))) for _ in range(n)]
    labels = draw(st.permutations(range(n)))
    parent = [None] * n
    for v in range(1, n):
        parent[labels[v]] = labels[draw(st.integers(0, v - 1))]
    children = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if p is not None:
            children[p].append(v)
    child_order = tuple(tuple(draw(st.permutations(ch))) for ch in children)
    tree = RootedTree(tuple(parent), labels[0], child_order)
    return PreferenceProfile.from_rankings(rankings), tree


@settings(max_examples=300, deadline=None)
@given(mislabeled_tree())
def test_tree_witnesses_match_the_per_vertex_reference(instance):
    profile, tree = instance
    assert check_sc_tree(profile, tree) == reference_check_sc_tree(profile, tree)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda m: st.lists(
            st.tuples(
                st.permutations(range(m)),
                st.lists(st.fractions(0, 5, max_denominator=4), min_size=m, max_size=m),
            ),
            min_size=1,
            max_size=6,
        )
    )
)
def test_consistency_matches_the_per_element_reference(rows):
    profile = PreferenceProfile(
        tuple(tuple(r) for r, _ in rows), tuple(tuple(vals) for _, vals in rows)
    )
    assert check_consistency(profile) == reference_consistency(profile)


def reference_check_sc_line(profile, line):
    """One pair at a time, as the line checker first did."""
    pos = profile.pos[np.asarray(line.order)]
    for a in range(profile.m):
        for b in range(a + 1, profile.m):
            prefers_a = pos[:, a] < pos[:, b]
            flips = np.flatnonzero(prefers_a[1:] != prefers_a[:-1])
            if len(flips) < 2:
                continue
            f0, f1 = int(flips[0]), int(flips[1])
            v1, v2, v3 = (line.order[f0], line.order[f0 + 1], line.order[f1 + 1])
            if prefers_a[f0]:
                return CrossingViolation(a, b, v1, v2, v3)
            return CrossingViolation(b, a, v1, v2, v3)
    return None


def reference_grid_side(side):
    a = side.astype(np.uint8)
    nw = np.maximum.accumulate(np.maximum.accumulate(a, axis=0), axis=1)
    se = np.maximum.accumulate(np.maximum.accumulate(a[::-1, ::-1], axis=0), axis=1)[::-1, ::-1]
    ne = np.maximum.accumulate(np.maximum.accumulate(a[:, ::-1], axis=0), axis=1)[:, ::-1]
    sw = np.maximum.accumulate(np.maximum.accumulate(a[::-1, :], axis=0), axis=1)[::-1, :]
    bad = ((nw & se) | (ne & sw)).astype(bool) & ~side
    if not bad.any():
        return None

    def first(mask):
        return divmod(int(np.flatnonzero(mask.ravel())[0]), mask.shape[1])

    i, j = first(bad)
    if nw[i, j] and se[i, j]:
        s = first(side[: i + 1, : j + 1])
        t0, t1 = first(side[i:, j:])
        t = (t0 + i, t1 + j)
    else:
        s0, s1 = first(side[: i + 1, j:])
        s = (s0, s1 + j)
        t0, t1 = first(side[i:, : j + 1])
        t = (t0 + i, t1)
    return s, (i, j), t


def reference_check_sc_grid(profile, grid):
    """One ordered pair at a time, as the grid checker first did."""
    pos = profile.pos
    for a in range(profile.m):
        for b in range(a + 1, profile.m):
            prefers_a = (pos[:, a] < pos[:, b]).reshape(grid.n1, grid.n2)
            for c, c_other, side in ((a, b, prefers_a), (b, a, ~prefers_a)):
                witness = reference_grid_side(side)
                if witness is not None:
                    s, u, t = witness
                    return CrossingViolation(
                        c, c_other, grid.index(*s), grid.index(*u), grid.index(*t)
                    )
    return None


def perturbed(rng, rankings):
    """Swap one adjacent pair in one random voter's ranking."""
    rankings = [list(r) for r in rankings]
    v = rng.randrange(len(rankings))
    p = rng.randrange(len(rankings[v]) - 1)
    rankings[v][p], rankings[v][p + 1] = rankings[v][p + 1], rankings[v][p]
    return [tuple(r) for r in rankings]


def test_line_checker_matches_the_per_pair_reference():
    rng = random.Random(89)
    outcomes = set()
    for trial in range(400):
        n, m = rng.randint(1, 14), rng.randint(2, 7)
        if trial % 3 == 0:
            along = [tuple(rng.sample(range(m), m)) for _ in range(n)]
        else:
            states = sc_line_states(rng, m, rng.randint(0, m * (m - 1) // 2))
            along = [states[x] for x in sorted(rng.randrange(len(states)) for _ in range(n))]
            if trial % 3 == 2:
                along = perturbed(rng, along)
        order = rng.sample(range(n), n)
        rankings = [None] * n
        for i, v in enumerate(order):
            rankings[v] = along[i]
        profile = PreferenceProfile.from_rankings(rankings)
        line = Line(tuple(order))
        got = check_sc_line(profile, line)
        assert got == reference_check_sc_line(profile, line), trial
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_grid_checker_matches_the_per_pair_reference():
    rng = random.Random(97)
    outcomes = set()
    for trial in range(400):
        n1, n2, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(2, 6)
        if trial % 3 == 0:
            rankings = [tuple(rng.sample(range(m), m)) for _ in range(n1 * n2)]
        else:
            rows = sc_line_states(rng, m, rng.randint(0, 6))
            cols = sc_line_states(rng, m, rng.randint(0, 6))
            if trial % 2:
                rankings = [rows[min(i, len(rows) - 1)] for i in range(n1) for _ in range(n2)]
            else:
                rankings = [cols[min(j, len(cols) - 1)] for _ in range(n1) for j in range(n2)]
            if trial % 3 == 2:
                rankings = perturbed(rng, rankings)
        profile = PreferenceProfile.from_rankings(rankings)
        grid = Grid(n1, n2)
        got = check_sc_grid(profile, grid)
        assert got == reference_check_sc_grid(profile, grid), trial
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_tree_checker_matches_the_per_pair_reference():
    rng = random.Random(101)
    violations = 0
    for trial in range(360):
        n, m = rng.randint(1, 30), rng.randint(2, 7)
        base, tree = gen_sc_tree(50_000 + trial, n, m)
        rankings = list(base.rankings)
        if trial % 4 == 0:
            rankings = [tuple(rng.sample(range(m), m)) for _ in range(n)]
        elif trial % 4 != 1:
            rankings = perturbed(rng, rankings)
        profile = PreferenceProfile.from_rankings(rankings)
        got = check_sc_tree(profile, tree)
        assert got == reference_check_sc_tree(profile, tree), trial
        if trial % 4 == 1:
            assert got is None  # generated single-crossing
        elif got is not None:
            verify_tree_witness(profile, tree, got)
            violations += 1
    assert violations > 180


def members_and_edges_check_sc_tree(profile, tree):
    """The array tree checker as it was before it counted flipped edges."""
    n, m = profile.n, profile.m
    pos = np.ascontiguousarray(profile.pos.T)
    child = np.array([v for v in range(n) if v != tree.root], dtype=np.int64)
    parent = np.array([tree.parent[v] for v in child.tolist()], dtype=np.int64)
    for a in range(m - 1):
        prefers_a = pos[a] < pos[a + 1 :]
        at_child, at_parent = prefers_a[:, child], prefers_a[:, parent]
        members = np.count_nonzero(prefers_a, axis=1)
        edges = np.count_nonzero(at_child & at_parent, axis=1)
        edges_b = n - 1 - np.count_nonzero(at_child | at_parent, axis=1)
        bad_a = (members > 0) & (edges != members - 1)
        bad_b = (members < n) & (edges_b != n - members - 1)
        failing = np.flatnonzero(np.stack((bad_a, bad_b), axis=1))
        if len(failing) == 0:
            continue
        row, flip = divmod(int(failing[0]), 2)
        b = a + 1 + row
        inside = prefers_a[row] if flip == 0 else ~prefers_a[row]
        witness = _tree_side_violation(tree, inside, child, parent)
        c, c_other = (a, b) if flip == 0 else (b, a)
        return CrossingViolation(c, c_other, *witness)
    return None


def test_flipped_edge_count_matches_the_members_and_edges_checker():
    """Same pair, side and witness vertices on seeded non-single-crossing trees."""
    rng = random.Random(131)
    sides = set()
    for trial in range(300):
        n, m = rng.randint(3, 60), rng.randint(2, 8)
        base, tree = gen_sc_tree(52_000 + trial, n, m)
        if trial % 3 == 0:
            rankings = [tuple(rng.sample(range(m), m)) for _ in range(n)]
        else:
            rankings = list(base.rankings)
            for _ in range(trial % 3):
                rankings = perturbed(rng, rankings)
        profile = PreferenceProfile.from_rankings(rankings)
        got = check_sc_tree(profile, tree)
        assert got == members_and_edges_check_sc_tree(profile, tree), trial
        if got is not None:
            verify_tree_witness(profile, tree, got)
            sides.add(got.c < got.c_other)
    assert sides == {True, False}
