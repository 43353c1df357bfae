import math
import pickle
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccwinner.core import (
    Assignment,
    Grid,
    Line,
    Objective,
    PreferenceProfile,
    RootedTree,
    SolveResult,
    borda_misrepresentation,
    canonicalize,
    cost,
    normalize_to_root_order,
)
from ccwinner.errors import NotATree


THREE_VOTERS = ((0, 1, 2), (1, 0, 2), (1, 2, 0))


def test_borda_rows():
    assert borda_misrepresentation(THREE_VOTERS) == ((0, 1, 2), (1, 0, 2), (2, 0, 1))


def test_borda_single_candidate():
    assert borda_misrepresentation(((0,),)) == ((0,),)


def test_profile_defaults_to_borda():
    profile = PreferenceProfile.from_rankings(THREE_VOTERS)
    assert profile.n == 3 and profile.m == 3
    assert profile.rho == ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    assert profile.has_integer_rho


def test_profile_accepts_fractions():
    rho = ((Fraction(1, 2), 0), (0, Fraction(3, 2)))
    profile = PreferenceProfile.from_rankings(((0, 1), (1, 0)), rho)
    assert not profile.has_integer_rho
    # Integral fractions are stored as ints.
    p2 = PreferenceProfile.from_rankings(((0, 1), (1, 0)), ((Fraction(2, 1), 0), (0, 1)))
    assert p2.rho[0][0] == 2 and isinstance(p2.rho[0][0], int)
    assert p2.has_integer_rho


@pytest.mark.parametrize(
    "rankings,rho",
    [
        (((0, 0, 2),), None),  # repeated candidate
        (((0, 1, 3),), None),  # out of range
        (((0, 1), (1, 0)), ((0, 1),)),  # rho row count
        (((0, 1),), ((0, 1, 2),)),  # rho row length
        (((0, 1),), ((0, -1),)),  # negative entry
        (((0, 1),), ((0.5, 0),)),  # floats are rejected
    ],
)
def test_profile_rejects_malformed(rankings, rho):
    with pytest.raises(ValueError):
        PreferenceProfile.from_rankings(rankings, rho)


@pytest.mark.parametrize(
    "rankings,rho,message",
    [
        (((0, 0, 2),), None, "ranking of voter 0 is not a permutation of 0..2"),
        (((0, 1, 3),), None, "ranking entry 3 outside 0..2"),
        (((0, 1), (1, 2)), ((0, 1), (1, 0)), "ranking of voter 1 is not a permutation of 0..1"),
        (((0, 1), (1,)), ((0, 1), (1,)), "ranking of voter 1 is not a permutation of 0..1"),
        ((), None, "profile needs at least one voter"),
        (((0, 1), (1, 0)), ((0, 1),), "rho must have one row per voter"),
        (((0, 1),), ((0, 1, 2),), "rho row of voter 0 must have 2 entries"),
        (((0, 1), (1, 0)), ((0, 1), (0, -1)), "rho row of voter 1 has a negative entry"),
        (((0, 1),), ((Fraction(-1, 2), 0),), "rho row of voter 0 has a negative entry"),
        (((0, 1),), ((0.5, 0),), "rho entries must be int or Fraction, got float"),
        (((0, 1),), ((True, 0),), "rho entries must be int or Fraction, got bool"),
    ],
)
def test_profile_errors_name_the_row(rankings, rho, message):
    with pytest.raises(ValueError) as info:
        PreferenceProfile.from_rankings(rankings, rho)
    assert str(info.value) == message


@st.composite
def rational_profile(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    rankings = [tuple(draw(st.permutations(range(m)))) for _ in range(n)]
    big = draw(st.sampled_from([0, 50, 70]))
    entry = st.one_of(
        st.integers(0, 9).map(lambda x: x << big),
        st.fractions(0, 9, max_denominator=12),
    )
    rho = [tuple(draw(st.lists(entry, min_size=m, max_size=m))) for _ in range(n)]
    return rankings, rho


@settings(max_examples=150, deadline=None)
@given(rational_profile())
def test_arrays_hold_rho_exactly(data):
    rankings, rho = data
    profile = PreferenceProfile.from_rankings(rankings, rho)
    n, m = profile.n, profile.m
    assert profile.rank.tolist() == [list(r) for r in rankings]
    assert (profile.pos[np.arange(n)[:, None], profile.rank] == np.arange(m)).all()
    assert profile.scale == math.lcm(*(Fraction(x).denominator for row in rho for x in row))
    for v in range(n):
        for c in range(m):
            assert Fraction(profile.scaled[v, c], profile.scale) == rho[v][c]
            assert profile.rho[v][c] == rho[v][c]
            assert type(profile.rho[v][c]) is (int if rho[v][c].denominator == 1 else Fraction)
    assert profile.scaled.dtype == (np.int64 if profile.scaled.max() < 2**63 else object)
    assert profile.rankings == tuple(tuple(r) for r in rankings)
    assert profile == PreferenceProfile(tuple(rankings), tuple(rho))
    assert pickle.loads(pickle.dumps(profile)) == profile


def test_profile_is_immutable_and_compares_by_value():
    profile = PreferenceProfile.from_rankings(THREE_VOTERS)
    with pytest.raises(AttributeError):
        profile.scale = 2
    with pytest.raises(ValueError):
        profile.scaled[0, 0] = 5
    same = PreferenceProfile(THREE_VOTERS, borda_misrepresentation(THREE_VOTERS))
    assert same == profile and hash(same) == hash(profile)
    assert profile != PreferenceProfile.from_rankings(THREE_VOTERS[::-1])


def test_integer_arrays_build_the_same_profile():
    rank = np.array(THREE_VOTERS)
    rho = np.array(borda_misrepresentation(THREE_VOTERS)) * 2
    profile = PreferenceProfile(rank, rho)
    assert profile == PreferenceProfile(THREE_VOTERS, tuple(map(tuple, rho.tolist())))
    assert type(profile.rho[0][1]) is int
    assert PreferenceProfile.from_rankings(rank) == PreferenceProfile.from_rankings(THREE_VOTERS)
    big = np.array([[0, 1]], dtype=np.uint64), np.array([[0, 2**64 - 1]], dtype=np.uint64)
    assert PreferenceProfile(*big).rho == ((0, 2**64 - 1),)
    with pytest.raises(ValueError, match="ranking of voter 1 is not a permutation"):
        PreferenceProfile.from_rankings(np.array([[0, 1], [1, 1]]))
    with pytest.raises(ValueError, match="rho row of voter 0 has a negative entry"):
        PreferenceProfile(np.array([[0, 1]]), np.array([[0, -1]]))
    with pytest.raises(ValueError, match="must be int or Fraction, got float"):
        PreferenceProfile(np.array([[0, 1]]), np.array([[0.5, 1.0]]))


def test_profiles_copy_the_callers_arrays():
    rank = np.array(THREE_VOTERS)
    rho = np.array(borda_misrepresentation(THREE_VOTERS))
    for profile in (PreferenceProfile(rank, rho), PreferenceProfile.from_rankings(rank)):
        assert rank.flags.writeable and rho.flags.writeable
        assert not np.shares_memory(profile.rank, rank)
        assert not np.shares_memory(profile.scaled, rho)
    rank[0, 0], rho[0, 0] = 9, 9  # the profiles keep their own values
    assert profile.rank[0, 0] == THREE_VOTERS[0][0] and profile.scaled[0, 0] == 0


def test_assignment_committee_is_derived():
    a = Assignment((1, 1, 0))
    assert a.committee == frozenset({0, 1})
    assert a.k_used == 2
    with pytest.raises(ValueError):
        Assignment((1, 1), frozenset({0, 1}))


def test_cost_both_objectives():
    profile = PreferenceProfile.from_rankings(THREE_VOTERS)
    a = Assignment((0, 0, 0))
    assert cost(profile, a, Objective.UTILITARIAN) == 3
    assert cost(profile, a, Objective.EGALITARIAN) == 2
    b = Assignment((1, 1, 1))
    assert cost(profile, b, Objective.UTILITARIAN) == 1
    c = Assignment((2, 2, 2))
    assert cost(profile, c, Objective.UTILITARIAN) == 5


def test_canonicalize_moves_each_voter_to_favorite_member():
    profile = PreferenceProfile.from_rankings(THREE_VOTERS)
    a = Assignment((2, 2, 2))
    canon = canonicalize(profile, Assignment((2, 0, 0)))
    # Committee {0, 2}: voter 0 keeps 0, voter 1 prefers 0, voter 2 prefers 2.
    assert canon.rep == (0, 0, 2)
    assert cost(profile, canon, Objective.UTILITARIAN) <= cost(profile, a, Objective.UTILITARIAN)


@st.composite
def profile_and_assignment(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    rankings = [tuple(draw(st.permutations(range(m)))) for _ in range(n)]
    rep = tuple(draw(st.integers(0, m - 1)) for _ in range(n))
    return PreferenceProfile.from_rankings(rankings), Assignment(rep)


def reference_canonicalize(profile, assignment):
    rep = []
    for ranking in profile.rankings:
        rep.append(next(c for c in ranking if c in assignment.committee))
    return Assignment(tuple(rep))


def reference_cost(profile, assignment, objective):
    values = [profile.rho[v][c] for v, c in enumerate(assignment.rep)]
    return sum(values) if objective is Objective.UTILITARIAN else max(values)


@given(rational_profile(), st.data())
def test_canonicalize_and_cost_match_the_loops(data, draw):
    rankings, rho = data
    profile = PreferenceProfile.from_rankings(rankings, rho)
    a = Assignment(tuple(draw.draw(st.integers(0, profile.m - 1)) for _ in range(profile.n)))
    assert canonicalize(profile, a) == reference_canonicalize(profile, a)
    for obj in Objective:
        got = cost(profile, a, obj)
        assert got == reference_cost(profile, a, obj)
        assert type(got) is (int if got.denominator == 1 else Fraction)  # integral totals are ints


@given(profile_and_assignment())
def test_canonicalize_idempotent_and_no_worse(pa):
    profile, a = pa
    canon = canonicalize(profile, a)
    assert canon.committee <= a.committee
    assert canonicalize(profile, canon) == canon
    for obj in Objective:
        assert cost(profile, canon, obj) <= cost(profile, a, obj)


def test_line_validates_order():
    assert Line((2, 0, 1)).n == 3
    with pytest.raises(ValueError):
        Line((0, 0, 1))
    with pytest.raises(ValueError):
        Line(())


def test_line_order_array_is_converted_once_and_read_only():
    line = Line((2, 0, 1))
    array = line.order_array
    assert array.tolist() == [2, 0, 1] and array.dtype == np.int64
    assert line.order_array is array  # every route on this line reuses it
    with pytest.raises(ValueError):
        array[0] = 1
    assert line == Line((2, 0, 1)) and hash(line) == hash(Line((2, 0, 1)))


def test_tree_from_parent_and_paths():
    #     0
    #    / \
    #   1   2
    #   |
    #   3
    tree = RootedTree.from_parent((None, 0, 0, 1), root=0)
    assert tree.child_order == ((1, 2), (3,), (), ())
    assert tree.depths() == [0, 1, 1, 2]
    assert tree.path(3, 2) == [3, 1, 0, 2]
    assert tree.path(2, 2) == [2]
    assert tree.path(0, 3) == [0, 1, 3]


def test_tree_paths_join_the_ancestor_chains():
    rng = np.random.default_rng(17)
    for n in (1, 2, 7, 30):
        perm = rng.permutation(n).tolist()
        parent = [None] * n
        for v in range(1, n):
            parent[perm[v]] = perm[int(rng.integers(v))]
        tree = RootedTree.from_parent(parent, perm[0])
        for u in range(n):
            for w in range(n):
                up_u, up_w = [u], [w]
                while up_u[-1] != tree.root:
                    up_u.append(tree.parent[up_u[-1]])
                while up_w[-1] != tree.root:
                    up_w.append(tree.parent[up_w[-1]])
                meet = next(x for x in up_u if x in up_w)
                expected = up_u[: up_u.index(meet) + 1] + up_w[: up_w.index(meet)][::-1]
                assert tree.path(u, w) == expected


@pytest.mark.parametrize(
    "parent,root",
    [
        ((1, None), 1),  # fine, exercised below for contrast
    ],
)
def test_tree_accepts_nonzero_root(parent, root):
    tree = RootedTree.from_parent(parent, root)
    assert tree.root == 1


def test_tree_rejects_cycles_and_orphans():
    unreachable = "^parent links leave vertices unreachable from the root$"
    with pytest.raises(NotATree, match=unreachable):
        RootedTree.from_parent((None, 2, 1), root=0)  # 1 <-> 2 cycle
    with pytest.raises(NotATree, match=unreachable):
        RootedTree((None, 2, 1, 0), 0, ((3,), (2,), (1,), ()))  # a cycle beside a reachable leaf
    with pytest.raises(NotATree, match="^vertex 2 needs a parent inside the tree$"):
        RootedTree.from_parent((None, 0, None), root=0)  # second root
    with pytest.raises(NotATree):
        RootedTree((None, 0), 0, ((), ()))  # child_order misses vertex 1


def test_tree_order_is_breadth_first_in_child_order():
    #       2
    #     / | \
    #    4  0  1      children of 2 listed as (4, 0, 1)
    #   /      |
    #  3       5
    tree = RootedTree((2, 2, None, 4, 2, 1), 2, ((), (5,), (4, 0, 1), (), (3,), ()))
    assert tree.order == (2, 4, 0, 1, 3, 5)  # the root, then each depth in child_order
    assert all(tree.order.index(tree.parent[v]) < tree.order.index(v) for v in tree.order[1:])
    assert tree.depths() == [1, 1, 0, 2, 1, 2]


def test_tree_order_is_derived_and_outside_value_semantics():
    tree = RootedTree.from_parent((None, 0, 0, 1), root=0)
    same = RootedTree.from_parent((None, 0, 0, 1), root=0)
    reordered = RootedTree((None, 0, 0, 1), 0, ((2, 1), (3,), (), ()))
    assert tree.order == (0, 1, 2, 3) and reordered.order == (0, 2, 1, 3)
    assert tree == same and hash(tree) == hash(same) and tree != reordered
    assert repr(tree) == (
        "RootedTree(parent=(None, 0, 0, 1), root=0, child_order=((1, 2), (3,), (), ()))"
    )
    with pytest.raises(TypeError):
        RootedTree((None, 0), 0, ((1,), ()), order=(0, 1))
    restored = pickle.loads(pickle.dumps(reordered))
    assert restored == reordered and restored.order == (0, 2, 1, 3)


def test_path_tree_constructs_in_linear_time():
    n = 100_000
    started = time.perf_counter()
    tree = RootedTree.from_parent((None,) + tuple(range(n - 1)), 0)
    elapsed = time.perf_counter() - started
    assert tree.child_order[n - 2] == (n - 1,)
    assert elapsed < 1.0, elapsed


def test_tree_rejects_child_order_mismatch_by_vertex():
    with pytest.raises(NotATree, match="child_order of vertex 0 does not match"):
        RootedTree((None, 0, 1), 0, ((1, 2), (), ()))
    with pytest.raises(NotATree, match="child_order of vertex 1 does not match"):
        RootedTree((None, 0, 1), 0, ((1,), (), (2,)))


def test_tree_child_order_defaults_to_the_parent_links_in_vertex_order():
    parent = (2, 2, None, 4, 2, 1)
    default = RootedTree(parent, 2)
    built = RootedTree.from_parent(parent, 2)
    explicit = RootedTree(parent, 2, ((), (5,), (0, 1, 4), (), (3,), ()))
    for tree in (built, explicit):
        assert tree == default and hash(tree) == hash(default)
        assert repr(tree) == repr(default) and tree.order == default.order
    assert default.child_order == ((), (5,), (0, 1, 4), (), (3,), ())
    assert default.order == (2, 0, 1, 4, 5, 3)


@pytest.mark.parametrize("parent", [(None, 5), (None, -1), (None, 0.0), (None, 0.5)])
def test_tree_parent_outside_the_tree_or_not_an_integer_is_refused(parent):
    with pytest.raises(NotATree, match="^vertex 1 needs a parent inside the tree$"):
        RootedTree.from_parent(parent, 0)


def test_tree_root_must_be_an_integer_vertex():
    with pytest.raises(NotATree, match="^root must be the unique vertex without a parent$"):
        RootedTree.from_parent((None, 0), 0.0)


def test_ids_may_be_numpy_integers():
    tree = RootedTree.from_parent((None, np.int64(0), np.int32(1)), np.int64(0))
    assert tree == RootedTree.from_parent((None, 0, 1), 0) and tree.order == (0, 1, 2)
    assert Line(tuple(np.arange(3)[::-1])).order == (2, 1, 0)
    profile = PreferenceProfile.from_rankings([[np.int64(1), np.int8(0)], [0, 1]])
    assert profile.rankings == ((1, 0), (0, 1))


@pytest.mark.parametrize(
    "build",
    [
        lambda: PreferenceProfile.from_rankings([[0, 1.0], [1.0, 0]]),
        lambda: PreferenceProfile.from_rankings(np.array([[0.0, 1.0]])),
        lambda: PreferenceProfile.from_rankings([[0, Fraction(1)]]),
        lambda: PreferenceProfile([[0, 1.0], [1.0, 0]], [[0, 1], [1, 0]]),
    ],
    ids=["list", "float-array", "fraction", "with-rho"],
)
def test_profile_refuses_non_integer_candidate_ids(build):
    with pytest.raises(ValueError, match="^ranking of voter 0 is not a permutation of 0..1$"):
        build()


def test_line_refuses_non_integer_voter_ids():
    with pytest.raises(ValueError, match="non-empty permutation of the voters"):
        Line((0, 1.0))


def test_grid_indexing_roundtrip():
    g = Grid(2, 3)
    assert g.n == 6
    assert [g.coords(g.index(i, j)) for i in range(2) for j in range(3)] == [
        (i, j) for i in range(2) for j in range(3)
    ]
    with pytest.raises(ValueError):
        Grid(0, 3)


def test_normalize_to_root_order_line():
    rankings = ((2, 0, 1), (0, 2, 1), (0, 1, 2))
    profile = PreferenceProfile.from_rankings(rankings)
    line = Line((0, 1, 2))
    norm, inverse = normalize_to_root_order(profile, line)
    assert inverse == (2, 0, 1)
    assert norm.rankings[0] == (0, 1, 2)
    # Relabeled rho still scores the same underlying candidates.
    for v in range(3):
        for c in range(3):
            assert norm.rho[v][c] == profile.rho[v][inverse[c]]
    # inverse maps each relabeled ranking back to the voter's own
    assert [tuple(inverse[c] for c in r) for r in norm.rankings] == list(profile.rankings)


def test_normalize_reference_voter_per_structure():
    rankings = ((0, 1), (1, 0))
    profile = PreferenceProfile.from_rankings(rankings)
    norm_line, inv_line = normalize_to_root_order(profile, Line((1, 0)))
    assert inv_line == (1, 0)  # voter 1 leads the line
    norm_tree, inv_tree = normalize_to_root_order(profile, RootedTree.from_parent((1, None), 1))
    assert inv_tree == (1, 0)
    norm_grid, inv_grid = normalize_to_root_order(profile, Grid(1, 2))
    assert inv_grid == (0, 1)  # top-left cell is voter 0


def test_solve_result_factory():
    profile = PreferenceProfile.from_rankings(THREE_VOTERS)
    a = Assignment((0, 1, 1))
    res = SolveResult.from_assignment(profile, a, "line-dp", {"iterations": 7})
    assert res.total_cost == 0 and res.egal_cost == 0
    assert res.k_used == 2
    assert res.algorithm == "line-dp"
    assert res.stats == {"iterations": 7}


def test_solve_result_from_committee_puts_voters_on_their_favorites():
    profile = PreferenceProfile.from_rankings(THREE_VOTERS)
    res = SolveResult.from_committee(profile, {2, 0}, "tree-dp", {"l_star": 2})
    # voters 0 and 1 rank 0 above 2, voter 2 ranks 2 above 0
    assert res.assignment.rep == (0, 0, 2)
    assert res.assignment.committee == frozenset({0, 2}) and res.k_used == 2
    assert res.algorithm == "tree-dp" and res.stats == {"l_star": 2}
    assert res.total_cost == cost(profile, res.assignment, Objective.UTILITARIAN) == 2
    assert res.egal_cost == cost(profile, res.assignment, Objective.EGALITARIAN) == 1
    # a member nobody prefers drops out: every voter ranks 1 above 2
    full = SolveResult.from_committee(profile, {0, 1, 2}, "line-dp")
    assert full.assignment.rep == (0, 1, 1) and full.k_used == 2
    assert (full.total_cost, full.egal_cost) == (0, 0)
    assert SolveResult.from_committee(profile, {1, 2}, "line-dp").assignment.rep == (1, 1, 1)

