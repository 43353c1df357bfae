"""Generator soundness gates, determinism, and pinned constructions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccwinner.core import Grid, Line
from ccwinner.errors import InvalidN, RejectionBudgetExceeded
from ccwinner.generators import gen_sc_grid, gen_sc_line, gen_sc_tree, gen_star_instance
from ccwinner.oracle import brute_force
from ccwinner.validation import (
    check_consistency,
    check_sc_grid,
    check_sc_line,
    check_sc_tree,
)


# ---------------------------------------------------------------------------
# line


def test_line_zero_swaps_gives_identical_identity_rankings():
    profile, line = gen_sc_line(seed=7, n=5, m=4, max_swaps=0)
    assert profile.rankings == ((0, 1, 2, 3),) * 5
    assert line.order == (0, 1, 2, 3, 4)


def test_line_full_word_even_spacing_spans_identity_to_reversal():
    m = 4
    full = m * (m - 1) // 2
    profile, _ = gen_sc_line(seed=11, n=full + 1, m=m, max_swaps=full, even_spacing=True)
    assert profile.rankings[0] == (0, 1, 2, 3)
    assert profile.rankings[-1] == (3, 2, 1, 0)
    # one swap per voter along the line
    for a, b in zip(profile.rankings, profile.rankings[1:]):
        assert sum(x != y for x, y in zip(a, b)) == 2


def test_line_determinism_and_seed_sensitivity():
    a1 = gen_sc_line(seed=123, n=8, m=5)
    a2 = gen_sc_line(seed=123, n=8, m=5)
    assert a1 == a2
    assert any(gen_sc_line(seed=s, n=8, m=5) != a1 for s in range(124, 130))


def test_line_shuffle_voters_keeps_single_crossing_order():
    profile, line = gen_sc_line(seed=42, n=9, m=5, shuffle_voters=True)
    assert sorted(line.order) == list(range(9))
    assert line.order != tuple(range(9))  # seed chosen so the shuffle moves someone
    assert check_sc_line(profile, line) is None


@given(st.integers(0, 10**9), st.integers(1, 10), st.integers(1, 6), st.booleans())
@settings(max_examples=150, deadline=None)
def test_line_outputs_always_pass_the_checker(seed, n, m, shuffle):
    profile, line = gen_sc_line(seed, n, m, shuffle_voters=shuffle)
    assert check_consistency(profile) is None
    assert check_sc_line(profile, line) is None


def test_line_rejects_empty_dimensions():
    with pytest.raises(InvalidN):
        gen_sc_line(seed=0, n=0, m=3)
    with pytest.raises(InvalidN):
        gen_sc_line(seed=0, n=3, m=0)


@pytest.mark.parametrize(
    "generate",
    [
        lambda: gen_sc_line(0, 5, 3, max_swaps=-1),
        lambda: gen_sc_tree(0, 5, 3, max_edge_swaps=-1),
        lambda: gen_sc_grid(0, 2, 3, 3, mode="rejection", edits=-1),
    ],
    ids=["line max_swaps", "tree max_edge_swaps", "grid edits"],
)
def test_negative_counts_are_refused(generate):
    with pytest.raises(InvalidN, match=">= 0, got -1"):
        generate()


# ---------------------------------------------------------------------------
# tree


@given(st.integers(0, 10**9), st.integers(1, 12), st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_tree_outputs_always_pass_the_checker(seed, n, m):
    profile, tree = gen_sc_tree(seed, n, m)
    assert check_consistency(profile) is None
    assert check_sc_tree(profile, tree) is None


def test_tree_determinism():
    assert gen_sc_tree(seed=5, n=10, m=5) == gen_sc_tree(seed=5, n=10, m=5)


def test_tree_zero_edge_swaps_gives_identical_rankings():
    profile, _ = gen_sc_tree(seed=3, n=7, m=4, max_edge_swaps=0)
    assert set(profile.rankings) == {(0, 1, 2, 3)}


def test_tree_path_shapes_are_single_crossing_on_the_path():
    # When the random tree happens to be a path rooted at an end, the
    # construction degenerates to the line one; check the line checker agrees.
    n, found = 4, 0
    for seed in range(200):
        profile, tree = gen_sc_tree(seed, n, m=5)
        if all(len(ch) <= 1 for ch in tree.child_order) and tree.parent[1:] == tuple(
            range(n - 1)
        ):
            assert check_sc_line(profile, Line(tuple(range(n)))) is None
            found += 1
    assert found >= 5


# ---------------------------------------------------------------------------
# star


def test_star_five_voters_matches_the_known_table():
    profile, tree = gen_star_instance(5)
    assert profile.rankings == (
        (0, 1, 2, 3, 4),
        (1, 0, 2, 3, 4),
        (2, 0, 1, 3, 4),
        (3, 0, 1, 2, 4),
        (4, 0, 1, 2, 3),
    )
    assert tree.parent == (None, 0, 0, 0, 0)
    assert tree.root == 0


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_star_is_single_crossing_on_the_star(n):
    profile, tree = gen_star_instance(n)
    assert profile.m == n
    assert check_sc_tree(profile, tree) is None


def test_star_five_single_winner_cost():
    profile, _ = gen_star_instance(5)
    result = brute_force(profile, k=1)
    assert result.total_cost == 4
    assert result.assignment.committee == frozenset({0})


def test_star_needs_at_least_two_voters():
    with pytest.raises(InvalidN):
        gen_star_instance(1)


# ---------------------------------------------------------------------------
# grid


@given(st.integers(0, 10**9), st.integers(1, 4), st.integers(1, 4), st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_grid_axis_outputs_always_pass_the_checker(seed, n1, n2, m):
    profile, grid = gen_sc_grid(seed, n1, n2, m)
    assert profile.n == n1 * n2
    assert check_consistency(profile) is None
    assert check_sc_grid(profile, grid) is None


def test_grid_rejection_outputs_pass_the_checker():
    for seed in range(40):
        profile, grid = gen_sc_grid(seed, 3, 3, 5, mode="rejection")
        assert check_sc_grid(profile, grid) is None


def test_grid_rejection_determinism():
    a = gen_sc_grid(seed=9, n1=3, n2=4, m=5, mode="rejection")
    b = gen_sc_grid(seed=9, n1=3, n2=4, m=5, mode="rejection")
    assert a == b


def test_grid_rejection_edits_change_the_axis_instance():
    base, _ = gen_sc_grid(seed=17, n1=3, n2=3, m=5)
    edited, _ = gen_sc_grid(seed=17, n1=3, n2=3, m=5, mode="rejection", edits=3)
    assert base != edited


def test_grid_rejection_budget_error():
    with pytest.raises(RejectionBudgetExceeded):
        gen_sc_grid(seed=1, n1=2, n2=2, m=4, mode="rejection", edits=5, max_attempts=0)


def test_grid_degenerate_rows_match_the_line_generator():
    lp, _ = gen_sc_line(seed=31, n=6, m=5)
    gp_row, grid_row = gen_sc_grid(seed=31, n1=1, n2=6, m=5)
    gp_col, grid_col = gen_sc_grid(seed=31, n1=6, n2=1, m=5)
    assert gp_row == lp and gp_col == lp
    assert (grid_row.n1, grid_row.n2) == (1, 6)
    assert (grid_col.n1, grid_col.n2) == (6, 1)


def test_grid_single_candidate_is_constant():
    profile, _ = gen_sc_grid(seed=2, n1=3, n2=3, m=1)
    assert set(profile.rankings) == {(0,)}


def test_grid_unknown_mode_rejected():
    with pytest.raises(ValueError):
        gen_sc_grid(seed=0, n1=2, n2=2, m=3, mode="diagonal")
