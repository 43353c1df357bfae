"""Line solver tests: weight table, Monge checker, matrix search, DP, and
the Lagrangian route, each against an independent reference."""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccwinner.core import (
    Line,
    Objective,
    PreferenceProfile,
    cost,
    normalize_to_root_order,
)
from ccwinner.errors import InvalidK, NotSingleCrossing
from ccwinner.generators import gen_sc_line
from ccwinner.line_solver import (
    KLinkInstance,
    build_prefix_sums,
    check_concave_monge,
    merge_identical_voters,
    omega,
    smawk_min_links,
    solve_line_dp,
    solve_line_egal_threshold,
    solve_line_klink,
)
from ccwinner.oracle import brute_force

THREE = PreferenceProfile.from_rankings(((0, 1, 2), (1, 0, 2), (1, 2, 0)))
THREE_LINE = Line((0, 1, 2))


# ---------------------------------------------------------------------------
# prefix sums and omega


def test_prefix_sums_single_voter():
    profile = PreferenceProfile.from_rankings(((1, 0, 2),))
    prefix = build_prefix_sums(profile, Line((0,)))
    assert [tuple(prefix.table[c]) for c in range(3)] == [(0, 1), (0, 0), (0, 2)]


def test_prefix_sums_last_column_is_the_total():
    profile, line = gen_sc_line(seed=3, n=9, m=5)
    prefix = build_prefix_sums(profile, line)
    for c in range(profile.m):
        assert prefix.table[c][-1] == sum(row[c] for row in profile.rho)


@given(st.integers(0, 10**6), st.integers(2, 10), st.integers(2, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_segment_sums_match_direct_summation(seed, n, m, data):
    profile, line = gen_sc_line(seed, n, m)
    prefix = build_prefix_sums(profile, line)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(i + 1, n))
    w, c = omega(prefix, i, j)
    direct = [
        sum(profile.rho[line.order[p]][cand] for p in range(i, j))
        for cand in range(m)
    ]
    assert w == min(direct)
    assert c == direct.index(min(direct))  # smallest candidate wins ties


def test_omega_frozen_three_voter_values():
    prefix = build_prefix_sums(THREE, THREE_LINE)
    assert omega(prefix, 0, 3) == (1, 1)
    for i in range(3):  # every single voter has a zero-misrepresentation top
        assert omega(prefix, i, i + 1)[0] == 0


def test_omega_identical_voters_scale_with_length():
    profile = PreferenceProfile.from_rankings(((2, 0, 1),) * 4)
    prefix = build_prefix_sums(profile, Line((0, 1, 2, 3)))
    assert omega(prefix, 0, 4) == (0, 2)
    assert omega(prefix, 1, 3) == (0, 2)


def test_omega_rejects_bad_ranges():
    prefix = build_prefix_sums(THREE, THREE_LINE)
    for i, j in [(-1, 2), (2, 2), (3, 2), (0, 4)]:
        with pytest.raises(ValueError):
            omega(prefix, i, j)


# ---------------------------------------------------------------------------
# concave Monge


def test_monge_holds_on_generated_instances():
    for seed in range(100):
        profile, line = gen_sc_line(seed, n=4 + seed % 9, m=2 + seed % 5)
        assert check_concave_monge(build_prefix_sums(profile, line)) is None


def test_monge_violation_on_a_double_crossing_profile():
    # A, B, A, B alternation crosses the pair twice; the checker must notice.
    a, b = (0, 1), (1, 0)
    profile = PreferenceProfile.from_rankings((a, b, a, b))
    prefix = build_prefix_sums(profile, Line((0, 1, 2, 3)))
    assert check_concave_monge(prefix) == (0, 2)


def loop_concave_monge(prefix):
    """The checker as a pairwise loop over (i, j), the reference for the array version."""
    for i in range(prefix.n - 2):
        for j in range(i + 2, prefix.n):
            lhs = omega(prefix, i, j)[0] + omega(prefix, i + 1, j + 1)[0]
            rhs = omega(prefix, i, j + 1)[0] + omega(prefix, i + 1, j)[0]
            if lhs > rhs:
                return (i, j)
    return None


def test_monge_checker_matches_the_pairwise_loop():
    violations = 0
    for seed in range(200):
        rng = random.Random(seed)
        n, m = rng.randint(1, 14), rng.randint(1, 5)
        profile, line = gen_sc_line(seed, n, m, shuffle_voters=seed % 3 == 0)
        if seed % 2:  # random rankings: mostly not single-crossing
            rankings = [tuple(rng.sample(range(m), m)) for _ in range(n)]
            rho = [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
            if seed % 4 == 1:
                rho = [[Fraction(x, 1 + v % 3) for x in row] for v, row in enumerate(rho)]
            elif seed % 8 == 3:
                rho = [[x << 70 for x in row] for row in rho]  # object prefix table
            profile = PreferenceProfile(rankings, rho)
        prefix = build_prefix_sums(profile, line)
        got = check_concave_monge(prefix)
        assert got == loop_concave_monge(prefix), seed
        violations += got is not None
    assert 20 < violations < 100  # both outcomes exercised


@pytest.mark.parametrize("n", [1, 2, 3])
def test_monge_tiny_instances_ok(n):
    profile, line = gen_sc_line(seed=1, n=n, m=4)
    assert check_concave_monge(build_prefix_sums(profile, line)) is None


# ---------------------------------------------------------------------------
# penalized matrix search


def quad_penalized(prefix, lam, most_links=False):
    """O(n^2) reference for the penalized minimum and its link tie-break."""
    sign = -1 if most_links else 1
    best = [(0, 0)]
    for j in range(1, prefix.n + 1):
        best.append(
            min(
                (best[i][0] + omega(prefix, i, j)[0] + lam, best[i][1] + sign)
                for i in range(j)
            )
        )
    total, links = best[prefix.n]
    return total, sign * links


def path_weight(prefix, path):
    return sum(omega(prefix, u, v)[0] for u, v in zip(path, path[1:]))


@pytest.mark.parametrize("most", [False, True])
def test_smawk_matches_quadratic_reference(most):
    for seed in range(60):
        profile, line = gen_sc_line(seed, n=3 + seed % 12, m=2 + seed % 5)
        prefix = build_prefix_sums(profile, line)
        klink = KLinkInstance(prefix)
        top = max(max(row) for row in profile.rho)
        for lam in (0, 1, 2, 5, profile.n * top + 1):
            total, links, path = smawk_min_links(klink, lam, most_links=most)
            assert (total, links) == quad_penalized(prefix, lam, most_links=most)
            assert len(path) - 1 == links
            assert path_weight(prefix, path) + lam * links == total


def test_smawk_huge_penalty_takes_one_arc():
    profile, line = gen_sc_line(seed=8, n=10, m=4)
    prefix = build_prefix_sums(profile, line)
    top = max(max(row) for row in profile.rho)
    total, links, path = smawk_min_links(KLinkInstance(prefix), profile.n * top + 1)
    assert links == 1 and path == (0, profile.n)


def test_smawk_zero_penalty_borda_allows_all_singletons():
    profile, line = gen_sc_line(seed=21, n=8, m=4)
    klink = KLinkInstance(build_prefix_sums(profile, line))
    total, links, _ = smawk_min_links(klink, 0, most_links=True)
    assert total == 0  # every voter's top costs nothing under Borda
    assert links == profile.n


def test_optimal_link_counts_form_an_interval():
    # Exhaustive over all segmentations: at any fixed penalty the set of
    # optimal link counts is contiguous and smawk's two passes bracket it.
    for seed in range(40):
        n = 3 + seed % 5
        profile, line = gen_sc_line(seed, n=n, m=2 + seed % 4)
        prefix = build_prefix_sums(profile, line)
        klink = KLinkInstance(prefix)
        g = {}
        for cuts in range(1 << (n - 1)):
            path = [0] + [p + 1 for p in range(n - 1) if cuts >> p & 1] + [n]
            w = path_weight(prefix, path)
            links = len(path) - 1
            g[links] = min(w, g.get(links, w))
        top = max(max(row) for row in profile.rho)
        for lam in range(n * top + 2):
            h = min(g[l] + lam * l for l in g)
            tight = [l for l in sorted(g) if g[l] + lam * l == h]
            assert tight == list(range(tight[0], tight[-1] + 1))
            assert smawk_min_links(klink, lam)[1] == tight[0]
            assert smawk_min_links(klink, lam, most_links=True)[1] == tight[-1]


# ---------------------------------------------------------------------------
# the nmk dynamic program


def blocks_of(res, order):
    reps = [res.assignment.rep[v] for v in order]
    out = []
    for pos, r in enumerate(reps):
        if out and out[-1][2] == r:
            out[-1][1] = pos
        else:
            out.append([pos, pos, r])
    return out


def test_dp_frozen_three_voter_example():
    res1 = solve_line_dp(THREE, THREE_LINE, k=1)
    assert res1.total_cost == 1
    assert res1.assignment.committee == frozenset({1})
    res2 = solve_line_dp(THREE, THREE_LINE, k=2)
    assert res2.total_cost == 0
    assert res2.assignment.committee == frozenset({0, 1})


def test_dp_full_committee_is_free_under_borda():
    for seed in range(10):
        profile, line = gen_sc_line(seed, n=6, m=4)
        assert solve_line_dp(profile, line, k=profile.m).total_cost == 0


def test_dp_committee_bound_may_exceed_m():
    res = solve_line_dp(THREE, THREE_LINE, k=50)
    assert res.total_cost == 0
    assert res.k_used <= THREE.m


def test_dp_rejects_nonpositive_k():
    with pytest.raises(InvalidK):
        solve_line_dp(THREE, THREE_LINE, k=0)


@pytest.mark.parametrize("objective", [Objective.UTILITARIAN, Objective.EGALITARIAN])
def test_dp_matches_the_oracle(objective):
    for seed in range(80):
        n, m, k = 2 + seed % 7, 2 + seed % 5, 1 + seed % 4
        profile, line = gen_sc_line(seed, n, m, shuffle_voters=seed % 3 == 0)
        got = solve_line_dp(profile, line, k, objective)
        want = brute_force(profile, k, objective)
        key = "egal_cost" if objective is Objective.EGALITARIAN else "total_cost"
        assert getattr(got, key) == getattr(want, key), (seed, n, m, k)
        assert got.k_used <= k
        assert cost(profile, got.assignment, objective) == getattr(want, key)


def test_dp_cost_nonincreasing_in_k():
    for seed in range(20):
        profile, line = gen_sc_line(seed, n=8, m=5)
        costs = [solve_line_dp(profile, line, k).total_cost for k in range(1, 7)]
        assert costs == sorted(costs, reverse=True)


def test_dp_canonical_blocks_are_contiguous_and_tight():
    for seed in range(40):
        n, m, k = 3 + seed % 8, 2 + seed % 5, 1 + seed % 4
        profile, line = gen_sc_line(seed, n, m)
        res = solve_line_dp(profile, line, k)
        blocks = blocks_of(res, line.order)
        assert len(blocks) <= k
        # in normalized labels the representative sequence is nondecreasing
        _, inverse = normalize_to_root_order(profile, line)
        to_new = {old: new for new, old in enumerate(inverse)}
        seq = [to_new[b[2]] for b in blocks]
        assert seq == sorted(seq)
        # each block is served as cheaply as any single candidate could
        prefix = build_prefix_sums(profile, line)
        for lo, hi, r in blocks:
            got = sum(profile.rho[line.order[p]][r] for p in range(lo, hi + 1))
            assert got == omega(prefix, lo, hi + 1)[0]


def test_dp_exact_engine_agrees_across_integer_tiers():
    for seed in range(25):
        profile, line = gen_sc_line(seed, n=7, m=4)
        k = 1 + seed % 4
        for objective in Objective:
            fast = solve_line_dp(profile, line, k, objective)
            assert fast.stats["engine"] == "int16"
            # adding one half to every rho shifts all segment sums uniformly,
            # so the optimal assignment and every tie-break must be unchanged
            shifted = PreferenceProfile(
                profile.rankings,
                tuple(tuple(x + Fraction(1, 2) for x in row) for row in profile.rho),
            )
            assert shifted.scale == 2
            slow = solve_line_dp(shifted, line, k, objective)
            assert slow.assignment == fast.assignment
            assert slow.total_cost == fast.total_cost + Fraction(profile.n, 2)
            assert slow.egal_cost == fast.egal_cost + Fraction(1, 2)
            # 2**50 stays inside the int64 guard, 2**70 runs the same array
            # code on Python ints
            for shift, engine in ((50, "int64"), (70, "object")):
                big = PreferenceProfile(
                    profile.rankings,
                    tuple(tuple(x << shift for x in row) for row in profile.rho),
                )
                huge = solve_line_dp(big, line, k, objective)
                assert huge.stats["engine"] == engine
                assert huge.assignment == fast.assignment
                assert huge.total_cost == fast.total_cost << shift
                assert huge.egal_cost == fast.egal_cost << shift
                assert type(huge.total_cost) is int and type(huge.egal_cost) is int


def test_costs_and_reported_values_are_python_numbers():
    profile, line = gen_sc_line(seed=4, n=12, m=5)
    thirds = PreferenceProfile(
        profile.rankings, tuple(tuple(Fraction(x, 3) for x in row) for row in profile.rho)
    )
    exact = (int, Fraction)
    for solve in (solve_line_dp, solve_line_klink, solve_line_egal_threshold):
        whole = solve(profile, line, 1)
        third = solve(thirds, line, 1)
        assert third.assignment == whole.assignment
        assert type(whole.total_cost) is int and type(whole.egal_cost) is int
        assert type(third.total_cost) in exact and type(third.egal_cost) in exact
        assert third.total_cost == Fraction(whole.total_cost, 3)
        assert third.egal_cost == Fraction(whole.egal_cost, 3)
        for key in ("lambda", "threshold"):
            if key in whole.stats:
                assert type(whole.stats[key]) is int and type(third.stats[key]) in exact
                assert third.stats[key] == Fraction(whole.stats[key], 3)


# ---------------------------------------------------------------------------
# Lagrangian route


def test_klink_frozen_example_and_singleton_budget():
    assert solve_line_klink(THREE, THREE_LINE, k=2).total_cost == 0
    profile, line = gen_sc_line(seed=5, n=9, m=4)
    assert solve_line_klink(profile, line, k=profile.n).total_cost == 0


def test_klink_solves_scaled_rationals_exactly():
    fractional = PreferenceProfile(
        THREE.rankings,
        tuple(tuple(Fraction(x, 3) for x in row) for row in THREE.rho),
    )
    assert solve_line_klink(fractional, THREE_LINE, k=1).total_cost == Fraction(1, 3)
    for seed in range(60):
        rng = random.Random(seed)
        n, m, k = 2 + seed % 14, 2 + seed % 6, 1 + seed % 5
        profile, line = gen_sc_line(seed, n, m, shuffle_voters=seed % 4 == 0)
        # random rationals, nondecreasing along each ranking: consistent rho
        rho = []
        for ranking in profile.rankings:
            values = sorted(Fraction(rng.randint(0, 20), rng.randint(1, 6)) for _ in range(m))
            row = [0] * m
            for p, c in enumerate(ranking):
                row[c] = values[p]
            rho.append(tuple(row))
        rational = PreferenceProfile(profile.rankings, tuple(rho))
        got = solve_line_klink(rational, line, k)
        want = solve_line_dp(rational, line, k)
        assert got.total_cost == want.total_cost, (seed, n, m, k)
        assert got.stats["lower_bound"] == got.total_cost  # the Lagrangian certificate
        assert got.k_used <= k


@pytest.mark.parametrize(
    "rankings",
    [
        ((0, 1), (1, 0), (0, 1)),  # the exactly-k walk finds no tight arc
        ((0, 1, 2), (2, 0, 1), (2, 1, 0), (0, 1, 2)),  # the link interval skips k
    ],
)
def test_klink_raises_a_typed_error_on_a_mislabeled_line(rankings):
    profile = PreferenceProfile.from_rankings(rankings)
    with pytest.raises(NotSingleCrossing):
        solve_line_klink(profile, Line(tuple(range(len(rankings)))), k=2)


def test_klink_matches_the_dp():
    for seed in range(120):
        n, m, k = 2 + seed % 14, 2 + seed % 6, 1 + seed % 5
        profile, line = gen_sc_line(seed, n, m, shuffle_voters=seed % 4 == 0)
        got = solve_line_klink(profile, line, k)
        want = solve_line_dp(profile, line, k)
        assert got.total_cost == want.total_cost, (seed, n, m, k)
        assert got.stats["lower_bound"] == got.total_cost  # the Lagrangian certificate
        assert got.k_used <= k


def test_klink_synthesis_on_a_forced_plateau():
    # three top-choice runs but budget two: the zero-penalty shortcut cannot
    # fire, so this exercises the Lagrangian search and the exact-k walk
    profile = PreferenceProfile.from_rankings(
        ((0, 1, 2), (0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0), (2, 0, 1))
    )
    line = Line(tuple(range(6)))
    klink_res = solve_line_klink(profile, line, k=2)
    dp_res = solve_line_dp(profile, line, k=2)
    assert klink_res.stats["lambda"] > 0
    assert klink_res.total_cost == dp_res.total_cost == klink_res.stats["lower_bound"]
    assert klink_res.k_used <= 2


# ---------------------------------------------------------------------------
# egalitarian


def test_egal_threshold_frozen_example():
    res = solve_line_egal_threshold(THREE, THREE_LINE, k=1)
    assert res.egal_cost == 1
    assert res.stats["threshold"] == 1


def test_egal_threshold_full_committee_is_free():
    profile, line = gen_sc_line(seed=13, n=7, m=4)
    assert solve_line_egal_threshold(profile, line, k=profile.m).egal_cost == 0


def test_egal_threshold_matches_maxdp_and_oracle():
    for seed in range(60):
        n, m, k = 2 + seed % 7, 2 + seed % 5, 1 + seed % 4
        profile, line = gen_sc_line(seed, n, m)
        thr = solve_line_egal_threshold(profile, line, k)
        maxdp = solve_line_dp(profile, line, k, Objective.EGALITARIAN)
        want = brute_force(profile, k, Objective.EGALITARIAN)
        assert thr.egal_cost == maxdp.egal_cost == want.egal_cost, (seed, n, m, k)
        assert thr.stats["threshold"] == thr.egal_cost


def reference_egal_threshold(profile, line, k):
    """The least feasible threshold by a scan of the distinct rho values, and its 0/1 witness.

    Threshold t is feasible when the voters, in line order, split into at
    most min(k, n) contiguous blocks whose candidates rise strictly in the
    first voter's ranking, each paying rho <= t on its block: the committees
    the line DP ranges over, single-crossing or not. The count of blocks is
    a plain O(n m^2) recurrence; the witness is the utilitarian line DP's
    answer on the 0/1 profile (rho > t).
    """
    first = profile.rankings[line.order[0]]
    m = profile.m

    def feasible(t):
        blocks = [1 if profile.rho[line.order[0]][c] <= t else math.inf for c in first]
        for v in line.order[1:]:
            opened = [min(blocks[:i], default=math.inf) + 1 for i in range(m)]
            blocks = [min(blocks[i], opened[i]) if profile.rho[v][c] <= t else math.inf
                      for i, c in enumerate(first)]
        return min(blocks) <= min(k, profile.n)

    threshold = next(t for t in sorted({x for row in profile.rho for x in row}) if feasible(t))
    rho01 = [[int(x > threshold) for x in row] for row in profile.rho]
    witness = solve_line_dp(PreferenceProfile(profile.rankings, rho01), line, k).assignment
    return threshold, witness


def threshold_instance(seed):
    """A line with tie-heavy, Borda, rational or 2**70-scaled rho; every third is single-crossing."""
    rng = random.Random(seed)
    n, m, k = rng.randint(1, 14), rng.randint(1, 6), rng.randint(1, 5)
    if seed % 3 == 0:
        profile, line = gen_sc_line(seed, n, m, max_swaps=rng.randint(0, 5))
        rankings = profile.rankings
    else:  # random rankings: not single-crossing on the line, as a rule
        rankings = [tuple(rng.sample(range(m), m)) for _ in range(n)]
        line = Line(tuple(rng.sample(range(n), n)))
    draw = [
        lambda: [0] * m,
        lambda: range(m),
        lambda: [rng.choice((0, 0, 1, 3)) for _ in range(m)],
        lambda: [Fraction(rng.randint(0, 20), rng.choice((3, 7, 11))) for _ in range(m)],
        lambda: [rng.randint(0, 5) << 70 for _ in range(m)],
    ][seed % 5]
    rho = []
    for ranking in rankings:
        values = sorted(draw())
        row = [0] * m
        for p, c in enumerate(ranking):
            row[c] = values[p]
        rho.append(row)
    return PreferenceProfile(rankings, rho), line, k


def test_egal_threshold_matches_the_threshold_search_with_two_dps():
    for seed in range(250):
        profile, line, k = threshold_instance(seed)
        got = solve_line_egal_threshold(profile, line, k)
        threshold, witness = reference_egal_threshold(profile, line, k)
        assert got.stats["threshold"] == threshold, seed
        assert got.assignment == witness, seed
        assert got.total_cost == cost(profile, witness, Objective.UTILITARIAN), seed
        assert got.egal_cost == cost(profile, witness, Objective.EGALITARIAN), seed
        assert got.stats["dp_calls"] == 2, seed


# ---------------------------------------------------------------------------
# merging identical adjacent voters


def test_merge_runs_of_identical_neighbours():
    a, b, c = (0, 1, 2), (1, 0, 2), (1, 2, 0)
    rho = [[v, 2 * v, 3 * v] for v in range(7)]
    # line order 6, 0, 5, 1, 2, 3, 4 reads a a a b b a c
    rankings = [a, b, b, a, c, a, a]
    profile = PreferenceProfile(rankings, rho)
    line = Line((6, 0, 5, 1, 2, 3, 4))
    merged = merge_identical_voters(profile, line)
    # the second a-run is not adjacent to the first: it stays its own voter
    assert merged.rankings == (a, b, a, c)
    assert merged.rho == ((11, 22, 33), (3, 6, 9), (3, 6, 9), (4, 8, 12))
    egal = merge_identical_voters(profile, line, Objective.EGALITARIAN)
    assert egal.rankings == merged.rankings
    assert egal.rho == ((6, 12, 18), (2, 4, 6), (3, 6, 9), (4, 8, 12))


def test_merge_sums_past_the_int64_range():
    # each row fits int64; the sum of 16 identical rows does not
    runs = ((0, 1, 2, 3),) * 16 + ((1, 0, 2, 3),) * 17 + ((1, 2, 0, 3),) * 3
    borda = PreferenceProfile.from_rankings(runs)
    big = PreferenceProfile(runs, [[x << 60 for x in row] for row in borda.rho])
    assert big.scaled.dtype == np.int64
    line = Line(tuple(range(len(runs))))
    merged = merge_identical_voters(big, line)
    assert merged.scaled.dtype == object
    assert merged.rho[0] == tuple((x * 16) << 60 for x in borda.rho[0])
    egal = merge_identical_voters(big, line, Objective.EGALITARIAN)
    assert egal.scaled.dtype == np.int64 and egal.rho[0] == big.rho[0]
