"""The line DP engine against the engine it replaced.

``reference_dp_step``, ``reference_dp_base``, ``reference_record_segment``
and ``reference_dp_engine`` are the earlier implementation, kept as it was:
the last voter is a base case with zero choice bits, and the walk skips the
choice bits of the last voter. Starting every sweep from the state past the
last voter must give the same representatives, committee size and engine on
every input, ties included, for both objectives; the egalitarian threshold
read from the value sweep must equal the largest value the max-objective
walk pays. Both sides of the bit budget are checked: one sweep that records
every voter's walk bits, and checkpoint segments re-swept one at a time
(``_BIT_BUDGET`` patched to 0). The reference runs on the unreversed
candidate axis and packs each voter's bits on its own, so patching
``_PACK_BLOCK`` to sizes that do and do not divide the recorded voters
checks that every packed block lands in the rows of its voters.

The plane-major section checks the utilitarian sweep that runs plane by
plane over tiles of voters against the voter loop, bit for bit, and which
solves take which loop.

The k-link section below keeps the earlier lazy online-minima chain the
same way and checks the eager loop against it.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ccwinner import line_solver
from ccwinner.core import (
    Assignment,
    Line,
    Objective,
    PreferenceProfile,
    SolveResult,
    canonicalize,
    int_dtype,
    to_rho_units,
)
from ccwinner.errors import NotSingleCrossing
from ccwinner.generators import gen_sc_line
from ccwinner.line_solver import (
    KLinkInstance,
    _concave_minima,
    _dp_engine,
    _exact_k_path,
    _normalized_rows,
    _prefix_sums,
    smawk_min_links,
    solve_line_dp,
    solve_line_egal_threshold,
    solve_line_klink,
)


def reference_dp_base(rho_last, planes, inf):
    m = rho_last.shape[0]
    d1 = np.full((planes, m), inf, dtype=rho_last.dtype)
    d1[0] = rho_last
    d0 = np.minimum.accumulate(d1[:, ::-1], axis=1)[:, ::-1]
    return d1, d0


def reference_dp_step(rho_i, next1, next0, egal, inf):
    planes, m = next1.shape
    new = np.full((planes, m), inf, dtype=next1.dtype)
    new[1:, : m - 1] = next0[:-1, 1:]
    choice = new < next1
    inner = np.minimum(next1, new)
    if egal:
        cur1 = np.maximum(rho_i, inner)
    else:
        cur1 = rho_i + inner
        np.minimum(cur1, inf, out=cur1)
    cur0 = np.minimum.accumulate(cur1[:, ::-1], axis=1)[:, ::-1]
    return cur1, cur0, choice


def reference_bit(packed, idx):
    return (int(packed[idx >> 3]) >> (7 - (idx & 7))) & 1


def reference_record_segment(rho, planes, egal, inf, a, b, checkpoints):
    n, m = rho.shape
    nbytes = (planes * m + 7) // 8
    choice_bits = [None] * (b - a + 1)
    take_bits = [None] * (b - a + 1)
    if b == n - 1:
        d1, d0 = reference_dp_base(rho[b], planes, inf)
        choice_bits[b - a] = np.zeros(nbytes, dtype=np.uint8)
    else:
        d1, d0, ch = reference_dp_step(rho[b], *checkpoints[b + 1], egal, inf)
        choice_bits[b - a] = np.packbits(ch.ravel())
    take_bits[b - a] = np.packbits((d1 == d0).ravel())
    for i in range(b - 1, a - 1, -1):
        d1, d0, ch = reference_dp_step(rho[i], d1, d0, egal, inf)
        choice_bits[i - a] = np.packbits(ch.ravel())
        take_bits[i - a] = np.packbits((d1 == d0).ravel())
    return choice_bits, take_bits


def reference_dp_engine(rho, planes, egal):
    n, m = rho.shape
    top = int(rho.max())
    inf = n * top + 1
    dtype = int_dtype(inf if egal else inf + top)
    rho = rho.astype(dtype, copy=False)
    spacing = max(1, int(8 * math.sqrt(n)))
    checkpoints = {}
    d1, d0 = reference_dp_base(rho[n - 1], planes, inf)
    if n - 1 > 0 and (n - 1) % spacing == 0:
        checkpoints[n - 1] = (d1.copy(), d0.copy())
    for i in range(n - 2, -1, -1):
        d1, d0, _ = reference_dp_step(rho[i], d1, d0, egal, inf)
        if i > 0 and i % spacing == 0:
            checkpoints[i] = (d1.copy(), d0.copy())
    first = d0[:, 0]
    t = int(first.argmin())
    l_star = t + 1

    rep = []
    c = 0
    resolving = True
    a = 0
    while a < n:
        b = min(a + spacing - 1, n - 1)
        choice_bits, take_bits = reference_record_segment(
            rho, planes, egal, inf, a, b, checkpoints
        )
        for i in range(a, b + 1):
            if resolving:
                idx = t * m + c
                while not reference_bit(take_bits[i - a], idx):
                    c += 1
                    idx += 1
            rep.append(c)
            if i < n - 1:
                if reference_bit(choice_bits[i - a], t * m + c):
                    t -= 1
                    c += 1
                    resolving = True
                else:
                    resolving = False
        a = b + 1
    return rep, l_star, np.dtype(dtype).name


def reference_from_line_positions(profile, line, inverse, rep_pos):
    """Canonical assignment from normalized representatives listed in line order."""
    rep = [0] * profile.n
    for v, c in zip(line.order, rep_pos):
        rep[v] = inverse[c]
    return canonicalize(profile, Assignment(tuple(rep)))


def reference_egal_threshold(profile, line, k):
    """The earlier threshold solver: the max-objective walk's largest paid value, then a 0/1 DP."""
    rows, inverse = _normalized_rows(profile, line)
    planes = min(k, profile.n)
    rep_pos = reference_dp_engine(rows, planes, True)[0]
    t = int(rows[np.arange(profile.n), rep_pos].max())
    rep_pos = reference_dp_engine(rows > t, planes, False)[0]
    witness = reference_from_line_positions(profile, line, inverse, rep_pos)
    return to_rho_units(t, profile.scale), witness


DRAWS = ("zero", "step", "borda", "rational", "huge")


def line_instance(seed, n, m, draw):
    """A line whose rho rows follow `draw`; every third is single-crossing, the rest random."""
    rng = random.Random(seed)
    if seed % 3 == 0:
        profile, line = gen_sc_line(seed, n, m, max_swaps=rng.randint(0, 2 * n))
        rankings = profile.rankings
    else:  # random rankings: not single-crossing on the line, as a rule
        rankings = [tuple(rng.sample(range(m), m)) for _ in range(n)]
        line = Line(tuple(rng.sample(range(n), n)))
    values = {
        "zero": lambda: [0] * m,
        "step": lambda: [rng.choice((0, 0, 1, 3)) for _ in range(m)],
        "borda": lambda: range(m),
        "rational": lambda: [Fraction(rng.randint(0, 20), rng.choice((3, 7, 11))) for _ in range(m)],
        "huge": lambda: [rng.randint(0, 5) << 70 for _ in range(m)],  # object engine
    }[draw]
    rho = []
    for ranking in rankings:
        ordered = sorted(values())
        row = [0] * m
        for p, c in enumerate(ranking):
            row[c] = ordered[p]
        rho.append(row)
    return PreferenceProfile(rankings, rho), line


def small_cases():
    for seed in range(400):
        rng = random.Random(seed)
        n, m, k = rng.randint(1, 30), rng.randint(1, 7), rng.randint(1, 12)
        yield seed, n, m, k, DRAWS[seed % len(DRAWS)]
    for seed, (n, m, k) in enumerate([(1, 1, 1), (1, 5, 3), (7, 1, 2), (4, 3, 9), (1, 4, 1)]):
        for draw in DRAWS:
            yield 1000 + seed, n, m, k, draw


def large_cases():
    # past n = 64 a checkpointed sweep has segments of 8 * sqrt(n) < n voters:
    # three at n = 300, four or more from n = 600
    cases = [(150, 4, 3), (300, 5, 6), (600, 5, 4), (700, 3, 9), (900, 6, 2)]
    for seed, (n, m, k) in enumerate(cases):
        for draw in DRAWS:
            yield 2000 + seed, n, m, k, draw


def assert_engines_agree(seed, n, m, k, draw):
    profile, line = line_instance(seed, n, m, draw)
    rows = _normalized_rows(profile, line)[0]
    planes = min(k, n)
    for egal in (False, True):
        assert _dp_engine(rows, planes, egal)[:3] == reference_dp_engine(rows, planes, egal), (
            seed, draw, egal)
    for cut in sorted({int(x) for x in rows.ravel()})[:3]:  # 0/1 rows, as the witness DP sees them
        binary = rows > cut
        assert _dp_engine(binary, planes, False)[:3] == reference_dp_engine(
            binary, planes, False), (seed, draw, cut)
    got = solve_line_egal_threshold(profile, line, k)
    threshold, witness = reference_egal_threshold(profile, line, k)
    assert got.stats["threshold"] == threshold, (seed, draw)
    assert got.assignment == witness, (seed, draw)


def test_engine_matches_the_base_case_engine_on_small_lines():
    for case in small_cases():
        assert_engines_agree(*case)


@pytest.mark.parametrize("draw", DRAWS)
def test_engine_matches_the_base_case_engine_across_checkpoint_segments(draw, monkeypatch):
    monkeypatch.setattr(line_solver, "_BIT_BUDGET", 0)
    for seed, n, m, k, d in large_cases():
        if d == draw:
            assert_engines_agree(seed, n, m, k, d)


@pytest.mark.parametrize("draw", DRAWS)
def test_engine_matches_the_base_case_engine_in_one_sweep(draw):
    for seed, n, m, k, d in large_cases():
        if d == draw:
            assert_engines_agree(seed, n, m, k, d)


def test_sweeps_stat_counts_the_segment_re_sweep(monkeypatch):
    profile, line = gen_sc_line(3, 300, 6)
    one = solve_line_dp(profile, line, 4)
    monkeypatch.setattr(line_solver, "_BIT_BUDGET", 0)
    two = solve_line_dp(profile, line, 4)
    assert (one.stats["sweeps"], two.stats["sweeps"]) == (1, 2)
    assert one.assignment == two.assignment
    assert {**one.stats, "sweeps": 2} == two.stats


def test_engine_reports_the_object_dtype_past_int64():
    profile, line = line_instance(1, 12, 4, "huge")
    assert solve_line_dp(profile, line, 3).stats["engine"] == "object"
    rows = _normalized_rows(profile, line)[0]
    assert reference_dp_engine(rows, 3, False)[2] == "object"


@pytest.mark.parametrize("budget", ["one sweep", "checkpointed"])
@pytest.mark.parametrize("block", [1, 3, 7])
def test_engine_matches_at_every_pack_block(block, budget, monkeypatch):
    """Bits packed per block land in the rows of their voters, whatever the block size.

    At n = 300 a block of 7 leaves a partial block, in one sweep and in each
    checkpoint segment of 138, 138 and 24 voters.
    """
    monkeypatch.setattr(line_solver, "_PACK_BLOCK", block)
    if budget == "checkpointed":
        monkeypatch.setattr(line_solver, "_BIT_BUDGET", 0)
    for seed, n, m, k, draw in large_cases():
        if n == 300 and draw in ("step", "borda", "huge"):
            assert_engines_agree(seed, n, m, k, draw)
    for case in list(small_cases())[:60]:
        assert_engines_agree(*case)


# ---------------------------------------------------------------------------
# the plane-major utilitarian sweep against the voter loop
#
# Within the bit budget, a utilitarian line with min(k, n) <= m goes through
# ``_plane_sweep``. ``voter_loop`` stands in for it with ``_sweep`` on the
# same arguments, so the dispatch, dtype and walk stay as they are and only
# the sweep differs.


def voter_loop(rho, d1, d0, inf, choice, take):
    n = rho.shape[0]
    checkpoints = {}
    line_solver._sweep(rho, d1, d0, False, inf, n, 0, n, checkpoints, choice, take)
    return checkpoints[0]


def sweep_and_engine(rows, planes):
    """The recorded sweep's bits and first planes, and the engine's (rep, l_star, dtype, sweeps)."""
    _, _, _, checkpoints, choice, take = line_solver._dp_sweep(rows, planes, False)
    return (choice, take, *checkpoints[0]), _dp_engine(rows, planes, False)


def assert_plane_sweep_matches_voter_loop(rows, planes, monkeypatch, what):
    plane_bits, plane_engine = sweep_and_engine(rows, planes)
    with monkeypatch.context() as patch:
        patch.setattr(line_solver, "_plane_sweep", voter_loop)
        loop_bits, loop_engine = sweep_and_engine(rows, planes)
    assert plane_engine == loop_engine, what
    for got, want in zip(plane_bits, loop_bits):
        assert got.dtype == want.dtype and np.array_equal(got, want), what


PLANE_DRAWS = ("zero", "borda", "step", "rational")


@pytest.mark.parametrize("block", [1, 3, 7, None])
def test_plane_sweep_matches_the_voter_loop_on_tie_heavy_lines(block, monkeypatch):
    """3000 lines through the plane path, 750 per tile size.

    The last voters of a line always have fewer voters left than planes; every
    fifth line also has fewer voters than k.
    """
    if block is not None:
        monkeypatch.setattr(line_solver, "_PACK_BLOCK", block)
    lines, seed = 0, 0
    while lines < 750:
        seed += 1
        rng = random.Random(seed)
        m, k = rng.randint(1, 7), rng.randint(1, 9)
        n = rng.randint(1, 40) if seed % 5 else rng.randint(1, k)
        planes = min(k, n)
        if planes > m:  # the voter loop's case, checked above
            continue
        lines += 1
        draw = PLANE_DRAWS[seed % len(PLANE_DRAWS)]
        profile, line = line_instance(seed, n, m, draw)
        rows = _normalized_rows(profile, line)[0]
        for rho in (rows, rows > int(rows.min())):  # scaled rows, and 0/1 rows as the witness DP sees them
            assert_plane_sweep_matches_voter_loop(rho, planes, monkeypatch, (block, seed, draw))


@pytest.mark.parametrize("block", [3, None])
@pytest.mark.parametrize("bound", [1 << 62, 1 << 63])
@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("n", [4, 40])
def test_plane_sweep_stays_exact_at_the_int64_edge(n, side, bound, block, monkeypatch):
    """n * top just below or above 2^62 and 2^63: no int64 sum may wrap.

    Unclipped plane sums reach inf plus a tile's rho sum, up to about twice
    the voter loop's bound when the tile holds the whole line: past 2^62
    the plane path would need object arrays where the voter loop still runs
    int64, so that solve keeps the voter loop. One candidate costs top for
    every voter, so its column sum is n * top.
    """
    if block is not None:
        monkeypatch.setattr(line_solver, "_PACK_BLOCK", block)
    top = (bound - 1) // n if side == "below" else bound // n + 1
    rng = random.Random(bound + n)
    m = 5
    rows = np.array([[rng.choice((0, 1, top - 1, top)) for _ in range(m)] for _ in range(n)], dtype=object)
    rows[:, 2] = top
    assert n * top < bound if side == "below" else n * top > bound
    for planes in range(1, min(n, m) + 1):
        assert_plane_sweep_matches_voter_loop(rows, planes, monkeypatch, (side, bound, planes))


class VoterLoopEntered(Exception):
    pass


def test_one_sweep_utilitarian_solves_take_the_plane_path(monkeypatch):
    """The voter loop runs only for egalitarian DPs, checkpointed sweeps, k > m and int64 edges."""

    def refuse(*args, **kwargs):
        raise VoterLoopEntered

    monkeypatch.setattr(line_solver, "_sweep", refuse)
    profile, line = gen_sc_line(3, 300, 6)
    for k in (1, 4, 6):
        assert solve_line_dp(profile, line, k).stats["sweeps"] == 1
    profile_huge, line_huge = line_instance(3, 40, 5, "huge")  # object dtype on both paths
    assert solve_line_dp(profile_huge, line_huge, 5).stats["engine"] == "object"
    with pytest.raises(VoterLoopEntered):
        solve_line_egal_threshold(profile, line, 4)  # its value sweep is egalitarian
    with pytest.raises(VoterLoopEntered):
        solve_line_dp(profile, line, 4, Objective.EGALITARIAN)
    with pytest.raises(VoterLoopEntered):
        solve_line_dp(profile, line, 7)  # k > m
    rows = np.array([[0, (1 << 60) + 1]] * 4, dtype=np.int64)  # inf + top fits int64, 2 * inf does not
    with pytest.raises(VoterLoopEntered):
        _dp_engine(rows, 2, False)
    monkeypatch.setattr(line_solver, "_BIT_BUDGET", 0)
    with pytest.raises(VoterLoopEntered):
        solve_line_dp(profile, line, 4)


# ---------------------------------------------------------------------------
# the k-link matrix search against the lazy online chain it replaced
#
# ``ReferenceOnlineConcaveMinima``, ``reference_penalized_chain``,
# ``reference_smawk_min_links`` and ``reference_exact_k_path`` are the
# earlier implementation, kept as it was: a class that settles prefix optima
# on demand, which every caller forced to n at once. The eager loop must
# settle the same values and predecessors with the same weight lookups,
# sentinel columns past n included.


class ReferenceOnlineConcaveMinima:
    def __init__(self, matrix, initial):
        self._values = [initial]
        self._indices = [None]
        self._finished = 0
        self._matrix = matrix
        self._base = 0
        self._tentative = 0

    def value(self, j):
        while self._finished < j:
            self._advance()
        return self._values[j]

    def index(self, j):
        while self._finished < j:
            self._advance()
        return self._indices[j]

    def _advance(self):
        i = self._finished + 1
        if i > self._tentative:
            rows = range(self._base, self._finished + 1)
            self._tentative = self._finished + len(rows)
            cols = range(self._finished + 1, self._tentative + 1)
            minima = _concave_minima(rows, cols, self._matrix)
            for col in cols:
                if col >= len(self._values):
                    self._values.append(minima[col][0])
                    self._indices.append(minima[col][1])
                elif minima[col][0] < self._values[col]:
                    self._values[col], self._indices[col] = minima[col]
            self._finished = i
            return
        diag = self._matrix(i - 1, i)
        if diag < self._values[i]:
            self._values[i] = diag
            self._indices[i] = self._base = i - 1
            self._tentative = self._finished = i
            return
        if self._matrix(i - 1, self._tentative) >= self._values[self._tentative]:
            self._finished = i
            return
        self._base = i - 1
        self._tentative = self._finished = i


def reference_penalized_chain(klink, lam, most_links):
    n = klink.n
    sign = -1 if most_links else 1

    def matrix(i, j):
        if j > n:
            return (-i, -i)
        cost, links = chain.value(i)
        return (cost + klink.omega(i, j) + lam, links + sign)

    chain = ReferenceOnlineConcaveMinima(matrix, (0, 0))
    chain.value(n)
    return chain


def reference_smawk_min_links(klink, lam, most_links=False):
    sign = -1 if most_links else 1
    chain = reference_penalized_chain(klink, lam, most_links)
    total, links = chain.value(klink.n)
    path = [klink.n]
    while path[-1]:
        path.append(chain.index(path[-1]))
    path.reverse()
    return total, sign * links, tuple(path)


def reference_exact_k_path(klink, lam, k):
    n = klink.n
    lo = reference_penalized_chain(klink, lam, False)
    hi = reference_penalized_chain(klink, lam, True)
    cost = [lo.value(j)[0] for j in range(n + 1)]
    lmin = [lo.value(j)[1] for j in range(n + 1)]
    lmax = [-hi.value(j)[1] for j in range(n + 1)]
    table = klink.prefix.table
    dtype = int_dtype(max(cost) + int(table[:, -1].max()) + lam)
    cost_a = np.array(cost, dtype=dtype)
    lmin_a = np.array(lmin, dtype=np.int64)
    lmax_a = np.array(lmax, dtype=np.int64)
    path = [n]
    v, t = n, k
    while v > 0:
        w = (table[:, v : v + 1] - table[:, :v]).min(axis=0)
        tight = (cost_a[:v] + w + lam == cost_a[v]) & (lmin_a[:v] <= t - 1)
        tight &= t - 1 <= lmax_a[:v]
        hits = np.flatnonzero(tight)
        if len(hits) == 0:
            raise NotSingleCrossing("no tight arc continues an exactly-k path")
        u = int(hits[-1])
        path.append(u)
        v, t = u, t - 1
    path.reverse()
    return tuple(path)


def reference_klink(profile, line, k):
    """The earlier k-link search on the lazy chain: its canonical result, or its error type."""
    rows, inverse = _normalized_rows(profile, line)
    klink = KLinkInstance(_prefix_sums(rows, profile.scale))
    lam = 0
    total, links, path = reference_smawk_min_links(klink, 0)
    if links > k:
        lo, hi = 1, profile.n * int(rows.max()) + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if reference_smawk_min_links(klink, mid)[1] <= k:
                hi = mid
            else:
                lo = mid + 1
        lam = lo
        total, links, path = reference_smawk_min_links(klink, lam)
        if links < k:
            if reference_smawk_min_links(klink, lam, most_links=True)[1] < k:
                return NotSingleCrossing
            try:
                path = reference_exact_k_path(klink, lam, k)
            except NotSingleCrossing:
                return NotSingleCrossing
    committee = {inverse[klink.cand(u, v)] for u, v in zip(path, path[1:])}
    stats = {
        "engine": klink.prefix.table.dtype.name,
        "lambda": to_rho_units(lam, profile.scale),
        "links": len(path) - 1,
        "omega_evals": klink.evals,
        "lower_bound": to_rho_units(total - lam * k, profile.scale),
    }
    return SolveResult.from_committee(profile, committee, "line-klink", stats)


def klink_of(profile, line):
    rows = _normalized_rows(profile, line)[0]
    return KLinkInstance(_prefix_sums(rows, profile.scale))


def klink_cases():
    """Single-crossing and random lines under the integer, 0/1 and rational draws."""
    for seed in range(240):
        rng = random.Random(seed)
        n, m = rng.randint(1, 40), rng.randint(1, 7)
        yield seed, n, m, ("step", "borda", "rational", "binary")[seed % 4]


def klink_instance(seed, n, m, draw):
    if draw != "binary":
        return line_instance(seed, n, m, draw)
    profile, line = line_instance(seed, n, m, "step")
    return PreferenceProfile(profile.rankings, (profile.scaled > 0).astype(int).tolist()), line


@pytest.mark.parametrize("most_links", [False, True])
def test_online_minima_settle_the_lazy_chain_values(most_links):
    """Values, predecessors (sentinel columns too) and weight lookups at zero and positive penalties."""
    for seed, n, m, draw in klink_cases():
        profile, line = klink_instance(seed, n, m, draw)
        top = n * int(_normalized_rows(profile, line)[0].max()) + 1
        for lam in sorted({0, 1, 2, 3, top // 7, top // 2, top}):
            klink, ref = klink_of(profile, line), klink_of(profile, line)
            values, indices = line_solver._penalized_chain(klink, lam, most_links)
            chain = reference_penalized_chain(ref, lam, most_links)
            assert (values, indices) == (chain._values, chain._indices), (seed, lam)
            assert klink.evals == ref.evals, (seed, lam)
            got = smawk_min_links(klink_of(profile, line), lam, most_links)
            assert got == reference_smawk_min_links(ref, lam, most_links), (seed, lam)


def test_exact_k_paths_match_the_lazy_chain_paths():
    """Every budget strictly inside a penalty's optimal link interval, at penalties where it is wide."""
    inner = 0
    for seed, n, m, draw in klink_cases():
        profile, line = klink_instance(seed, n, m, draw)
        top = n * int(_normalized_rows(profile, line)[0].max()) + 1
        for lam in range(1, min(top, 10) + 1):
            fewest = smawk_min_links(klink_of(profile, line), lam)[1]
            most = smawk_min_links(klink_of(profile, line), lam, most_links=True)[1]
            for k in range(fewest + 1, most):
                klink, ref = klink_of(profile, line), klink_of(profile, line)
                try:
                    want = reference_exact_k_path(ref, lam, k)
                except NotSingleCrossing:
                    with pytest.raises(NotSingleCrossing):
                        _exact_k_path(klink, lam, k)
                    continue
                assert _exact_k_path(klink, lam, k) == want, (seed, lam, k)
                assert klink.evals == ref.evals
                inner += 1
    assert inner >= 100, inner


def test_klink_solver_matches_the_lazy_chain_search(monkeypatch):
    """Results and every stat, omega_evals included, with lambda > 0 and exactly-k paths."""
    paths = []

    def exact_k_path(klink, lam, k):
        paths.append(k)
        return _exact_k_path(klink, lam, k)

    monkeypatch.setattr(line_solver, "_exact_k_path", exact_k_path)
    positive = 0
    for seed, n, m, draw in klink_cases():
        profile, line = klink_instance(seed, n, m, draw)
        for k in sorted({1, 2, m, n}):
            want = reference_klink(profile, line, k)
            if want is NotSingleCrossing:
                with pytest.raises(NotSingleCrossing):
                    solve_line_klink(profile, line, k)
                continue
            got = solve_line_klink(profile, line, k)
            assert got == want, (seed, draw, k)
            positive += got.stats["lambda"] > 0
    assert positive >= 200 and len(paths) >= 20
