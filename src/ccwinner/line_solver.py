"""Solvers for profiles that are single-crossing on a line.

Three routes to the optimum:

* ``solve_line_dp`` -- the O(nmk) dynamic program over (voter, committee
  budget, candidate) states, for both objectives: one step per voter, last
  to first, from the empty state past the last voter, on planes whose
  candidate axis is reversed so the suffix minimum is a forward running
  minimum. It runs in one sweep when the walk's packed bits fit
  ``_BIT_BUDGET``, else checkpointed, with O(sqrt(n)) voters' bits held at
  a time; only recorded voters compute bits, packed ``_PACK_BLOCK`` (256)
  voters per call. A utilitarian one-sweep DP with k <= m steps one plane
  at a time over tiles of 256 voters instead, with the same bits;
* ``solve_line_klink`` -- the reduction to a k-link shortest path in a DAG
  whose arc weights are cheapest-single-candidate segment sums. The weights
  are concave Monge, so unconstrained penalized optima come from a
  totally-monotone matrix search, one eager loop that settles the prefix
  optima 1..n in order, and the link budget is enforced by a Lagrangian
  search on the penalty;
* ``solve_line_egal_threshold`` -- egalitarian as a bottleneck value: the
  value sweep of the max-objective DP, which records no walk bits, finds
  the least feasible threshold,
  one 0/1 utilitarian DP at that threshold gives the witness.

Everything here works on the normalized scaled rows of the instance
(candidates relabeled so the first voter in line order ranks them 0, 1, 2,
..., voters in line order), taken from the profile in one gather. A route
maps only the committee its walk found back to the original labels;
``SolveResult.from_committee`` then puts every voter on their favorite
member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Line,
    Objective,
    PreferenceProfile,
    SolveResult,
    int_dtype,
    line_runs,
    reference_ranking,
    to_rho_units,
)
from .errors import InvalidK, InvalidN, NotSingleCrossing

__all__ = [
    "PrefixSums",
    "KLinkInstance",
    "build_prefix_sums",
    "omega",
    "check_concave_monge",
    "merge_identical_voters",
    "smawk_min_links",
    "solve_line_dp",
    "solve_line_klink",
    "solve_line_egal_threshold",
]


def _line(profile: PreferenceProfile, order) -> Line:
    line = order if isinstance(order, Line) else Line(tuple(order))
    if line.n != profile.n:
        raise InvalidN(f"order covers {line.n} voters, profile has {profile.n}")
    return line


def merge_identical_voters(
    profile: PreferenceProfile, order, objective: Objective = Objective.UTILITARIAN
) -> PreferenceProfile:
    """Merge each run of adjacent identical voters on the line into one voter.

    The merged voter keeps the run's ranking and carries the run's summed
    rho row (utilitarian) or its elementwise maximum (egalitarian), so every
    assignment that gives the run one representative costs the same on both
    profiles; canonical assignments do, because identical voters share
    their favorite committee member. So a committee's canonical assignment
    on the full profile is the merged one, read per run. Returns the merged
    profile, whose line is the identity order.

    Voters sharing a table row need no compare: the runs of equal index
    along the line (`line_runs`) are compared by ranking, and a run's share
    of the summed row is its table row times its length.
    """
    line = _line(profile, order)
    starts, rows = line_runs(profile, line)  # runs of voters sharing a table row
    cut = np.zeros(len(rows) - 1, dtype=bool)
    for c in range(profile.m):  # one column at a time: no full gather of the rankings
        col = profile.table_rank[rows, c]
        cut |= col[1:] != col[:-1]
    joins = np.concatenate(([0], np.flatnonzero(cut) + 1))  # the runs that start a merged voter
    run_rows = profile.table_scaled[rows]
    top = int(run_rows.max())
    # the run rows are freed before the merged rankings exist
    if objective is Objective.EGALITARIAN:
        scaled = np.maximum.reduceat(run_rows.astype(int_dtype(top), copy=False), joins)
    else:
        dtype = int_dtype(profile.n * max(top, 1))  # every summed row, and every run length
        run_rows = run_rows.astype(dtype, copy=False)
        run_rows *= np.diff(starts, append=profile.n).astype(dtype)[:, None]  # each run's summed row
        scaled = np.add.reduceat(run_rows, joins, dtype=dtype)
    del run_rows
    heads = rows[joins]
    rank, pos = profile.table_rank[heads], profile.table_pos[heads]
    return PreferenceProfile._from_parts(rank, pos, scaled, profile.scale)


def _normalized_rows(profile: PreferenceProfile, line: Line):
    """Scaled rho rows in line order, candidates relabeled to the first voter's ranking.

    Returns the rows and the new -> old label map.
    """
    inverse = reference_ranking(profile, line)
    return profile.scaled[np.ix_(line.order, inverse)], inverse


# ---------------------------------------------------------------------------
# segment weights


@dataclass(frozen=True)
class PrefixSums:
    """Per-candidate running sums of scaled rho along the line.

    ``table[c, j]`` is the summed scaled misrepresentation of candidate c
    over the first j voters in line order, so a segment sum is one
    subtraction; divide by ``scale`` for rho units. The table is int64 when
    every sum fits, otherwise an object array of Python ints.
    """

    table: np.ndarray
    n: int
    m: int
    scale: int = 1


def build_prefix_sums(profile: PreferenceProfile, order) -> PrefixSums:
    line = _line(profile, order)
    return _prefix_sums(profile.scaled[list(line.order)], profile.scale)


def _prefix_sums(rows: np.ndarray, scale: int) -> PrefixSums:
    n, m = rows.shape
    dtype = int_dtype(n * int(rows.max()))
    table = np.zeros((m, n + 1), dtype=dtype)
    np.cumsum(rows.T, axis=1, dtype=dtype, out=table[:, 1:])
    return PrefixSums(table, n, m, scale)


def _segment(prefix: PrefixSums, i: int, j: int) -> tuple[int, int]:
    """(scaled weight, candidate) of the cheapest single candidate for positions i..j-1."""
    diff = prefix.table[:, j] - prefix.table[:, i]
    c = int(diff.argmin())
    return int(diff[c]), c


def omega(prefix: PrefixSums, i: int, j: int):
    """Cheapest single candidate for the voters at positions i..j-1.

    Returns (weight, candidate), the weight in rho units; ties go to the
    smallest candidate index.
    """
    if not 0 <= i < j <= prefix.n:
        raise ValueError(f"need 0 <= i < j <= {prefix.n}, got ({i}, {j})")
    w, c = _segment(prefix, i, j)
    return to_rho_units(w, prefix.scale), c


def check_concave_monge(prefix: PrefixSums) -> Optional[tuple[int, int]]:
    """First (i, j) with w(i,j) + w(i+1,j+1) > w(i,j+1) + w(i+1,j), else None.

    Index pairs range over 0 <= i, i+1 < j <= n-1; the range is empty below
    n = 3. On single-crossing input there is no violation, so a hit
    falsifies either the input's single-crossing claim or the weight table.
    """
    n = prefix.n
    # a weight is at most the largest column total, and lhs and rhs add two
    table = prefix.table.astype(int_dtype(2 * int(prefix.table[:, -1].max())), copy=False)

    def weights(i):  # w(i, j) for j = i+1..n, at index j - i - 1
        return (table[:, i + 1 :] - table[:, i : i + 1]).min(axis=0)

    row = weights(0)
    for i in range(n - 2):
        below = weights(i + 1)
        # j = i+2..n-1 at index j - i - 2
        lhs = row[1 : n - i - 1] + below[1 : n - i - 1]
        rhs = row[2 : n - i] + below[: n - i - 2]
        hits = np.flatnonzero(lhs > rhs)
        if len(hits):
            return (i, i + 2 + int(hits[0]))
        row = below
    return None


class KLinkInstance:
    """Weight oracle for the segment DAG on vertices 0..n.

    Arc (i, j) covers the voters at positions i..j-1 and costs the cheapest
    single-candidate sum over them, in scaled units (integers for every
    input). ``evals`` counts weight lookups.
    """

    def __init__(self, prefix: PrefixSums):
        self.prefix = prefix
        self.n = prefix.n
        self.evals = 0

    def omega(self, i: int, j: int):
        self.evals += 1
        return _segment(self.prefix, i, j)[0]

    def cand(self, i: int, j: int) -> int:
        return _segment(self.prefix, i, j)[1]


# ---------------------------------------------------------------------------
# totally monotone matrix search
#
# Offline/online concave-minima pair in the Agarwal et al. / Galil-Park
# style. Values are (penalized cost, +-links) tuples: the second component
# is row-constant, which keeps the lexicographic order totally monotone
# whenever the costs alone are (the Monge difference bound settles every
# strict first-component comparison, leaving ties to the row constants).


def _concave_minima(row_indices, col_indices, matrix):
    """Column minima of an implicit totally monotone matrix.

    Ties break toward earlier rows.
    """
    if not col_indices:
        return {}
    stack = []
    for r in row_indices:
        while stack and matrix(stack[-1], col_indices[len(stack) - 1]) > matrix(
            r, col_indices[len(stack) - 1]
        ):
            stack.pop()
        if len(stack) != len(col_indices):
            stack.append(r)
    row_indices = stack

    minima = _concave_minima(row_indices, col_indices[1::2], matrix)

    r = 0
    for ci in range(0, len(col_indices), 2):
        col = col_indices[ci]
        row = row_indices[r]
        if ci == len(col_indices) - 1:
            last = row_indices[-1]
        else:
            last = minima[col_indices[ci + 1]][1]
        pair = (matrix(row, col), row)
        while row != last:
            r += 1
            row = row_indices[r]
            pair = min(pair, (matrix(row, col), row))
        minima[col] = pair
    return minima


def _online_minima(matrix, n, values):
    """Online column minima of a concave one-dimensional recurrence, all at once.

    values[j] = min over i < j of matrix(i, j) for j = 1..n, where matrix
    reads the settled entries of ``values``, the list being filled, which
    holds values[0] on entry. matrix must return concavity-respecting
    sentinels for columns past n instead of raising; their entries may be
    left at the end of ``values``. One loop advances the finished frontier
    a column at a time through four cases. Returns the argmin rows,
    indices[j] for j = 0..n (None at 0).
    """
    indices = [None]
    finished = base = tentative = 0
    while finished < n:
        i = finished + 1
        if i > tentative:
            # Case 1: past the tentative frontier; batch-search the largest
            # square submatrix under the base to build a new frontier.
            rows = range(base, i)
            tentative = finished + len(rows)
            cols = range(i, tentative + 1)
            minima = _concave_minima(rows, cols, matrix)
            for col in cols:
                if col >= len(values):
                    values.append(minima[col][0])
                    indices.append(minima[col][1])
                elif minima[col][0] < values[col]:
                    values[col], indices[col] = minima[col]
            finished = i
        elif (diag := matrix(i - 1, i)) < values[i]:
            # Case 2: the diagonal supplies a new column minimum; rows above
            # it can never win again, so the base advances to the diagonal.
            values[i] = diag
            indices[i] = base = i - 1
            tentative = finished = i
        elif matrix(i - 1, tentative) >= values[tentative]:
            # Case 3: row i-1 loses at the tentative column, hence everywhere
            # up to it; just accept the tentative value.
            finished = i
        else:
            # Case 4: row i-1 wins at the tentative column; earlier rows are
            # dead from here on and the base jumps forward.
            base = i - 1
            tentative = finished = i
    return indices


def _penalized_chain(klink: KLinkInstance, lam, most_links: bool):
    """(values, indices): (penalized cost, +-links) and predecessor of every prefix 0..n."""
    n = klink.n
    sign = -1 if most_links else 1
    values = [(0, 0)]

    def matrix(i, j):
        if j > n:
            return (-i, -i)  # concave sentinel for out-of-range columns
        cost, links = values[i]
        return (cost + klink.omega(i, j) + lam, links + sign)

    return values, _online_minima(matrix, n, values)


def smawk_min_links(klink: KLinkInstance, lam, most_links: bool = False):
    """Minimize weight + lam * links over 0 -> n paths in the segment DAG.

    Returns (penalized cost, links, path). Among penalized optima the path
    with the fewest links is produced; ``most_links`` flips the tie-break.
    """
    sign = -1 if most_links else 1
    values, indices = _penalized_chain(klink, lam, most_links)
    total, links = values[klink.n]
    path = [klink.n]
    while path[-1]:
        path.append(indices[path[-1]])
    path.reverse()
    return total, sign * links, tuple(path)


def _exact_k_path(klink: KLinkInstance, lam, k: int) -> tuple[int, ...]:
    """Synthesize a penalized-optimal path with exactly k links.

    Walks tight arcs backward from n, keeping the remaining-link target
    inside [min links, max links] of each prefix; such a predecessor always
    exists because the optimal link counts at a fixed penalty form a
    contiguous interval.
    """
    n = klink.n
    lo = _penalized_chain(klink, lam, False)[0][: n + 1]
    hi = _penalized_chain(klink, lam, True)[0][: n + 1]
    cost = [value[0] for value in lo]
    lmin = [value[1] for value in lo]
    lmax = [-value[1] for value in hi]

    table = klink.prefix.table
    dtype = int_dtype(max(cost) + int(table[:, -1].max()) + lam)
    cost_a = np.array(cost, dtype=dtype)
    lmin_a = np.array(lmin, dtype=int_dtype(n))  # link counts are at most n
    lmax_a = np.array(lmax, dtype=lmin_a.dtype)

    path = [n]
    v, t = n, k
    while v > 0:
        w = (table[:, v : v + 1] - table[:, :v]).min(axis=0)
        tight = (cost_a[:v] + w + lam == cost_a[v]) & (lmin_a[:v] <= t - 1)
        tight &= t - 1 <= lmax_a[:v]
        hits = np.flatnonzero(tight)
        if len(hits) == 0:
            raise NotSingleCrossing(
                "no tight arc continues an exactly-k path; the weights are not "
                "concave Monge, so the input is not single-crossing on this line"
            )
        u = int(hits[-1])
        path.append(u)
        v, t = u, t - 1
    path.reverse()
    return tuple(path)


# ---------------------------------------------------------------------------
# the O(nmk) dynamic program
#
# Plane layout at voter i: dyp1[t, c] is the optimal suffix cost when voter
# i is represented by exactly candidate c and the suffix committee uses
# t + 1 candidates, all >= c; dyp0[t, c] relaxes "exactly c" to ">= c"
# (a running suffix minimum over c). Infeasible states hold the sentinel
# inf, chosen per instance above every finite total, and the recurrences
# propagate it, so no explicit bound of t against m is needed. Values are
# held in int16, int32 or int64, the narrowest tier that holds every value
# of the sweep, else Python ints in object arrays; the same array code runs
# on every tier. A utilitarian step adds an entry before it clips to inf, so
# its tier is ``int_dtype(inf + top)``, top the largest entry; an
# egalitarian step takes a minimum and a maximum of values at most inf, so
# its tier is ``int_dtype(inf)``. Every sweep starts
# past the last voter, where dyp1 row 0 is zero and all else is inf: an
# empty suffix costs nothing and opens no candidate. So every voter, the
# last one included, is one step.
#
# Inside a sweep the planes and rows are held with the candidate axis
# reversed, column j for candidate m - 1 - j: the suffix minimum over c is
# then one forward running minimum, and opening a fresh candidate above c
# reads the previous dyp0 one row up and one column left.
#
# Two loop orders compute these planes. ``_sweep`` steps one voter at a
# time over all planes, about ten numpy calls per voter on a small
# (planes, m) array, so it is bound by call overhead. ``_plane_sweep`` takes
# the voters in tiles of ``_PACK_BLOCK`` and steps one plane at a time over
# a whole tile: plane t reads only plane t - 1, and a utilitarian step is an
# addition, so within a tile each plane unrolls to prefix sums and one
# running minimum over voters. It runs for a utilitarian objective in one
# sweep with planes <= m, and gives the same values and bits. The other
# cases keep the voter loop:
# * egalitarian steps take a maximum, which has no prefix-sum form. Doubling
#   over clamp functions gives an exact plane sweep, but a prototype took
#   2.2-3.8 ms where the voter loop takes 1.5-2.6 ms on ``line-egal``;
# * at k > m the planes outnumber the calls saved: on gen_sc_line(7, 4000,
#   20) the plane path takes 1.3 s at k = 1000 where the voter loop takes
#   0.6-0.8 s (and 0.02 s against 0.04-0.06 s at k = 20; process time on a
#   shared 2-vCPU host). This keeps criterion 10's k = 1000 instance on the
#   checkpointed voter loop;
# * a checkpointed sweep re-sweeps segments from its planes, which the voter
#   loop keeps at every checkpoint index.
# Tiling bounds the plane path's buffers: with the whole line as one tile it
# traced about 410 MB at (n, m, k) = (1e5, 50, 10).

_BIT_BUDGET = 32 << 20  # bytes of packed walk bits a single sweep may keep
_PACK_BLOCK = 256  # recorded voters whose bits are packed in one call


def _bit(bits: memoryview, base: int, idx: int) -> int:
    """Bit idx of the packed row that starts at byte ``base`` of ``bits``."""
    return (bits[base + (idx >> 3)] >> (7 - (idx & 7))) & 1


def _sweep(rho, d1, d0, egal, inf, hi, lo, spacing=0, checkpoints=None, choice=None, take=None):
    """Step voters hi-1..lo from the reversed planes (d1, d0) at hi.

    ``rho`` holds the rows with the candidate axis reversed. With
    ``checkpoints`` the planes at each index divisible by ``spacing`` are kept
    there. With ``choice`` and ``take`` the voters from lo up to lo plus
    their row count are recorded, voter i in row i - lo: take[t, c] says
    dyp1 attains dyp0 at (t, c); choice[t, c] says opening a fresh candidate
    strictly beats staying on c. Rows are the (t, c) states in row-major
    order of the unreversed axis, packed most significant bit first, one
    ``np.packbits`` per ``_PACK_BLOCK`` voters. The other voters' bits are
    not computed.
    """
    planes, m = d1.shape
    shift = np.full_like(d1, inf)  # row 0 and column 0 stay inf: no smaller size, no c above m - 1
    opened, below = shift[1:, 1:], (slice(None, -1), slice(None, -1))  # opened = d0[below] each step
    bound = lo if choice is None else min(hi, lo + len(choice))  # voters below are recorded
    if bound > lo:
        block = min(_PACK_BLOCK, bound - lo)
        ch_buf = np.empty((block, planes, m), dtype=bool)
        tk_buf = np.empty_like(ch_buf)
        ch_rows, tk_rows = ch_buf[:, :, ::-1], tk_buf[:, :, ::-1]  # unreversed layout
        top, start = bound, max(lo, bound - block)  # the block being filled: voters start..top-1
    minimum, accumulate = np.minimum, np.minimum.accumulate  # local names: the loop is call-bound
    for i in range(hi - 1, lo - 1, -1):
        opened[...] = d0[below]
        recorded = i < bound
        if recorded:
            np.less(shift, d1, out=ch_rows[i - start])  # strict: ties keep the current candidate
        d1 = minimum(d1, shift)  # fresh array: the planes it replaces may be checkpoints
        if egal:
            np.maximum(d1, rho[i], out=d1)
        else:
            np.add(d1, rho[i], out=d1)
            minimum(d1, inf, out=d1)  # pin the sentinel in place
        d0 = accumulate(d1, axis=1)
        if recorded:
            np.equal(d1, d0, out=tk_rows[i - start])
            if i == start:
                count = top - start
                choice[start - lo : top - lo] = np.packbits(ch_buf[:count].reshape(count, -1), axis=1)
                take[start - lo : top - lo] = np.packbits(tk_buf[:count].reshape(count, -1), axis=1)
                top, start = start, max(lo, start - block)
        if checkpoints is not None and i % spacing == 0:
            checkpoints[i] = (d1, d0)


def _plane_sweep(rho, d1, d0, inf, choice, take):
    """Utilitarian sweep of every voter from the reversed planes (d1, d0) at n, plane by plane.

    Voters go in tiles of ``_PACK_BLOCK``, last tile first, and each tile
    carries the (d1, d0) planes at its end. Inside a tile the loop runs over
    planes t. With P the tile's prefix sums of ``rho`` and ``H[i]`` the
    previous plane's dyp0 one voter on and one candidate up (inf at the top
    candidate and on plane 0), the voter recurrence unrolls to
    ``d1_t[i] = min(min_{j>=i}(H[j] + P[j+1]) - P[i], inf)``, with the
    carried d1_t as the term past the tile: one reversed running minimum
    over voters. Unclipped sums reach inf plus one tile's rho sum, below
    2 * inf, so the tile buffers hold them in ``int_dtype(2 * inf)``; the
    carried planes keep the dtype of ``d1`` and ``d0``, which the caller
    chooses to hold inf plus any entry.
    Records every voter's choice and take rows exactly as ``_sweep`` does
    and returns the planes at voter 0.
    """
    n, m = rho.shape
    planes = d1.shape[0]
    d1, d0 = d1.copy(), d0.copy()  # the carried planes, replaced tile by tile
    block = min(_PACK_BLOCK, n)
    wide = int_dtype(2 * inf)
    # bits per plane in the reversed layout, turned into voter rows once per tile
    ch_buf = np.empty((planes, block, m), dtype=bool)
    tk_buf = np.empty_like(ch_buf)
    # flat (block + 1, m) tile buffers, the last row for the voter past the tile:
    # P; H + P, turned in place into this plane's dyp1; its dyp0; the previous dyp0
    prefix = np.zeros((block + 1) * m, dtype=wide)
    v1, v0, prev = (np.empty_like(prefix) for _ in range(3))
    minimum, accumulate = np.minimum, np.minimum.accumulate
    for end in range(n, 0, -block):
        start = max(0, end - block)
        size = end - start
        cells = size * m
        p = prefix[: cells + m].reshape(size + 1, m)
        np.cumsum(rho[start:end], axis=0, dtype=wide, out=p[1:])
        w1 = v1[: cells + m].reshape(size + 1, m)
        prev[: cells + m] = inf  # plane 0 opens nothing: no smaller size
        for t in range(planes):
            # H[i, j] = dyp0[i + 1, j - 1] is the flat buffer read m - 1 cells on;
            # at j = 0 that lands on dyp0[i, m - 1], which holds inf (see below)
            h = prev[m - 1 : m - 1 + cells]
            np.add(h, prefix[m : cells + m], out=v1[:cells])
            np.add(d1[t], p[-1], out=w1[-1])
            accumulate(w1[::-1], axis=0, out=w1[::-1])
            np.subtract(w1, p, out=w1)
            minimum(w1, inf, out=w1)
            np.less(h, v1[m : cells + m], out=ch_buf[t, :size].reshape(-1))  # strict, as in _sweep
            w0 = v0[: cells + m].reshape(size + 1, m)
            accumulate(w1[:-1], axis=1, out=w0[:-1])
            w0[-1] = d0[t]  # the carried dyp0: all inf past the last voter
            np.equal(v1[:cells], v0[:cells], out=tk_buf[t, :size].reshape(-1))
            d1[t], d0[t] = w1[0], w0[0]
            w0[:, -1] = inf  # no candidate below 0 opens candidate 0: H's inf column
            prev, v0 = v0, prev
        for buf, rows in ((ch_buf, choice), (tk_buf, take)):
            bits = buf[:, :size, ::-1].transpose(1, 0, 2).reshape(size, -1)  # unreversed voter rows
            rows[start:end] = np.packbits(bits, axis=1)
    return d1, d0


def _dp_sweep(rho: np.ndarray, planes: int, egal: bool, record: bool = True):
    """Value sweep over scaled integer rows in line order, last voter first.

    The spacing B is n when the packed choice and take bits of every voter,
    ``2 * n * ceil(planes * m / 8)`` bytes, fit ``_BIT_BUDGET``, else
    8 * sqrt(n). The sweep keeps the planes (dyp1, dyp0) at n and at each
    index divisible by B, with the candidate axis reversed (see ``_sweep``),
    so the first voter's dyp0 at candidate 0, ``checkpoints[0][1][:, -1]``,
    holds the optimum per size. With ``record`` it also packs the bits of
    the segment it ends in, voters 0..B-1, into rows of two (B, bytes) uint8
    arrays, so a walk within the budget needs no second sweep; without it
    the sweep computes values only.

    The rows and planes are held in the narrowest tier that holds every
    value of the voter loop: ``int_dtype(inf + top)`` for a utilitarian
    sweep, whose step adds an entry before clipping to inf, and
    ``int_dtype(inf)`` for an egalitarian one, whose step takes a minimum
    and a maximum of values at most inf. A recorded utilitarian
    sweep of every voter with planes <= m runs plane by plane over tiles of
    voters (``_plane_sweep``) when its unclipped sums, up to 2 * inf, fit
    int64 or the planes are object arrays already: its tile buffers then
    sweep in ``int_dtype(2 * inf)``, which may be a wider tier than the
    planes'. Every other sweep steps one voter at a time (``_sweep``). Both
    give the same planes and bits.

    Returns the reversed rows in the sweep's dtype, the sentinel inf, B, the
    checkpoints and the choice and take bit arrays (no rows without ``record``).
    """
    n, m = rho.shape
    top = int(rho.max())
    inf = n * top + 1  # above every finite total and every finite maximum
    dtype = int_dtype(inf if egal else inf + top)
    rho = rho.astype(dtype, copy=False)[:, ::-1]
    nbytes = (planes * m + 7) // 8
    spacing = n if 2 * n * nbytes <= _BIT_BUDGET else max(1, int(8 * math.sqrt(n)))
    recorded = min(spacing, n) if record else 0
    choice = np.empty((recorded, nbytes), dtype=np.uint8)
    take = np.empty_like(choice)
    d1 = np.full((planes, m), inf, dtype=dtype)
    d1[0] = 0
    d0 = np.full((planes, m), inf, dtype=dtype)
    checkpoints = {n: (d1, d0)}
    # the plane path's unclipped sums, up to 2 * inf, need int64 or object arrays
    sums_fit = int_dtype(2 * inf) is not object or dtype is object
    if recorded >= n and not egal and planes <= m and sums_fit:
        checkpoints[0] = _plane_sweep(rho, d1, d0, inf, choice, take)
    else:
        _sweep(rho, d1, d0, egal, inf, n, 0, spacing, checkpoints, choice, take)
    return rho, inf, spacing, checkpoints, choice, take


def _dp_engine(rho: np.ndarray, planes: int, egal: bool):
    """The line DP over scaled integer rows in line order, then the walk.

    One sweep within the bit budget, else checkpointed: the value sweep
    records the bits of the segment it ends in, and each later segment of B
    voters is re-swept from its checkpoint into the same two arrays, so
    memory is O(B * planes * m). Every sweep runs on the reversed candidate
    axis and packs its bits per ``_PACK_BLOCK`` voters in the unreversed
    (t, c) layout the walk reads.

    Returns (representative per line position, optimal committee size, the
    dtype the sweep ran in, the number of sweeps: 1, or 2 when segments are
    re-swept).
    """
    n, m = rho.shape
    rho, inf, spacing, checkpoints, choice, take = _dp_sweep(rho, planes, egal)
    t = int(checkpoints[0][1][:, -1].argmin())  # smallest committee size among optima
    l_star = t + 1
    nbytes = choice.shape[1]
    choice_bits = memoryview(choice).cast("B")
    take_bits = memoryview(take).cast("B")

    rep: list[int] = []
    c = 0
    resolving = True  # current state is a dyp0 state until take says stop
    for a in range(0, n, spacing):
        b = min(a + spacing, n)
        if a:
            _sweep(rho, *checkpoints[b], egal, inf, b, a, choice=choice, take=take)
        for base in range(0, (b - a) * nbytes, nbytes):
            if resolving:
                idx = t * m + c
                while not _bit(take_bits, base, idx):
                    c += 1
                    idx += 1
            rep.append(c)
            if _bit(choice_bits, base, t * m + c):
                t -= 1
                c += 1
                resolving = True
            else:
                resolving = False
    return rep, l_star, rho.dtype.name, 1 if spacing >= n else 2


def solve_line_dp(
    profile: PreferenceProfile,
    order,
    k: int,
    objective: Objective = Objective.UTILITARIAN,
) -> SolveResult:
    """Optimal committee of size at most k for a line-single-crossing profile.

    The caller vouches for single-crossing on ``order`` (run the checker in
    tests). The committee bound may exceed m; extra budget is simply never
    spent. Returns the canonical assignment: each voter gets their favorite
    committee member, which on these profiles splits the line into at most k
    contiguous blocks.
    """
    if k < 1:
        raise InvalidK(f"committee bound must be at least 1, got {k}")
    line = _line(profile, order)
    rows, inverse = _normalized_rows(profile, line)
    n, m = profile.n, profile.m
    planes = min(k, n)
    egal = objective is Objective.EGALITARIAN
    rep_pos, l_star, engine, sweeps = _dp_engine(rows, planes, egal)
    committee = {inverse[c] for c in set(rep_pos)}
    stats = {"engine": engine, "states": 2 * n * planes * m, "l_star": l_star, "sweeps": sweeps}
    return SolveResult.from_committee(profile, committee, "line-dp", stats)


# ---------------------------------------------------------------------------
# Lagrangian k-link route


def solve_line_klink(profile: PreferenceProfile, order, k: int) -> SolveResult:
    """Utilitarian optimum via the k-link path reduction.

    Strategy: if the fewest-link unconstrained optimum already fits the
    budget, done. Otherwise binary-search the smallest integer penalty whose
    fewest-link optimum fits; with integer weights the optimal link counts
    at consecutive penalties tile the integers, so the budget k lies inside
    the optimal interval at that penalty and the optimum is the penalized
    value minus penalty * k, witnessed by an exactly-k tight-arc path.
    Rational rho runs on its scaled integers, which is exact; ``lambda`` is
    reported in rho units.

    Raises NotSingleCrossing when the optimal link interval misses k, which
    concave Monge weights rule out.
    """
    if k < 1:
        raise InvalidK(f"committee bound must be at least 1, got {k}")
    line = _line(profile, order)
    rows, inverse = _normalized_rows(profile, line)
    n = profile.n
    klink = KLinkInstance(_prefix_sums(rows, profile.scale))

    lam = 0
    total, links, path = smawk_min_links(klink, 0)
    if links > k:
        lo, hi = 1, n * int(rows.max()) + 1  # at the top penalty a single arc wins
        while lo < hi:
            mid = (lo + hi) // 2
            if smawk_min_links(klink, mid)[1] <= k:
                hi = mid
            else:
                lo = mid + 1
        lam = lo
        total, links, path = smawk_min_links(klink, lam)
        if links < k:
            most = smawk_min_links(klink, lam, most_links=True)[1]
            if most < k:
                raise NotSingleCrossing(
                    "optimal link interval misses the budget; the weights are "
                    "not concave Monge, so the input is not single-crossing on this line"
                )
            path = _exact_k_path(klink, lam, k)

    committee = {inverse[klink.cand(u, v)] for u, v in zip(path, path[1:])}
    stats = {
        "engine": klink.prefix.table.dtype.name,
        "lambda": to_rho_units(lam, profile.scale),
        "links": len(path) - 1,
        "omega_evals": klink.evals,
        # Lagrangian dual value: no path with at most k links weighs less
        "lower_bound": to_rho_units(total - lam * k, profile.scale),
    }
    return SolveResult.from_committee(profile, committee, "line-klink", stats)


# ---------------------------------------------------------------------------
# egalitarian threshold


def solve_line_egal_threshold(profile: PreferenceProfile, order, k: int) -> SolveResult:
    """Egalitarian optimum as the least feasible bottleneck value, with its 0/1 witness.

    Threshold t is feasible when some monotone assignment of at most
    min(k, n) blocks pays rho <= t everywhere, that is, when the utilitarian
    optimum of the 0/1 profile (rho > t) is 0. The value sweep of the
    max-objective DP finds the least such t: the minimum over committee
    sizes of the first voter's dyp0 at candidate 0. One 0/1 DP at that t
    gives the witness; its tie-breaks choose among the assignments that meet
    t. Both DPs range over the same block assignments, so t and the witness
    are those of a search over every threshold. ``threshold`` is reported
    in rho units.
    """
    if k < 1:
        raise InvalidK(f"committee bound must be at least 1, got {k}")
    line = _line(profile, order)
    rows, inverse = _normalized_rows(profile, line)
    planes = min(k, profile.n)
    rho, _, _, checkpoints = _dp_sweep(rows, planes, True, record=False)[:4]
    t = int(checkpoints[0][1][:, -1].min())
    rep_pos, _, witness_engine, _ = _dp_engine(rows > t, planes, False)
    witness = {inverse[c] for c in set(rep_pos)}
    # the wider of the two sweeps' tiers: the witness holds n + 2, one more
    # than the value sweep's inf = n * top + 1 when top is 1
    engine = np.result_type(rho.dtype, witness_engine).name
    stats = {"engine": engine, "threshold": to_rho_units(t, profile.scale), "dp_calls": 2}
    return SolveResult.from_committee(profile, witness, "line-egal-threshold", stats)
