"""Recognizers: rho consistency and single-crossing checks for line, tree, grid.

Each checker returns None when the property holds, otherwise the
lexicographically first violation witness (ordered by candidate pair, then
by position).  Witnesses are plain facts about the instance and can be
re-verified independently of the checker.

The line and tree checks share one flip count (`_first_twice_flipped`): a
profile is single-crossing on a tree when every candidate pair flips on at
most one edge, and a line is the path case. Voters sharing a table row
cannot flip a pair, so it runs over table rows and the edges between
different ones.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Optional

import numpy as np

from .core import Grid, Line, PreferenceProfile, RootedTree, line_runs
from .errors import InvalidN


class ConsistencyViolation(NamedTuple):
    """Voter ranks `better` above `worse` yet scores it strictly higher."""

    voter: int
    better: int
    worse: int


class CrossingViolation(NamedTuple):
    """Voters v1 and v3 prefer c to c_other while v2, between them, disagrees.

    "Between" means: later in the line order (v1 before v2 before v3), on the
    tree path from v1 to v3, or inside the coordinate bounding box of v1 and
    v3 on the grid.
    """

    c: int
    c_other: int
    v1: int
    v2: int
    v3: int


def check_consistency(profile: PreferenceProfile) -> Optional[ConsistencyViolation]:
    """Verify rho is nondecreasing along every ranking.

    Adjacent positions suffice: any violating pair contains an adjacent one.
    The scaled matrix orders exactly as rho does, so one gather along the
    rankings and one comparison decide every table row at once, and voters
    sharing a row share the verdict; the witness is the first voter whose
    row fails, at that row's first failing position. A Borda profile
    stores its ``table_pos`` as ``table_scaled``, and ``pos`` gathered along
    ``rank`` is 0..m-1 on every row, so such a profile passes without the
    gather and without building per-voter arrays.
    """
    if profile.table_scaled is profile.table_pos:
        return None
    rank = profile.table_rank
    along = np.take_along_axis(profile.table_scaled, rank, axis=1)
    falls = along[:, :-1] > along[:, 1:]
    bad = np.flatnonzero(falls.any(axis=1)[profile.index])
    if len(bad) == 0:
        return None
    v = int(bad[0])
    row = profile.index[v]
    p = int(np.argmax(falls[row]))
    return ConsistencyViolation(v, int(rank[row, p]), int(rank[row, p + 1]))


def _first_twice_flipped(pos: np.ndarray, tail, head):
    """(a, b, flipped, prefers_a) for the first pair a < b flipping on two or more edges, or None.

    ``pos[c]`` holds candidate c's rank position at each node, and edge e
    joins nodes ``tail[e]`` and ``head[e]`` (index arrays or slices). One
    pass per candidate a decides every pair (a, b > a) at once. ``flipped``
    marks the edges the pair flips on, ``prefers_a`` the nodes preferring a.
    """
    for a in range(len(pos) - 1):
        prefers_a = pos[a + 1 :] > pos[a]  # row b - a - 1 is the pair (a, b)
        flipped = prefers_a[:, tail] != prefers_a[:, head]
        twice = np.flatnonzero(flipped.sum(axis=1, dtype=np.int32) >= 2)
        if len(twice):
            row = int(twice[0])
            return a, a + 1 + row, flipped[row], prefers_a[row]
    return None


def _narrow(table: np.ndarray) -> np.ndarray:
    """Rank positions (< m) in the narrowest dtype that holds them."""
    return table.astype(np.min_scalar_type(table.shape[1] - 1))


def check_sc_line(profile: PreferenceProfile, line: Line) -> Optional[CrossingViolation]:
    """Single-crossing on a line: every candidate pair flips at most once.

    The flips are counted between the runs of equal index along the line
    (`line_runs`); a flip between two runs is the one between the last voter
    of the first and the first voter of the second.
    """
    if line.n != profile.n:
        raise InvalidN("line order and profile disagree on the number of voters")
    starts, rows = line_runs(profile, line)
    # row c: candidate c's rank position in each run; gathered, then transposed
    pos = np.ascontiguousarray(_narrow(profile.table_pos)[rows].T)
    found = _first_twice_flipped(pos, slice(None, -1), slice(1, None))
    if found is None:
        return None
    a, b, flipped, prefers_a = found
    f0, f1 = (int(f) for f in np.flatnonzero(flipped)[:2])
    after0, after1 = int(starts[f0 + 1]), int(starts[f1 + 1])
    v1, v2, v3 = (line.order[after0 - 1], line.order[after0], line.order[after1])
    if prefers_a[f0]:
        return CrossingViolation(a, b, v1, v2, v3)
    return CrossingViolation(b, a, v1, v2, v3)


def _tree_side_violation(
    tree: RootedTree, inside: np.ndarray, child: np.ndarray, parent: np.ndarray
) -> Optional[tuple[int, int, int]]:
    """If `inside` does not induce a connected subtree, return (v1, v2, v3).

    ``child`` lists the non-root vertices and ``parent`` their parents.
    """
    members = np.flatnonzero(inside)
    if len(members) == 0:
        return None
    # A vertex subset of a tree is connected iff it spans |S| - 1 edges.
    edges = np.count_nonzero(inside[child] & inside[parent])
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


def check_sc_tree(profile: PreferenceProfile, tree: RootedTree) -> Optional[CrossingViolation]:
    """Single-crossing on a tree: each pair's supporters induce a subtree.

    Equivalent to the path formulation (no path may read c, c_other, c).
    Both sides of a pair induce subtrees exactly when the pair flips across
    at most one tree edge (cutting e edges leaves e + 1 one-sided parts).
    The flips are counted over the table rows, on the edges whose endpoints
    have different rows; the side test and witness search run on the first
    failing pair only, from that pair's two table columns.
    """
    if tree.n != profile.n:
        raise InvalidN("tree and profile disagree on the number of voters")
    root = tree.root
    child = np.delete(np.arange(tree.n), root)
    parent = np.array(tree.parent[:root] + tree.parent[root + 1 :], dtype=np.int64)
    index = profile.index
    at_child, at_parent = index[child], index[parent]
    apart = at_child != at_parent
    # row c: candidate c's rank position in each table row
    pos = np.ascontiguousarray(_narrow(profile.table_pos).T)
    found = _first_twice_flipped(pos, at_child[apart], at_parent[apart])
    if found is None:
        return None
    a, b = found[:2]
    prefers_a = (profile.table_pos[:, a] < profile.table_pos[:, b])[index]
    for c, c_other, inside in ((a, b, prefers_a), (b, a, ~prefers_a)):
        witness = _tree_side_violation(tree, inside, child, parent)
        if witness is not None:
            return CrossingViolation(c, c_other, *witness)
    return None


def _first_member(mask: np.ndarray) -> tuple[int, int]:
    flat = int(np.flatnonzero(mask.ravel())[0])
    return divmod(flat, mask.shape[1])


def _box_gaps(side: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cells outside ``side`` inside a box spanned by two of its members.

    A cell is such a gap iff two opposite closed quadrants around it both
    contain members.  Returns the gaps and the cells whose north-west and
    south-east quadrants both do.  ``side`` holds grid rows and columns on
    its first two axes and any batch axes after them; quadrant occupancy
    comes from running maxima in the four sweep directions.
    """
    a = side.astype(np.uint8)
    nw = np.maximum.accumulate(np.maximum.accumulate(a, axis=0), axis=1)
    se = np.maximum.accumulate(np.maximum.accumulate(a[::-1, ::-1], axis=0), axis=1)[::-1, ::-1]
    ne = np.maximum.accumulate(np.maximum.accumulate(a[:, ::-1], axis=0), axis=1)[:, ::-1]
    sw = np.maximum.accumulate(np.maximum.accumulate(a[::-1, :], axis=0), axis=1)[::-1, :]
    diagonal = (nw & se).astype(bool)
    return (diagonal | (ne & sw).astype(bool)) & ~side, diagonal


def _grid_side_violation(side: np.ndarray) -> Optional[tuple[tuple, tuple, tuple]]:
    """If `side` is not box-convex, return grid coords (s, u, t) with u outside.

    u is the first gap of :func:`_box_gaps`; s and t are members in two
    opposite quadrants around it, so their box contains u.
    """
    bad, diagonal = _box_gaps(side)
    if not bad.any():
        return None
    i, j = _first_member(bad)
    if diagonal[i, j]:
        s = _first_member(side[: i + 1, : j + 1])
        t0, t1 = _first_member(side[i:, j:])
        t = (t0 + i, t1 + j)
    else:
        s0, s1 = _first_member(side[: i + 1, j:])
        s = (s0, s1 + j)
        t0, t1 = _first_member(side[i:, : j + 1])
        t = (t0 + i, t1)
    return s, (i, j), t


def check_sc_grid(profile: PreferenceProfile, grid: Grid) -> Optional[CrossingViolation]:
    """Single-crossing on a grid: each pair's supporter set is box-convex.

    Equivalent to the shortest-path formulation: monotone staircases inside a
    bounding box are exactly the shortest paths through it, so a chord
    c, c_other, c along some shortest path exists iff box-convexity fails for
    one side of the pair.  O(n) per ordered pair via quadrant sweeps, run
    for all pairs (a, b > a) of one candidate a at once.
    """
    if grid.n != profile.n:
        raise InvalidN("grid shape and profile disagree on the number of voters")
    pos = profile.pos.reshape(grid.n1, grid.n2, -1)
    m = profile.m
    for a in range(m - 1):
        # sides[..., b - a - 1, 0] supports a over b, sides[..., b - a - 1, 1] b over a
        prefers_a = pos[:, :, a : a + 1] < pos[:, :, a + 1 :]
        sides = np.stack((prefers_a, ~prefers_a), axis=3)
        failing = np.flatnonzero(_box_gaps(sides)[0].any(axis=(0, 1)))
        if len(failing) == 0:
            continue
        col, flip = divmod(int(failing[0]), 2)
        c, c_other = (a, a + 1 + col) if flip == 0 else (a + 1 + col, a)
        s, u, t = _grid_side_violation(sides[:, :, col, flip])
        return CrossingViolation(c, c_other, grid.index(*s), grid.index(*u), grid.index(*t))
    return None


def check_structure(profile: PreferenceProfile, structure) -> Optional[CrossingViolation]:
    """Dispatch to the matching single-crossing checker."""
    if isinstance(structure, Line):
        return check_sc_line(profile, structure)
    if isinstance(structure, RootedTree):
        return check_sc_tree(profile, structure)
    if isinstance(structure, Grid):
        return check_sc_grid(profile, structure)
    raise TypeError(f"unsupported structure {type(structure).__name__}")
