"""Solver for profiles that are single-crossing on a rooted tree.

The committee problem is solved as a tree-partition problem: split the tree
into at most k subtrees, each served by one candidate, never letting a
smaller candidate appear below a larger one (after normalizing labels to
the root's ranking, optimal assignments are nondecreasing away from the
root, which is what makes the candidate range [c:m] a sufficient state).

Each vertex keeps one (min(k, |T_v|), m) integer table, ``dyp1[v][l-1, c]``:
the best cost for T_v split into l subtrees with representatives in [c:m]
and v itself represented by c. The state "v's representative only bounded
below by c" (the paper's dyp0) is the suffix minimum of that table along
the candidate axis; it is derived where it is read, in the fold and in the
walk, and never stored.

Children are folded one at a time into a transient plane (the ``dyp2``
tier); the fold at child u considers splitting l between u's subtree and
the part already folded, either keeping u on its own candidate (DIFF,
budget t goes to u with candidates above c) or sharing v's candidate c
(SAME, u's piece and v's piece merge into one subtree). The better of the
two branches' child pieces can be taken first, and for a fixed child budget
the affected budgets l form one contiguous block of rows (as they do for a
fixed plane row), so the fold is one slice operation over every l and c per
row of the plane or of the pieces, whichever has fewer: a single one for
the first child folded into a vertex, whose plane is one row. Children are
folded last to first, so the walk never refolds the first child. The last
child splits against its parent alone, so the walk reads that split as two
table entries; the partial folds the earlier children need it rebuilds with
the same ``merge_child_plane``, on two columns per later child at the
candidate c it reached: the child's table at c and its minimum above c. A
vertex with one child makes no fold.

The sweep runs one height level at a time (0 for a leaf, else 1 + the
largest child height), since vertices of one height never depend on each
other. Per level, round j folds the j-th child from the last of every vertex
that has one, one batched fold over a (vertices, rows, m) stack per group of
equal plane and child table shapes, whose DIFF pieces are one suffix-minimum
pass over the stacked child tables. Sizes are read from table shapes,
min(k, |T_v|), which is all the fold's bounds and the walk's budget ranges
need. Infeasible states hold an integer sentinel chosen per instance above
every finite value (the scaled rows are exact ints of any size, so a float
infinity cannot be added to them); tables are int64, or object arrays of
Python ints once a sum of two entries can pass the int64 range. The tight
t ranges make the whole sweep cost
O(min(k, |T_u|) * min(k, |T_rest|)) per candidate, which telescopes to
O(min(n^2, nk)) over the tree.
"""

from __future__ import annotations

from operator import add

import numpy as np

from .core import (
    Objective,
    PreferenceProfile,
    RootedTree,
    SolveResult,
    int_dtype,
    reference_ranking,
)
from .errors import InconsistentTables, InvalidK

__all__ = ["subtree_sizes", "merge_child_plane", "solve_tree_dp"]


def subtree_sizes(tree: RootedTree):
    """Sizes |T_v| plus the partial sizes |T_{v,i}|.

    partial[v][i-1] counts v together with the subtrees of its children
    i, i+1, ..., so partial[v][0] == size[v] and the last entry is 1 (the
    singleton v once every child has been peeled off). The products
    |T_u| * |T_{v,i+1}| over all children, the terms of the pair-count
    identity behind the merge bound, sum to n(n-1)/2.
    """
    n = tree.n
    size = [1] * n
    order: list[int] = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(tree.child_order[v])
    for v in reversed(order):
        for u in tree.child_order[v]:
            size[v] += size[u]
    partial = []
    for v in range(n):
        acc = [1]
        for u in reversed(tree.child_order[v]):
            acc.append(acc[-1] + size[u])
        acc.reverse()
        partial.append(tuple(acc))
    return size, tuple(partial)


def _merge_iterations(rows: int, bound: int, same_hi: int, diff_hi: int) -> int:
    """The (l, t) splits of one fold, as counted one branch at a time.

    Piece i (i = 0..diff_hi) meets min(rows, bound - i) plane rows and
    stands for two splits (SAME with budget i + 1, DIFF with budget i) when
    0 < i < same_hi, else one. Closed form of that sum: the span is ``rows``
    up to i = bound - rows and ``bound - i`` after it.
    """
    total = -rows
    for last in (diff_hi, min(same_hi - 1, diff_hi)):  # sum of min(rows, bound - i), i = 0..last
        flat = min(last, bound - rows) + 1
        total += flat * rows + (last + 1 - flat) * (rows - 1 + bound - last) // 2
    return total


def merge_child_plane(
    plane,
    child_dyp1,
    k: int,
    objective: Objective = Objective.UTILITARIAN,
    *,
    inf: int,
):
    """Fold one child into a partial plane of its parent.

    ``plane[l-1, c]`` is the best cost for the already-folded part (parent v
    plus previously folded children) split into l subtrees with
    representatives in [c:m] and v on c; ``child_dyp1`` is the child's one
    table. The part's size and the child's are read from the table lengths,
    min(k, size): every bound below is the same for the capped sizes as for
    the exact ones. ``inf`` marks infeasible states and must exceed every
    finite value. Returns the extended (bound, m) plane plus the number of
    (l, t) splits examined, which the caller sums into its work counter.

    Leading axes are a batch: a (g, rows, m) plane and (g, rows_u, m) child
    tables fold g parents at once, all with these table lengths, and the
    count is that of one fold.

    Row l - 1 of the new plane pairs plane row r with the child's piece at
    index i = l - 1 - r, which is SAME with budget t = i + 1 or DIFF with
    t = i, and since the add (or max) distributes over min, the better of
    the two pieces can be chosen before combining it with the plane rows.
    A DIFF piece at c is the child's best entry above c, so the DIFF pieces
    are one suffix-minimum pass over the child rows they use, derived here
    and dropped with the fold. The add (or max) is also symmetric, so the
    fold loops over whichever of the plane and the pieces has fewer rows and
    meets each of those rows with a block of the other in one slice
    operation: a one-row plane (the first child folded into a vertex) costs
    one operation, not one per child budget.
    """
    plane = np.asarray(plane)
    d1 = np.asarray(child_dyp1)
    op = np.maximum if objective is Objective.EGALITARIAN else np.add
    *batch, rows, m = plane.shape
    child = d1.shape[-2]
    bound = min(k, rows + child)
    dtype = np.result_type(plane, d1)
    same_hi = min(child, bound)  # SAME budgets t = 1..same_hi
    diff_hi = min(child, bound - 1)  # DIFF budgets t = 1..diff_hi
    # piece[i, c]: the better of SAME with budget i + 1 (child on c) and DIFF
    # with budget i (child above c, so never for c = m - 1); empty + fill is
    # cheaper than np.full on the small arrays most folds meet
    piece = np.empty((*batch, diff_hi + 1, m), dtype=dtype)
    piece.fill(inf)
    piece[..., :same_hi, :] = d1[..., :same_hi, :]
    above = np.minimum.accumulate(d1[..., :diff_hi, :0:-1], axis=-1)[..., ::-1]
    np.minimum(piece[..., 1:, : m - 1], above, out=piece[..., 1:, : m - 1])
    new = np.empty((*batch, bound, m), dtype=dtype)
    new.fill(inf)
    short, long = (plane, piece) if rows <= diff_hi + 1 else (piece, plane)
    for i in range(short.shape[-2]):
        span = min(long.shape[-2], bound - i)
        block = new[..., i : i + span, :]
        np.minimum(block, op(short[..., i : i + 1, :], long[..., :span, :]), out=block)
    return new, _merge_iterations(rows, bound, same_hi, diff_hi)


def _batch(tables, keys):
    """The equal-shape tables at ``keys`` as one (len(keys), rows, m) array, a lone one uncopied."""
    first = tables[keys[0]]
    if len(keys) == 1:
        return first[None]
    return np.concatenate([tables[key] for key in keys]).reshape(len(keys), *first.shape)


def _height_levels(tree: RootedTree) -> list[list[int]]:
    """Vertices by height: 0 for a leaf, else 1 + the largest child height."""
    post: list[int] = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        post.append(v)
        stack.extend(tree.child_order[v])
    height = [0] * tree.n
    for v in reversed(post):  # children before their parent
        p = tree.parent[v]
        if p is not None and height[p] <= height[v]:
            height[p] = height[v] + 1
    levels: list[list[int]] = [[] for _ in range(height[tree.root] + 1)]
    for v in reversed(post):
        levels[height[v]].append(v)
    return levels


def _dp_tables(rows, tree: RootedTree, k: int, objective: Objective, inf: int):
    """Every vertex's dyp1 table, plus the merge counter.

    The sweep runs one height level at a time, since vertices of one height
    never depend on each other. Every vertex of a level starts from its own
    one-row plane, and round j folds the j-th child from the last of every
    vertex that has one, with one ``merge_child_plane`` call per group of
    vertices whose planes and children have equal table shapes; a leaf takes
    no round. A vertex's last plane is its table, a view into its group's
    fold result when every vertex of the group is finished, else a copy, so
    no table keeps the slots of unfinished vertices alive. No suffix-minimum
    (dyp0) table is kept: each fold derives the ones it reads from the
    stacked child tables.
    """
    children = tree.child_order
    dyp1: list = [None] * tree.n
    merges = 0
    for level in _height_levels(tree):
        for v in level:  # dyp1[v] holds v's plane until its last child is folded
            dyp1[v] = rows[v : v + 1]
        active = [v for v in level if children[v]]
        j = 1
        while active:
            groups: dict[tuple[int, int], tuple[list, list]] = {}
            for v in active:
                u = children[v][-j]
                vs, us = groups.setdefault((len(dyp1[v]), len(dyp1[u])), ([], []))
                vs.append(v)
                us.append(u)
            for vs, us in groups.values():
                new, its = merge_child_plane(
                    _batch(dyp1, vs), _batch(dyp1, us), k, objective, inf=inf
                )
                merges += its * len(vs)
                done = [len(children[v]) == j for v in vs]
                mixed = any(done) and not all(done)  # its unfinished slots are refolded
                for v, p, last in zip(vs, new, done):
                    dyp1[v] = p.copy() if mixed and last else p
            j += 1
            active = [v for v in active if len(children[v]) >= j]
    return dyp1, merges


def solve_tree_dp(
    profile: PreferenceProfile,
    tree: RootedTree,
    k: int,
    objective: Objective = Objective.UTILITARIAN,
) -> SolveResult:
    """Optimal committee of size at most k on a tree-single-crossing profile.

    The caller vouches for single-crossing on the tree. The committee bound
    may exceed m. Returns the canonical assignment (everyone gets their
    favorite committee member), whose per-candidate voter sets are connected
    subtrees.
    """
    if k < 1:
        raise InvalidK(f"committee bound must be at least 1, got {k}")
    if tree.n != profile.n:
        raise ValueError(f"tree covers {tree.n} voters, profile has {profile.n}")
    n, m = profile.n, profile.m

    if k >= n:
        # one subtree per voter: everyone's top choice is attainable
        tops = set(profile.rank[:, 0].tolist())
        stats = {"shortcut": "tops", "merge_iterations": 0}
        return SolveResult.from_committee(profile, tops, "tree-dp", stats)

    inverse = reference_ranking(profile, tree)
    inf = n * int(profile.scaled.max()) + 1  # above every finite total and maximum
    # a fold adds two table values, each at most inf
    rows = profile.scaled[:, list(inverse)].astype(int_dtype(2 * inf), copy=False)
    dyp1, merges = _dp_tables(rows, tree, k, objective, inf)

    l_star = int(np.argmin(dyp1[tree.root].min(axis=1))) + 1  # first minimum

    rep = _reconstruct(rows, tree, k, objective, dyp1, l_star, inf)
    cells = 2 * sum(table.size for table in dyp1)
    del dyp1  # freed before the costs are computed, which lowers the peak
    stats = {
        "merge_iterations": merges,
        "states": m * merges + cells,
        "l_star": l_star,
    }
    return SolveResult.from_committee(profile, {inverse[c] for c in set(rep)}, "tree-dp", stats)


def _reconstruct(rows, tree, k, objective, dyp1, l_star, inf):
    """Walk the tables back into per-voter representatives.

    dyp2 planes were dropped after the sweep, so per visited vertex with
    several children the value vectors of the partial folds without its
    first child are rebuilt at the candidate c the vertex ended up with.
    Each child contributes two columns, its table at c (SAME) and its
    minimum above c (DIFF), one ``np.minimum.reduceat`` per child;
    ``merge_child_plane`` folds the later children's columns into v's own,
    last child first, exactly as the sweep did, and column 0 of each result
    is the vector at c (at c = m - 1 there is one column, so no DIFF piece
    enters). Child by child, the walk scans the child's SAME and DIFF splits
    against the rest of the fold and takes the first minimum: SAME before
    DIFF, then the smallest child budget. The last child's rest is v's own
    entry, so its scan reads two table entries, SAME with budget l and then
    DIFF with budget l - 1 (none at c = m - 1), and a vertex with one child
    makes no fold and no ``reduceat``. The minimum must equal the value the
    walk carries (the vertex's table entry for its first child, then the
    rest entry the previous split chose), or the tables are inconsistent. A
    state whose candidate is only bounded below by c (the suffix minimum,
    derived here) resolves to the smallest attaining candidate, the first
    minimum of its table row from c on; it is resolved when pushed, so every
    stack entry holds a vertex's final candidate.
    """
    op = max if objective is Objective.EGALITARIAN else add
    m = rows.shape[1]
    rep = [0] * tree.n
    # (vertex, subtree budget, candidate)
    stack = [(tree.root, l_star, int(np.argmin(dyp1[tree.root][l_star - 1])))]
    while stack:
        v, l, c = stack.pop()
        rep[v] = c
        children = tree.child_order[v]
        if not children:
            continue
        # per child, column c and the minimum over columns c + 1.. (none at
        # c = m - 1); rest vectors of the partial folds, innermost first: the
        # sweep's own fold on these pairs, whose column 0 is candidate c. A
        # vertex with one child needs neither (see the last child's step).
        pairs, rests = [], []
        if len(children) > 1:
            starts = [c, c + 1][: m - c]
            pairs = [np.minimum.reduceat(dyp1[u], starts, axis=1) for u in children]
            fold = rows[v : v + 1, c : c + 2]
            for pair in reversed(pairs[1:]):
                fold, _ = merge_child_plane(fold, pair, k, objective, inf=inf)
                rests.append(fold[:, 0].tolist())
            rests.reverse()  # rests[i] now covers the children after child i, plus v
        carried = int(dyp1[v][l - 1, c])
        for u, pair, rest in zip(children, pairs, rests):
            d1 = pair[:, 0].tolist()  # SAME: u on c
            d0 = pair[:, 1].tolist() if c + 1 < m else [inf] * len(d1)  # DIFF: u above c
            upper, child = len(rest), len(d1)
            same_ts = range(max(1, l + 1 - upper), min(l, child) + 1)
            diff_ts = range(max(1, l - upper), min(l - 1, child) + 1)
            got = [op(d1[t - 1], rest[l - t]) for t in same_ts]
            got += [op(d0[t - 1], rest[l - t - 1]) for t in diff_ts]
            best = min(got)
            if best != carried:
                raise InconsistentTables(
                    f"vertex {v}, child {u}: the splits reach {best}, the table holds {carried}"
                )
            j = got.index(best)
            if j < len(same_ts):
                t = same_ts[j]
                stack.append((u, t, c))
                l = l - t + 1
            else:
                t = diff_ts[j - len(same_ts)]
                stack.append((u, t, c + 1 + int(np.argmin(dyp1[u][t - 1, c + 1 :]))))
                l = l - t
            carried = rest[l - 1]
        # the last child splits against v alone, whose rest is the one entry
        # rows[v, c]: SAME with budget l, then DIFF with budget l - 1
        u, table, r = children[-1], dyp1[children[-1]], int(rows[v, c])
        best, push = op(inf, r), None  # reported when no split exists
        if l <= len(table):
            best, push = op(int(table[l - 1, c]), r), (u, l, c)
        if 2 <= l <= len(table) + 1 and c + 1 < m:
            j = c + 1 + int(np.argmin(table[l - 2, c + 1 :]))
            diff = op(int(table[l - 2, j]), r)
            if push is None or diff < best:
                best, push = diff, (u, l - 1, j)
        if push is None or best != carried:
            raise InconsistentTables(
                f"vertex {v}, child {u}: the splits reach {best}, the table holds {carried}"
            )
        stack.append(push)
    return rep
