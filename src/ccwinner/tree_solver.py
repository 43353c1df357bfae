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
two branches' child pieces can be taken first, and the fold is then a
(min, +) (or (min, max)) convolution of the plane and the pieces along the
budget axis, truncated at k rows and capped at the sentinel: one slice
operation over every l and c per row of the plane or of the pieces,
whichever has fewer. The convolution is associative, so pieces of several
children can also be combined first. Children are folded last to first, so
the walk never refolds the first child. The last child splits against its
parent alone, so the walk reads that split as two table entries; the
partial folds the earlier children need it rebuilds as one-column
convolutions at the candidate c it reached, from each later child's table
at c and its minimum above c. A vertex with one child makes no fold.

The sweep runs one height level at a time (0 for a leaf, else 1 + the
largest child height), since vertices of one height never depend on each
other. Per level, every vertex's first fold, its last child into its
one-row plane, runs in one flat pass over the last children's tables laid
end to end. Round j then folds the j-th child from the last of every vertex
that has one, one batched fold over a (vertices, rows, m) stack per group of
equal plane and child table shapes, whose DIFF pieces are one suffix-minimum
pass over the stacked child tables. A vertex left alone with children to
fold combines their pieces pairwise in log rounds and folds the result once.
Sizes are read from table shapes, min(k, |T_v|), which is all the fold's
bounds and the walk's budget ranges need. Infeasible states hold an integer
sentinel chosen per instance above every finite value (the scaled rows are
exact ints of any size, so a float infinity cannot be added to them);
tables are int64, or object arrays of Python ints once a sum of two entries
can pass the int64 range. The tight t ranges make the whole sweep cost
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
from .errors import InconsistentTables, InvalidK, InvalidN

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
    for v in reversed(tree.order[1:]):  # children before their parent
        size[tree.parent[v]] += size[v]
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


def _pieces(d1, k: int, inf: int, dtype):
    """A child's pieces: ``piece[..., i, c]`` is the better of SAME with budget
    i + 1 (the child on c) and DIFF with budget i (the child above c, so never
    for c = m - 1), for i = 0..min(child, k - 1).

    Leading axes are a batch. A DIFF piece at c is the child's best entry
    above c, so the DIFF pieces are one suffix-minimum pass over the child
    rows they use; rows of ``inf`` (padding) give pieces of ``inf``.
    """
    *batch, child, m = d1.shape
    size = min(child, k - 1) + 1
    piece = np.empty((*batch, size, m), dtype=dtype)
    piece[..., size - 1, :].fill(inf)  # the DIFF-only row when child < k
    piece[..., :child, :] = d1[..., :size, :]
    above = np.minimum.accumulate(d1[..., : size - 1, :0:-1], axis=-1)[..., ::-1]
    np.minimum(piece[..., 1:, : m - 1], above, out=piece[..., 1:, : m - 1])
    return piece


def _fold(a, b, bound: int, op, inf: int):
    """The (min, op) convolution of two budget arrays, truncated to ``bound`` rows.

    ``new[..., l, :]`` is the least ``op(a[..., r, :], b[..., i, :])`` over
    r + i = l, capped at ``inf``; leading axes are a batch. The op is
    symmetric, so the loop runs over whichever operand has fewer rows and
    meets each of its rows with a block of the other in one slice
    operation. Folding a child's pieces into a plane is one such
    convolution, and so is combining two children's pieces: the convolution
    is associative, and truncation and the cap commute with it on values
    that are never negative.
    """
    new = np.empty((*a.shape[:-2], bound, a.shape[-1]), dtype=np.result_type(a, b))
    new.fill(inf)
    short, long = (a, b) if a.shape[-2] <= b.shape[-2] else (b, a)
    for i in range(min(short.shape[-2], bound)):
        span = min(long.shape[-2], bound - i)
        block = new[..., i : i + span, :]
        np.minimum(block, op(short[..., i : i + 1, :], long[..., :span, :]), out=block)
    return new


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
    the two pieces (``_pieces``) can be chosen before combining it with the
    plane rows, in one truncated convolution (``_fold``).
    """
    plane = np.asarray(plane)
    d1 = np.asarray(child_dyp1)
    op = np.maximum if objective is Objective.EGALITARIAN else np.add
    rows, child = plane.shape[-2], d1.shape[-2]
    bound = min(k, rows + child)
    piece = _pieces(d1, k, inf, np.result_type(plane, d1))
    return _fold(plane, piece, bound, op, inf), _merge_iterations(
        rows, bound, child, min(child, bound - 1)
    )


def _batch(tables, keys):
    """The equal-shape tables at ``keys`` as one (len(keys), rows, m) array, a lone one uncopied."""
    first = tables[keys[0]]
    if len(keys) == 1:
        return first[None]
    return np.concatenate([tables[key] for key in keys]).reshape(len(keys), *first.shape)


def _height_levels(tree: RootedTree) -> list[list[int]]:
    """Vertices by height: 0 for a leaf, else 1 + the largest child height."""
    height = [0] * tree.n
    for v in reversed(tree.order[1:]):  # children before their parent
        p = tree.parent[v]
        if height[p] <= height[v]:
            height[p] = height[v] + 1
    levels: list[list[int]] = [[] for _ in range(height[tree.root] + 1)]
    for v in tree.order:
        levels[height[v]].append(v)
    return levels


def _first_folds(rows, dyp1, inner, finished: int, children, k: int, op, pad, inf: int) -> int:
    """Fold the last child of every vertex in ``inner`` into its one-row plane, in one flat pass.

    The first ``finished`` vertices have no other child. A vertex's plane is
    its one row, so its first fold is its last child's pieces, each combined
    with that row. The last children's tables are laid end to end, each
    followed by one ``inf`` row when it has fewer than k rows; the segment
    of a child with ``child`` rows then has the min(k, child + 1) rows of
    its parent's new table, and its extra row is the DIFF-only piece. One
    suffix-minimum pass over the block gives every DIFF piece, the suffix
    minima of each segment's last row are set to ``inf`` so they never
    reach the next segment, and one shifted minimum, one gather of the
    parents' rows, the op and the cap finish every table. The finished
    vertices' tables own one block and the others a second one, so a
    finished table keeps no refolded rows alive. Returns the fold's counter.
    """
    m = rows.shape[1]
    parts, bounds, ends, end, merges = [], [], [], 0, 0
    for v in inner:
        table = dyp1[children[v][-1]]
        child = len(table)
        parts.append(table)
        if child < k:
            parts.append(pad)
            child_bound = child + 1
        else:
            child_bound = k
        bounds.append(child_bound)
        end += child_bound
        ends.append(end)
        # _merge_iterations(1, child_bound, child, child_bound - 1) in closed form
        merges += child + child_bound - 1
    block = np.concatenate(parts)
    # above[j, c] is the least entry of block row j from column c on, and the
    # DIFF piece at (j + 1, c) is above[j, c + 1], m - 1 entries back in the
    # flat arrays. Column 0, which no DIFF piece reads, and each segment's
    # last row are set to inf, so the flat shift never reads across a row
    # or into the next segment.
    above = np.empty_like(block)
    np.minimum.accumulate(block[:, ::-1], axis=1, out=above[:, ::-1])
    above[:, 0] = inf
    above[[e - 1 for e in ends]] = inf
    flat, shift = block.reshape(-1), above.reshape(-1)[: end * m - m + 1]
    np.minimum(flat[m - 1 :], shift, out=flat[m - 1 :])
    del above, shift  # freed before the gather, which lowers the peak
    op(block, np.repeat(rows[inner], bounds, axis=0), out=block)
    if op is np.add:  # a max of two entries never passes inf
        np.minimum(block, inf, out=block)
    split = ends[finished - 1] if finished else 0
    done = block[:split].copy() if 0 < split < end else block
    lo = 0
    for i, (v, hi) in enumerate(zip(inner, ends)):
        dyp1[v] = (done if i < finished else block)[lo:hi]
        lo = hi
    return merges


def _dp_tables(rows, tree: RootedTree, k: int, objective: Objective, inf: int):
    """Every vertex's dyp1 table, plus the merge counter.

    The sweep runs one height level at a time, since vertices of one height
    never depend on each other. Every vertex's first fold (its last child
    into its one-row plane) runs in one flat pass per level
    (``_first_folds``). After it, round j folds the j-th child from the last
    of every vertex that has one, with one ``merge_child_plane`` call per
    group of vertices whose planes and children have equal table shapes.
    Once a single vertex of the level has children left to fold, their
    pieces are built in one call on their tables stacked (padded with
    ``inf`` rows to the longest), combined pairwise in ceil(log2(count))
    rounds and folded into its plane once (``_fold_lone``, which splits a
    very wide or very uneven vertex into a few such runs). A leaf takes no
    fold. A vertex's last plane is its table, a view into its own segment or
    its group's fold result when every vertex there is finished, else a
    copy, so no table keeps the rows of unfinished vertices alive. The
    counter is the per-fold closed form summed in the one-child-at-a-time
    order. No suffix-minimum (dyp0) table is kept: each fold derives the
    ones it reads from the child tables.
    """
    children = tree.child_order
    op = np.maximum if objective is Objective.EGALITARIAN else np.add
    dyp1: list = [None] * tree.n
    pad = np.empty((1, rows.shape[1]), dtype=rows.dtype)
    pad.fill(inf)
    merges = 0
    for level in _height_levels(tree):
        for v in level:
            if not children[v]:
                dyp1[v] = rows[v : v + 1]
        ones = [v for v in level if len(children[v]) == 1]
        active = [v for v in level if len(children[v]) > 1]
        if ones or active:
            merges += _first_folds(rows, dyp1, ones + active, len(ones), children, k, op, pad, inf)
        j = 2
        while active:
            if len(active) == 1:
                v = active[0]
                merges += _fold_lone(dyp1, v, children[v][: 1 - j], k, op, inf)
                break
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


# rows of a lone vertex's padded stack of child tables: bounds the memory its
# log rounds hold at once, a few times this many rows of m entries
_RUN_ROWS = 1024


def _slots(count: int) -> int:
    """The power of two a stack of ``count`` pieces is filled up to."""
    return 1 << (count - 1).bit_length()


def _fold_lone(dyp1, v, kids, k: int, op, inf: int) -> int:
    """Fold the children ``kids`` into v's plane, their pieces combined in log rounds.

    The values are those of folding the children one at a time, last to
    first (the convolution is associative and commutative), and the counter
    is summed from that order's fold sizes. Longest first, the children
    form runs whose padded stack holds at most twice their rows and at most
    ``_RUN_ROWS`` rows: one run on most vertices, a new one where the
    tables get short or the vertex is very wide. A run's tables are
    stacked, padded with ``inf`` rows to the longest, and the stack is
    filled up to a power of two with identity pieces (0 at budget 0,
    ``inf`` above it); one ``_pieces`` call builds every piece, each round
    folds the first half of the pieces into the second half with one
    ``_fold`` call, and the last piece is folded into the plane.
    """
    rows, merges = len(dyp1[v]), 0
    for u in reversed(kids):
        child = len(dyp1[u])
        bound = min(k, rows + child)
        merges += _merge_iterations(rows, bound, child, min(child, bound - 1))
        rows = bound
    plane = dyp1[v]
    tables = sorted((dyp1[u] for u in kids), key=len, reverse=True)
    start = 0
    while start < len(tables):
        longest = len(tables[start])
        stop, held = start + 1, longest
        while stop < len(tables):
            grown, child = stop + 1 - start, len(tables[stop])
            if grown * longest > 2 * (held + child) or _slots(grown) * longest > _RUN_ROWS:
                break
            held += child
            stop += 1
        count = stop - start
        if count == 1:
            stack = tables[start][None]
        else:
            stack = np.empty((_slots(count), longest, plane.shape[1]), dtype=plane.dtype)
            stack.fill(inf)
            for slot, table in zip(stack, tables[start:stop]):
                slot[: len(table)] = table
        pieces = _pieces(stack, k, inf, plane.dtype)
        del stack
        pieces[count:, 0] = 0
        while len(pieces) > 1:
            half = len(pieces) // 2
            pieces = _fold(pieces[:half], pieces[half:], min(k, 2 * pieces.shape[1] - 1), op, inf)
        plane = _fold(plane, pieces[0], min(k, len(plane) + held), op, inf)
        start = stop
    dyp1[v] = plane
    return merges


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
        raise InvalidN(f"tree covers {tree.n} voters, profile has {profile.n}")
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


def _fold_column(rest, pair, k: int, op, inf: int):
    """Column 0 of ``merge_child_plane`` on a (rows, 2) plane, from its column 0 alone.

    ``rest`` is the plane's column at candidate c, and ``pair`` the child's
    column c and its minimum above c (no second column at c = m - 1). The
    pieces are one vector, min(SAME, DIFF shifted by one budget), and their
    outer op with ``rest`` is written into an ``inf``-padded (rows, pieces +
    rows) buffer; read with one row fewer per line, the buffer puts each
    anti-diagonal (one new budget) in a column, so one minimum over rows
    and the cap give the new column.
    """
    rows, child = len(rest), len(pair)
    size = min(child, k - 1) + 1
    piece = np.empty(size, dtype=pair.dtype)
    piece[-1] = inf  # the DIFF-only piece when child < k
    piece[:child] = pair[:, 0]
    if pair.shape[1] > 1:
        np.minimum(piece[1:], pair[: size - 1, 1], out=piece[1:])
    width = size + rows - 1
    buf = np.empty((rows, width + 1), dtype=pair.dtype)
    buf.fill(inf)
    op(rest[:, None], piece, out=buf[:, :size])
    skewed = buf.reshape(-1)[: rows * width].reshape(rows, width)
    new = skewed[:, : min(k, rows + child)].min(axis=0)
    return np.minimum(new, inf, out=new)


def _reconstruct(rows, tree, k, objective, dyp1, l_star, inf):
    """Walk the tables back into per-voter representatives.

    dyp2 planes were dropped after the sweep, so per visited vertex with
    several children the value vectors of the partial folds without its
    first child are rebuilt at the candidate c the vertex ended up with.
    Each child contributes two columns, its table at c (SAME) and its
    minimum above c (DIFF), one ``np.minimum.reduceat`` per child;
    ``_fold_column`` folds the later children's columns into v's own entry,
    last child first, as the sweep's fold does at column c and with the same
    values (at c = m - 1 there is one column, so no DIFF piece enters). Each
    refold is one skewed convolution of two vectors, a fixed number of numpy
    calls whatever the rows. Child by child, the walk scans the child's SAME
    and DIFF splits against the rest of the fold and takes the first
    minimum: SAME before DIFF, then the smallest child budget. The last
    child's rest is v's own entry, so its scan reads two table entries, SAME
    with budget l and then DIFF with budget l - 1 (none at c = m - 1), and a
    vertex with one child makes no fold and no ``reduceat``. The minimum
    must equal the value the walk carries (the vertex's table entry for its
    first child, then the rest entry the previous split chose), or the
    tables are inconsistent. A state whose candidate is only bounded below
    by c (the suffix minimum, derived here) resolves to the smallest
    attaining candidate, the first minimum of its table row from c on; it is
    resolved when pushed, so every stack entry holds a vertex's final
    candidate.
    """
    op = max if objective is Objective.EGALITARIAN else add
    fold_op = np.maximum if objective is Objective.EGALITARIAN else np.add
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
            fold = rows[v, c : c + 1]
            for pair in reversed(pairs[1:]):
                fold = _fold_column(fold, pair, k, fold_op, inf)
                rests.append(fold.tolist())
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
