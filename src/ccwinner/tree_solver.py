"""Solver for profiles that are single-crossing on a rooted tree.

The committee problem is solved as a tree-partition problem: split the tree
into at most k subtrees, each served by one candidate, never letting a
smaller candidate appear below a larger one (after normalizing labels to
the root's ranking, optimal assignments are nondecreasing away from the
root, which is what makes the candidate range [c:m] a sufficient state).

Per vertex the tables are (min(k, |T_v|), m) integer arrays

* ``dyp1[v][l-1, c]`` -- best cost for T_v split into l subtrees with
  representatives in [c:m] and v itself represented by c;
* ``dyp0[v][l-1, c]`` -- same but v's representative only bounded below by c
  (suffix minima of ``dyp1[v]`` along the candidate axis).

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
folded last to first, so the walk never refolds the first child.
Infeasible states hold an integer sentinel chosen per instance above every
finite value (the scaled rows are exact ints of any size, so a float
infinity cannot be added to them); tables are int64, or object arrays of
Python ints once a sum of two entries can pass the int64 range. The tight
t ranges make the whole sweep cost
O(min(k, |T_u|) * min(k, |T_rest|)) per candidate, which telescopes to
O(min(n^2, nk)) over the tree.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Assignment,
    Objective,
    PreferenceProfile,
    RootedTree,
    SolveResult,
    canonicalize,
    int_dtype,
    reference_ranking,
    relabel_assignment,
)
from .errors import InconsistentTables, InvalidK

__all__ = ["subtree_sizes", "merge_child_plane", "solve_tree_dp"]

def subtree_sizes(tree: RootedTree):
    """Sizes |T_v| plus the partial sizes |T_{v,i}| used by the child sweep.

    partial[v][i-1] counts v together with the subtrees of its children
    i, i+1, ..., so partial[v][0] == size[v] and the last entry is 1 (the
    singleton v once every child has been peeled off).
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


def merge_child_plane(
    plane,
    child_dyp0,
    child_dyp1,
    upper_size: int,
    child_size: int,
    k: int,
    objective: Objective = Objective.UTILITARIAN,
    *,
    inf: int,
):
    """Fold one child into a partial plane of its parent.

    ``plane[l-1, c]`` is the best cost for the already-folded part (parent v
    plus previously folded children, ``upper_size`` voters) split into l
    subtrees with representatives in [c:m] and v on c. ``inf`` marks
    infeasible states and must exceed every finite value. Returns the
    extended (bound, m) plane plus the number of (l, t) splits examined,
    which the caller sums into its work counter.

    Row l - 1 of the new plane pairs plane row r with the child's piece at
    index i = l - 1 - r, which is SAME with budget t = i + 1 or DIFF with
    t = i, and since the add (or max) distributes over min, the better of
    the two pieces can be chosen before combining it with the plane rows.
    The add (or max) is also symmetric, so the fold loops over whichever of
    the plane and the pieces has fewer rows and meets each of those rows
    with a block of the other in one slice operation: a one-row plane (the
    first child folded into a vertex) costs one operation, not one per
    child budget.
    """
    plane = np.asarray(plane)
    d0 = np.asarray(child_dyp0)
    d1 = np.asarray(child_dyp1)
    op = np.maximum if objective is Objective.EGALITARIAN else np.add
    rows, m = plane.shape
    bound = min(k, upper_size + child_size)
    dtype = np.result_type(plane, d0, d1)
    same_hi = min(child_size, bound)  # SAME budgets t = 1..same_hi
    diff_hi = min(child_size, bound - 1)  # DIFF budgets t = 1..diff_hi
    # piece[i, c]: the better of SAME with budget i + 1 (child on c) and DIFF
    # with budget i (child above c, so never for c = m - 1)
    piece = np.full((diff_hi + 1, m), inf, dtype=dtype)
    piece[:same_hi] = d1[:same_hi]
    np.minimum(piece[1:, : m - 1], d0[:diff_hi, 1:], out=piece[1:, : m - 1])
    new = np.full((bound, m), inf, dtype=dtype)
    short, long = (plane, piece) if rows <= diff_hi + 1 else (piece, plane)
    for i in range(len(short)):
        span = min(len(long), bound - i)
        block = new[i : i + span]
        np.minimum(block, op(short[i], long[:span]), out=block)
    # the (l, t) splits of both branches, as counted one branch at a time
    iterations = sum(
        min(rows, bound - i) * ((i < same_hi) + (i > 0)) for i in range(diff_hi + 1)
    )
    return new, iterations


def _suffix_min_rows(plane):
    """dyp0 rows (suffix minima over the candidate axis) from dyp1 rows."""
    return np.ascontiguousarray(np.minimum.accumulate(plane[:, ::-1], axis=1)[:, ::-1])


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
        assignment = Assignment(tuple(profile.rank[:, 0].tolist()))
        return SolveResult.from_assignment(
            profile, assignment, "tree-dp", {"shortcut": "tops", "merge_iterations": 0}
        )

    inverse = reference_ranking(profile, tree)
    inf = n * int(profile.scaled.max()) + 1  # above every finite total and maximum
    # a fold adds two table values, each at most inf
    rows = profile.scaled[:, list(inverse)].astype(int_dtype(2 * inf), copy=False)
    size, partial = subtree_sizes(tree)

    dyp0: list = [None] * n
    dyp1: list = [None] * n
    merges = 0

    post: list[int] = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        post.append(v)
        stack.extend(tree.child_order[v])
    for v in reversed(post):
        plane = rows[v : v + 1]
        upper = 1
        for u in reversed(tree.child_order[v]):
            plane, its = merge_child_plane(
                plane, dyp0[u], dyp1[u], upper, size[u], k, objective, inf=inf
            )
            merges += its
            upper += size[u]
        dyp1[v] = plane
        dyp0[v] = _suffix_min_rows(plane)

    l_star = int(np.argmin(dyp0[tree.root][:, 0])) + 1  # first minimum

    rep = _reconstruct(rows, tree, k, objective, dyp0, dyp1, size, partial, l_star, inf)
    assignment = relabel_assignment(Assignment(tuple(rep)), inverse)
    assignment = canonicalize(profile, assignment)
    cells = 2 * m * sum(min(k, size[v]) for v in range(n))
    stats = {
        "merge_iterations": merges,
        "states": m * merges + cells,
        "l_star": l_star,
    }
    return SolveResult.from_assignment(profile, assignment, "tree-dp", stats)


def _reconstruct(rows, tree, k, objective, dyp0, dyp1, size, partial, l_star, inf):
    """Walk the tables back into per-voter representatives.

    dyp2 planes were dropped after the sweep, so per visited vertex the
    value vectors of the partial folds without its first child are rebuilt
    at the single candidate the vertex ended up with, from each child's two
    table columns read as Python lists; a vertex with one child needs no
    fold. Child by child, the walk scans the child's SAME and DIFF splits
    against the rest of the fold and takes the first minimum: SAME before
    DIFF, then the smallest child budget. That minimum must equal the value
    the walk carries (the vertex's table entry for its first child, then the
    rest entry the previous split chose), or the tables are inconsistent.
    dyp0 states resolve to the smallest attaining candidate.
    """
    egal = objective is Objective.EGALITARIAN
    m = rows.shape[1]
    rep = [0] * tree.n
    # (vertex, subtree budget, candidate bound, budget is a dyp0 state)
    stack = [(tree.root, l_star, 0, True)]
    while stack:
        v, l, c, floating = stack.pop()
        if floating:
            row1, row0 = dyp1[v][l - 1].tolist(), dyp0[v][l - 1].tolist()
            while row1[c] != row0[c]:
                c += 1
        rep[v] = c
        children = tree.child_order[v]
        if not children:
            continue
        # per child u: dyp1[u][:, c] (SAME) and dyp0[u][:, c + 1] (DIFF)
        same = {u: dyp1[u][:, c].tolist() for u in children}
        diff = {
            u: dyp0[u][:, c + 1].tolist() if c + 1 < m else [inf] * len(dyp0[u])
            for u in children
        }
        # value vectors of the partial folds at candidate c, innermost first;
        # as in merge_child_plane, the better piece of SAME with budget i + 1
        # and DIFF with budget i enters before the rest of the fold
        vectors = [[int(rows[v, c])]]
        upper = 1
        for u in reversed(children[1:]):
            prev = vectors[-1]
            piece = list(map(min, same[u] + [inf], [inf] + diff[u]))
            bound = min(k, upper + size[u])
            vec = [inf] * bound
            for l2 in range(1, bound + 1):
                best = inf
                for i in range(max(0, l2 - upper), min(l2 - 1, size[u]) + 1):
                    got = max(piece[i], prev[l2 - 1 - i]) if egal else piece[i] + prev[l2 - 1 - i]
                    if got < best:
                        best = got
                vec[l2 - 1] = best
            # slower than the forward sweep's all-c fold, but runs once per vertex
            vectors.append(vec)
            upper += size[u]
        vectors.reverse()  # vectors[i] now covers the children after child i, plus v
        carried = int(dyp1[v][l - 1, c])
        for i, u in enumerate(children):
            upper = partial[v][i + 1]
            rest = vectors[i]
            d0, d1 = diff[u], same[u]
            same_ts = range(max(1, l + 1 - upper), min(l, size[u]) + 1)
            diff_ts = range(max(1, l - upper), min(l - 1, size[u]) + 1)
            if egal:
                got = [max(d1[t - 1], rest[l - t]) for t in same_ts]
                got += [max(d0[t - 1], rest[l - t - 1]) for t in diff_ts]
            else:
                got = [d1[t - 1] + rest[l - t] for t in same_ts]
                got += [d0[t - 1] + rest[l - t - 1] for t in diff_ts]
            best = min(got)
            if best != carried:
                raise InconsistentTables(
                    f"vertex {v}, child {u}: the splits reach {best}, the table holds {carried}"
                )
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
