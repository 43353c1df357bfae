"""Solver for profiles that are single-crossing on a rooted tree.

The committee problem is solved as a tree-partition problem: split the tree
into at most k subtrees, each served by one candidate, never letting a
smaller candidate appear below a larger one (after normalizing labels to
the root's ranking, optimal assignments are nondecreasing away from the
root, which is what makes the candidate range [c:m] a sufficient state).

Per vertex the tables are

* ``dyp1[v][l][c]`` -- best cost for T_v split into l subtrees with
  representatives in [c:m] and v itself represented by c;
* ``dyp0[v][l][c]`` -- same but v's representative only bounded below by c.

Children are folded one at a time into a transient plane (the ``dyp2``
tier); the fold at child u considers splitting l between u's subtree and
the part already folded, either keeping u on its own candidate (DIFF,
budget t goes to u with candidates above c) or sharing v's candidate c
(SAME, u's piece and v's piece merge into one subtree). Infeasible states
hold an integer sentinel chosen per instance above every finite value (the
scaled rows are exact ints of any size, so a float infinity cannot be
added to them), and the tight t ranges below make the whole sweep cost
O(min(k, |T_u|) * min(k, |T_rest|)) per candidate, which telescopes to
O(min(n^2, nk)) over the tree.
"""

from __future__ import annotations

from .core import (
    Assignment,
    Objective,
    PreferenceProfile,
    RootedTree,
    SolveResult,
    canonicalize,
    reference_ranking,
    relabel_assignment,
)
from .errors import InvalidK

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

    ``plane[l-1][c]`` is the best cost for the already-folded part (parent v
    plus previously folded children, ``upper_size`` voters) split into l
    subtrees with representatives in [c:m] and v on c. ``inf`` marks
    infeasible states and must exceed every finite value. Returns the
    extended plane plus the number of (l, t) splits examined, which the
    caller sums into its work counter.
    """
    egal = objective is Objective.EGALITARIAN
    m = len(plane[0])
    s, szu = upper_size, child_size
    bound = min(k, s + szu)
    ext0 = [tuple(row) + (inf,) for row in child_dyp0]  # sentinel for c+1 == m
    new = [[inf] * m for _ in range(bound)]
    iterations = 0
    for l in range(1, bound + 1):
        row = new[l - 1]
        # DIFF: child keeps its own representative above c
        t_lo, t_hi = max(1, l - s), min(l - 1, szu)
        iterations += max(0, t_hi - t_lo + 1)
        for t in range(t_lo, t_hi + 1):
            d0 = ext0[t - 1]
            rest = plane[l - t - 1]
            for c in range(m):
                got = max(d0[c + 1], rest[c]) if egal else d0[c + 1] + rest[c]
                if got < row[c]:
                    row[c] = got
        # SAME: child shares candidate c, its subtree fuses with v's
        t_lo, t_hi = max(1, l + 1 - s), min(l, szu)
        iterations += max(0, t_hi - t_lo + 1)
        for t in range(t_lo, t_hi + 1):
            d1 = child_dyp1[t - 1]
            rest = plane[l - t]
            for c in range(m):
                got = max(d1[c], rest[c]) if egal else d1[c] + rest[c]
                if got < row[c]:
                    row[c] = got
    return new, iterations


def _suffix_min_rows(plane, m):
    """dyp0 rows (suffix minima over the candidate axis) from dyp1 rows."""
    out = []
    for row in plane:
        acc = list(row)
        for c in range(m - 2, -1, -1):
            if acc[c + 1] < acc[c]:
                acc[c] = acc[c + 1]
        out.append(acc)
    return out


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
    # normalized rows as Python ints: the merge loops stay off numpy scalars
    rows = profile.scaled[:, list(inverse)].tolist()
    inf = n * int(profile.scaled.max()) + 1  # above every finite total and maximum
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
        plane = [rows[v]]
        upper = 1
        for u in reversed(tree.child_order[v]):
            plane, its = merge_child_plane(
                plane, dyp0[u], dyp1[u], upper, size[u], k, objective, inf=inf
            )
            merges += its
            upper += size[u]
        dyp1[v] = plane
        dyp0[v] = _suffix_min_rows(plane, m)

    root = tree.root
    first = [dyp0[root][l - 1][0] for l in range(1, min(k, n) + 1)]
    best = min(first)
    l_star = first.index(best) + 1

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
    child-fold value vectors are rebuilt at the single candidate the vertex
    ended up with. Ties prefer SAME over DIFF, then the smallest child
    budget; dyp0 states resolve to the smallest attaining candidate.
    """
    egal = objective is Objective.EGALITARIAN
    m = len(rows[0])
    rep = [0] * tree.n
    # (vertex, subtree budget, candidate bound, budget is a dyp0 state)
    stack = [(tree.root, l_star, 0, True)]
    while stack:
        v, l, c, floating = stack.pop()
        if floating:
            while dyp1[v][l - 1][c] != dyp0[v][l - 1][c]:
                c += 1
        rep[v] = c
        children = tree.child_order[v]
        if not children:
            continue
        # value vectors of the partial folds at candidate c, innermost first
        vectors = [[rows[v][c]]]
        upper = 1
        for u in reversed(children):
            prev = vectors[-1]
            bound = min(k, upper + size[u])
            vec = [inf] * bound
            for l2 in range(1, bound + 1):
                best = inf
                for t in range(max(1, l2 - upper), min(l2 - 1, size[u]) + 1):
                    side = dyp0[u][t - 1][c + 1] if c + 1 < m else inf
                    got = max(side, prev[l2 - t - 1]) if egal else side + prev[l2 - t - 1]
                    if got < best:
                        best = got
                for t in range(max(1, l2 + 1 - upper), min(l2, size[u]) + 1):
                    got = (
                        max(dyp1[u][t - 1][c], prev[l2 - t])
                        if egal
                        else dyp1[u][t - 1][c] + prev[l2 - t]
                    )
                    if got < best:
                        best = got
                vec[l2 - 1] = best
            # slower than the forward sweep's all-c fold, but runs once per vertex
            vectors.append(vec)
            upper += size[u]
        vectors.reverse()  # vectors[i] now covers children i+1.. plus v
        for i, u in enumerate(children):
            upper = partial[v][i + 1]
            target = vectors[i][l - 1]
            chosen = None
            for t in range(max(1, l + 1 - upper), min(l, size[u]) + 1):
                got = (
                    max(dyp1[u][t - 1][c], vectors[i + 1][l - t])
                    if egal
                    else dyp1[u][t - 1][c] + vectors[i + 1][l - t]
                )
                if got == target:
                    chosen = (u, t, c, False)
                    l = l - t + 1
                    break
            if chosen is None:
                for t in range(max(1, l - upper), min(l - 1, size[u]) + 1):
                    side = dyp0[u][t - 1][c + 1] if c + 1 < m else inf
                    got = (
                        max(side, vectors[i + 1][l - t - 1])
                        if egal
                        else side + vectors[i + 1][l - t - 1]
                    )
                    if got == target:
                        chosen = (u, t, c + 1, True)
                        l = l - t
                        break
            if chosen is None:
                raise AssertionError("no branch reproduces the table value")
            stack.append(chosen)
    return rep
