"""Seeded generators of single-crossing instances for each structure.

All randomness flows from one integer seed through ``random.Random``
(Mersenne Twister), so fixed arguments reproduce instances bit-for-bit.
Every generator's output passes the matching checker in
:mod:`ccwinner.validation`; the test suite gates on that.
"""

from __future__ import annotations

import random
from typing import Optional

from .core import Grid, Line, PreferenceProfile, RootedTree
from .errors import InvalidN, RejectionBudgetExceeded
from .validation import check_sc_grid

__all__ = ["gen_sc_line", "gen_sc_tree", "gen_star_instance", "gen_sc_grid"]


def _reduced_word_states(rng: random.Random, m: int, swaps: int) -> list[tuple[int, ...]]:
    """Identity plus one state per swap of a random reduced word on 0..m-1.

    Swaps happen only at positions holding an ascending pair, so each
    unordered pair flips at most once over the whole sequence and ``swaps``
    can go all the way up to C(m, 2), where the word ends at the reversal.
    """
    state = list(range(m))
    states = [tuple(state)]
    for _ in range(swaps):
        ascents = [p for p in range(m - 1) if state[p] < state[p + 1]]
        p = rng.choice(ascents)
        state[p], state[p + 1] = state[p + 1], state[p]
        states.append(tuple(state))
    return states


def gen_sc_line(
    seed: int,
    n: int,
    m: int,
    max_swaps: Optional[int] = None,
    even_spacing: bool = False,
    shuffle_voters: bool = False,
) -> tuple[PreferenceProfile, Line]:
    """Random profile that is single-crossing on a line of ``n`` voters.

    Starting from the identity ranking, a random reduced word of adjacent
    transpositions is generated and each voter receives one prefix state,
    with prefix points nondecreasing along the line. Misrepresentation
    defaults to Borda.

    Parameters
    ----------
    seed : int
        PRNG seed.
    n, m : int
        Voter and candidate counts, both at least 1.
    max_swaps : int, optional
        Cap on the word length. ``None`` draws it uniformly from
        [0, C(m, 2)]; 0 makes every voter the identity ranking. Values above
        C(m, 2) are clamped.
    even_spacing : bool
        Assign voter i the prefix point round(i * L / (n - 1)) instead of a
        sorted uniform sample; with the full word this pins the first voter
        to the identity and the last to the reversal.
    shuffle_voters : bool
        Scramble voter indices; the returned :class:`Line` records the
        single-crossing order either way.
    """
    if n < 1 or m < 1:
        raise InvalidN(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if max_swaps is not None and max_swaps < 0:
        raise InvalidN(f"need max_swaps >= 0, got {max_swaps}")
    rng = random.Random(seed)
    pairs = m * (m - 1) // 2
    swaps = rng.randint(0, pairs) if max_swaps is None else min(max_swaps, pairs)
    states = _reduced_word_states(rng, m, swaps)
    last = len(states) - 1
    if even_spacing and n > 1:
        picks = [round(i * last / (n - 1)) for i in range(n)]
    elif even_spacing:
        picks = [0]
    else:
        picks = sorted(rng.randint(0, last) for _ in range(n))
    rankings = [states[t] for t in picks]
    order = list(range(n))
    if shuffle_voters:
        rng.shuffle(order)
        by_voter: list[tuple[int, ...]] = [()] * n
        for pos, v in enumerate(order):
            by_voter[v] = rankings[pos]
        rankings = by_voter
    return PreferenceProfile.from_rankings(tuple(rankings)), Line(tuple(order))


def gen_sc_tree(
    seed: int, n: int, m: int, max_edge_swaps: int = 3
) -> tuple[PreferenceProfile, RootedTree]:
    """Random profile that is single-crossing on a random rooted tree.

    The tree is a random recursive tree (vertex v attaches to a uniform
    vertex among 0..v-1). The root votes the identity ranking and a DFS
    hands each child its parent's ranking plus a short run of adjacent
    transpositions. No candidate pair is ever swapped on two edges: an edge
    may only flip pairs no other edge has consumed, so the voters preferring
    either side of a pair are always a subtree and its complement.

    ``max_edge_swaps`` caps the label length per edge; 0 makes all rankings
    identical.
    """
    if n < 1 or m < 1:
        raise InvalidN(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if max_edge_swaps < 0:
        raise InvalidN(f"need max_edge_swaps >= 0, got {max_edge_swaps}")
    rng = random.Random(seed)
    parent: list[Optional[int]] = [None] + [rng.randrange(v) for v in range(1, n)]
    tree = RootedTree.from_parent(tuple(parent), 0)
    rankings: list[tuple[int, ...]] = [()] * n
    rankings[0] = tuple(range(m))
    used: set[tuple[int, int]] = set()
    stack = [0]
    while stack:
        v = stack.pop()
        for u in tree.child_order[v]:
            r = list(rankings[v])
            for _ in range(rng.randint(0, max_edge_swaps)):
                free = [
                    p
                    for p in range(m - 1)
                    if (min(r[p], r[p + 1]), max(r[p], r[p + 1])) not in used
                ]
                if not free:
                    break
                p = rng.choice(free)
                used.add((min(r[p], r[p + 1]), max(r[p], r[p + 1])))
                r[p], r[p + 1] = r[p + 1], r[p]
            rankings[u] = tuple(r)
        stack.extend(reversed(tree.child_order[v]))
    return PreferenceProfile.from_rankings(tuple(rankings)), tree


def gen_star_instance(n: int) -> tuple[PreferenceProfile, RootedTree]:
    """Star family with ``n`` voters and ``n`` candidates.

    The root ranks candidates in index order; leaf i promotes candidate i to
    the top and otherwise keeps the root's order, so every pair {i, j} with
    i < j is cut exactly at the edge to leaf j. The family is adversarial
    for algorithms that enumerate connected subtrees around a vertex: the
    root of the star has 2^(n-1) of them, one per subset of leaves.
    """
    if n < 2:
        raise InvalidN(f"star construction needs n >= 2, got {n}")
    rankings = [tuple(range(n))]
    for i in range(1, n):
        rankings.append((i,) + tuple(c for c in range(n) if c != i))
    parent = (None,) + (0,) * (n - 1)
    return PreferenceProfile.from_rankings(tuple(rankings)), RootedTree.from_parent(parent, 0)


def gen_sc_grid(
    seed: int,
    n1: int,
    n2: int,
    m: int,
    mode: str = "axis",
    edits: Optional[int] = None,
    max_attempts: Optional[int] = None,
) -> tuple[PreferenceProfile, Grid]:
    """Random profile that is single-crossing on an ``n1 x n2`` grid.

    On a grid every candidate pair must split the voters along a full row
    band or a full column band (a box-convex set with box-convex complement
    is exactly such a band), so mode ``"axis"`` builds instances from that
    characterization: the ranking positions are split at a random point, one
    reduced word inside the prefix block is sampled down the rows and an
    independent word inside the suffix block across the columns. Prefix
    pairs get row cuts, suffix pairs column cuts, and cross-block pairs
    never flip. Degenerate grids (n1 == 1 or n2 == 1) reuse
    :func:`gen_sc_line` verbatim.

    Mode ``"rejection"`` perturbs an axis instance with random band edits --
    one adjacent transposition applied to every voter in a row or column
    suffix -- keeping an edit only if the result still passes
    :func:`check_sc_grid`. Single-voter edits would be pointless here: on a
    grid with n1, n2 >= 2 they turn a band cut into a band plus or minus one
    cell, which is never single-crossing.

    Parameters
    ----------
    edits : int, optional
        Number of accepted band edits in rejection mode (default: drawn from
        the PRNG).
    max_attempts : int, optional
        Attempt budget in rejection mode (default 200 per requested edit).

    Raises
    ------
    RejectionBudgetExceeded
        If rejection mode cannot reach the edit target within the budget.
    """
    if n1 < 1 or n2 < 1 or m < 1:
        raise InvalidN(f"need n1, n2, m >= 1, got n1={n1}, n2={n2}, m={m}")
    if edits is not None and edits < 0:
        raise InvalidN(f"need edits >= 0, got {edits}")
    if mode not in ("axis", "rejection"):
        raise ValueError(f"mode must be 'axis' or 'rejection', got {mode!r}")
    grid = Grid(n1, n2)
    rng = random.Random(seed)
    if n1 == 1 or n2 == 1:
        profile, _ = gen_sc_line(seed, n1 * n2, m)
        base = list(profile.rankings)
    else:
        b = rng.randint(0, m)
        row_states = _reduced_word_states(rng, b, rng.randint(0, b * (b - 1) // 2))
        cols = m - b
        col_states = _reduced_word_states(rng, cols, rng.randint(0, cols * (cols - 1) // 2))
        row_picks = sorted(rng.randint(0, len(row_states) - 1) for _ in range(n1))
        col_picks = sorted(rng.randint(0, len(col_states) - 1) for _ in range(n2))
        base = []
        for i in range(n1):
            head = row_states[row_picks[i]]
            for j in range(n2):
                tail = col_states[col_picks[j]]
                base.append(head + tuple(c + b for c in tail))
    if mode == "rejection" and m >= 2:
        target = edits if edits is not None else rng.randint(1, max(1, min(grid.n, m - 1)))
        budget = max_attempts if max_attempts is not None else 200 * max(1, target)
        done = attempts = 0
        while done < target:
            if attempts >= budget:
                raise RejectionBudgetExceeded(
                    f"reached {done} of {target} edits after {attempts} attempts"
                )
            attempts += 1
            p = rng.randrange(m - 1)
            if rng.random() < 0.5:
                band = [grid.index(i, j) for i in range(rng.randrange(n1), n1) for j in range(n2)]
            else:
                band = [grid.index(i, j) for i in range(n1) for j in range(rng.randrange(n2), n2)]
            for v in band:
                r = list(base[v])
                r[p], r[p + 1] = r[p + 1], r[p]
                base[v] = tuple(r)
            if check_sc_grid(PreferenceProfile.from_rankings(tuple(base)), grid) is None:
                done += 1
            else:
                for v in band:
                    r = list(base[v])
                    r[p], r[p + 1] = r[p + 1], r[p]
                    base[v] = tuple(r)
    return PreferenceProfile.from_rankings(tuple(base)), grid
