"""Profiles stored as distinct rankings plus a per-voter index.

A compact instance with Borda misrepresentation loads as the reader's table
of distinct rankings and an index (the class path); the same instance written
with spaces, and every instance with rho, loads one row per voter (the
identity path). The line route reads the table and index directly. Here both
loads must give the same witnesses, merged profiles, results and ``--out``
bytes, equal in turn to the per-voter reference implementations below.
"""

import json
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from ccwinner import cli
from ccwinner.cli import instance_to_doc, load_instance, main
from ccwinner.core import Line, Objective, PreferenceProfile, RootedTree, SolveResult
from ccwinner.generators import gen_sc_line, gen_sc_tree
from ccwinner.line_solver import merge_identical_voters
from ccwinner.validation import (
    ConsistencyViolation,
    CrossingViolation,
    check_consistency,
    check_sc_line,
    check_sc_tree,
    check_structure,
)

SPACED = (", ", ": ")
COMPACT = (",", ":")
OBJECTIVES = (Objective.UTILITARIAN, Objective.EGALITARIAN)
INSTANCES = 3000
CHUNKS = 6


# ---------------------------------------------------------------------------
# per-voter references: the same computations on one row per voter


def reference_consistency(profile):
    along = np.take_along_axis(profile.scaled, profile.rank, axis=1)
    hits = np.argwhere(along[:, :-1] > along[:, 1:])
    if len(hits) == 0:
        return None
    v, p = (int(x) for x in hits[0])
    return ConsistencyViolation(v, int(profile.rank[v, p]), int(profile.rank[v, p + 1]))


def reference_sc_line(profile, line):
    pos = profile.pos[list(line.order)].T
    for a in range(profile.m - 1):
        prefers_a = pos[a + 1 :] > pos[a]
        flipped = prefers_a[:, 1:] != prefers_a[:, :-1]
        twice = np.flatnonzero(flipped.sum(axis=1) >= 2)
        if len(twice) == 0:
            continue
        row = int(twice[0])
        b = a + 1 + row
        f0, f1 = (int(f) for f in np.flatnonzero(flipped[row])[:2])
        v1, v2, v3 = line.order[f0], line.order[f0 + 1], line.order[f1 + 1]
        c, c_other = (a, b) if prefers_a[row, f0] else (b, a)
        return CrossingViolation(c, c_other, v1, v2, v3)
    return None


def reference_tree_side(tree, inside):
    """(v1, v2, v3) if ``inside`` is not connected in the tree: v3 is the first
    member the first member cannot reach inside it, v2 the first outsider on
    their path."""
    members = [v for v in range(tree.n) if inside[v]]
    if not members:
        return None
    reached, stack = {members[0]}, [members[0]]
    while stack:
        v = stack.pop()
        around = list(tree.child_order[v]) + ([] if v == tree.root else [tree.parent[v]])
        for u in around:
            if inside[u] and u not in reached:
                reached.add(u)
                stack.append(u)
    v3 = next((v for v in members if v not in reached), None)
    if v3 is None:
        return None
    v2 = next(u for u in tree.path(members[0], v3) if not inside[u])
    return members[0], v2, v3


def reference_sc_tree(profile, tree):
    """One candidate pair at a time, both sides, on one row per voter."""
    pos = profile.pos
    for a in range(profile.m):
        for b in range(a + 1, profile.m):
            prefers_a = pos[:, a] < pos[:, b]
            for c, c_other, inside in ((a, b, prefers_a), (b, a, ~prefers_a)):
                witness = reference_tree_side(tree, inside)
                if witness is not None:
                    return CrossingViolation(c, c_other, *witness)
    return None


def reference_merge(profile, line, objective):
    """Runs of adjacent equal rankings, their rows summed or maxed one voter at a time."""
    runs = []
    for v in line.order:
        if runs and profile.rankings[v] == profile.rankings[runs[-1][0]]:
            runs[-1].append(v)
        else:
            runs.append([v])
    rows = profile.scaled.tolist()
    join = max if objective is Objective.EGALITARIAN else sum
    merged = [[join(rows[v][c] for v in run) for c in range(profile.m)] for run in runs]
    return [profile.rankings[run[0]] for run in runs], merged


def reference_result(profile, committee):
    rep = [min(committee, key=lambda c: profile.pos[v, c]) for v in range(profile.n)]
    values = [profile.rho[v][c] for v, c in enumerate(rep)]
    return tuple(rep), sum(values), max(values), len(set(rep))


# ---------------------------------------------------------------------------
# seeded duplicate-heavy instances


def duplicate_heavy(seed):
    """A line or tree with few distinct rankings, some broken, with one of four rho kinds.

    Returns (profile, structure, k).
    """
    rng = random.Random(seed)
    m = rng.randint(1, 6)
    n = rng.choice((1, rng.randint(2, 12), rng.randint(13, 60), rng.randint(13, 60)))
    if seed % 2 == 0:
        profile, structure = gen_sc_line(seed, n, m, max_swaps=rng.randint(0, 4), shuffle_voters=True)
    else:
        profile, structure = gen_sc_tree(seed, n, m, max_edge_swaps=rng.randint(0, 1))
    rank = profile.rank.copy()
    if seed % 9 == 4:  # every voter alike
        rank[:] = rank[0]
    elif seed % 5 < 2 and m > 1:  # one voter's ranking broken: often not single-crossing
        v, p = rng.randrange(n), rng.randrange(m - 1)
        rank[v, [p, p + 1]] = rank[v, [p + 1, p]]
    kind = ("absent", "zero", "int", "p/q")[(seed // 2) % 4]
    if kind == "absent":
        return PreferenceProfile.from_rankings(rank), structure, rng.randint(1, m + 1)
    if kind == "zero":
        rho = np.zeros_like(rank)
    else:
        steps = np.random.default_rng(seed).integers(0, 3, rank.shape)
        rho = np.empty_like(steps)
        np.put_along_axis(rho, rank, np.cumsum(steps, axis=1), axis=1)
        if seed % 3 == 0 and m > 1:  # inconsistent: a voter's top choice now costs most
            v = rng.randrange(n)
            rho[v, rank[v, 0]] = int(rho[v].max()) + 1
    rows = rho.tolist()
    if kind == "p/q":
        rows = [[Fraction(x, 3) for x in row] for row in rows]
    return PreferenceProfile.from_rankings(rank, rows), structure, rng.randint(1, m + 1)


def both_loads(tmp_path, profile, structure, k):
    """The instance loaded from its compact text (class path without rho) and its spaced text."""
    doc = instance_to_doc(profile, structure, k=k)
    paths = []
    for name, separators in (("compact.json", COMPACT), ("spaced.json", SPACED)):
        path = tmp_path / name
        path.write_text(json.dumps(doc, separators=separators), encoding="utf-8")
        paths.append(str(path))
    return paths, [load_instance(path)[0] for path in paths]


def solve_outputs(path, k, algorithm, objective, out, capsys):
    """Exit code, printed lines and ``--out`` bytes of one ``ccwinner solve``."""
    argv = ["solve", path, "--k", str(k), "--algorithm", algorithm, "--objective", objective]
    code = main([*argv, "--out", out])
    printed = capsys.readouterr()
    written = None
    if code == 0:
        with open(out, "rb") as handle:
            written = handle.read()
    return code, printed.out, printed.err, written


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_class_and_identity_loads_agree_with_the_references(tmp_path, capsys, chunk):
    seen = {"class path": 0, "not single-crossing": 0, "inconsistent": 0, "n = 1": 0, "one ranking": 0}
    per_chunk = INSTANCES // CHUNKS
    for seed in range(chunk * per_chunk, (chunk + 1) * per_chunk):
        profile, structure, k = duplicate_heavy(seed)
        paths, (compact, spaced) = both_loads(tmp_path, profile, structure, k)
        n, m = profile.n, profile.m
        distinct = len({tuple(row) for row in profile.rank.tolist()})
        assert len(spaced.table_rank) == n
        borda = profile.scale == 1 and (profile.scaled == profile.pos).all()  # written without rho
        assert len(compact.table_rank) == (distinct if borda else n)
        seen["class path"] += len(compact.table_rank) < n
        seen["n = 1"] += n == 1
        seen["one ranking"] += distinct == 1 < n

        bad = reference_consistency(spaced)
        assert check_consistency(compact) == check_consistency(spaced) == bad
        seen["inconsistent"] += bad is not None
        if isinstance(structure, Line):
            witness = reference_sc_line(spaced, structure)
            assert check_sc_line(compact, structure) == check_sc_line(spaced, structure) == witness
            for objective in OBJECTIVES:
                rankings, rows = reference_merge(spaced, structure, objective)
                merged = [merge_identical_voters(p, structure, objective) for p in (compact, spaced)]
                for got in merged:
                    assert got.rankings == tuple(rankings)
                    assert got.scaled.tolist() == rows and got.scale == profile.scale
                    assert (got.pos == merged[1].pos).all() and got.scaled.dtype == merged[1].scaled.dtype
        else:
            assert isinstance(structure, RootedTree)
            witness = check_sc_tree(spaced, structure)
            assert check_sc_tree(compact, structure) == witness
        seen["not single-crossing"] += witness is not None

        rng = random.Random(seed)
        for committee in ({rng.randrange(m)}, set(rng.sample(range(m), rng.randint(1, m)))):
            rep, total, egal, k_used = reference_result(spaced, committee)
            for p in (compact, spaced):
                result = SolveResult.from_committee(p, committee, "test")
                assert result.assignment.rep == rep and result.k_used == k_used
                assert (result.total_cost, result.egal_cost) == (total, egal)

        algorithms = ("line-dp", "line-klink", "auto") if isinstance(structure, Line) else ("auto",)
        for algorithm in algorithms:
            for objective in ("utilitarian", "egalitarian"):
                out = str(tmp_path / "out.json")
                got = [solve_outputs(path, k, algorithm, objective, out, capsys) for path in paths]
                assert got[0] == got[1]
                assert got[0][0] == (0 if bad is None and witness is None else 1)
        assert compact == spaced == profile and compact.scale == spaced.scale
    assert all(seen.values()), seen


def test_any_table_and_index_agree_with_one_row_per_voter():
    """Tables with repeated or unused rows, rows out of first-use order, and rho of any kind."""
    rng = np.random.default_rng(24)
    seen = {
        "inconsistent": 0, "not single-crossing": 0, "not single-crossing on the tree": 0,
        "single-crossing on a tree of 5 or more": 0, "object sums": 0, "int64 sums, large row": 0,
    }
    for trial in range(600):
        d, m, n = (int(x) for x in rng.integers(1, (6, 6, 30), endpoint=True))
        rank = np.argsort(rng.random((d, m)), axis=1)
        rank[rng.integers(d)] = rank[0]
        pos = np.argsort(rank, axis=1)
        if trial % 3 == 0:
            scaled = pos
        else:
            scaled = np.sort(rng.integers(0, 3, (d, m)), axis=1)
            if trial % 3 == 2:  # one large row: summed rows overflow int64 when a voter reads it
                scaled[rng.integers(d)] *= 2**61
            scaled = np.take_along_axis(scaled, pos, axis=1)  # nondecreasing along each ranking
            if trial % 4 == 1 and m > 1:  # one or more rows inconsistent
                for row in set(rng.integers(0, d, 3).tolist()):
                    scaled[row, rank[row, 0]] = scaled[row].max() + 1
        index = rng.integers(0, d, n)
        classes = PreferenceProfile._from_parts(rank, pos, scaled, 1, index)
        voters = PreferenceProfile.from_rankings(rank[index], scaled[index])
        line = Line(tuple(rng.permutation(n).tolist()))
        labels = rng.permutation(n).tolist()  # a random recursive tree, root and names shuffled
        parent = [None] * n
        for i in range(1, n):
            parent[labels[i]] = labels[int(rng.integers(i))]
        tree = RootedTree.from_parent(tuple(parent), labels[0])
        bad = reference_consistency(voters)
        witness = reference_sc_line(voters, line)
        tree_witness = reference_sc_tree(voters, tree)
        assert check_consistency(classes) == check_consistency(voters) == bad
        assert check_sc_line(classes, line) == check_sc_line(voters, line) == witness
        assert check_sc_tree(classes, tree) == check_sc_tree(voters, tree) == tree_witness
        for objective in OBJECTIVES:
            rankings, rows = reference_merge(voters, line, objective)
            got, expected = (merge_identical_voters(p, line, objective) for p in (classes, voters))
            assert got.rankings == expected.rankings == tuple(rankings)
            assert got.scaled.tolist() == expected.scaled.tolist() == rows
            assert got.scaled.dtype == expected.scaled.dtype and (got.pos == expected.pos).all()
            seen["object sums"] += got.scaled.dtype == object
            seen["int64 sums, large row"] += got.scaled.dtype == np.int64 and scaled.max() >= 2**61
        committee = set(rng.choice(m, int(rng.integers(1, m, endpoint=True)), replace=False).tolist())
        result, expected = (SolveResult.from_committee(p, committee, "test") for p in (classes, voters))
        assert result.assignment == expected.assignment
        assert (result.total_cost, result.egal_cost) == (expected.total_cost, expected.egal_cost)
        assert classes == voters
        seen["inconsistent"] += bad is not None
        seen["not single-crossing"] += witness is not None
        seen["not single-crossing on the tree"] += tree_witness is not None
        seen["single-crossing on a tree of 5 or more"] += tree_witness is None and n >= 5
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# the line route on a compact Borda instance builds no per-voter array


def per_voter_views(profile):
    return profile._rank, profile._pos, profile._scaled


def test_compact_borda_line_route_gathers_no_per_voter_rows(tmp_path, monkeypatch):
    # shaped like the benchmark's line-bulk workload: the full crossing word, n = 4000, m = 30
    profile, line = gen_sc_line(11, 4000, 30, max_swaps=435, shuffle_voters=True)
    paths, (compact, spaced) = both_loads(tmp_path, profile, line, 8)
    read_by = []  # the profile of every read of rank, pos or scaled
    real = PreferenceProfile._gathered
    monkeypatch.setattr(
        PreferenceProfile, "_gathered", lambda self, *args: read_by.append(self) or real(self, *args)
    )
    loaded, structure, k = load_instance(paths[0])
    assert len(loaded.table_rank) <= 30 * 29 // 2 + 1 and per_voter_views(loaded) == (None, None, None)
    assert check_consistency(loaded) is None and check_structure(loaded, structure) is None
    routes = [(algorithm, objective) for algorithm in ("auto", "line-klink") for objective in OBJECTIVES]
    results = [cli._dispatch(loaded, structure, *route, k) for route in routes]
    assert per_voter_views(loaded) == (None, None, None)
    assert not any(profile is loaded for profile in read_by)
    monkeypatch.undo()
    for result, route in zip(results, routes):
        expected = cli._dispatch(spaced, structure, *route, k)
        assert result.assignment == expected.assignment and result.stats == expected.stats
        assert (result.total_cost, result.egal_cost) == (expected.total_cost, expected.egal_cost)


def shuffled_tree(seed, n, m):
    """`gen_sc_tree` with its vertices renamed, so equal rankings are not neighbours in the file."""
    profile, tree = gen_sc_tree(seed, n, m, max_edge_swaps=1)
    perm = np.random.default_rng(seed).permutation(n).tolist()
    parent = [None] * n
    for v, p in enumerate(tree.parent):
        parent[perm[v]] = None if p is None else perm[p]
    rank = np.empty_like(profile.rank)
    rank[perm] = profile.rank
    return PreferenceProfile.from_rankings(rank), RootedTree.from_parent(tuple(parent), perm[tree.root])


def test_compact_borda_tree_solves_from_lazily_gathered_rows(tmp_path):
    profile, tree = shuffled_tree(5, 300, 8)
    paths, (compact, spaced) = both_loads(tmp_path, profile, tree, 5)
    assert len(compact.table_rank) < profile.n and per_voter_views(compact) == (None, None, None)
    assert check_consistency(compact) is None and check_structure(compact, tree) is None
    assert per_voter_views(compact) == (None, None, None)  # the tree check reads the table
    assert compact.scaled is compact.pos and (compact.pos == profile.pos).all()
    assert not compact.pos.flags.writeable
    for objective in OBJECTIVES:
        result = cli._dispatch(compact, tree, "auto", objective, 5)
        expected = cli._dispatch(spaced, tree, "auto", objective, 5)
        assert result.assignment == expected.assignment and result.stats == expected.stats
        assert (result.total_cost, result.egal_cost) == (expected.total_cost, expected.egal_cost)


# ---------------------------------------------------------------------------
# value semantics of a profile built from a table


def test_table_profile_has_the_value_semantics_of_one_row_per_voter():
    table = np.array([[0, 1, 2], [1, 0, 2], [2, 1, 0]])
    index = np.array([1, 1, 0, 2, 2, 2, 0], dtype=np.intp)
    classes = PreferenceProfile._from_table(table, index.copy())
    voters = PreferenceProfile.from_rankings(table[index])
    assert len(classes.table_rank) == 3 and len(voters.table_rank) == 7
    assert classes == voters and hash(classes) == hash(voters)
    assert classes.rankings == voters.rankings and classes.rho == voters.rho
    assert (classes.n, classes.m, classes.scale) == (7, 3, 1)
    assert classes != PreferenceProfile.from_rankings(table[index[::-1]])
    # with rho the profile keeps one row per voter and still agrees
    rho = np.take_along_axis(np.tile([0, 2, 5], (7, 1)), voters.pos, axis=1).tolist()
    with_rho = PreferenceProfile._from_table(table, index.copy(), rho)
    assert len(with_rho.table_rank) == 7 and with_rho == PreferenceProfile.from_rankings(table[index], rho)

    fresh = PreferenceProfile._from_table(table, index.copy())
    shipped = pickle.dumps(fresh)
    assert per_voter_views(fresh) == (None, None, None)  # the pickle carries the table, not gathered rows
    back = pickle.loads(shipped)
    assert per_voter_views(back) == (None, None, None)
    assert back.table_scaled is back.table_pos and (back.index == index).all()
    assert back == voters and hash(back) == hash(voters) and back.rho == voters.rho
    for profile in (classes, back, voters, pickle.loads(pickle.dumps(voters))):
        for name in ("rank", "pos", "scaled", "table_rank", "table_pos", "table_scaled", "index"):
            array = getattr(profile, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[0]
        assert profile.scaled is profile.pos
        assert profile.rank is profile.rank  # gathered once, then cached
        with pytest.raises(AttributeError):
            profile.index = index
    assert back.rho[3] == (2, 1, 0)
