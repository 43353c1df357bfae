"""Shared domain model: profiles, structures, assignments, and costs.

All indices are 0-based inside the library; the CLI converts to 1-based
labels at the file-format boundary.  A profile stores checked, read-only
integer arrays (rho scaled to integers over a common denominator); the
other core types are frozen dataclasses built from tuples.  All of them are
immutable and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Optional, Sequence, Union

import numpy as np

from .errors import NotATree

Rational = Union[int, Fraction]


class Objective(Enum):
    """What gets minimized: the sum or the maximum of misrepresentations."""

    UTILITARIAN = "utilitarian"
    EGALITARIAN = "egalitarian"


_INT64_MAX = (1 << 63) - 1


def int_dtype(bound: int):
    """``np.int64`` when no value of a computation exceeds ``bound`` in magnitude, else ``object``.

    Object arrays hold Python ints, so the same array code stays exact past
    the int64 range.
    """
    return np.int64 if bound <= _INT64_MAX else object


def _as_rational(x) -> Rational:
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError(f"rho entries must be int or Fraction, got {type(x).__name__}")
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def to_rho_units(value: int, scale: int) -> Rational:
    """The value in rho units of a scaled integer (an entry of ``scaled`` or a sum of them).

    An int when it is integral, else a Fraction.
    """
    return value if scale == 1 else _as_rational(Fraction(value, scale))


def borda_misrepresentation(rankings: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Misrepresentation by rank position: 0 for a voter's top choice, m-1 for the last."""
    rows = []
    for ranking in rankings:
        row = [0] * len(ranking)
        for pos, cand in enumerate(ranking):
            if not 0 <= cand < len(ranking):
                raise ValueError(f"ranking entry {cand} outside 0..{len(ranking) - 1}")
            row[cand] = pos
        rows.append(tuple(row))
    return tuple(rows)


def _int_array(rows) -> np.ndarray:
    """Rows of Python ints as an int64 array, or an object array when some value does not fit."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def _rankings_per_element(rankings) -> np.ndarray:
    """Per-row ranking checks with the constructor's messages; the fallback of `_checked_rankings`."""
    if not rankings:
        raise ValueError("profile needs at least one voter")
    m = len(rankings[0])
    if m == 0:
        raise ValueError("profile needs at least one candidate")
    expected = frozenset(range(m))
    rows = tuple(tuple(r) for r in rankings)
    for v, ranking in enumerate(rows):
        if len(ranking) != m or frozenset(ranking) != expected:
            raise ValueError(f"ranking of voter {v} is not a permutation of 0..{m - 1}")
    return np.array(rows, dtype=np.int64)


def _checked_rankings(rankings) -> tuple[np.ndarray, np.ndarray]:
    """(rank, pos) int64 arrays; ValueError unless every row permutes 0..m-1.

    Array input is copied, so the profile never shares the caller's data.
    """
    try:
        rank = np.array(rankings)
    except ValueError:  # ragged rows
        rank = None
    if rank is None or rank.ndim != 2 or rank.dtype.kind not in "biu" or rank.size == 0:
        rank = _rankings_per_element(rankings)
    rank = rank.astype(np.int64, copy=False)
    n, m = rank.shape
    rows = np.arange(n)[:, None]
    seen = np.zeros((n, m), dtype=bool)
    if ((rank >= 0) & (rank < m)).all():
        seen[rows, rank] = True
    if not seen.all():
        _rankings_per_element(rank.tolist())  # names the first row that is not a permutation
    pos = np.empty_like(rank)
    pos[rows, rank] = np.arange(m)
    return rank, pos


def _rho_per_element(rho, n: int, m: int) -> list:
    """Per-row rho checks with the constructor's messages; the fallback of `_checked_rho`."""
    if len(rho) != n:
        raise ValueError("rho must have one row per voter")
    rows = []
    for v, row in enumerate(rho):
        if len(row) != m:
            raise ValueError(f"rho row of voter {v} must have {m} entries")
        vals = [_as_rational(x) for x in row]
        if any(x < 0 for x in vals):
            raise ValueError(f"rho row of voter {v} has a negative entry")
        rows.append(vals)
    return rows


def _check_signs(scaled: np.ndarray) -> None:
    bad = np.flatnonzero((scaled < 0).any(axis=1))
    if len(bad):
        raise ValueError(f"rho row of voter {bad[0]} has a negative entry")


def _checked_rho(rho, n: int, m: int) -> tuple[np.ndarray, int]:
    """(scaled, scale) with rho == scaled / scale exactly; ValueError on malformed rows.

    Whole-matrix passes decide the common case; only a row count, row length
    or entry type they reject reruns the per-element checks, which name the
    first offending row.  An (n, m) integer array is integer rho as it
    stands and is copied, not scanned entry by entry.
    """
    if isinstance(rho, np.ndarray) and rho.dtype.kind in "iu" and rho.shape == (n, m):
        scaled = rho.astype(np.int64) if rho.dtype != np.uint64 else _int_array(rho.tolist())
        _check_signs(scaled)
        return scaled, 1
    kinds = None
    if len(rho) == n and all(len(row) == m for row in rho):
        kinds = set(map(type, chain.from_iterable(rho)))
    if kinds is None or not kinds <= {int, Fraction}:
        rho = _rho_per_element(rho, n, m)
        kinds = {Fraction}  # int subclasses may remain; convert entry by entry
    if Fraction not in kinds:
        scaled, scale = _int_array(rho), 1
    else:
        scale = math.lcm(*{x.denominator for x in chain.from_iterable(rho) if isinstance(x, Fraction)})
        scaled = _int_array([[int(x * scale) for x in row] for row in rho])
    _check_signs(scaled)
    return scaled, scale


class PreferenceProfile:
    """Voters' strict rankings plus a misrepresentation matrix, stored as checked arrays.

    The rows live in a (d, m) table plus a per-voter index: voter v's
    ranking is ``table_rank[index[v]]`` (candidates from most to least
    preferred), ``table_pos`` is its inverse, ``table_pos[r, table_rank[r,
    p]] == p``, and ``table_scaled[index[v]]`` is v's misrepresentation row.
    Voters with equal index share their ranking and scaled row; voters with
    different index may still be alike. A profile built from a compact
    instance with Borda misrepresentation keeps the reader's distinct
    rankings as its table (`_from_table`); every other constructor stores one
    row per voter with the identity index. Misrepresentation is kept exactly
    as integers over one common denominator: ``rho[v][c] ==
    Fraction(scaled[v, c], scale)``, where ``scale`` is the least common
    multiple of the reduced denominators (1 for integer rho) and the scaled
    table is int64, or an object array of Python ints when some value does
    not fit. Under Borda misrepresentation ``table_scaled`` is
    ``table_pos``. All arrays are read-only.

    ``rank``, ``pos`` and ``scaled`` are the (n, m) per-voter views: the
    table itself under the identity index, otherwise gathered by index the
    first time one is read, then cached (``scaled`` is ``pos`` under Borda).
    The line route (consistency and single-crossing checks, the
    identical-voter merge, favorites and costs) and the tree single-crossing
    check read the table and index directly, so on a compact Borda line
    instance no per-voter array is built; the tree and grid solvers and the
    grid check read the per-voter views.

    ``rankings`` and ``rho`` are tuple views (ints, and Fractions where a
    value is not integral), built on first access and cached. Consistency
    of rho with the rankings is a property of well-formed instances and is
    checked by ``validation.check_consistency``, not by the constructor, so
    that malformed external data can still be loaded and diagnosed.
    """

    __slots__ = (
        "table_rank", "table_pos", "table_scaled", "index", "scale",
        "_rank", "_pos", "_scaled", "_rankings", "_rho",
    )

    def __init__(self, rankings, rho):
        rank, pos = _checked_rankings(rankings)
        scaled, scale = _checked_rho(rho, *rank.shape)
        self._fill(rank, pos, scaled, scale)

    def _fill(self, rank, pos, scaled, scale, index=None):
        per_voter = index is None
        if per_voter:
            index = np.arange(len(rank))
        for arr in (rank, pos, scaled, index):
            arr.flags.writeable = False
        values = {
            "table_rank": rank,
            "table_pos": pos,
            "table_scaled": scaled,
            "index": index,
            "scale": scale,
            # per-voter views: the table itself under the identity index, else gathered when read
            "_rank": rank if per_voter else None,
            "_pos": pos if per_voter else None,
            "_scaled": scaled if per_voter else None,
            "_rankings": None,
            "_rho": None,
        }
        for name, value in values.items():
            object.__setattr__(self, name, value)

    @classmethod
    def _from_parts(cls, rank, pos, scaled, scale, index=None) -> "PreferenceProfile":
        """Wrap arrays that are already checked and owned by no one else.

        ``rank``, ``pos`` and ``scaled`` are the table; without ``index``
        it has one row per voter.
        """
        profile = cls.__new__(cls)
        profile._fill(rank, pos, scaled, scale, index)
        return profile

    @classmethod
    def from_rankings(cls, rankings, rho=None) -> "PreferenceProfile":
        """Build a profile; rho defaults to Borda misrepresentation."""
        if rho is not None:
            return cls(rankings, rho)
        try:
            rank, pos = _checked_rankings(rankings)
        except ValueError:
            borda_misrepresentation(rankings)  # names an out-of-range entry first
            raise
        return cls._from_parts(rank, pos, pos, 1)

    @classmethod
    def _from_table(cls, table, index, rho=None) -> "PreferenceProfile":
        """`from_rankings` of ``table[index]``, checking and inverting each row of ``table`` once.

        Without rho the profile keeps ``table`` and ``index``; with rho it
        gathers one row per voter. A table that fails a check reruns
        `from_rankings` on the gathered rows, so the message names the first
        offending voter.
        """
        try:
            t_rank, t_pos = _checked_rankings(table)
        except ValueError:
            return cls.from_rankings(table[index], rho)
        if rho is None:
            return cls._from_parts(t_rank, t_pos, t_pos, 1, index)
        rank, pos = t_rank.take(index, 0), t_pos.take(index, 0)
        return cls._from_parts(rank, pos, *_checked_rho(rho, *rank.shape))

    def _gathered(self, slot: str, table: np.ndarray) -> np.ndarray:
        rows = getattr(self, slot)
        if rows is None:
            rows = table.take(self.index, 0)
            rows.flags.writeable = False
            object.__setattr__(self, slot, rows)
        return rows

    @property
    def rank(self) -> np.ndarray:
        """(n, m): ``rank[v]`` lists voter v's candidates, most preferred first."""
        return self._gathered("_rank", self.table_rank)

    @property
    def pos(self) -> np.ndarray:
        """(n, m): ``pos[v, c]`` is candidate c's position in voter v's ranking."""
        return self._gathered("_pos", self.table_pos)

    @property
    def scaled(self) -> np.ndarray:
        """(n, m): ``scaled[v, c] / scale`` is voter v's misrepresentation by candidate c."""
        if self.table_scaled is self.table_pos:
            return self.pos
        return self._gathered("_scaled", self.table_scaled)

    def __setattr__(self, name, value):
        raise AttributeError("PreferenceProfile is immutable")

    def __reduce__(self):
        tables = (self.table_rank, self.table_pos, self.table_scaled)
        return (PreferenceProfile._from_parts, (*tables, self.scale, self.index))

    def __eq__(self, other):
        if not isinstance(other, PreferenceProfile):
            return NotImplemented
        return (
            self.scale == other.scale
            and np.array_equal(self.rank, other.rank)
            and np.array_equal(self.scaled, other.scaled)
        )

    def __hash__(self):
        return hash((self.rank.shape, self.rank.tobytes(), self.scale))

    def __repr__(self):
        return f"PreferenceProfile(n={self.n}, m={self.m}, scale={self.scale})"

    @property
    def n(self) -> int:
        return len(self.index)

    @property
    def m(self) -> int:
        return self.table_rank.shape[1]

    @property
    def has_integer_rho(self) -> bool:
        return self.scale == 1

    @property
    def rankings(self) -> tuple[tuple[int, ...], ...]:
        if self._rankings is None:
            object.__setattr__(self, "_rankings", tuple(map(tuple, self.rank.tolist())))
        return self._rankings

    @property
    def rho(self) -> tuple[tuple[Rational, ...], ...]:
        if self._rho is None:
            rows = self.scaled.tolist()
            if self.scale != 1:
                rows = [[to_rho_units(x, self.scale) for x in row] for row in rows]
            object.__setattr__(self, "_rho", tuple(map(tuple, rows)))
        return self._rho


@dataclass(frozen=True)
class Line:
    """A left-to-right ordering of the voters."""

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(self.order)
        if frozenset(order) != frozenset(range(len(order))) or not order:
            raise ValueError("order must be a non-empty permutation of the voters")
        object.__setattr__(self, "order", order)

    @property
    def n(self) -> int:
        return len(self.order)

    @cached_property
    def order_array(self) -> np.ndarray:
        """The order as a read-only int array, converted on first read only."""
        array = np.array(self.order, dtype=np.int64)
        array.flags.writeable = False
        return array


@dataclass(frozen=True)
class RootedTree:
    """A rooted tree on the voters with an explicit ordering of children.

    ``parent[v]`` is None exactly for the root; ``child_order[v]`` lists
    v's children in the order solvers process them. ``order``, derived by
    the constructor's reachability sweep, lists the vertices breadth-first
    from the root in ``child_order``, so each vertex follows its parent;
    passes that need such an order read it instead of walking the tree
    again. It takes no part in ``==``, ``hash`` or ``repr``.
    """

    parent: tuple[Optional[int], ...]
    root: int
    child_order: tuple[tuple[int, ...], ...]
    order: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        parent = tuple(self.parent)
        child_order = tuple(tuple(ch) for ch in self.child_order)
        n = len(parent)
        if n == 0:
            raise NotATree("tree needs at least one vertex")
        if not (0 <= self.root < n) or parent[self.root] is not None:
            raise NotATree("root must be the unique vertex without a parent")
        if len(child_order) != n:
            raise NotATree("child_order must have one entry per vertex")
        children = [[] for _ in range(n)]
        for v, p in enumerate(parent):
            if v == self.root:
                continue
            if p is None or not (0 <= p < n):
                raise NotATree(f"vertex {v} needs a parent inside the tree")
            children[p].append(v)
        for v in range(n):
            if sorted(child_order[v]) != children[v]:
                raise NotATree(f"child_order of vertex {v} does not match the parent links")
        # Every vertex but the root is now the child of exactly one vertex, so
        # the sweep from the root meets each vertex at most once; a cycle
        # among the parent links leaves its vertices unreachable.
        order = [self.root]
        for v in order:
            order.extend(child_order[v])
        if len(order) != n:
            raise NotATree("parent links leave vertices unreachable from the root")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "child_order", child_order)
        object.__setattr__(self, "order", tuple(order))

    @classmethod
    def from_parent(cls, parent: Sequence[Optional[int]], root: int) -> "RootedTree":
        """Children are ordered by vertex index."""
        n = len(parent)
        children = [[] for _ in range(n)]
        for v, p in enumerate(parent):
            if v != root and p is not None:
                children[p].append(v)
        return cls(tuple(parent), root, tuple(tuple(ch) for ch in children))

    @property
    def n(self) -> int:
        return len(self.parent)

    def depths(self) -> list[int]:
        depth = [0] * self.n
        for v in self.order[1:]:
            depth[v] = depth[self.parent[v]] + 1
        return depth

    def path(self, u: int, w: int) -> list[int]:
        """Vertices of the unique u-w path, endpoints included."""
        depth = self.depths()
        front, back = [u], [w]
        while depth[front[-1]] > depth[back[-1]]:
            front.append(self.parent[front[-1]])
        while depth[back[-1]] > depth[front[-1]]:
            back.append(self.parent[back[-1]])
        while front[-1] != back[-1]:
            front.append(self.parent[front[-1]])
            back.append(self.parent[back[-1]])
        return front + back[-2::-1]


@dataclass(frozen=True)
class Grid:
    """Voters arranged in an n1 x n2 grid, one voter per cell, row-major."""

    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("grid dimensions must be positive")

    @property
    def n(self) -> int:
        return self.n1 * self.n2

    def index(self, i: int, j: int) -> int:
        return i * self.n2 + j

    def coords(self, v: int) -> tuple[int, int]:
        return divmod(v, self.n2)


Structure = Union[Line, RootedTree, Grid]


@dataclass(frozen=True)
class Assignment:
    """A representative for every voter; the committee is the set of used values."""

    rep: tuple[int, ...]
    committee: frozenset[int] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        rep = tuple(self.rep)
        used = frozenset(rep)
        if self.committee is not None and frozenset(self.committee) != used:
            raise ValueError("committee must equal the set of assigned representatives")
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "committee", used)

    @property
    def k_used(self) -> int:
        return len(self.committee)


def line_runs(profile: PreferenceProfile, line: Line) -> tuple[np.ndarray, np.ndarray]:
    """The maximal runs of voters with equal index along the line.

    Returns each run's first position in line order and its table row; the
    voters of a run share their ranking and scaled row.
    """
    rows = profile.index[line.order_array]
    starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    return starts, rows[starts]


def _favorite_reps(profile: PreferenceProfile, committee) -> np.ndarray:
    """Every voter's most-preferred member of the committee, found once per table row."""
    members = np.fromiter(committee, np.int64, len(committee))
    first = profile.table_pos[:, members].argmin(axis=1)  # the member ranked highest
    return members[first][profile.index]


def canonicalize(profile: PreferenceProfile, assignment: Assignment) -> Assignment:
    """Reassign every voter to their most-preferred committee member.

    Only the committee is read.  It shrinks to the members that remain in
    use; the cost under any consistent rho weakly decreases.  Idempotent.
    """
    return Assignment(tuple(_favorite_reps(profile, assignment.committee).tolist()))


def _costs(profile: PreferenceProfile, rep: np.ndarray, objectives) -> list:
    """The cost of the representatives ``rep`` (one per voter) under each
    objective, from one gather of their entries."""
    values = profile.table_scaled[profile.index, rep].tolist()
    return [
        to_rho_units(sum(values) if o is Objective.UTILITARIAN else max(values), profile.scale)
        for o in objectives
    ]


def cost(profile: PreferenceProfile, assignment: Assignment, objective: Objective) -> Rational:
    """Total (utilitarian) or maximum (egalitarian) misrepresentation of an assignment."""
    return _costs(profile, np.asarray(assignment.rep), (objective,))[0]


def reference_ranking(profile: PreferenceProfile, structure: Structure) -> tuple[int, ...]:
    """Ranking of the structure's reference voter, best first.

    The reference voter is the first voter of a line order, the root of a
    tree, and the top-left cell of a grid.  Read as a map from new to old
    labels, it relabels candidates so that this voter ranks them 0, 1, ...,
    m-1.
    """
    if isinstance(structure, Line):
        ref = structure.order[0]
    elif isinstance(structure, RootedTree):
        ref = structure.root
    else:
        ref = 0
    return tuple(profile.table_rank[profile.index[ref]].tolist())


def normalize_to_root_order(
    profile: PreferenceProfile, structure: Structure
) -> tuple[PreferenceProfile, tuple[int, ...]]:
    """Relabel candidates so the reference voter's ranking becomes 0, 1, ..., m-1.

    Returns the relabeled profile and the inverse map (new label -> old
    label, see `reference_ranking`) used to translate solver output back.
    Voter indices are untouched.  The relabeled arrays are column gathers of
    the stored ones; nothing is checked again.  The solvers gather only the
    scaled rows they need, with `reference_ranking`.
    """
    inverse = reference_ranking(profile, structure)
    cols = list(inverse)
    forward = np.empty(profile.m, dtype=np.int64)
    forward[cols] = np.arange(profile.m)
    pos = profile.pos[:, cols]
    scaled = pos if profile.scaled is profile.pos else profile.scaled[:, cols]
    return PreferenceProfile._from_parts(forward[profile.rank], pos, scaled, profile.scale), inverse


@dataclass(frozen=True)
class SolveResult:
    """A solver's answer: the assignment plus both cost readings and run metadata."""

    assignment: Assignment
    total_cost: Rational
    egal_cost: Rational
    k_used: int
    algorithm: str
    stats: dict

    @classmethod
    def from_assignment(
        cls,
        profile: PreferenceProfile,
        assignment: Assignment,
        algorithm: str,
        stats: Optional[dict] = None,
    ) -> "SolveResult":
        return cls._of(profile, assignment, np.asarray(assignment.rep), algorithm, stats)

    @classmethod
    def _of(cls, profile, assignment, rep, algorithm, stats) -> "SolveResult":
        """The result for an assignment whose representatives are also the array ``rep``."""
        total_cost, egal_cost = _costs(
            profile, rep, (Objective.UTILITARIAN, Objective.EGALITARIAN)
        )
        return cls(
            assignment=assignment,
            total_cost=total_cost,
            egal_cost=egal_cost,
            k_used=assignment.k_used,
            algorithm=algorithm,
            stats=dict(stats or {}),
        )

    @classmethod
    def from_committee(
        cls,
        profile: PreferenceProfile,
        committee,
        algorithm: str,
        stats: Optional[dict] = None,
    ) -> "SolveResult":
        """The canonical answer for a committee: every voter on their most-preferred member.

        Members nobody prefers drop out, so ``k_used`` may be smaller than
        the committee.
        """
        rep = _favorite_reps(profile, committee)
        return cls._of(profile, Assignment(tuple(rep.tolist())), rep, algorithm, stats)
