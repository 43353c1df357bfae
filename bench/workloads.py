"""Benchmark workloads: seeded, non-degenerate ``ccwinner solve`` instances.

The generators here belong to the benchmark, not to the library, so a change
to ``ccwinner.generators`` cannot change what is measured.  Each one writes an
instance file in the CLI's JSON format (1-based labels, Borda
misrepresentation implied by an absent ``rho``) and keeps a 0-based numpy copy
for the output checker.  All randomness comes from one ``random.Random(seed)``.

Every workload must be non-degenerate for every seed: more distinct top
choices than k.  With Borda misrepresentation only a voter's top choice costs
0, so then every committee of at most k members leaves someone paying, the
optimum is positive, and every optimal committee has exactly k members
(adding an uncovered top choice would make it strictly cheaper).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    structure: str  # "line", "tree" or "grid"
    n: int
    m: int
    k: int
    objective: str  # CLI --objective value
    algorithm: str  # CLI --algorithm value
    n1: int = 0  # grid rows
    n2: int = 0  # grid columns
    row_candidates: int = 0  # grid: candidates whose order changes down the rows

    def cli_args(self, instance_path: str, out_path: str) -> list[str]:
        return [
            "solve",
            instance_path,
            "--k",
            str(self.k),
            "--objective",
            self.objective,
            "--algorithm",
            self.algorithm,
            "--out",
            out_path,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("line-bulk", "line", n=4_000, m=30, k=8, objective="utilitarian", algorithm="auto"),
        Workload(
            "line-egal", "line", n=1_000, m=30, k=6, objective="egalitarian", algorithm="line-klink"
        ),
        Workload("tree", "tree", n=800, m=32, k=24, objective="utilitarian", algorithm="auto"),
        Workload(
            "grid", "grid", n=144, m=16, k=6, objective="utilitarian", algorithm="auto",
            n1=12, n2=12, row_candidates=10,
        ),
    )
}


@dataclass
class Instance:
    """A generated instance: the file's document plus 0-based arrays for checking."""

    workload: Workload
    doc: dict
    rankings: np.ndarray  # (n, m): rankings[v] lists candidates best first
    order: Optional[np.ndarray] = None  # line: voter at each line position
    parent: Optional[np.ndarray] = None  # tree: parent of each voter, -1 at the root

    @property
    def positions(self) -> np.ndarray:
        """(n, m) Borda misrepresentation: positions[v, c] is c's rank for voter v."""
        n, m = self.rankings.shape
        pos = np.empty_like(self.rankings)
        pos[np.arange(n)[:, None], self.rankings] = np.arange(m)[None, :]
        return pos


# ---------------------------------------------------------------------------
# rankings


def lift_states(m: int) -> list[tuple[int, ...]]:
    """Prefix states of the "lift" reduced word on candidates 0..m-1.

    Starting from the identity, candidate 1 is lifted to the top by adjacent
    swaps, then candidate 2, ..., then m-1: C(m, 2) swaps in all, each pair
    flipping exactly once.  Candidate j is on top from state j(j+1)/2 until
    candidate j+1 arrives, so every candidate is some state's top choice.
    """
    state = list(range(m))
    states = [tuple(state)]
    for j in range(1, m):
        for p in range(j - 1, -1, -1):
            state[p], state[p + 1] = state[p + 1], state[p]
            states.append(tuple(state))
    return states


def random_word_states(rng: random.Random, m: int) -> list[tuple[int, ...]]:
    """Prefix states of a random full-length reduced word on 0..m-1."""
    state = list(range(m))
    states = [tuple(state)]
    for _ in range(m * (m - 1) // 2):
        p = rng.choice([p for p in range(m - 1) if state[p] < state[p + 1]])
        state[p], state[p + 1] = state[p + 1], state[p]
        states.append(tuple(state))
    return states


def _lifted(m: int, j: int, d: int) -> tuple[int, ...]:
    """Identity ranking with candidate j moved d places up."""
    rest = [c for c in range(m) if c != j]
    rest.insert(j - d, j)
    return tuple(rest)


# ---------------------------------------------------------------------------
# generators


def gen_line(w: Workload, seed: int) -> Instance:
    """Lift-word line: voters take lift states at sorted random points.

    Voter ids are shuffled against the line, so the file lists voters in an
    order unrelated to the axis.
    """
    rng = random.Random(seed)
    states = lift_states(w.m)
    picks = sorted(rng.randrange(len(states)) for _ in range(w.n))
    order = list(range(w.n))
    rng.shuffle(order)
    state_of = [0] * w.n
    for pos, v in enumerate(order):
        state_of[v] = picks[pos]
    one_based = [[c + 1 for c in s] for s in states]
    doc = {
        "schema_version": 1,
        "structure": {"type": "line", "order": [v + 1 for v in order]},
        "m": w.m,
        "rankings": [one_based[t] for t in state_of],
    }
    table = np.array(states, dtype=np.int64)
    return Instance(w, doc, table[np.array(state_of)], order=np.array(order))


def gen_tree(w: Workload, seed: int) -> Instance:
    """Lift-branch tree.

    The root votes the identity.  For each j = 1..m-1 a path of j vertices
    hangs off the root and lifts candidate j one place per edge, so it ends
    with j on top; each pair (i, j), i < j, flips on exactly one edge.  The
    other vertices hang off one of the 8 most recently added vertices (90%)
    or a uniform vertex (10%) and copy its ranking.  Vertex ids are shuffled.
    """
    rng = random.Random(seed)
    parent = [-1]
    rankings = [tuple(range(w.m))]
    for j in range(1, w.m):
        prev = 0
        for d in range(1, j + 1):
            parent.append(prev)
            rankings.append(_lifted(w.m, j, d))
            prev = len(parent) - 1
    if len(parent) > w.n:
        raise ValueError(f"tree needs n >= {len(parent)} for m = {w.m}")
    while len(parent) < w.n:
        size = len(parent)
        u = size - 1 - rng.randrange(min(8, size)) if rng.random() < 0.9 else rng.randrange(size)
        parent.append(u)
        rankings.append(rankings[u])
    label = list(range(w.n))
    rng.shuffle(label)
    new_parent = [-1] * w.n
    new_rankings: list = [None] * w.n
    for v in range(w.n):
        new_parent[label[v]] = -1 if parent[v] < 0 else label[parent[v]]
        new_rankings[label[v]] = rankings[v]
    doc = {
        "schema_version": 1,
        "structure": {
            "type": "tree",
            "parent": [None if p < 0 else p + 1 for p in new_parent],
            "root": label[0] + 1,
        },
        "m": w.m,
        "rankings": [[c + 1 for c in r] for r in new_rankings],
    }
    return Instance(w, doc, np.array(new_rankings, dtype=np.int64), parent=np.array(new_parent))


def gen_grid(w: Workload, seed: int) -> Instance:
    """Lift-row grid.

    The first ``row_candidates`` candidates follow the lift word down evenly
    spaced rows (row i takes state round(i * L / (n1 - 1))); the others follow
    a random full reduced word across evenly spaced columns and always rank
    below the first block.  Row-block pairs flip between rows and column-block
    pairs between columns, so every pair splits the grid into two bands.
    """
    rng = random.Random(seed)
    b = w.row_candidates
    rows = lift_states(b)
    cols = random_word_states(rng, w.m - b)
    rankings = []
    for i in range(w.n1):
        head = rows[round(i * (len(rows) - 1) / (w.n1 - 1))]
        for j in range(w.n2):
            tail = cols[round(j * (len(cols) - 1) / (w.n2 - 1))]
            rankings.append(head + tuple(c + b for c in tail))
    doc = {
        "schema_version": 1,
        "structure": {"type": "grid", "n1": w.n1, "n2": w.n2},
        "m": w.m,
        "rankings": [[c + 1 for c in r] for r in rankings],
    }
    return Instance(w, doc, np.array(rankings, dtype=np.int64))


GENERATORS = {"line": gen_line, "tree": gen_tree, "grid": gen_grid}


def generate(w: Workload, seed: int) -> Instance:
    return GENERATORS[w.structure](w, seed)


def write_instance(inst: Instance, path: str) -> None:
    text = json.dumps(inst.doc, separators=(",", ":"))  # one C-encoder call, one write
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# input properties


def input_counts(inst: Instance) -> dict:
    """Counts that describe the input, independent of the program."""
    n, m = inst.rankings.shape
    distinct = len(np.unique(inst.rankings, axis=0))
    return {
        "input.n": n,
        "input.m": m,
        "input.k": inst.workload.k,
        "input.rho_entries": n * m,
        "input.distinct_rankings": distinct,
        "input.distinct_tops": len(np.unique(inst.rankings[:, 0])),
        "input.distinct_rankings_frac": distinct / n,
    }


class DegenerateInstance(Exception):
    """A generated instance would not exercise the solver (optimum 0 or k unused)."""


def assert_non_degenerate(inst: Instance) -> None:
    tops = len(np.unique(inst.rankings[:, 0]))
    if tops <= inst.workload.k:
        raise DegenerateInstance(
            f"{inst.workload.name}: {tops} distinct top choices, need more than k = {inst.workload.k}"
        )
