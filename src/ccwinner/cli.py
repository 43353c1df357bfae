"""Command line front-end: validate, solve, generate, check, bench.

Instances and results travel as single JSON documents.  Voters and
candidates are 1-based in files and terminal output (0-based everywhere in
the library); misrepresentation values are integers or exact "p/q" strings,
never floats.  Exit codes: 0 success, 1 validation or feasibility failure,
2 usage error, 3 work budget exceeded.  The CC_BUDGET environment variable
caps enumeration sizes for the oracle and the conjecture checker.

A cold ``ccwinner solve`` pays for every module it imports, and compiles
each from source when Python writes no bytecode. So only `core`, `errors`
and `validation` are imported with this module. The solver, generator,
``ProcessPoolExecutor`` and ``csv`` names resolve on first use, through the
module ``__getattr__`` and a ``_LAZY`` table that extends the package's own
with the few names only commands use, and a solve imports the one solver
module its route calls. These names stay attributes of this module, and
commands read them as attributes of the module object, so a call uses the
current binding: tests patch them, and the benchmark's tracer wraps the
solver names to time each layer. A function-local import would bypass both.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import random
import re
import sys
import time
from fractions import Fraction
from importlib import import_module
from itertools import chain

import numpy as np

from . import _LAZY as _EXPORTED
from .core import (
    Grid,
    Line,
    Objective,
    PreferenceProfile,
    RootedTree,
    SolveResult,
)
from .errors import (
    AlgorithmStructureMismatch,
    BudgetExceeded,
    CCWinnerError,
    NotSingleCrossing,
    OutputError,
    ParseError,
)
from .validation import check_consistency, check_structure

# name -> module, for the names imported on first use: the package's table
# plus the helpers and standard modules only commands use; a name equal to
# its module's is the module itself
_LAZY = {
    **_EXPORTED,
    "build_grid_prefix": ".grid_solver",
    "rect_cost": ".grid_solver",
    "build_prefix_sums": ".line_solver",
    "merge_identical_voters": ".line_solver",
    "ProcessPoolExecutor": "concurrent.futures",
    "csv": "csv",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(module, __package__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later reads find it without this call
    return value


# commands read the lazy names as attributes of this module, at call time
_this = sys.modules[__name__]


SCHEMA_VERSION = 1
ALGORITHMS = (
    "auto",
    "line-dp",
    "line-klink",
    "tree-dp",
    "grid-laminar",
    "grid-bicriterial",
    "oracle",
)


# ---------------------------------------------------------------------------
# exact values in JSON


# every limit Python takes for int-to-text conversion (sys.set_int_max_str_digits)
# is 0 (none) or at least 640 digits, and an int of up to 3 * 640 bits has fewer
_SHORT_BITS = 3 * 640


def encode_value(x, where: str = "value"):
    """``x`` as an exact JSON value: an int as is, a Fraction as a "p/q" string.

    A value with more digits than Python turns into text raises OutputError
    naming ``where``, here rather than later in the summary line or in json.
    """
    try:
        if isinstance(x, int):
            if x.bit_length() > _SHORT_BITS:
                str(x)
            return x
        if isinstance(x, Fraction):
            return f"{x.numerator}/{x.denominator}"
    except ValueError as exc:
        raise OutputError(f"{where}: {exc}") from None
    raise TypeError(f"cannot encode {type(x).__name__} exactly")


# Fraction("1e<N>") expands 10**N, seconds of CPU once N reaches millions; an
# exponent past 4300, Python's digit limit for int(str), is refused unexpanded
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")
_MAX_EXPONENT = 4300


def decode_value(x, where: str):
    if isinstance(x, bool):
        raise ParseError(f"{where}: booleans are not misrepresentation values")
    if isinstance(x, int):
        return x
    if isinstance(x, float):
        raise ParseError(f"{where}: floats are inexact; use an integer or a 'p/q' string")
    if isinstance(x, str):
        exponent = _EXPONENT.search(x)
        digits = exponent[1].lstrip("+-").replace("_", "").lstrip("0") if exponent else ""
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
            raise ParseError(f"{where}: exponent past {_MAX_EXPONENT} in magnitude: {x!r}")
        try:
            value = Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: not a rational: {x!r} ({exc})") from None
        return int(value) if value.denominator == 1 else value
    raise ParseError(f"{where}: expected a number, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# instance files


def _field(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise ParseError(f"{where}: missing field {key!r}")
    value = doc[key]
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ParseError(f"{where}.{key}: expected an integer")
    if kind is list and not isinstance(value, list):
        raise ParseError(f"{where}.{key}: expected a list")
    if kind is dict and not isinstance(value, dict):
        raise ParseError(f"{where}.{key}: expected an object")
    return value


def _index(value, n: int, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not (1 <= value <= n):
        raise ParseError(f"{where}: expected an integer in 1..{n}, got {value!r}")
    return value - 1


def _all_indices(values: list, n: int) -> bool:
    """Whether every entry is a plain int in 1..n, checked by whole-list passes."""
    return set(map(type, values)) <= {int} and (not values or 1 <= min(values) <= max(values) <= n)


_zero_based = (-1).__add__  # a 1-based index as 0-based, mapped at C speed


def _parse_structure(doc: dict, n: int):
    kind = _field(doc, "type", str, "structure")
    if kind == "line":
        order = _field(doc, "order", list, "structure")
        if len(order) != n:
            raise ParseError(f"structure.order: expected {n} voters, got {len(order)}")
        if not _all_indices(order, n):  # the per-entry pass names the first bad entry
            for t, v in enumerate(order):
                _index(v, n, f"structure.order[{t}]")
        try:
            return Line(tuple(map(_zero_based, order)))
        except ValueError as exc:
            raise ParseError(f"structure.order: {exc}") from None
    if kind == "tree":
        parent_raw = _field(doc, "parent", list, "structure")
        if len(parent_raw) != n:
            raise ParseError(f"structure.parent: expected {n} entries, got {len(parent_raw)}")
        if not _all_indices([p for p in parent_raw if p is not None], n):
            for v, p in enumerate(parent_raw):
                if p is not None:
                    _index(p, n, f"structure.parent[{v}]")
        parent = tuple(None if p is None else p - 1 for p in parent_raw)
        root = _index(_field(doc, "root", int, "structure"), n, "structure.root")
        child_order = None
        if "child_order" in doc:
            rows = _field(doc, "child_order", list, "structure")
            if not set(map(type, rows)) <= {list} or not _all_indices(
                list(chain.from_iterable(rows)), n
            ):
                for v, row in enumerate(rows):
                    if type(row) is not list:
                        raise ParseError(
                            f"structure.child_order[{v}]: expected a list of child vertices, "
                            f"got {row!r}"
                        )
                    for u in row:
                        _index(u, n, f"structure.child_order[{v}]")
            child_order = tuple(tuple(map(_zero_based, row)) for row in rows)
        try:
            return RootedTree(parent, root, child_order)
        except (ValueError, CCWinnerError) as exc:
            raise ParseError(f"structure: {exc}") from None
    if kind == "grid":
        n1 = _field(doc, "n1", int, "structure")
        n2 = _field(doc, "n2", int, "structure")
        if n1 < 1 or n2 < 1 or n1 * n2 != n:
            raise ParseError(f"structure: {n1}x{n2} grid does not hold {n} voters")
        return Grid(n1, n2)
    raise ParseError(f"structure.type: unknown structure {kind!r}")


def load_instance(path: str):
    """Parse an instance file into (profile, structure, default k or None).

    The rankings value is read at C speed (`_array_instance`) whether it is
    written compactly, ``"rankings":[[3,1,2],[1,3,2],...]``, with
    ``json.dump``'s default spaces or indented as ``ccwinner generate``
    writes it. That reader parses, range-checks and inverts each distinct
    ranking once and gathers the voters' rows from them, which pays because
    a single-crossing profile has few: each candidate pair flips on at most
    one edge of a line or tree, so there are at most m(m-1)/2 + 1 distinct
    rankings whatever n is. Any text it declines, and any instance whose
    arrays fail a check, takes the full JSON decoder and the per-entry
    checks, with identical results; their messages are the only ones given.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        fast = _array_instance(text)
        doc = json.loads(text) if fast is None else fast[0]
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # also integers past the digit limit, deep nesting
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
    profile = None if fast is None else _profile_from_arrays(*fast)
    if profile is None:
        if fast is not None:  # the diagnosis reads json's lists, as for any other text
            doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ParseError(f"{path}: top level must be an object")
        m = _field(doc, "m", int, "instance")
        if m < 1:
            raise ParseError("instance.m: need at least one candidate")
        profile = _profile_per_element(doc, _field(doc, "rankings", list, "instance"), m)
    structure = _parse_structure(_field(doc, "structure", dict, "instance"), profile.n)
    k = doc.get("k")
    if k is not None and (isinstance(k, bool) or not isinstance(k, int) or k < 1):
        raise ParseError(f"instance.k: expected a positive integer, got {k!r}")
    return profile, structure, k


def _int_rows(rows: list, width: int):
    """`rows` as an int64 array if each is a list of `width` plain ints that fit, else None."""
    if not rows or not all(type(row) is list and len(row) == width for row in rows):
        return None
    flat = list(chain.from_iterable(rows))
    if set(map(type, flat)) != {int}:
        return None
    try:
        return np.fromiter(flat, np.int64, len(flat)).reshape(len(rows), width)
    except OverflowError:
        return None


# JSON's whitespace and nothing else: re's \s and np.loadtxt take more
_BLANK = "[ \t\n\r]*"
# the key up to the first row's "[", the value's own "[" as group 1
_RANKINGS_VALUE = re.compile(f'"rankings"{_BLANK}:{_BLANK}(\\[){_BLANK}\\[')
_VALUE_END = re.compile(f"\\]{_BLANK}\\]")  # the last row's "]" and the value's
_ROW_BREAK = re.compile(f"\\]{_BLANK},{_BLANK}\\[".encode())
_BLANKS_AS_SPACES = bytes.maketrans(b"\t\n\r", b"   ")  # np.loadtxt reads no newline in a row


def _array_instance(text: str):
    """(doc, table, index) for a text whose rankings value is a list of integer lists, else None.

    The value is cut out of the text and split into row texts by one
    ``re`` split; `np.loadtxt` reads the distinct row texts: ``table``
    holds them in order of first appearance and voter v's ranking is
    ``table[index[v]]``. JSON whitespace may stand around the key's colon
    and the value's brackets, commas and numbers. It stays in the row
    texts, so one ranking spaced two ways is two table rows, and two
    digits with only whitespace between them stay one field, which
    np.loadtxt refuses. json decodes the rest of the text with ``0`` in
    place of the value. ``"rankings"`` must occur once, as a top-level
    key: with no backslash in the text there is no other way to spell that
    key. Every other text returns None and takes the full decode, the only
    source of error messages.
    """
    if "\\" in text or text.count('"rankings"') != 1:
        return None
    head = _RANKINGS_VALUE.search(text)
    tail = _VALUE_END.search(text, head.end()) if head else None
    if tail is None:
        return None
    inner = text[head.end() : tail.start()]  # the rows' texts and the breaks between them
    rows = _ROW_BREAK.split(inner.encode())
    kinds = {row: d for d, row in enumerate(dict.fromkeys(rows))}
    lines = [row.translate(_BLANKS_AS_SPACES) for row in kinds]
    # Each character of the value outside the row breaks lies in some row,
    # so checking the distinct rows checks the whole value. np.loadtxt skips
    # an empty line, which would shift the index, and reads a token with a
    # leading zero, which JSON refuses: a "0" after a comma or a blank once
    # the rows are joined by commas. An empty field, a blank line and blanks
    # between two digits np.loadtxt refuses itself
    joined = b"," + b",".join(lines)
    if b"" in kinds or joined.translate(None, b"0123456789, ") or b",0" in joined or b" 0" in joined:
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", dtype=np.int64, ndmin=2)
        doc = json.loads(text[: head.start(1)] + "0" + text[tail.end() :])
    except (ValueError, OverflowError, RecursionError):
        return None
    if not isinstance(doc, dict) or doc.get("rankings") != 0:
        return None
    m = doc.get("m")
    if type(m) is not int or table.shape != (len(kinds), m):
        return None
    return doc, table, np.fromiter(map(kinds.__getitem__, rows), np.intp, len(rows))


def _profile_from_arrays(doc: dict, table, index):
    """The profile from int64 rankings, checked by whole-array passes.

    ``table`` is the (d, m) table of distinct rankings that voter v reads at
    row ``index[v]``; it is range- and permutation-checked once. None when a
    check fails: that leaves the diagnosis to `_profile_per_element`, which
    names the offending field and entry. Checks run in its order, so an
    error raised here is the one it would raise.
    """
    m = table.shape[1]
    n = len(index)
    if table.min() < 1 or table.max() > m:
        return None
    rho = None
    if doc.get("rho") is not None:
        rho_raw = _field(doc, "rho", list, "instance")
        if len(rho_raw) != n:
            raise ParseError("rho: one row per voter required")
        rho = _int_rows(rho_raw, m)
        if rho is None:
            return None
    table -= 1
    try:
        return PreferenceProfile._from_table(table, index, rho)
    except ValueError as exc:
        raise ParseError(f"rankings: {exc}") from None


def _profile_per_element(doc: dict, rankings_raw: list, m: int) -> PreferenceProfile:
    """The profile, checked entry by entry; errors name the first malformed field."""
    rankings = []
    for v, row in enumerate(rankings_raw):
        if not isinstance(row, list) or len(row) != m:
            raise ParseError(f"rankings[{v}]: expected a list of {m} candidates")
        rankings.append(tuple(_index(c, m, f"rankings[{v}]") for c in row))
    rho = None
    if doc.get("rho") is not None:
        rho_raw = _field(doc, "rho", list, "instance")
        if len(rho_raw) != len(rankings):
            raise ParseError("rho: one row per voter required")
        rho = []
        for v, row in enumerate(rho_raw):
            if not isinstance(row, list) or len(row) != m:
                raise ParseError(f"rho[{v}]: expected a list of {m} values")
            rho.append(tuple(decode_value(x, f"rho[{v}][{c}]") for c, x in enumerate(row)))
    try:
        return PreferenceProfile.from_rankings(tuple(rankings), rho)
    except ValueError as exc:
        raise ParseError(f"rankings: {exc}") from None


def instance_to_doc(profile: PreferenceProfile, structure, k=None) -> dict:
    # the structures keep numpy integers as given; json writes only Python ints
    if isinstance(structure, Line):
        struct = {"type": "line", "order": (structure.order_array + 1).tolist()}
    elif isinstance(structure, RootedTree):
        struct = {
            "type": "tree",
            "parent": [None if p is None else int(p) + 1 for p in structure.parent],
            "root": int(structure.root) + 1,
            "child_order": [[int(u) + 1 for u in row] for row in structure.child_order],
        }
    elif isinstance(structure, Grid):
        struct = {"type": "grid", "n1": structure.n1, "n2": structure.n2}
    else:
        raise TypeError(f"unsupported structure {type(structure).__name__}")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "structure": struct,
        "m": profile.m,
        "rankings": (profile.rank + 1).tolist(),
    }
    if profile.scale != 1 or not np.array_equal(profile.scaled, profile.pos):
        doc["rho"] = [[encode_value(x, "rho") for x in row] for row in profile.rho]
    if k is not None:
        doc["k"] = k
    return doc


def _write_text(text: str, path: str, newline=None, mode="w"):
    """Write a whole output file; an OSError becomes an OutputError naming the path."""
    try:
        with open(path, mode, encoding="utf-8", newline=newline) as handle:
            handle.write(text)
    except OSError as exc:
        raise OutputError(f"{path}: {exc}") from None


def _probe_out(path: str):
    """Fail before a long sweep, with the error its write would give, if ``path`` is unwritable."""
    existed = os.path.lexists(path)
    _write_text("", path, mode="a")  # appending nothing leaves an existing file as it was
    if not existed:
        os.remove(path)


_compact = json.JSONEncoder(separators=(",", ":")).encode


def _indented_json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for string-keyed documents, without json's Python encoder.

    ``pad`` starts the lines of ``value``'s own depth. Scalars and lists of
    numbers, bools and None are each one compact C-encoded string; such a
    list is cut into lines at its commas, which no element contains. Only
    dicts and other lists recurse.
    """
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (f"{_compact(key)}: {_indented_json(item, inner)}" for key, item in value.items())
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        flat = _compact(value)
        if '"' in flat or "[" in flat[1:] or "{" in flat:
            body = ("," + inner).join(_indented_json(item, inner) for item in value)
        else:
            body = flat[1:-1].replace(",", "," + inner)
        return "[" + inner + body + pad + "]"
    return _compact(value)


def _write_json(doc: dict, path: str):
    _write_text(_indented_json(doc) + "\n", path)  # encoded first: no partial file


def result_to_doc(result, k: int, objective: Objective) -> dict:
    stats = {}
    for key, value in result.stats.items():
        if key == "tiling":
            value = [[r[0] + 1, r[1] + 1, r[2] + 1, r[3] + 1] for r in value]
        elif key == "reps":
            value = [c + 1 for c in value]
        elif isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, (int, Fraction)):
            value = encode_value(value, f"stats.{key}")
        stats[key] = value
    return {
        "schema_version": SCHEMA_VERSION,
        "algorithm": result.algorithm,
        "objective": objective.value,
        "k": k,
        "k_used": len(result.assignment.committee),
        "committee": sorted(c + 1 for c in result.assignment.committee),
        "assignment": [c + 1 for c in result.assignment.rep],
        "total_cost": encode_value(result.total_cost, "total_cost"),
        "egal_cost": encode_value(result.egal_cost, "egal_cost"),
        "stats": stats,
    }


# ---------------------------------------------------------------------------
# commands


def _env_budget():
    raw = os.environ.get("CC_BUDGET")
    if raw is None:
        return None
    try:
        budget = int(raw)
    except ValueError:
        raise ParseError(f"CC_BUDGET: expected an integer, got {raw!r}") from None
    if budget < 1:
        raise ParseError(f"CC_BUDGET: expected a positive integer, got {budget}")
    return budget


def cmd_validate(args) -> int:
    profile, structure, _ = load_instance(args.path)
    bad = check_consistency(profile)
    if bad is not None:
        print(
            f"inconsistent rho: voter {bad.voter + 1} ranks candidate {bad.better + 1} "
            f"above {bad.worse + 1} but scores it strictly higher"
        )
        return 1
    witness = check_structure(profile, structure)
    if witness is not None:
        print(
            f"not single-crossing: candidates ({witness.c + 1}, {witness.c_other + 1}) "
            f"cross twice around voters ({witness.v1 + 1}, {witness.v2 + 1}, {witness.v3 + 1})"
        )
        return 1
    print("ok")
    return 0


def _solve_merged(profile, line, objective: Objective, solve, *args) -> SolveResult:
    """Run a line solver on the profile with adjacent identical voters merged.

    Only the merged answer's committee carries over: identical voters share
    their favorite member, so the full profile's canonical assignment for it
    gives every voter of a run the run's representative. Both costs are
    computed on the full profile, since the maximum of a summed row is no
    single voter's misrepresentation.
    """
    merged = _this.merge_identical_voters(profile, line, objective)
    inner = solve(merged, Line(tuple(range(merged.n))), *args)
    stats = {**inner.stats, "compressed_n": merged.n}
    return SolveResult.from_committee(profile, inner.assignment.committee, inner.algorithm, stats)


def _dispatch(profile, structure, algorithm: str, objective: Objective, k: int) -> SolveResult:
    if algorithm == "auto":
        if isinstance(structure, Line):
            algorithm = "line-dp"
        elif isinstance(structure, RootedTree):
            algorithm = "tree-dp"
        else:
            algorithm = "grid-laminar"

    def need(cls, name):
        if not isinstance(structure, cls):
            raise AlgorithmStructureMismatch(
                f"{algorithm} needs a {name} instance, got {type(structure).__name__.lower()}"
            )

    if algorithm == "line-dp":
        need(Line, "line")
        return _solve_merged(profile, structure, objective, _this.solve_line_dp, k, objective)
    if algorithm == "line-klink":
        need(Line, "line")
        if objective is Objective.EGALITARIAN:
            # no egalitarian k-link route exists; threshold search is the
            # egalitarian line algorithm, so hand over rather than refuse
            return _solve_merged(profile, structure, objective, _this.solve_line_egal_threshold, k)
        return _solve_merged(profile, structure, objective, _this.solve_line_klink, k)
    if algorithm == "tree-dp":
        need(RootedTree, "tree")
        return _this.solve_tree_dp(profile, structure, k, objective)
    if algorithm in ("grid-laminar", "grid-bicriterial"):
        need(Grid, "grid")
        if objective is Objective.EGALITARIAN:
            raise AlgorithmStructureMismatch(
                "egalitarian grid solving is not offered; use --objective utilitarian"
            )
        if algorithm == "grid-bicriterial":
            return _this.solve_grid_bicriterial(profile, structure, k)
        result, tiling = _this.solve_grid_laminar(profile, structure, k)
        result.stats["tiling"] = tuple((r.i0, r.i1, r.j0, r.j1) for r in tiling.rects)
        result.stats["reps"] = tiling.reps
        return result
    return _this.brute_force(profile, k, objective, budget=_env_budget() or 10**7)


def cmd_solve(args) -> int:
    profile, structure, file_k = load_instance(args.path)
    k = args.k if args.k is not None else file_k
    if k is None:
        print("solve: no committee bound; pass --k or store \"k\" in the instance", file=sys.stderr)
        return 2
    objective = Objective(args.objective)
    bad = check_consistency(profile)
    if bad is not None:
        print(f"inconsistent rho at voter {bad.voter + 1}; fix the instance first", file=sys.stderr)
        return 1
    if args.algorithm != "oracle":
        witness = check_structure(profile, structure)
        if witness is not None:
            print(
                f"not single-crossing: candidates ({witness.c + 1}, {witness.c_other + 1}) "
                f"cross twice; structured solvers would be unsound",
                file=sys.stderr,
            )
            return 1
    result = _dispatch(profile, structure, args.algorithm, objective, k)
    doc = result_to_doc(result, k, objective)
    committee = ",".join(str(c) for c in doc["committee"])
    print(
        f"{doc['algorithm']}: total_cost={doc['total_cost']} egal_cost={doc['egal_cost']} "
        f"committee=[{committee}] k_used={doc['k_used']}"
    )
    if args.out:
        _write_json(doc, args.out)
    return 0


def cmd_generate(args) -> int:
    if args.structure == "line":
        profile, structure = _this.gen_sc_line(args.seed, args.n, args.m, max_swaps=args.max_swaps)
    elif args.structure == "tree":
        profile, structure = _this.gen_sc_tree(
            args.seed, args.n, args.m, max_edge_swaps=args.max_edge_swaps
        )
    elif args.structure == "star":
        profile, structure = _this.gen_star_instance(args.n)
    else:
        profile, structure = _this.gen_sc_grid(
            args.seed, args.n1, args.n2, args.m, mode=args.mode, edits=args.edits
        )
    _write_json(instance_to_doc(profile, structure, k=args.k), args.out)
    print(f"wrote {args.structure} instance with n={profile.n} m={profile.m} to {args.out}")
    return 0


def cmd_check(args) -> int:
    if args.mode == "monge":
        return _check_monge(args)
    if args.path is not None:
        print("check --mode conjecture: takes no instance file (PATH is for --mode monge)",
              file=sys.stderr)
        return 2
    return _check_conjecture(args)


def _check_monge(args) -> int:
    if args.path is not None:
        profile, structure, _ = load_instance(args.path)
        if not isinstance(structure, Line):
            print("check --mode monge: needs a line instance", file=sys.stderr)
            return 2
        violation = _this.check_concave_monge(_this.build_prefix_sums(profile, structure))
        if violation is not None:
            print(f"monge violation at segment pair (i={violation[0] + 1}, j={violation[1] + 1})")
            return 1
        print("ok")
        return 0
    rng = random.Random(args.seed)
    violations = 0
    for trial in range(args.instances):
        n = rng.randint(3, args.n_max)
        m = rng.randint(2, args.m_max)
        profile, line = _this.gen_sc_line(args.seed + trial, n, m)
        if _this.check_concave_monge(_this.build_prefix_sums(profile, line)) is not None:
            violations += 1
    print(f"monge sweep: {args.instances} instances, {violations} violations")
    return 0 if violations == 0 else 1


def _conjecture_worker(task):
    seed, n1, n2, k, m, budget = task
    profile, grid = _this.gen_sc_grid(seed, n1, n2, m)
    counterexample = _this.check_laminar_conjecture(profile, grid, k, budget=budget)
    if counterexample is None:
        return seed, n1, n2, k, m, True, 0, None
    laminar = _this.solve_grid_laminar(profile, grid, k)[0].total_cost
    prefix = _this.build_grid_prefix(profile, grid)
    best = sum(_this.rect_cost(prefix, r)[0] for r in counterexample.rects)
    witness = {
        "rects": [[r.i0 + 1, r.i1 + 1, r.j0 + 1, r.j1 + 1] for r in counterexample.rects],
        "reps": [c + 1 for c in counterexample.reps],
    }
    return seed, n1, n2, k, m, False, laminar - best, witness


def _check_conjecture(args) -> int:
    if args.out:
        _probe_out(args.out)
    budget = _env_budget()
    rng = random.Random(args.seed)
    tasks = []
    for trial in range(args.instances):
        tasks.append(
            (
                args.seed + trial,
                rng.randint(1, args.n1_max),
                rng.randint(1, args.n2_max),
                rng.randint(1, args.k_max),
                rng.randint(2, args.m_max),
                budget,
            )
        )
    if args.jobs > 1:
        # under the fork start method the pool starts every worker at its first
        # submit, so it gets no more workers than there are tasks
        with _this.ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            rows = list(pool.map(_conjecture_worker, tasks))
    else:
        rows = [_conjecture_worker(t) for t in tasks]
    rows.sort()  # worker order must not leak into the report
    counterexamples = [row for row in rows if not row[5]]
    if args.out:
        table = io.StringIO()
        writer = _this.csv.writer(table)
        writer.writerow(["seed", "n1", "n2", "k", "m", "holds", "gap"])
        for seed, n1, n2, k, m, holds, gap, _ in rows:
            writer.writerow([seed, n1, n2, k, m, holds, gap])
        _write_text(table.getvalue(), args.out, newline="")
        for seed, n1, n2, k, m, _, _, witness in counterexamples:
            _write_json(
                {"seed": seed, "n1": n1, "n2": n2, "k": k, "m": m, "tiling": witness},
                f"{args.out}.counterexample.{seed}.json",
            )
    print(
        f"conjecture sweep: {len(rows)} instances, {len(counterexamples)} counterexamples"
    )
    return 0 if not counterexamples else 1


def _fit_slope(xs, ys) -> float:
    return float(np.polyfit(np.log2(np.array(xs, float)), np.log2(np.array(ys, float)), 1)[0])


def _run_line(seed, n, m, k):
    profile, line = _this.gen_sc_line(seed, n, m)
    t0 = time.perf_counter()
    result = _this.solve_line_dp(profile, line, k)
    return time.perf_counter() - t0, result.stats["states"]


def _run_tree(seed, n, m, k):
    profile, tree = _this.gen_sc_tree(seed, n, m)
    t0 = time.perf_counter()
    result = _this.solve_tree_dp(profile, tree, k)
    return time.perf_counter() - t0, result.stats["states"]


def _run_grid(seed, n, m, k):
    # n doubles the column count; three rows keep the DP table affordable
    profile, grid = _this.gen_sc_grid(seed, 3, n, m)
    t0 = time.perf_counter()
    result, _ = _this.solve_grid_laminar(profile, grid, k)
    return time.perf_counter() - t0, result.stats["dp_cells"]


def _sweep(run, seed, base: dict, points: int) -> dict:
    """Double one of n, m, k at a time from `base`: {param: [(value, seconds, counter), ...]}."""
    sweeps = {}
    for param in ("n", "m", "k"):
        sweeps[param] = []
        for i in range(points):
            sizes = {**base, param: base[param] * 2**i}
            sweeps[param].append((sizes[param], *run(seed, **sizes)))
    return sweeps


_BENCH_DEFAULTS = {
    "line": (2000, 6, 3, _run_line),
    "tree": (400, 6, 3, _run_tree),
    "grid": (4, 4, 2, _run_grid),
}


def cmd_bench(args) -> int:
    default_n, default_m, default_k, run = _BENCH_DEFAULTS[args.suite]
    base = {
        "n": default_n if args.base_n is None else args.base_n,
        "m": default_m if args.base_m is None else args.base_m,
        "k": default_k if args.base_k is None else args.base_k,
    }
    if args.suite == "tree" and base["k"] * 2 ** (args.points - 1) >= base["n"]:
        # at k >= n the tree DP returns everyone's top choice and counts no states
        print("bench --suite tree: needs base-k * 2^(points-1) < base-n", file=sys.stderr)
        return 2
    if args.out:
        _probe_out(args.out)
    sweeps = _sweep(run, args.seed, base, args.points)
    report = {"schema_version": SCHEMA_VERSION, "suite": args.suite, "sweeps": {}}
    for param, rows in sweeps.items():
        values = [r[0] for r in rows]
        times = [r[1] for r in rows]
        counters = [r[2] for r in rows]
        slope_states = _fit_slope(values, counters)
        slope_time = _fit_slope(values, times)
        report["sweeps"][param] = {
            "points": [{"value": v, "seconds": t, "states": s} for v, t, s in rows],
            "slope_states": slope_states,
            "slope_time": slope_time,
        }
        print(f"{args.suite} {param}: slope(states)={slope_states:.3f} slope(time)={slope_time:.3f}")
    if args.out:
        _write_json(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _at_least(low: int):
    """argparse type for an integer no smaller than `low`; a smaller one is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccwinner",
        description="Chamberlin-Courant committees on single-crossing profiles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file for single-crossing")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("path")
    p.add_argument("--k", type=int, default=None, help="committee bound (overrides the file)")
    p.add_argument(
        "--objective",
        choices=[o.value for o in Objective],
        default=Objective.UTILITARIAN.value,
    )
    p.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    p.add_argument("--out", default=None, help="write the result record here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("generate", help="write a seeded single-crossing instance")
    p.add_argument("--structure", choices=("line", "tree", "grid", "star"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=10, help="voters (line, tree, star)")
    p.add_argument("--m", type=int, default=5, help="candidates")
    p.add_argument("--n1", type=int, default=3, help="grid rows")
    p.add_argument("--n2", type=int, default=3, help="grid columns")
    p.add_argument("--max-swaps", type=_at_least(0), default=None, help="line: cap on crossings")
    p.add_argument("--max-edge-swaps", type=_at_least(0), default=3, help="tree: swaps per edge")
    p.add_argument("--mode", choices=("axis", "rejection"), default="axis", help="grid recipe")
    p.add_argument("--edits", type=_at_least(0), default=None, help="grid rejection: band edits")
    p.add_argument("--k", type=_at_least(1), default=None, help="store a default committee bound")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", help="monge property or the laminar-tiling conjecture")
    p.add_argument("--mode", choices=("monge", "conjecture"), required=True)
    p.add_argument("path", nargs="?", default=None, help="monge: a line instance file")
    p.add_argument("--instances", type=_at_least(1), default=300, help="sweep size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-max", type=_at_least(3), default=12, help="monge sweep: voters")
    p.add_argument("--m-max", type=_at_least(2), default=6, help="sweep: candidates")
    p.add_argument("--n1-max", type=_at_least(1), default=4, help="conjecture sweep: rows")
    p.add_argument("--n2-max", type=_at_least(1), default=5, help="conjecture sweep: columns")
    p.add_argument("--k-max", type=_at_least(1), default=5, help="conjecture sweep: committee bound")
    p.add_argument("--jobs", type=_at_least(1), default=1, help="parallel workers for the sweep")
    p.add_argument("--out", default=None, help="conjecture: CSV report path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", help="doubling sweeps with log-log slopes")
    p.add_argument("--suite", choices=("line", "tree", "grid"), required=True)
    p.add_argument("--points", type=_at_least(2), default=4, help="doublings per parameter")
    p.add_argument("--base-n", type=_at_least(1), default=None)
    p.add_argument("--base-m", type=_at_least(1), default=None)
    p.add_argument("--base-k", type=_at_least(1), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="JSON report path")
    p.set_defaults(func=cmd_bench)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, OutputError, NotSingleCrossing) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except CCWinnerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
