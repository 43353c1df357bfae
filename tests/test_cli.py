"""Tests for the command line front-end and its file formats."""

import json
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from ccwinner import cli
from ccwinner.cli import (
    decode_value,
    encode_value,
    instance_to_doc,
    load_instance,
    main,
)
from ccwinner.core import Assignment, Line, Objective, PreferenceProfile, canonicalize, cost
from ccwinner.errors import OutputError, ParseError
from ccwinner.generators import gen_sc_grid, gen_sc_line, gen_sc_tree, gen_star_instance
from ccwinner.grid_solver import Rect, Tiling
from ccwinner.line_solver import solve_line_dp, solve_line_egal_threshold, solve_line_klink
from ccwinner.oracle import brute_force

THREE = {
    "schema_version": 1,
    "structure": {"type": "line", "order": [1, 2, 3]},
    "m": 3,
    "rankings": [[1, 2, 3], [2, 1, 3], [2, 3, 1]],
}
TREE = {"type": "tree", "parent": [None, 1, 1], "root": 1, "child_order": [[2, 3], [], []]}


SPACED = (", ", ": ")  # json.dumps's default: always the full JSON decoder
COMPACT = (",", ":")  # the bench's writer: a compact rankings value is read at C speed
WRITERS = (SPACED, COMPACT)


def write(tmp_path, doc, name="instance.json", separators=SPACED):
    path = tmp_path / name
    path.write_text(json.dumps(doc, separators=separators))
    return str(path)


# ---------------------------------------------------------------------------
# value codec


def test_value_codec():
    assert encode_value(7) == 7
    assert encode_value(Fraction(1, 3)) == "1/3"
    assert decode_value(7, "x") == 7
    assert decode_value("1/3", "x") == Fraction(1, 3)
    assert decode_value("6/2", "x") == 3 and isinstance(decode_value("6/2", "x"), int)
    for bad in (1.5, True, "seven", None):
        with pytest.raises(ParseError):
            decode_value(bad, "x")


def test_a_huge_exponent_is_refused_before_it_is_expanded(monkeypatch):
    # Fraction("1e100000000") would build 10**100000000, minutes of CPU
    def unexpanded(x):
        raise AssertionError(f"Fraction({x!r}) was called")

    monkeypatch.setattr(cli, "Fraction", unexpanded)
    for huge in ("1e100000000", "7e-0004301", "1.5E-100000000", " 2e+4301 ", "1e4_301"):
        with pytest.raises(ParseError, match=r"rho\[0\]\[1\]: exponent past 4300"):
            decode_value(huge, "rho[0][1]")
    monkeypatch.undo()
    assert decode_value("1e3", "x") == 1000 and type(decode_value("1e3", "x")) is int
    assert decode_value("1/3", "x") == Fraction(1, 3)
    assert decode_value("25e-1", "x") == Fraction(5, 2)
    assert decode_value("1e4300", "x") == 10**4300


def test_a_huge_exponent_in_rho_exits_1(tmp_path, capsys):
    doc = {**THREE, "rho": [[0, 1, 2], [1, 0, "1e4301"], [2, 0, 1]]}
    assert main(["validate", write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == "error: rho[1][2]: exponent past 4300 in magnitude: '1e4301'\n"


# ---------------------------------------------------------------------------
# file round-trips


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_sc_line(5, 9, 4),
        lambda: gen_sc_tree(6, 9, 4),
        lambda: gen_sc_grid(7, 3, 4, 4),
        lambda: gen_star_instance(5),
    ],
)
def test_instance_round_trip(tmp_path, make):
    profile, structure = make()
    for separators in WRITERS:
        path = write(tmp_path, instance_to_doc(profile, structure, k=2), separators=separators)
        profile2, structure2, k = load_instance(path)
        assert profile2 == profile
        assert structure2 == structure
        assert k == 2
        assert instance_to_doc(profile2, structure2, k=k) == instance_to_doc(
            profile, structure, k=2
        )


def test_fractional_rho_round_trip(tmp_path):
    doc = dict(THREE)
    doc["rho"] = [[0, "1/2", 1], [1, 0, "3/2"], ["4/2", 0, "1/2"]]
    for separators in WRITERS:
        profile, _, _ = load_instance(write(tmp_path, doc, separators=separators))
        assert profile.rho[0] == (0, Fraction(1, 2), 1)
        assert profile.rho[2] == (2, 0, Fraction(1, 2))


def test_float_rho_rejected(tmp_path):
    doc = dict(THREE)
    doc["rho"] = [[0, 0.5, 1], [1, 0, 2], [2, 0, 1]]
    with pytest.raises(ParseError, match="floats"):
        load_instance(write(tmp_path, doc))


@pytest.mark.parametrize(
    "patch,message",
    [
        ({"rankings": [[1, 2, 3], [2, True, 3], [2, 3, 1]]},
         "rankings[1]: expected an integer in 1..3, got True"),
        ({"rankings": [[1, 2, 3], [2, 1, 3.0], [2, 3, 1]]},
         "rankings[1]: expected an integer in 1..3, got 3.0"),
        ({"rankings": [[1, 2, 3], [2, 1, 4], [2, 3, 1]]},
         "rankings[1]: expected an integer in 1..3, got 4"),
        ({"rankings": [[1, 2, 3], [2, 1], [2, 3, 1]]},
         "rankings[1]: expected a list of 3 candidates"),
        ({"rankings": [[1, 2, 3], [2, 2, 3], [2, 3, 1]]},
         "rankings: ranking of voter 1 is not a permutation of 0..2"),
        ({"rankings": []}, "rankings: profile needs at least one voter"),
        ({"rho": [[0, 1, 2], [1, 0, 2], [2, False, 1]]},
         "rho[2][1]: booleans are not misrepresentation values"),
        ({"rho": [[0, 1, 2], [1, 0.5, 2], [2, 0, 1]]},
         "rho[1][1]: floats are inexact; use an integer or a 'p/q' string"),
        ({"rho": [[0, 1, 2], [1, 0, 2], [2, 0, -1]]},
         "rankings: rho row of voter 2 has a negative entry"),
        ({"rho": [[0, 1, 2], [1, 0, "-1/2"], [2, 0, 1]]},
         "rankings: rho row of voter 1 has a negative entry"),
        ({"rho": [[0, 1, 2], [1, 0], [2, 0, 1]]}, "rho[1]: expected a list of 3 values"),
        ({"rho": [[0, 1, 2], [1, 0, 2]]}, "rho: one row per voter required"),
        ({"structure": {"type": "line", "order": [1, True, 3]}},
         "structure.order[1]: expected an integer in 1..3, got True"),
        ({"structure": {"type": "line", "order": [1, 2.0, 3]}},
         "structure.order[1]: expected an integer in 1..3, got 2.0"),
        ({"structure": {"type": "line", "order": [0, 2, 3]}},
         "structure.order[0]: expected an integer in 1..3, got 0"),
        ({"structure": {"type": "line", "order": [1, 2, 4]}},
         "structure.order[2]: expected an integer in 1..3, got 4"),
        ({"structure": {"type": "line", "order": [1, 2, None]}},
         "structure.order[2]: expected an integer in 1..3, got None"),
        ({"structure": {"type": "line", "order": [1, 2, 2]}},
         "structure.order: order must be a non-empty permutation of the voters"),
        ({"structure": {"type": "line", "order": [1, 2]}},
         "structure.order: expected 3 voters, got 2"),
        ({"structure": {**TREE, "parent": [None, False, 1]}},
         "structure.parent[1]: expected an integer in 1..3, got False"),
        ({"structure": {**TREE, "parent": [None, 1, 4]}},
         "structure.parent[2]: expected an integer in 1..3, got 4"),
        ({"structure": {**TREE, "parent": [None, 1.0, 1]}},
         "structure.parent[1]: expected an integer in 1..3, got 1.0"),
        ({"structure": {**TREE, "parent": [None, None, 1]}},
         "structure: vertex 1 needs a parent inside the tree"),
        ({"structure": {**TREE, "root": 4}}, "structure.root: expected an integer in 1..3, got 4"),
        ({"structure": {**TREE, "root": True}}, "structure.root: expected an integer"),
        ({"structure": {**TREE, "root": 2}},
         "structure: root must be the unique vertex without a parent"),
        ({"structure": {**TREE, "child_order": [[2, 4], [], []]}},
         "structure.child_order[0]: expected an integer in 1..3, got 4"),
        ({"structure": {**TREE, "child_order": [[2, True], [], []]}},
         "structure.child_order[0]: expected an integer in 1..3, got True"),
        ({"structure": {**TREE, "child_order": [[2, 2], [], []]}},
         "structure: child_order of vertex 0 does not match the parent links"),
        ({"structure": {**TREE, "child_order": [[2, 3], []]}},
         "structure: child_order must have one entry per vertex"),
        ({"structure": {**TREE, "child_order": [[2, 3], 5, []]}},
         "structure.child_order[1]: expected a list of child vertices, got 5"),
        ({"structure": {**TREE, "child_order": [[2, 3], "", []]}},
         "structure.child_order[1]: expected a list of child vertices, got ''"),
        ({"structure": {**TREE, "child_order": [[2, 3], [], {}]}},
         "structure.child_order[2]: expected a list of child vertices, got {}"),
        ({"structure": {**TREE, "child_order": ["23", [], []]}},
         "structure.child_order[0]: expected a list of child vertices, got '23'"),
    ],
)
def test_parse_errors_keep_their_messages(tmp_path, patch, message):
    for separators in WRITERS:
        with pytest.raises(ParseError) as info:
            load_instance(write(tmp_path, {**THREE, **patch}, separators=separators))
        assert str(info.value) == message


def test_large_integer_rho_round_trip(tmp_path):
    doc = dict(THREE)
    doc["rho"] = [[0, 1, 2**70], [1, 0, 2**70], [2**70, 0, 1]]
    for separators in WRITERS:
        profile, line, _ = load_instance(write(tmp_path, doc, separators=separators))
        assert profile.rho[0] == (0, 1, 2**70)
        assert instance_to_doc(profile, line)["rho"] == doc["rho"]


# ---------------------------------------------------------------------------
# the compact rankings reader against the full JSON decoder


def outcome(path):
    """What `load_instance` gives: the instance and how rho is stored, or the ParseError text."""
    try:
        profile, structure, k = load_instance(path)
    except ParseError as exc:
        return str(exc)
    return profile, structure, k, profile.scaled.dtype, profile.scaled is profile.pos


def compact_outcome(tmp_path, monkeypatch, text):
    """`load_instance`'s outcome on the compact ``text``, checked against the full JSON decoder.

    The same text through the decoder alone must give the same profile,
    structure and k or the same ParseError text, and so must the document
    written again with spaces when it is valid JSON.
    """
    path = tmp_path / "instance.json"
    path.write_text(text, encoding="utf-8")
    got = outcome(str(path))
    with monkeypatch.context() as patched:
        patched.setattr(cli, "_compact_instance", lambda text: None)
        assert outcome(str(path)) == got
    try:
        spaced = json.dumps(json.loads(text), separators=SPACED)
    except ValueError:  # invalid JSON: only the decoder's own reading compares
        return got
    assert cli._compact_instance(spaced) is None
    path.write_text(spaced, encoding="utf-8")
    assert outcome(str(path)) == got
    return got


def test_compact_instances_equal_the_json_route(tmp_path, monkeypatch):
    rng = random.Random(20)
    for trial in range(330):
        seed = rng.randrange(10**6)
        if trial % 3 == 0:
            made = gen_sc_line(seed, rng.randint(1, 40), rng.randint(1, 12))
        elif trial % 3 == 1:
            made = gen_sc_tree(seed, rng.randint(1, 40), rng.randint(1, 12))
        else:
            made = gen_sc_grid(seed, rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 12))
        profile, structure = made
        if trial % 2:  # an explicit rho, nondecreasing along each ranking
            steps = np.random.default_rng(seed).integers(0, 3, profile.rank.shape)
            rho = np.empty_like(steps)
            np.put_along_axis(rho, profile.rank, np.cumsum(steps, axis=1), axis=1)
            rows = rho.tolist()
            if trial % 4 == 3:  # "p/q" values
                rows = [[Fraction(x, 3) for x in row] for row in rows]
            profile = PreferenceProfile.from_rankings(profile.rank, rows)
        text = json.dumps(instance_to_doc(profile, structure, k=3), separators=COMPACT)
        assert cli._compact_instance(text) is not None
        assert compact_outcome(tmp_path, monkeypatch, text)[:3] == (profile, structure, 3)


@pytest.mark.parametrize(
    "rankings",
    [
        "[[1,2,3],[],[2,3,1]]",
        "[[],[2,1,3],[2,3,1]]",
        "[[1,2,3],[2,1,3],[]]",
        "[[]]",
        "[[1,2,3],[2,0,3],[2,3,1]]",
        "[[0,2,3],[2,1,3],[2,3,1]]",
        "[[1,2,3],[2,01,3],[2,3,1]]",
        "[[01,2,3],[2,1,3],[2,3,1]]",
        "[[1,2,3],[2,1,-1],[2,3,1]]",
        "[[1,2,3],[2,true,3],[2,3,1]]",
        "[[1,2,3],[2,1,3.0],[2,3,1]]",
        "[[1,2,3],[2,1,1e0],[2,3,1]]",
        "[[1,2,3],[2,1,12345678901234567890],[2,3,1]]",
        "[[1,2,3],[2,1," + "7" * 5000 + "],[2,3,1]]",
        "[[1,2,3],[2,1,,3],[2,3,1]]",
        "[[1,2,3],[,2,1,3],[2,3,1]]",
        "[[1,2,3],[2,1,3,],[2,3,1]]",
        "[[1,2,3],[2,1],[2,3,1]]",
        "[[1,2,3],[2,2,3],[2,3,1]]",
        "[[1,2,3],[2,1,4],[2,3,1]]",
        "[[1,2]]]",
        "[[1,2,3],[2,1,3]]",
        "[]",
    ],
    ids=lambda rankings: rankings if len(rankings) <= 40 else rankings[:20] + "...",
)
def test_compact_rankings_errors_equal_the_json_route(tmp_path, monkeypatch, rankings):
    text = json.dumps({**THREE, "rankings": "@"}, separators=COMPACT).replace('"@"', rankings)
    assert isinstance(compact_outcome(tmp_path, monkeypatch, text), str)


@pytest.mark.parametrize(
    "text",
    [
        # "rankings" inside another object only
        '{"m":2,"structure":{"type":"line","order":[1],"rankings":[[1,2]]}}',
        # a nested "rankings" next to the top-level one
        '{"m":2,"rankings":[[1,2]],"structure":{"type":"line","order":[1],"rankings":[[2,1]]}}',
        # a duplicate key: json keeps the last value
        '{"m":2,"rankings":[[1,2]],"structure":{"type":"line","order":[1]},"rankings":[[2,1]]}',
        '{"m":2,"rankings":[[1,2]],"structure":{"type":"line","order":[1]},"rankings":[[2,1,3]]}',
        # a later duplicate overrides the compact value
        '{"m":2,"rankings":[[1,2]],"structure":{"type":"line","order":[1]},"rankings":0}',
        # the escaped key spells "rankings" too
        '{"m":2,"rankings":[[1,2]],"structure":{"type":"line","order":[1]},"rank\\u0069ngs":0}',
        '{"m":2,"rank\\u0069ngs":[[2,1]],"structure":{"type":"line","order":[1]}}',
        '{"m":2,"rankings":[[1,2]],"structure":{"type":"line","order":[1]},"rank\\u0069ngs":[[2,1]]}',
        # "rankings" as a string value
        '{"m":2,"rankings":[[1,2]],"structure":{"type":"line","order":[1],"note":"rankings"}}',
        '{"m":2,"rankings":[[1,2]],"structure":{"type":"line","order":[1]}} [',
        '[{"m":2,"rankings":[[1,2]],"structure":{"type":"line","order":[1]}}]',
        '{"m":true,"rankings":[[1]],"structure":{"type":"line","order":[1]}}',
        '{"m":1.0,"rankings":[[1]],"structure":{"type":"line","order":[1]}}',
        '{"m":3,"rankings":[[1]],"structure":{"type":"line","order":[1]}}',
        '{"rankings":[[1]],"structure":{"type":"line","order":[1]}}',
        '{"m":1,"rankings":[[1]],"structure":{"type":"line","order":[1]},"k":0}',
        '{"m":1,"rankings":[[1]],"structure":{"type":"line","order":[1]},"k":1}',
    ],
)
def test_compact_documents_equal_the_json_route(tmp_path, monkeypatch, text):
    compact_outcome(tmp_path, monkeypatch, text)


@pytest.mark.parametrize(
    "rho,fast",
    [
        ([[0, 1, 2], [1, 0, 2], [2, 0, 1]], True),
        ([[0, 5, 9], [4, 0, 4], [7, 0, 3]], True),
        ([[0, 1, 2], [1, 0, 2], [2, 3, 1]], True),  # inconsistent: solve refuses it, load does not
        ([[0, 1, 2], [1, 0, 2], [2, 0, -1]], True),
        ([[0, 1, 2], [1, 0, 2]], True),
        ([[0, "1/2", 1], [1, 0, "3/2"], ["4/2", 0, "1/2"]], False),
        ([[0, "1/2", 1], [1, 0], ["4/2", 0, "1/2"]], False),
        ([[0, 1, 2**70], [1, 0, 2**70], [2**70, 0, 1]], False),
    ],
)
def test_compact_rho_equals_the_json_route(tmp_path, monkeypatch, rho, fast):
    text = json.dumps({**THREE, "rho": rho}, separators=COMPACT)
    got = compact_outcome(tmp_path, monkeypatch, text)
    decoded = []
    with monkeypatch.context() as patched:
        # a rho the arrays do not settle sends the whole text to the decoder
        patched.setattr(cli.json, "loads", lambda s, _loads=json.loads: decoded.append(s) or _loads(s))
        assert outcome(write(tmp_path, {**THREE, "rho": rho}, separators=COMPACT)) == got
    assert (text in decoded) is not fast


@pytest.mark.parametrize(
    "rankings,error,column",
    [
        # an empty field, which np.loadtxt refuses inside _compact_instance
        ("[[1,2,3],[2,1,,3],[2,3,1]]", "Expecting value", 96),
        ("[[1,,2,3],[2,1,3],[2,3,1]]", "Expecting value", 86),
        ("[[1,2,3],[,2,1,3],[2,3,1]]", "Expecting value", 92),
        ("[[,1,2,3],[2,1,3],[2,3,1]]", "Expecting value", 84),
        ("[[1,2,3],[2,1,3,],[2,3,1]]", "Expecting value", 98),
        ("[[1,2,3],[2,1,3],[2,3,1,]]", "Expecting value", 106),
        ("[[1,2],[2,1,3],[2,3,1,]]", "Expecting value", 104),
        ("[[1,2,3],[2,1,3],[,]]", "Expecting value", 100),
        ("[[,]]", "Expecting value", 84),
        ("[[1,]]", "Expecting value", 86),
        # a leading zero, which np.loadtxt would read
        ("[[1,2,3],[01,2,3],[2,3,1]]", "Expecting ',' delimiter", 93),
        ("[[1,2,3],[2,01,3],[2,3,1]]", "Expecting ',' delimiter", 95),
        ("[[01,2,3],[2,1,3],[2,3,1]]", "Expecting ',' delimiter", 85),
        ("[[1,2,3],[2,1,3],[2,3,01]]", "Expecting ',' delimiter", 105),
    ],
)
def test_malformed_compact_rankings_get_the_json_error(tmp_path, rankings, error, column):
    """`_compact_instance` declines the text, and the full decoder's message names the spot."""
    text = json.dumps({**THREE, "rankings": "@"}, separators=COMPACT).replace('"@"', rankings)
    assert cli._compact_instance(text) is None
    path = tmp_path / "instance.json"
    path.write_text(text, encoding="utf-8")
    expected = f"{path}: invalid JSON ({error}: line 1 column {column} (char {column - 1}))"
    with pytest.raises(ParseError) as caught:
        load_instance(str(path))
    assert str(caught.value) == expected


@pytest.mark.parametrize(
    "text,reason",
    [
        ("[" * 100_000, "maximum recursion depth exceeded"),
        ('{"m": ' + "1" * 5000 + "}", "Exceeds the limit (4300 digits)"),
    ],
    ids=["deep-nesting", "long-integer"],
)
def test_json_the_decoder_refuses_exits_1(tmp_path, capsys, text, reason):
    path = tmp_path / "instance.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: invalid JSON (") and reason in err
    assert err.count("\n") == 1
    with pytest.raises(ParseError):
        load_instance(str(path))


def test_parse_diagnostics_name_the_field(tmp_path):
    doc = dict(THREE)
    doc["rankings"] = [[1, 2, 3], [2, 1], [2, 3, 1]]
    with pytest.raises(ParseError, match=r"rankings\[1\]"):
        load_instance(write(tmp_path, doc))
    with pytest.raises(ParseError, match="missing field"):
        load_instance(write(tmp_path, {"m": 2, "rankings": [[1, 2]]}))


# ---------------------------------------------------------------------------
# validate


def test_validate_ok(tmp_path, capsys):
    assert main(["validate", write(tmp_path, THREE)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_reports_double_crossing(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "structure": {"type": "line", "order": [1, 2, 3]},
        "m": 2,
        "rankings": [[1, 2], [2, 1], [1, 2]],
    }
    assert main(["validate", write(tmp_path, doc)]) == 1
    out = capsys.readouterr().out
    assert "not single-crossing" in out and "(1, 2)" in out


def test_validate_star_instance(tmp_path):
    profile, tree = gen_star_instance(5)
    assert main(["validate", write(tmp_path, instance_to_doc(profile, tree))]) == 0


# ---------------------------------------------------------------------------
# solve


def test_solve_three_voter_line(tmp_path, capsys):
    path = write(tmp_path, THREE)
    assert main(["solve", path, "--k", "1", "--algorithm", "line-dp"]) == 0
    out = capsys.readouterr().out
    assert "total_cost=1" in out and "committee=[2]" in out
    assert main(["solve", path, "--k", "1", "--algorithm", "oracle"]) == 0
    assert "total_cost=1" in capsys.readouterr().out


def test_solve_result_file_is_recheckable(tmp_path):
    profile, line = gen_sc_line(11, 12, 5)
    path = write(tmp_path, instance_to_doc(profile, line))
    out = str(tmp_path / "result.json")
    assert main(["solve", path, "--k", "3", "--out", out]) == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["k_used"] == len(set(doc["assignment"])) <= 3
    rep = Assignment(tuple(c - 1 for c in doc["assignment"]))
    assert cost(profile, rep, Objective.UTILITARIAN) == doc["total_cost"]
    assert cost(profile, rep, Objective.EGALITARIAN) == doc["egal_cost"]
    assert sorted(set(doc["assignment"])) == doc["committee"]


def test_solve_k_from_file(tmp_path, capsys):
    doc = dict(THREE)
    doc["k"] = 2
    assert main(["solve", write(tmp_path, doc)]) == 0
    assert "total_cost=0" in capsys.readouterr().out
    assert main(["solve", write(tmp_path, THREE)]) == 2  # no k anywhere


def test_solve_grid_singletons(tmp_path, capsys):
    profile, grid = gen_sc_grid(13, 2, 2, 4)
    path = write(tmp_path, instance_to_doc(profile, grid))
    assert main(["solve", path, "--k", "4", "--algorithm", "grid-laminar"]) == 0
    assert "total_cost=0" in capsys.readouterr().out


def test_solve_grid_result_embeds_the_tiling(tmp_path):
    profile, grid = gen_sc_grid(14, 3, 3, 5)
    path = write(tmp_path, instance_to_doc(profile, grid))
    out = str(tmp_path / "result.json")
    assert main(["solve", path, "--k", "3", "--out", out]) == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["algorithm"] == "grid-laminar"
    rects = doc["stats"]["tiling"]
    assert sum((r[1] - r[0] + 1) * (r[3] - r[2] + 1) for r in rects) == 9
    assert all(1 <= b <= 3 for r in rects for b in r)  # 1-based bounds


def sevenths(m):
    return lambda rng: [Fraction(rng.randint(0, 20), 7) for _ in range(m)]


def result_docs():
    """Result documents of each structure's solver, as ``solve --out`` writes them."""
    line_profile, line = gen_sc_line(21, 30, 5)
    tree_profile, tree = gen_sc_tree(22, 25, 5)
    grid_profile, grid = gen_sc_grid(23, 3, 4, 5)
    rng = random.Random(24)
    fractional = with_rho(line_profile, rng, sevenths(line_profile.m))
    cases = [
        (line_profile, line, "auto", Objective.UTILITARIAN, 3),
        (fractional, line, "line-klink", Objective.UTILITARIAN, 2),
        (fractional, line, "line-klink", Objective.EGALITARIAN, 2),
        (tree_profile, tree, "auto", Objective.UTILITARIAN, 3),
        (tree_profile, tree, "auto", Objective.EGALITARIAN, 3),
        (grid_profile, grid, "auto", Objective.UTILITARIAN, 3),
    ]
    for profile, structure, algorithm, objective, k in cases:
        result = cli._dispatch(profile, structure, algorithm, objective, k)
        yield cli.result_to_doc(result, k, objective)


EDGE_DOC = {
    "empty": {"list": [], "dict": {}, "nested": [[], {}, [[]]]},
    "tiling": [[1, 2, 1, 3], [3, 3, 1, 3]],
    "tuples": ((1, 2), (None, True, False)),
    "strings": ["a,b", "quote \" and \\ backslash", "tab\tline\nend", "caf\u00e9 \u2603", ""],
    "scalars": [None, True, False, 0, -7, 2**80, 0.1, 1e-07, 1e300, -0.0],
    "ratios": ["1/3", "-22/7"],
    "mixed": [1, "two", [3], {"four": 4}],
    "deep": {"a": {"b": {"c": [1, {"d": []}]}}},
}


def test_result_writer_matches_the_json_module_byte_for_byte():
    docs = list(result_docs())
    assert {doc["algorithm"] for doc in docs} >= {"line-dp", "tree-dp", "grid-laminar"}
    assert any("tiling" in doc["stats"] for doc in docs)
    assert any(isinstance(doc["total_cost"], str) for doc in docs)  # a "p/q" cost
    line_profile, line = gen_sc_line(25, 12, 4)
    tree_profile, tree = gen_sc_tree(26, 9, 4)
    rational = with_rho(line_profile, random.Random(27), sevenths(line_profile.m))
    docs += [
        instance_to_doc(line_profile, line, k=3),
        instance_to_doc(tree_profile, tree),
        instance_to_doc(rational, line, k=2),
        EDGE_DOC,
        {},
    ]
    for doc in docs:
        assert cli._indented_json(doc) == json.dumps(doc, indent=2)


def test_egalitarian_klink_hands_over_to_threshold(tmp_path, capsys):
    profile, line = gen_sc_line(15, 10, 4)
    path = write(tmp_path, instance_to_doc(profile, line))
    code = main(
        ["solve", path, "--k", "2", "--algorithm", "line-klink", "--objective", "egalitarian"]
    )
    assert code == 0
    assert "line-egal-threshold" in capsys.readouterr().out


def test_klink_solves_fractional_rho(tmp_path, capsys):
    doc = dict(THREE)
    doc["rho"] = [[0, "1/2", 1], [1, 0, 2], [2, 0, 1]]
    path = write(tmp_path, doc)
    assert main(["solve", path, "--k", "1", "--algorithm", "line-klink"]) == 0
    klink = capsys.readouterr().out
    assert main(["solve", path, "--k", "1", "--algorithm", "line-dp"]) == 0
    dp = capsys.readouterr().out
    assert "total_cost=1/2" in klink
    assert klink.split(":", 1)[1] == dp.split(":", 1)[1]


def test_fractional_threshold_result_file(tmp_path):
    doc = dict(THREE)
    doc["rho"] = [[0, "1/2", 1], [1, 0, 2], [2, 0, "1/2"]]
    out = tmp_path / "r.json"
    argv = ["solve", write(tmp_path, doc), "--k", "1", "--algorithm", "line-klink",
            "--objective", "egalitarian", "--out", str(out)]
    assert main(argv) == 0
    result = json.loads(out.read_text())
    assert result["egal_cost"] == "1/2"
    assert result["stats"]["threshold"] == "1/2"
    assert result["stats"]["dp_calls"] >= 1


def test_solver_detected_crossing_exits_1(tmp_path, monkeypatch, capsys):
    # a structure check that lets a mislabeled line through leaves the
    # k-link solver to notice; its typed error is an input error, not usage
    monkeypatch.setattr(cli, "check_structure", lambda profile, structure: None)
    doc = dict(THREE)
    doc["rankings"] = [[1, 2], [2, 1], [1, 2]]
    doc["m"] = 2
    assert main(["solve", write(tmp_path, doc), "--k", "2", "--algorithm", "line-klink"]) == 1
    assert "not concave Monge" in capsys.readouterr().err


def test_solve_reports_a_non_list_child_order_row(tmp_path, capsys):
    doc = {**THREE, "structure": {**TREE, "child_order": [[2, 3], 5, []]}}
    assert main(["solve", write(tmp_path, doc), "--k", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: structure.child_order[1]: expected a list of child vertices, got 5\n"
    )


def test_solve_usage_errors(tmp_path):
    path = write(tmp_path, THREE)
    assert main(["solve", path, "--k", "0"]) == 2  # InvalidK
    assert main(["solve", path, "--k", "1", "--algorithm", "tree-dp"]) == 2  # mismatch
    assert main(["solve", path, "--k", "1", "--algorithm", "bogus"]) == 2  # argparse
    profile, grid = gen_sc_grid(16, 2, 2, 3)
    gpath = write(tmp_path, instance_to_doc(profile, grid), "grid.json")
    assert main(["solve", gpath, "--k", "2", "--objective", "egalitarian"]) == 2


def test_repeated_main_calls_keep_exit_codes_and_output(tmp_path, capsys, monkeypatch):
    """One parser serves every call: help, usage errors and subcommands repeat exactly."""
    path = write(tmp_path, THREE)
    fresh_help = cli.build_parser().format_help()
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    calls = [
        ["--help"],
        ["solve", "--help"],
        ["solve", path, "--k", "1", "--algorithm", "line-dp"],
        ["solve", path, "--k", "one"],
        ["frobnicate"],
        ["validate", path],
        ["bench", "--suite", "tree", "--points", "1"],
        ["solve", path, "--k", "0"],
        [],
    ]

    def run(order):
        got = {}
        for i in order:
            code = main(calls[i])
            out, err = capsys.readouterr()
            got[i] = (code, out, err)
        return got

    first = run(range(len(calls)))
    assert [first[i][0] for i in range(len(calls))] == [0, 0, 0, 2, 2, 0, 2, 2, 2]
    assert first[0][1] == fresh_help
    assert "invalid int value: 'one'" in first[3][2] and "expected an integer >= 2" in first[6][2]
    assert run(reversed(range(len(calls)))) == first
    assert run(range(len(calls))) == first
    assert len(built) <= 1  # built at most once, by the first call in the process


def test_solve_refuses_non_single_crossing(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "structure": {"type": "line", "order": [1, 2, 3]},
        "m": 2,
        "rankings": [[1, 2], [2, 1], [1, 2]],
    }
    assert main(["solve", write(tmp_path, doc), "--k", "1"]) == 1
    assert "single-crossing" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# line routes run on the merged instance


def with_rho(profile, rng, draw):
    """The profile with each rho row drawn by `draw(rng)`, sorted along the ranking: consistent."""
    rho = []
    for ranking in profile.rankings:
        values = sorted(draw(rng))
        row = [0] * profile.m
        for p, c in enumerate(ranking):
            row[c] = values[p]
        rho.append(row)
    return PreferenceProfile(profile.rankings, rho)


def tie_heavy_rho(seed, m):
    """Zero, Borda, step or rational rho, chosen by seed, as a `with_rho` draw."""
    return [
        lambda r: [0] * m,
        lambda r: range(m),
        lambda r: [r.choice((0, 0, 1, 3)) for _ in range(m)],
        lambda r: [Fraction(r.randint(0, 12), r.choice((1, 2, 3))) for _ in range(m)],
    ][seed % 4]


def tie_heavy_line(seed):
    """A short-word line (long runs of identical voters) with zero, Borda, step or rational rho."""
    rng = random.Random(seed)
    n, m, k = rng.randint(1, 30), rng.randint(1, 7), rng.randint(1, 9)
    shuffle = rng.random() < 0.5
    profile, line = gen_sc_line(seed, n, m, max_swaps=rng.randint(0, 4), shuffle_voters=shuffle)
    return with_rho(profile, rng, tie_heavy_rho(seed, m)), line, k


def tie_heavy_tree(seed):
    """A tree with at most two swaps per edge (many identical voters); k >= n takes the tops."""
    rng = random.Random(seed)
    n, m, k = rng.randint(1, 25), rng.randint(1, 7), rng.randint(1, 9)
    profile, tree = gen_sc_tree(seed, n, m, max_edge_swaps=rng.randint(0, 2))
    return with_rho(profile, rng, tie_heavy_rho(seed, m)), tree, k


def line_routes(profile, line, k):
    """(algorithm, objective, the unmerged solver's result) for every line route of _dispatch."""
    egal = Objective.EGALITARIAN
    return [
        ("line-dp", Objective.UTILITARIAN, solve_line_dp(profile, line, k)),
        ("line-dp", egal, solve_line_dp(profile, line, k, egal)),
        ("line-klink", Objective.UTILITARIAN, solve_line_klink(profile, line, k)),
        ("line-klink", egal, solve_line_egal_threshold(profile, line, k)),
    ]


def test_merged_line_routes_return_the_unmerged_answers():
    for seed in range(1000):
        profile, line, k = tie_heavy_line(seed)
        for algorithm, objective, want in line_routes(profile, line, k):
            got = cli._dispatch(profile, line, algorithm, objective, k)
            where = (seed, algorithm, objective)
            assert got.assignment == want.assignment, where
            assert (got.total_cost, got.egal_cost, got.k_used) == (
                want.total_cost, want.egal_cost, want.k_used), where
            assert got.algorithm == want.algorithm
            for key in ("l_star", "lambda", "links", "threshold", "lower_bound"):
                assert got.stats.get(key) == want.stats.get(key), (where, key)
            assert got.stats["compressed_n"] <= profile.n
            if "dp_calls" in want.stats:
                assert got.stats["dp_calls"] == want.stats["dp_calls"] == 2, where


def test_line_and_tree_routes_return_canonical_assignments():
    """Each line and tree answer is canonical for its committee, merged routes included."""
    for seed in range(300):
        profile, line, k = tie_heavy_line(seed)
        for algorithm, objective, direct in line_routes(profile, line, k):
            merged = cli._dispatch(profile, line, algorithm, objective, k)
            where = (seed, algorithm, objective)
            for got in (direct, merged):
                assert canonicalize(profile, got.assignment) == got.assignment, where
        profile, tree, k = tie_heavy_tree(seed)
        for objective in Objective:
            got = cli._dispatch(profile, tree, "tree-dp", objective, k)
            assert canonicalize(profile, got.assignment) == got.assignment, (seed, objective)


def test_merged_line_routes_on_rational_rho_match_the_oracle():
    for seed in range(40):
        rng = random.Random(seed)
        n, m, k = rng.randint(2, 9), rng.randint(2, 5), rng.randint(1, 3)
        profile, line = gen_sc_line(seed, n, m, max_swaps=3, shuffle_voters=seed % 2 == 0)
        profile = with_rho(profile, rng, lambda r: [Fraction(r.randint(0, 20), r.choice((3, 7, 11)))
                                                    for _ in range(m)])
        best = {o: brute_force(profile, k, o) for o in Objective}
        for algorithm, objective, _ in line_routes(profile, line, k):
            got = cli._dispatch(profile, line, algorithm, objective, k)
            key = "egal_cost" if objective is Objective.EGALITARIAN else "total_cost"
            assert getattr(got, key) == getattr(best[objective], key), (seed, algorithm, objective)
            assert got.k_used <= k


@pytest.mark.parametrize("shift", [60, 70])
def test_merged_line_routes_stay_exact_past_int64(shift):
    # 16 identical neighbours: at 2**60 each row fits int64, their sum does not
    runs = ((0, 1, 2, 3),) * 16 + ((1, 0, 2, 3),) * 17 + ((1, 2, 0, 3),) * 3
    borda = PreferenceProfile.from_rankings(runs)
    profile = PreferenceProfile(runs, [[x << shift for x in row] for row in borda.rho])
    line = Line(tuple(range(len(runs))))
    for k in (1, 2):
        for algorithm, objective, want in line_routes(profile, line, k):
            got = cli._dispatch(profile, line, algorithm, objective, k)
            assert got.assignment == want.assignment, (k, algorithm, objective)
            assert type(got.total_cost) is int and got.total_cost == want.total_cost
            assert got.egal_cost == want.egal_cost
            assert got.stats["compressed_n"] == 3


@pytest.mark.parametrize(
    "rankings, compressed",
    [
        ([[2, 1, 3]], 1),
        ([[2, 1, 3]] * 4, 1),
        ([[1, 2, 3], [2, 1, 3], [2, 3, 1]], 3),
        ([[1, 2, 3], [1, 2, 3], [2, 1, 3], [2, 1, 3], [2, 3, 1]], 3),
    ],
)
def test_result_file_reports_the_merged_voter_count(tmp_path, rankings, compressed):
    structure = {"type": "line", "order": list(range(1, len(rankings) + 1))}
    path = write(tmp_path, dict(THREE, rankings=rankings, structure=structure))
    out = tmp_path / "r.json"
    for algorithm in ("line-dp", "line-klink"):
        assert main(["solve", path, "--k", "1", "--algorithm", algorithm, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["stats"]["compressed_n"] == compressed
    assert main(["solve", path, "--k", "1", "--algorithm", "oracle", "--out", str(out)]) == 0
    assert "compressed_n" not in json.loads(out.read_text())["stats"]


def test_klink_result_file_carries_the_lower_bound(tmp_path):
    doc = dict(THREE)
    doc["rho"] = [[0, "2/3", 1], ["1/7", 0, "5/3"], [2, 0, "1/3"]]
    out = tmp_path / "r.json"
    argv = ["solve", write(tmp_path, doc), "--k", "1", "--algorithm", "line-klink"]
    assert main(argv + ["--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["total_cost"] == "2/3"
    assert result["stats"]["lambda"] == "2/3"  # a positive penalty: the bound is total - lambda * k
    assert result["stats"]["lower_bound"] == result["total_cost"]


# ---------------------------------------------------------------------------
# generate


def test_generate_is_deterministic(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    argv = ["generate", "--structure", "tree", "--seed", "9", "--n", "12", "--m", "4"]
    assert main(argv + ["--out", a]) == 0
    assert main(argv + ["--out", b]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_generated_files_validate(tmp_path):
    for structure, extra in [
        ("line", ["--n", "7", "--m", "3"]),
        ("tree", ["--n", "7", "--m", "3"]),
        ("grid", ["--n1", "2", "--n2", "3", "--m", "3"]),
        ("star", ["--n", "5"]),
    ]:
        out = str(tmp_path / f"{structure}.json")
        assert main(["generate", "--structure", structure, "--seed", "2", *extra, "--out", out]) == 0
        assert main(["validate", out]) == 0


def test_generate_star_matches_the_fixed_family(tmp_path):
    out = str(tmp_path / "star.json")
    assert main(["generate", "--structure", "star", "--n", "5", "--out", out]) == 0
    doc = json.loads((tmp_path / "star.json").read_text())
    assert doc["rankings"][0] == [1, 2, 3, 4, 5]
    assert doc["rankings"][3] == [4, 1, 2, 3, 5]
    assert doc["structure"]["parent"] == [None, 1, 1, 1, 1]


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--structure", "line"],
        ["solve", "INSTANCE", "--k", "2"],
        ["bench", "--suite", "tree", "--points", "2", "--base-n", "3", "--base-m", "2",
         "--base-k", "1"],
        ["check", "--mode", "conjecture", "--instances", "1", "--n1-max", "1", "--n2-max", "1",
         "--k-max", "1"],
    ],
    ids=["generate", "solve", "bench", "conjecture"],
)
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_paths_exit_1(tmp_path, capsys, argv, target):
    instance = write(tmp_path, THREE)
    out = tmp_path / "missing" / "out.json" if target == "missing-dir" else tmp_path
    before = sorted(tmp_path.rglob("*"))
    argv = [instance if a == "INSTANCE" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: [Errno ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before  # nothing written


@pytest.mark.parametrize(
    "argv, sweep",
    [
        (["bench", "--suite", "line", "--points", "2"], "_sweep"),
        (["check", "--mode", "conjecture", "--instances", "3"], "_conjecture_worker"),
    ],
    ids=["bench", "conjecture"],
)
def test_unwritable_out_fails_before_the_sweep(tmp_path, capsys, monkeypatch, argv, sweep):
    def never(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr(cli, sweep, never)
    out = tmp_path / "missing" / "report"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {out}: [Errno 2] ")
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier report\n")
    with pytest.raises(AssertionError, match="the sweep ran"):
        main(argv + ["--out", str(kept)])  # a writable path passes the check untouched
    assert kept.read_text() == "earlier report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python writes ints of any length"
)
def test_values_past_the_digit_limit_are_output_errors(tmp_path, capsys):
    """A cost Python will not turn into text exits 1 naming the field, not with a traceback."""
    doc = {**THREE, "structure": {"type": "line", "order": [1, 2]}, "m": 2,
           "rankings": [[1, 2], [2, 1]], "rho": [[0, "1e4300"], ["1e4300", 0]]}
    instance, out = write(tmp_path, doc), tmp_path / "result.json"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # 10^4300 has one digit more
    try:
        assert main(["solve", instance, "--k", "1", "--out", str(out)]) == 1
        err = capsys.readouterr()
        assert err.out == "" and err.err.startswith("error: total_cost: ")
        assert err.err.count("\n") == 1 and not out.exists()
        profile, line, _ = load_instance(instance)
        with pytest.raises(OutputError, match="^rho: "):
            instance_to_doc(profile, line)
        with pytest.raises(OutputError, match="^total_cost: "):
            encode_value(Fraction(10**4300, 3), "total_cost")
        assert main(["solve", instance, "--k", "2"]) == 0  # both voters on their tops
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# check


def test_check_monge_single_instance(tmp_path, capsys):
    profile, line = gen_sc_line(21, 9, 4)
    path = write(tmp_path, instance_to_doc(profile, line))
    assert main(["check", "--mode", "monge", path]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    assert main(["check", "--mode", "monge", "--instances", "40"]) == 0


def test_check_monge_needs_a_line(tmp_path):
    profile, tree = gen_sc_tree(3, 5, 3)
    assert main(["check", "--mode", "monge", write(tmp_path, instance_to_doc(profile, tree))]) == 2


def test_conjecture_sweep_refuses_an_instance_path(tmp_path, capsys):
    for path in (str(tmp_path / "missing.json"), write(tmp_path, THREE)):
        assert main(["check", "--mode", "conjecture", "--instances", "1", path]) == 2
        out = capsys.readouterr()
        assert out.out == ""  # refused before any sweep ran
        assert out.err.count("\n") == 1 and "takes no instance file" in out.err


def test_check_conjecture_sweep_writes_sorted_csv(tmp_path, capsys):
    out = str(tmp_path / "sweep.csv")
    argv = [
        "check", "--mode", "conjecture", "--instances", "8",
        "--n1-max", "3", "--n2-max", "3", "--k-max", "4",
        "--seed", "5", "--out", out, "--jobs", "2",
    ]
    assert main(argv) == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "seed,n1,n2,k,m,holds,gap"
    seeds = [int(r.split(",")[0]) for r in rows[1:]]
    assert seeds == sorted(seeds) and len(seeds) == 8
    assert all(r.split(",")[5] == "True" for r in rows[1:])


def test_conjecture_pool_has_no_more_workers_than_instances(monkeypatch, capsys):
    created = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in this process."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    argv = ["check", "--mode", "conjecture", "--n1-max", "2", "--n2-max", "2", "--k-max", "2"]
    assert main(argv + ["--instances", "3", "--jobs", "64"]) == 0
    assert main(argv + ["--instances", "5", "--jobs", "2"]) == 0
    assert created == [3, 2]
    assert "conjecture sweep: 3 instances, 0 counterexamples" in capsys.readouterr().out


def test_conjecture_worker_solves_only_for_a_counterexample(monkeypatch):
    solves = []
    solve = cli.solve_grid_laminar
    monkeypatch.setattr(cli, "solve_grid_laminar", lambda *a: solves.append(1) or solve(*a))
    task = (5, 2, 3, 2, 4, None)
    assert cli._conjecture_worker(task)[5:] == (True, 0, None)
    assert solves == []  # the conjecture check solves the laminar DP itself
    # a made-up counterexample, the whole grid on candidate 0, takes the gap branch
    whole = Tiling((Rect(0, 1, 0, 2),), (0,))
    monkeypatch.setattr(cli, "check_laminar_conjecture", lambda *a, **kw: whole)
    seed, n1, n2, k, m, holds, gap, witness = cli._conjecture_worker(task)
    assert not holds and solves == [1]
    assert witness == {"rects": [[1, 2, 1, 3]], "reps": [1]}
    assert gap <= 0  # one rectangle on candidate 0 never beats the laminar optimum


def test_budget_exceeded_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("CC_BUDGET", "1")
    argv = [
        "check", "--mode", "conjecture", "--instances", "8",
        "--n1-max", "3", "--n2-max", "3", "--k-max", "4", "--seed", "1",
    ]
    assert main(argv) == 3


# ---------------------------------------------------------------------------
# bench


def test_bench_report(tmp_path, capsys):
    out = str(tmp_path / "bench.json")
    argv = ["bench", "--suite", "tree", "--points", "2", "--base-n", "60", "--out", out]
    assert main(argv) == 0
    doc = json.loads((tmp_path / "bench.json").read_text())
    assert set(doc["sweeps"]) == {"n", "m", "k"}
    for sweep in doc["sweeps"].values():
        assert len(sweep["points"]) == 2
        assert "slope_states" in sweep and "slope_time" in sweep


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--suite", "line", "--points", "1"],
        ["bench", "--suite", "line", "--base-n", "0"],
        ["bench", "--suite", "line", "--base-m", "0"],
        ["bench", "--suite", "line", "--base-k", "0"],
        ["check", "--mode", "monge", "--n-max", "2"],
        ["check", "--mode", "monge", "--m-max", "1"],
        ["check", "--mode", "conjecture", "--n1-max", "0"],
        ["check", "--mode", "conjecture", "--n2-max", "0"],
        ["check", "--mode", "conjecture", "--k-max", "0"],
        ["check", "--mode", "conjecture", "--m-max", "1"],
        ["check", "--mode", "conjecture", "--instances", "0"],
        ["check", "--mode", "conjecture", "--instances", "-2"],
        ["check", "--mode", "conjecture", "--jobs", "0"],
        ["check", "--mode", "monge", "--instances", "0"],
        ["check", "--mode", "monge", "--jobs", "-1"],
    ],
)
def test_sweep_bounds_below_their_range_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    assert "expected an integer >=" in capsys.readouterr().err


def test_tree_bench_with_k_reaching_n_is_a_usage_error(capsys):
    # the k sweep's last point, 1 * 2^1, meets n = 2, where the tree DP counts no states
    argv = ["bench", "--suite", "tree", "--points", "2", "--base-n", "2", "--base-k", "1"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert "base-k * 2^(points-1) < base-n" in out.err
    assert out.out == ""  # refused before any sweep ran
    assert main(["bench", "--suite", "tree", "--points", "2", "--base-n", "3", "--base-m", "2",
                 "--base-k", "1"]) == 0


# ---------------------------------------------------------------------------
# the installed entry point


def test_subprocess_entry(tmp_path):
    profile, line = gen_sc_line(31, 6, 3)
    path = write(tmp_path, instance_to_doc(profile, line))
    proc = subprocess.run(
        [sys.executable, "-m", "ccwinner.cli", "solve", path, "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "total_cost=" in proc.stdout
