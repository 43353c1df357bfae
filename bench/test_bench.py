"""Tests of the benchmark's generators, references and output checker."""

import copy
import dataclasses
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from checker import Checker, read_result, reference_optimum  # noqa: E402
from workloads import WORKLOADS, assert_non_degenerate, generate, write_instance  # noqa: E402

from ccwinner import cli  # noqa: E402
from ccwinner.validation import check_consistency, check_structure  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_generator_is_single_crossing_and_non_degenerate(name, seed, tmp_path):
    inst = generate(WORKLOADS[name], seed)
    path = str(tmp_path / "instance.json")
    write_instance(inst, path)
    profile, structure, _ = cli.load_instance(path)
    assert profile.rankings == tuple(map(tuple, inst.rankings.tolist()))
    assert check_consistency(profile) is None
    assert check_structure(profile, structure) is None
    assert_non_degenerate(inst)
    assert reference_optimum(inst) > 0


def test_generator_is_deterministic():
    for w in WORKLOADS.values():
        assert generate(w, 3).doc == generate(w, 3).doc
        assert generate(w, 3).doc != generate(w, 4).doc


# Small variants keep the solves quick; the checker does not depend on size.
SMALL = {
    "line-bulk": dataclasses.replace(WORKLOADS["line-bulk"], n=600),
    "line-egal": dataclasses.replace(WORKLOADS["line-egal"], n=600),
    "tree": dataclasses.replace(WORKLOADS["tree"], n=600),
    "grid": WORKLOADS["grid"],
}


@pytest.fixture(scope="module", params=sorted(SMALL))
def solved(request, tmp_path_factory):
    w = SMALL[request.param]
    inst = generate(w, 5)
    path = str(tmp_path_factory.mktemp(w.name) / "instance.json")
    write_instance(inst, path)
    out = path + ".result.json"
    with redirect_stdout(io.StringIO()):
        assert cli.main(w.cli_args(path, out)) == 0
    doc = read_result(out)
    checker = Checker(inst, reference_optimum(inst))
    assert checker.problems(doc) == []
    assert doc["k_used"] == w.k
    return checker, doc


def tags(problems):
    return {p.split(":")[0] for p in problems}


def test_rejects_cost_off_by_one(solved):
    checker, doc = solved
    bad = copy.deepcopy(doc)
    bad["total_cost"] += 1
    assert "cost" in tags(checker.problems(bad))


def test_rejects_non_optimal_reference(solved):
    checker, doc = solved
    other = Checker(checker.inst, checker.reference - 1)
    assert "optimum" in tags(other.problems(doc))


def test_rejects_k_used_above_k(solved):
    checker, doc = solved
    bad = copy.deepcopy(doc)
    spare = next(c for c in range(1, checker.pos.shape[1] + 1) if c not in bad["committee"])
    bad["committee"] = sorted(bad["committee"] + [spare])
    bad["k_used"] += 1
    assert {"k_used", "committee"} <= tags(checker.problems(bad))


def _voter_with_worse_member(checker, doc):
    """A voter and a committee member they rank below their assigned one."""
    members = np.array(doc["committee"]) - 1
    rep = np.array(doc["assignment"]) - 1
    for v in range(len(rep)):
        worse = [c for c in members if checker.pos[v, c] > checker.pos[v, rep[v]]]
        if worse:
            return v, int(worse[0])
    raise AssertionError("every voter is on their worst member")


def test_rejects_non_canonical_representative(solved):
    checker, doc = solved
    bad = copy.deepcopy(doc)
    v, c = _voter_with_worse_member(checker, doc)
    bad["assignment"][v] = c + 1
    found = tags(checker.problems(bad))
    if checker.inst.workload.structure == "grid":
        assert "fiber" in found
    else:
        assert "canonical" in found


def test_rejects_split_fiber(solved):
    checker, doc = solved
    inst = checker.inst
    rep = np.array(doc["assignment"]) - 1
    bad = copy.deepcopy(doc)
    if inst.workload.structure == "line":
        along = rep[inst.order]
        # two voters from different blocks, each block at least two long, swap members
        first = next(p for p in range(len(along) - 1) if along[p] == along[p + 1])
        second = next(p for p in range(len(along) - 1, 0, -1) if along[p] == along[p - 1])
        assert along[first] != along[second]
        a, b = inst.order[first], inst.order[second]
        bad["assignment"][a], bad["assignment"][b] = bad["assignment"][b], bad["assignment"][a]
        assert "fiber" in tags(checker.problems(bad))
    elif inst.workload.structure == "tree":
        # hand a leaf to a member serving a different, non-adjacent part of the tree
        parent = inst.parent
        inner = set(parent.tolist())
        leaf = next(v for v in range(len(rep)) if v not in inner)
        far = next(c for c in set(rep.tolist()) if c != rep[leaf] and c != rep[parent[leaf]])
        bad["assignment"][leaf] = far + 1
        assert "fiber" in tags(checker.problems(bad))
    else:
        rects = bad["stats"]["tiling"]
        i0, i1, j0, j1 = rects[0]
        rects[0] = [i0, i1, j0, j1 - 1] if j1 > j0 else [i0, i1 - 1, j0, j1]
        assert "tiling" in tags(checker.problems(bad))


def test_workload_records_match_the_code():
    here = Path(__file__).resolve().parent
    records = json.loads((here / "workloads.json").read_text())["workloads"]
    listed = [w["name"] for w in json.loads((here.parent / "BENCHMARK.json").read_text())["workloads"]]
    assert sorted(records) == sorted(listed) == sorted(WORKLOADS)
    for name, record in records.items():
        fields = dataclasses.asdict(WORKLOADS[name])
        assert {key: fields[key] for key in record["parameters"]} == record["parameters"]
