"""Golden answers of ``ccwinner solve --out`` on every route.

Each entry of ``GOLDEN`` is the committee, the assignment, ``total_cost`` and
``egal_cost`` of one result file, written as ``committee|assignment|total|egal``
(1-based, comma-separated). The instances are seeded ``gen_sc_line``,
``gen_sc_tree`` and ``gen_sc_grid`` profiles with Borda rho or a tie-heavy
step rho, solved by every ``--algorithm`` route under each objective it
offers. The table pins every tie-break: a change that returns another
optimal committee or assignment fails here.
"""

import json
import random

import pytest

from ccwinner.cli import instance_to_doc, main
from ccwinner.core import PreferenceProfile
from ccwinner.generators import gen_sc_grid, gen_sc_line, gen_sc_tree

K = 2
ROUTES = {
    "line": ("auto", "line-dp", "line-klink", "oracle"),
    "tree": ("auto", "tree-dp", "oracle"),
    "grid": ("auto", "grid-laminar", "grid-bicriterial", "oracle"),
}


def instance(structure, seed, draw):
    if structure == "line":
        profile, shape = gen_sc_line(seed, 16, 5, max_swaps=10, even_spacing=True)
    elif structure == "tree":
        profile, shape = gen_sc_tree(seed, 14, 6, max_edge_swaps=5)
    else:
        profile, shape = gen_sc_grid(seed, 3, 4, 6, mode="rejection", edits=30)
    if draw == "step":  # tie-heavy rho, nondecreasing along each ranking
        rng = random.Random(seed)
        rho = []
        for ranking in profile.rankings:
            values = sorted(rng.choice((0, 0, 1, 3)) for _ in ranking)
            row = [0] * profile.m
            for p, c in enumerate(ranking):
                row[c] = values[p]
            rho.append(row)
        profile = PreferenceProfile(profile.rankings, rho)
    return profile, shape


def cases():
    for structure, routes in ROUTES.items():
        for seed in range(3):
            for draw in ("borda", "step"):
                for algorithm in routes:
                    # the grid routes refuse the egalitarian objective; the oracle takes both
                    both = structure != "grid" or algorithm == "oracle"
                    for objective in ("utilitarian", "egalitarian") if both else ("utilitarian",):
                        yield f"{structure} {seed} {draw} {algorithm} {objective}"


def solve_case(tmp_path, case):
    structure, seed, draw, algorithm, objective = case.split()
    profile, shape = instance(structure, int(seed), draw)
    path = tmp_path / "instance.json"
    out = tmp_path / "result.json"
    path.write_text(json.dumps(instance_to_doc(profile, shape, k=K)))
    argv = ["solve", str(path), "--algorithm", algorithm, "--objective", objective]
    assert main(argv + ["--out", str(out)]) == 0, case
    doc = json.loads(out.read_text())
    return "|".join(
        (
            ",".join(map(str, doc["committee"])),
            ",".join(map(str, doc["assignment"])),
            str(doc["total_cost"]),
            str(doc["egal_cost"]),
        )
    )


GOLDEN = {
    "line 0 borda auto utilitarian": "1,3|1,1,1,1,3,3,3,3,3,3,3,3,3,3,3,3|4|2",
    "line 0 borda auto egalitarian": "1,5|1,1,1,1,1,1,1,1,1,5,5,5,5,5,5,5|9|1",
    "line 0 borda line-dp utilitarian": "1,3|1,1,1,1,3,3,3,3,3,3,3,3,3,3,3,3|4|2",
    "line 0 borda line-dp egalitarian": "1,5|1,1,1,1,1,1,1,1,1,5,5,5,5,5,5,5|9|1",
    "line 0 borda line-klink utilitarian": "1,3|1,1,1,1,3,3,3,3,3,3,3,3,3,3,3,3|4|2",
    "line 0 borda line-klink egalitarian": "1,5|1,1,1,1,1,1,1,1,1,5,5,5,5,5,5,5|9|1",
    "line 0 borda oracle utilitarian": "1,3|1,1,1,1,3,3,3,3,3,3,3,3,3,3,3,3|4|2",
    "line 0 borda oracle egalitarian": "1,5|1,1,1,1,1,1,1,1,1,5,5,5,5,5,5,5|9|1",
    "line 0 step auto utilitarian": "1,5|1,1,1,1,1,1,1,1,1,5,5,5,5,5,5,5|1|1",
    "line 0 step auto egalitarian": "1,5|1,1,1,1,1,1,1,1,1,5,5,5,5,5,5,5|1|1",
    "line 0 step line-dp utilitarian": "1,5|1,1,1,1,1,1,1,1,1,5,5,5,5,5,5,5|1|1",
    "line 0 step line-dp egalitarian": "1,5|1,1,1,1,1,1,1,1,1,5,5,5,5,5,5,5|1|1",
    "line 0 step line-klink utilitarian": "1,3|1,1,1,1,3,3,3,3,3,3,3,3,3,3,3,3|1|1",
    "line 0 step line-klink egalitarian": "1,3|1,1,1,1,3,3,3,3,3,3,3,3,3,3,3,3|1|1",
    "line 0 step oracle utilitarian": "1,3|1,1,1,1,3,1,1,1,1,3,3,3,3,3,3,3|1|1",
    "line 0 step oracle egalitarian": "1,3|1,1,1,1,3,1,1,1,1,3,3,3,3,3,3,3|1|1",
    "line 1 borda auto utilitarian": "1,3|1,1,1,1,3,3,3,3,3,3,3,3,3,3,3,3|4|2",
    "line 1 borda auto egalitarian": "1,5|1,1,1,1,1,1,1,5,5,5,5,5,5,5,5,5|9|1",
    "line 1 borda line-dp utilitarian": "1,3|1,1,1,1,3,3,3,3,3,3,3,3,3,3,3,3|4|2",
    "line 1 borda line-dp egalitarian": "1,5|1,1,1,1,1,1,1,5,5,5,5,5,5,5,5,5|9|1",
    "line 1 borda line-klink utilitarian": "1,3|1,1,1,1,3,3,3,3,3,3,3,3,3,3,3,3|4|2",
    "line 1 borda line-klink egalitarian": "1,5|1,1,1,1,1,1,1,5,5,5,5,5,5,5,5,5|9|1",
    "line 1 borda oracle utilitarian": "1,3|1,1,1,1,3,3,3,3,3,3,3,3,3,3,3,3|4|2",
    "line 1 borda oracle egalitarian": "1,5|1,1,1,1,1,1,1,5,5,5,5,5,5,5,5,5|9|1",
    "line 1 step auto utilitarian": "3,5|3,3,3,3,3,3,3,3,3,3,3,3,3,5,5,5|0|0",
    "line 1 step auto egalitarian": "3,5|3,3,3,3,3,3,3,3,3,3,3,3,3,5,5,5|0|0",
    "line 1 step line-dp utilitarian": "3,5|3,3,3,3,3,3,3,3,3,3,3,3,3,5,5,5|0|0",
    "line 1 step line-dp egalitarian": "3,5|3,3,3,3,3,3,3,3,3,3,3,3,3,5,5,5|0|0",
    "line 1 step line-klink utilitarian": "3,5|3,3,3,3,3,3,3,3,3,3,3,3,3,5,5,5|0|0",
    "line 1 step line-klink egalitarian": "3,5|3,3,3,3,3,3,3,3,3,3,3,3,3,5,5,5|0|0",
    "line 1 step oracle utilitarian": "3,5|3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,5|0|0",
    "line 1 step oracle egalitarian": "3,5|3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,5|0|0",
    "line 2 borda auto utilitarian": "2,3|2,2,2,2,3,3,3,3,3,3,3,3,3,3,3,3|6|2",
    "line 2 borda auto egalitarian": "2,5|2,2,2,2,2,2,2,2,2,2,5,5,5,5,5,5|9|1",
    "line 2 borda line-dp utilitarian": "2,3|2,2,2,2,3,3,3,3,3,3,3,3,3,3,3,3|6|2",
    "line 2 borda line-dp egalitarian": "2,5|2,2,2,2,2,2,2,2,2,2,5,5,5,5,5,5|9|1",
    "line 2 borda line-klink utilitarian": "2,3|2,2,2,2,3,3,3,3,3,3,3,3,3,3,3,3|6|2",
    "line 2 borda line-klink egalitarian": "2,5|2,2,2,2,2,2,2,2,2,2,5,5,5,5,5,5|9|1",
    "line 2 borda oracle utilitarian": "2,3|2,2,2,2,3,3,3,3,3,3,3,3,3,3,3,3|6|2",
    "line 2 borda oracle egalitarian": "2,5|2,2,2,2,2,2,2,2,2,2,5,5,5,5,5,5|9|1",
    "line 2 step auto utilitarian": "1,3|1,1,1,3,3,3,3,3,3,3,3,3,3,3,3,3|3|1",
    "line 2 step auto egalitarian": "2|2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2|8|1",
    "line 2 step line-dp utilitarian": "1,3|1,1,1,3,3,3,3,3,3,3,3,3,3,3,3,3|3|1",
    "line 2 step line-dp egalitarian": "2|2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2|8|1",
    "line 2 step line-klink utilitarian": "1,3|1,1,1,3,3,3,3,3,3,3,3,3,3,3,3,3|3|1",
    "line 2 step line-klink egalitarian": "2|2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2|8|1",
    "line 2 step oracle utilitarian": "1,3|1,1,1,3,1,1,3,3,3,3,3,3,3,3,3,3|3|1",
    "line 2 step oracle egalitarian": "2|2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2|8|1",
    "tree 0 borda auto utilitarian": "2,4|2,2,4,2,4,4,2,2,4,2,4,2,2,4|5|2",
    "tree 0 borda auto egalitarian": "1,6|1,1,1,1,1,6,1,1,1,1,6,1,1,1|10|1",
    "tree 0 borda tree-dp utilitarian": "2,4|2,2,4,2,4,4,2,2,4,2,4,2,2,4|5|2",
    "tree 0 borda tree-dp egalitarian": "1,6|1,1,1,1,1,6,1,1,1,1,6,1,1,1|10|1",
    "tree 0 borda oracle utilitarian": "2,4|2,2,4,2,4,4,2,2,4,2,4,2,2,4|5|2",
    "tree 0 borda oracle egalitarian": "1,6|1,1,1,1,1,6,1,1,1,1,6,1,1,1|10|1",
    "tree 0 step auto utilitarian": "1,4|1,1,1,1,4,4,1,1,4,1,4,1,1,4|0|0",
    "tree 0 step auto egalitarian": "1,4|1,1,1,1,4,4,1,1,4,1,4,1,1,4|0|0",
    "tree 0 step tree-dp utilitarian": "1,4|1,1,1,1,4,4,1,1,4,1,4,1,1,4|0|0",
    "tree 0 step tree-dp egalitarian": "1,4|1,1,1,1,4,4,1,1,4,1,4,1,1,4|0|0",
    "tree 0 step oracle utilitarian": "1,4|1,1,1,1,1,4,1,1,1,1,4,1,1,4|0|0",
    "tree 0 step oracle egalitarian": "1,4|1,1,1,1,1,4,1,1,1,1,4,1,1,4|0|0",
    "tree 1 borda auto utilitarian": "1,2|1,2,1,2,1,2,2,2,2,2,2,2,1,2|2|1",
    "tree 1 borda auto egalitarian": "1,6|1,1,1,1,1,1,1,1,1,1,6,1,1,1|10|1",
    "tree 1 borda tree-dp utilitarian": "1,2|1,2,1,2,1,2,2,2,2,2,2,2,1,2|2|1",
    "tree 1 borda tree-dp egalitarian": "1,6|1,1,1,1,1,1,1,1,1,1,6,1,1,1|10|1",
    "tree 1 borda oracle utilitarian": "1,2|1,2,1,2,1,2,2,2,2,2,2,2,1,2|2|1",
    "tree 1 borda oracle egalitarian": "1,2|1,2,1,2,1,2,2,2,2,2,2,2,1,2|2|1",
    "tree 1 step auto utilitarian": "1|1,1,1,1,1,1,1,1,1,1,1,1,1,1|0|0",
    "tree 1 step auto egalitarian": "1|1,1,1,1,1,1,1,1,1,1,1,1,1,1|0|0",
    "tree 1 step tree-dp utilitarian": "1|1,1,1,1,1,1,1,1,1,1,1,1,1,1|0|0",
    "tree 1 step tree-dp egalitarian": "1|1,1,1,1,1,1,1,1,1,1,1,1,1,1|0|0",
    "tree 1 step oracle utilitarian": "1|1,1,1,1,1,1,1,1,1,1,1,1,1,1|0|0",
    "tree 1 step oracle egalitarian": "1|1,1,1,1,1,1,1,1,1,1,1,1,1,1|0|0",
    "tree 2 borda auto utilitarian": "1,5|1,1,1,1,5,1,1,1,5,5,5,1,5,1|4|2",
    "tree 2 borda auto egalitarian": "1,2|1,1,1,2,1,1,1,1,1,1,1,2,1,1|5|1",
    "tree 2 borda tree-dp utilitarian": "1,5|1,1,1,1,5,1,1,1,5,5,5,1,5,1|4|2",
    "tree 2 borda tree-dp egalitarian": "1,2|1,1,1,2,1,1,1,1,1,1,1,2,1,1|5|1",
    "tree 2 borda oracle utilitarian": "1,5|1,1,1,1,5,1,1,1,5,5,5,1,5,1|4|2",
    "tree 2 borda oracle egalitarian": "1,2|1,1,1,2,1,1,1,1,1,1,1,2,1,1|5|1",
    "tree 2 step auto utilitarian": "1,5|1,1,1,1,5,1,1,1,5,5,5,1,5,1|1|1",
    "tree 2 step auto egalitarian": "1|1,1,1,1,1,1,1,1,1,1,1,1,1,1|3|1",
    "tree 2 step tree-dp utilitarian": "1,5|1,1,1,1,5,1,1,1,5,5,5,1,5,1|1|1",
    "tree 2 step tree-dp egalitarian": "1|1,1,1,1,1,1,1,1,1,1,1,1,1,1|3|1",
    "tree 2 step oracle utilitarian": "1,5|1,1,1,1,1,1,1,1,5,5,1,1,1,1|1|1",
    "tree 2 step oracle egalitarian": "1|1,1,1,1,1,1,1,1,1,1,1,1,1,1|3|1",
    "grid 0 borda auto utilitarian": "1,6|1,1,1,1,6,6,6,6,6,6,6,6|4|1",
    "grid 0 borda grid-laminar utilitarian": "1,6|1,1,1,1,6,6,6,6,6,6,6,6|4|1",
    "grid 0 borda grid-bicriterial utilitarian": "1,2,6|1,1,1,1,2,2,2,2,6,6,6,6|0|0",
    "grid 0 borda oracle utilitarian": "1,6|1,1,1,1,6,6,6,6,6,6,6,6|4|1",
    "grid 0 borda oracle egalitarian": "1,6|1,1,1,1,6,6,6,6,6,6,6,6|4|1",
    "grid 0 step auto utilitarian": "1,6|1,1,1,1,6,6,6,6,6,6,6,6|0|0",
    "grid 0 step grid-laminar utilitarian": "1,6|1,1,1,1,6,6,6,6,6,6,6,6|0|0",
    "grid 0 step grid-bicriterial utilitarian": "1,6|1,1,1,1,6,6,6,6,6,6,6,6|0|0",
    "grid 0 step oracle utilitarian": "1,6|1,1,1,1,6,6,1,6,6,6,6,6|0|0",
    "grid 0 step oracle egalitarian": "1,6|1,1,1,1,6,6,1,6,6,6,6,6|0|0",
    "grid 1 borda auto utilitarian": "1,5|1,5,5,5,1,5,5,5,1,5,5,5|0|0",
    "grid 1 borda grid-laminar utilitarian": "1,5|1,5,5,5,1,5,5,5,1,5,5,5|0|0",
    "grid 1 borda grid-bicriterial utilitarian": "1,5|1,5,5,5,1,5,5,5,1,5,5,5|0|0",
    "grid 1 borda oracle utilitarian": "1,5|1,5,5,5,1,5,5,5,1,5,5,5|0|0",
    "grid 1 borda oracle egalitarian": "1,5|1,5,5,5,1,5,5,5,1,5,5,5|0|0",
    "grid 1 step auto utilitarian": "1,3|1,3,3,3,1,3,3,3,1,3,3,3|0|0",
    "grid 1 step grid-laminar utilitarian": "1,3|1,3,3,3,1,3,3,3,1,3,3,3|0|0",
    "grid 1 step grid-bicriterial utilitarian": "1,3|1,3,3,3,1,3,3,3,1,3,3,3|0|0",
    "grid 1 step oracle utilitarian": "1,3|1,3,3,1,1,3,3,3,1,3,3,3|0|0",
    "grid 1 step oracle egalitarian": "1,3|1,3,3,1,1,3,3,3,1,3,3,3|0|0",
    "grid 2 borda auto utilitarian": "3,6|3,3,3,3,3,3,3,3,6,6,6,6|4|1",
    "grid 2 borda grid-laminar utilitarian": "3,6|3,3,3,3,3,3,3,3,6,6,6,6|4|1",
    "grid 2 borda grid-bicriterial utilitarian": "2,3,6|3,3,3,3,2,2,2,2,6,6,6,6|0|0",
    "grid 2 borda oracle utilitarian": "3,6|3,3,3,3,3,3,3,3,6,6,6,6|4|1",
    "grid 2 borda oracle egalitarian": "3,5|3,3,3,3,3,3,3,3,5,5,5,5|8|1",
    "grid 2 step auto utilitarian": "2,6|2,2,2,2,2,2,2,2,6,6,6,6|2|1",
    "grid 2 step grid-laminar utilitarian": "2,6|2,2,2,2,2,2,2,2,6,6,6,6|2|1",
    "grid 2 step grid-bicriterial utilitarian": "1,2,6|1,1,1,1,2,2,2,2,6,6,6,2|0|0",
    "grid 2 step oracle utilitarian": "2,6|2,2,2,2,2,2,2,2,6,6,6,2|2|1",
    "grid 2 step oracle egalitarian": "2|2,2,2,2,2,2,2,2,2,2,2,2|5|1",
}


@pytest.mark.parametrize("structure", sorted(ROUTES))
def test_every_route_returns_its_golden_answer(tmp_path, capsys, structure):
    got = {case: solve_case(tmp_path, case) for case in cases() if case.split()[0] == structure}
    want = {case: answer for case, answer in GOLDEN.items() if case.split()[0] == structure}
    capsys.readouterr()  # the summary lines: the result files are what is compared
    assert got == want
