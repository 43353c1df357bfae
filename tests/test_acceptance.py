"""Acceptance suite: one test per criterion, exact tolerances stated inline.

Each test prints a single "criterion NN: PASS/FAIL" line (visible in verbose
or captured-on-failure output) and asserts it, so `pytest -v` yields one
pass/fail line per criterion.
"""

import json
import random
import time

import numpy as np

from ccwinner.core import Grid, Line, Objective, canonicalize, cost
from ccwinner.generators import gen_sc_grid, gen_sc_line, gen_sc_tree, gen_star_instance
from ccwinner.grid_solver import (
    check_laminar_conjecture,
    enumerate_tilings,
    solve_grid_bicriterial,
    solve_grid_laminar,
)
from ccwinner.line_solver import (
    build_prefix_sums,
    check_concave_monge,
    solve_line_dp,
    solve_line_egal_threshold,
    solve_line_klink,
)
from ccwinner.oracle import brute_force, brute_force_tiling
from ccwinner.tree_solver import solve_tree_dp, subtree_sizes
from ccwinner.validation import check_sc_tree
from ccwinner.core import RootedTree


def report(num: int, ok: bool, detail: str):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def slope(xs, ys) -> float:
    return float(np.polyfit(np.log2(np.array(xs, float)), np.log2(np.array(ys, float)), 1)[0])


def test_criterion_01_line_oracle_equivalence():
    # >= 500 instances, n <= 8, m <= 6, k <= 4; exact equality; < 1 min
    started = time.perf_counter()
    rng = random.Random(101)
    checked = 0
    for trial in range(500):
        n, m, k = rng.randint(1, 8), rng.randint(1, 6), rng.randint(1, 4)
        profile, line = gen_sc_line(100_000 + trial, n, m)
        got = solve_line_dp(profile, line, k).total_cost
        want = brute_force(profile, k).total_cost
        assert got == want, (trial, n, m, k)
        checked += 1
    elapsed = time.perf_counter() - started
    report(1, checked == 500 and elapsed < 60, f"{checked} instances equal the oracle in {elapsed:.1f}s")


def test_criterion_02_klink_matches_dp():
    # >= 500 instances, n <= 40, m <= 8, k <= 6, integer rho; exact equality
    rng = random.Random(102)
    checked = 0
    for trial in range(500):
        n, m, k = rng.randint(1, 40), rng.randint(1, 8), rng.randint(1, 6)
        profile, line = gen_sc_line(200_000 + trial, n, m)
        a = solve_line_klink(profile, line, k).total_cost
        b = solve_line_dp(profile, line, k).total_cost
        assert a == b, (trial, n, m, k)
        checked += 1
    report(2, checked == 500, f"{checked} instances: k-link total equals the DP total")


def test_criterion_03_concave_monge():
    # 0 violations over >= 1000 generated instances, n <= 12, all (i, j) pairs
    rng = random.Random(103)
    violations = 0
    for trial in range(1000):
        n, m = rng.randint(3, 12), rng.randint(2, 6)
        profile, line = gen_sc_line(300_000 + trial, n, m)
        if check_concave_monge(build_prefix_sums(profile, line)) is not None:
            violations += 1
    report(3, violations == 0, f"1000 instances, {violations} Monge violations")


def test_criterion_04_tree_oracle_equivalence():
    # >= 500 random trees, both objectives, n <= 8, m <= 6, k <= 4;
    # path trees additionally agree with the line DP
    rng = random.Random(104)
    checked = 0
    for trial in range(500):
        n, m, k = rng.randint(1, 8), rng.randint(1, 6), rng.randint(1, 4)
        profile, tree = gen_sc_tree(400_000 + trial, n, m)
        for objective in Objective:
            key = "total_cost" if objective is Objective.UTILITARIAN else "egal_cost"
            got = getattr(solve_tree_dp(profile, tree, k, objective), key)
            want = getattr(brute_force(profile, k, objective), key)
            assert got == want, (trial, n, m, k, objective)
        checked += 1
    paths = 0
    for trial in range(150):
        n, m, k = rng.randint(2, 10), rng.randint(2, 6), rng.randint(1, 4)
        profile, line = gen_sc_line(450_000 + trial, n, m)
        tree = RootedTree.from_parent((None,) + tuple(range(n - 1)), 0)
        for objective in Objective:
            key = "total_cost" if objective is Objective.UTILITARIAN else "egal_cost"
            on_tree = getattr(solve_tree_dp(profile, tree, k, objective), key)
            on_line = getattr(solve_line_dp(profile, line, k, objective), key)
            assert on_tree == on_line, (trial, n, m, k, objective)
        paths += 1
    report(4, checked == 500 and paths == 150, f"{checked} trees match the oracle, {paths} paths match the line DP")


def test_criterion_05_subtree_pair_identity():
    # sum over (v, child i) of |T_child| * |T_{v,i+1}| == C(n, 2), 1000 trees
    rng = random.Random(105)
    checked = 0
    for trial in range(1000):
        n = rng.randint(2, 60)
        _, tree = gen_sc_tree(500_000 + trial, n, 2)
        size, partial = subtree_sizes(tree)
        pairs = sum(
            size[u] * partial[v][i + 1]
            for v in range(n)
            for i, u in enumerate(tree.child_order[v])
        )
        assert pairs == n * (n - 1) // 2, trial
        checked += 1
    report(5, checked == 1000, f"{checked} trees satisfy the pair-counting identity exactly")


def test_criterion_06_laminar_conjecture_sweep(tmp_path):
    # >= 300 instances, n1 <= 4, n2 <= 5, k <= 5: counterexamples fail the
    # suite in the proved regime k <= 4 and only warn at k = 5, persisted
    rng = random.Random(106)
    cells = [(rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 5)) for _ in range(300)]
    cells += [(4, 5, 5)] * 12  # pin the extreme corner of the tested range
    cache = {}
    failures, warnings = [], []
    for trial, (n1, n2, k) in enumerate(cells):
        seed = 600_000 + trial
        profile, grid = gen_sc_grid(seed, n1, n2, rng.randint(2, 5))
        if (n1, n2) not in cache:
            cache[(n1, n2)] = list(enumerate_tilings(Grid(n1, n2), 5))
        usable = [t for t in cache[(n1, n2)] if len(t.rects) <= k]
        counterexample = check_laminar_conjecture(profile, grid, k, tilings=usable)
        if counterexample is not None:
            record = {
                "seed": seed, "n1": n1, "n2": n2, "k": k,
                "rects": [[r.i0, r.i1, r.j0, r.j1] for r in counterexample.rects],
                "reps": list(counterexample.reps),
            }
            path = tmp_path / f"conjecture-counterexample-seed{seed}.json"
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=2)
            (failures if k <= 4 else warnings).append(path)
    for path in warnings:
        print(f"criterion 06: WARNING - conjectured-regime (k=5) counterexample persisted at {path}")
    report(6, not failures, f"{len(cells)} instances, {len(failures)} proved-regime counterexamples, {len(warnings)} k=5 warnings")


def test_criterion_07_bicriterial_sandwich():
    # laminar(k^2) <= exhaustive optimal k-tiling <= laminar(k), exact
    rng = random.Random(107)
    checked = 0
    for trial in range(120):
        n1, n2, k = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3)
        profile, grid = gen_sc_grid(700_000 + trial, n1, n2, rng.randint(2, 5))
        lo = solve_grid_bicriterial(profile, grid, k).total_cost
        mid = brute_force_tiling(profile, grid, k).total_cost
        hi = solve_grid_laminar(profile, grid, k)[0].total_cost
        assert lo <= mid <= hi, (trial, n1, n2, k)
        checked += 1
    report(7, checked == 120, f"{checked} instances satisfy laminar(k^2) <= exhaustive(k) <= laminar(k)")


def test_criterion_08_monotonicity_and_degenerate_cases():
    rng = random.Random(108)
    # nonincreasing in k and Borda cost 0 at k >= min(m, n), all structures
    for trial in range(40):
        n, m = rng.randint(2, 12), rng.randint(2, 6)
        profile, line = gen_sc_line(800_000 + trial, n, m)
        costs = [solve_line_dp(profile, line, k).total_cost for k in range(1, min(m, n) + 1)]
        assert all(a >= b for a, b in zip(costs, costs[1:])), trial
        assert costs[-1] == 0, trial
    for trial in range(40):
        n, m = rng.randint(2, 12), rng.randint(2, 6)
        profile, tree = gen_sc_tree(810_000 + trial, n, m)
        costs = [solve_tree_dp(profile, tree, k).total_cost for k in range(1, min(m, n) + 1)]
        assert all(a >= b for a, b in zip(costs, costs[1:])), trial
        assert costs[-1] == 0, trial
    for trial in range(20):
        n1, n2, m = rng.randint(2, 3), rng.randint(2, 4), rng.randint(2, 6)
        profile, grid = gen_sc_grid(820_000 + trial, n1, n2, m)
        costs = [
            solve_grid_laminar(profile, grid, k)[0].total_cost
            for k in range(1, min(m, n1 * n2) + 1)
        ]
        assert all(a >= b for a, b in zip(costs, costs[1:])), trial
        # a full tiling by singletons needs n1*n2 rectangles, not min(m, n);
        # cost 0 at k >= min(m, n) is a committee fact, so check the oracle
        assert brute_force(profile, min(m, n1 * n2)).total_cost == 0, trial

    # canonical structure: contiguous blocks on lines
    for trial in range(40):
        n, m, k = rng.randint(2, 14), rng.randint(2, 6), rng.randint(1, 4)
        profile, line = gen_sc_line(830_000 + trial, n, m)
        rep = solve_line_dp(profile, line, k).assignment.rep
        along = [rep[v] for v in line.order]
        for c in set(along):
            hits = [t for t, x in enumerate(along) if x == c]
            assert hits == list(range(hits[0], hits[-1] + 1)), (trial, c)
    # connected fibers on trees
    for trial in range(40):
        n, m, k = rng.randint(2, 14), rng.randint(2, 6), rng.randint(1, 4)
        profile, tree = gen_sc_tree(840_000 + trial, n, m)
        rep = solve_tree_dp(profile, tree, k).assignment.rep
        for c in set(rep):
            fiber = {v for v in range(n) if rep[v] == c}
            inner = sum(1 for v in fiber if tree.parent[v] is not None and tree.parent[v] in fiber)
            assert inner == len(fiber) - 1, (trial, c)
    # box fibers on grids, via canonicalized oracle outputs
    for trial in range(30):
        n1, n2, m, k = rng.randint(2, 3), rng.randint(2, 4), rng.randint(2, 5), rng.randint(1, 4)
        profile, grid = gen_sc_grid(850_000 + trial, n1, n2, m)
        rep = canonicalize(profile, brute_force(profile, k).assignment).rep
        for c in set(rep):
            fiber = [grid.coords(v) for v in range(grid.n) if rep[v] == c]
            rows = [i for i, _ in fiber]
            cols = [j for _, j in fiber]
            assert (max(rows) - min(rows) + 1) * (max(cols) - min(cols) + 1) == len(fiber)
    report(8, True, "monotone in k, zero cost at k >= min(m, n), canonical fibers structured")


def test_criterion_09_egalitarian_reduction():
    # threshold search == egalitarian DP == egalitarian oracle, >= 300 instances
    rng = random.Random(109)
    checked = 0
    for trial in range(300):
        n, m, k = rng.randint(2, 12), rng.randint(2, 6), rng.randint(1, 4)
        profile, line = gen_sc_line(900_000 + trial, n, m)
        a = solve_line_egal_threshold(profile, line, k).egal_cost
        b = solve_line_dp(profile, line, k, Objective.EGALITARIAN).egal_cost
        c = brute_force(profile, k, Objective.EGALITARIAN).egal_cost
        assert a == b == c, (trial, n, m, k)
        checked += 1
    report(9, checked == 300, f"{checked} instances: threshold = max-DP = oracle")


def test_criterion_10_complexity_shape():
    # log-log slope of the state counters within 1.0 +/- 0.25 per parameter
    def line_states(n, m, k):
        profile, line = gen_sc_line(42, n, m)
        return solve_line_dp(profile, line, k).stats["states"]

    def tree_states(n, m, k):
        profile, tree = gen_sc_tree(42, n, m)
        return solve_tree_dp(profile, tree, k).stats["states"]

    slopes = {}
    xs = [2000 * 2**i for i in range(4)]
    slopes["line n"] = slope(xs, [line_states(x, 6, 3) for x in xs])
    xs = [4 * 2**i for i in range(4)]
    slopes["line m"] = slope(xs, [line_states(3000, x, 3) for x in xs])
    xs = [2 * 2**i for i in range(4)]
    slopes["line k"] = slope(xs, [line_states(3000, 6, x) for x in xs])
    xs = [800 * 2**i for i in range(4)]
    slopes["tree n"] = slope(xs, [tree_states(x, 6, 3) for x in xs])
    xs = [4 * 2**i for i in range(4)]
    slopes["tree m"] = slope(xs, [tree_states(1500, x, 3) for x in xs])
    xs = [2 * 2**i for i in range(4)]
    slopes["tree k"] = slope(xs, [tree_states(1500, 6, x) for x in xs])
    shape_ok = all(0.75 <= s <= 1.25 for s in slopes.values())

    # desk-scale wall targets
    profile, line = gen_sc_line(7, 100_000, 50)
    t0 = time.perf_counter()
    solve_line_dp(profile, line, 10)
    dp_big = time.perf_counter() - t0

    profile, line = gen_sc_line(7, 100_000, 20)
    t0 = time.perf_counter()
    solve_line_dp(profile, line, 1000)
    dp_wide = time.perf_counter() - t0
    t0 = time.perf_counter()
    solve_line_klink(profile, line, 1000)
    klink_wide = time.perf_counter() - t0

    detail = (
        ", ".join(f"{name} {s:.2f}" for name, s in slopes.items())
        + f"; dp(1e5,50,10)={dp_big:.1f}s, dp(1e5,20,1000)={dp_wide:.1f}s vs klink {klink_wide:.1f}s"
    )
    report(10, shape_ok and dp_big <= 10.0 and klink_wide < dp_wide, detail)


def test_criterion_11_star_family():
    profile, tree = gen_star_instance(5)
    expected = (
        (0, 1, 2, 3, 4),
        (1, 0, 2, 3, 4),
        (2, 0, 1, 3, 4),
        (3, 0, 1, 2, 4),
        (4, 0, 1, 2, 3),
    )
    ok = profile.rankings == expected and check_sc_tree(profile, tree) is None
    report(11, ok, "n=5 star rankings match the fixed family and are single-crossing on the star")
