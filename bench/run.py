"""ccwinner benchmark: seeded ``ccwinner solve`` workloads, timed end to end.

Usage, from the repository root:

    python3 bench/run.py --workload line-bulk --seed 1 --seconds 30 --trace 0

Each run generates its workload's instance from the seed, computes a
reference optimum outside all timings, then spends ``--seconds`` on passes of
``ccwinner solve`` and checks every pass's result.  One client, one process,
closed loop: the next pass starts when the previous one has ended.

``--trace 0`` interleaves cold passes (a fresh ``python -m ccwinner.cli``
subprocess) with warm passes (``ccwinner.cli.main`` in this process) and
set-ups, and reports the end-to-end metrics: the median over the run of each
pass's CPU time in units of a fixed reference kernel's (calibration.py), the
median peak RSS and the median set-up time.  ``--trace 1`` alternates
untraced and traced warm passes and reports the per-layer metrics (see
tracing.py).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for reading, then give sample counts, minima and medians
(raw wall times included), the failed fraction and the per-pass samples.

The program under test is imported from ``src/`` next to this directory; the
run exits with code 2, printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_REPEATS = 5  # set-ups before the first pass; one more precedes every timed pass
MIN_SAMPLES = 3  # per kind of pass, even when --seconds runs out first
PASS_TIMEOUT_S = 120
# Optimum of each workload's seed-0 instance as ccwinner 0.1.0 returned it; a
# run on seed 0 stops when the reference computed for it disagrees.
SEED0_OPTIMUM = {"line-bulk": 4429, "line-egal": 4, "tree": 8, "grid": 36}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Run:
    """One benchmark run: instance files, reference, and pass bookkeeping."""

    def __init__(self, workload, seed: int):
        from checker import Checker, reference_optimum
        from workloads import assert_non_degenerate

        self.workload = workload
        self.seed = seed
        self.dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.instance_path = str(self.dir / "instance.json")
        self.result_path = str(self.dir / "result.json")
        self.spare_path = str(self.dir / "setup.json")  # later set-ups leave the instance alone
        self.argv = workload.cli_args(self.instance_path, self.result_path)

        self.setup_samples = []
        inst = self.setup(self.instance_path)
        for _ in range(SETUP_REPEATS - 1):
            self.setup(self.spare_path)
        self.inst = inst
        assert_non_degenerate(inst)
        self.reference = reference_optimum(inst)
        if self.reference <= 0:
            raise SystemExit(f"{workload.name}: reference optimum {self.reference} is degenerate")
        if seed == 0 and self.reference != SEED0_OPTIMUM[workload.name]:
            raise SystemExit(
                f"{workload.name}: seed-0 reference {self.reference}, "
                f"stored optimum {SEED0_OPTIMUM[workload.name]}"
            )
        self.checker = Checker(inst, self.reference)
        self.attempted = 0
        self.failed = 0

    def setup(self, path: str):
        """Generate the instance from the seed and write it: one set-up sample."""
        from workloads import generate, write_instance

        gc.collect()
        t0 = time.perf_counter()
        inst = generate(self.workload, self.seed)
        write_instance(inst, path)
        self.setup_samples.append(time.perf_counter() - t0)
        return inst

    def record(self, exit_code, what: str) -> bool:
        """Check the pass that just ended; count it as attempted, maybe failed."""
        from checker import read_result

        self.attempted += 1
        if exit_code != 0:
            problems = [f"exit code {exit_code}"]
        else:
            try:
                problems = self.checker.problems(read_result(self.result_path))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"result unreadable: {exc!r}"]
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)
        return not problems

    def clear_result(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.result_path)

    def cold_pass(self):
        """A fresh CLI process, timed from spawn to exit.

        Returns (wall seconds, CPU seconds, maxrss MB); the CPU time is the
        child's user plus system time, all its threads together.
        """
        self.clear_result()
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.dir / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "ccwinner.cli", *self.argv],
                stdout=subprocess.DEVNULL,
                stderr=err,
                env=env,
                cwd=str(ROOT),
            )
            killer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write((self.dir / "stderr.txt").read_text(errors="replace"))
        self.record(proc.returncode, "cold pass")
        return elapsed, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024

    def warm_pass(self, call):
        """One in-process pass through `call(argv)` with stdout discarded.

        Returns (wall seconds, process CPU seconds, whether the pass was correct).
        """
        self.clear_result()
        gc.collect()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            c0 = time.process_time()
            try:
                code = call(self.argv)
            except Exception:  # an escaped exception is a failed pass, not a crash
                traceback.print_exc()
                code = "exception"
            cpu = time.process_time() - c0
            elapsed = time.perf_counter() - t0
        ok = self.record(code, "warm pass")
        return elapsed, cpu, ok

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def timed_run(run: Run, seconds: float):
    """Set up, then run a pass: two cold ones to each warm one, until the time is up.

    The reference kernel (calibration.py) runs between consecutive passes,
    and each pass is reported as its CPU time over the mean CPU time of the
    kernel runs just before and just after it.  CPU time leaves out the time
    the host takes the virtual CPU away, which wall time counts and the
    kernel may not see.  Each timing metric is the median of these ratios
    over the run; the raw wall and CPU times are printed alongside.
    Interleaving spreads both kinds of pass over the whole run.  One warm-up
    pass of each kind comes first (checked and counted), so imports and the
    file cache are settled.
    """
    import ccwinner.cli as cli
    from calibration import kernel_cpu_seconds

    run.warm_pass(cli.main)
    run.cold_pass()
    names = ("cold_wall_s", "cold_cpu_s", "cold_rel", "warm_wall_s", "warm_cpu_s", "warm_rel", "rss_mb")
    samples = {name: [] for name in names}
    samples["kernel_cpu_s"] = [kernel_cpu_seconds()]
    deadline = time.perf_counter() + seconds
    kinds = itertools.cycle(("cold", "cold", "warm"))  # cold ratios spread more
    while time.perf_counter() < deadline or len(samples["warm_rel"]) < MIN_SAMPLES:
        run.setup(run.spare_path)
        kind = next(kinds)
        if kind == "cold":
            wall, cpu, peak = run.cold_pass()
            samples["rss_mb"].append(peak)
        else:
            wall, cpu, _ = run.warm_pass(cli.main)
        samples["kernel_cpu_s"].append(kernel_cpu_seconds())
        samples[f"{kind}_wall_s"].append(wall)
        samples[f"{kind}_cpu_s"].append(cpu)
        samples[f"{kind}_rel"].append(cpu / statistics.fmean(samples["kernel_cpu_s"][-2:]))
    samples["setup_s"] = run.setup_samples
    metrics = {
        "cli_cold_cpu_rel": (statistics.median(samples["cold_rel"]), "ratio"),
        "solve_cpu_rel": (statistics.median(samples["warm_rel"]), "ratio"),
        "peak_rss_mb": (statistics.median(samples["rss_mb"]), "MB"),
        "setup_s": (statistics.median(run.setup_samples), "s"),
    }
    return metrics, samples


def traced_run(run: Run, seconds: float):
    import ccwinner.cli as cli
    from tracing import Tracer, solver_counts, standalone_children, traced_pass
    from workloads import input_counts

    with open(run.instance_path, encoding="utf-8") as handle:
        rankings = tuple(tuple(c - 1 for c in r) for r in json.load(handle)["rankings"])
    tracer = Tracer()
    run.warm_pass(cli.main)
    plain, children, counts = [], [], []
    deadline = time.perf_counter() + seconds
    passes = 0
    while time.perf_counter() < deadline or min(len(plain), len(children)) < MIN_SAMPLES:
        plain.append(run.warm_pass(cli.main)[0])
        passes += 1
        ok = run.warm_pass(lambda argv: traced_pass(tracer, passes, argv))[-1]
        if not ok:
            continue
        times = standalone_children(tracer, passes, run.workload, rankings)
        for name in ("pass", "cli.load_instance", "cli.serialize",
                     "validation.consistency", "validation.single_crossing"):
            times[name] = tracer.durations(passes, name)
        children.append(times)
        counts.append(solver_counts(tracer))
    if not children:
        raise SystemExit("traced run: no traced pass succeeded")
    if any(c != counts[0] for c in counts):
        run.failed += 1
        print("FAILED traced run: solver counters differ between passes", file=sys.stderr)

    tracemalloc.start()
    cli.load_instance(run.instance_path)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    def med(name):
        return statistics.median(t[name] for t in children)

    solver = med("solver.solve")
    metrics = {
        "cli.load_instance_s": (med("cli.load_instance"), "s"),
        "cli.serialize_s": (med("cli.serialize"), "s"),
        "cli.instance_bytes": (os.path.getsize(run.instance_path), "count"),
        "core.profile_build_s": (med("core.profile_build"), "s"),
        "core.normalize_s": (med("core.normalize"), "s"),
        "core.canonicalize_s": (med("core.canonicalize"), "s"),
        "core.load_alloc_mb": (peak / 2**20, "MB"),
        "validation.consistency_s": (med("validation.consistency"), "s"),
        "validation.single_crossing_s": (med("validation.single_crossing"), "s"),
        "solver.solve_s": (solver, "s"),
        "solver.self_s": (med("solver.self"), "s"),
        "grid_solver.build_prefix_frac": (
            med("grid_solver.build_prefix") / solver if run.workload.structure == "grid" else 0.0,
            "ratio",
        ),
    }
    metrics.update((name, (value, "count")) for name, value in counts[0].items())
    for name, value in input_counts(run.inst).items():
        metrics[name] = (value, "ratio" if name.endswith("_frac") else "count")
    fastest_traced = min(t["pass"] for t in children)
    metrics["trace.overhead_frac"] = (fastest_traced / min(plain) - 1, "ratio")

    WORK.mkdir(exist_ok=True)
    tracer.write(
        str(WORK / f"spans-{run.workload.name}-seed{run.seed}.json"),
        {"workload": run.workload.name, "seed": run.seed},
    )
    samples = {"pass_s": [t["pass"] for t in children], "untraced_pass_s": plain}
    return metrics, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ccwinner" / "__init__.py").is_file():
        print(f"no ccwinner sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy

    import ccwinner
    from workloads import WORKLOADS

    if Path(ccwinner.__file__).resolve().parent != SRC / "ccwinner":
        print(f"imported ccwinner from {ccwinner.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed)
    try:
        if args.trace:
            metrics, samples = traced_run(run, args.seconds)
        else:
            metrics, samples = timed_run(run, args.seconds)
    finally:
        run.close()

    print(
        f"workload {workload.name} seed {args.seed}: {workload.structure} n={workload.n} "
        f"m={workload.m} k={workload.k} {workload.objective} --algorithm {workload.algorithm}; "
        f"reference optimum {run.reference}; nproc {os.cpu_count()}, Python "
        f"{sys.version.split()[0]}, numpy {numpy.__version__}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    for name, seen in samples.items():
        print(f"  {name:30s} {len(seen)} samples: min {min(seen):.6g}, median {statistics.median(seen):.6g}")
    print(f"{'failed_frac':32s} {run.failed / run.attempted:.6g} ratio  ({run.failed} of {run.attempted} passes)")
    print("samples " + json.dumps(samples))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
