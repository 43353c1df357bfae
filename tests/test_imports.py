"""Every module-level import in the package is used by its module, and
every private helper by the package; solver modules are imported only when
a name of theirs is first read.

A name bound by a top-level ``import`` or ``from ... import`` must be read
somewhere in the module, or be listed in its ``__all__`` (a re-export).
``from __future__`` imports are exempt. A module-level function or class
whose name starts with one underscore must be read somewhere in the
package, so a helper that a refactor leaves behind does not linger.
"""

import ast
import json
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import ccwinner
from ccwinner import cli
from ccwinner.cli import instance_to_doc
from ccwinner.generators import gen_sc_grid, gen_sc_line, gen_sc_tree

PACKAGE = Path(ccwinner.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used and name not in exported)


def test_checker_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom x import a, b\n"
    source += "__all__ = ['b']\nprint(np.zeros(1))\n"
    assert unused_imports(source) == ["a (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> dict[str, int]:
    """Module-level ``_private`` functions and classes, with their lines."""
    return {
        node.name: node.lineno
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }


def names_read(source: str) -> set[str]:
    """Names loaded, attributes read and names imported anywhere in the source."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def unread_private_helpers(sources: dict[str, str]) -> list[str]:
    read = set().union(*(names_read(source) for source in sources.values()))
    return sorted(
        f"{module}: {name} (line {line})"
        for module, source in sources.items()
        for name, line in private_definitions(source).items()
        if name not in read
    )


def test_checker_finds_an_unread_private_helper():
    sources = {
        "a.py": "def _used():\n    pass\ndef _left():\n    pass\nclass _Gone:\n    pass\n"
                "def __getattr__(name):\n    pass\ndef public():\n    pass\n",
        "b.py": "from .a import _used\n_used()\n",
    }
    assert unread_private_helpers(sources) == ["a.py: _Gone (line 5)", "a.py: _left (line 3)"]


def test_package_reads_every_private_helper():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unread_private_helpers(sources) == []


# ---------------------------------------------------------------------------
# lazily resolved names

DEFERRED = {
    "ccwinner.generators",
    "ccwinner.grid_solver",
    "ccwinner.line_solver",
    "ccwinner.oracle",
    "ccwinner.tree_solver",
    "concurrent.futures",
    "multiprocessing",
    "csv",
}


def run_fresh(code: str, *args: str, blas_threads: str | None = None):
    """The JSON value a fresh interpreter prints last after running ``code`` with arguments
    ``args``, with OPENBLAS_NUM_THREADS set to ``blas_threads`` (None: unset)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after(code: str, *args: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code`` with arguments ``args``."""
    return set(run_fresh(f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))", *args))


def test_importing_the_package_defers_every_solver_module():
    listed = "import ccwinner\nassert set(ccwinner.__all__) <= set(dir(ccwinner))"
    assert modules_after(listed) & DEFERRED == set()
    assert modules_after("import ccwinner.cli") & DEFERRED == set()


SOLVE = "import sys\nfrom ccwinner.cli import main\nassert main(sys.argv[1:]) == 0"


def instance_file(tmp_path, structure: str) -> str:
    """A small single-crossing instance with k = 2 on a line, a tree or a grid."""
    if structure == "line":
        profile, shape = gen_sc_line(3, 12, 4)
    elif structure == "tree":
        profile, shape = gen_sc_tree(3, 12, 4)
    else:
        profile, shape = gen_sc_grid(3, 3, 4, 4)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_doc(profile, shape, k=2)), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "structure, options, imported",
    [
        ("line", [], "ccwinner.line_solver"),
        ("line", ["--objective", "egalitarian", "--algorithm", "line-klink"], "ccwinner.line_solver"),
        ("line", ["--algorithm", "oracle"], "ccwinner.oracle"),
        ("tree", [], "ccwinner.tree_solver"),
        ("grid", [], "ccwinner.grid_solver"),
    ],
    ids=["line", "line-egal", "oracle", "tree", "grid"],
)
def test_a_solve_imports_only_the_solver_of_its_route(tmp_path, structure, options, imported):
    argv = ["solve", instance_file(tmp_path, structure), *options,
            "--out", str(tmp_path / "result.json")]
    assert modules_after(SOLVE, *argv) & DEFERRED == {imported}


@pytest.mark.parametrize("module", [ccwinner, cli], ids=["ccwinner", "cli"])
def test_lazy_names_are_the_defining_modules_objects(module):
    package = module.__package__ or module.__name__
    for name, source in module._LAZY.items():
        defining = import_module(source, package)
        value = getattr(module, name)
        assert value is (defining if name == source else getattr(defining, name)), name


def test_every_exported_name_resolves_to_its_definition():
    for name in ccwinner.__all__:
        value = getattr(ccwinner, name)
        assert value.__module__.startswith("ccwinner."), name
        assert getattr(import_module(value.__module__), name) is value, name
    star = {}
    exec("from ccwinner import *", star)
    assert set(star) - {"__builtins__"} == set(ccwinner.__all__)


@pytest.mark.parametrize("module", [ccwinner, cli], ids=["ccwinner", "cli"])
def test_an_unknown_name_is_an_attribute_error(module):
    with pytest.raises(AttributeError, match="no attribute 'solve_everything'"):
        getattr(module, "solve_everything")
    assert not hasattr(module, "gen_sc_cube")


@pytest.mark.parametrize(
    "structure, options, name",
    [
        ("line", [], "solve_line_dp"),
        ("line", ["--algorithm", "line-klink"], "solve_line_klink"),
        ("line", ["--objective", "egalitarian", "--algorithm", "line-klink"],
         "solve_line_egal_threshold"),
        ("line", ["--algorithm", "oracle"], "brute_force"),
        ("tree", [], "solve_tree_dp"),
        ("grid", [], "solve_grid_laminar"),
        ("grid", ["--algorithm", "grid-bicriterial"], "solve_grid_bicriterial"),
    ],
)
def test_solve_calls_the_patched_cli_attribute(tmp_path, monkeypatch, structure, options, name):
    """Commands read solver names from the cli module at call time, as the bench's tracer needs."""
    calls = []
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a, **kw: calls.append(a) or real(*a, **kw))
    assert cli.main(["solve", instance_file(tmp_path, structure), *options]) == 0
    assert len(calls) == 1


# runs the CLI module as __main__ with runpy's default alter_sys=False, which
# leaves sys.modules["__main__"] the caller's module; prints the exit code
AS_RUNPY = """import json, runpy, sys
sys.argv = ["ccwinner", *sys.argv[1:]]
try:
    runpy.run_module("ccwinner.cli", run_name="__main__")
except SystemExit as exc:
    print(json.dumps(exc.code))
"""


@pytest.mark.parametrize("structure", ["line", "tree", "grid"])
def test_runpy_without_alter_sys_solves_as_main_does(tmp_path, structure):
    """Commands find their lazy names in the namespace that runs them, not through sys.modules."""
    path = instance_file(tmp_path, structure)
    expected, got = tmp_path / "main.json", tmp_path / "runpy.json"
    assert cli.main(["solve", path, "--out", str(expected)]) == 0
    assert run_fresh(AS_RUNPY, "solve", path, "--out", str(got)) == 0
    assert got.read_bytes() == expected.read_bytes()


# ---------------------------------------------------------------------------
# one OpenBLAS thread on the program's entry paths, none set by the library

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module", ["ccwinner", "ccwinner.errors"])
def test_importing_the_package_imports_no_numpy(module):
    code = (
        "import json, os, sys\nbefore = dict(os.environ)\n"
        f"import {module}\n"
        "print(json.dumps(['numpy' in sys.modules, dict(os.environ) == before]))"
    )
    assert run_fresh(code) == [False, True]


def test_the_cli_as_a_library_leaves_the_thread_variable_unset():
    code = "import json, os\nimport ccwinner.cli\nprint(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))"
    assert run_fresh(code) is None


# reports the exit code, the process's thread count and the variable after the run
REPORT = (
    "print(json.dumps([code, len(os.listdir('/proc/self/task')),"
    " os.environ.get('OPENBLAS_NUM_THREADS')]))"
)
# runs the CLI module as ``python -m ccwinner.cli`` does, with the arguments given
AS_MAIN = f"""import json, os, runpy, sys
sys.argv = ["ccwinner", *sys.argv[1:]]
try:
    runpy.run_module("ccwinner.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
{REPORT}"""
# loads the console script's target, then calls it as the generated script does
AS_SCRIPT = f"""import json, os, sys
from importlib import import_module
module, function = sys.argv[1].split(":")
main = getattr(import_module(module), function)
assert "numpy" not in sys.modules, "numpy imported before the entry point ran"
sys.argv = ["ccwinner", *sys.argv[2:]]
code = main()
{REPORT}"""


def console_script_target() -> str:
    """The ``module:function`` of the ccwinner entry in pyproject's [project.scripts]."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.search(r'^ccwinner\s*=\s*"([\w.]+:\w+)"', section, re.MULTILINE).group(1)


needs_proc = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="counts threads in /proc/self/task (Linux)"
)


@needs_proc
@pytest.mark.parametrize("blas_threads", [None, "2"], ids=["unset", "caller-set"])
@pytest.mark.parametrize("entry", ["python -m", "console script"])
def test_the_program_runs_numpy_on_one_blas_thread(tmp_path, entry, blas_threads):
    argv = ["solve", instance_file(tmp_path, "line"), "--out", str(tmp_path / "result.json")]
    if entry == "python -m":
        code, threads, value = run_fresh(AS_MAIN, *argv, blas_threads=blas_threads)
    else:
        code, threads, value = run_fresh(
            AS_SCRIPT, console_script_target(), *argv, blas_threads=blas_threads
        )
    assert code == 0
    assert value == (blas_threads or "1")  # a value the caller set wins
    if blas_threads is None:
        assert threads == 1
