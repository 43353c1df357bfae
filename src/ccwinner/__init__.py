"""Chamberlin-Courant committee solvers for single-crossing preference profiles.

Winner determination under the Chamberlin-Courant rule is NP-hard in
general, but when voter preferences are single-crossing on a line, a rooted
tree, or a two-dimensional grid, exact polynomial algorithms exist.  This
package implements them, together with recognizers for the three
single-crossing notions, seeded instance generators, brute-force oracles,
and a command line front-end.

Only `errors`, which imports nothing, is imported with the package, so
``import ccwinner`` imports no numpy and changes no environment variable.
Every other name resolves through the module ``__getattr__`` below, which
imports its module on first access. ``python -m ccwinner.cli`` and the
``ccwinner`` console script import this package first: both then start
numpy with one OpenBLAS thread (see `launch`), a setting that takes effect
only before numpy is imported, and a cold ``ccwinner solve`` should compile
and run only the solver module its route calls. The names stay
package attributes, cached in the module namespace once read, because
``ccwinner.X``, ``from ccwinner import X`` and ``from ccwinner import *``
are the library's public interface; each gives the defining module's
object.
"""

from importlib import import_module

from .errors import (
    AlgorithmStructureMismatch,
    BudgetExceeded,
    CCWinnerError,
    IncompleteTilings,
    InconsistentTables,
    InvalidK,
    InvalidN,
    InvalidTiling,
    NotATree,
    NotSingleCrossing,
    OutputError,
    ParseError,
    RejectionBudgetExceeded,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "Grid",
    "Line",
    "Objective",
    "PreferenceProfile",
    "RootedTree",
    "SolveResult",
    "Rect",
    "Tiling",
    "borda_misrepresentation",
    "canonicalize",
    "cost",
    "check_concave_monge",
    "check_consistency",
    "check_laminar_conjecture",
    "check_sc_grid",
    "check_sc_line",
    "check_sc_tree",
    "check_structure",
    "enumerate_tilings",
    "is_laminar",
    "refine_to_laminar",
    "gen_sc_grid",
    "gen_sc_line",
    "gen_sc_tree",
    "gen_star_instance",
    "brute_force",
    "brute_force_tiling",
    "solve_grid_bicriterial",
    "solve_grid_laminar",
    "solve_line_dp",
    "solve_line_egal_threshold",
    "solve_line_klink",
    "solve_tree_dp",
    "AlgorithmStructureMismatch",
    "BudgetExceeded",
    "CCWinnerError",
    "IncompleteTilings",
    "InconsistentTables",
    "InvalidK",
    "InvalidN",
    "InvalidTiling",
    "NotATree",
    "NotSingleCrossing",
    "OutputError",
    "ParseError",
    "RejectionBudgetExceeded",
]

# name -> defining submodule, for the names imported on first access
_LAZY = {
    name: module
    for module, names in {
        ".core": (
            "Assignment",
            "Grid",
            "Line",
            "Objective",
            "PreferenceProfile",
            "RootedTree",
            "SolveResult",
            "borda_misrepresentation",
            "canonicalize",
            "cost",
        ),
        ".generators": ("gen_sc_grid", "gen_sc_line", "gen_sc_tree", "gen_star_instance"),
        ".grid_solver": (
            "Rect",
            "Tiling",
            "check_laminar_conjecture",
            "enumerate_tilings",
            "is_laminar",
            "refine_to_laminar",
            "solve_grid_bicriterial",
            "solve_grid_laminar",
        ),
        ".line_solver": (
            "check_concave_monge",
            "solve_line_dp",
            "solve_line_egal_threshold",
            "solve_line_klink",
        ),
        ".oracle": ("brute_force", "brute_force_tiling"),
        ".tree_solver": ("solve_tree_dp",),
        ".validation": (
            "check_consistency",
            "check_sc_grid",
            "check_sc_line",
            "check_sc_tree",
            "check_structure",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value  # later reads find it without this call
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
