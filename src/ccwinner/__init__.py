"""Chamberlin-Courant committee solvers for single-crossing preference profiles.

Winner determination under the Chamberlin-Courant rule is NP-hard in
general, but when voter preferences are single-crossing on a line, a rooted
tree, or a two-dimensional grid, exact polynomial algorithms exist.  This
package implements them, together with recognizers for the three
single-crossing notions, seeded instance generators, brute-force oracles,
and a command line front-end.

Only `errors`, which imports nothing, is imported with the package, so
``import ccwinner`` imports no numpy and changes no environment variable.
Every other name is imported on first read, through `_LazyNames`.
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


class _LazyNames:
    """A module's names, those of `table` imported on first read.

    The package and `cli` each bind one to their ``globals()`` as their
    ``__getattr__``, and the CLI's commands read their late names from it.
    A read returns the namespace's binding first, so a patched, wrapped or
    already resolved name wins; else it imports ``table[name]`` (the module
    itself for a name equal to its module's) and caches the value in the
    namespace. So a cold solve imports only its route's solver, numpy loads
    after `launch` set its thread count, and no module object is needed.
    """

    def __init__(self, namespace: dict, table: dict):
        self._namespace = namespace
        self._table = table

    def __getattr__(self, name: str):
        namespace = self._namespace
        if name in namespace:
            return namespace[name]
        module = self._table.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = import_module(module, namespace["__package__"])
        if name != module:
            value = getattr(value, name)
        namespace[name] = value  # later reads find it without this call
        return value


__getattr__ = _LazyNames(globals(), _LAZY).__getattr__


def __dir__():
    return sorted({*globals(), *_LAZY})
