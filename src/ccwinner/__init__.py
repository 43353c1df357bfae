"""Chamberlin-Courant committee solvers for single-crossing preference profiles.

Winner determination under the Chamberlin-Courant rule is NP-hard in
general, but when voter preferences are single-crossing on a line, a rooted
tree, or a two-dimensional grid, exact polynomial algorithms exist.  This
package implements them, together with recognizers for the three
single-crossing notions, seeded instance generators, brute-force oracles,
and a command line front-end.
"""

from .core import (
    Assignment,
    Grid,
    Line,
    Objective,
    PreferenceProfile,
    RootedTree,
    SolveResult,
    borda_misrepresentation,
    canonicalize,
    cost,
)
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
    ParseError,
    RejectionBudgetExceeded,
)
from .generators import gen_sc_grid, gen_sc_line, gen_sc_tree, gen_star_instance
from .grid_solver import (
    Rect,
    Tiling,
    check_laminar_conjecture,
    enumerate_tilings,
    is_laminar,
    refine_to_laminar,
    solve_grid_bicriterial,
    solve_grid_laminar,
)
from .line_solver import (
    check_concave_monge,
    solve_line_dp,
    solve_line_egal_threshold,
    solve_line_klink,
)
from .oracle import brute_force, brute_force_tiling
from .tree_solver import solve_tree_dp
from .validation import (
    check_consistency,
    check_sc_grid,
    check_sc_line,
    check_sc_tree,
    check_structure,
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
    "ParseError",
    "RejectionBudgetExceeded",
]
