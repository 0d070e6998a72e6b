"""convlab: irreversible k-threshold conversion processes on graphs.

Simulation, exact conversion numbers with certificates, closed-form bounds
with equality analysis, structured graph constructions, and verification
suites tying them together.
"""

from .graph import (
    Graph,
    GraphError,
    build_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    vset,
    vset_members,
)
from .fileio import FormatError, from_edge_list, from_graph6, load_graph, to_edge_list, to_graph6
from .process import (
    ConversionTrace,
    characterization_check,
    is_conversion_set,
    is_k_immune,
    residual_core,
    run_process,
)
from .structure import (
    CLASS1,
    CLASS2,
    chromatic_class,
    girth,
    is_maximal_r_degenerate,
    is_r_degenerate,
    structure_report,
)
from .solver import SolveResult, ck_exact, forest_number, independence_number
from .bounds import equality_certificate, lower_bounds, upper_bounds_cubic
from .constructions import Recipe, build_recipe, catalog, catalog_graph
from .verify import run_suite, run_suites

__version__ = "0.1.0"

__all__ = [
    "Graph", "GraphError", "build_graph", "complete_bipartite", "complete_graph",
    "cycle_graph", "empty_graph", "path_graph", "vset", "vset_members",
    "FormatError", "from_edge_list", "from_graph6", "load_graph",
    "to_edge_list", "to_graph6",
    "ConversionTrace", "characterization_check", "is_conversion_set",
    "is_k_immune", "residual_core", "run_process",
    "CLASS1", "CLASS2", "chromatic_class", "girth", "is_maximal_r_degenerate",
    "is_r_degenerate", "structure_report",
    "SolveResult", "ck_exact", "forest_number", "independence_number",
    "equality_certificate", "lower_bounds", "upper_bounds_cubic",
    "Recipe", "build_recipe", "catalog", "catalog_graph",
    "run_suite", "run_suites",
]
