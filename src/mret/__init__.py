"""Temporal reachability toolkit.

Evaluate edge schedules on digraphs, search for reachability-maximising
schedules, compile 3-CNF formulas into reachability-threshold instances
with exact bound arithmetic, and explore edge-disjoint arborescence
pairs.  The ``mret`` command exposes the same operations on files.
"""

from types import ModuleType as _ModuleType

from .astra import (
    ArborescencePair,
    AstraReport,
    best_root,
    check_pair,
    exact_pair,
    greedy_pair,
)
from .cnf import CnfFormula, format_dimacs, parse_assignment, parse_dimacs
from .errors import ParseError, ScaleLimitError
from .generators import gen_fig3, gen_random_sc
from .graphs import (
    Digraph,
    Schedule,
    Temporalisation,
    format_digraph,
    format_schedule,
    format_temporal_graph,
    is_strongly_connected,
    parse_digraph,
    parse_schedule,
    parse_temporal_graph,
    parse_times,
)
from .reachability import (
    ReachabilityResult,
    evaluate_schedule,
    reachability_counts,
    schedule_from_temporalisation,
    total_reachability,
)
from .reduction import (
    ReductionInstance,
    ReductionParams,
    build_instance,
    certify,
    check_bounds,
    constructive_total,
    instance_manifest,
    load_instance,
    lower_bound,
    schedule_from_assignment,
    upper_bound_one,
    upper_bound_two,
    variable_gadget_activation,
    write_instance,
)
from .solvers import (
    SolveResult,
    arborescence_order,
    solve_arborescence,
    solve_exact,
    solve_local,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
