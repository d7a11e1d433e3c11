"""Shift-invariant coloring ideals on finitely generated groups.

The package models sets of finite partial colorings that are closed under
restriction and under the group's shift action, on concrete groups (free
abelian and free), and exercises the structural properties connecting them:
packing scale searches, locality and join checks, a radius-tracking
reduction, a randomized window-coloring construction, a multi-scale sparse
coloring, and independent brute-force oracles. A batch CLI exposes the
operations as reproducible JSON reports.
"""

from .groups import (
    BudgetError,
    DSequence,
    FreeAbelian,
    FreeGroup,
    Group,
    annulus_D,
    d_sequence,
    parse_group,
    set_dist,
)
from .ideals import (
    ConstantJoin,
    DistanceConstrained,
    IdealSpec,
    JoinFn,
    NotUniversal,
    PaletteExhausted,
    ProperColoring,
    SupRadiiJoin,
    col_window_check,
    grow_random_member,
    ideal_axioms_check,
    ideal_from_json,
    is_extendable_at,
)
from .oracles import (
    ExhaustiveSearchReport,
    extension_oracle,
    infty_check,
    infty_counting_bound,
    rare_color_check,
)
from .patterns import PartialColoring, shift, truncated_window
from .radii import INF, Infinity, Radius, as_radius
from .reduction import (
    ReducedIdeal,
    check_join,
    check_local,
    check_reduction,
    decompose,
    derived_join_from_local,
    extend_reduced,
    project,
    reduced_contains,
    separated,
)
from .reports import SCHEMA_VERSION, TOOL_VERSION, canonical_json_bytes, config_hash
from .simulate import (
    SimulationConfig,
    SimulationTrace,
    equivariance_check,
    extract_patterns,
    run,
    sparse_run,
    trace_validate,
)

__version__ = TOOL_VERSION

__all__ = [
    "BudgetError",
    "ConstantJoin",
    "DSequence",
    "DistanceConstrained",
    "ExhaustiveSearchReport",
    "FreeAbelian",
    "FreeGroup",
    "Group",
    "INF",
    "IdealSpec",
    "Infinity",
    "JoinFn",
    "NotUniversal",
    "PaletteExhausted",
    "PartialColoring",
    "ProperColoring",
    "Radius",
    "ReducedIdeal",
    "SCHEMA_VERSION",
    "SimulationConfig",
    "SimulationTrace",
    "SupRadiiJoin",
    "TOOL_VERSION",
    "annulus_D",
    "as_radius",
    "canonical_json_bytes",
    "check_join",
    "check_local",
    "check_reduction",
    "col_window_check",
    "config_hash",
    "d_sequence",
    "decompose",
    "derived_join_from_local",
    "equivariance_check",
    "extend_reduced",
    "extension_oracle",
    "extract_patterns",
    "grow_random_member",
    "ideal_axioms_check",
    "ideal_from_json",
    "infty_check",
    "infty_counting_bound",
    "is_extendable_at",
    "parse_group",
    "project",
    "rare_color_check",
    "reduced_contains",
    "run",
    "separated",
    "set_dist",
    "shift",
    "sparse_run",
    "trace_validate",
    "truncated_window",
    "__version__",
]
