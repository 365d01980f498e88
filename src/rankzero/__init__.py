"""Countable point sets of prescribed transfinite derived-set rank, the
entire functions whose zeros they seed, and certified numerical probes of
the resulting dilation families."""

from .evaluator import (
    EvalResult,
    LogPolar,
    default_precision,
    family_eval,
    log_derivative,
    log_eval,
    sector_bound_check,
    spherical_derivative,
)
from .ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    compare,
    enumerate_below,
    format_ordinal,
    fundamental_sequence,
    parse_ordinal,
    predecessor,
)
from .pointset import (
    Arc,
    Cluster,
    Forest,
    Leaf,
    RankProfile,
    build_rank_set,
    cardinality,
    derive,
    derive_once,
    materialize,
    member,
    rank_profile,
    singleton_refine,
    tree_from_json,
    tree_to_json,
    union_disjoint,
)
from .probe import (
    Certificate,
    Classification,
    GeometricMean,
    ProbeReport,
    RatioPlus,
    Sector,
    classify,
    condition_m_sweep,
    dilation_factor,
    non_c0_certificate,
    order_report,
)
from .schedule import (
    RadiiSequence,
    ZeroSchedule,
    build_limit_schedule,
    build_radii,
    build_row_schedule,
    build_sector_schedule,
    convergence_exponent_check,
    growth_threshold_index,
    validate_radii,
)
from .verification import run_suite

__version__ = "0.1.0"
