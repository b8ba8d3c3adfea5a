"""fifth: a constraint engine built on propagation of partial information.

Programs are networks of cells holding lattice values; monotone propagators
work out the implications of every write. Recursive definitions expand
lazily and without bound, search branches over explicit choice points by
cloning, and one autoencoder per definition compresses frame states into
codes that, matched against the codes remembered from successes and dead
ends, guide value ordering in search, planning, and scheduling queries.

The names in `_GUIDANCE` import `fifth.hierarchy`, and numpy, on first use.
"""

from fifth.lattice import (
    NOTHING,
    Contradiction,
    Exact,
    FiniteDomain,
    IntInterval,
    PartialInfo,
    RealInterval,
    exact,
    finite_domain,
    info_bits,
    int_interval,
    merge,
    real_interval,
    refines,
)
from fifth.network import Network, QuiescenceReport, WriteResult
from fifth.language import (
    Instance,
    Program,
    QuerySpec,
    demand_loop,
    expand,
    instantiate,
    parse,
)
from fifth.search import (
    OptimizeResult,
    Query,
    SolutionSet,
    UniformOracle,
    collect_garbage,
    optimize,
    solve,
)
from fifth.planning import (
    HorizonProblem,
    JobShopInstance,
    emit_horizon_program,
    emit_jobshop_program,
    generate_random_csp,
)

__all__ = [
    "AugmentationTree",
    "collect_garbage",
    "Contradiction",
    "demand_loop",
    "emit_horizon_program",
    "emit_jobshop_program",
    "Exact",
    "exact",
    "expand",
    "featurize",
    "finite_domain",
    "FiniteDomain",
    "generate_random_csp",
    "HorizonProblem",
    "info_bits",
    "Instance",
    "instantiate",
    "int_interval",
    "IntInterval",
    "JobShopInstance",
    "LearnedOracle",
    "load_bundle",
    "merge",
    "Network",
    "NOTHING",
    "optimize",
    "OptimizeResult",
    "parse",
    "PartialInfo",
    "Program",
    "Query",
    "QuerySpec",
    "QuiescenceReport",
    "real_interval",
    "RealInterval",
    "refines",
    "save_bundle",
    "SolutionSet",
    "solve",
    "TraceLog",
    "UniformOracle",
    "WriteResult",
]

__version__ = "0.1.0"

_GUIDANCE = ("AugmentationTree", "LearnedOracle", "TraceLog", "featurize",
             "load_bundle", "save_bundle")


def __getattr__(name):
    if name in _GUIDANCE:
        from fifth import hierarchy
        return getattr(hierarchy, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
