"""fifth: a constraint engine built on propagation of partial information.

Programs are networks of cells holding lattice values; monotone propagators
work out the implications of every write. Recursive definitions expand
lazily and without bound, search branches over explicit choice points by
cloning, and one autoencoder per definition compresses frame states into
codes that, matched against the codes remembered from successes and dead
ends, guide value ordering in search, planning, and scheduling queries.

Each public name imports its module on first use, so `import fifth` loads
no submodule, and the guidance names alone load numpy.
"""

import importlib

_EXPORTS = {
    "lattice": ("NOTHING", "Contradiction", "Exact", "FiniteDomain",
                "IntInterval", "PartialInfo", "exact", "finite_domain",
                "info_bits", "int_interval", "merge", "refines"),
    "network": ("Network", "QuiescenceReport", "WriteResult"),
    "language": ("Instance", "Program", "Query", "demand_loop", "expand",
                 "instantiate", "parse"),
    "search": ("OptimizeResult", "SolutionSet", "UniformOracle",
               "collect_garbage", "optimize", "solve"),
    "planning": ("HorizonProblem", "JobShopInstance", "emit_horizon_program",
                 "emit_jobshop_program", "generate_random_csp"),
    "hierarchy": ("AugmentationTree", "LearnedOracle", "TraceLog", "featurize",
                  "load_bundle", "save_bundle"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME, key=str.lower)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
