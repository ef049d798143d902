"""Availability, coverage, and rate analysis of K-tier energy-harvesting
cellular networks, with Monte Carlo cross-validation of every closed form.

Each layer is a lazy module: `import harvnet` puts all six in sys.modules
and runs none of them, and a layer runs at its first attribute access, so
a one-shot command pays only for the layers it calls.  The package's
public names resolve from their layer on every access and are never
copied here, so a name always reads the layer's current attribute.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

_PUBLIC = {
    "model": ("NO_SHADOWING", "NetworkScenario", "ScenarioError", "ShadowingSpec",
              "SimEstimate", "TierParams", "validate"),
    "coverage": ("RateQuery", "coverage_prob", "hyper_f", "rate_ccdf",
                 "tier_association_prob"),
    "markov": ("BirthDeathSpec", "PolicySpec", "generator", "mean_off_time",
               "mean_on_time", "neg_b_inverse", "policy_availability",
               "simulate_on_off", "stationary", "tier_availability",
               "verify_s1_optimal"),
    "analytic": ("FixedPointResult", "check_feasibility", "energy_outage_bound",
                 "energy_utilization", "equivalence_check", "g", "mean_service_area",
                 "solve_availability"),
    "region": ("RegionBoundary", "boundary", "contains", "grid_coverage",
               "sweep_boundary"),
    "simulate": ("SimConfig", "SpatialEstimate", "association_mc", "coverage_mc",
                 "rate_mc", "sample_network", "service_area_mc", "spatial_mc",
                 "suggest_window_side"),
}
_HOME = {name: layer for layer, names in _PUBLIC.items() for name in names}
__all__ = sorted(_HOME)


def _lazy_layer(layer: str):
    """Register harvnet.<layer> in sys.modules as a module that runs on first use."""
    spec = find_spec(f"{__name__}.{layer}")
    loader = spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    loader.exec_module(module)
    return module


globals().update({layer: _lazy_layer(layer) for layer in _PUBLIC})


def __getattr__(name):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted({*globals(), *__all__})
