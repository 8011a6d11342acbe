"""Stochastic simulator and analytics for a three-mode optical parametric
oscillator below threshold, in the positive-P representation.

The package integrates the full nonlinear Ito equations for the pump and
the two down-converted modes, estimates centered quadrature and amplitude
moments up to fourth order with jackknife errors, evaluates the matching
perturbative closed forms, and tests a generalized Cauchy-Schwarz
inequality that certifies nonclassical tripartite correlations.
"""

import importlib

from .model import (
    DomainError,
    ModelParams,
    PhaseSpaceState,
    ValidityError,
    derive_params,
    drift_and_diffusion,
    fixed_point,
    state_channels,
)
from .engine import (
    EnsembleResult,
    ResolvedConfig,
    SimConfig,
    integrate_batch,
    run_ensemble,
    simulate_trajectory,
)

# names that load their module on first use (PEP 562), so that a process
# that only integrates a trajectory never imports the moment layer, the
# criteria, the closed forms or the logging these bring in
_ON_FIRST_USE = {
    **dict.fromkeys(
        ("ChannelSpec", "JackknifeResult", "MomentAccumulator",
         "MomentEstimate", "MomentReport", "MomentSchema", "NoSamplesError",
         "SchemaError", "TargetSpec", "amplitude_schema", "merge",
         "opo_schema"), "moments"),
    "CsSides": "analytic",
    "analytic_moment_report": "analytic",
    "cs_sides_analytic": "analytic",
    "AuditResult": "criteria",
    "CriterionReport": "criteria",
    "OddMomentResult": "criteria",
    "WitnessResult": "criteria",
    "cs_running_average": "criteria",
    "cs_test": "criteria",
    "pair_audit": "criteria",
    "pump_odd_moment": "criteria",
    "separability_witness": "criteria",
}

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "ModelParams",
    "PhaseSpaceState",
    "ValidityError",
    "derive_params",
    "drift_and_diffusion",
    "fixed_point",
    "CsSides",
    "analytic_moment_report",
    "cs_sides_analytic",
    "ChannelSpec",
    "JackknifeResult",
    "MomentAccumulator",
    "MomentEstimate",
    "MomentReport",
    "MomentSchema",
    "NoSamplesError",
    "SchemaError",
    "TargetSpec",
    "amplitude_schema",
    "merge",
    "opo_schema",
    "state_channels",
    "EnsembleResult",
    "ResolvedConfig",
    "SimConfig",
    "integrate_batch",
    "run_ensemble",
    "simulate_trajectory",
    "AuditResult",
    "CriterionReport",
    "OddMomentResult",
    "WitnessResult",
    "cs_running_average",
    "cs_test",
    "pair_audit",
    "pump_odd_moment",
    "separability_witness",
    "__version__",
]


def __getattr__(name):
    module = _ON_FIRST_USE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_ON_FIRST_USE))
