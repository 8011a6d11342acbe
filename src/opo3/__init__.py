"""Stochastic simulator and analytics for a three-mode optical parametric
oscillator below threshold, in the positive-P representation.

The package integrates the full nonlinear Ito equations for the pump and
the two down-converted modes, estimates centered quadrature and amplitude
moments up to fourth order with jackknife errors, evaluates the matching
perturbative closed forms, and tests a generalized Cauchy-Schwarz
inequality that certifies nonclassical tripartite correlations.
"""

from .model import (
    DomainError,
    ModelParams,
    PhaseSpaceState,
    ValidityError,
    derive_params,
    drift_and_diffusion,
    fixed_point,
)
from .analytic import (
    CsSides,
    analytic_moment_report,
    cs_sides_analytic,
)
from .moments import (
    ChannelSpec,
    JackknifeResult,
    MomentAccumulator,
    MomentEstimate,
    MomentReport,
    MomentSchema,
    NoSamplesError,
    SchemaError,
    TargetSpec,
    amplitude_schema,
    merge,
    opo_schema,
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
from .criteria import (
    AuditResult,
    CriterionReport,
    OddMomentResult,
    WitnessResult,
    cs_running_average,
    cs_test,
    pair_audit,
    pump_odd_moment,
    separability_witness,
)

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
