"""Parameterization, the drift/diffusion functions of the Ito equations and
the quadrature map from phase-space states to the moment layer's channels.

Everything here is a pure function of its inputs.  Time is dimensionless,
tau = gamma*t, so the down-converted decay rate is 1 and the pump decay rate
is gamma_r.  The six positive-P amplitudes (a0, a1, a2, a0p, a1p, a2p) are
independent complex variables; the "p" components are NOT complex conjugates
of the unstarred ones except on average.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np


class DomainError(ValueError):
    """Raised when inputs are outside the model's parameter domain."""


class ValidityError(ValueError):
    """Raised when a requested evaluation is outside the regime where the
    perturbative expressions are meaningful (mu >= 1, or g**8 underflows)."""


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless configuration (mu, gamma_r, g); eps is derived.

    mu       pump parameter, threshold at mu = 1
    gamma_r  pump/down-converted damping ratio
    g        dimensionless coupling constant
    eps      derived coupling, eps = g*sqrt(2*gamma_r)

    The triple (mu, gamma_r, g) is primary and each member is independently
    settable; eps always satisfies eps == g*sqrt(2*gamma_r).  mu >= 1 is
    accepted at construction but rejected by the simulation and analytic
    entry points, which require below-threshold operation.
    """

    mu: float
    gamma_r: float
    g: float
    eps: float = field(init=False)

    def __post_init__(self) -> None:
        mu = float(self.mu)
        gamma_r = float(self.gamma_r)
        g = float(self.g)
        if not (math.isfinite(mu) and math.isfinite(gamma_r) and math.isfinite(g)):
            raise DomainError("parameters must be finite")
        if mu < 0.0:
            raise DomainError(f"mu must be >= 0, got {mu}")
        if gamma_r <= 0.0:
            raise DomainError(f"gamma_r must be > 0, got {gamma_r}")
        if g <= 0.0:
            raise DomainError(f"g must be > 0, got {g}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "gamma_r", gamma_r)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "eps", g * math.sqrt(2.0 * gamma_r))


def derive_params(chi_over_gamma: float, gamma_r: float, mu: float) -> ModelParams:
    """Build ModelParams from the raw coupling ratio chi/gamma.

    g = (chi/gamma)/sqrt(2*gamma_r), so eps comes out equal to chi/gamma.
    """
    if not (chi_over_gamma > 0.0):
        raise DomainError(f"chi_over_gamma must be > 0, got {chi_over_gamma}")
    if not (gamma_r > 0.0):
        raise DomainError(f"gamma_r must be > 0, got {gamma_r}")
    if not (mu >= 0.0):
        raise DomainError(f"mu must be >= 0, got {mu}")
    g = chi_over_gamma / math.sqrt(2.0 * gamma_r)
    return ModelParams(mu=mu, gamma_r=gamma_r, g=g)


@dataclass(frozen=True)
class PhaseSpaceState:
    """Six independent complex positive-P amplitudes."""

    a0: complex
    a1: complex
    a2: complex
    a0p: complex
    a1p: complex
    a2p: complex

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.a0, self.a1, self.a2, self.a0p, self.a1p, self.a2p],
            dtype=np.complex128,
        )

    @classmethod
    def from_array(cls, arr) -> "PhaseSpaceState":
        a0, a1, a2, a0p, a1p, a2p = (complex(v) for v in arr)
        return cls(a0=a0, a1=a1, a2=a2, a0p=a0p, a1p=a1p, a2p=a2p)

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.as_array().view(np.float64))))


def fixed_point(params: ModelParams) -> PhaseSpaceState:
    """Deterministic below-threshold steady state: a0 = a0p = mu/eps, signals 0."""
    a0 = params.mu / params.eps
    return PhaseSpaceState(a0=a0, a1=0.0, a2=0.0, a0p=a0, a1p=0.0, a2p=0.0)


def drift_and_diffusion(state: PhaseSpaceState, params: ModelParams):
    """Drift rates and noise amplitudes of the Ito equations in tau = gamma*t.

    Returns (drift, noise_amp) where drift is a PhaseSpaceState holding
    d(alpha)/dtau for each component and noise_amp = (sqrt(eps*a0),
    sqrt(eps*a0p)) on the principal branch.  noise_amp[0] multiplies the
    increments dW1, dW2 entering a1, a2; noise_amp[1] multiplies dW1p, dW2p
    entering a1p, a2p.  The pump components carry no noise.
    """
    mu, gr, eps = params.mu, params.gamma_r, params.eps
    a0, a1, a2 = state.a0, state.a1, state.a2
    a0p, a1p, a2p = state.a0p, state.a1p, state.a2p
    drift = PhaseSpaceState(
        a0=gr * (mu / eps - a0) - eps * a1 * a2,
        a1=-a1 + eps * a2p * a0,
        a2=-a2 + eps * a1p * a0,
        a0p=gr * (mu / eps - a0p) - eps * a1p * a2p,
        a1p=-a1p + eps * a2 * a0p,
        a2p=-a2p + eps * a1 * a0p,
    )
    noise_amp = (cmath.sqrt(eps * a0), cmath.sqrt(eps * a0p))
    return drift, noise_amp


OPO_CHANNELS = ("x0", "y0", "x", "y", "xp", "yp",
                "a0", "a0p", "a1", "a1p", "a2", "a2p")


def state_channels(states: np.ndarray, params: ModelParams) -> np.ndarray:
    """Channel values from raw phase-space states: the one quadrature map.

    states has shape (6, ...) ordered (a0, a1, a2, a0p, a1p, a2p); returns
    (12, ...) in OPO_CHANNELS order: the scaled quadratures x0 =
    eps*(a0 + a0p), y0 = -i*eps*(a0 - a0p) of the pump and, under the sign
    convention x + i*y = 2*g*a1, x - i*y = 2*g*a2p, xp + i*yp = 2*g*a2,
    xp - i*yp = 2*g*a1p, those of the down-converted modes, then the six
    amplitudes.  All are complex: single positive-P samples are not real,
    only ensemble moments are.
    """
    g, eps = params.g, params.eps
    a0, a1, a2, a0p, a1p, a2p = states
    return np.stack([
        eps * (a0 + a0p),
        -1j * eps * (a0 - a0p),
        g * (a1 + a2p),
        -1j * g * (a1 - a2p),
        g * (a2 + a1p),
        -1j * g * (a2 - a1p),
        a0, a0p, a1, a1p, a2, a2p,
    ])
