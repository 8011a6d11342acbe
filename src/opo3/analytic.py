"""Closed-form perturbative predictions for the below-threshold steady state.

All moments here are O(g^4) leading-order results for quadrature fluctuations
taken about the zeroth-order steady state (pump quadrature referenced to
x0 = 2*mu, down-converted quadratures to 0).  The pump-bearing expressions
therefore fold in the O(g^2) pump-depletion mean shift; the Monte Carlo
estimators in the moments module use the same reference centering by default
so the two sides are directly comparable.

Validity: mu < 1 strictly (below threshold); above mu ~ 0.9 the fluctuations
grow and the leading-order expressions degrade, so a warning is logged.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .criteria import NO_SIGNAL, SATISFIED, VIOLATED
from .model import ModelParams, ValidityError

logger = logging.getLogger(__name__)


def _check_validity(params: ModelParams) -> None:
    if params.mu >= 1.0:
        raise ValidityError(
            f"mu = {params.mu} is at or above threshold; perturbative "
            "expressions require mu < 1"
        )
    if params.mu > 0.9:
        logger.warning(
            "mu = %.4g is close to threshold; perturbative predictions "
            "are unreliable above mu ~ 0.9",
            params.mu,
        )


@dataclass(frozen=True)
class ZerothOrder:
    """Mean quadratures of the deterministic steady state."""

    x0: float
    y0: float = 0.0
    x: float = 0.0
    y: float = 0.0
    xp: float = 0.0
    yp: float = 0.0


def zeroth_order(params: ModelParams) -> ZerothOrder:
    """Steady-state means: x0 = 2*mu, every other quadrature zero."""
    _check_validity(params)
    return ZerothOrder(x0=2.0 * params.mu)


@dataclass(frozen=True)
class TripleCorrelations:
    """The four nonvanishing third-order quadrature moments, all O(g^4).

    t1 = <dx dx+ dx0>, t2 = <dy dy+ dx0>, t3 = <dy dx+ dy0>,
    t4 = <dx dy+ dy0>.  t1 < 0 and t2, t3, t4 > 0 for 0 < mu < 1;
    t3 == t4 identically.
    """

    t1: float
    t2: float
    t3: float
    t4: float

    @property
    def s(self) -> float:
        """Signed sum -t1 + t2 + t3 + t4 entering the Cauchy-Schwarz side."""
        return -self.t1 + self.t2 + self.t3 + self.t4

    def as_tuple(self):
        return (self.t1, self.t2, self.t3, self.t4)


def triple_correlations(params: ModelParams) -> TripleCorrelations:
    mu, gr = params.mu, params.gamma_r
    g4 = params.g**4
    _check_validity(params)
    t1 = -g4 * (mu / (1.0 - mu)) ** 2 * (
        2.0 / (1.0 + mu) + gr / (gr + 2.0 * (1.0 - mu))
    )
    t2 = g4 * (mu / (1.0 + mu)) ** 2 * (
        2.0 / (1.0 - mu) + gr / (gr + 2.0 * (1.0 + mu))
    )
    t3 = g4 * (mu**2 / (1.0 - mu**2)) * (gr / (2.0 + gr))
    return TripleCorrelations(t1=t1, t2=t2, t3=t3, t4=t3)


@dataclass(frozen=True)
class SecondMoments:
    """Even moments entering the Cauchy-Schwarz sides.

    q4  = <(dx^2+dy^2)((dx+)^2+(dy+)^2)>
    vx0 = <(dx0)^2> about the 2*mu reference
    vy0 = <(dy0)^2>, negligible at this order and set to exactly zero
    """

    q4: float
    vx0: float
    vy0: float = 0.0


def second_moments(params: ModelParams) -> SecondMoments:
    mu, gr = params.mu, params.gamma_r
    g4 = params.g**4
    _check_validity(params)
    q4 = 2.0 * g4 * mu**2 * (1.0 / (1.0 - mu) ** 2 + 1.0 / (1.0 + mu) ** 2)
    vx0 = g4 * (mu / (1.0 - mu)) ** 2 * (
        (2.0 / (1.0 + mu)) ** 2
        + (1.0 + ((1.0 - mu) / (1.0 + mu)) ** 2)
        * gr**2
        / (gr**2 + 4.0 * (1.0 - mu) ** 2)
    )
    return SecondMoments(q4=q4, vx0=vx0)


@dataclass(frozen=True)
class OuCovariances:
    """Stationary covariances of the linearized down-converted dynamics.

    xxp = <dx dx+> = g^2 mu/(1-mu), relaxing at rate 1-mu
    yyp = <dy dy+> = -g^2 mu/(1+mu), relaxing at rate 1+mu
    """

    xxp: float
    yyp: float
    rate_x: float
    rate_y: float


def ou_covariances(params: ModelParams) -> OuCovariances:
    mu = params.mu
    g2 = params.g**2
    _check_validity(params)
    return OuCovariances(
        xxp=g2 * mu / (1.0 - mu),
        yyp=-g2 * mu / (1.0 + mu),
        rate_x=1.0 - mu,
        rate_y=1.0 + mu,
    )


def pump_mean_shift(params: ModelParams) -> float:
    """O(g^2) pump depletion: <x0> - 2*mu = -2 g^2 mu/(1 - mu^2).

    This is the mean shift folded into the bracketed 2/(1 +- mu) terms of the
    triple correlations and into the (2/(1+mu))^2 term of vx0 when those
    moments are referenced to x0 = 2*mu.
    """
    mu = params.mu
    _check_validity(params)
    return -2.0 * params.g**2 * mu / (1.0 - mu**2)


@dataclass(frozen=True)
class CsSides:
    """Analytic Cauchy-Schwarz sides in quadrature normalization.

    lhs = q4*vx0 and rhs = s^2 carry a common mapping prefactor
    1/(128 gamma_r g^6) relative to the amplitude-moment form of the
    inequality; it cancels in the ratio, so the verdict depends only on
    (mu, gamma_r).  ratio is None when both sides vanish (mu = 0).
    """

    lhs: float
    rhs: float
    ratio: float | None
    verdict: str


def cs_sides_analytic(params: ModelParams) -> CsSides:
    _check_validity(params)
    sm = second_moments(params)
    tc = triple_correlations(params)
    lhs = sm.q4 * (sm.vx0 + sm.vy0)
    rhs = tc.s**2
    if lhs == 0.0 and rhs == 0.0:
        return CsSides(lhs=lhs, rhs=rhs, ratio=None, verdict=NO_SIGNAL)
    ratio = rhs / lhs
    return CsSides(lhs=lhs, rhs=rhs, ratio=ratio,
                   verdict=VIOLATED if ratio > 1.0 else SATISFIED)


def amplitude_pair(params: ModelParams) -> float:
    """<da0 da0+> implied by the quadrature moments: (vx0+vy0)/(8 gamma_r g^2)."""
    sm = second_moments(params)
    return (sm.vx0 + sm.vy0) / (8.0 * params.gamma_r * params.g**2)


def amplitude_quartic(params: ModelParams) -> float:
    """<da1 da1+ da2 da2+> implied by q4: q4/(16 g^4)."""
    return second_moments(params).q4 / (16.0 * params.g**4)


def amplitude_triple(params: ModelParams) -> float:
    """Re <da1 da2 da0> implied by the quadrature triples: -s/(8 g^2 eps)."""
    return -triple_correlations(params).s / (8.0 * params.g**2 * params.eps)


def amplitude_single(params: ModelParams) -> float:
    """<da_j da_j+> for either down-converted mode: mu^2/(2(1-mu^2))."""
    mu = params.mu
    _check_validity(params)
    return mu**2 / (2.0 * (1.0 - mu**2))


def analytic_moment_report(params: ModelParams):
    """Package the closed forms as a zero-uncertainty MomentReport.

    Covers the targets with leading-order predictions; feeds the criteria
    module and the sweep command's analytic path.  std_error is exactly 0,
    so criterion verdicts on this report are sign-based.
    """
    # local import keeps moments free of any dependency on this module
    from .moments import MomentEstimate, MomentReport

    tc = triple_correlations(params)
    sm = second_moments(params)
    ou = ou_covariances(params)
    amp_pair = amplitude_pair(params)
    amp_quartic = amplitude_quartic(params)
    amp_tri = amplitude_triple(params)
    amp_single = amplitude_single(params)
    values = {
        "t1": tc.t1,
        "t2": tc.t2,
        "t3": tc.t3,
        "t4": tc.t4,
        "s": tc.s,
        "q4": sm.q4,
        "var_x0": sm.vx0,
        "var_y0": sm.vy0,
        "cov_x_xp": ou.xxp,
        "cov_y_yp": ou.yyp,
        "cov_x0_x": 0.0,
        "cov_x0_y": 0.0,
        "cov_y0_x": 0.0,
        "cov_y0_y": 0.0,
        "mean_x0": 2.0 * params.mu + pump_mean_shift(params),
        "mean_y0": 0.0,
        "mean_x": 0.0,
        "mean_y": 0.0,
        "mean_xp": 0.0,
        "mean_yp": 0.0,
        "skew_x0": None,  # no closed form kept; nonzero below threshold
        "amp_n1n2": amp_quartic,
        "amp_n0": amp_pair,
        "amp_n1": amp_single,
        "amp_n2": amp_single,
        "amp_triple": amp_tri,
        "amp_triple_conj": amp_tri,
    }
    entries = {
        name: MomentEstimate.from_values(val)
        for name, val in values.items()
        if val is not None
    }
    return MomentReport(
        entries=entries,
        n_samples=0,
        n_batches=0,
        centering="reference",
        label="analytic",
        params=params,
    )
