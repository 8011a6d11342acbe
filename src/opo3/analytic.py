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
import sys
from dataclasses import dataclass

from .criteria import NO_SIGNAL, SATISFIED, VIOLATED
from .model import ModelParams, ValidityError

logger = logging.getLogger(__name__)


def _closed_forms(params: ModelParams) -> dict:
    """Every closed form, keyed by its MomentReport target name.

    Raises ValidityError at mu >= 1 and where g**8, the scale of the
    Cauchy-Schwarz sides, underflows (g below about 3.5e-39); logs one
    warning above mu = 0.9.
    The triples t1 = <dx dx+ dx0> < 0, t2 = <dy dy+ dx0>, t3 = <dy dx+ dy0>
    and t4 = <dx dy+ dy0> = t3 are O(g^4); s = -t1 + t2 + t3 + t4 enters
    the Cauchy-Schwarz side.  var_x0 is taken about the 2*mu reference;
    mean_x0 adds the O(g^2) pump depletion `shift`, which the 2/(1 +- mu)
    terms of the triples and var_x0 fold in.  No closed form is kept for
    skew_x0, which is nonzero below threshold.
    """
    mu, gr, g = params.mu, params.gamma_r, params.g
    if mu >= 1.0:
        raise ValidityError(
            f"mu = {mu} is at or above threshold; perturbative "
            "expressions require mu < 1"
        )
    if g**8 < sys.float_info.min:
        raise ValidityError(
            f"g = {g} is too small: the closed forms scale as g**8, which "
            "underflows double precision"
        )
    if mu > 0.9:
        logger.warning(
            "mu = %.4g is close to threshold; perturbative predictions "
            "are unreliable above mu ~ 0.9",
            mu,
        )
    g2 = g**2
    g4 = g**4
    t1 = -g4 * (mu / (1.0 - mu)) ** 2 * (
        2.0 / (1.0 + mu) + gr / (gr + 2.0 * (1.0 - mu))
    )
    t2 = g4 * (mu / (1.0 + mu)) ** 2 * (
        2.0 / (1.0 - mu) + gr / (gr + 2.0 * (1.0 + mu))
    )
    t3 = g4 * (mu**2 / (1.0 - mu**2)) * (gr / (2.0 + gr))
    t4 = t3
    s = -t1 + t2 + t3 + t4
    q4 = 2.0 * g4 * mu**2 * (1.0 / (1.0 - mu) ** 2 + 1.0 / (1.0 + mu) ** 2)
    var_x0 = g4 * (mu / (1.0 - mu)) ** 2 * (
        (2.0 / (1.0 + mu)) ** 2
        + (1.0 + ((1.0 - mu) / (1.0 + mu)) ** 2)
        * gr**2
        / (gr**2 + 4.0 * (1.0 - mu) ** 2)
    )
    var_y0 = 0.0
    shift = -2.0 * g2 * mu / (1.0 - mu**2)
    amp_single = mu**2 / (2.0 * (1.0 - mu**2))
    amp_triple = -s / (8.0 * g2 * params.eps)
    return {
        "t1": t1,
        "t2": t2,
        "t3": t3,
        "t4": t4,
        "s": s,
        "q4": q4,  # <(dx^2+dy^2)((dx+)^2+(dy+)^2)>
        "var_x0": var_x0,
        "var_y0": var_y0,  # negligible at this order
        "cov_x_xp": g2 * mu / (1.0 - mu),  # <dx dx+>, relaxing at 1 - mu
        "cov_y_yp": -g2 * mu / (1.0 + mu),  # <dy dy+>, relaxing at 1 + mu
        # the pump-signal pairs vanish at this order, as do all other means
        "cov_x0_x": 0.0,
        "cov_x0_y": 0.0,
        "cov_y0_x": 0.0,
        "cov_y0_y": 0.0,
        "mean_x0": 2.0 * mu + shift,
        "mean_y0": 0.0,
        "mean_x": 0.0,
        "mean_y": 0.0,
        "mean_xp": 0.0,
        "mean_yp": 0.0,
        "amp_n1n2": q4 / (16.0 * g4),  # <da1 da1+ da2 da2+>
        "amp_n0": (var_x0 + var_y0) / (8.0 * gr * g2),  # <da0 da0+>
        "amp_n1": amp_single,  # <da_j da_j+>
        "amp_n2": amp_single,
        "amp_triple": amp_triple,  # Re <da1 da2 da0>
        "amp_triple_conj": amp_triple,
    }


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
    forms = _closed_forms(params)
    lhs = forms["q4"] * (forms["var_x0"] + forms["var_y0"])
    rhs = forms["s"] ** 2
    if lhs == 0.0 and rhs == 0.0:
        return CsSides(lhs=lhs, rhs=rhs, ratio=None, verdict=NO_SIGNAL)
    ratio = rhs / lhs
    return CsSides(lhs=lhs, rhs=rhs, ratio=ratio,
                   verdict=VIOLATED if ratio > 1.0 else SATISFIED)


def analytic_moment_report(params: ModelParams):
    """Package the closed forms as a zero-uncertainty MomentReport.

    Covers the targets with leading-order predictions; feeds the criteria
    module and the sweep command's analytic path.  std_error is exactly 0,
    so criterion verdicts on this report are sign-based.
    """
    # local import keeps moments free of any dependency on this module
    from .moments import MomentEstimate, MomentReport

    entries = {name: MomentEstimate(complex(val))
               for name, val in _closed_forms(params).items()}
    return MomentReport(
        entries=entries,
        n_samples=0,
        n_batches=0,
        centering="reference",
        label="analytic",
        params=params,
    )
