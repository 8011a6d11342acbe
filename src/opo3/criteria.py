"""Nonclassicality and entanglement verdicts from moment reports.

All tests operate on centered fluctuations: below threshold the
down-converted means vanish, while the pump mean would dominate the raw
photon-number moments and mask the effect, so the certification path always
uses the Delta-alpha moments (the uncentered variants remain available
through the accumulator's centering modes but are not used here).

Verdicts follow a k-standard-error rule (default k=3): "violated" when
rhs - lhs > k*sigma, "satisfied" when rhs - lhs < -k*sigma, else
"inconclusive".  Exactly zero signal on both sides reports "no signal".
The choice of k is a statistical protocol choice and is recorded in every
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import MomentEstimate, MomentReport, SchemaError

# verdict strings; the analytic module reports with the same ones
VIOLATED = "violated"
SATISFIED = "satisfied"
INCONCLUSIVE = "inconclusive"
NO_SIGNAL = "no signal"

# partition -> (quartic moment of the paired modes, pair moment of the lone mode)
PARTITIONS = {
    "0|12": ("amp_n1n2", "amp_n0"),
    "1|02": ("amp_n2n0", "amp_n1"),
    "2|01": ("amp_n0n1", "amp_n2"),
}


def check_sigma_threshold(value) -> float:
    """The verdict threshold k as a float; it must be finite and > 0."""
    k = float(value)
    if not 0.0 < k < math.inf:
        raise ValueError(f"sigma_threshold must be positive and finite, "
                         f"got {value!r}")
    return k


def _significance(margin: float, se: float) -> float:
    """margin / se in sigmas; NaN, so never a verdict, when either is NaN."""
    if math.isnan(margin) or math.isnan(se):
        return math.nan
    if se > 0:
        return margin / se
    return 0.0 if margin == 0.0 else math.copysign(math.inf, margin)


def _verdict(significance: float, k: float) -> str:
    if significance > k:
        return VIOLATED
    if significance < -k:
        return SATISFIED
    return INCONCLUSIVE


def _cs_sides(st, partition: str):
    """lhs = <n_i n_j><n_k> and rhs = |<a_i a_j a_k>|^2 from a context's
    targets; numpy-broadcastable, so replicate and running arrays work."""
    qname, pname = PARTITIONS[partition]
    q, p, t = (st.target(n) for n in (qname, pname, "amp_triple"))
    return q.real * p.real, t.real ** 2 + t.imag ** 2


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one Cauchy-Schwarz test on centered amplitude moments."""

    name: str
    partition: str
    lhs: float
    rhs: float
    lhs_std_error: float
    rhs_std_error: float
    ratio: float | None
    ratio_std_error: float
    margin: float
    margin_std_error: float
    significance: float
    verdict: str
    lambda_opt: complex | None
    sigma_threshold: float
    n_samples: int
    n_batches: int
    cross_check_rhs: float | None = None
    cross_check_consistent: bool | None = None

    def to_dict(self) -> dict:
        lam = None if self.lambda_opt is None else [self.lambda_opt.real,
                                                    self.lambda_opt.imag]
        return {
            "name": self.name,
            "partition": self.partition,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "lhs_std_error": self.lhs_std_error,
            "rhs_std_error": self.rhs_std_error,
            "ratio": self.ratio,
            "ratio_std_error": self.ratio_std_error,
            "margin": self.margin,
            "margin_std_error": self.margin_std_error,
            "significance": self.significance,
            "verdict": self.verdict,
            "lambda_opt": lam,
            "sigma_threshold": self.sigma_threshold,
            "n_samples": self.n_samples,
            "n_batches": self.n_batches,
            "cross_check_rhs": self.cross_check_rhs,
            "cross_check_consistent": self.cross_check_consistent,
        }


def cs_test(moments: MomentReport, partition: str = "0|12",
            sigma_threshold: float = 3.0) -> CriterionReport:
    """Generalized Cauchy-Schwarz test <n_i n_j><n_k> >= |<a_i a_j a_k>|^2.

    The partition names which mode plays the lone role; all moments are of
    centered fluctuations.  The sides, margin, ratio, lambda and the
    quadrature cross-check are stated once, as one composite of the
    report's targets.  Their errors come from leave-one-trajectory-out
    jackknife over the batches the report was finalized on; a report
    without batch data (analytic) gives exact values with zero errors and
    raises ValueError if a used entry carries a nonzero error.
    """
    if partition not in PARTITIONS:
        raise ValueError(f"unknown partition {partition!r}; "
                         f"choose from {sorted(PARTITIONS)}")
    k = check_sigma_threshold(sigma_threshold)
    pname = PARTITIONS[partition][1]
    has_lambda = "amp_triple_conj" in moments and moments[pname].value != 0
    can_cross = (partition == "0|12" and "s" in moments
                 and moments.params is not None)
    if can_cross:
        cross_denom = 128.0 * moments.params.gamma_r * moments.params.g ** 6

    def fn(st):
        lhs, rhs = _cs_sides(st, partition)
        margin = rhs - lhs
        # np.divide: on exact (Python float) values a zero lhs gives inf
        # rather than raising; has_lambda keeps an exact pair moment nonzero
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.divide(rhs, lhs)
            lam = (st.target("amp_triple_conj") / st.target(pname)
                   if has_lambda else margin * 0.0)
        # rhs rebuilt from the quadrature triple sum (mapping identity);
        # the two estimators agree in expectation, differ by noise
        if can_cross:
            diff = rhs - st.target("s").real ** 2 / cross_denom
        else:
            diff = margin * 0.0
        return [lhs + 0j, rhs + 0j, margin + 0j, ratio + 0j, lam + 0j,
                diff + 0j]

    jk = moments.jackknife(fn)
    lhs, rhs, margin, ratio = (float(v.real) for v in jk.value[:4])
    lhs_se, rhs_se, margin_se, ratio_se = (float(s) for s in jk.std_error[:4])

    name = f"cauchy-schwarz {partition}"
    if lhs == 0.0 and rhs == 0.0:
        return CriterionReport(
            name=name, partition=partition, lhs=0.0, rhs=0.0,
            lhs_std_error=0.0, rhs_std_error=0.0, ratio=None,
            ratio_std_error=0.0, margin=0.0, margin_std_error=0.0,
            significance=0.0, verdict=NO_SIGNAL, lambda_opt=None,
            sigma_threshold=k, n_samples=moments.n_samples,
            n_batches=moments.n_batches,
        )

    significance = _significance(margin, margin_se)
    cross_rhs, cross_ok = None, None
    if can_cross:
        cross_diff = float(jk.value[5].real)
        cross_rhs = rhs - cross_diff
        tol = max(k * float(jk.std_error[5]),
                  1e-9 * max(abs(rhs), abs(cross_rhs)), 1e-300)
        cross_ok = bool(abs(cross_diff) <= tol)

    return CriterionReport(
        name=name, partition=partition, lhs=lhs, rhs=rhs,
        lhs_std_error=lhs_se, rhs_std_error=rhs_se,
        ratio=ratio if lhs != 0.0 else None, ratio_std_error=ratio_se,
        margin=margin, margin_std_error=margin_se,
        significance=significance, verdict=_verdict(significance, k),
        lambda_opt=complex(jk.value[4]) if has_lambda else None,
        sigma_threshold=k,
        n_samples=moments.n_samples, n_batches=moments.n_batches,
        cross_check_rhs=cross_rhs, cross_check_consistent=cross_ok,
    )


EXCLUDED = "all bipartite-separable forms excluded (sufficient condition met)"


@dataclass(frozen=True)
class WitnessResult:
    """Sufficiency witness: all four triple correlations nonzero at k sigma.

    For any state separable across some bipartition at least one of the
    quadrature triple correlations vanishes, so four simultaneous nonzeros
    exclude every such form.  Sufficient, never necessary.
    """

    triples: tuple
    excluded: bool
    verdict: str
    sigma_threshold: float

    def to_dict(self) -> dict:
        return {
            "triples": [
                {"name": n, "value": v, "std_error": s, "significance": sig}
                for (n, v, s, sig) in self.triples
            ],
            "excluded": self.excluded,
            "verdict": self.verdict,
            "sigma_threshold": self.sigma_threshold,
        }


def _as_estimate(obj, name):
    if isinstance(obj, MomentEstimate):
        return obj
    if hasattr(obj, "value") and hasattr(obj, "std_error"):
        return MomentEstimate.from_values(obj.value, obj.std_error)
    raise ValueError(f"triple {name} carries no uncertainty; "
                     "pass estimates with std_error")


def separability_witness(triples, sigma_threshold: float = 3.0) -> WitnessResult:
    """Check t1..t4 against zero; all nonzero at k sigma excludes separability."""
    k = check_sigma_threshold(sigma_threshold)
    names = ("t1", "t2", "t3", "t4")
    if isinstance(triples, MomentReport):
        ests = [triples[n] for n in names]
    elif isinstance(triples, dict):
        ests = [_as_estimate(triples[n], n) for n in names]
    else:
        seq = list(triples)
        if len(seq) != 4:
            raise ValueError("need exactly four triple estimates")
        ests = [_as_estimate(e, n) for e, n in zip(seq, names)]
    rows = []
    all_nonzero = True
    for n, e in zip(names, ests):
        v = e.value.real
        sig = abs(_significance(v, e.std_error))
        rows.append((n, v, e.std_error, sig))
        if not sig >= k:
            all_nonzero = False
    verdict = EXCLUDED if all_nonzero else INCONCLUSIVE
    return WitnessResult(triples=tuple(rows), excluded=all_nonzero,
                         verdict=verdict, sigma_threshold=k)


PAIRS_BLIND = "pump-signal pair correlations consistent with zero (pair-based criteria blind here)"
PAIRS_PRESENT = "pump-signal pair correlations detected"


@dataclass(frozen=True)
class AuditResult:
    """Zero-consistency audit of the four pump-signal covariances."""

    entries: tuple
    all_consistent: bool
    verdict: str
    max_significance: float
    sigma_threshold: float

    def to_dict(self) -> dict:
        return {
            "entries": [
                {"name": n, "value": v, "std_error": s, "significance": sig,
                 "consistent": ok}
                for (n, v, s, sig, ok) in self.entries
            ],
            "all_consistent": self.all_consistent,
            "verdict": self.verdict,
            "max_significance": self.max_significance,
            "sigma_threshold": self.sigma_threshold,
        }


def pair_audit(moments: MomentReport, sigma_threshold: float = 3.0) -> AuditResult:
    """Test the pump-signal quadrature covariances for consistency with zero;
    a NaN significance leaves the audit inconclusive."""
    k = check_sigma_threshold(sigma_threshold)
    names = ("cov_x0_x", "cov_x0_y", "cov_y0_x", "cov_y0_y")
    rows = []
    for n in names:
        e = moments[n]
        v = e.value.real
        sig = abs(_significance(v, e.std_error))
        rows.append((n, v, e.std_error, sig, sig <= k))
    all_ok = all(row[4] for row in rows)
    if any(math.isnan(row[3]) for row in rows):
        worst, verdict = math.nan, INCONCLUSIVE
    else:
        worst = max(row[3] for row in rows)
        verdict = PAIRS_BLIND if all_ok else PAIRS_PRESENT
    return AuditResult(entries=tuple(rows), all_consistent=all_ok,
                       verdict=verdict, max_significance=worst,
                       sigma_threshold=k)


NON_GAUSSIAN = "non-Gaussian pump fluctuations"
GAUSSIAN_COMPATIBLE = "consistent with Gaussian pump fluctuations"


@dataclass(frozen=True)
class OddMomentResult:
    """Third central moment of the pump amplitude quadrature."""

    value: float
    std_error: float
    significance: float
    non_gaussian: bool
    verdict: str
    sigma_threshold: float

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "significance": self.significance,
            "non_gaussian": self.non_gaussian,
            "verdict": self.verdict,
            "sigma_threshold": self.sigma_threshold,
        }


def pump_odd_moment(moments: MomentReport, sigma_threshold: float = 3.0) -> OddMomentResult:
    """Gaussianity diagnostic: <(Delta x0)^3> with significance against zero;
    inconclusive when the significance is NaN."""
    k = check_sigma_threshold(sigma_threshold)
    e = moments["skew_x0"]
    v = e.value.real
    sig = abs(_significance(v, e.std_error))
    non_gaussian = sig >= k
    if math.isnan(sig):
        verdict = INCONCLUSIVE
    else:
        verdict = NON_GAUSSIAN if non_gaussian else GAUSSIAN_COMPATIBLE
    return OddMomentResult(
        value=v, std_error=e.std_error, significance=sig,
        non_gaussian=non_gaussian, verdict=verdict, sigma_threshold=k,
    )


def cs_running_average(result, partition: str = "0|12",
                       centering: str = "reference") -> dict:
    """Running-average lhs/rhs/ratio curves versus sample time tau.

    `result` is an ensemble result whose accumulator was built with
    collect_time_series enabled; the estimate at tau_k pools samples
    0..k of every retained trajectory.
    """
    if partition not in PARTITIONS:
        raise ValueError(f"unknown partition {partition!r}")
    st = result.moments.running_stats(centering)
    lhs, rhs = _cs_sides(st, partition)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lhs != 0.0, rhs / lhs, np.nan)
    return {
        "tau": np.asarray(result.sample_times, dtype=np.float64),
        "n_samples": st.n.astype(np.int64),
        "lhs": lhs,
        "rhs": rhs,
        "ratio": ratio,
    }
