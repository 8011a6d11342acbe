"""Nonclassicality and entanglement verdicts from moment reports.

All tests operate on centered fluctuations: below threshold the
down-converted means vanish, while the pump mean would dominate the raw
photon-number moments and mask the effect, so the certification path always
uses the Delta-alpha moments (the uncentered variants remain available
through the accumulator's centering modes but are not used here).

Verdicts follow a k-standard-error rule (default k=3): "violated" when
rhs - lhs > k*sigma, "satisfied" when rhs - lhs < -k*sigma, else
"inconclusive".  Exactly zero signal on both sides reports "no signal".
The witness, the pair audit and the pump-skew check test report entries
against zero at the same k.  A NaN significance never decides a verdict.
The choice of k is a statistical protocol choice and is recorded in every
result.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .moments import MomentReport

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


def _zero_test(moments: MomentReport, names, holds, yes: str, no: str):
    """Test report entries against zero: one (name, value, std_error,
    |significance|) row per name, whether holds(|significance|) for every
    row, and the verdict, `yes` if it does, else `no`.  A NaN significance
    never decides a verdict: it gives False and "inconclusive"."""
    rows = []
    for n in names:
        e = moments[n]
        v = e.value.real
        rows.append((n, v, e.std_error, abs(_significance(v, e.std_error))))
    if any(math.isnan(row[3]) for row in rows):
        return tuple(rows), False, INCONCLUSIVE
    ok = all(holds(row[3]) for row in rows)
    return tuple(rows), ok, yes if ok else no


def _cs_sides(st, partition: str):
    """lhs = <n_i n_j><n_k> and rhs = |<a_i a_j a_k>|^2 from a context's
    targets; numpy-broadcastable, so replicate and running arrays work."""
    qname, pname = PARTITIONS[partition]
    q, p, t = (st.target(n) for n in (qname, pname, "amp_triple"))
    return q.real * p.real, t.real ** 2 + t.imag ** 2


def _quotient(num, den):
    """num / den for complex values or arrays in real operations, each
    rounded on its own: ((ac + bd) + (bc - ad)i) / (c*c + d*d) for
    num = a + bi and den = c + di, so no multiply-add is fused whatever
    the CPU.  All four parts are first scaled by the power of two that
    brings max(|c|, |d|) into [0.5, 1), which changes no bit of the
    quotient but keeps c*c + d*d from underflowing or overflowing; the
    caller mutes the warnings of np.divide."""
    exp = -np.frexp(np.maximum(np.abs(den.real), np.abs(den.imag)))[1]
    a, b, c, d = (np.ldexp(part, exp) for part in (num.real, num.imag,
                                                   den.real, den.imag))
    norm = c * c + d * d
    out = np.empty(np.broadcast_shapes(np.shape(num), np.shape(den)),
                   dtype=np.complex128)
    out.real = np.divide(a * c + b * d, norm)
    out.imag = np.divide(b * c - a * d, norm)
    return out


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
        out = asdict(self)      # every field, in declaration order
        lam = self.lambda_opt
        out["lambda_opt"] = None if lam is None else [lam.real, lam.imag]
        return out


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

    # read in one program per context, then from its cache
    names = (*PARTITIONS[partition], "amp_triple",
             *(("amp_triple_conj",) if has_lambda else ()),
             *(("s",) if can_cross else ()))

    def fn(st):
        st.targets(names)
        lhs, rhs = _cs_sides(st, partition)
        margin = rhs - lhs
        # np.divide: on exact (Python float) values a zero lhs gives inf
        # rather than raising; a replicate whose pair moment is 0 leaves a
        # non-finite lambda, without a warning
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = np.divide(rhs, lhs)
            lam = (_quotient(st.target("amp_triple_conj"), st.target(pname))
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
        out = asdict(self)
        out["triples"] = [dict(zip(("name", "value", "std_error",
                                    "significance"), row))
                          for row in self.triples]
        return out


def separability_witness(moments: MomentReport,
                         sigma_threshold: float = 3.0) -> WitnessResult:
    """Check t1..t4 against zero; all nonzero at k sigma excludes separability."""
    k = check_sigma_threshold(sigma_threshold)
    rows, excluded, verdict = _zero_test(moments, ("t1", "t2", "t3", "t4"),
                                         lambda s: s >= k, EXCLUDED,
                                         INCONCLUSIVE)
    return WitnessResult(triples=rows, excluded=excluded, verdict=verdict,
                         sigma_threshold=k)


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
        out = asdict(self)
        out["entries"] = [dict(zip(("name", "value", "std_error",
                                    "significance", "consistent"), row))
                          for row in self.entries]
        return out


def pair_audit(moments: MomentReport, sigma_threshold: float = 3.0) -> AuditResult:
    """Test the pump-signal quadrature covariances for consistency with zero;
    a NaN significance leaves the audit inconclusive."""
    k = check_sigma_threshold(sigma_threshold)
    rows, all_ok, verdict = _zero_test(
        moments, ("cov_x0_x", "cov_x0_y", "cov_y0_x", "cov_y0_y"),
        lambda s: s <= k, PAIRS_BLIND, PAIRS_PRESENT)
    worst = (math.nan if verdict == INCONCLUSIVE
             else max(row[3] for row in rows))
    return AuditResult(entries=tuple(row + (row[3] <= k,) for row in rows),
                       all_consistent=all_ok, verdict=verdict,
                       max_significance=worst, sigma_threshold=k)


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
        return asdict(self)


def pump_odd_moment(moments: MomentReport, sigma_threshold: float = 3.0) -> OddMomentResult:
    """Gaussianity diagnostic: <(Delta x0)^3> with significance against zero;
    inconclusive when the significance is NaN."""
    k = check_sigma_threshold(sigma_threshold)
    ((_, v, se, sig),), non_gaussian, verdict = _zero_test(
        moments, ("skew_x0",), lambda s: s >= k, NON_GAUSSIAN,
        GAUSSIAN_COMPATIBLE)
    return OddMomentResult(
        value=v, std_error=se, significance=sig,
        non_gaussian=non_gaussian, verdict=verdict, sigma_threshold=k,
    )


def cs_running_average(result) -> dict:
    """Running-average lhs/rhs/ratio curves of the 0|12 test versus sample
    time tau, on reference-centered moments.

    `result` is an ensemble result whose accumulator was built with
    collect_time_series enabled; the estimate at tau_k pools samples
    0..k of every retained trajectory.
    """
    st = result.moments.running_stats()
    lhs, rhs = _cs_sides(st, "0|12")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lhs != 0.0, rhs / lhs, np.nan)
    return {
        "tau": result.config.sample_times(),
        "n_samples": st.n.astype(np.int64),
        "lhs": lhs,
        "rhs": rhs,
        "ratio": ratio,
    }
