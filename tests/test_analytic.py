"""Closed-form moment predictions against frozen high-precision values.

The frozen constants were produced by an independent arbitrary-precision
(mpmath, 40 digits) evaluation of the same closed forms, with inputs taken
as the binary doubles nearest the quoted decimals so the comparison is
meaningful at rel ~1e-12.
"""

import logging
import math

import numpy as np
import pytest

from opo3 import (
    ModelParams,
    ValidityError,
    analytic_moment_report,
    cs_sides_analytic,
    cs_test,
)

# frozen oracle values (mpmath, 40 digits, binary-double inputs)
T1_COEFF_07_100 = -11.817201366961624          # t1/g^4 at mu=0.7, gamma_r=100
S_COEFF_07_100 = 14.995401687177699            # s/g^4, same point
RATIO_07_100 = 1.5230345115117114              # rhs/lhs, any g
RATIO_07_001 = 0.68880480148245683             # at gamma_r=0.01
LHS_COEFF_07_100 = 147.64082498473488          # lhs/g^8
RHS_COEFF_07_100 = 224.86207175981177          # rhs/g^8
LHS_COEFF_07_001 = 84.626727539056302
RHS_COEFF_07_001 = 58.291296262649639
AMP_LHS_07_100_G005 = 2.8836098629831032e-5    # amplitude normalization, g=0.05
AMP_RHS_07_100_G005 = 4.3918373390588236e-5
AMP_LHS_07_001_G005 = 0.16528657722471934
AMP_RHS_07_001_G005 = 0.11385018801298758


def params(mu, gamma_r, g=0.05):
    return ModelParams(mu=mu, gamma_r=gamma_r, g=g)


def forms(mu, gamma_r, g=0.05):
    """The analytic report's values, all real, by target name."""
    rep = analytic_moment_report(params(mu, gamma_r, g))
    return {name: est.value.real for name, est in rep.entries.items()}


REPORT_TARGETS = (
    "t1", "t2", "t3", "t4", "s", "q4", "var_x0", "var_y0",
    "cov_x_xp", "cov_y_yp", "cov_x0_x", "cov_x0_y", "cov_y0_x", "cov_y0_y",
    "mean_x0", "mean_y0", "mean_x", "mean_y", "mean_xp", "mean_yp",
    "amp_n1n2", "amp_n0", "amp_n1", "amp_n2", "amp_triple", "amp_triple_conj",
)


class TestTripleCorrelations:
    def test_frozen_point_05_2(self):
        f = forms(0.5, 2.0, g=1.0)
        assert f["t1"] == pytest.approx(-2.0, rel=1e-13)
        assert f["t2"] == pytest.approx(22.0 / 45.0, rel=1e-13)
        assert f["t3"] == pytest.approx(1.0 / 6.0, rel=1e-13)
        assert f["t4"] == f["t3"]

    def test_frozen_point_07_100(self):
        g = 0.05
        f = forms(0.7, 100.0, g=g)
        assert f["t1"] == pytest.approx(T1_COEFF_07_100 * g**4, rel=5e-13)
        assert f["s"] == pytest.approx(S_COEFF_07_100 * g**4, rel=5e-13)

    def test_physical_coupling_scale(self):
        # at a realistic cavity coupling the leading triple is ~ -3.00e-8
        f = forms(0.7, 100.0, g=0.0071)
        assert f["t1"] == pytest.approx(-3.00e-8, rel=2e-3)

    def test_signs_and_degeneracy_random_grid(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            mu = float(rng.uniform(1e-3, 0.999))
            gr = float(10.0 ** rng.uniform(-3, 3))
            f = forms(mu, gr)
            assert f["t1"] < 0
            assert f["t2"] > 0 and f["t3"] > 0 and f["t4"] > 0
            assert f["t3"] == f["t4"]
            assert f["s"] == -f["t1"] + f["t2"] + f["t3"] + f["t4"]

    def test_vanish_at_mu_zero(self):
        f = forms(0.0, 5.0)
        assert (f["t1"], f["t2"], f["t3"], f["t4"]) == (0.0, 0.0, 0.0, 0.0)
        assert f["s"] == 0.0

    def test_g4_scaling_exact(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            mu = float(rng.uniform(0.05, 0.9))
            gr = float(10.0 ** rng.uniform(-2, 2))
            g = float(10.0 ** rng.uniform(-3, 0))
            a = forms(mu, gr, g)
            b = forms(mu, gr, 2.0 * g)
            # (2g)^4 = 16 g^4 exactly in binary arithmetic
            assert b["t1"] == 16.0 * a["t1"]
            assert b["t2"] == 16.0 * a["t2"]
            assert b["t3"] == 16.0 * a["t3"]


class TestSecondMoments:
    def test_frozen_values(self):
        f = forms(0.5, 2.0, g=1.0)
        assert f["q4"] == pytest.approx(20.0 / 9.0, rel=1e-13)
        assert f["var_x0"] == pytest.approx(8.0 / 3.0, rel=1e-13)
        assert f["var_y0"] == 0.0
        f1 = forms(0.5, 1.0, g=1.0)
        assert f1["var_x0"] == pytest.approx(7.0 / 3.0, rel=1e-13)

    def test_mu_zero(self):
        f = forms(0.0, 1.0)
        assert f["q4"] == 0.0 and f["var_x0"] == 0.0

    def test_positive_and_g4_scaling(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            mu = float(rng.uniform(1e-3, 0.95))
            gr = float(10.0 ** rng.uniform(-3, 3))
            g = float(10.0 ** rng.uniform(-2, 0))
            f = forms(mu, gr, g)
            assert f["q4"] > 0 and f["var_x0"] > 0
            f2 = forms(mu, gr, 2.0 * g)
            assert f2["q4"] == 16.0 * f["q4"]
            assert f2["var_x0"] == 16.0 * f["var_x0"]


def amplitude_sides(p):
    """Cauchy-Schwarz sides from the report's amplitude entries."""
    rep = analytic_moment_report(p)
    return (rep["amp_n1n2"].value.real * rep["amp_n0"].value.real,
            rep["amp_triple"].value.real ** 2)


class TestCsSides:
    def test_violated_point(self):
        g = 0.05
        cs = cs_sides_analytic(params(0.7, 100.0, g=g))
        assert cs.ratio == pytest.approx(RATIO_07_100, rel=1e-12)
        assert cs.lhs == pytest.approx(LHS_COEFF_07_100 * g**8, rel=5e-13)
        assert cs.rhs == pytest.approx(RHS_COEFF_07_100 * g**8, rel=5e-13)
        assert cs.verdict == "violated"
        # coarse figures for the same point
        assert cs.ratio == pytest.approx(1.52, rel=5e-3)

    def test_satisfied_point(self):
        g = 0.05
        cs = cs_sides_analytic(params(0.7, 0.01, g=g))
        assert cs.ratio == pytest.approx(RATIO_07_001, rel=1e-12)
        assert cs.lhs == pytest.approx(LHS_COEFF_07_001 * g**8, rel=5e-13)
        assert cs.rhs == pytest.approx(RHS_COEFF_07_001 * g**8, rel=5e-13)
        assert cs.verdict == "satisfied"
        assert cs.ratio == pytest.approx(0.69, rel=5e-3)

    def test_ratio_g_invariance(self):
        rng = np.random.default_rng(109)
        for _ in range(50):
            mu = float(rng.uniform(0.05, 0.9))
            gr = float(10.0 ** rng.uniform(-3, 3))
            r1 = cs_sides_analytic(params(mu, gr, g=0.05)).ratio
            r2 = cs_sides_analytic(params(mu, gr, g=1.7)).ratio
            assert r2 == pytest.approx(r1, rel=1e-11)

    def test_underflowing_coupling_rejected(self):
        # the sides scale as g^8: down to g = 1e-38 the ratio is the one
        # of any g, while below about 3.5e-39 g^8 underflows and both
        # functions refuse rather than lose the ratio
        ratio = cs_sides_analytic(params(0.5, 1.0)).ratio
        for g in (1e-38, 1e-30):
            p = params(0.5, 1.0, g=g)
            cs, res = cs_sides_analytic(p), cs_test(analytic_moment_report(p))
            assert cs.verdict == res.verdict == "violated"
            assert cs.ratio == pytest.approx(ratio, rel=1e-11)
            assert res.ratio == pytest.approx(ratio, rel=1e-11)
        for g in (1e-39, 1e-50, 1e-82):
            for fn in (analytic_moment_report, cs_sides_analytic):
                with pytest.raises(ValidityError, match="too small"):
                    fn(params(0.5, 1.0, g=g))

    def test_overflowing_coupling_rejected(self):
        # above about 1.3e38 g^8 overflows, and closer to threshold the
        # sides overflow at smaller g: both functions refuse by name
        for mu, g in ((0.5, 1e39), (0.5, 1e300), (0.9999999, 1e37)):
            for fn in (analytic_moment_report, cs_sides_analytic):
                with pytest.raises(ValidityError, match="too large"):
                    fn(params(mu, 1.0, g=g))
        ratio = cs_sides_analytic(params(0.5, 1.0)).ratio
        cs = cs_sides_analytic(params(0.5, 1.0, g=1e30))
        assert cs.ratio == pytest.approx(ratio, rel=1e-11)
        # gamma_r**2 overflows above about 1.3e154
        for fn in (analytic_moment_report, cs_sides_analytic):
            with pytest.raises(ValidityError, match="gamma_r = 1e.200 is "
                               "too large"):
                fn(params(0.5, 1e200))
            assert fn(params(0.5, 1e150)) is not None

    def test_gamma_r_ordering_at_07(self):
        hi = cs_sides_analytic(params(0.7, 100.0)).ratio
        lo = cs_sides_analytic(params(0.7, 0.01)).ratio
        assert hi > 1.0 > lo

    def test_no_signal_at_mu_zero(self):
        cs = cs_sides_analytic(params(0.0, 1.0))
        assert cs.lhs == 0.0 and cs.rhs == 0.0
        assert cs.ratio is None
        assert cs.verdict == "no signal"

    def test_amplitude_normalization_cancellation(self):
        # the 1/(128 gamma_r g^6) mapping prefactor must cancel in the ratio:
        # amplitude-normalized sides give the same ratio as the quadrature form
        rng = np.random.default_rng(113)
        for _ in range(50):
            p = params(float(rng.uniform(0.05, 0.9)),
                       float(10.0 ** rng.uniform(-3, 3)),
                       g=float(10.0 ** rng.uniform(-2, 0)))
            quad = cs_sides_analytic(p)
            amp_lhs, amp_rhs = amplitude_sides(p)
            assert amp_rhs / amp_lhs == pytest.approx(quad.ratio, rel=1e-11)

    def test_amplitude_sides_frozen(self):
        amp_lhs, amp_rhs = amplitude_sides(params(0.7, 100.0, g=0.05))
        assert amp_lhs == pytest.approx(AMP_LHS_07_100_G005, rel=5e-13)
        assert amp_rhs == pytest.approx(AMP_RHS_07_100_G005, rel=5e-13)
        amp_lhs, amp_rhs = amplitude_sides(params(0.7, 0.01, g=0.05))
        assert amp_lhs == pytest.approx(AMP_LHS_07_001_G005, rel=5e-13)
        assert amp_rhs == pytest.approx(AMP_RHS_07_001_G005, rel=5e-13)


def threshold_warnings(caplog):
    return [r for r in caplog.records if "close to threshold" in r.message]


class TestZerothOrderAndShift:
    def test_values(self):
        # the zeroth-order steady state is the g -> 0 limit of the means
        assert forms(0.0, 1.0)["mean_x0"] == 0.0
        assert forms(0.7, 1.0, g=1e-9)["mean_x0"] == pytest.approx(
            1.4, rel=1e-15)
        f = forms(0.7, 1.0)
        for name in ("mean_y0", "mean_x", "mean_y", "mean_xp", "mean_yp"):
            assert f[name] == 0.0, name

    def test_near_threshold_warns_but_evaluates(self, caplog):
        with caplog.at_level(logging.WARNING, logger="opo3.analytic"):
            f = forms(0.999, 1.0, g=1e-9)
        assert f["mean_x0"] == pytest.approx(1.998, rel=1e-12)
        assert len(threshold_warnings(caplog)) == 1

    def test_one_warning_per_call(self, caplog):
        p = params(0.95, 1.0)
        with caplog.at_level(logging.WARNING, logger="opo3.analytic"):
            analytic_moment_report(p)
        assert len(threshold_warnings(caplog)) == 1
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="opo3.analytic"):
            cs_sides_analytic(p)
        assert len(threshold_warnings(caplog)) == 1
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="opo3.analytic"):
            analytic_moment_report(params(0.9, 1.0))
        assert threshold_warnings(caplog) == []

    def test_above_threshold_rejected(self):
        for fn in (analytic_moment_report, cs_sides_analytic):
            with pytest.raises(ValidityError):
                fn(params(1.0, 1.0))
            with pytest.raises(ValidityError):
                fn(params(1.3, 1.0))

    def test_pump_mean_shift(self):
        def shift(p):
            return analytic_moment_report(p)["mean_x0"].value.real - 2.0 * p.mu

        assert shift(params(0.5, 1.0, g=0.05)) == pytest.approx(
            -2.0 * 0.05**2 * 0.5 / 0.75, rel=1e-13)
        assert shift(params(0.0, 1.0)) == 0.0


class TestOuCovariances:
    def test_values(self):
        f = forms(0.5, 1.0, g=0.05)
        assert f["cov_x_xp"] == pytest.approx(0.05**2 * 0.5 / 0.5, rel=1e-13)
        assert f["cov_y_yp"] == pytest.approx(-(0.05**2) * 0.5 / 1.5,
                                              rel=1e-13)

    def test_amplitude_single(self):
        f = forms(0.5, 1.0)
        assert f["amp_n1"] == pytest.approx(0.25 / 1.5, rel=1e-13)
        assert f["amp_n2"] == f["amp_n1"]
        # relation to the OU covariances: 4 g^2 <da1 da1+> = xxp + yyp
        rng = np.random.default_rng(127)
        for _ in range(30):
            p = params(float(rng.uniform(0.05, 0.9)),
                       float(10.0 ** rng.uniform(-2, 2)),
                       g=float(10.0 ** rng.uniform(-2, 0)))
            f = forms(p.mu, p.gamma_r, p.g)
            assert f["amp_n1"] == pytest.approx(
                (f["cov_x_xp"] + f["cov_y_yp"]) / (4.0 * p.g**2), rel=1e-11)


class TestAnalyticReport:
    def test_entries_and_metadata(self):
        p = params(0.5, 1.0, g=0.05)
        rep = analytic_moment_report(p)
        assert rep.label == "analytic"
        assert rep.params is p
        assert rep.n_samples == 0
        assert tuple(rep.entries) == REPORT_TARGETS
        for name, est in rep.entries.items():
            assert est.value.imag == 0.0, name
            assert est.std_error == 0.0 and est.std_error_imag == 0.0, name
        f = forms(0.5, 1.0, g=0.05)
        assert f["t3"] == f["t4"]
        assert f["s"] == -f["t1"] + f["t2"] + f["t3"] + f["t4"]
        assert f["var_y0"] == 0.0
        assert f["amp_triple_conj"] == f["amp_triple"]
        assert f["mean_x0"] == pytest.approx(
            2.0 * p.mu - 2.0 * p.g**2 * p.mu / (1.0 - p.mu**2), rel=1e-13)
        # the analytic sides are products of the same entries
        cs = cs_sides_analytic(p)
        assert cs.lhs == f["q4"] * (f["var_x0"] + f["var_y0"])
        assert cs.rhs == f["s"] ** 2
        # no closed form is kept for the pump skewness
        assert "skew_x0" not in rep

    def test_feeds_cs_test(self):
        rep = analytic_moment_report(params(0.7, 100.0, g=0.05))
        res = cs_test(rep)
        assert res.verdict == "violated"
        assert res.ratio == pytest.approx(RATIO_07_100, rel=1e-11)
        assert math.isinf(res.significance) and res.significance > 0
        rep = analytic_moment_report(params(0.7, 0.01, g=0.05))
        res = cs_test(rep)
        assert res.verdict == "satisfied"
        assert res.ratio == pytest.approx(RATIO_07_001, rel=1e-11)
