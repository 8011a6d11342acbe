"""Nonclassicality verdicts: Cauchy-Schwarz tests against classical-model
ensembles and simulation data, the separability witness, the pump-signal
pair audit, and the pump Gaussianity diagnostic."""

import math
import tracemalloc

import numpy as np
import pytest

from opo3 import (
    ChannelSpec,
    CriterionReport,
    ModelParams,
    MomentAccumulator,
    MomentEstimate,
    MomentReport,
    MomentSchema,
    SchemaError,
    SimConfig,
    TargetSpec,
    amplitude_schema,
    analytic_moment_report,
    cs_running_average,
    cs_sides_analytic,
    cs_test,
    fixed_point,
    opo_schema,
    pair_audit,
    pump_odd_moment,
    run_ensemble,
    separability_witness,
    state_channels,
)
from opo3 import _kernels, criteria, moments

PARTITIONS = ("0|12", "1|02", "2|01")


def classical_ensemble(seed, n=4000):
    """c-number samples from a classical state: a mixture of coherent
    amplitudes blurred by classical Gaussian noise, with a+ = conj(a)."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    comps = (rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k)))
    comps *= rng.uniform(0.3, 2.0, size=(3, 1))
    weights = rng.dirichlet(np.ones(k))
    pick = rng.choice(k, size=n, p=weights)
    alpha = comps[:, pick]
    sigma = rng.uniform(0.0, 0.5)
    alpha = alpha + sigma * (rng.standard_normal((3, n))
                             + 1j * rng.standard_normal((3, n)))
    chans = np.empty((6, n), dtype=np.complex128)
    chans[0] = alpha[0]
    chans[1] = np.conj(alpha[0])
    chans[2] = alpha[1]
    chans[3] = np.conj(alpha[1])
    chans[4] = alpha[2]
    chans[5] = np.conj(alpha[2])
    return chans


def classical_report(chans, n_batches=8):
    acc = MomentAccumulator(amplitude_schema())
    n = chans.shape[1]
    step = n // n_batches
    acc.add_batches(chans.reshape(6, n_batches, step))
    return acc.finalize(centering="sample")


class TestClassicalSanity:
    def test_never_violated_on_classical_data(self):
        for seed in range(10):
            chans = classical_ensemble(1000 + seed)
            rep = classical_report(chans)
            for part in PARTITIONS:
                r = cs_test(rep, partition=part)
                assert r.verdict != "violated", (seed, part)
                # the inequality holds exactly on any classical empirical
                # measure, not just statistically
                assert r.margin <= 1e-12 * max(abs(r.lhs), 1.0), (seed, part)

    def test_lambda_form_nonnegative(self):
        # <|da1 da2 + conj(lam) conj(da0)|^2> >= 0 for every lam; its
        # minimum over lam equals quart - rhs/pair
        rng = np.random.default_rng(77)
        for seed in range(10):
            chans = classical_ensemble(2000 + seed)
            d = chans - chans.mean(axis=1, keepdims=True)
            f = d[2] * d[4]            # da1 da2
            h = d[0]                   # da0
            rep = classical_report(chans)
            r = cs_test(rep)
            lams = [r.lambda_opt, -r.lambda_opt,
                    complex(rng.standard_normal(), rng.standard_normal())]
            for lam in lams:
                m = np.mean(np.abs(f + np.conj(lam) * np.conj(h)) ** 2)
                assert m >= -1e-12
            quart = np.mean(np.abs(f) ** 2)
            pair = np.mean(np.abs(h) ** 2)
            tri = np.mean(f * h)
            assert quart - abs(tri) ** 2 / pair >= -1e-12 * max(quart, 1.0)

    def test_lambda_opt_closed_form(self):
        chans = classical_ensemble(31)
        rep = classical_report(chans)
        r = cs_test(rep)
        expect = rep["amp_triple_conj"].value / rep["amp_n0"].value
        assert r.lambda_opt == pytest.approx(expect, rel=1e-9)

    def test_lambda_of_tiny_pair_moment(self):
        # the pump amplitudes scaled by 2**-266 put the pair moment near
        # 1e-160, whose square underflows; the triple scales by that exact
        # power of two and the pair by its square, so lambda must scale by
        # 2**266, bit for bit
        chans = classical_ensemble(31)
        lam = cs_test(classical_report(chans)).lambda_opt
        pump = chans[:2]
        rep = classical_report(np.concatenate(
            [np.ldexp(pump.real, -266) + 1j * np.ldexp(pump.imag, -266),
             chans[2:]]))
        assert 1e-161 < abs(rep["amp_n0"].value) < 1e-159
        big = cs_test(rep).lambda_opt
        assert big == complex(math.ldexp(lam.real, 266),
                              math.ldexp(lam.imag, 266))

    def test_quotient_range(self):
        # the textbook quotient on the scaled parts matches complex
        # division where c*c + d*d alone would underflow or overflow
        rng = np.random.default_rng(5)
        num = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        den = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        for scale in (1e-200, 1e-160, 1.0, 1e160, 1e200):
            got = criteria._quotient(num * scale, den * scale)
            np.testing.assert_allclose(got, num / den, rtol=1e-15)


class TestFrozenReport:
    def test_growth_after_finalize_leaves_report_unchanged(self):
        # a report keeps the batches it was finalized on; batches added to
        # the accumulator afterwards must not leak into its errors
        acc = MomentAccumulator(amplitude_schema())
        acc.add_batches(classical_ensemble(4101, n=400).reshape(6, 40, 10))
        rep = acc.finalize(centering="sample")
        before = [cs_test(rep, partition=part) for part in PARTITIONS]
        acc.add_batches(classical_ensemble(4102, n=4000).reshape(6, 400, 10))
        assert acc.finalize(centering="sample").n_batches == 440
        after = [cs_test(rep, partition=part) for part in PARTITIONS]
        assert after == before
        assert all(r.n_batches == 40 for r in after)

    def test_frozen_sums_are_read_only(self):
        rep = classical_report(classical_ensemble(4103))
        assert rep.batch_sums.shape == (rep.schema.n_keys, rep.n_batches)
        assert rep.batch_counts.sum() == rep.n_samples
        assert rep.batch_totals.shape == (rep.schema.n_keys,)
        for frozen in (*rep.batch_sums.pages, rep.batch_counts,
                       rep.batch_totals):
            with pytest.raises(ValueError, match="read-only"):
                frozen[0] = 0

    def test_report_jackknife_uses_its_own_totals(self):
        # finalize's totals serve the report's jackknife: bitwise what the
        # accumulator gives now, and still the report's own after growth
        acc = MomentAccumulator(amplitude_schema())
        acc.add_batches(classical_ensemble(4105, n=400).reshape(6, 40, 10))
        rep = acc.finalize(centering="sample")

        def fn(st):
            return [st.target("amp_n1n2") * st.target("amp_n0"),
                    st.target("amp_triple")]

        def bits(jk):
            return [np.asarray(v).tobytes() for v in
                    (jk.value, jk.std_error, jk.std_error_imag)]

        assert np.array_equal(rep.batch_totals,
                              rep.batch_sums.joined().sum(axis=1))
        before = bits(rep.jackknife(fn))
        assert before == bits(acc.finalize(centering="sample").jackknife(fn))
        acc.add_batches(classical_ensemble(4106, n=400).reshape(6, 40, 10))
        assert bits(acc.finalize(centering="sample").jackknife(fn)) != before
        assert bits(rep.jackknife(fn)) == before

    def test_no_batch_data_refuses_errors(self):
        rep = classical_report(classical_ensemble(4104))
        bare = MomentReport(entries=rep.entries, n_samples=rep.n_samples,
                            n_batches=rep.n_batches, centering=rep.centering)
        with pytest.raises(ValueError, match="no batch data"):
            cs_test(bare)


class TestSignificance:
    @pytest.mark.parametrize("margin,se", [(5.0, math.nan), (-5.0, math.nan),
                                           (math.nan, 1.0), (math.nan, 0.0)])
    def test_nan_never_decides_a_verdict(self, margin, se):
        sig = criteria._significance(margin, se)
        assert math.isnan(sig)
        assert criteria._verdict(sig, 3.0) == "inconclusive"
        # the same estimate as the pump skew and as one pump-signal
        # covariance among three that are consistent with zero
        zero = MomentEstimate(0j, 1.0)
        bad = MomentEstimate(complex(margin), se)
        entries = {"skew_x0": bad, "cov_x0_x": zero, "cov_x0_y": bad,
                   "cov_y0_x": zero, "cov_y0_y": zero}
        rep = MomentReport(entries=entries, n_samples=100, n_batches=10,
                           centering="reference")
        odd = pump_odd_moment(rep)
        assert math.isnan(odd.significance) and not odd.non_gaussian
        assert odd.verdict == "inconclusive"
        audit = pair_audit(rep)
        assert math.isnan(audit.max_significance)
        assert audit.verdict == "inconclusive" and not audit.all_consistent

    @pytest.mark.parametrize("value,se,sig", [
        (-2.0, 0.0, math.inf), (0.0, 0.0, 0.0), (0.5, 0.25, 2.0),
        (-0.5, 0.25, 2.0), (math.nan, 1.0, math.nan),
        (1.0, math.nan, math.nan)])
    @pytest.mark.parametrize("k", [1.5, 2.0, 3.0])
    def test_zero_tests_share_one_rule(self, value, se, sig, k):
        # the witness, the audit and the skew check test the same estimate
        # against zero: nonzero at or above k, consistent with zero at or
        # below it (so both exactly at k), and neither on a NaN; a zero
        # error gives an infinite significance under a nonzero value
        est = MomentEstimate(complex(value), se)
        names = ("t1", "t2", "t3", "t4", "skew_x0", "cov_x0_x", "cov_x0_y",
                 "cov_y0_x", "cov_y0_y")
        rep = MomentReport(entries=dict.fromkeys(names, est), n_samples=100,
                           n_batches=10, centering="reference")
        w = separability_witness(rep, sigma_threshold=k)
        audit = pair_audit(rep, sigma_threshold=k)
        odd = pump_odd_moment(rep, sigma_threshold=k)
        rows = [repr((n, value, se, sig)) for n in names]
        assert [repr(row) for row in w.triples] == rows[:4]
        assert repr(odd.to_dict()) == repr(dict(
            value=value, std_error=se, significance=sig,
            non_gaussian=sig >= k, verdict=odd.verdict, sigma_threshold=k))
        assert [repr(row[:4]) for row in audit.entries] == rows[5:]
        assert [row[4] for row in audit.entries] == [sig <= k] * 4
        nonzero, zero = sig >= k, sig <= k
        if math.isnan(sig):
            assert w.verdict == audit.verdict == odd.verdict == "inconclusive"
            assert math.isnan(audit.max_significance)
        else:
            assert w.verdict == (criteria.EXCLUDED if nonzero
                                 else "inconclusive")
            assert audit.verdict == (criteria.PAIRS_BLIND if zero
                                     else criteria.PAIRS_PRESENT)
            assert odd.verdict == (criteria.NON_GAUSSIAN if nonzero
                                   else criteria.GAUSSIAN_COMPATIBLE)
            assert audit.max_significance == sig
        assert (w.excluded, audit.all_consistent, odd.non_gaussian) == (
            nonzero, zero, nonzero)


class TestSigmaThreshold:
    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    def test_every_criterion_rejects(self, std_report, bad):
        for check in (cs_test, separability_witness, pair_audit,
                      pump_odd_moment):
            with pytest.raises(ValueError,
                               match="sigma_threshold must be positive"):
                check(std_report, sigma_threshold=bad)


class TestAnalyticVerdicts:
    def test_violated_and_satisfied(self):
        for gr, verdict, ratio in ((100.0, "violated", 1.5230345115117114),
                                   (0.01, "satisfied", 0.68880480148245683)):
            p = ModelParams(0.7, gr, 0.05)
            r = cs_test(analytic_moment_report(p))
            assert r.verdict == verdict
            assert r.ratio == pytest.approx(ratio, rel=1e-11)
            assert math.isinf(r.significance)
            assert r.lhs_std_error == 0.0 and r.rhs_std_error == 0.0
            # zero-error entries make the verdict sign-based
            side = cs_sides_analytic(p)
            assert r.verdict == side.verdict

    def test_unknown_partition(self):
        rep = analytic_moment_report(ModelParams(0.5, 1.0, 0.05))
        with pytest.raises(ValueError, match="partition"):
            cs_test(rep, partition="01|2")

    def test_report_round_trip(self):
        rep = analytic_moment_report(ModelParams(0.7, 100.0, 0.05))
        r = cs_test(rep)
        d = r.to_dict()
        assert d["verdict"] == "violated"
        assert d["partition"] == "0|12"
        assert isinstance(r, CriterionReport)
        assert d["sigma_threshold"] == 3.0


class TestSimulationVerdicts:
    def test_cs_on_simulation(self, std_ensemble, std_report, base_params):
        r = cs_test(std_report)
        # mu=0.5, gamma_r=1 analytically violates the inequality; the full
        # nonlinear run agrees loudly at this size
        assert r.verdict == "violated"
        assert r.significance >= 3.0
        ana = cs_sides_analytic(base_params).ratio
        assert r.ratio == pytest.approx(ana, rel=0.2)
        assert r.n_samples == 256 * 64
        # dual-route rhs: quadrature triple sum maps onto the amplitude
        # triple within statistical error
        assert r.cross_check_rhs is not None
        assert r.cross_check_consistent is True

    def test_one_target_program_per_context(self, std_report, monkeypatch):
        # cs_test reads its five targets from one program on the full
        # data and one on the replicates, and one program gives the bytes
        # of one program per target
        calls = []
        program = moments.MomentSchema._program

        def recording(schema, centering, names):
            calls.append(names)
            return program(schema, centering, names)

        monkeypatch.setattr(moments.MomentSchema, "_program", recording)
        cs_test(std_report)
        names = ("amp_n1n2", "amp_n0", "amp_triple", "amp_triple_conj", "s")
        assert calls == [names, names]
        sums, totals = std_report.batch_sums, std_report.batch_totals
        n = std_report.batch_counts.astype(np.float64)
        for args in ((totals, n.sum(), "reference"),
                     (sums, n.sum() - n, "reference", totals)):
            together = moments._Stats(std_report.schema, *args).targets(
                names)
            alone = [moments._Stats(std_report.schema, *args).target(name)
                     for name in names]
            assert together.tobytes() == np.array(alone).tobytes()

    def test_lambda_against_entries(self, std_report):
        r = cs_test(std_report)
        expect = (std_report["amp_triple_conj"].value
                  / std_report["amp_n0"].value)
        assert r.lambda_opt == pytest.approx(expect, rel=1e-6)

    def test_all_partitions_run(self, std_report):
        for part in PARTITIONS:
            r = cs_test(std_report, partition=part)
            assert r.partition == part
            assert r.lhs > 0
            assert r.n_batches == 256

    def test_sigma_threshold_is_recorded(self, std_report):
        r = cs_test(std_report, sigma_threshold=5.0)
        assert r.sigma_threshold == 5.0

    def test_no_signal_on_empty_pump(self):
        params = ModelParams(mu=0.0, gamma_r=1.0, g=0.05)
        cfg = SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=8, n_trajectories=8,
                        master_seed=13)
        rep = run_ensemble(params, cfg).report()
        r = cs_test(rep)
        assert r.verdict == "no signal"
        assert r.ratio is None
        assert r.lambda_opt is None
        assert r.lhs == 0.0 and r.rhs == 0.0


class TestCompositeMemory:
    # tracemalloc's peak over one cs_test call on the report below, in
    # bytes, when its composite was six rows + 0j in a list, then stacked,
    # beside the (T, B) targets they were made from (numpy 2.4, Python
    # 3.11); it now reads 3,674,376, 3,149,616 and 3,149,584
    PARENT_PEAK = {"0|12": 4_198_968, "1|02": 3_936_592, "2|01": 3_936_224}

    def test_cs_test_holds_its_composite_once(self):
        # on 16,384 batches each partition's peak stays 10% under that
        # figure, and the fields keep the bytes of the listed composite
        if _kernels.kernels().targets is not _kernels._targets_c:
            pytest.skip("the figures are the C passes'")
        params = ModelParams(0.5, 1.0, 0.05)
        rng = np.random.default_rng(7)
        states = fixed_point(params).as_array()[:, None, None] + 0.05 * (
            rng.standard_normal((6, 16384, 1))
            + 1j * rng.standard_normal((6, 16384, 1)))
        rep = MomentAccumulator(opo_schema(params)).add_batches(
            state_channels(states, params)).finalize()
        denom = 128.0 * params.gamma_r * params.g ** 6
        for part, parent in self.PARENT_PEAK.items():
            qname, pname = criteria.PARTITIONS[part]

            def listed(st):
                lhs, rhs = criteria._cs_sides(st, part)
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.divide(rhs, lhs)
                lam = criteria._quotient(st.target("amp_triple_conj"),
                                         st.target(pname))
                diff = rhs - st.target("s").real ** 2 / denom
                return [lhs + 0j, rhs + 0j, rhs - lhs + 0j, ratio + 0j,
                        lam + 0j, diff + 0j]

            cs_test(rep, part)      # the target programs are compiled once
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                r = cs_test(rep, part)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < 0.9 * parent, (part, peak)
            jk = rep.jackknife(listed)
            want = [*jk.value[:4].real, *jk.std_error[:4], jk.value[4]]
            got = [r.lhs, r.rhs, r.margin, r.ratio, r.lhs_std_error,
                   r.rhs_std_error, r.margin_std_error, r.ratio_std_error,
                   r.lambda_opt]
            assert np.array(got).tobytes() == np.array(want).tobytes(), part
            if part == "0|12":
                assert r.cross_check_rhs == r.rhs - jk.value[5].real


def triples_report(*estimates):
    """A report holding t1, t2, ... as given, as a witness reads it."""
    entries = dict(zip(("t1", "t2", "t3", "t4"), estimates))
    return MomentReport(entries=entries, n_samples=0, n_batches=0,
                        centering="reference")


class TestSeparabilityWitness:
    def test_excluded_on_simulation(self, std_report):
        w = separability_witness(std_report)
        assert w.excluded is True
        assert w.verdict == ("all bipartite-separable forms excluded "
                             "(sufficient condition met)")
        assert all(sig >= 3.0 for (_, _, _, sig) in w.triples)

    def test_excluded_on_analytic(self):
        w = separability_witness(analytic_moment_report(
            ModelParams(0.7, 100.0, 0.05)))
        assert w.excluded is True

    def test_inconclusive_when_one_consistent_with_zero(self):
        w = separability_witness(triples_report(
            MomentEstimate(-1 + 0j, 0.1), MomentEstimate(1 + 0j, 0.1),
            MomentEstimate(0.05 + 0j, 0.1),  # 0.5 sigma
            MomentEstimate(1 + 0j, 0.1)))
        assert w.excluded is False
        assert w.verdict == "inconclusive"

    def test_inconclusive_on_exact_zeros(self):
        w = separability_witness(triples_report(*[MomentEstimate(0j)] * 4))
        assert w.excluded is False

    def test_to_dict(self, std_report):
        d = separability_witness(std_report).to_dict()
        assert d["excluded"] is True
        assert len(d["triples"]) == 4


class TestPairAudit:
    def test_consistent_on_simulation(self, std_report):
        a = pair_audit(std_report)
        assert a.all_consistent is True
        assert a.verdict.startswith("pump-signal pair correlations consistent")
        assert a.max_significance <= 3.0
        assert len(a.entries) == 4

    def test_detects_injected_correlation(self, std_report):
        entries = dict(std_report.entries)
        entries["cov_x0_x"] = MomentEstimate(0.1 + 0j, 0.001)
        fake = MomentReport(entries=entries, n_samples=std_report.n_samples,
                            n_batches=std_report.n_batches,
                            centering=std_report.centering)
        a = pair_audit(fake)
        assert a.all_consistent is False
        assert a.verdict == "pump-signal pair correlations detected"
        assert a.max_significance >= 99.0

    def test_missing_entries(self):
        rep = MomentReport(entries={}, n_samples=10, n_batches=2,
                           centering="sample")
        with pytest.raises(SchemaError):
            pair_audit(rep)


class TestPumpOddMoment:
    def test_gaussian_control(self):
        rng = np.random.default_rng(971)
        schema = MomentSchema(
            channels=(ChannelSpec("x0"),),
            targets=(TargetSpec("skew_x0", ((1, ("x0", "x0", "x0")),)),),
        )
        acc = MomentAccumulator(schema)
        acc.add_batches(rng.standard_normal((1, 100, 200)).astype(complex))
        o = pump_odd_moment(acc.finalize(centering="sample"))
        assert o.non_gaussian is False
        assert o.verdict == "consistent with Gaussian pump fluctuations"
        assert o.significance < 3.0

    def test_non_gaussian_on_simulation(self, std_report):
        o = pump_odd_moment(std_report)
        assert o.non_gaussian is True
        assert o.verdict == "non-Gaussian pump fluctuations"
        assert o.significance >= 3.0
        assert o.value < 0  # depletion skews the pump downward

    def test_null_at_mu_zero(self):
        params = ModelParams(mu=0.0, gamma_r=1.0, g=0.05)
        cfg = SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=8, n_trajectories=8,
                        master_seed=17)
        o = pump_odd_moment(run_ensemble(params, cfg).report())
        assert o.value == 0.0
        assert o.non_gaussian is False


class TestRunningAverage:
    def test_curve_matches_full_pool(self, std_ensemble, std_report):
        curve = cs_running_average(std_ensemble)
        r = cs_test(std_report)
        n = std_ensemble.config.n_samples_per_traj
        assert curve["lhs"].shape == (n,)
        np.testing.assert_allclose(curve["tau"],
                                   std_ensemble.config.sample_times())
        assert curve["n_samples"][-1] == std_report.n_samples
        assert np.all(np.diff(curve["n_samples"]) > 0)
        assert curve["lhs"][-1] == pytest.approx(r.lhs, rel=1e-12)
        assert curve["rhs"][-1] == pytest.approx(r.rhs, rel=1e-12)
        assert curve["ratio"][-1] == pytest.approx(r.ratio, rel=1e-12)

    def test_requires_time_series(self, base_params):
        cfg = SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=4, n_trajectories=8,
                        master_seed=3)
        res = run_ensemble(base_params, cfg)  # no collect_time_series
        with pytest.raises(ValueError, match="time-series"):
            cs_running_average(res)
