"""Streaming moment accumulation: exact small-stream values, merge laws,
batch-means errors, centering algebra, and the quadrature/amplitude
mapping identities."""

import math
import warnings

import numpy as np
import pytest

from opo3 import (
    ChannelSpec,
    ModelParams,
    MomentAccumulator,
    MomentSchema,
    NoSamplesError,
    SchemaError,
    TargetSpec,
    amplitude_schema,
    finalize,
    merge,
    opo_schema,
    ou_covariances,
    state_channels,
)
from opo3 import moments


def scalar_schema(center=0.0):
    t = TargetSpec
    return MomentSchema(
        channels=(ChannelSpec("u", center),),
        targets=(
            t("mean_u", ((1, ("u",)),), apply_shift=False, offset=center),
            t("m2", ((1, ("u", "u")),)),
            t("m3", ((1, ("u", "u", "u")),)),
            t("m4", ((1, ("u", "u", "u", "u")),)),
        ),
    )


def feed_scalars(acc, values):
    for v in values:
        acc.add_batch([v])
    return acc


class TestSmallStreams:
    def test_mean_of_1_2_3(self):
        acc = MomentAccumulator(scalar_schema())
        feed_scalars(acc, [1.0, 2.0, 3.0])
        rep = finalize(acc, centering="sample")
        assert rep["mean_u"].value == pytest.approx(2.0, abs=1e-15)
        assert rep.n_samples == 3 and rep.n_batches == 3

    def test_third_central_moment_of_0_0_3(self):
        acc = MomentAccumulator(scalar_schema())
        feed_scalars(acc, [0.0, 0.0, 3.0])
        rep = finalize(acc, centering="sample")
        # mean 1; ((-1)^3 + (-1)^3 + 2^3)/3 = 2
        assert rep["m3"].value == pytest.approx(2.0, abs=1e-12)

    def test_empty_stream_errors(self):
        acc = MomentAccumulator(scalar_schema())
        with pytest.raises(NoSamplesError, match="no samples"):
            finalize(acc)
        assert isinstance(NoSamplesError("x"), ValueError)

    def test_single_batch_cannot_give_errors(self):
        acc = MomentAccumulator(scalar_schema())
        acc.add_batch([[1.0, 2.0, 3.0]])
        with pytest.raises(NoSamplesError, match="at least 2 batches"):
            finalize(acc)

    def test_non_finite_rejected(self):
        acc = MomentAccumulator(scalar_schema())
        with pytest.raises(ValueError, match="non-finite"):
            acc.add_batch(np.array([[1.0, float("nan")]]))
        with pytest.raises(ValueError, match="non-finite"):
            acc.add_batch(np.array([[1.0, complex(0, float("inf"))]]))


def two_channel_schema():
    t = TargetSpec
    return MomentSchema(
        channels=(ChannelSpec("u"), ChannelSpec("v")),
        targets=(
            t("mu_u", ((1, ("u",)),), apply_shift=False),
            t("var_u", ((1, ("u", "u")),)),
            t("cov_uv", ((1, ("u", "v")),)),
            t("m3_uuv", ((1, ("u", "u", "v")),)),
            t("m4", ((1, ("u", "u", "v", "v")),)),
        ),
    )


def random_stream(rng, n):
    return rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))


class TestMergeLaws:
    def test_merge_equals_concatenation(self):
        rng = np.random.default_rng(211)
        schema = two_channel_schema()
        for _ in range(10):
            n = int(rng.integers(40, 300))
            data = random_stream(rng, n)
            cut = int(rng.integers(1, n))
            bs = int(rng.integers(3, 40))
            whole = MomentAccumulator(schema)
            left = MomentAccumulator(schema)
            right = MomentAccumulator(schema)
            for lo in range(0, n, bs):
                whole.add_batch(data[:, lo:lo + bs])
            for lo in range(0, cut, bs):
                left.add_batch(data[:, lo:min(lo + bs, cut)])
            for lo in range(cut, n, bs):
                right.add_batch(data[:, lo:lo + bs])
            m = merge(left, right)
            assert m.n_samples == whole.n_samples == n
            rep_m = finalize(m, centering="sample")
            rep_w = finalize(whole, centering="sample")
            for name in schema.target_names():
                assert rep_m[name].value == pytest.approx(
                    rep_w[name].value, rel=1e-12, abs=1e-12)

    def test_merge_with_empty_is_identity(self):
        rng = np.random.default_rng(223)
        schema = two_channel_schema()
        a = MomentAccumulator(schema)
        for k in range(100):
            a.add_batch(random_stream(rng, 1)[:, 0])
        empty = MomentAccumulator(schema)
        m = merge(a, empty)
        rep_a = finalize(a.copy())
        rep_m = finalize(m)
        assert rep_m.n_samples == rep_a.n_samples
        assert rep_m.n_batches == rep_a.n_batches
        for name in schema.target_names():
            assert rep_m[name].value == rep_a[name].value
            assert rep_m[name].std_error == rep_a[name].std_error

    def test_merge_commutes(self):
        rng = np.random.default_rng(227)
        schema = two_channel_schema()
        a = MomentAccumulator(schema)
        b = MomentAccumulator(schema)
        for _ in range(7):
            a.add_batch(random_stream(rng, 20))
        for _ in range(5):
            b.add_batch(random_stream(rng, 13))
        ab = finalize(merge(a, b))
        ba = finalize(merge(b, a))
        for name in schema.target_names():
            assert ab[name].value == pytest.approx(ba[name].value,
                                                   rel=1e-12, abs=1e-14)
            assert ab[name].std_error == pytest.approx(ba[name].std_error,
                                                       rel=1e-10, abs=1e-14)

    def test_merge_schema_mismatch(self):
        a = MomentAccumulator(two_channel_schema())
        b = MomentAccumulator(scalar_schema())
        with pytest.raises(SchemaError):
            merge(a, b)

    def test_refused_merge_leaves_accumulator_unchanged(self):
        # per-sample accumulators of 3 batches with 2 and 4 samples each:
        # the merge is refused before any batch is taken over
        params, cube = opo_cube(313, 3, 4)
        a = MomentAccumulator(opo_schema(params), collect_per_sample=True)
        b = MomentAccumulator(opo_schema(params), collect_per_sample=True)
        a.add_batches(cube[:, :, :2])
        b.add_batches(cube)
        sums = a.per_sample_sums.tobytes()
        want = finalize(a)
        with pytest.raises(SchemaError, match="per-sample shapes differ"):
            a.merge_in_place(b)
        assert (a.n_batches, a.n_samples, a.per_sample_rows) == (3, 6, 3)
        assert a.per_sample_sums.tobytes() == sums
        got = finalize(a)
        for name in a.schema.target_names():
            assert got[name] == want[name], name


class TestErrorBars:
    def test_se_shrinks_as_sqrt_n(self):
        rng = np.random.default_rng(229)
        schema = scalar_schema()
        ses = []
        for n in (2000, 8000):
            acc = MomentAccumulator(schema)
            acc.add_batches(rng.standard_normal((1, n // 50, 50)).astype(complex))
            ses.append(finalize(acc, centering="sample")["m2"].std_error)
        ratio = ses[0] / ses[1]
        assert 1.6 <= ratio <= 2.4

    def test_gaussian_third_moments_unbiased(self):
        rng = np.random.default_rng(233)
        acc = MomentAccumulator(two_channel_schema())
        data = rng.standard_normal((2, 200, 100))  # real Gaussian, mean 0
        acc.add_batches(data.astype(complex))
        rep = finalize(acc, centering="sample")
        m3 = rep["m3_uuv"]
        assert abs(m3.value.real) <= 4.0 * m3.std_error
        assert m3.low_confidence is False

    def test_low_confidence_flag(self):
        rng = np.random.default_rng(239)
        schema = scalar_schema()
        for b, expect in ((29, True), (30, False)):
            acc = MomentAccumulator(schema)
            acc.add_batches(rng.standard_normal((1, b, 10)).astype(complex))
            rep = finalize(acc)
            assert rep["m2"].low_confidence is expect
            assert rep.n_batches == b

    def test_add_batches_matches_sequential_add_batch(self):
        rng = np.random.default_rng(241)
        data = (rng.standard_normal((6, 7, 40))
                + 1j * rng.standard_normal((6, 7, 40)))
        schema = amplitude_schema()
        a = MomentAccumulator(schema).add_batches(data)
        b = MomentAccumulator(schema)
        for j in range(7):
            b.add_batch(data[:, j, :])
        ra, rb = finalize(a, "sample"), finalize(b, "sample")
        for name in schema.target_names():
            assert ra[name].value == pytest.approx(rb[name].value, rel=1e-13)
            assert ra[name].std_error == pytest.approx(rb[name].std_error,
                                                       rel=1e-10, abs=1e-16)


def opo_cube(seed, n_batches, n_samples):
    params = ModelParams(mu=0.4, gamma_r=2.5, g=0.3)
    rng = np.random.default_rng(seed)
    shape = (6, n_batches, n_samples)
    states = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return params, state_channels(states, params)


def cs_parts(st):
    """A composite of several targets, as cs_test hands to jackknife."""
    q, p, t = (st.target(n) for n in ("amp_n1n2", "amp_n0", "amp_triple"))
    return np.stack([q.real * p.real + 0j, t * t.conjugate(), st.target("s")])


class TestBatchStore:
    def test_totals_match_fsum_on_large_offset_stream(self):
        # 1e5 batches around 1e8 (real) and -3e7 (imag): pairwise totals
        # stay within a few ulp of the exact sum, where a row-by-row sum
        # is off by about 9e-15 relative on this stream
        rng = np.random.default_rng(271)
        b, n = 100_000, 4
        u = (1e8 + rng.standard_normal((b, n))
             + 1j * (-3e7 + rng.standard_normal((b, n))))
        t = TargetSpec
        schema = MomentSchema(
            channels=(ChannelSpec("u"),),
            targets=(t("m1", ((1, ("u",)),), apply_shift=False),
                     t("m2", ((1, ("u", "u")),), apply_shift=False)))
        rep = MomentAccumulator(schema).add_batches(u[None]).finalize("none")
        rtol = 4 * np.finfo(np.float64).eps
        for name, prod in (("m1", u), ("m2", u * u)):
            batch_sums = prod.sum(axis=1)
            got = rep[name].value
            for part, want in ((got.real, math.fsum(batch_sums.real)),
                               (got.imag, math.fsum(batch_sums.imag))):
                want /= b * n
                assert abs(part - want) <= rtol * abs(want), name

    def test_key_sums_equal_left_to_right_products(self):
        # keys are built from their prefixes into one (K, nb, n) array; the
        # block sums and per-sample sums must still be bitwise the per-key
        # reductions of each key's channels multiplied left to right, and
        # bitwise what one add_batch per trajectory stores
        params, cube = opo_cube(281, 40, 5)
        schema = opo_schema(params)
        acc = MomentAccumulator(schema, collect_per_sample=True)
        acc.add_batches(cube)
        single = MomentAccumulator(schema)
        for j in range(40):
            single.add_batch(cube[:, j])
        joined = np.concatenate(single._blocks, axis=1)
        centered = acc._center_values(cube)
        (block,) = acc._blocks
        for k, key in enumerate(schema.key_order):
            prod = centered[key[0]]
            for idx in key[1:]:
                prod = prod * centered[idx]
            want = prod.sum(axis=1).tobytes()
            assert block[k].tobytes() == want == joined[k].tobytes(), key
            assert (acc.per_sample_sums[k].tobytes()
                    == prod.sum(axis=0).tobytes()), key

    def test_arrival_order_is_bitwise_invisible(self):
        params, cube = opo_cube(277, 520, 3)
        schema = opo_schema(params)
        whole = MomentAccumulator(schema).add_batches(cube)
        sliced = MomentAccumulator(schema)
        for lo in range(0, 520, 256):
            sliced.add_batches(cube[:, lo:lo + 256])
        single = MomentAccumulator(schema)
        for j in range(520):
            single.add_batch(cube[:, j])
        bounds = np.linspace(0, 520, 9).astype(int)
        shards = [MomentAccumulator(schema).add_batches(cube[:, lo:hi])
                  for lo, hi in zip(bounds[:-1], bounds[1:])]
        merged = shards[0]
        for other in shards[1:]:
            merged = merge(merged, other)
        for mode in ("reference", "sample", "none", "raw"):
            want = finalize(whole, mode)
            jk = whole.jackknife(cs_parts, centering=mode)
            for acc in (sliced, single, merged):
                got = finalize(acc, mode)
                assert got.n_batches == 520 and got.n_samples == 1560
                for name in schema.target_names():
                    a, b = got[name], want[name]
                    assert (a.value, a.std_error, a.std_error_imag) == (
                        b.value, b.std_error, b.std_error_imag), (mode, name)
                other = acc.jackknife(cs_parts, centering=mode)
                for field in ("value", "std_error", "std_error_imag"):
                    assert np.array_equal(getattr(other, field),
                                          getattr(jk, field)), (mode, field)

    def test_merge_shares_no_mutable_state(self):
        params, cube = opo_cube(281, 90, 4)
        schema = opo_schema(params)

        def build(lo, hi):
            acc = MomentAccumulator(schema)
            for start in range(lo, hi, 16):
                acc.add_batches(cube[:, start:min(start + 16, hi)])
            return acc

        a, b = build(0, 50), build(50, 90)
        m = merge(a, b)
        assert finalize(m).n_batches == 90
        m.add_batches(cube[:, :8])
        assert finalize(m).n_batches == 98
        a.add_batches(cube[:, :8])
        assert m.n_batches == 98
        assert (a.n_batches, b.n_batches) == (58, 40)
        for acc, twin in ((a, build(0, 50).add_batches(cube[:, :8])),
                          (b, build(50, 90))):
            got, want = finalize(acc), finalize(twin)
            for name in schema.target_names():
                assert got[name] == want[name], name


class _DividingStats(moments._Stats):
    """The evaluation context with raw means divided by n, as numpy's
    complex / real computes them, in place of the stored reciprocal."""

    def raw(self, key: tuple):
        if key == ():
            return super().raw(key)
        idx = self.schema._key_index[key]
        if self._totals is None:
            return self._sums[idx] / self._n
        return (self._totals[idx] - self._sums[idx]) / self._n


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


class TestEvaluationShortcuts:
    def test_reciprocal_is_bitwise_division(self, monkeypatch):
        # unequal batch counts, so the replicate counts differ per batch
        params, cube = opo_cube(293, 24, 6)
        schema = opo_schema(params)
        acc = MomentAccumulator(schema)
        acc.add_batches(cube[:, :9, :6])
        acc.add_batches(cube[:, 9:17, :2])
        for j in range(17, 24):
            acc.add_batch(cube[:, j, :j % 5 + 1])
        series = MomentAccumulator(schema, collect_per_sample=True)
        series.add_batches(cube[:, :12]).add_batches(cube[:, 12:])

        def evaluate():
            out = []
            for mode in moments.CENTERINGS:
                rep = finalize(acc, mode)
                for e in rep.entries.values():
                    out += _bits(e.value, e.std_error, e.std_error_imag)
                jk = acc.jackknife(cs_parts, centering=mode)
                out += _bits(jk.value, jk.std_error, jk.std_error_imag)
                out += _bits(cs_parts(series.running_stats(mode)))
            return out

        got = evaluate()
        monkeypatch.setattr(moments, "_Stats", _DividingStats)
        assert evaluate() == got

    def test_totals_cache_follows_the_batches(self):
        params, cube = opo_cube(307, 60, 4)
        schema = opo_schema(params)
        reports = []

        def check(acc, mode="reference"):
            rep = finalize(acc, mode)
            assert (rep.batch_totals.tobytes()
                    == rep.batch_sums.sum(axis=1).tobytes())
            reports.append((rep, rep.batch_totals.tobytes()))
            return rep

        # finalize, add a batch, finalize again
        acc = MomentAccumulator(schema).add_batches(cube[:, :20])
        first = check(acc)
        assert check(acc, "sample").batch_totals is first.batch_totals
        acc.add_batch(cube[:, 20])
        assert check(acc).n_batches == 21
        # merge, both ways
        other = MomentAccumulator(schema).add_batches(cube[:, 30:45])
        check(other)
        merged = merge(acc, other)
        assert check(merged).n_batches == 36
        check(acc)
        acc.merge_in_place(other)
        joined = check(acc)
        assert joined.n_batches == 36
        # copy, then add to the copy
        twin = acc.copy()
        assert check(twin).batch_totals is joined.batch_totals
        twin.add_batches(cube[:, 50:60])
        assert check(twin).n_batches == 46
        assert check(acc).n_batches == 36
        for rep, frozen in reports:
            assert rep.batch_totals.tobytes() == frozen

    def test_empty_and_overflowing_batches_refused(self):
        params, cube = opo_cube(311, 6, 3)
        schema = opo_schema(params)
        acc = MomentAccumulator(schema).add_batches(cube)
        series = MomentAccumulator(schema, collect_per_sample=True)
        series.add_batches(cube)
        want = finalize(acc)
        sums = series.per_sample_sums.tobytes()
        # finite values whose fourth-order products overflow
        huge = cube[:, :2] * 1e100
        assert np.all(np.isfinite(huge))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for feed, bad, match in (
                    (acc.add_batch, np.empty((12, 0)), "empty batch"),
                    (acc.add_batches, np.empty((12, 4, 0)), "empty batch"),
                    (acc.add_batch, huge[:, 0], "non-finite"),
                    (acc.add_batches, huge, "non-finite"),
                    (series.add_batches, huge, "non-finite"),
                    (series.add_batches, cube[:, :2, :2], "fixed sample")):
                with pytest.raises(ValueError, match=match):
                    feed(bad)
                assert acc.n_batches == series.n_batches == 6
            got = finalize(acc)
        assert (series.per_sample_rows, series.per_sample_sums.tobytes()) == (
            6, sums)
        for name in schema.target_names():
            assert got[name] == want[name], name
        # each batch sum is finite, the sums over batches are not: finalize
        # and the per-sample sums refuse them without a warning
        big = np.full((6, 2, 1), 1.05e77)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            amp_acc = MomentAccumulator(amplitude_schema()).add_batches(big)
            for centering in moments.CENTERINGS:
                with pytest.raises(ValueError, match="non-finite key sums "
                                   "over all batches"):
                    finalize(amp_acc, centering)
            amp_series = MomentAccumulator(amplitude_schema(),
                                           collect_per_sample=True)
            with pytest.raises(ValueError, match="non-finite per-sample"):
                amp_series.add_batches(big)
            assert (amp_series.n_batches, amp_series.per_sample_rows) == (0, 0)
            assert amp_series.per_sample_sums is None
            amp_series.add_batches(big[:, :1])
            amp_other = MomentAccumulator(amplitude_schema(),
                                          collect_per_sample=True)
            amp_other.add_batches(big[:, 1:])
            amp_sums = amp_series.per_sample_sums.tobytes()
            with pytest.raises(ValueError, match="non-finite per-sample"):
                amp_series.merge_in_place(amp_other)
        assert (amp_series.n_batches, amp_series.per_sample_rows) == (1, 1)
        assert amp_series.per_sample_sums.tobytes() == amp_sums


class TestCentering:
    def test_modes_against_direct_evaluation(self):
        rng = np.random.default_rng(251)
        c = 1.7
        u = rng.standard_normal(400) + 3.0
        acc = MomentAccumulator(scalar_schema(center=c))
        acc.add_batch(u[None, :200].astype(complex))
        acc.add_batch(u[None, 200:].astype(complex))
        expect = {
            "none": np.mean((u - c) ** 2),
            "sample": np.mean((u - u.mean()) ** 2),
            "reference": np.mean((u - u.mean()) ** 2),  # shiftable channel
            "raw": np.mean(u**2),
        }
        for mode, val in expect.items():
            rep = finalize(acc, centering=mode)
            assert rep["m2"].value == pytest.approx(val, rel=1e-12)
            # mean target undoes the ingest center via its offset in all modes
            assert rep["mean_u"].value == pytest.approx(u.mean(), rel=1e-12)

    def test_reference_mode_respects_non_shiftable(self):
        rng = np.random.default_rng(257)
        c = 0.9
        u = rng.standard_normal(300) + 2.0
        schema = MomentSchema(
            channels=(ChannelSpec("u", c, shiftable=False),),
            targets=(TargetSpec("m2", ((1, ("u", "u")),)),),
        )
        acc = MomentAccumulator(schema)
        acc.add_batch(u[None, :].astype(complex))
        acc.add_batch(u[None, :].astype(complex))
        rep = finalize(acc, centering="reference")
        # stays referenced to the declared center, not the empirical mean
        assert rep["m2"].value == pytest.approx(np.mean((u - c) ** 2), rel=1e-12)

    def test_unknown_centering_rejected(self):
        acc = MomentAccumulator(scalar_schema())
        feed_scalars(acc, list(range(20)))
        with pytest.raises(ValueError, match="centering"):
            finalize(acc, centering="bogus")


class TestMappingIdentities:
    def test_quadrature_amplitude_identity_synthetic(self):
        # q4 = 16 g^4 <da1 da1+ da2 da2+> and var_x0 + var_y0 =
        # 8 gamma_r g^2 <da0 da0+> hold exactly on any dataset
        rng = np.random.default_rng(263)
        params = ModelParams(mu=0.4, gamma_r=2.5, g=0.3)
        states = (rng.standard_normal((6, 20, 50))
                  + 1j * rng.standard_normal((6, 20, 50)))
        acc = MomentAccumulator(opo_schema(params))
        acc.add_batches(state_channels(states, params))
        for mode in ("sample", "none"):
            rep = finalize(acc, centering=mode)
            q4 = rep["q4"].value
            pair4 = rep["amp_n1n2"].value
            assert q4 == pytest.approx(16.0 * params.g**4 * pair4, rel=1e-12)
            v0 = rep["var_x0"].value + rep["var_y0"].value
            pump = rep["amp_n0"].value
            assert v0 == pytest.approx(
                8.0 * params.gamma_r * params.g**2 * pump, rel=1e-12)

    def test_single_sample_batches_match_channel_cube(self):
        # state_channels of one (6,) state feeds add_batch as a batch of
        # one sample; the point estimates do not depend on the batching
        rng = np.random.default_rng(269)
        params = ModelParams(mu=0.4, gamma_r=2.5, g=0.3)
        states = (rng.standard_normal((6, 2, 32))
                  + 1j * rng.standard_normal((6, 2, 32)))
        via_channels = MomentAccumulator(opo_schema(params))
        via_channels.add_batches(state_channels(states, params))
        via_samples = MomentAccumulator(opo_schema(params))
        for j in range(2):
            for k in range(32):
                via_samples.add_batch(state_channels(states[:, j, k], params))
        ra = finalize(via_channels, "sample")
        rb = finalize(via_samples, "sample")
        for name in ("q4", "amp_n1n2", "t1", "s", "var_x0", "amp_triple"):
            assert ra[name].value == pytest.approx(rb[name].value,
                                                   rel=1e-10, abs=1e-12)


class TestOpoEnsembleMoments:
    def test_cov_y_yp_matches_ou_oracle(self, std_report, base_params):
        ou = ou_covariances(base_params)
        est = std_report["cov_y_yp"]
        assert abs(est.value.real - ou.yyp) <= 3.0 * est.std_error
        assert est.value.real < 0

    def test_pump_signal_pairs_vanish(self, std_report):
        for name in ("cov_x0_x", "cov_x0_y", "cov_y0_x", "cov_y0_y"):
            est = std_report[name]
            assert abs(est.value.real) <= 3.0 * est.std_error, name

    def test_report_metadata(self, std_report):
        assert std_report.n_samples == 256 * 64
        assert std_report.n_batches == 256
        assert std_report.centering == "reference"
        assert std_report.label == "monte-carlo"
        assert std_report["t1"].low_confidence is False
        d = std_report.to_dict()
        assert d["n_samples"] == 256 * 64
        assert "t1" in d["moments"]

    def test_unknown_target_raises(self, std_report):
        with pytest.raises(SchemaError):
            std_report["nonexistent_moment"]
        assert "nonexistent_moment" not in std_report


class TestSchemaValidation:
    def test_channel_count_mismatch(self):
        acc = MomentAccumulator(two_channel_schema())
        with pytest.raises(SchemaError):
            acc.add_batch(np.zeros((3, 5)))
        with pytest.raises(SchemaError):
            acc.add_batch([1.0])

    def test_amplitude_schema_needs_six_centers(self):
        with pytest.raises(SchemaError):
            amplitude_schema(centers=(0.0,) * 5)
