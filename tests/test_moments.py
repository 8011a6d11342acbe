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
    analytic_moment_report,
    merge,
    opo_schema,
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
    """One batch of one sample per value."""
    return acc.add_batches(np.reshape(values, (1, -1, 1)))


class TestSmallStreams:
    def test_mean_of_1_2_3(self):
        acc = MomentAccumulator(scalar_schema())
        feed_scalars(acc, [1.0, 2.0, 3.0])
        rep = acc.finalize(centering="sample")
        assert rep["mean_u"].value == pytest.approx(2.0, abs=1e-15)
        assert rep.n_samples == 3 and rep.n_batches == 3

    def test_third_central_moment_of_0_0_3(self):
        acc = MomentAccumulator(scalar_schema())
        feed_scalars(acc, [0.0, 0.0, 3.0])
        rep = acc.finalize(centering="sample")
        # mean 1; ((-1)^3 + (-1)^3 + 2^3)/3 = 2
        assert rep["m3"].value == pytest.approx(2.0, abs=1e-12)

    def test_empty_stream_errors(self):
        acc = MomentAccumulator(scalar_schema())
        with pytest.raises(NoSamplesError, match="no samples"):
            acc.finalize()
        assert isinstance(NoSamplesError("x"), ValueError)

    def test_single_batch_cannot_give_errors(self):
        acc = MomentAccumulator(scalar_schema())
        acc.add_batches([[[1.0, 2.0, 3.0]]])
        with pytest.raises(NoSamplesError, match="at least 2 batches"):
            acc.finalize()

    def test_every_replicate_keeps_two_samples(self):
        # leaving out a batch must keep 2 samples: the centered moments of
        # a lone sample are rounding noise, not zero, so two one-sample
        # batches would give errors of noise and a verdict from it
        for sizes, refused in (((1, 1), True), ((4, 1), True),
                               ((1, 1, 1), False), ((2, 2), False)):
            acc = MomentAccumulator(scalar_schema())
            for n in sizes:
                acc.add_batches(np.linspace(0.1, 1.0, n)[None, None, :])
            if refused:
                with pytest.raises(NoSamplesError, match="keeps 1 sample"):
                    acc.finalize("sample")
            else:
                assert acc.finalize("sample").n_batches == len(sizes)

    def test_non_finite_rejected(self):
        acc = MomentAccumulator(scalar_schema())
        with pytest.raises(ValueError, match="non-finite"):
            acc.add_batches(np.array([[[1.0, float("nan")]]]))
        with pytest.raises(ValueError, match="non-finite"):
            acc.add_batches(np.array([[[1.0, complex(0, float("inf"))]]]))


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
                whole.add_batches(data[:, None, lo:lo + bs])
            for lo in range(0, cut, bs):
                left.add_batches(data[:, None, lo:min(lo + bs, cut)])
            for lo in range(cut, n, bs):
                right.add_batches(data[:, None, lo:lo + bs])
            m = merge(left, right)
            assert m.n_samples == whole.n_samples == n
            rep_m = m.finalize(centering="sample")
            rep_w = whole.finalize(centering="sample")
            for name in schema.target_names():
                assert rep_m[name].value == pytest.approx(
                    rep_w[name].value, rel=1e-12, abs=1e-12)

    def test_merge_with_empty_is_identity(self):
        rng = np.random.default_rng(223)
        schema = two_channel_schema()
        a = MomentAccumulator(schema)
        for k in range(100):
            a.add_batches(random_stream(rng, 1)[:, None])
        empty = MomentAccumulator(schema)
        m = merge(a, empty)
        rep_a = a.copy().finalize()
        rep_m = m.finalize()
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
            a.add_batches(random_stream(rng, 20)[:, None])
        for _ in range(5):
            b.add_batches(random_stream(rng, 13)[:, None])
        ab = merge(a, b).finalize()
        ba = merge(b, a).finalize()
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
        want = a.finalize()
        with pytest.raises(SchemaError, match="per-sample shapes differ"):
            a.merge_in_place(b)
        assert (a.n_batches, a.n_samples) == (3, 6)
        assert a.per_sample_sums.tobytes() == sums
        got = a.finalize()
        for name in a.schema.target_names():
            assert got[name] == want[name], name

    def test_merge_refuses_batches_without_per_sample_sums(self):
        # running averages must pool every batch the moments pool, so
        # batches with per-sample sums merge only with batches that have
        # them too; an empty side merges either way
        params, cube = opo_cube(317, 10, 4)
        schema = opo_schema(params)

        def fed(collect, values):
            acc = MomentAccumulator(schema, collect_per_sample=collect)
            return acc.add_batches(values)

        def state(acc):
            sums = acc.per_sample_sums
            return (acc.n_batches, acc.n_samples, acc.collect_per_sample,
                    None if sums is None else sums.tobytes())

        summed, bare = fed(True, cube[:, :5]), fed(False, cube[:, 5:])
        for a, b in ((summed, bare), (bare, summed)):
            before = state(a), state(b)
            with pytest.raises(SchemaError, match="per-sample sums"):
                merge(a, b)
            with pytest.raises(SchemaError, match="per-sample sums"):
                a.merge_in_place(b)
            assert (state(a), state(b)) == before
        for collects in (False, True):
            empty = MomentAccumulator(schema, collect_per_sample=collects)
            for m in (merge(summed, empty), merge(empty, summed)):
                assert state(m) == state(summed)
            for m in (merge(bare, empty), merge(empty, bare)):
                assert state(m) == state(bare)
                # so a later batch adds no sums over part of the batches
                m.add_batches(cube[:, :1])
                assert m.n_batches == 6 and m.per_sample_sums is None
        # with sums on both sides the running averages pool all ten batches
        both = merge(summed, fed(True, cube[:, 5:]))
        single = fed(True, cube)
        assert both.n_batches == 10
        np.testing.assert_array_equal(both.running_stats().n,
                                      single.running_stats().n)
        np.testing.assert_allclose(both.per_sample_sums,
                                   single.per_sample_sums, rtol=1e-13)


class TestErrorBars:
    def test_se_shrinks_as_sqrt_n(self):
        rng = np.random.default_rng(229)
        schema = scalar_schema()
        ses = []
        for n in (2000, 8000):
            acc = MomentAccumulator(schema)
            acc.add_batches(rng.standard_normal((1, n // 50, 50)).astype(complex))
            ses.append(acc.finalize(centering="sample")["m2"].std_error)
        ratio = ses[0] / ses[1]
        assert 1.6 <= ratio <= 2.4

    def test_gaussian_third_moments_unbiased(self):
        rng = np.random.default_rng(233)
        acc = MomentAccumulator(two_channel_schema())
        data = rng.standard_normal((2, 200, 100))  # real Gaussian, mean 0
        acc.add_batches(data.astype(complex))
        rep = acc.finalize(centering="sample")
        m3 = rep["m3_uuv"]
        assert abs(m3.value.real) <= 4.0 * m3.std_error
        assert m3.low_confidence is False

    def test_low_confidence_flag(self):
        rng = np.random.default_rng(239)
        schema = scalar_schema()
        for b, expect in ((29, True), (30, False)):
            acc = MomentAccumulator(schema)
            acc.add_batches(rng.standard_normal((1, b, 10)).astype(complex))
            rep = acc.finalize()
            assert rep["m2"].low_confidence is expect
            assert rep.n_batches == b

    def test_add_batches_matches_one_call_per_batch(self):
        rng = np.random.default_rng(241)
        data = (rng.standard_normal((6, 7, 40))
                + 1j * rng.standard_normal((6, 7, 40)))
        schema = amplitude_schema()
        a = MomentAccumulator(schema).add_batches(data)
        b = MomentAccumulator(schema)
        for j in range(7):
            b.add_batches(data[:, j:j + 1, :])
        ra, rb = a.finalize("sample"), b.finalize("sample")
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
        # bitwise what one add_batches call per trajectory stores
        params, cube = opo_cube(281, 40, 5)
        schema = opo_schema(params)
        acc = MomentAccumulator(schema, collect_per_sample=True)
        acc.add_batches(cube)
        single = MomentAccumulator(schema, collect_per_sample=True)
        for j in range(40):
            single.add_batches(cube[:, j:j + 1])
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
                    == prod.sum(axis=0).tobytes()
                    == single.per_sample_sums[k].tobytes()), key
        # so the running averages and the report are bitwise the same
        assert single.n_batches == acc.n_batches == 40
        for mode in moments.CENTERINGS:
            got, want = single.running_stats(mode), acc.running_stats(mode)
            for name in schema.target_names():
                assert (_bits(got.target(name), got.n)
                        == _bits(want.target(name), want.n)), (mode, name)
            assert (repr(single.finalize(mode).entries)
                    == repr(acc.finalize(mode).entries)), mode

    def test_arrival_order_is_bitwise_invisible(self):
        params, cube = opo_cube(277, 520, 3)
        schema = opo_schema(params)
        whole = MomentAccumulator(schema).add_batches(cube)
        sliced = MomentAccumulator(schema)
        for lo in range(0, 520, 256):
            sliced.add_batches(cube[:, lo:lo + 256])
        single = MomentAccumulator(schema)
        for j in range(520):
            single.add_batches(cube[:, j:j + 1])
        bounds = np.linspace(0, 520, 9).astype(int)
        shards = [MomentAccumulator(schema).add_batches(cube[:, lo:hi])
                  for lo, hi in zip(bounds[:-1], bounds[1:])]
        merged = shards[0]
        for other in shards[1:]:
            merged = merge(merged, other)
        for mode in ("reference", "sample", "none", "raw"):
            want = whole.finalize(mode)
            jk = want.jackknife(cs_parts)
            for acc in (sliced, single, merged):
                got = acc.finalize(mode)
                assert got.n_batches == 520 and got.n_samples == 1560
                for name in schema.target_names():
                    a, b = got[name], want[name]
                    assert (a.value, a.std_error, a.std_error_imag) == (
                        b.value, b.std_error, b.std_error_imag), (mode, name)
                other = got.jackknife(cs_parts)
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
        assert m.finalize().n_batches == 90
        m.add_batches(cube[:, :8])
        assert m.finalize().n_batches == 98
        a.add_batches(cube[:, :8])
        assert m.n_batches == 98
        assert (a.n_batches, b.n_batches) == (58, 40)
        for acc, twin in ((a, build(0, 50).add_batches(cube[:, :8])),
                          (b, build(50, 90))):
            got, want = acc.finalize(), twin.finalize()
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
            acc.add_batches(cube[:, j:j + 1, :j % 5 + 1])
        series = MomentAccumulator(schema, collect_per_sample=True)
        series.add_batches(cube[:, :12]).add_batches(cube[:, 12:])

        def evaluate():
            out = []
            for mode in moments.CENTERINGS:
                rep = acc.finalize(mode)
                for e in rep.entries.values():
                    out += _bits(e.value, e.std_error, e.std_error_imag)
                jk = rep.jackknife(cs_parts)
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
            rep = acc.finalize(mode)
            assert (rep.batch_totals.tobytes()
                    == rep.batch_sums.sum(axis=1).tobytes())
            reports.append((rep, rep.batch_totals.tobytes()))
            return rep

        # finalize, add a batch, finalize again
        acc = MomentAccumulator(schema).add_batches(cube[:, :20])
        first = check(acc)
        assert check(acc, "sample").batch_totals is first.batch_totals
        acc.add_batches(cube[:, 20:21])
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
        want = acc.finalize()
        sums = series.per_sample_sums.tobytes()
        # finite values whose fourth-order products overflow
        huge = cube[:, :2] * 1e100
        assert np.all(np.isfinite(huge))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for feed, bad, match in (
                    (acc.add_batches, np.empty((12, 1, 0)), "empty batch"),
                    (acc.add_batches, np.empty((12, 4, 0)), "empty batch"),
                    (acc.add_batches, huge[:, :1], "non-finite"),
                    (acc.add_batches, huge, "non-finite"),
                    (series.add_batches, huge, "non-finite"),
                    (series.add_batches, cube[:, :2, :2], "fixed sample")):
                with pytest.raises(ValueError, match=match):
                    feed(bad)
                assert acc.n_batches == series.n_batches == 6
            got = acc.finalize()
        assert (series.n_batches, series.per_sample_sums.tobytes()) == (
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
                    amp_acc.finalize(centering)
            amp_series = MomentAccumulator(amplitude_schema(),
                                           collect_per_sample=True)
            with pytest.raises(ValueError, match="non-finite per-sample"):
                amp_series.add_batches(big)
            assert amp_series.n_batches == 0
            assert amp_series.per_sample_sums is None
            amp_series.add_batches(big[:, :1])
            amp_other = MomentAccumulator(amplitude_schema(),
                                          collect_per_sample=True)
            amp_other.add_batches(big[:, 1:])
            amp_sums = amp_series.per_sample_sums.tobytes()
            with pytest.raises(ValueError, match="non-finite per-sample"):
                amp_series.merge_in_place(amp_other)
        assert amp_series.n_batches == 1
        assert amp_series.per_sample_sums.tobytes() == amp_sums
        # finite totals whose leave-one-out deviations (~1e307) would
        # overflow if squared as they are: the error stays finite
        wide = MomentAccumulator(amplitude_schema())
        for v in (8e76, -8e76, 8e75):
            wide.add_batches(np.full((6, 1, 1), v))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = wide.finalize("sample")["amp_n1n2"]
        assert math.isfinite(est.value.real) and est.value.real > 1e307
        assert math.isfinite(est.std_error) and est.std_error > 1e307


class TestCentering:
    def test_modes_against_direct_evaluation(self):
        rng = np.random.default_rng(251)
        c = 1.7
        u = rng.standard_normal(400) + 3.0
        acc = MomentAccumulator(scalar_schema(center=c))
        acc.add_batches(u[None, None, :200])
        acc.add_batches(u[None, None, 200:])
        expect = {
            "none": np.mean((u - c) ** 2),
            "sample": np.mean((u - u.mean()) ** 2),
            "reference": np.mean((u - u.mean()) ** 2),  # shiftable channel
            "raw": np.mean(u**2),
        }
        for mode, val in expect.items():
            rep = acc.finalize(centering=mode)
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
        acc.add_batches(u[None, None, :])
        acc.add_batches(u[None, None, :])
        rep = acc.finalize(centering="reference")
        # stays referenced to the declared center, not the empirical mean
        assert rep["m2"].value == pytest.approx(np.mean((u - c) ** 2), rel=1e-12)

    def test_unknown_centering_rejected(self):
        acc = MomentAccumulator(scalar_schema())
        feed_scalars(acc, list(range(20)))
        with pytest.raises(ValueError, match="centering"):
            acc.finalize(centering="bogus")


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
            rep = acc.finalize(centering=mode)
            q4 = rep["q4"].value
            pair4 = rep["amp_n1n2"].value
            assert q4 == pytest.approx(16.0 * params.g**4 * pair4, rel=1e-12)
            v0 = rep["var_x0"].value + rep["var_y0"].value
            pump = rep["amp_n0"].value
            assert v0 == pytest.approx(
                8.0 * params.gamma_r * params.g**2 * pump, rel=1e-12)

    def test_single_sample_batches_match_channel_cube(self):
        # state_channels of one (6,) state feeds add_batches as a batch of
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
                via_samples.add_batches(
                    state_channels(states[:, j, k], params)[:, None, None])
        ra = via_channels.finalize("sample")
        rb = via_samples.finalize("sample")
        for name in ("q4", "amp_n1n2", "t1", "s", "var_x0", "amp_triple"):
            assert ra[name].value == pytest.approx(rb[name].value,
                                                   rel=1e-10, abs=1e-12)


class TestOpoEnsembleMoments:
    def test_cov_y_yp_matches_ou_oracle(self, std_report, base_params):
        yyp = analytic_moment_report(base_params)["cov_y_yp"].value.real
        est = std_report["cov_y_yp"]
        assert abs(est.value.real - yyp) <= 3.0 * est.std_error
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
            acc.add_batches(np.zeros((3, 1, 5)))
        with pytest.raises(SchemaError):
            acc.add_batches([[[1.0]]])

    def test_amplitude_schema_needs_six_centers(self):
        with pytest.raises(SchemaError):
            amplitude_schema(centers=(0.0,) * 5)

    def test_schemas_state_the_amplitude_targets_once(self):
        # the eight amplitude targets, as both schemas stated them apart
        # before they shared one tuple, in the same order and place
        t = TargetSpec
        amplitude = (
            t("amp_n1n2", ((1, ("a1", "a1p", "a2", "a2p")),)),
            t("amp_n2n0", ((1, ("a2", "a2p", "a0", "a0p")),)),
            t("amp_n0n1", ((1, ("a0", "a0p", "a1", "a1p")),)),
            t("amp_n0", ((1, ("a0", "a0p")),)),
            t("amp_n1", ((1, ("a1", "a1p")),)),
            t("amp_n2", ((1, ("a2", "a2p")),)),
            t("amp_triple", ((1, ("a0", "a1", "a2")),)),
            t("amp_triple_conj", ((1, ("a0p", "a1p", "a2p")),)),
        )
        opo = opo_schema(ModelParams(0.5, 1.0, 0.05)).targets
        assert [tgt.name for tgt in opo] == [
            "t1", "t2", "t3", "t4", "s", "var_x0", "var_y0", "skew_x0",
            "cov_x_xp", "cov_y_yp", "cov_x0_x", "cov_x0_y", "cov_y0_x",
            "cov_y0_y", "q4", *(tgt.name for tgt in amplitude), "mean_x0",
            "mean_y0", "mean_x", "mean_y", "mean_xp", "mean_yp"]
        assert opo[15:23] == amplitude
        assert amplitude_schema().targets == amplitude + (
            t("mean_a0", ((1, ("a0",)),), apply_shift=False),)
