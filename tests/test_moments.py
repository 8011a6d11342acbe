"""Streaming moment accumulation: exact small-stream values, merge laws,
batch-means errors, centering algebra, and the quadrature/amplitude
mapping identities."""

import itertools
import math
import shutil
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
    fixed_point,
    merge,
    opo_schema,
    state_channels,
)
from opo3 import _kernels, _oracle, moments
from conftest import use_kernels

needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler (cc) on PATH")
# the key-sum kernels a test runs the accumulator on in turn
KEY_SUMMERS = ((_kernels._key_sums_c, _oracle._key_sums_numpy)
               if shutil.which("cc") else (_oracle._key_sums_numpy,))


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


def textbook_product(a, b):
    """The complex product (ac - bd, ad + bc), each real operation rounded
    on its own; numpy's complex multiply may fuse a multiply-add."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


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
        rep_a = a.finalize()
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
        # the merge is refused, and neither side changes
        params, cube = opo_cube(313, 3, 4)
        a = MomentAccumulator(opo_schema(params), collect_per_sample=True)
        b = MomentAccumulator(opo_schema(params), collect_per_sample=True)
        a.add_batches(cube[:, :, :2])
        b.add_batches(cube)
        sums = a.per_sample_sums.tobytes(), b.per_sample_sums.tobytes()
        want = a.finalize(), b.finalize()
        for x, y in ((a, b), (b, a)):
            with pytest.raises(SchemaError, match="per-sample shapes differ"):
                merge(x, y)
        assert (a.n_batches, a.n_samples) == (3, 6)
        assert (b.n_batches, b.n_samples) == (3, 12)
        assert (a.per_sample_sums.tobytes(),
                b.per_sample_sums.tobytes()) == sums
        for acc, rep in zip((a, b), want):
            got = acc.finalize()
            for name in acc.schema.target_names():
                assert got[name] == rep[name], name

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


def stored_sums(acc):
    """The accumulator's key sums, its pages joined into one (K, B)
    array."""
    return _kernels.Pages(acc._pages, acc.n_batches).joined()


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

    def test_key_sums_equal_left_to_right_products(self, monkeypatch):
        # keys are built from their prefixes; the block sums must still be
        # bitwise each key's channels multiplied left to right, each
        # product the textbook one, and added in sample order, the
        # per-sample sums those products added in trajectory order, and
        # both bitwise what one add_batches call per trajectory stores,
        # on the C key sums and on numpy's
        params, cube = opo_cube(281, 37, 9)
        schema = opo_schema(params)
        centers = np.array([c.center for c in schema.channels])
        for kernel in KEY_SUMMERS:
            use_kernels(monkeypatch, key_sums=kernel)
            for n in range(1, 10):
                values = cube[:, :, :n]
                acc = MomentAccumulator(schema, collect_per_sample=True)
                acc.add_batches(values)
                single = MomentAccumulator(schema, collect_per_sample=True)
                for j in range(37):
                    single.add_batches(values[:, j:j + 1])
                joined = stored_sums(single)
                centered = values - centers[:, None, None]
                block = stored_sums(acc)
                for k, key in enumerate(schema.key_order):
                    prod = centered[key[0]]
                    for idx in key[1:]:
                        prod = textbook_product(prod, centered[idx])
                    want = prod[:, 0]
                    for j in range(1, n):
                        want = want + prod[:, j]
                    assert (block[k].tobytes() == want.tobytes()
                            == joined[k].tobytes()), (n, key)
                    want = prod[0]
                    for b in range(1, 37):
                        want = want + prod[b]
                    assert (acc.per_sample_sums[k].tobytes()
                            == want.tobytes()
                            == single.per_sample_sums[k].tobytes()), (n, key)
                # so the running averages and the report are bitwise the
                # same
                assert single.n_batches == acc.n_batches == 37
                for mode in moments.CENTERINGS:
                    got = single.running_stats(mode)
                    want = acc.running_stats(mode)
                    for name in schema.target_names():
                        assert (_bits(got.target(name), got.n)
                                == _bits(want.target(name), want.n)), (
                            n, mode, name)
                    assert (repr(single.finalize(mode).entries)
                            == repr(acc.finalize(mode).entries)), (n, mode)

    @pytest.mark.parametrize("summer", KEY_SUMMERS,
                             ids=lambda f: f.__name__)
    def test_summers_refuse_non_finite_sums(self, summer):
        # each key-sum kernel refuses a non-finite batch sum, from a NaN
        # value or from products that overflow, before a per-sample sum
        # that overflows over batches, with the same messages
        schema = amplitude_schema()
        args = (schema._centers, schema._prefixes)
        nan = np.ones((6, 3, 2), dtype=np.complex128)
        nan[2, 1, 1] = complex(0.0, math.nan)
        huge = np.full((6, 2, 3), 1e100 + 0j)
        big = np.full((6, 2, 1), 1.05e77 + 0j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for values, match in ((nan, "sample values or key sums"),
                                  (huge, "sample values or key sums"),
                                  (big, "per-sample sums")):
                with pytest.raises(ValueError, match="non-finite " + match):
                    summer(values, *args, True, None)
            block, _ = summer(big, *args, False, None)
        assert np.all(np.isfinite(block))

    def test_arrival_order_is_bitwise_invisible(self):
        params, cube = opo_cube(277, 520, 3)
        schema = opo_schema(params)

        def fed(width):
            acc = MomentAccumulator(schema, collect_per_sample=True)
            for lo in range(0, 520, width):
                acc.add_batches(cube[:, lo:lo + width])
            return acc

        whole, feeds = fed(520), [fed(256), fed(5), fed(1)]
        bounds = np.linspace(0, 520, 9).astype(int)
        shards = [MomentAccumulator(schema).add_batches(cube[:, lo:hi])
                  for lo, hi in zip(bounds[:-1], bounds[1:])]
        merged = shards[0]
        for other in shards[1:]:
            merged = merge(merged, other)
        for acc in feeds:
            assert (acc.per_sample_sums.tobytes()
                    == whole.per_sample_sums.tobytes())
        for mode in ("reference", "sample", "none", "raw"):
            want = whole.finalize(mode)
            jk = want.jackknife(cs_parts)
            for acc in feeds + [merged]:
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
            # the running averages, which timeseries.csv prints
            running = whole.running_stats(mode)
            for acc in feeds:
                st = acc.running_stats(mode)
                for name in schema.target_names():
                    assert (_bits(st.target(name))
                            == _bits(running.target(name))), (mode, name)

    def test_merge_shares_no_mutable_state(self):
        params, cube = opo_cube(281, 90, 4)
        schema = opo_schema(params)

        def build(lo, hi, collect):
            acc = MomentAccumulator(schema, collect_per_sample=collect)
            for start in range(lo, hi, 16):
                acc.add_batches(cube[:, start:min(start + 16, hi)])
            return acc

        def state(acc):
            sums = acc.per_sample_sums
            rep = acc.finalize()
            return (acc.n_batches, acc.n_samples,
                    None if sums is None else sums.tobytes(),
                    [_bits(e.value, e.std_error, e.std_error_imag)
                     for e in rep.entries.values()])

        for collect in (False, True):
            a, b = build(0, 50, collect), build(50, 90, collect)
            m = merge(a, b)
            before = state(a), state(b)
            assert m.finalize().n_batches == 90
            m.add_batches(cube[:, :8])
            assert m.finalize().n_batches == 98
            assert (state(a), state(b)) == before
            if collect:
                # the stored sums are read-only, so a merge may share them
                for acc in (a, b, m):
                    with pytest.raises(ValueError, match="read-only"):
                        acc.per_sample_sums[0, 0] = 0.0
                assert (merge(MomentAccumulator(schema), b).per_sample_sums
                        is b.per_sample_sums)
            a.add_batches(cube[:, :8])
            assert m.n_batches == 98
            assert (a.n_batches, b.n_batches) == (58, 40)
            for acc, twin in (
                    (a, build(0, 50, collect).add_batches(cube[:, :8])),
                    (b, build(50, 90, collect))):
                assert state(acc) == state(twin), collect


def wide_schema():
    """Five channels and a target on every multiset of four of them: 125
    keys, where the OPO schema has 79."""
    names = tuple(f"u{i}" for i in range(5))
    channels = tuple(ChannelSpec(name, 0.25 * i - 0.5j)
                     for i, name in enumerate(names))
    targets = tuple(TargetSpec("m_" + "".join(mult), ((1, mult),))
                    for mult in itertools.combinations_with_replacement(
                        names, 4))
    return MomentSchema(channels=channels, targets=targets)


def sums_of(kernel, schema, values, collect=True, base=None):
    return kernel(values, schema._centers, schema._prefixes, collect, base)


@needs_cc
class TestKeySumKernels:
    """The C key sums against the numpy ones, the oracle: equal bytes."""

    @staticmethod
    def assert_same(values, schema, base=None, collect=True):
        got = sums_of(_kernels._key_sums_c, schema, values, collect, base)
        want = sums_of(_oracle._key_sums_numpy, schema, values, collect,
                       base)
        assert got[0].tobytes() == want[0].tobytes()
        if collect:
            assert got[1].tobytes() == want[1].tobytes()
        else:
            assert got[1] is want[1] is None
        return got

    def test_every_tile_shape(self):
        # 1 to 9 batches: a single batch, partial tiles and a full one and
        # more; 1 to 9 samples; chains fresh and carried on from a base
        params, cube = opo_cube(311, 9, 9)
        schema = opo_schema(params)
        rng = np.random.default_rng(312)
        for nb in range(1, 10):
            for n in range(1, 10):
                values = cube[:, :nb, :n]
                base = (rng.standard_normal((schema.n_keys, n))
                        + 1j * rng.standard_normal((schema.n_keys, n)))
                self.assert_same(values, schema, collect=False)
                self.assert_same(values, schema)
                self.assert_same(values, schema, base)

    def test_strided_views(self):
        # values read through their strides: reversed batches and every
        # other sample, channels reversed and every third batch, channels
        # from a batch-major array, Fortran order; an unaligned copy is
        # copied once more
        params, cube = opo_cube(313, 23, 10)
        schema = opo_schema(params)
        batch_major = np.ascontiguousarray(cube.transpose(1, 2, 0))
        views = (cube[:, ::-1, ::2], cube[::-1, 3:17:3],
                 batch_major.transpose(2, 0, 1), np.asfortranarray(cube))
        for values in views:
            assert not values.flags.c_contiguous
            self.assert_same(values, schema)
        raw = np.zeros(cube.nbytes + 1, dtype=np.uint8)
        unaligned = raw[1:].view(np.complex128).reshape(cube.shape)
        unaligned[...] = cube
        assert not unaligned.flags.aligned
        got = self.assert_same(unaligned, schema)
        want = sums_of(_kernels._key_sums_c, schema, cube)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_chains_carried_across_calls_and_merge(self, monkeypatch):
        # accumulators fed in slices of every width from 1 to 9, then
        # merged, hold the same bytes on either kernel
        params, cube = opo_cube(317, 60, 4)
        schema = opo_schema(params)

        def fed(kernel):
            use_kernels(monkeypatch, key_sums=kernel)
            shards = []
            for width, (lo, hi) in enumerate(((0, 25), (25, 60)), 4):
                acc = MomentAccumulator(schema, collect_per_sample=True)
                for start in range(lo, hi, width):
                    acc.add_batches(cube[:, start:min(start + width, hi)])
                shards.append(acc)
            return shards + [merge(*shards)]

        for got, want in zip(fed(_kernels._key_sums_c),
                             fed(_oracle._key_sums_numpy)):
            assert got.n_batches == want.n_batches
            assert stored_sums(got).tobytes() == stored_sums(want).tobytes()
            assert (got.per_sample_sums.tobytes()
                    == want.per_sample_sums.tobytes())
        for width in range(1, 10):
            feeds = [cube[:, lo:lo + width] for lo in range(0, 60, width)]
            chains = None
            for values in feeds:
                block, chains = self.assert_same(values, schema, chains)

    def test_amplitude_schema(self):
        rng = np.random.default_rng(319)
        values = (rng.standard_normal((6, 13, 5))
                  + 1j * rng.standard_normal((6, 13, 5)))
        for centers in ((0.0,) * 6, (0.5, -0.5, 1j, -1j, 2 + 1j, 0.25)):
            self.assert_same(values, amplitude_schema(centers))

    def test_more_keys_than_the_opo_schema(self):
        schema = wide_schema()
        assert schema.n_keys == 125 > opo_schema(ModelParams(
            mu=0.4, gamma_r=2.5, g=0.3)).n_keys
        rng = np.random.default_rng(331)
        values = (rng.standard_normal((5, 21, 6))
                  + 1j * rng.standard_normal((5, 21, 6)))
        _, chains = self.assert_same(values[:, :12], schema)
        self.assert_same(values[:, 12:], schema, chains)

    def test_bad_arguments_refused(self):
        # the C side trusts its arguments: prefix rows must name an earlier
        # key and a channel, and every array its dtype, shape and layout
        schema = wide_schema()
        values = np.ones((5, 3, 2), dtype=np.complex128)
        for row, bad in ((0, (5, 0)), (7, (-1, 0)), (3, (0, 5))):
            prefixes = schema._prefixes.copy()
            prefixes[row] = bad
            with pytest.raises(ValueError, match="earlier key"):
                _kernels._key_sums_c(values, schema._centers, prefixes,
                                     False, None)
        base = np.zeros((schema.n_keys, 2), dtype=np.complex128)
        for args, match in (
                ((values.real, schema._centers, schema._prefixes, False,
                  None), "complex128"),
                ((values[:, :0], schema._centers, schema._prefixes, False,
                  None), "at least one batch"),
                ((values, schema._centers.real, schema._prefixes, False,
                  None), "centers"),
                ((values, schema._centers, schema._prefixes[:-1], False,
                  base), "base"),
                ((values, schema._centers, schema._prefixes, True,
                  np.asfortranarray(base[:, :1].repeat(2, 1))), "base")):
            with pytest.raises(ValueError, match=match):
                _kernels._key_sums_c(*args)


def amplitude_parts(st):
    """A composite of the amplitude schema's targets."""
    q, p, t = (st.target(n) for n in ("amp_n1n2", "amp_n0", "amp_triple"))
    return np.stack([q.real * p.real + 0j, t * t.conjugate(),
                     st.target("amp_triple_conj")])


def evaluations(acc, series, composite):
    """The bytes of every report entry, of report.jackknife(composite) and
    of every running target and composite, under every centering."""
    out = []
    names = acc.schema.target_names()
    for mode in moments.CENTERINGS:
        rep = acc.finalize(mode)
        for e in rep.entries.values():
            out += _bits(e.value, e.std_error, e.std_error_imag)
        jk = rep.jackknife(composite)
        out += _bits(jk.value, jk.std_error, jk.std_error_imag)
        running = series.running_stats(mode)
        out += _bits(running.targets(names), composite(running))
    return out


def fed_unequally(schema, cube):
    """An accumulator fed the cube's batches with unequal sample counts,
    and one fed them whole with per-sample sums."""
    nb, n = cube.shape[1:]
    acc = MomentAccumulator(schema)
    acc.add_batches(cube[:, :260])
    acc.add_batches(cube[:, 260:300, :2])
    for j in range(300, nb):
        acc.add_batches(cube[:, j:j + 1, :j % n + 1])
    series = MomentAccumulator(schema, collect_per_sample=True)
    series.add_batches(cube[:, :100]).add_batches(cube[:, 100:])
    return acc, series


def targets_with(monkeypatch, evaluate, acc, series, composite):
    use_kernels(monkeypatch, targets=evaluate)
    return evaluations(acc, series, composite)


@needs_cc
class TestTargetPrograms:
    """The C target programs against the numpy ones, the oracle: equal
    bytes."""

    @pytest.mark.parametrize("kind", ["opo", "amplitude", "wide"])
    def test_every_target_under_every_centering(self, monkeypatch, kind):
        # unequal batch counts, 320 batches: a full tile of 256 and a
        # partial one; one channel holds its center alone, so its sum is
        # zero, yet it is shifted, by an exact zero mean, under "sample"
        # and "reference", and "raw" leaves the channels centered on 0
        rng = np.random.default_rng(347)
        if kind == "opo":
            params, cube = opo_cube(349, 320, 5)
            schema, composite, still = opo_schema(params), cs_parts, 5
        else:
            schema = (amplitude_schema((0.5, -0.5, 1j, 0.0, 2 + 1j, 0.25))
                      if kind == "amplitude" else wide_schema())
            composite = amplitude_parts if kind == "amplitude" else (
                lambda st: st.targets(schema.target_names()[:7]))
            shape = (schema.n_channels, 320, 5)
            cube = rng.standard_normal(shape) + 1j * rng.standard_normal(
                shape)
            still = 3
        cube[still] = schema.channels[still].center
        acc, series = fed_unequally(schema, cube)
        for mode in ("sample", "reference", "raw"):
            assert (still in schema._unshifted(mode)) == (
                mode == "raw" and schema.channels[still].center == 0)
        # numpy joins its pages one run at a time: here a page a run
        monkeypatch.setattr(_oracle, "PAGE_RUN", 1)
        got = targets_with(monkeypatch, _kernels._targets_c, acc, series,
                           composite)
        want = targets_with(monkeypatch, _oracle._targets_numpy, acc,
                            series, composite)
        assert got == want

    def test_strided_sums(self):
        # sums read through their strides: reversed and every other
        # column, keys reversed, Fortran order, an unaligned copy, and
        # adjacent columns, read as vectors; a full tile of 256 columns
        # and part of one
        rng = np.random.default_rng(353)
        schema = wide_schema()
        shape = (schema.n_keys, 2 * 300)
        sums = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        totals = sums[:, ::2].sum(axis=1)
        n = 3.0 + rng.random(300)
        names = tuple(schema.target_names()[::5])
        ops, consts = schema._program("sample", names)
        raw = np.zeros(sums.nbytes + 1, dtype=np.uint8)
        unaligned = raw[1:].view(np.complex128).reshape(shape)
        unaligned[...] = sums
        assert not unaligned.flags.aligned
        for view in (sums[:, ::-2], sums[::-1, ::2], np.asfortranarray(
                sums[:, ::2]), unaligned[:, ::2],
                np.ascontiguousarray(sums[:, ::2])):
            for t in (totals, None):
                got = _kernels._targets_c(ops, consts, view, t, n,
                                          len(names))
                want = _oracle._targets_numpy(ops, consts, view, t, n,
                                              len(names))
                assert got.tobytes() == want.tobytes()

    def test_spreads(self):
        # every row length from 1 to 70 values, whole groups of 16 values
        # and parts of one, then values whose squares overflow, a NaN and
        # a constant row; the numpy sums run in the C order, lane by lane
        rng = np.random.default_rng(367)
        for nb in range(1, 71):
            rows = (rng.standard_normal((3, nb)) + 1j * rng.standard_normal(
                (3, nb))) * np.array([[1.0], [1e-3], [1e5]])
            got = _kernels._spreads_c(rows)
            assert got.tobytes() == _oracle._spreads_numpy(rows).tobytes()
            lanes = rows.view(np.float64).reshape(3, nb, 2)
            want = ((lanes - lanes.mean(axis=1, keepdims=True)) ** 2).sum(
                axis=1)
            np.testing.assert_allclose(got, want, rtol=1e-13)
        rows = np.array([[1e200, -1e200, 3.0], [1.0, math.nan, 2.0],
                         [0.5 - 2j] * 3])
        got = _kernels._spreads_c(rows)
        assert got.tobytes() == _oracle._spreads_numpy(rows).tobytes()
        assert np.isinf(got[0, 0]) and np.isnan(got[1, 0])
        assert got[1, 1] == got[2, 0] == got[2, 1] == 0.0
        with pytest.raises(ValueError, match="C-contiguous"):
            _kernels._spreads_c(rows[:, ::2])

    def test_bad_programs_refused(self):
        # the C side trusts the layouts and checks the program: each
        # argument in range, each op's operands on the stack, none left
        K, S, A, M, T = (getattr(_kernels, "OP_" + op)
                         for op in ("KEY", "SHIFT", "ADD", "MEAN", "STORE"))
        sums = np.ones((3, 5), dtype=np.complex128)
        n, consts = np.full(5, 2.0), np.ones(1, dtype=np.complex128)
        for ops in ([(K, 3), (T, 0)], [(K, -1), (T, 0)], [(S, 0), (T, 0)],
                    [(K, 0), (S, 3), (T, 0)], [(K, 0), (A, 0), (T, 0)],
                    [(K, 0), (_kernels.OP_SCALE, 1), (T, 0)],
                    [(K, 0), (T, 1)], [(K, 0), (K, 1), (T, 0)],
                    [(M, 0)], [(K, 0), (len(_kernels.TARGET_OPS), 0),
                               (T, 0)], [(K, 0), (-1, 0), (T, 0)]):
            with pytest.raises(ValueError, match="target program"):
                _kernels._targets_c(np.array(ops, dtype=np.int64), consts,
                                    sums, None, n, 1)
        ops = np.array([(K, 0), (M, 0), (T, 0)], dtype=np.int64)
        for args, match in (
                ((ops, consts, sums.real, None, n, 1), "sums"),
                ((ops, consts, sums, np.ones(2, complex), n, 1), "totals"),
                ((ops, consts, sums, None, n[:4], 1), "n"),
                ((ops, consts, sums, None, n.astype(np.float32), 1), "n"),
                ((ops.ravel(), consts, sums, None, n, 1), "ops"),
                ((ops.astype(np.int32), consts, sums, None, n, 1), "ops"),
                ((ops, consts.real, sums, None, n, 1), "consts")):
            with pytest.raises(ValueError, match=match):
                _kernels._targets_c(*args)
        good = _kernels._targets_c(ops, consts, sums, None, n, 1)
        assert good.tobytes() == np.full((1, 5), 0.5 + 0j).tobytes()


def textbook_moment(key_sums, n, m, neg, product=textbook_product):
    """<(v - s)^m> from the key sums of v^1..v^m, key_sums[k - 1], and
    n samples: Horner's rule in neg = -s from the empty key's n, every
    complex product by `product`, then each part times 1/n."""
    acc = np.asarray(n, dtype=np.complex128)
    for k in range(1, m + 1):
        acc = product(acc, neg) + product(np.complex128(math.comb(m, k)),
                                          key_sums[k - 1])
    return mean_parts(acc, n)


def mean_parts(key_sum, n):
    """A mean: each part of the sum times 1/n."""
    inv = 1.0 / np.asarray(n)
    out = np.empty(np.shape(key_sum), dtype=np.complex128)
    out.real, out.imag = key_sum.real * inv, key_sum.imag * inv
    return out


class TestTextbookRounding:
    def test_reports_follow_the_textbook_product(self):
        # on a cube where numpy's complex multiply fuses a multiply-add
        # and so differs from the textbook product, the report's values
        # and errors are the textbook Horner rule's, bit for bit
        rng = np.random.default_rng(359)
        u = 1.5 + rng.standard_normal((1, 90, 3)) + 1j * (
            0.5 + rng.standard_normal((1, 90, 3)))
        schema = scalar_schema(center=0.7 - 0.2j)
        acc = MomentAccumulator(schema).add_batches(u)
        rows = [schema._key_index[(0,) * k] for k in range(1, 5)]
        fused = False
        for mode in ("sample", "raw"):
            rep = acc.finalize(mode)
            n = rep.batch_counts.astype(np.float64)
            totals = rep.batch_totals[rows]
            for key_sums, count in (
                    (totals, n.sum()),
                    (totals[:, None] - rep.batch_sums.joined()[rows],
                     n.sum() - n)):
                neg = (-mean_parts(key_sums[0], count) if mode == "sample"
                       else np.complex128(schema.channels[0].center))
                for name, m in (("m2", 2), ("m3", 3), ("m4", 4)):
                    want = textbook_moment(key_sums, count, m, neg)
                    numpy_way = textbook_moment(key_sums, count, m, neg,
                                                np.multiply)
                    fused |= not np.array_equal(want, numpy_way)
                    got = rep[name]
                    if np.ndim(count) == 0:
                        assert _bits(got.value) == _bits(want), (mode, name)
                    else:
                        assert _bits(got.std_error, got.std_error_imag) == (
                            _bits(*moments._jack_se(want[None])[0])), (
                                mode, name)
        probe = rng.standard_normal((2, 2000)) + 1j * rng.standard_normal(
            (2, 2000))
        if not np.array_equal(probe[0] * probe[1],
                              textbook_product(probe[0], probe[1])):
            # numpy fuses here, and on this cube its products differ
            assert fused


def _dividing_mean(re, im, n, inv):
    """A mean's parts from dividing by n, as numpy's complex / real
    computes it, in place of the product with the reciprocal inv."""
    z = np.empty(np.shape(re), dtype=np.complex128)
    z.real, z.imag = re, im
    z = z / n
    return z.real, z.imag


def _off_by_one_ulp_mean(re, im, n, inv):
    """A mean's parts times a reciprocal one ulp above 1/n."""
    up = np.nextafter(inv, np.inf)
    return re * up, im * up


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
        # the numpy target programs, each mean divided by n
        use_kernels(monkeypatch, targets=_oracle._targets_numpy)
        monkeypatch.setattr(_oracle, "_mean_numpy", _dividing_mean)
        assert evaluate() == got
        # every mean, the shifts' too, goes through _mean_numpy: a
        # reciprocal one ulp off shows
        monkeypatch.setattr(_oracle, "_mean_numpy", _off_by_one_ulp_mean)
        assert evaluate() != got

    def test_totals_cache_follows_the_batches(self):
        params, cube = opo_cube(307, 60, 4)
        schema = opo_schema(params)
        reports = []

        def check(acc, mode="reference"):
            rep = acc.finalize(mode)
            assert (rep.batch_totals.tobytes()
                    == rep.batch_sums.joined().sum(axis=1).tobytes())
            reports.append((rep, rep.batch_totals.tobytes()))
            return rep

        # finalize, add a batch, finalize again
        acc = MomentAccumulator(schema).add_batches(cube[:, :20])
        first = check(acc)
        assert check(acc, "sample").batch_totals is first.batch_totals
        acc.add_batches(cube[:, 20:21])
        assert check(acc).n_batches == 21
        # merge, then add to the merged accumulator
        other = MomentAccumulator(schema).add_batches(cube[:, 30:45])
        check(other)
        merged = merge(acc, other)
        joined = check(merged)
        assert joined.n_batches == 36
        assert check(merged, "sample").batch_totals is joined.batch_totals
        merged.add_batches(cube[:, 50:60])
        assert check(merged).n_batches == 46
        assert check(acc).n_batches == 21
        assert check(other).n_batches == 15
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
            amp_sums = (amp_series.per_sample_sums.tobytes(),
                        amp_other.per_sample_sums.tobytes())
            with pytest.raises(ValueError, match="non-finite per-sample"):
                merge(amp_series, amp_other)
        assert amp_series.n_batches == amp_other.n_batches == 1
        assert (amp_series.per_sample_sums.tobytes(),
                amp_other.per_sample_sums.tobytes()) == amp_sums
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

    @needs_cc
    def test_zero_shifts_follow_the_centering_alone(self, monkeypatch):
        # channel 1 sits at its center except in batch 0, so the replicate
        # that leaves batch 0 out has a zero mean and the others do not,
        # and channel 2 sits at its center throughout: the channels left
        # unshifted follow the centering alone, not the data, and shifting
        # by those exact zero means gives the C and numpy programs' bytes
        rng = np.random.default_rng(263)
        schema = amplitude_schema()
        cube = rng.standard_normal((6, 6, 3)) + 0j
        cube[1, 1:] = 0.0
        cube[2] = 0.0
        acc = MomentAccumulator(schema).add_batches(cube)
        sums, counts, totals = acc._batch_sums()
        n = counts.astype(np.float64)
        reps = moments._Stats(schema, sums, n.sum() - n, "sample", totals)
        means = reps._run((np.array([(_kernels.OP_KEY, 1),
                                     (_kernels.OP_MEAN, 0),
                                     (_kernels.OP_STORE, 0)]),
                           np.empty(0, dtype=np.complex128)), 1)[0]
        assert means[0] == 0 and np.all(means[1:] != 0)
        every = frozenset(range(6))
        assert [schema._unshifted(mode) for mode in moments.CENTERINGS] == [
            frozenset(), frozenset(), every, every]
        runs = []
        for targets in (_kernels._targets_c, _oracle._targets_numpy):
            use_kernels(monkeypatch, targets=targets)
            runs.append([_bits(e.value, e.std_error, e.std_error_imag)
                         for mode in moments.CENTERINGS
                         for e in acc.finalize(mode).entries.values()])
        assert runs[0] == runs[1]

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

    def test_every_opo_target_against_direct_means(self):
        # the inclusion-exclusion of every target under every centering
        # against numpy means of the centered products themselves, judged
        # on the size of the summed products; states around the fixed
        # point, so the raw centering undoes pump centers of mu/eps ~ 7
        params = ModelParams(mu=0.5, gamma_r=1.0, g=0.05)
        rng = np.random.default_rng(331)
        shape = (6, 48, 6)
        states = fixed_point(params).as_array()[:, None, None] + 0.3 * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        cube = state_channels(states, params)
        schema = opo_schema(params)
        acc = MomentAccumulator(schema)
        acc.add_batches(cube[:, :20]).add_batches(cube[:, 20:])
        index = {c.name: i for i, c in enumerate(schema.channels)}
        centers = np.array([c.center for c in schema.channels])
        shiftable = np.array([c.shiftable for c in schema.channels])
        v = cube.reshape(len(centers), -1) - centers[:, None]
        means = v.mean(axis=1)
        shifts = {"reference": np.where(shiftable, means, 0.0),
                  "sample": means, "none": np.zeros_like(means),
                  "raw": -centers}
        for mode, shift in shifts.items():
            rep = acc.finalize(mode)
            d = v - shift[:, None]
            for tgt in schema.targets:
                base = d if tgt.apply_shift else v
                want, scale = complex(tgt.offset), abs(tgt.offset)
                for coef, mult in tgt.terms:
                    prod = np.prod([base[index[ch]] for ch in mult], axis=0)
                    want += coef * prod.mean()
                    scale += abs(coef) * np.abs(prod).mean()
                assert abs(rep[tgt.name].value - want) <= 1e-12 * scale, (
                    mode, tgt.name)
        # with equal batches, the jackknife error of a plain mean is the
        # batch-means error
        rep = acc.finalize()
        for tgt in schema.targets:
            if tgt.apply_shift:
                continue
            (_, (ch,)), = tgt.terms
            batch_means = cube[index[ch]].mean(axis=1)
            for part, se in ((batch_means.real, rep[tgt.name].std_error),
                             (batch_means.imag,
                              rep[tgt.name].std_error_imag)):
                want = math.sqrt(part.var(ddof=1) / part.size)
                assert se == pytest.approx(want, rel=1e-12), tgt.name

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

    def test_target_without_terms_refused(self):
        with pytest.raises(SchemaError, match="no terms"):
            MomentSchema(channels=(ChannelSpec("u"),),
                         targets=(TargetSpec("t", (), offset=1.0),))

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


def moments_wide_cube(seed, n_batches=1024, n_samples=4):
    """The tiny `moments-wide` benchmark cube: the channels of complex
    Gaussian states around the fixed point, spread 0.3."""
    params = ModelParams(0.5, 1.0, 0.05)
    rng = np.random.default_rng(seed)
    shape = (6, n_batches, n_samples)
    states = fixed_point(params).as_array()[:, None, None] + 0.3 * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return params, state_channels(states, params)


def record_threads(monkeypatch):
    """Make the key sums, target programs, spreads and totals that the
    moment layer runs record the thread count they are given, their last
    positional argument; returns the {pass: set of counts} they fill."""
    seen, passes = {}, {}
    for name in ("key_sums", "targets", "spreads", "totals"):
        def recorder(*args, _pass=getattr(_kernels.kernels(), name),
                     _name=name, **kwargs):
            seen.setdefault(_name, set()).add(args[-1])
            return _pass(*args, **kwargs)
        passes[name] = recorder
    use_kernels(monkeypatch, **passes)
    return seen


@needs_cc
class TestThreadSplits:
    """The C moment passes split over 1, 2 and 3 threads: every count
    gives the numpy oracle's bytes."""

    COUNTS = (1, 2, 3)

    def test_key_sums_without_chains(self):
        # 1 to 3 tiles, full and partial, so some threads get no tile or
        # a partial one, and views with a negative batch stride; the
        # values are scaled for each count, so that a batch a split
        # leaves unwritten cannot hold the last call's bytes
        params, cube = opo_cube(401, 21, 3)
        schema = opo_schema(params)
        every = slice(None)
        for view in ((every, slice(8)), (every, slice(17)), (every,),
                     (every, slice(None, None, -1)),
                     (every, slice(None, None, -2), slice(None, None, 2))):
            for threads in self.COUNTS:
                values = (cube * threads)[view]
                want, _ = sums_of(_oracle._key_sums_numpy, schema, values,
                                  False)
                got, chains = _kernels._key_sums_c(
                    values, schema._centers, schema._prefixes, False, None,
                    threads)
                assert chains is None
                assert got.tobytes() == want.tobytes(), threads

    def test_chains_stay_in_batch_order(self, monkeypatch):
        # collecting per-sample sums keeps one thread, so the blocks and
        # the chains carried across calls are the same bytes at any count
        params, cube = opo_cube(403, 45, 3)
        schema = opo_schema(params)
        runs = []
        for threads in self.COUNTS:
            monkeypatch.setenv("OPO3_WORKERS", str(threads))
            acc = MomentAccumulator(schema, collect_per_sample=True)
            for lo in range(0, 45, 20):
                acc.add_batches(cube[:, lo:lo + 20])
            runs.append([acc._batch_sums()[0].joined().tobytes(),
                         acc.per_sample_sums.tobytes()])
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_targets(self):
        # 270 columns, a full tile of 256 and a partial one, and 600, two
        # and a partial one, with and without totals, read through a
        # negative stride; new sums for each count, so that a column a
        # split leaves unwritten cannot hold the last call's bytes
        rng = np.random.default_rng(405)
        schema = wide_schema()
        names = tuple(schema.target_names()[::4])
        ops, consts = schema._program("sample", names)
        for nb, threads in itertools.product((270, 600), self.COUNTS):
            shape = (schema.n_keys, nb)
            sums = (rng.standard_normal(shape)
                    + 1j * rng.standard_normal(shape))[:, ::-1]
            n = 3.0 + rng.random(nb)
            for t in (sums.sum(axis=1), None):
                want = _oracle._targets_numpy(ops, consts, sums, t, n,
                                              len(names))
                got = _kernels._targets_c(ops, consts, sums, t, n,
                                          len(names), threads)
                assert got.tobytes() == want.tobytes(), (nb, threads)

    def test_spreads(self):
        # fewer rows than threads, and more; new rows for each count
        rng = np.random.default_rng(407)
        for n_rows, threads in itertools.product((1, 2, 7), self.COUNTS):
            rows = (rng.standard_normal((n_rows, 37))
                    + 1j * rng.standard_normal((n_rows, 37)))
            want = _oracle._spreads_numpy(rows).tobytes()
            assert _kernels._spreads_c(rows, threads).tobytes() == want

    def test_concurrent_calls(self):
        # the passes keep their scratch from call to call; a call that
        # finds it in use, here by a call on another Python thread (more
        # of them than CPUs), takes its own, and both give the oracle's
        # bytes
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(409)
        schema = wide_schema()
        names = tuple(schema.target_names())
        ops, consts = schema._program("sample", names)
        inputs = []
        for nb in (300, 700, 40, 520):
            shape = (schema.n_keys, nb)
            sums = rng.standard_normal(shape) + 1j * rng.standard_normal(
                shape)
            inputs.append((sums, sums.sum(axis=1), 3.0 + rng.random(nb)))

        def run(i):
            sums, totals, n = inputs[i % len(inputs)]
            return _kernels._targets_c(ops, consts, sums, totals, n,
                                       len(names), 1 + i % 3).tobytes()

        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(run, range(32), timeout=60))
        for i, out in enumerate(got):
            sums, totals, n = inputs[i % len(inputs)]
            assert out == _oracle._targets_numpy(
                ops, consts, sums, totals, n, len(names)).tobytes(), i

    def test_reports_and_criteria_at_any_worker_count(self, monkeypatch):
        # the moments-wide pipeline on its tiny cube: sliced feeds, a
        # merge, finalize under every centering and cs_test on every
        # partition give the same bytes at OPO3_WORKERS=1 and at 3
        from opo3 import criteria

        params, cube = moments_wide_cube(2026)
        schema = opo_schema(params)
        seen = record_threads(monkeypatch)
        runs = []
        for workers in ("1", "3"):
            monkeypatch.setenv("OPO3_WORKERS", workers)
            halves = [MomentAccumulator(schema), MomentAccumulator(schema)]
            for acc, (lo, hi) in zip(halves, ((0, 512), (512, 1024))):
                for start in range(lo, hi, 256):
                    acc.add_batches(cube[:, start:start + 256])
            acc = merge(*halves)
            out = []
            for mode in moments.CENTERINGS:
                rep = acc.finalize(mode)
                for e in rep.entries.values():
                    out += _bits(e.value, e.std_error, e.std_error_imag)
            ref = acc.finalize()
            out += [repr(criteria.cs_test(ref, partition=p))
                    for p in sorted(criteria.PARTITIONS)]
            runs.append(out)
        assert runs[1] == runs[0]
        assert {name: counts >= {1, 3} for name, counts in seen.items()} == {
            "key_sums": True, "targets": True, "spreads": True,
            "totals": True}


def test_bad_worker_count_refused_as_run_ensemble_refuses(monkeypatch):
    # the moment layer follows the engine's worker-count rule, refusals
    # and messages included
    from opo3 import SimConfig, run_ensemble

    params, cube = moments_wide_cube(409, 6, 2)
    acc = MomentAccumulator(opo_schema(params)).add_batches(cube)
    monkeypatch.setenv("OPO3_WORKERS", "abc")
    cfg = SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                    n_samples_per_traj=1, n_trajectories=2)
    with pytest.raises(ValueError) as want:
        run_ensemble(params, cfg)
    with pytest.raises(ValueError) as got:
        acc.finalize()
    assert str(got.value) == str(want.value) == (
        "OPO3_WORKERS must be an integer >= 1, got 'abc'")


def paged(sums):
    """`sums` (K, B) in pages whose columns past the last are NaN, which no
    pass may read."""
    k, nb = sums.shape
    pages = np.full((-(-nb // _kernels.PAGE_COLUMNS), k,
                     _kernels.PAGE_COLUMNS), np.nan, dtype=np.complex128)
    for at, page in zip(range(0, nb, _kernels.PAGE_COLUMNS), pages):
        page[:, :nb - at] = sums[:, at:at + _kernels.PAGE_COLUMNS]
    return _kernels.Pages(pages, nb)


def report_bits(acc, composite=cs_parts):
    """The bytes of every entry of acc's reports, of their totals and of
    one jackknifed composite, under every centering."""
    out = []
    for mode in moments.CENTERINGS:
        rep = acc.finalize(mode)
        out += [_bits(e.value, e.std_error, e.std_error_imag)
                for e in rep.entries.values()]
        jk = rep.jackknife(composite)
        out += [_bits(rep.batch_totals, jk.value, jk.std_error,
                      jk.std_error_imag)]
    return out


@needs_cc
class TestPages:
    """The key sums in pages: written and read in place, never joined."""

    def test_totals_are_the_joined_rows_sums(self):
        # numpy's sum(axis=1) of the joined array, byte for byte, at every
        # column count from 1 to 600, about 2^14 and 70,000, on 1, 2 and 3
        # threads; magnitudes spread over 2^+-40 make the order of the
        # adds show, and rows of signed zeros the +0 that numpy starts from
        rng = np.random.default_rng(421)
        for nb in (*range(1, 601), 16_383, 16_384, 16_385, 70_000):
            shape = (3, nb)
            sums = (rng.standard_normal(shape) + 1j * rng.standard_normal(
                shape)) * 2.0 ** rng.integers(-40, 40, shape)
            sums[2] = np.where(rng.random(nb) < 0.5, complex(-0.0, 0.0),
                               complex(-0.0, -0.0))
            want = sums.sum(axis=1).tobytes()
            stored = paged(sums)
            assert _oracle._totals_numpy(stored).tobytes() == want, nb
            for threads in (1, 2, 3):
                got = _kernels._totals_c(stored, threads)
                assert got.tobytes() == want, (nb, threads)

    def test_batches_straddle_pages(self, monkeypatch):
        # calls of 1 to 300 batches that start anywhere in a page and
        # cross page boundaries store each batch's sums in its column, on
        # the C key sums and numpy's, so the store and the reports are
        # those of one call
        params, cube = opo_cube(431, 700, 3)
        schema = opo_schema(params)
        want = _oracle._key_sums_numpy(cube, schema._centers,
                                       schema._prefixes, False, None)[0]
        whole = report_bits(MomentAccumulator(schema).add_batches(cube))
        for key_sums in KEY_SUMMERS:
            use_kernels(monkeypatch, key_sums=key_sums)
            acc, lo = MomentAccumulator(schema), 0
            for width in (1, 254, 3, 300, 1, 141):
                acc.add_batches(cube[:, lo:lo + width])
                lo += width
            assert len(acc._pages) == 3
            assert stored_sums(acc).tobytes() == want.tobytes()
            assert report_bits(acc) == whole

    @pytest.mark.parametrize("n_a, n_b", [(100, 300), (256, 300), (300, 257),
                                          (512, 100), (1, 598)])
    def test_merges_at_any_batch_count(self, n_a, n_b):
        # a merge shares b's pages when a holds whole pages and copies b's
        # columns into pages of its own otherwise; either way it is one
        # stream's accumulator, and later batches, added to it and to a and
        # b, land in pages of each one's own
        params, cube = opo_cube(433, 640, 2)
        schema = opo_schema(params)
        a = MomentAccumulator(schema).add_batches(cube[:, :n_a])
        b = MomentAccumulator(schema).add_batches(cube[:, n_a:n_a + n_b])
        before = [stored_sums(a).tobytes(), stored_sums(b).tobytes()]
        merged = merge(a, b)
        shared = n_a % _kernels.PAGE_COLUMNS == 0
        assert (merged._pages[-1] is b._pages[-1]) == shared
        one = MomentAccumulator(schema).add_batches(cube[:, :n_a + n_b])
        assert stored_sums(merged).tobytes() == stored_sums(one).tobytes()
        assert report_bits(merged) == report_bits(one)
        end = n_a + n_b
        for acc in (merged, a, b, one):
            acc.add_batches(cube[:, end:end + 20])
        assert stored_sums(merged).tobytes() == stored_sums(one).tobytes()
        assert report_bits(merged) == report_bits(one)
        extra = [stored_sums(acc)[:, -20:].tobytes() for acc in (a, b)]
        assert [stored_sums(a)[:, :n_a].tobytes(),
                stored_sums(b)[:, :n_b].tobytes()] == before
        assert extra[0] == extra[1] == stored_sums(one)[:, -20:].tobytes()

    def test_report_keeps_its_bytes_as_its_last_page_fills(self):
        # a report taken mid-stream holds the accumulator's partial last
        # page, read-only; the batches that land in that page's columns
        # later go to a copy, so the report, its jackknife and the page keep
        # their bytes
        params, cube = opo_cube(437, 400, 3)
        acc = MomentAccumulator(opo_schema(params)).add_batches(cube[:, :100])
        rep = acc.finalize()
        (held,) = rep.batch_sums.pages
        assert not held.flags.writeable

        def bits():
            jk = rep.jackknife(cs_parts)
            return ([_bits(e.value, e.std_error, e.std_error_imag)
                     for e in rep.entries.values()]
                    + [_bits(held, rep.batch_totals, jk.value, jk.std_error)])

        before = bits()
        acc.add_batches(cube[:, 100:300])
        assert acc._pages[0] is not held and acc.n_batches == 300
        assert bits() == before
        assert report_bits(acc) == report_bits(
            MomentAccumulator(opo_schema(params)).add_batches(cube[:, :300]))

    def test_finalize_passes_give_one_pass_bytes(self, monkeypatch):
        # finalize evaluates its targets in passes of at most
        # REPLICATE_BYTES of replicates; passes of 3, 1 and 7 rows give
        # the bytes of one pass over all 29
        params, cube = opo_cube(441, 300, 3)
        acc = MomentAccumulator(opo_schema(params)).add_batches(cube)
        want = report_bits(acc)
        for rows in (3, 1, 7):
            monkeypatch.setattr(moments, "REPLICATE_BYTES", 16 * 300 * rows)
            assert report_bits(acc) == want

    def test_finalize_reads_the_pages_in_place(self):
        # finalize and cs_test on every partition, on 16,384 batches fed a
        # page at a time, allocate less than a quarter of the stored key
        # sums: no pass joins the pages into a (K, B) array.  What they do
        # allocate is their replicates, a row of B values per target, so
        # the schema keeps the OPO channels and the targets that bound a
        # Cauchy-Schwarz test (the amplitude moments, s and q4): 10 rows
        # against 76 keys, where the full OPO schema's 29 rows in one pass
        # are 37% of its 79 keys' store
        import tracemalloc

        from opo3 import criteria

        params, cube = moments_wide_cube(439, 16_384, 2)
        full = opo_schema(params)
        schema = MomentSchema(full.channels, tuple(
            t for t in full.targets
            if t.name in ("s", "q4") or t.name.startswith("amp_")), params)
        acc = MomentAccumulator(schema)
        for lo in range(0, 16_384, _kernels.PAGE_COLUMNS):
            acc.add_batches(cube[:, lo:lo + _kernels.PAGE_COLUMNS])
        stored = acc.n_batches * acc.schema.n_keys * 16
        tracemalloc.start()
        try:
            rep = acc.finalize()
            for partition in criteria.PARTITIONS:
                criteria.cs_test(rep, partition=partition)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stored / 4, (peak, stored)
