"""Streaming, mergeable estimation of centered moments up to order four.

The accumulator is generic over a schema: a list of complex channels (each
with a provisional center and a flag saying whether it may be re-centered on
the empirical mean) and a list of named targets (linear combinations of
moment multisets).  Raw power sums of channel products are accumulated per
batch; centering is applied at finalize time by inclusion-exclusion, which
avoids a second pass while still centering on empirical means where wanted.

Batches are the unit of error estimation: one batch per trajectory in
ensemble runs.  Standard errors come from leave-one-out jackknife over
batches, which for plain moments reduces to batch means and extends cleanly
to nonlinear composites (criteria ratios and margins).

Centering modes at finalize time:
  reference  shift only channels flagged shiftable to their empirical means;
             non-shiftable channels (the pump) stay at their provisional
             reference centers (default, matches the analytic module)
  sample     shift every channel to its empirical mean
  none       no shifts; moments taken about the provisional centers
  raw        undo the provisional centers; plain uncentered moments
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams

CENTERINGS = ("reference", "sample", "none", "raw")

LOW_CONFIDENCE_BATCHES = 30


class SchemaError(ValueError):
    """Raised on schema mismatches or unknown channels/targets."""


class NoSamplesError(ValueError):
    """Raised when finalizing without enough data."""


@dataclass(frozen=True)
class ChannelSpec:
    name: str
    center: complex = 0.0
    shiftable: bool = True


@dataclass(frozen=True)
class TargetSpec:
    """A named moment: offset + sum of coef * <product over a multiset>.

    terms holds (coef, multiset) pairs where each multiset is a tuple of
    channel names (repeats allowed).  With apply_shift the multiset factors
    are centered per the finalize mode; without it the raw (provisionally
    centered) moment is reported, which is how plain means are exposed.
    """

    name: str
    terms: tuple
    apply_shift: bool = True
    offset: complex = 0.0


@dataclass(frozen=True)
class MomentSchema:
    channels: tuple
    targets: tuple
    params: ModelParams | None = None

    def __post_init__(self):
        names = [c.name for c in self.channels]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate channel names")
        index = {n: i for i, n in enumerate(names)}
        target_terms = {}
        keys = set()
        for tgt in self.targets:
            terms_idx = []
            for coef, mult in tgt.terms:
                try:
                    idx = tuple(sorted(index[ch] for ch in mult))
                except KeyError as exc:
                    raise SchemaError(f"unknown channel in target {tgt.name}: {exc}")
                if not 1 <= len(idx) <= 4:
                    raise SchemaError(f"target {tgt.name}: order must be 1..4")
                terms_idx.append((complex(coef), idx))
                keys.update(_submultisets(idx))
            if tgt.name in target_terms:
                raise SchemaError(f"duplicate target name {tgt.name}")
            target_terms[tgt.name] = (complex(tgt.offset), tgt.apply_shift,
                                      tuple(terms_idx))
        # singletons always present so empirical shifts are computable
        keys.update((i,) for i in range(len(names)))
        keys.discard(())
        key_order = tuple(sorted(keys, key=lambda k: (len(k), k)))
        object.__setattr__(self, "_target_terms", target_terms)
        object.__setattr__(self, "key_order", key_order)
        object.__setattr__(self, "_key_index", {k: i for i, k in enumerate(key_order)})

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def n_keys(self) -> int:
        return len(self.key_order)

    def target_names(self):
        return [t.name for t in self.targets]


def _submultisets(idx: tuple) -> list:
    """All nonempty sub-multisets of a sorted index tuple, sorted tuples."""
    uniq = sorted(set(idx))
    mults = [idx.count(u) for u in uniq]
    out = []
    for kvec in itertools.product(*(range(m + 1) for m in mults)):
        sub = tuple(u for u, k in zip(uniq, kvec) for _ in range(k))
        if sub:
            out.append(sub)
    return out


@dataclass(frozen=True)
class MomentEstimate:
    """One moment: complex point estimate with componentwise jackknife errors."""

    value: complex
    std_error: float = 0.0
    std_error_imag: float = 0.0
    n_batches: int = 0
    low_confidence: bool = False

    def to_dict(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "std_error": self.std_error,
            "std_error_imag": self.std_error_imag,
            "n_batches": self.n_batches,
            "low_confidence": self.low_confidence,
        }


@dataclass
class MomentReport:
    """Named estimates, from one finalize or from closed forms.

    finalize attaches read-only references to the (K, B) batch sums, the
    (B,) counts and the (K,) totals it evaluated, so composites of a report
    are jackknifed over exactly those batches, however the accumulator
    grows afterwards, without summing them again.
    """

    entries: dict
    n_samples: int
    n_batches: int
    centering: str
    label: str = "monte-carlo"
    params: ModelParams | None = None
    schema: MomentSchema | None = field(default=None, repr=False)
    batch_sums: np.ndarray | None = field(default=None, repr=False,
                                          compare=False)
    batch_counts: np.ndarray | None = field(default=None, repr=False,
                                            compare=False)
    batch_totals: np.ndarray | None = field(default=None, repr=False,
                                            compare=False)

    def __getitem__(self, name: str) -> MomentEstimate:
        try:
            return self.entries[name]
        except KeyError:
            raise SchemaError(f"moment {name!r} missing from report")

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "n_samples": self.n_samples,
            "n_batches": self.n_batches,
            "centering": self.centering,
            "moments": {k: v.to_dict() for k, v in self.entries.items()},
        }

    def jackknife(self, fn) -> "JackknifeResult":
        """Leave-one-batch-out errors of fn, one per element of its result.

        fn maps a stats context to a scalar or 1-d array of values and must
        be written with numpy-broadcastable operations: it is evaluated once
        on scalars (full dataset) and once on (B,)-shaped replicate arrays.
        Without batch data fn sees the stored values, which must be exact,
        and its errors are exactly zero.
        """
        if self.batch_sums is not None:
            return _jackknife(fn, self.schema, self.batch_sums,
                              self.batch_counts, self.batch_totals,
                              self.centering)
        value = np.atleast_1d(np.asarray(fn(_ExactValues(self)),
                                         dtype=np.complex128))
        zero = np.zeros(value.shape)
        return JackknifeResult(value, zero, zero, self.n_batches)


class _Stats:
    """Evaluation context over key-major raw sums: (K,) for the full dataset
    or (K, M) for M replicates with n shaped (M,); given totals, replicate m
    leaves batch m out (totals - sums[:, m]).  Derived quantities broadcast.
    Raw means multiply by 1/n, taken once per context as complex128.
    """

    def __init__(self, schema: MomentSchema, sums, n, centering: str,
                 totals=None):
        if centering not in CENTERINGS:
            raise ValueError(f"centering must be one of {CENTERINGS}")
        self.schema = schema
        self._sums = sums
        self._totals = totals
        self._n = n
        # numpy's complex / real is (a + b*0) * (1/c), so this product gives
        # its bits, bar the sign of a part that is exactly zero
        self._inv_n = (1.0 / n).astype(np.complex128)
        self.centering = centering
        self._cache = {}
        self._pow_cache = {}

    def raw(self, key: tuple):
        if key == ():
            return 1.0 if np.isscalar(self._n) else np.ones_like(self._n, dtype=np.complex128)
        idx = self.schema._key_index[key]
        if self._totals is None:
            return self._sums[idx] * self._inv_n
        return (self._totals[idx] - self._sums[idx]) * self._inv_n

    def _neg_shift_powers(self, ch: int):
        """[(-s)^1, ..., (-s)^4] for the shift s of channel ch under the
        centering mode, or None when s is zero."""
        if ch not in self._pow_cache:
            spec = self.schema.channels[ch]
            s = 0.0
            if self.centering == "sample" or (self.centering == "reference" and spec.shiftable):
                s = self.raw((ch,))
            elif self.centering == "raw":
                s = -complex(spec.center)
            pows = None
            if np.any(s != 0.0):
                pows = [-s]
                for _ in range(3):
                    pows.append(pows[-1] * pows[0])
            self._pow_cache[ch] = pows
        return self._pow_cache[ch]

    def centered(self, key: tuple):
        """Inclusion-exclusion: E[prod (v_c - shift_c)] from raw moments.

        Channels with zero shift contribute only their full power, so the
        expansion runs over the shifted channels alone.
        """
        mults = {u: key.count(u) for u in sorted(set(key))}
        shifted = [u for u in mults if self._neg_shift_powers(u) is not None]
        fixed = tuple(u for u in key if u not in shifted)
        total = 0.0
        for kvec in itertools.product(*(range(mults[u] + 1) for u in shifted)):
            sub = tuple(sorted(fixed + tuple(
                u for u, k in zip(shifted, kvec) for _ in range(k))))
            term = self.raw(sub)
            coef = 1
            for u, k in zip(shifted, kvec):
                coef *= math.comb(mults[u], k)
                if k < mults[u]:
                    term = term * self._neg_shift_powers(u)[mults[u] - k - 1]
            total = total + coef * term
        return total

    def target(self, name: str):
        if name in self._cache:
            return self._cache[name]
        entry = self.schema._target_terms.get(name)
        if entry is None:
            raise SchemaError(f"unknown target {name!r}")
        total, apply_shift, terms = entry
        for coef, key in terms:
            part = self.centered(key) if apply_shift else self.raw(key)
            total = total + coef * part
        self._cache[name] = total
        return total

    @property
    def n(self):
        return self._n


class _ExactValues:
    """Context over a report's stored values; refuses any with an error."""

    def __init__(self, report: MomentReport):
        self._report = report

    def target(self, name: str):
        est = self._report[name]
        if est.std_error or est.std_error_imag:
            raise ValueError(f"{name} carries a nonzero error, but the report "
                             "has no batch data to propagate it from")
        return est.value


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite {what}")
    return arr


def _jack_se(loo):
    """Jackknife SEs of the real and imaginary parts from one value's (B,)
    leave-one-out replicates.  A sum of squares that overflows is redone on
    deviations scaled by an exact power of two; the caller mutes overflow."""
    b = loo.shape[-1]
    dev = loo - loo.mean(axis=-1, keepdims=True)
    se = []
    for part in (dev.real, dev.imag):
        err = np.sqrt((b - 1) / b * (part ** 2).sum(axis=-1))
        if math.isinf(err):
            exp = math.frexp(np.abs(part).max())[1]
            squares = (np.ldexp(part, -exp) ** 2).sum(axis=-1)
            err = np.ldexp(np.sqrt((b - 1) / b * squares), exp)
        se.append(err)
    return tuple(se)


@dataclass(frozen=True)
class JackknifeResult:
    value: np.ndarray
    std_error: np.ndarray
    std_error_imag: np.ndarray
    n_batches: int


def _jackknife(fn, schema: MomentSchema, sums, counts, totals,
               centering: str) -> JackknifeResult:
    """fn on the full (K, B) batch sums, whose (K,) totals are given, and on
    each leave-one-batch-out replicate; componentwise errors, one per
    element of fn's result."""
    n = counts.astype(np.float64)
    value = fn(_Stats(schema, totals, n.sum(), centering))
    reps = fn(_Stats(schema, sums, n.sum() - n, centering, totals=totals))
    if np.ndim(value) == 0:
        value, reps = [value], [reps]
    with np.errstate(over="ignore"):
        se_re, se_im = np.array([_jack_se(np.asarray(r, dtype=np.complex128))
                                 for r in reps]).T
    return JackknifeResult(np.asarray(value, dtype=np.complex128), se_re,
                           se_im, counts.size)


class MomentAccumulator:
    """Mergeable raw-moment sums with per-batch bookkeeping.

    Samples arrive through add_batches as channel vectors (values in
    schema channel order), one batch per trajectory.  A block's K key
    products fill one (K, nb, n) array, reduced to its batch sums in one
    call.  Per-batch key sums are stored key-major in (K, nb) blocks that
    are never written after they are appended, so copies, merges and
    reports share them.  Evaluation joins them once into one read-only
    (K, B) array and sums along its batch axis pairwise, so the totals
    depend on the batch order alone, not on how batches arrived; the
    totals are kept until a batch is added.
    """

    def __init__(self, schema: MomentSchema, collect_per_sample: bool = False):
        self.schema = schema
        self._blocks = []         # (K, nb) complex batch sums
        self._block_ns = []       # (nb,) int sample counts
        self._totals = None       # (K,) sums of the joined block, if taken
        self.collect_per_sample = bool(collect_per_sample)
        self.per_sample_sums = None    # (K, n_samples) complex when collected

    # -- feeding ---------------------------------------------------------

    def _center_values(self, values: np.ndarray, out=None) -> np.ndarray:
        centers = np.array([c.center for c in self.schema.channels],
                           dtype=np.complex128)
        return np.subtract(
            values, centers.reshape((-1,) + (1,) * (values.ndim - 1)), out=out)

    def _key_products(self, values: np.ndarray) -> np.ndarray:
        # the singletons lead key_order in channel order, so the centered
        # values fill its first rows; each later key extends its prefix, a
        # key listed before it, by one channel: the left-to-right product
        # with one multiply per key
        c, key_index = self.schema.n_channels, self.schema._key_index
        out = np.empty((self.schema.n_keys,) + values.shape[1:],
                       dtype=np.complex128)
        self._center_values(values, out=out[:c])
        for k, key in enumerate(self.schema.key_order[c:], c):
            np.multiply(out[key_index[key[:-1]]], out[key[-1]], out=out[k])
        return out

    def _per_sample_total(self, sums: np.ndarray) -> np.ndarray:
        """The per-sample sums with `sums` added, refused if they overflow."""
        base = self.per_sample_sums
        if base is None:
            base = np.zeros_like(sums)
        elif base.shape != sums.shape:
            raise SchemaError("per-sample shapes differ: per-sample "
                              "collection needs a fixed sample count")
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite(base + sums, "per-sample sums")

    def add_batches(self, values) -> "MomentAccumulator":
        """B per-trajectory batches of n samples: values shaped
        (n_channels, B, n); one batch of n samples is values[:, None, :].

        When collect_per_sample is set, also folds per-sample-index sums
        (over trajectories) for running-average curves.
        """
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != 3 or values.shape[0] != self.schema.n_channels:
            raise SchemaError("expected values shaped (n_channels, B, n)")
        nb, n = values.shape[1], values.shape[2]
        if nb == 0:
            return self
        if n == 0:
            raise ValueError("empty batch: each batch needs at least one sample")
        # non-finite values or overflowing products leave a non-finite sum
        with np.errstate(over="ignore", invalid="ignore"):
            prods = self._key_products(values)
            block = _finite(prods.sum(axis=2), "sample values or key sums")
            if self.collect_per_sample:
                self.per_sample_sums = self._per_sample_total(
                    prods.sum(axis=1))
        self._blocks.append(block)
        self._block_ns.append(np.full(nb, n, dtype=np.int64))
        self._totals = None
        return self

    # -- bookkeeping -----------------------------------------------------

    @property
    def n_samples(self) -> int:
        return sum(int(ns.sum()) for ns in self._block_ns)

    @property
    def n_batches(self) -> int:
        return sum(len(ns) for ns in self._block_ns)

    def copy(self) -> "MomentAccumulator":
        out = MomentAccumulator(self.schema,
                                collect_per_sample=self.collect_per_sample)
        out._blocks = list(self._blocks)
        out._block_ns = list(self._block_ns)
        out._totals = self._totals
        if self.per_sample_sums is not None:
            out.per_sample_sums = self.per_sample_sums.copy()
        return out

    def merge_in_place(self, other: "MomentAccumulator") -> "MomentAccumulator":
        """Append other's batches; a refused merge leaves self unchanged.

        Per-sample sums cover every batch or none: a side with them merges
        only with a side that has them too or holds no batch, and batches
        without them end an empty accumulator's collection.
        """
        if self.schema != other.schema:
            raise SchemaError("cannot merge accumulators with different schemas")
        if (self.n_batches and other.n_batches
                and (self.per_sample_sums is None)
                != (other.per_sample_sums is None)):
            raise SchemaError("cannot merge per-sample sums with batches "
                              "that have none")
        if other.per_sample_sums is not None:
            self.per_sample_sums = self._per_sample_total(other.per_sample_sums)
        if other.n_batches:
            self.collect_per_sample = other.per_sample_sums is not None
        self._blocks.extend(other._blocks)
        self._block_ns.extend(other._block_ns)
        self._totals = None
        return self

    # -- evaluation ------------------------------------------------------

    def running_stats(self, centering: str = "reference") -> _Stats:
        """Stats context over running averages of the per-sample sums:
        entry j pools sample indices 0..j of every batch, one per
        trajectory."""
        if self.per_sample_sums is None:
            raise NoSamplesError("time-series sums absent; accumulate with "
                                 "collect_per_sample (run_ensemble: "
                                 "collect_time_series=True)")
        prefix = np.cumsum(self.per_sample_sums, axis=1)      # (K, n)
        counts = self.n_batches * np.arange(
            1, prefix.shape[1] + 1, dtype=np.float64)
        return _Stats(self.schema, prefix, counts, centering)

    def _batch_sums(self):
        """The (K, B) batch sums, joined into one block, (B,) sample counts
        and (K,) totals, read-only, since reports keep them.  The totals
        are summed once and kept until a batch is added or merged in.
        Each leave-one-out replicate must keep 2 samples: the centered
        moments of a lone sample are rounding noise, not zero."""
        b = self.n_batches
        if b == 0:
            raise NoSamplesError("no samples")
        if b < 2:
            raise NoSamplesError(
                f"need at least 2 batches for standard errors, have {b}"
            )
        if len(self._blocks) > 1:
            self._blocks = [np.concatenate(self._blocks, axis=1)]
            self._block_ns = [np.concatenate(self._block_ns)]
        sums, counts = self._blocks[0], self._block_ns[0]
        if self._totals is None:
            with np.errstate(over="ignore", invalid="ignore"):
                self._totals = _finite(sums.sum(axis=1), "key sums over "
                                       "all batches")
        kept = int(counts.sum() - counts.max())
        if kept < 2:
            raise NoSamplesError(
                f"leaving out the largest batch keeps {kept} sample; "
                "standard errors need at least 2"
            )
        for frozen in (sums, counts, self._totals):
            frozen.flags.writeable = False
        return sums, counts, self._totals

    def finalize(self, centering: str = "reference") -> MomentReport:
        sums, counts, totals = self._batch_sums()
        names = self.schema.target_names()
        jk = _jackknife(lambda st: [st.target(n) for n in names],
                        self.schema, sums, counts, totals, centering)
        b = counts.size
        entries = {
            name: MomentEstimate(
                value=complex(v), std_error=float(se_re),
                std_error_imag=float(se_im), n_batches=b,
                low_confidence=b < LOW_CONFIDENCE_BATCHES)
            for name, v, se_re, se_im in zip(names, jk.value, jk.std_error,
                                             jk.std_error_imag)
        }
        return MomentReport(entries=entries, n_samples=int(counts.sum()),
                            n_batches=b, centering=centering,
                            params=self.schema.params, schema=self.schema,
                            batch_sums=sums, batch_counts=counts,
                            batch_totals=totals)


# -- spec-level free functions ------------------------------------------


def merge(a: MomentAccumulator, b: MomentAccumulator) -> MomentAccumulator:
    """Combined accumulator holding a's batches, then b's: the accumulator
    one stream of both would build, point estimates and errors alike."""
    return a.copy().merge_in_place(b)


# -- the OPO schema ----------------------------------------------------


OPO_CHANNELS = ("x0", "y0", "x", "y", "xp", "yp",
                "a0", "a0p", "a1", "a1p", "a2", "a2p")

# the normally ordered amplitude moments, in both schemas below
_AMPLITUDE_TARGETS = (
    TargetSpec("amp_n1n2", ((1, ("a1", "a1p", "a2", "a2p")),)),
    TargetSpec("amp_n2n0", ((1, ("a2", "a2p", "a0", "a0p")),)),
    TargetSpec("amp_n0n1", ((1, ("a0", "a0p", "a1", "a1p")),)),
    TargetSpec("amp_n0", ((1, ("a0", "a0p")),)),
    TargetSpec("amp_n1", ((1, ("a1", "a1p")),)),
    TargetSpec("amp_n2", ((1, ("a2", "a2p")),)),
    TargetSpec("amp_triple", ((1, ("a0", "a1", "a2")),)),
    TargetSpec("amp_triple_conj", ((1, ("a0p", "a1p", "a2p")),)),
)


def opo_schema(params: ModelParams) -> MomentSchema:
    """Channels and targets for the three-mode OPO.

    Pump channels are provisionally centered on the zeroth-order steady
    state (x0 on 2*mu, amplitudes on mu/eps) and are not shiftable: under
    the default "reference" centering their fluctuations stay referenced to
    the zeroth-order values, matching the analytic module.  Down-converted
    channels are centered on 0 and shiftable (their means vanish by the
    sign-flip symmetry of the equations, so this is a no-op on average).
    """
    mu_eps = params.mu / params.eps
    channels = (
        ChannelSpec("x0", 2.0 * params.mu, shiftable=False),
        ChannelSpec("y0", 0.0, shiftable=False),
        ChannelSpec("x", 0.0),
        ChannelSpec("y", 0.0),
        ChannelSpec("xp", 0.0),
        ChannelSpec("yp", 0.0),
        ChannelSpec("a0", mu_eps, shiftable=False),
        ChannelSpec("a0p", mu_eps, shiftable=False),
        ChannelSpec("a1", 0.0),
        ChannelSpec("a1p", 0.0),
        ChannelSpec("a2", 0.0),
        ChannelSpec("a2p", 0.0),
    )
    t = TargetSpec
    targets = (
        t("t1", (((1, ("x", "xp", "x0"))),)),
        t("t2", (((1, ("y", "yp", "x0"))),)),
        t("t3", (((1, ("y", "xp", "y0"))),)),
        t("t4", (((1, ("x", "yp", "y0"))),)),
        t("s", ((-1, ("x", "xp", "x0")), (1, ("y", "yp", "x0")),
                (1, ("y", "xp", "y0")), (1, ("x", "yp", "y0")))),
        t("var_x0", ((1, ("x0", "x0")),)),
        t("var_y0", ((1, ("y0", "y0")),)),
        t("skew_x0", ((1, ("x0", "x0", "x0")),)),
        t("cov_x_xp", ((1, ("x", "xp")),)),
        t("cov_y_yp", ((1, ("y", "yp")),)),
        t("cov_x0_x", ((1, ("x0", "x")),)),
        t("cov_x0_y", ((1, ("x0", "y")),)),
        t("cov_y0_x", ((1, ("y0", "x")),)),
        t("cov_y0_y", ((1, ("y0", "y")),)),
        t("q4", ((1, ("x", "x", "xp", "xp")), (1, ("x", "x", "yp", "yp")),
                 (1, ("y", "y", "xp", "xp")), (1, ("y", "y", "yp", "yp")))),
        *_AMPLITUDE_TARGETS,
        t("mean_x0", ((1, ("x0",)),), apply_shift=False, offset=2.0 * params.mu),
        t("mean_y0", ((1, ("y0",)),), apply_shift=False),
        t("mean_x", ((1, ("x",)),), apply_shift=False),
        t("mean_y", ((1, ("y",)),), apply_shift=False),
        t("mean_xp", ((1, ("xp",)),), apply_shift=False),
        t("mean_yp", ((1, ("yp",)),), apply_shift=False),
    )
    return MomentSchema(channels=channels, targets=targets, params=params)


def amplitude_schema(centers=(0.0,) * 6) -> MomentSchema:
    """Six bare amplitude channels; used for synthetic classical ensembles."""
    names = ("a0", "a0p", "a1", "a1p", "a2", "a2p")
    if len(centers) != 6:
        raise SchemaError("need 6 centers")
    channels = tuple(ChannelSpec(n, c) for n, c in zip(names, centers))
    targets = _AMPLITUDE_TARGETS + (
        TargetSpec("mean_a0", ((1, ("a0",)),), apply_shift=False),)
    return MomentSchema(channels=channels, targets=targets)


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
