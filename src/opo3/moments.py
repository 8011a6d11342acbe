"""Streaming, mergeable estimation of centered moments up to order four.

The accumulator is generic over a schema: a list of complex channels (each
with a provisional center and a flag saying whether it may be re-centered on
the empirical mean) and a list of named targets (linear combinations of
moment multisets).  Raw power sums of channel products are accumulated per
batch; centering is applied at finalize time by inclusion-exclusion, which
avoids a second pass while still centering on empirical means where wanted.

Batches are the unit of error estimation: one batch per trajectory in
ensemble runs, or one group of consecutive trajectories past
`engine.GROUP_CAP` of them.  Standard errors come from leave-one-out
jackknife over batches (delete-a-group for groups), which for plain moments
reduces to batch means and extends cleanly to nonlinear composites
(criteria ratios and margins).  Each value's
replicates are summed, for their mean and then their squared deviations
from it, in one fixed lane order (`_kernels.kernels`).

Every sum has one fixed order, so estimates are bit-for-bit the same for
any slicing of the batches into add_batches calls:
  per batch   a batch's key products are added in sample order
  per group   a group's batch sums are added in trajectory order
  per sample  each sample index's products are one chain in batch
              (trajectory) order, carried across calls
  totals      each key's batch sums are summed pairwise, as numpy sums a
              row of the joined (K, B) array, over pages read in place
Each key's product is its prefix key's times one channel.  Finalize
evaluates every target on the full data and on each leave-one-out
replicate by a program compiled once per schema, centering and set of
targets: each shifted term is expanded by Horner's rule in minus the
shifts, each mean is a sum times 1/n.  The C key sums and target
programs (`_kernels`) and their numpy oracles (`_oracle`) take
every complex product the textbook way, (ac - bd, ad + bc), each real
operation rounded on its own, so no report bit depends on the CPU.
numpy's own complex multiply cannot be the oracle: where the CPU has
FMA, its SIMD loop fuses one multiply into each part's add, the real
part being fma(ar, br, -ai*bi), so its bits follow the CPU that runs it
and differ from the textbook product's.

Centering modes at finalize time:
  reference  shift only channels flagged shiftable to their empirical means;
             non-shiftable channels (the pump) stay at their provisional
             reference centers (default, matches the analytic module)
  sample     shift every channel to its empirical mean
  none       no shifts; moments taken about the provisional centers
  raw        undo the provisional centers; plain uncentered moments

The OPO schema reads the channels of `model.state_channels`, named here
too; `opo3` loads this module on first use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .model import OPO_CHANNELS, ModelParams, state_channels

CENTERINGS = ("reference", "sample", "none", "raw")

LOW_CONFIDENCE_BATCHES = 30
# finalize evaluates its targets in passes of at most this many bytes of
# leave-one-out replicates (one row of B complex values per target)
REPLICATE_BYTES = 2**23


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
            if not tgt.terms:
                raise SchemaError(f"target {tgt.name} has no terms")
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
        key_index = {k: i for i, k in enumerate(key_order)}
        centers = np.array([c.center for c in self.channels],
                           dtype=np.complex128)
        centers.flags.writeable = False
        object.__setattr__(self, "_target_terms", target_terms)
        object.__setattr__(self, "key_order", key_order)
        object.__setattr__(self, "_key_index", key_index)
        object.__setattr__(self, "_centers", centers)
        # the singletons lead key_order in channel order; each later key
        # extends its prefix, a key listed before it, by one channel: rows
        # (prefix index, channel) of a read-only (K - C, 2) array
        prefixes = np.array([(key_index[key[:-1]], key[-1])
                             for key in key_order[len(names):]],
                            dtype=np.int64).reshape(-1, 2)
        prefixes.flags.writeable = False
        object.__setattr__(self, "_prefixes", prefixes)
        object.__setattr__(self, "_programs", {})

    def _program(self, centering: str, names: tuple):
        """The program of targets `names` under `centering` (`_compile`),
        compiled once."""
        key = (centering, names)
        if key not in self._programs:
            self._programs[key] = _compile(self, centering, names)
        return self._programs[key]

    def _unshifted(self, centering: str) -> frozenset:
        """The channels `centering` never shifts: all under "none", those
        centered on 0 under "raw" and the non-shiftable ones under
        "reference"."""
        return frozenset(
            c for c, spec in enumerate(self.channels)
            if centering == "none"
            or (centering == "raw" and spec.center == 0)
            or (centering == "reference" and not spec.shiftable))

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

    finalize attaches the batch sums it evaluated, B columns of K keys in
    read-only pages (`_kernels.Pages`, shared with the accumulator, never
    joined), and read-only references to the (B,) counts and (K,) totals,
    so composites of a report are jackknifed over exactly those batches,
    however the accumulator grows afterwards, without summing them again.
    """

    entries: dict
    n_samples: int
    n_batches: int
    centering: str
    label: str = "monte-carlo"
    params: ModelParams | None = None
    schema: MomentSchema | None = field(default=None, repr=False)
    batch_sums: _kernels.Pages | None = field(default=None, repr=False,
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
        return JackknifeResult(value, zero, zero)


class _Stats:
    """Evaluation context over key-major raw sums: (K,) for the full dataset
    with a scalar count n, or (K, M) for M replicates, an array or pages,
    with n shaped (M,); given totals, replicate m leaves batch m out
    (totals - sums[:, m]).  Targets run as compiled programs
    (`MomentSchema._program`) in one pass over the replicates, by
    `_kernels.kernels().targets`; derived quantities broadcast.  No
    replicate array outlives the context.
    """

    def __init__(self, schema: MomentSchema, sums, n, centering: str,
                 totals=None):
        if centering not in CENTERINGS:
            raise ValueError(f"centering must be one of {CENTERINGS}")
        self.schema = schema
        self.centering = centering
        self._scalar = np.ndim(n) == 0
        self._n = n
        self._sums = sums.reshape(-1, 1) if self._scalar else sums
        self._counts = np.ascontiguousarray(n, dtype=np.float64)
        self._totals = totals
        self._cache = {}

    def _run(self, program, n_out: int) -> np.ndarray:
        ops, consts = program
        threads = _kernels.worker_count()
        return _kernels.kernels(threads).targets(
            ops, consts, self._sums, self._totals, self._counts, n_out,
            threads)

    def targets(self, names) -> np.ndarray:
        """The targets `names` in one pass: shaped (len(names),) for the
        full dataset, (len(names), M) for M replicates.  Each is kept for
        `target`."""
        names = tuple(names)
        program = self.schema._program(self.centering, names)
        out = self._run(program, len(names))
        if self._scalar:
            out = out[:, 0]
        self._cache.update(zip(names, out))
        return out

    def target(self, name: str):
        if name not in self._cache:
            self.targets((name,))
        return self._cache[name]

    @property
    def n(self):
        return self._n


def _compile(schema: MomentSchema, centering: str, names: tuple):
    """The targets `names` as one program of `_kernels`' target
    evaluators: (m, 2) int64 rows (op, argument) and complex128 constants.

    A target adds its terms' means in order, each times its coefficient
    where that is not 1, adds its offset where that is nonzero and is
    stored to its row.  A term's mean is its sum times 1/n: the raw key
    sum without apply_shift, else the sum of prod(v_fixed) *
    prod((v_u - s_u)^m) over its channels, the fixed ones those that
    `centering` never shifts (`MomentSchema._unshifted`).
    Binomial expansion in the first shifted channel u gives
    sum_k C(m, k) (-s_u)^(m-k) X_k, where X_k is this sum with u^k joined
    to the fixed channels and u dropped from the shifted ones; it runs by
    Horner's rule in -s_u, one multiply and one add per power, with each
    X_k expanded the same way in the next channel, and the empty key sums
    to n.  -s_u is minus u's mean (SHIFT u, u's singleton key) or, under
    "raw", u's center, a constant.
    """
    ops, consts = [], {}
    zero = schema._unshifted(centering)

    def const(value) -> int:
        return consts.setdefault(complex(value), len(consts))

    def shifted_sum(fixed: tuple, shifted: tuple):
        if not shifted:
            key = tuple(sorted(fixed))
            ops.append((_kernels.OP_KEY, schema._key_index[key]) if key
                       else (_kernels.OP_N, 0))
            return
        (u, m), rest = shifted[0], shifted[1:]
        shifted_sum(fixed, rest)
        for k in range(1, m + 1):
            ops.append((_kernels.OP_SCALE, const(schema.channels[u].center))
                       if centering == "raw" else (_kernels.OP_SHIFT, u))
            shifted_sum(fixed + (u,) * k, rest)
            coef = math.comb(m, k)
            if coef != 1:
                ops.append((_kernels.OP_SCALE, const(coef)))
            ops.append((_kernels.OP_ADD, 0))

    for row, name in enumerate(names):
        entry = schema._target_terms.get(name)
        if entry is None:
            raise SchemaError(f"unknown target {name!r}")
        offset, apply_shift, terms = entry
        for i, (coef, key) in enumerate(terms):
            if apply_shift:
                shifted_sum(tuple(u for u in key if u in zero),
                            tuple((u, key.count(u)) for u in sorted(set(key))
                                  if u not in zero))
            else:
                ops.append((_kernels.OP_KEY, schema._key_index[key]))
            ops.append((_kernels.OP_MEAN, 0))
            if coef != 1:
                ops.append((_kernels.OP_SCALE, const(coef)))
            if i:
                ops.append((_kernels.OP_ADD, 0))
        if offset:
            ops.append((_kernels.OP_OFFSET, const(offset)))
        ops.append((_kernels.OP_STORE, row))
    program = (np.array(ops, dtype=np.int64).reshape(-1, 2),
               np.array(list(consts), dtype=np.complex128))
    for frozen in program:
        frozen.flags.writeable = False
    return program


class _ExactValues:
    """Context over a report's stored values; refuses any with an error."""

    def __init__(self, report: MomentReport):
        self._report = report

    def targets(self, names) -> list:
        return [self.target(name) for name in names]

    def target(self, name: str):
        est = self._report[name]
        if est.std_error or est.std_error_imag:
            raise ValueError(f"{name} carries a nonzero error, but the report "
                             "has no batch data to propagate it from")
        return est.value


def _jack_se(reps):
    """Jackknife SEs of the real and imaginary parts, shaped (T, 2), from
    (T, B) leave-one-out replicates, one row per value, their squared
    deviations summed by `_kernels.kernels().spreads`.  A sum of squares that
    overflows is redone on deviations scaled by an exact power of two;
    the caller mutes overflow."""
    b = reps.shape[-1]
    threads = _kernels.worker_count()
    se = np.sqrt((b - 1) / b * _kernels.kernels(threads).spreads(
        reps, threads))
    for row, k in zip(*np.nonzero(np.isinf(se))):
        part = (reps[row] - reps[row].mean()).view(np.float64)[k::2]
        exp = math.frexp(np.abs(part).max())[1]
        squares = (np.ldexp(part, -exp) ** 2).sum()
        se[row, k] = np.ldexp(np.sqrt((b - 1) / b * squares), exp)
    return se


@dataclass(frozen=True)
class JackknifeResult:
    value: np.ndarray
    std_error: np.ndarray
    std_error_imag: np.ndarray


def _jackknife(fn, schema: MomentSchema, sums, counts, totals,
               centering: str) -> JackknifeResult:
    """fn on the full data, whose (K,) totals are given, and on each
    replicate that leaves one of the B columns of the (K, B) batch sums
    out; componentwise errors, one per element of fn's result."""
    n = counts.astype(np.float64)
    value = fn(_Stats(schema, totals, n.sum(), centering))
    reps = fn(_Stats(schema, sums, n.sum() - n, centering, totals=totals))
    if np.ndim(value) == 0:
        value, reps = [value], [reps]
    with np.errstate(over="ignore"):
        se_re, se_im = _jack_se(np.ascontiguousarray(
            reps, dtype=np.complex128)).T
    return JackknifeResult(np.asarray(value, dtype=np.complex128), se_re,
                           se_im)


class MomentAccumulator:
    """Mergeable raw-moment sums with per-batch bookkeeping.

    Samples arrive through add_batches as channel vectors (values in
    schema channel order), one batch per trajectory.  The key sums of a
    call's batches are taken in one pass by the key sums of
    `_kernels.kernels(threads)`, the C key sums, which build no
    (K, n, nb) array of products, or their numpy oracle, with equal bytes.
    The C pass splits its 8-batch tiles over `_kernels.worker_count()`
    threads, as finalize's target programs, totals and spreads split
    theirs, unless it collects per-sample sums, which stay on one thread;
    each tile is summed by one thread, so no byte depends on the count.

    The key sums are stored one column per batch in pages of
    `_kernels.PAGE_COLUMNS` columns (`_kernels.Pages`), which the key sums
    write in place and the target programs and totals read in place, so
    nothing joins them.  A page that a report or a merge holds is
    read-only and never written again: a write to it copies it first.

    With group_size g > 1 a column holds a group, the trajectories
    [g*i, g*(i + 1)): add_batches takes each batch's trajectory index, and
    a group's sums and sample count add those of its batches, so the
    jackknife leaves out one group at a time and the store holds one
    column per group.

    Four summation orders make every sum independent of how batches
    arrive:
      per batch   each batch's products are added in sample order;
      per group   a group's batch sums are added in trajectory order;
      per sample  (collect_per_sample) the products of each sample index
                  form one chain in trajectory order, carried on from the
                  running sums of earlier calls;
      totals      each key's columns are summed as numpy sums a row of
                  the joined (K, B) array, pairwise (`_kernels.Pages`),
                  so they depend on the column order alone; they are kept
                  until a batch is added.
    """

    def __init__(self, schema: MomentSchema, collect_per_sample: bool = False,
                 group_size: int = 1):
        self.schema = schema
        self.group_size = _kernels._integer("group_size", group_size, 1)
        self._pages = []          # (K, PAGE_COLUMNS) complex key sums
        self._counts = np.zeros(0, dtype=np.int64)   # per column, with room
        self._n_cols = 0
        self._span = None         # (first, last) trajectory, when grouped
        self._snapshot = None     # (pages, counts, totals), once taken
        self.collect_per_sample = bool(collect_per_sample)
        self.per_sample_sums = None    # (K, n_samples) complex when collected

    # -- feeding ---------------------------------------------------------

    def _per_sample_base(self, n: int):
        """The per-sample sums that batches of n samples add to, or None."""
        base = self.per_sample_sums
        if base is not None and base.shape[1] != n:
            raise SchemaError("per-sample shapes differ: per-sample "
                              "collection needs a fixed sample count")
        return base

    def _page(self, col: int) -> np.ndarray:
        """The writeable page of column `col`, added or copied as needed."""
        p = col // _kernels.PAGE_COLUMNS
        if p == len(self._pages):
            self._pages.append(np.empty(
                (self.schema.n_keys, _kernels.PAGE_COLUMNS),
                dtype=np.complex128))
        elif not self._pages[p].flags.writeable:
            self._pages[p] = self._pages[p].copy()
        return self._pages[p]

    def _segments(self, col: int, width: int):
        """(at, view) for the page views that hold columns [col, col +
        width), `at` their offset in that range."""
        at = 0
        while at < width:
            c = (col + at) % _kernels.PAGE_COLUMNS
            m = min(width - at, _kernels.PAGE_COLUMNS - c)
            yield at, self._page(col + at)[:, c:c + m]
            at += m

    def _commit(self, col: int, counts: np.ndarray) -> None:
        """Columns [col, col + len(counts)) now hold sums of `counts`
        samples each."""
        end = col + len(counts)
        if end > len(self._counts):
            grown = np.zeros(max(end, 2 * len(self._counts)), dtype=np.int64)
            grown[:self._n_cols] = self._counts[:self._n_cols]
            self._counts = grown
        self._counts[col:end] = counts
        self._n_cols = end
        self._snapshot = None

    def add_batches(self, values, indices=None) -> "MomentAccumulator":
        """B per-trajectory batches of n samples: values shaped
        (n_channels, B, n); one batch of n samples is values[:, None, :].
        A grouped accumulator also takes `indices`, each batch's
        trajectory index, increasing, and past those added before.

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
        index = self._indices(indices, nb)
        chains = self._per_sample_base(n) if self.collect_per_sample else None
        threads = _kernels.worker_count()
        key_sums = _kernels.kernels(threads).key_sums
        args = (self.schema._centers, self.schema._prefixes,
                self.collect_per_sample)
        if index is None:
            for at, out in self._segments(self._n_cols, nb):
                _, chains = key_sums(values[:, at:at + out.shape[1]], *args,
                                     chains, threads, out=out)
            self._commit(self._n_cols, np.full(nb, n, dtype=np.int64))
        else:
            block, chains = key_sums(values, *args, chains, threads)
            self._fold(block, index, n)
        if self.collect_per_sample:
            chains.flags.writeable = False
            self.per_sample_sums = chains
        return self

    def _indices(self, indices, nb: int):
        """Each batch's trajectory index, checked, or None when
        ungrouped."""
        if self.group_size == 1:
            return None
        if indices is None:
            raise ValueError("a grouped accumulator needs each batch's "
                             "trajectory index")
        index = np.asarray(indices, dtype=np.int64)
        if (index.shape != (nb,) or index[0] < 0 or np.any(np.diff(index) <= 0)
                or (self._span and index[0] <= self._span[1])):
            raise ValueError("trajectory indices must be one increasing "
                             "index >= 0 per batch, past those added before")
        return index

    def _fold(self, block: np.ndarray, index: np.ndarray, n: int) -> None:
        """Adds the (K, nb) batch sums `block` of the trajectories `index`
        into their groups' columns, each group's in trajectory order, after
        the sums its column holds already when it is the last."""
        col, g = self._n_cols, self.group_size
        groups = index // g
        counts = np.full(len(groups), n, dtype=np.int64)
        if col and groups[0] == self._span[1] // g:
            col -= 1
            page = self._pages[col // _kernels.PAGE_COLUMNS]
            block = np.concatenate(
                [page[:, col % _kernels.PAGE_COLUMNS, None], block], axis=1)
            groups = np.concatenate([groups[:1], groups])
            counts = np.concatenate([self._counts[col:col + 1], counts])
        starts = np.flatnonzero(np.diff(groups, prepend=-1))
        sizes = np.diff(starts, append=len(groups))
        # one add per member after the first, in order: vectorized over
        # the groups when they are all of one size, else group by group
        with np.errstate(over="ignore", invalid="ignore"):
            if np.all(sizes == sizes[0]):
                members = block.reshape(len(block), len(starts), sizes[0])
                sums = members[:, :, 0].copy()
                for rank in range(1, sizes[0]):
                    sums += members[:, :, rank]
            else:
                sums = np.stack([np.add.accumulate(
                    block[:, lo:lo + size], axis=1)[:, -1]
                    for lo, size in zip(starts, sizes)], axis=1)
        _kernels._finite(sums, "group sums")
        for at, out in self._segments(col, len(starts)):
            out[...] = sums[:, at:at + out.shape[1]]
        self._commit(col, np.add.reduceat(counts, starts))
        self._span = (self._span[0] if self._span else int(index[0]),
                      int(index[-1]))

    # -- bookkeeping -----------------------------------------------------

    @property
    def n_samples(self) -> int:
        return int(self._counts[:self._n_cols].sum())

    @property
    def n_batches(self) -> int:
        """The columns: batches, or groups when grouped."""
        return self._n_cols

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
        counts = self.n_samples // prefix.shape[1] * np.arange(
            1, prefix.shape[1] + 1, dtype=np.float64)
        return _Stats(self.schema, prefix, counts, centering)

    def _held_pages(self) -> list:
        """The pages of the columns, made read-only: a report or a merge
        holds them."""
        pages = self._pages[:-(-self._n_cols // _kernels.PAGE_COLUMNS)]
        for page in pages:
            page.flags.writeable = False
        return pages

    def _batch_sums(self):
        """The batch sums as read-only `_kernels.Pages`, (B,) sample counts
        and (K,) totals, read-only, since reports keep them.  The totals
        are summed once and kept until a batch is added.
        Each leave-one-out replicate must keep 2 samples: the centered
        moments of a lone sample are rounding noise, not zero."""
        b = self._n_cols
        if b == 0:
            raise NoSamplesError("no samples")
        if b < 2:
            raise NoSamplesError(
                f"need at least 2 batches for standard errors, have {b}"
            )
        if self._snapshot is None:
            sums = _kernels.Pages(self._held_pages(), b)
            counts = self._counts[:b].copy()
            threads = _kernels.worker_count()
            with np.errstate(over="ignore", invalid="ignore"):
                totals = _kernels._finite(
                    _kernels.kernels(threads).totals(sums, threads),
                    "key sums over all batches")
            for frozen in (counts, totals):
                frozen.flags.writeable = False
            self._snapshot = (sums, counts, totals)
        sums, counts, totals = self._snapshot
        kept = int(counts.sum() - counts.max())
        if kept < 2:
            raise NoSamplesError(
                f"leaving out the largest batch keeps {kept} sample; "
                "standard errors need at least 2"
            )
        return sums, counts, totals

    def finalize(self, centering: str = "reference") -> MomentReport:
        sums, counts, totals = self._batch_sums()
        names = self.schema.target_names()
        b = counts.size
        entries = {}
        rows = max(1, REPLICATE_BYTES // (16 * b))
        for lo in range(0, len(names), rows):
            part = names[lo:lo + rows]
            jk = _jackknife(lambda st: st.targets(part), self.schema, sums,
                            counts, totals, centering)
            for name, v, se_re, se_im in zip(part, jk.value, jk.std_error,
                                             jk.std_error_imag):
                entries[name] = MomentEstimate(
                    value=complex(v), std_error=float(se_re),
                    std_error_imag=float(se_im), n_batches=b,
                    low_confidence=b < LOW_CONFIDENCE_BATCHES)
        return MomentReport(entries=entries, n_samples=int(counts.sum()),
                            n_batches=b, centering=centering,
                            params=self.schema.params, schema=self.schema,
                            batch_sums=sums, batch_counts=counts,
                            batch_totals=totals)


# -- spec-level free functions ------------------------------------------


def merge(a: MomentAccumulator, b: MomentAccumulator) -> MomentAccumulator:
    """A new accumulator holding a's batches, then b's: the accumulator one
    stream of both would build, point estimates and errors alike.  It
    shares their pages and read-only per-sample sums, and a and b are
    never changed, whether the merge is refused or not: a page it shares
    becomes read-only, so whoever writes to it next copies it first.
    b's pages are shared when a holds whole pages, else b's columns are
    copied into pages of the new accumulator's own.

    Grouped accumulators merge only with the same group size and when a's
    groups all come before b's.  Per-sample sums cover every
    batch or none: a side with them merges only with a side that has
    them too or holds no batch, and batches without them end an empty
    side's collection.  Merged per-sample sums add a's chain and b's, so
    running averages match one stream to rounding only.
    """
    if a.schema != b.schema:
        raise SchemaError("cannot merge accumulators with different schemas")
    if a.group_size != b.group_size or (
            a._span and b._span
            and a._span[1] // a.group_size >= b._span[0] // a.group_size):
        raise SchemaError("cannot merge accumulators whose trajectory "
                          "groups do not line up")
    if (a.n_batches and b.n_batches
            and (a.per_sample_sums is None) != (b.per_sample_sums is None)):
        raise SchemaError("cannot merge per-sample sums with batches "
                          "that have none")
    per_sample = a.per_sample_sums
    if b.per_sample_sums is not None:
        theirs = b.per_sample_sums
        base = a._per_sample_base(theirs.shape[1])
        if base is None:
            per_sample = theirs
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                per_sample = _kernels._finite(base + theirs,
                                              "per-sample sums")
            per_sample.flags.writeable = False
    out = MomentAccumulator(a.schema, collect_per_sample=(
        b.per_sample_sums is not None if b.n_batches
        else a.collect_per_sample), group_size=a.group_size)
    out._pages = a._held_pages()
    out._commit(0, a._counts[:a._n_cols])
    if a._n_cols % _kernels.PAGE_COLUMNS == 0:
        out._pages += b._held_pages()
    else:
        for lo in range(0, b._n_cols, _kernels.PAGE_COLUMNS):
            page = b._pages[lo // _kernels.PAGE_COLUMNS]
            width = min(_kernels.PAGE_COLUMNS, b._n_cols - lo)
            for at, view in out._segments(a._n_cols + lo, width):
                view[...] = page[:, at:at + view.shape[1]]
    out._commit(a._n_cols, b._counts[:b._n_cols])
    if a._span or b._span:
        out._span = ((a._span or b._span)[0], (b._span or a._span)[1])
    out.per_sample_sums = per_sample
    return out


# -- the OPO schema ----------------------------------------------------


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

