"""Inner integration loops for the positive-P equations, and the moment
accumulator's key sums, target programs, spreads and totals.

Two implementations with identical results, bit for bit, advance a block
of trajectories through one chunk of steps in place: a C kernel, the
file `_kernels.c` beside this module, compiled with the system `cc` on
first use and cached on disk, and a vectorized numpy kernel in
`_oracle`, the reference the tests compare against and the fallback
when no compiler is available or the build fails.  One switch,
`kernels()`, chooses the C library's passes, or numpy's, for all of:
  step      the chunk step above;
  key_sums  the key sums of `moments.MomentAccumulator`: each key's
            product of a block of batches, its prefix key's times one
            channel, added into the batch's sum and, when asked, into its
            sample index's chain, in one pass over tiles of batches that
            fit in L1, reading the values through their strides and
            writing each batch's sums into its column of a page (`Pages`)
            through the page's row stride; a sum that is not finite is
            refused;
  targets   the jackknife's replicates: `moments` compiles each target's
            inclusion-exclusion into a flat program of stack ops
            (TARGET_OPS: push a key sum, push n, multiply by minus a key's
            mean, multiply or add a constant, add, take the mean, store),
            and the C routine runs a program over tiles of 256 batches,
            each tile a page read in place, forming each key sum left out
            of the totals and each replicate's shifts tile by tile; numpy
            runs it on whole rows of the joined pages;
  spreads   each row's sums of squared deviations from its mean, taken
            per lane in a fixed order, which the numpy version follows;
  totals    each key's sum over the pages, numpy's pairwise row sum of
            the joined array, which the C routine takes over the pages in
            place and numpy by joining them.
numpy's version of each, in `_oracle`, is the C one's oracle and
fallback, and is imported only where it runs.  How the C side draws,
steps, splits its work and rounds is stated beside its code in
`_kernels.c`; this docstring states what the Python side relies on.

State layout: complex128 array (6, B) with rows (a0, a1, a2, a0p, a1p, a2p).
Noise layout: C-contiguous float64 array (B, n_steps, 4) of normals already
scaled by sqrt(dt/2); the four columns combine into the increments
dw1 = w0 + i*w1, dw2 = w0 - i*w1, dw1p = w2 + i*w3, dw2p = w2 - i*w3,
so <dw1 dw2> = <dw1p dw2p> = dt and all other second moments vanish.

Noise source: a chunk's noise is such a buffer or, in ensemble runs,
generator words: a uint64 array (B, 4) of each trajectory's PCG64 as
(state hi, state lo, inc hi, inc lo), from which each live trajectory
draws four normals a step, through the step it dies at, and scales them.
The C kernel draws as it steps, bit for bit `Generator.standard_normal`'s
draws; the numpy kernel draws each chunk up front from a
`np.random.PCG64` set to the words.  `seed_generators` fills them with
the states of PCG64(SeedSequence(master_seed, spawn_key=(i,))).

Threads: every C pass but the seeding and the sampler splits its work
into `n_threads` contiguous ranges, one pthread each: the step kernel a
block's trajectories, the key sums their 8-batch tiles, the target
programs their 256-batch tiles, and the spreads and totals their rows.
Key sums that carry per-sample chains run on one thread, since each
chain adds the batches in order.  One thread computes each trajectory,
tile or row, in the order one thread alone would, and a trajectory
touches only its own generator and state column, so no byte depends on
the count; the numpy versions take it and run on the calling thread.
The moment layer takes the count from `moment_threads`, which is
`worker_count`, the rule the engine's default follows (OPO3_WORKERS,
else the CPUs this process may use, at most MAX_THREADS), unless the C
passes do not split right.

The pump takes the factored Euler step a0 <- m + (a0 - m) * e_pump +
dt * (-eps * a1 * a2), m = mu/eps, e_pump = 1 - gamma_r*dt; signal modes
take Euler-Maruyama steps.  A trajectory whose candidate exceeds the
threshold or goes non-finite is frozen at its last good state, marked
dead, and its global step index recorded.

Rounding: both kernels take each step, both key sums each product and
sum, and both target programs each op, in float64 real arithmetic,
every complex product the textbook (ac - bd, ad + bc), a mean each part
times 1/n, each operation rounded on its own in the same order, and the
complex square root is a formula of IEEE operations only, within 2 ulp
of cmath.sqrt; so the two give the same bits.

Build: `_kernels.c` is complete as written, numpy's ziggurat tables
included, so the build reads no file of numpy's and links nothing of
it; it is package data, installed beside this module, and `cc` reads
it on stdin.  On load the kernel's seeding, sampler and step must
reproduce numpy's states and draws and the numpy kernel's bytes, its
key sums the numpy key sums' bytes, the textbook products' sums, not
those of numpy's complex multiply, and its target programs, spreads and
totals the numpy ones' bytes (`_check_bytes`).  A failed build or load,
or a failed check, makes the numpy versions of all five run instead,
with one warning that names the reason.  At its first moment pass on
more than one thread a process also checks that the key sums without
chains, the target programs, the spreads and the totals give the same
bytes split over two threads as on one (`_splits_right`), and else runs
them on one thread, with one warning.  The library is cached under
$XDG_CACHE_HOME/opo3 when that path is absolute (else ~/.cache/opo3,
else a per-user temporary directory), keyed by `_kernels.c`, this
module's source and `_oracle`'s, the flags, the resolved compiler's
path, size and mtime, and the numpy version, so a cache hit runs no
compiler and starts no process.  numpy's answers to the load-time check
(`_oracle._numpy_answers`) are computed once per build, on its first
load, and kept beside the library, so later loads import neither
numpy.random nor `_oracle`.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import operator
import os
import shutil
import tempfile
import warnings
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np

# the C source of every pass, package data beside this module; only a
# build reads it
_C_FILE = Path(__file__).with_name("_kernels.c")

# no -ffast-math or -march=native: the kernel must round like numpy does.
# -O3 is as safe as -O2 here: it adds loop transformations (unrolling,
# unswitching, vectorizing), and none of them reassociates or fuses a
# float operation while no flag enables -fassociative-math and
# -ffp-contract=off forbids fused multiply-adds; the load-time check
# compares the bytes regardless
_C_FLAGS = ("-O3", "-pthread", "-fPIC", "-shared", "-ffp-contract=off",
            "-fno-math-errno")
# a target program's ops, in the order of the enum in `_kernels.c`
TARGET_OPS = ("key", "n", "shift", "scale", "add", "mean", "offset", "store")
OP_KEY, OP_N, OP_SHIFT, OP_SCALE, OP_ADD, OP_MEAN, OP_OFFSET, OP_STORE = (
    range(len(TARGET_OPS)))
# the doubles in one group of the jackknife's spreads, one for each lane
# (SPREAD_GROUP in `_kernels.c`)
SPREAD_GROUP = 32
# the columns of a tile of the target programs and of a page of key sums
# (TARGET_TILE in `_kernels.c`)
PAGE_COLUMNS = 256
# the load-time check's spawn keys: 0, 1 and 2**32 - 1, 2**32 (two words)
_CHECK_SEED = 20260814
_CHECK_KEYS = (0, 2**32 - 1)
_CHECK_DRAWS = 2**14
# the load-time step check's block: trajectories x steps
_CHECK_STEP = (7, 12)
# the load-time key-sum check: channels, batches x samples, and the batch
# that starts the second call
_CHECK_SUMS = (3, 21, 3)
_CHECK_SPLIT = 17
# the threads the split check splits the moment passes over
_CHECK_THREADS = 2
# the load-time target check: keys x batches, a full tile of 256 and part
# of one, and a program with every op, three deep, that shifts by two keys;
# then the spreads of rows x values, two groups and a part of one
_CHECK_TARGETS = (6, 270)
_CHECK_SPREADS = (3, 37)
# the load-time totals check: keys x columns, a full page and part of one
_CHECK_TOTALS = (3, 300)
_CHECK_PROGRAM = ((OP_KEY, 3), (OP_SHIFT, 0), (OP_KEY, 4), (OP_SHIFT, 1),
                  (OP_SCALE, 0), (OP_ADD, 0), (OP_N, 0), (OP_SHIFT, 0),
                  (OP_KEY, 5), (OP_OFFSET, 1), (OP_ADD, 0), (OP_ADD, 0),
                  (OP_MEAN, 0), (OP_STORE, 1), (OP_KEY, 2), (OP_MEAN, 0),
                  (OP_SCALE, 1), (OP_STORE, 0))
# the most threads a pass starts: one per trajectory of an engine block
# (engine.BLOCK_SIZE)
MAX_THREADS = 256


def _integer(name: str, value, least: int) -> int:
    """value as an int >= least: any integer, numpy's too, but not a bool."""
    try:
        out = operator.index(value)
    except TypeError:
        out = least - 1
    if isinstance(value, bool) or out < least:
        raise ValueError(f"{name} must be an integer >= {least}, "
                         f"got {value!r}")
    return out


def worker_count(workers=None) -> int:
    """The threads a pass may split its work over: `workers`, else
    OPO3_WORKERS, else the CPUs this process may use, at most
    MAX_THREADS.  ValueError names `workers` or OPO3_WORKERS when it is
    not an integer >= 1."""
    name = "workers"
    if workers is None:
        name, raw = "OPO3_WORKERS", os.environ.get("OPO3_WORKERS", "")
        if not raw:
            cpus = (len(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity") else os.cpu_count())
            return min(cpus or 1, MAX_THREADS)
        workers = int(raw) if raw.isdecimal() else raw
    return min(_integer(name, workers, 1), MAX_THREADS)


def _library(lib):
    """`lib`, else the loaded C library; RuntimeError when there is none."""
    lib = lib or _c_function()
    if lib is None:
        raise RuntimeError("the C kernel library is not available")
    return lib


def _laid_out(arrays, writeable=False) -> None:
    """ValueError unless each array of `arrays`, rows (name, array, dtype,
    shape), that is not None has that dtype and shape, is C-contiguous
    and, when `writeable`, writeable: the C side trusts them."""
    need = "writeable C-contiguous" if writeable else "C-contiguous"
    for name, a, dtype, shape in arrays:
        if a is not None and not (a.dtype == dtype and a.shape == shape
                                  and a.flags.c_contiguous
                                  and (a.flags.writeable or not writeable)):
            raise ValueError(f"{name} must be a {need} "
                             f"{np.dtype(dtype).name} {shape} array")


def _chunk_step_c(state, w, gens, scale, alive, first_bad, n_steps, eps,
                  m_pump, dt, e_pump, thr2, step0, n_threads=1, lib=None):
    """opo3_chunk_step on a block: its n_steps steps draw their noise from
    gens, each trajectory's generator words, and scale it by `scale`, or
    when gens is None read it from w, a C-contiguous (B, n_steps, 4)
    buffer."""
    lib = _library(lib)
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    nb = state.shape[1]
    _laid_out((("state", state, np.complex128, (6, nb)),
               ("alive", alive, np.bool_, (nb,)),
               ("first_bad", first_bad, np.int64, (nb,)),
               ("gens", gens, np.uint64, (nb, 4))), writeable=True)
    if gens is None:
        _laid_out((("w", w, np.float64, (nb, n_steps, 4)),))
    w_ptr, gens_ptr = ((None, gens.ctypes.data) if gens is not None
                       else (w.ctypes.data, None))
    if lib.opo3_chunk_step(state.ctypes.data, w_ptr, gens_ptr, scale,
                           alive.ctypes.data, first_bad.ctypes.data, nb,
                           n_steps, eps, m_pump, dt, e_pump, thr2, step0,
                           n_threads) != 0:
        raise MemoryError("no memory for the C kernel's thread ranges")


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite {what}")
    return arr


def _key_block(out, n_keys: int, nb: int) -> np.ndarray:
    """`out`, the (K, nb) complex128 view that the key sums fill, checked,
    or a new array when it is None."""
    if out is None:
        return np.empty((n_keys, nb), dtype=np.complex128)
    if not (out.dtype == np.complex128 and out.shape == (n_keys, nb)
            and out.strides[1] == 16 and out.flags.writeable):
        raise ValueError(f"out must be a writeable complex128 {(n_keys, nb)} "
                         "array with adjacent columns")
    return out


def _key_sums_c(values, centers, prefixes, collect, base, n_threads=1,
                out=None, lib=None):
    """opo3_key_sums on (C, nb, n) complex128 values, read through their
    strides, with (C,) centers and (K - C, 2) int64 prefix rows (prefix
    key, channel): the (K, nb) batch sums, written into `out` when it is
    given (a view with adjacent columns, such as a page's), and, when
    collect is set, the (K, n) per-sample sums carried on from base, or
    None.  Without collect the 8-batch tiles are split over n_threads
    threads.  ValueError when a batch sum, or else a per-sample sum, is
    not finite."""
    lib = _library(lib)
    c, nb, n = values.shape
    n_keys = c + len(prefixes)
    if not values.flags.aligned:
        values = values.copy()
    if values.dtype != np.complex128:
        raise ValueError("values must be a complex128 array")
    if nb < 1 or n < 1:
        raise ValueError("key sums need at least one batch of one sample")
    _laid_out((("centers", centers, np.complex128, (c,)),
               ("prefixes", prefixes, np.int64, (n_keys - c, 2)),
               ("base", base, np.complex128, (n_keys, n))))
    block = _key_block(out, n_keys, nb)
    chains = np.empty((n_keys, n), dtype=np.complex128) if collect else None
    status = lib.opo3_key_sums(
        values.ctypes.data, *values.strides, centers.ctypes.data,
        prefixes.ctypes.data, c, n_keys, nb, n,
        None if base is None else base.ctypes.data, block.ctypes.data,
        block.strides[0], None if chains is None else chains.ctypes.data,
        n_threads)
    if status == -2:
        raise ValueError("each prefix row must name an earlier key and a "
                         "channel")
    if status == -3:
        raise ValueError("non-finite sample values or key sums")
    if status == -4:
        raise ValueError("non-finite per-sample sums")
    if status != 0:
        raise MemoryError("no memory for the C key sums' tiles")
    return block, chains


def _targets_c(ops, consts, sums, totals, n, n_out, n_threads=1, lib=None):
    """opo3_targets: the n_out rows that the program ops, (m, 2) int64
    rows (op, argument) with (q,) complex128 consts, stores for each
    column of the (K, B) complex128 sums, `Pages` read in place or an
    array read through its strides, as given (K,) totals minus the
    column, else as the column itself, with (B,) float64 counts n; a
    (n_out, B) complex128 array.  Its 256-column tiles are split over
    n_threads threads."""
    lib = _library(lib)
    if isinstance(sums, Pages):
        tiles, (s_k, s_b) = sums.table(), sums.pages[0].strides
    else:
        if sums.dtype != np.complex128 or sums.ndim != 2:
            raise ValueError("sums must be a 2-d complex128 array")
        if not sums.flags.aligned:
            sums = sums.copy()
        s_k, s_b = sums.strides
        tiles = sums.ctypes.data + s_b * PAGE_COLUMNS * np.arange(
            -(-sums.shape[1] // PAGE_COLUMNS), dtype=np.int64)
    n_keys, nb = sums.shape
    _laid_out((("totals", totals, np.complex128, (n_keys,)),
               ("n", n, np.float64, (nb,)),
               ("ops", ops, np.int64, (len(ops), 2)),
               ("consts", consts, np.complex128, (len(consts),))))
    out = np.empty((n_out, nb), dtype=np.complex128)
    status = lib.opo3_targets(
        tiles.ctypes.data, s_k, s_b,
        None if totals is None else totals.ctypes.data, n.ctypes.data, nb,
        n_keys, ops.ctypes.data, len(ops), consts.ctypes.data, len(consts),
        out.ctypes.data, n_out, n_threads)
    if status == -2:
        raise ValueError("a target program needs each argument in range, "
                         "each op's operands on the stack and the stack "
                         "empty at its end")
    if status != 0:
        raise MemoryError("no memory for the C target programs' tiles")
    return out


def _spreads_c(rows, n_threads=1, lib=None):
    """opo3_spreads: for each row of the C-contiguous (T, B) complex128
    rows, the sums of the squared deviations of its real and imaginary
    parts from their means, a (T, 2) float64 array; the rows are split
    over n_threads threads."""
    lib = _library(lib)
    if not (rows.dtype == np.complex128 and rows.ndim == 2
            and rows.flags.c_contiguous):
        raise ValueError("rows must be a C-contiguous 2-d complex128 array")
    out = np.empty((rows.shape[0], 2))
    if lib.opo3_spreads(rows.ctypes.data, *rows.shape, out.ctypes.data,
                        n_threads) != 0:
        raise MemoryError("no memory for the C spreads' thread ranges")
    return out


class Pages:
    """Key sums in place: n_cols columns of K rows in (K, PAGE_COLUMNS)
    C-contiguous complex128 pages, page p holding columns [256p, 256p +
    256), its columns past n_cols unread.  The C target programs and
    totals read them through `table`; `joined` copies them into one
    (K, n_cols) array, which only numpy's passes and tests need."""

    __slots__ = ("pages", "n_cols", "_table")

    def __init__(self, pages, n_cols: int):
        self.pages = tuple(pages)
        self.n_cols = n_cols
        self._table = None
        shape = (self.pages[0].shape[0], PAGE_COLUMNS)
        # the C passes trust this layout
        if not (0 < n_cols <= PAGE_COLUMNS * len(self.pages)
                and all(p.dtype == np.complex128 and p.shape == shape
                        and p.flags.c_contiguous for p in self.pages)):
            raise ValueError("pages must be C-contiguous complex128 "
                             f"(K, {PAGE_COLUMNS}) arrays that hold n_cols "
                             "columns")

    @property
    def shape(self) -> tuple:
        return (self.pages[0].shape[0], self.n_cols)

    def table(self) -> np.ndarray:
        """The pages' addresses, one int64 each, for the C passes."""
        if self._table is None:
            self._table = np.array([p.ctypes.data for p in self.pages],
                                   dtype=np.int64)
        return self._table

    def joined(self) -> np.ndarray:
        out = np.empty(self.shape, dtype=np.complex128)
        for at, page in zip(range(0, self.n_cols, PAGE_COLUMNS), self.pages):
            out[:, at:at + PAGE_COLUMNS] = page[:, :self.n_cols - at]
        return out


def _totals_c(sums: Pages, n_threads=1, lib=None) -> np.ndarray:
    """opo3_totals: the (K,) row sums of the pages, read in place, with the
    bytes of `_oracle._totals_numpy`; the rows are split over n_threads
    threads."""
    lib = _library(lib)
    n_keys, nb = sums.shape
    out = np.empty(n_keys, dtype=np.complex128)
    if lib.opo3_totals(sums.table().ctypes.data, sums.pages[0].strides[0],
                       n_keys, nb, out.ctypes.data, n_threads) != 0:
        raise MemoryError("no memory for the C totals' thread ranges")
    return out


def seed_generators(master_seed: int, first: int, nb: int,
                    lib=None) -> np.ndarray:
    """(nb, 4) uint64 rows (state hi, state lo, inc hi, inc lo), row j the
    state of PCG64(SeedSequence(master_seed, spawn_key=(first + j,))),
    seeded in C, or by numpy when the C kernel is not available."""
    lib = lib or _c_function()
    out = np.empty((nb, 4), dtype=np.uint64)
    if lib is None:
        from ._oracle import _pcg64_words
        for j in range(nb):
            out[j] = _pcg64_words(np.random.PCG64(np.random.SeedSequence(
                master_seed, spawn_key=(first + j,))))
        return out
    # master_seed's little-endian uint32 words, as SeedSequence reads it
    n = max(1, -(-master_seed.bit_length() // 32))
    words = np.frombuffer(master_seed.to_bytes(4 * n, "little"), dtype="<u4")
    lib.opo3_seed(words.ctypes.data, words.size, first, nb, out.ctypes.data)
    return out


class _BuildError(Exception):
    pass


def _cache_dir() -> Path:
    """First usable of $XDG_CACHE_HOME/opo3, ~/.cache/opo3, tmp/opo3-<uid>;
    a relative $XDG_CACHE_HOME is ignored, as the XDG spec asks, so no
    library is loaded from the working directory."""
    uid = os.getuid()
    xdg = Path(os.environ.get("XDG_CACHE_HOME", ""))
    candidates = [xdg / "opo3"] if xdg.is_absolute() else []
    try:
        candidates.append(Path.home() / ".cache" / "opo3")
    except RuntimeError:
        pass
    # gettempdir's first call writes and removes a probe file, so the
    # private candidate, None here, is made only when the others fail
    for path in [*candidates, None]:
        private = path is None
        path = path or Path(tempfile.gettempdir()) / f"opo3-{uid}"
        try:
            path.mkdir(mode=0o700, parents=True, exist_ok=True)
        except OSError:
            continue
        if not os.access(path, os.W_OK | os.X_OK):
            continue
        # a shared temporary directory may hold a directory someone else
        # made under our name; never load a library from one
        st = path.stat()
        if private and (st.st_uid != uid or st.st_mode & 0o022):
            continue
        return path
    raise _BuildError("no writable cache directory")


def _compiled_library() -> Path:
    """Path of the kernel's shared library, built into the cache if absent.

    Finding the key runs no compiler, so a cache hit starts no process.
    """
    cc = shutil.which("cc")
    if cc is None:
        raise _BuildError("no C compiler (cc) on PATH")
    # the compiler's resolved file, size and mtime name it without running it
    real = os.path.realpath(cc)
    st = os.stat(real)
    compiler = f"{real}:{st.st_size}:{st.st_mtime_ns}"
    # crc32, not hashlib: importing hashlib loads OpenSSL, about 3 MB of
    # resident memory that a process on a cache hit never loads otherwise;
    # this module's source holds the check inputs, and `_oracle`'s the
    # numpy passes, behind the answers kept beside the library
    source = _C_FILE.read_bytes()
    here = Path(__file__)
    key = "".join(f"{zlib.crc32(part):08x}"
                  for part in (source, here.read_bytes(),
                               here.with_name("_oracle.py").read_bytes(),
                               " ".join(_C_FLAGS).encode(), compiler.encode(),
                               np.__version__.encode()))
    cache = _cache_dir()
    lib = cache / f"chunk_step_{key}.so"
    if lib.is_file():
        return lib
    import subprocess       # only a build starts a process

    fd, tmp = tempfile.mkstemp(dir=cache, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        # on stdin, not by path, so that no file name enters the library
        proc = subprocess.run(
            [cc, *_C_FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
            input=source, capture_output=True, timeout=300)
        if proc.returncode != 0:
            stderr = proc.stderr.decode(errors="replace").strip()
            raise _BuildError(f"cc failed: {stderr[:500]}")
        # concurrent builders each write their own file; the rename is atomic
        os.replace(tmp, lib)
    except subprocess.SubprocessError as exc:
        raise _BuildError(f"cc failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def _check_chunk(step, normals, gens=None) -> bytes:
    """state, alive and first_bad bytes after `step` (a kernel) on the
    load-time check chunk: _CHECK_STEP trajectories x steps from a start
    made from `normals`, two lane groups, the second partial, with #5
    starting at a zero pump (the exact zero root) and #6 at a tiny one (the
    rescaled root).  Its noise is buffered, made from `normals` too, with
    #3 kicked over the threshold at step 9, or, given `gens`, drawn from a
    copy of those generator words, whose bytes after the chunk follow; #3
    then starts with pumps and signals that grow past the threshold at
    step 9 of the chunk's steps 3 to 14, its generator stopping there."""
    nb, n_steps = _CHECK_STEP
    state = 2.0 + normals[:6 * nb].reshape(6, nb) + 1j * normals[
        6 * nb:12 * nb].reshape(6, nb)
    state[0, 5], state[3, 6] = 0.0, 1e-170j
    alive = np.ones(nb, dtype=np.bool_)
    first_bad = np.full(nb, -1, dtype=np.int64)
    args = (alive, first_bad, n_steps, 0.5, 2.0, 0.01, 0.99, 1e4, 3)
    if gens is None:
        w = 0.1 * normals[12 * nb:(12 + 4 * n_steps) * nb].reshape(
            nb, n_steps, 4)
        w[3, 9, 0] = 1e4
        step(state, w, None, 1.0, *args)
        return state.tobytes() + alive.tobytes() + first_bad.tobytes()
    state[:, 3] = (90, 15, 15, 90, 15, 15)
    gens = gens.copy()
    step(state, None, gens, 0.1, *args)
    return (state.tobytes() + alive.tobytes() + first_bad.tobytes()
            + gens.tobytes())


def _check_key_sums(key_sums, normals) -> bytes:
    """The bytes of `key_sums` (a key-sum kernel) on the load-time check
    input made from `normals`: every key of order 1 to 4 over
    _CHECK_SUMS[0] channels, on a view with a negative batch stride and
    every other sample of _CHECK_SUMS[1] batches x samples, fed in two
    calls split at _CHECK_SPLIT, full and partial tiles, the second
    carrying the first's per-sample sums on: their batch sums, then the
    per-sample sums; then the batch sums of all the batches in one call
    without per-sample sums."""
    c, nb, n = _CHECK_SUMS
    keys = [key for order in range(1, 5)
            for key in itertools.combinations_with_replacement(range(c),
                                                               order)]
    index = {key: i for i, key in enumerate(keys)}
    prefixes = np.array([(index[key[:-1]], key[-1]) for key in keys[c:]],
                        dtype=np.int64)
    size = c * nb * 2 * n
    values = (normals[:size] + 1j * normals[size:2 * size]).reshape(
        c, nb, 2 * n)[:, ::-1, ::2]
    centers = normals[2 * size:2 * size + c] + 0.5j
    first, chains = key_sums(values[:, :_CHECK_SPLIT], centers, prefixes,
                             True, None)
    second, chains = key_sums(values[:, _CHECK_SPLIT:], centers, prefixes,
                              True, chains)
    whole, _ = key_sums(values, centers, prefixes, False, None)
    return (first.tobytes() + second.tobytes() + chains.tobytes()
            + whole.tobytes())


def _check_targets(evaluate, normals) -> bytes:
    """The bytes of `evaluate` (a target-program runner) on the load-time
    check input made from `normals`: _CHECK_PROGRAM on _CHECK_TARGETS
    keys x batches of sums in a view with a negative batch stride, leaving
    each batch out of totals, then on the sums as they are."""
    k, nb = _CHECK_TARGETS
    size = 2 * k * nb
    sums = (normals[:size] + 1j * normals[size:2 * size]).reshape(
        k, 2 * nb)[:, ::-2]
    totals = normals[2 * size:2 * size + k] + 1j * normals[-k:]
    n = 2.0 + np.abs(normals[-nb:])
    consts = normals[:2] - 1j * normals[-2:]
    ops = np.array(_CHECK_PROGRAM, dtype=np.int64)
    return b"".join(evaluate(ops, consts, sums, t, n, 2).tobytes()
                    for t in (totals, None))


def _check_spreads(spreads, normals) -> bytes:
    """The bytes of `spreads` on _CHECK_SPREADS rows x values made from
    `normals`: whole groups and a part of one."""
    n_rows, nb = _CHECK_SPREADS
    rows = normals[:2 * n_rows * nb].copy().view(np.complex128)
    return spreads(rows.reshape(n_rows, nb)).tobytes()


def _check_totals(totals, normals) -> bytes:
    """The bytes of `totals` on _CHECK_TOTALS keys x columns made from
    `normals`, every seventh scaled by 2^40 so that the order of the adds
    shows, in two pages whose columns past the last are NaN."""
    k, nb = _CHECK_TOTALS
    pages = np.full((2, k, PAGE_COLUMNS), np.nan, dtype=np.complex128)
    size = k * nb
    sums = (normals[:size] + 1j * normals[size:2 * size]).reshape(k, nb)
    sums[:, ::7] *= 2.0**40
    for at, page in zip((0, PAGE_COLUMNS), pages):
        page[:, :nb - at] = sums[:, at:at + PAGE_COLUMNS]
    return totals(Pages(pages, nb)).tobytes()


class Kernels(NamedTuple):
    """One implementation of every pass: the step kernel, the key sums,
    the target programs, the spreads and the totals."""

    step: object
    key_sums: object
    targets: object
    spreads: object
    totals: object


def _c_passes(**bind) -> Kernels:
    """The C passes as this module names them when called, each bound to
    the keywords `bind` when there are any."""
    passes = Kernels(_chunk_step_c, _key_sums_c, _targets_c, _spreads_c,
                     _totals_c)
    if not bind:
        return passes
    return Kernels(*(functools.partial(run, **bind) for run in passes))


def _check_bytes(passes: Kernels, normals, gens=None) -> bytes:
    """The load-time check's bytes from `passes` on `normals`: given the
    generator words `gens`, first the step's on `_check_chunk`, buffered
    and then drawn from a copy of `gens`; then the moment passes', the
    key sums' on `_check_key_sums`, the target programs' on
    `_check_targets`, the spreads' on `_check_spreads` and the totals' on
    `_check_totals`."""
    chunks = b"" if gens is None else (_check_chunk(passes.step, normals)
                                      + _check_chunk(passes.step, normals,
                                                     gens))
    return (chunks + _check_key_sums(passes.key_sums, normals)
            + _check_targets(passes.targets, normals)
            + _check_spreads(passes.spreads, normals)
            + _check_totals(passes.totals, normals))


def _kept_answers(path: Path) -> bytes:
    """`_oracle._numpy_answers`, kept in `path` beside the library: the
    first load of a build computes them, later loads read them, because
    importing numpy.random (secrets, hashlib, OpenSSL: 15 ms, 6 MB),
    compiling `_oracle` (3-4 ms without bytecode) and paging in a numpy
    step (0.3 MB) cost what a run on the C kernel never needs."""
    try:
        return path.read_bytes()
    except OSError:
        pass
    from . import _oracle
    answers = _oracle._numpy_answers()
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".check-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(answers)
        os.replace(tmp, path)
    except OSError:
        pass        # compared all the same, only not kept
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return answers


@functools.cache
def _c_function():
    """The loaded C kernel library, or None (with one warning that names
    the reason) when unavailable.

    Its seeding must first give numpy's PCG64 states for the spawn keys
    _CHECK_KEYS and their successors, its sampler must reproduce
    Generator.standard_normal bit for bit on _CHECK_DRAWS draws from the
    last of them, consuming the same words, and its passes must give
    `_check_bytes` of those draws and of its own seeding's words: every
    byte must equal the kept `_oracle._numpy_answers`.
    """
    try:
        path = _compiled_library()
        lib = ctypes.CDLL(str(path))
        ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
        for fn, args, res in (
                (lib.opo3_seed, [ptr, i64, i64, i64, ptr], None),
                (lib.opo3_normals, [ptr, i64, ptr], None),
                (lib.opo3_chunk_step, [ptr] * 3 + [f64] + [ptr] * 2
                 + [i64] * 2 + [f64] * 5 + [i64] * 2, ctypes.c_int),
                (lib.opo3_key_sums, [ptr] + [i64] * 3 + [ptr] * 2
                 + [i64] * 4 + [ptr] * 2 + [i64, ptr, i64], ctypes.c_int),
                (lib.opo3_targets, [ptr] + [i64] * 2 + [ptr] * 2
                 + [i64] * 2 + [ptr, i64, ptr, i64, ptr, i64, i64],
                 ctypes.c_int),
                (lib.opo3_spreads, [ptr, i64, i64, ptr, i64], ctypes.c_int),
                (lib.opo3_totals, [ptr] + [i64] * 3 + [ptr, i64],
                 ctypes.c_int)):
            fn.argtypes, fn.restype = args, res
        words = np.concatenate([seed_generators(_CHECK_SEED, k, 2, lib)
                                for k in _CHECK_KEYS])
        seeded = words.tobytes()
        # then draws from the last key's state, which is written back
        draws = np.empty(_CHECK_DRAWS)
        lib.opo3_normals(words[-1].ctypes.data, draws.size, draws.ctypes.data)
        gens = seed_generators(_CHECK_SEED, 0, _CHECK_STEP[0], lib)
        ours = (seeded + draws.tobytes() + words[-1].tobytes()
                + _check_bytes(_c_passes(lib=lib), draws, gens))
        if ours != _kept_answers(path.with_suffix(".check")):
            raise _BuildError("it does not reproduce numpy's SeedSequence, "
                              "PCG64, Generator.standard_normal, step "
                              "kernel, key sums, target programs, spreads "
                              "and totals")
    except (OSError, _BuildError) as exc:
        warnings.warn(f"opo3: C step kernel unavailable ({exc}); "
                      "using the slower numpy kernel", RuntimeWarning,
                      stacklevel=2)
        return None
    return lib


def kernels() -> Kernels:
    """The C passes when the library builds and loads, else numpy's."""
    if _c_function() is not None:
        return _c_passes()
    from . import _oracle
    return _oracle._passes()


def get_stepper():
    """`kernels().step`, the name by which the benchmark harness reads the
    backend."""
    return kernels().step


@functools.cache
def _splits_right(lib) -> bool:
    """Whether the loaded C library's moment passes, split over
    _CHECK_THREADS threads, give the bytes they give on one, which the
    load-time check holds to numpy's: the moment part of `_check_bytes`,
    on normals of its own seeding and sampler.  When they do not, with
    one warning, False.

    It runs at a process's first split moment pass, not at load, because
    the first thread a process starts can take milliseconds, which a
    process that only steps, or only loads the library, need not pay.
    """
    words = seed_generators(_CHECK_SEED, _CHECK_KEYS[-1] + 1, 1, lib)
    draws = np.empty(_CHECK_DRAWS)
    lib.opo3_normals(words.ctypes.data, draws.size, draws.ctypes.data)
    one, split = (_check_bytes(_c_passes(n_threads=threads, lib=lib), draws)
                  for threads in (1, _CHECK_THREADS))
    if split != one:
        warnings.warn("opo3: C moment passes split over threads "
                      "unavailable (they do not reproduce their bytes on "
                      "one thread); running them on one thread",
                      RuntimeWarning, stacklevel=3)
        return False
    return True


def moment_threads() -> int:
    """The threads the moment passes split over: `worker_count()`, or 1
    when the C passes do not split right."""
    threads = worker_count()
    lib = _c_function()
    if threads > 1 and lib is not None and not _splits_right(lib):
        return 1
    return threads
