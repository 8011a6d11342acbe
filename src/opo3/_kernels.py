"""Inner integration loops for the positive-P equations.

Two implementations with identical semantics: a C kernel, compiled with the
system `cc` on first use and cached on disk, and a vectorized numpy kernel,
which is the reference the tests compare against and the fallback when no
compiler is available or the build fails.  Both advance a block of
trajectories through one chunk of steps in place.

State layout: complex128 array (6, B) with rows (a0, a1, a2, a0p, a1p, a2p).
Noise layout: C-contiguous float64 array (B, n_steps, 4) of normals already
scaled by sqrt(dt/2), so each trajectory's noise is one contiguous run; the
four columns combine into the correlated complex increments
dw1 = w0 + i*w1, dw2 = w0 - i*w1, dw1p = w2 + i*w3, dw2p = w2 - i*w3,
so <dw1 dw2> = <dw1p dw2p> = dt and all other second moments vanish.

Noise source: both kernels accept such a buffer (`integrate_batch` fills
one from caller-supplied normals).  For ensemble runs the C kernel instead
draws each live trajectory's four normals per step itself, straight from
that trajectory's PCG64 (`_draw_chunk_step_c`), and scales them with the
same single multiply.  Its sampler is a copy of numpy's
`random_standard_normal`, the ziggurat behind `Generator.standard_normal`,
as numpy writes it except that the random sign is XOR-ed into bit 63
instead of taken by a branch; it calls the generator through numpy's public
`bitgen_t` struct.  So the draws, and the results, are bit-for-bit those
of the buffer path, and no noise buffer is allocated.  A trajectory that
dies stops drawing; its generator is not used again.

Threads: the C kernel splits a block into `n_threads` contiguous ranges
of trajectories, each on a pthread; the calling thread runs the first
range, and any range whose thread fails to start, itself.  A trajectory touches only its own
generator and state column, so results do not depend on the thread count.

The pump advances through a factored one-step map
    a0 <- m + (a0 - m) * e_pump + phi_pump * (-eps * a1 * a2)
with (e_pump, phi_pump) = (1 - gamma_r*dt, dt) for the plain Euler scheme
(this reduces exactly to Euler) or (exp(-gamma_r*dt), -expm1(-gamma_r*dt)/
gamma_r) for the exponentially propagated linear pump part.  Signal modes
always take explicit Euler-Maruyama steps.

Divergence: candidate values are tested before being written; a trajectory
whose candidate exceeds the threshold (or goes non-finite) is frozen at its
last good state, marked dead, and its global step index recorded.

The C kernel is built with -fcx-limited-range and -ffp-contract=off, so its
complex products use numpy's textbook formula without fused multiply-adds,
and its ziggurat rounds as numpy's does; the two kernels agree to rounding,
not bit for bit.  The sampler's three 256-entry tables are local symbols of
the static `random/lib/libnpyrandom.a` that numpy wheels ship, so they
cannot be linked: on a build, a small ar and ELF64 reader copies them from
the archive into the source.  The library links nothing of numpy; a
missing or unreadable archive counts as a failed build.  On load, the
kernel's sampler must reproduce `Generator.standard_normal` bit for bit on
a fixed seed, consuming the same words, or the numpy kernel runs instead,
with one warning.  The shared library is cached under
$XDG_CACHE_HOME/opo3 (else ~/.cache/opo3, else a per-user directory in the
system temporary directory), keyed by a hash of the source template, the
flags, `cc --version` and the numpy version, so a cache hit never opens
the archive.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import struct
import subprocess
import tempfile
import warnings
import zlib
from pathlib import Path

import numpy as np

_C_TEMPLATE = r"""
#include <complex.h>
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* numpy's bit-generator interface, as numpy/random/bitgen.h lays it out */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* numpy's ziggurat tables, copied from its libnpyrandom.a at build time */
@TABLES@
static const double ziggurat_nor_r = 3.6541528853610087963519472518;
static const double ziggurat_nor_inv_r = 0.27366123732975827203338247596;

/* numpy's random_standard_normal, the sampler behind
   Generator.standard_normal (the ziggurat of Marsaglia & Tsang, J. Stat.
   Softw. 5(8), 2000), as numpy writes it, except that the random sign is
   XOR-ed into bit 63 instead of taken by an unpredictable branch */
static inline double standard_normal(bitgen_t *bitgen_state)
{
    for (;;) {
        uint64_t r = bitgen_state->next_uint64(bitgen_state->state);
        int idx = r & 0xff;
        r >>= 8;
        uint64_t sign = r & 0x1;
        uint64_t rabs = (r >> 1) & 0x000fffffffffffff;
        double x = rabs * wi_double[idx];
        uint64_t bits;
        memcpy(&bits, &x, sizeof bits);
        bits ^= sign << 63;
        memcpy(&x, &bits, sizeof x);
        if (rabs < ki_double[idx])
            return x; /* 99.3% of the time return here */
        if (idx == 0) {
            for (;;) {
                /* Switch to 1.0 - U to avoid log(0.0), see GH 13361 */
                double xx = -ziggurat_nor_inv_r
                            * log1p(-bitgen_state->next_double(bitgen_state->state));
                double yy = -log1p(-bitgen_state->next_double(bitgen_state->state));
                if (yy + yy > xx * xx)
                    return ((rabs >> 8) & 0x1) ? -(ziggurat_nor_r + xx)
                                               : ziggurat_nor_r + xx;
            }
        } else {
            if (((fi_double[idx - 1] - fi_double[idx])
                 * bitgen_state->next_double(bitgen_state->state)
                 + fi_double[idx]) < exp(-0.5 * x * x))
                return x;
        }
    }
}

/* n draws of standard_normal from g, for the load-time comparison with
   Generator.standard_normal */
void opo3_normals(bitgen_t *g, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = standard_normal(g);
}

/* one opo3_chunk_step call's arguments, trajectories [lo, hi) of them and
   the thread that runs them */
typedef struct {
    double complex *state; const double *w; bitgen_t **gens; double scale;
    uint8_t *alive; int64_t *first_bad; int64_t nb, n_steps;
    double eps, m_pump, dt, e_pump, phi_pump, thr2; int64_t step0;
    int64_t lo, hi; pthread_t thread; int started;
} range_t;

static int inside(double complex z, double thr2)
{
    double re = creal(z), im = cimag(z);
    return re * re + im * im <= thr2;   /* false for NaN and inf */
}

static void *step_range(void *arg)
{
    const range_t *r = arg;
    const int64_t nb = r->nb, n_steps = r->n_steps;
    const double eps = r->eps, m_pump = r->m_pump, dt = r->dt,
                 e_pump = r->e_pump, phi_pump = r->phi_pump, thr2 = r->thr2;
    double complex *state = r->state;
    for (int64_t j = r->lo; j < r->hi; j++) {
        if (!r->alive[j])
            continue;
        bitgen_t *g = r->gens ? r->gens[j] : NULL;
        const double *wj = r->w ? r->w + j * n_steps * 4 : NULL;
        double complex a0 = state[j], a1 = state[nb + j],
                       a2 = state[2 * nb + j], a0p = state[3 * nb + j],
                       a1p = state[4 * nb + j], a2p = state[5 * nb + j];
        for (int64_t c = 0; c < n_steps; c++) {
            double w[4];
            if (g) {
                for (int k = 0; k < 4; k++)
                    w[k] = standard_normal(g) * r->scale;
            } else {
                memcpy(w, wj + 4 * c, sizeof w);
            }
            double complex dw1 = CMPLX(w[0], w[1]), dw2 = CMPLX(w[0], -w[1]);
            double complex dw1p = CMPLX(w[2], w[3]), dw2p = CMPLX(w[2], -w[3]);
            double complex r0 = csqrt(eps * a0), r0p = csqrt(eps * a0p);
            double complex n0 = m_pump + (a0 - m_pump) * e_pump
                                + phi_pump * (-eps * a1 * a2);
            double complex n0p = m_pump + (a0p - m_pump) * e_pump
                                 + phi_pump * (-eps * a1p * a2p);
            double complex n1 = a1 + dt * (-a1 + eps * a2p * a0) + r0 * dw1;
            double complex n2 = a2 + dt * (-a2 + eps * a1p * a0) + r0 * dw2;
            double complex n1p = a1p + dt * (-a1p + eps * a2 * a0p) + r0p * dw1p;
            double complex n2p = a2p + dt * (-a2p + eps * a1 * a0p) + r0p * dw2p;
            if (!(inside(n0, thr2) && inside(n1, thr2) && inside(n2, thr2)
                  && inside(n0p, thr2) && inside(n1p, thr2)
                  && inside(n2p, thr2))) {
                r->alive[j] = 0;
                r->first_bad[j] = r->step0 + c;
                break;
            }
            a0 = n0; a1 = n1; a2 = n2; a0p = n0p; a1p = n1p; a2p = n2p;
        }
        state[j] = a0; state[nb + j] = a1; state[2 * nb + j] = a2;
        state[3 * nb + j] = a0p; state[4 * nb + j] = a1p;
        state[5 * nb + j] = a2p;
    }
    return NULL;
}

/* With gens NULL the noise is read from w, (nb, n_steps, 4) and already
   scaled; otherwise trajectory j draws each step's four normals from
   gens[j] as it takes the step, and scales them by `scale`.  n_threads is
   clamped to [1, nb].  Returns -1 when the ranges cannot be allocated. */
int opo3_chunk_step(double complex *state, const double *w, bitgen_t **gens,
                    double scale, uint8_t *alive, int64_t *first_bad,
                    int64_t nb, int64_t n_steps, double eps, double m_pump,
                    double dt, double e_pump, double phi_pump, double thr2,
                    int64_t step0, int64_t n_threads)
{
    if (n_threads > nb)
        n_threads = nb;
    if (n_threads < 1)
        n_threads = 1;
    range_t *ranges = malloc(n_threads * sizeof(range_t));
    if (!ranges)
        return -1;
    for (int64_t t = 0; t < n_threads; t++) {
        range_t *r = &ranges[t];
        *r = (range_t){state, w, gens, scale, alive, first_bad, nb, n_steps,
                       eps, m_pump, dt, e_pump, phi_pump, thr2, step0,
                       nb * t / n_threads, nb * (t + 1) / n_threads, 0, 0};
        r->started = t > 0
                     && pthread_create(&r->thread, NULL, step_range, r) == 0;
    }
    for (int64_t t = 0; t < n_threads; t++) {
        if (ranges[t].started)
            pthread_join(ranges[t].thread, NULL);
        else
            step_range(&ranges[t]);
    }
    free(ranges);
    return 0;
}
"""

# no -ffast-math or -march=native: the kernel must round like numpy does
_C_FLAGS = ("-O2", "-pthread", "-fPIC", "-shared", "-fcx-limited-range",
            "-ffp-contract=off")
# numpy wheels ship libnpyrandom.a under random/lib for C extensions
_NUMPY_DIR = Path(np.__file__).parent
# numpy's ziggurat tables: C element type and the struct format of each
_TABLES = {b"ki_double": ("uint64_t", "<256Q"),
           b"wi_double": ("double", "<256d"),
           b"fi_double": ("double", "<256d")}
# the load-time comparison of the C sampler with Generator.standard_normal
_CHECK_SEED = 20260814
_CHECK_DRAWS = 2**14


def _chunk_step_numpy(state, w, alive, first_bad, eps, m_pump, dt,
                      e_pump, phi_pump, thr2, step0):
    # non-finite states are expected here and killed by the threshold test
    with np.errstate(invalid="ignore", over="ignore"):
        for c in range(w.shape[1]):
            idx = np.flatnonzero(alive)
            if idx.size == 0:
                return
            a0 = state[0, idx]
            a1 = state[1, idx]
            a2 = state[2, idx]
            a0p = state[3, idx]
            a1p = state[4, idx]
            a2p = state[5, idx]
            wc = w[idx, c]
            dw1 = wc[:, 0] + 1j * wc[:, 1]
            dw2 = wc[:, 0] - 1j * wc[:, 1]
            dw1p = wc[:, 2] + 1j * wc[:, 3]
            dw2p = wc[:, 2] - 1j * wc[:, 3]
            r0 = np.sqrt((eps * a0).astype(np.complex128))
            r0p = np.sqrt((eps * a0p).astype(np.complex128))
            n0 = m_pump + (a0 - m_pump) * e_pump + phi_pump * (-eps * a1 * a2)
            n0p = m_pump + (a0p - m_pump) * e_pump + phi_pump * (-eps * a1p * a2p)
            n1 = a1 + dt * (-a1 + eps * a2p * a0) + r0 * dw1
            n2 = a2 + dt * (-a2 + eps * a1p * a0) + r0 * dw2
            n1p = a1p + dt * (-a1p + eps * a2 * a0p) + r0p * dw1p
            n2p = a2p + dt * (-a2p + eps * a1 * a0p) + r0p * dw2p
            cand = np.stack([n0, n1, n2, n0p, n1p, n2p])
            mag2 = cand.real * cand.real + cand.imag * cand.imag
            ok = np.all(mag2 <= thr2, axis=0)
            good = idx[ok]
            bad = idx[~ok]
            state[:, good] = cand[:, ok]
            if bad.size:
                alive[bad] = False
                first_bad[bad] = step0 + c


def _chunk_step_c(state, w, alive, first_bad, eps, m_pump, dt,
                  e_pump, phi_pump, thr2, step0, n_threads=1):
    if not (w.dtype == np.float64 and w.ndim == 3 and w.shape[0] == len(alive)
            and w.shape[2] == 4 and w.flags.c_contiguous):
        raise ValueError("w must be a C-contiguous float64 (B, n_steps, 4) array")
    _call_c(state, w.ctypes.data, None, 1.0, alive, first_bad, w.shape[1],
            eps, m_pump, dt, e_pump, phi_pump, thr2, step0, n_threads)


class BitGenerators:
    """The bit generators behind a block's Generators, as C pointers.

    Holds the Generators too: the pointers are valid only while they live.
    """

    def __init__(self, rngs):
        self.rngs = list(rngs)
        self.pointers = (ctypes.c_void_p * len(self.rngs))(
            *(rng.bit_generator.ctypes.bit_generator.value
              for rng in self.rngs))


def _draw_chunk_step_c(state, gens, n_steps, scale, alive, first_bad, eps,
                       m_pump, dt, e_pump, phi_pump, thr2, step0,
                       n_threads=1):
    """`_chunk_step_c` drawing its noise inside the kernel: each live
    trajectory j takes n_steps*4 normals from gens.rngs[j], exactly what
    gens.rngs[j].standard_normal((n_steps, 4)) * scale would give it."""
    if len(gens.pointers) != len(alive):
        raise ValueError("need one generator per trajectory")
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    _call_c(state, None, gens.pointers, scale, alive, first_bad, n_steps,
            eps, m_pump, dt, e_pump, phi_pump, thr2, step0, n_threads)


def _call_c(state, w_ptr, gens_ptr, scale, alive, first_bad, n_steps, eps,
            m_pump, dt, e_pump, phi_pump, thr2, step0, n_threads):
    fn = _c_function()
    if fn is None:
        raise RuntimeError("the C step kernel is not available")
    nb = state.shape[1]
    # the C side trusts these shapes and layouts; check them here
    if not (state.dtype == np.complex128 and state.shape == (6, nb)
            and state.flags.c_contiguous):
        raise ValueError("state must be a C-contiguous complex128 (6, B) array")
    if not (alive.dtype == np.bool_ and first_bad.dtype == np.int64
            and alive.shape == first_bad.shape == (nb,)
            and alive.flags.c_contiguous and first_bad.flags.c_contiguous):
        raise ValueError("alive and first_bad must be contiguous (B,) bool "
                         "and int64 arrays")
    if not (state.flags.writeable and alive.flags.writeable
            and first_bad.flags.writeable):
        raise ValueError("state, alive and first_bad must be writeable")
    if fn(state.ctypes.data, w_ptr, gens_ptr, scale, alive.ctypes.data,
          first_bad.ctypes.data, nb, n_steps, eps, m_pump, dt, e_pump,
          phi_pump, thr2, step0, n_threads) != 0:
        raise MemoryError("no memory for the C kernel's thread ranges")


class _BuildError(Exception):
    pass


def _cache_dir() -> Path:
    """First usable of $XDG_CACHE_HOME/opo3, ~/.cache/opo3, tmp/opo3-<uid>."""
    candidates = []
    if os.environ.get("XDG_CACHE_HOME"):
        candidates.append(Path(os.environ["XDG_CACHE_HOME"]) / "opo3")
    try:
        candidates.append(Path.home() / ".cache" / "opo3")
    except RuntimeError:
        pass
    uid = os.getuid()
    private = Path(tempfile.gettempdir()) / f"opo3-{uid}"
    candidates.append(private)
    for path in candidates:
        try:
            path.mkdir(mode=0o700, parents=True, exist_ok=True)
        except OSError:
            continue
        if not os.access(path, os.W_OK | os.X_OK):
            continue
        # a shared temporary directory may hold a directory someone else
        # made under our name; never load a library from one
        st = path.stat()
        if path == private and (st.st_uid != uid or st.st_mode & 0o022):
            continue
        return path
    raise _BuildError("no writable cache directory")


def _elf_tables(obj: bytes) -> dict:
    """The ziggurat tables among one ELF object's symbols, by name."""
    if obj[4:6] != b"\x02\x01":       # ELFCLASS64, ELFDATA2LSB
        raise _BuildError("numpy's libnpyrandom.a is not little-endian ELF64")
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", obj, 0x3A)
    # (sh_type, sh_offset, sh_size, sh_link) of each section
    sections = [struct.unpack_from("<4xI16xQQI", obj, shoff + i * shentsize)
                for i in range(shnum)]
    found = {}
    for sh_type, offset, size, link in sections:
        if sh_type != 2:                   # SHT_SYMTAB
            continue
        strtab = sections[link][1]
        for sym in range(offset, offset + size, 24):
            name_at, shndx, value, nbytes = struct.unpack_from(
                "<I2xHQQ", obj, sym)
            name = obj[strtab + name_at:obj.index(b"\0", strtab + name_at)]
            if (name in _TABLES and nbytes == 2048 and 0 < shndx < shnum
                    and sections[shndx][0] == 1):      # SHT_PROGBITS
                found[name] = struct.unpack_from(_TABLES[name][1], obj,
                                                 sections[shndx][1] + value)
    return found


def _ziggurat_tables(archive: Path) -> dict:
    """numpy's ziggurat tables, read from the objects in its static archive.

    They are local symbols there, so they cannot be linked; every ELF
    member of the ar archive is searched.
    """
    data = archive.read_bytes()
    if not data.startswith(b"!<arch>\n"):
        raise _BuildError(f"{archive.name} is not an ar archive")
    found, pos = {}, 8
    try:
        while pos + 60 <= len(data):
            if data[pos + 58:pos + 60] != b"`\n":
                raise _BuildError(f"{archive.name}: bad member header")
            size = int(data[pos + 48:pos + 58])
            member = data[pos + 60:pos + 60 + size]
            pos += 60 + size + size % 2
            if member.startswith(b"\x7fELF"):
                found = {**_elf_tables(member), **found}
    except (struct.error, ValueError, IndexError) as exc:
        raise _BuildError(f"{archive.name} unreadable: {exc}") from None
    missing = [name.decode() for name in _TABLES if name not in found]
    if missing:
        raise _BuildError(f"{archive.name} has no {', '.join(missing)}")
    return found


def _c_source(archive: Path) -> str:
    """The kernel's C source with numpy's ziggurat tables filled in."""
    tables, decls = _ziggurat_tables(archive), []
    for name, (ctype, _) in _TABLES.items():
        items = [f"{v:#x}ULL" if ctype == "uint64_t" else v.hex()
                 for v in tables[name]]
        rows = ",\n".join("    " + ", ".join(items[i:i + 4])
                          for i in range(0, len(items), 4))
        decls.append(f"static const {ctype} {name.decode()}[256] = {{\n"
                     f"{rows}\n}};")
    return _C_TEMPLATE.replace("@TABLES@", "\n".join(decls))


def _compiled_library() -> Path:
    """Path of the kernel's shared library, built into the cache if absent.

    The cache key does not depend on the archive's contents, so a cache
    hit never reads it.
    """
    cc = shutil.which("cc")
    if cc is None:
        raise _BuildError("no C compiler (cc) on PATH")
    archive = _NUMPY_DIR / "random" / "lib" / "libnpyrandom.a"
    if not archive.is_file():
        raise _BuildError(f"numpy's {archive.name} not found at {archive}")
    version = subprocess.run([cc, "--version"], capture_output=True,
                             text=True, timeout=60, check=True).stdout
    # crc32, not hashlib: importing hashlib loads OpenSSL, about 3 MB of
    # resident memory in every process that integrates
    key = "".join(f"{zlib.crc32(part.encode()):08x}"
                  for part in (_C_TEMPLATE, " ".join(_C_FLAGS), version,
                               np.__version__))
    cache = _cache_dir()
    lib = cache / f"chunk_step_{key}.so"
    if lib.is_file():
        return lib
    source = _c_source(archive)
    fd, tmp = tempfile.mkstemp(dir=cache, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *_C_FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
            input=source, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            raise _BuildError(f"cc failed: {proc.stderr.strip()[:500]}")
        # concurrent builders each write their own file; the rename is atomic
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


@functools.cache
def _c_function():
    """The loaded C kernel, or None (with one warning) when unavailable.

    Its sampler must first reproduce Generator.standard_normal bit for bit,
    consuming the same words, on _CHECK_DRAWS draws.
    """
    try:
        lib = ctypes.CDLL(str(_compiled_library()))
    except (OSError, subprocess.SubprocessError, _BuildError) as exc:
        warnings.warn(f"opo3: C step kernel unavailable ({exc}); "
                      "using the slower numpy kernel", RuntimeWarning,
                      stacklevel=2)
        return None
    normals = lib.opo3_normals
    normals.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
    normals.restype = None
    ours, numpys = np.random.PCG64(_CHECK_SEED), np.random.PCG64(_CHECK_SEED)
    got = np.empty(_CHECK_DRAWS)
    normals(ours.ctypes.bit_generator.value, got.size, got.ctypes.data)
    want = np.random.Generator(numpys).standard_normal(got.size)
    if got.tobytes() != want.tobytes() or ours.state != numpys.state:
        warnings.warn("opo3: the C kernel's normal sampler does not "
                      "reproduce numpy's Generator.standard_normal; using "
                      "the slower numpy kernel", RuntimeWarning, stacklevel=2)
        return None
    fn = lib.opo3_chunk_step
    fn.argtypes = ([ctypes.c_void_p] * 3 + [ctypes.c_double]
                   + [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 2
                   + [ctypes.c_double] * 6 + [ctypes.c_int64] * 2)
    fn.restype = ctypes.c_int
    return fn


def get_stepper():
    """The C kernel when it builds and loads, else the numpy kernel."""
    return _chunk_step_c if _c_function() is not None else _chunk_step_numpy
