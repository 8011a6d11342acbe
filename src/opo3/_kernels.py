"""Inner integration loops for the positive-P equations.

Two implementations with identical semantics advance a block of
trajectories through one chunk of steps in place: a C kernel, compiled
with the system `cc` on first use and cached on disk, and a vectorized
numpy kernel, the reference the tests compare against and the fallback
when no compiler is available or the build fails.

State layout: complex128 array (6, B) with rows (a0, a1, a2, a0p, a1p, a2p).
Noise layout: C-contiguous float64 array (B, n_steps, 4) of normals already
scaled by sqrt(dt/2); the four columns combine into the increments
dw1 = w0 + i*w1, dw2 = w0 - i*w1, dw1p = w2 + i*w3, dw2p = w2 - i*w3,
so <dw1 dw2> = <dw1p dw2p> = dt and all other second moments vanish.

Noise source: both kernels accept such a buffer.  For ensemble runs the C
kernel instead draws each live trajectory's normals as it steps
(`_draw_chunk_step_c`), with a copy of numpy's ziggurat
`random_standard_normal` that XORs the random sign into bit 63 instead of
branching, so the draws are bit-for-bit `Generator.standard_normal`'s.
Generator state: a uint64 array (B, 4) holds each trajectory's PCG64 as
(state hi, state lo, inc hi, inc lo); the kernel keeps it in a local
128-bit pair for a chunk and stores it back.  Seeding: `seed_generators`
fills it in C with numpy's PCG64(SeedSequence(master_seed,
spawn_key=(i,))) states.

Threads: the C kernel runs `n_threads` contiguous ranges of a block on
pthreads, the calling thread taking the first range and any whose thread
fails to start.  A trajectory touches only its own generator and state
column, so results do not depend on the thread count.

The pump takes the factored step a0 <- m + (a0 - m) * e_pump + phi_pump *
(-eps * a1 * a2), m = mu/eps, whose Euler factors e_pump = 1 - gamma_r*dt
and phi_pump = dt the engine passes in; signal modes take Euler-Maruyama
steps.  A trajectory whose candidate exceeds the threshold
or goes non-finite is frozen at its last good state, marked dead, and its
global step index recorded.

Rounding: the C kernel is built with -fcx-limited-range and
-ffp-contract=off (numpy's textbook complex product, no fused
multiply-adds); csqrt runs glibc's steps inline where glibc needs no
rescaling, libm's csqrt elsewhere.  The kernels agree to rounding.

Build: the ziggurat's tables are local symbols of numpy's static
`random/lib/libnpyrandom.a`, so an ar and ELF64 reader copies them into
the source; nothing of numpy is linked.  On load the kernel's seeding and
sampler must reproduce numpy's states and draws bit for bit, or the numpy
kernel runs instead, with one warning.  The library is cached under
$XDG_CACHE_HOME/opo3 (else ~/.cache/opo3, else a per-user temporary
directory), keyed by the source template, the flags, the resolved
compiler's path, size and mtime, and the numpy version, so a cache hit
runs no compiler and opens no archive.
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

/* numpy's PCG64 (O'Neill, HMC-CS-2014-0905): XSL-RR output on a 128-bit
   LCG, stored as the words (state hi, state lo, inc hi, inc lo) */
typedef struct { __uint128_t state, inc; } pcg64_t;
#define U128(hi, lo) (((__uint128_t)(hi) << 64) | (lo))
#define LOAD_PCG64(w) ((pcg64_t){U128((w)[0], (w)[1]), U128((w)[2], (w)[3])})

static inline uint64_t next_uint64(pcg64_t *g)
{
    g->state = g->state * U128(0x2360ed051fc65da4ULL, 0x4385df649fccf645ULL)
               + g->inc;
    uint64_t v = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = g->state >> 122;
    return (v >> rot) | (v << ((-rot) & 63));
}

static inline double next_double(pcg64_t *g)
{
    return (next_uint64(g) >> 11) * (1.0 / 9007199254740992.0);
}

static inline void store_pcg64(const pcg64_t *g, uint64_t *w)
{
    w[0] = g->state >> 64; w[1] = g->state; w[2] = g->inc >> 64; w[3] = g->inc;
}

/* numpy's SeedSequence hashes */
static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= 0x931e8875u;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = 0xca01f9ddu * x - 0x4973f715u * y;
    return result ^ (result >> 16);
}

/* out[4j..4j+3] = the state of PCG64(SeedSequence(entropy,
   spawn_key=(first_index + j,))), entropy being the seed's little-endian
   uint32 words: SeedSequence's mix_entropy on a pool of 4 words and
   generate_state(4, uint64), then numpy's pcg64_set_seed */
void opo3_seed(const uint32_t *entropy, int64_t n_entropy,
               int64_t first_index, int64_t nb, uint64_t *out)
{
    const int64_t n_run = n_entropy < 4 ? 4 : n_entropy;
    for (int64_t j = 0; j < nb; j++) {
        /* the run entropy padded to the pool size, then the key's words */
        const uint64_t index = (uint64_t)first_index + (uint64_t)j;
        uint32_t pool[4], hash_const = 0x43b0d7e5u;
        for (int64_t i = 0; i < n_run + (index >> 32 ? 2 : 1); i++) {
            uint32_t v = i < n_entropy ? entropy[i] : i < n_run ? 0
                         : (uint32_t)(index >> (32 * (i - n_run)));
            if (i < 4)
                pool[i] = hashmix(v, &hash_const);
            else
                for (int dst = 0; dst < 4; dst++)
                    pool[dst] = mix(pool[dst], hashmix(v, &hash_const));
            for (int src = 0; i == 3 && src < 4; src++)
                for (int dst = 0; dst < 4; dst++)
                    if (src != dst)
                        pool[dst] = mix(pool[dst],
                                        hashmix(pool[src], &hash_const));
        }
        uint64_t seed[4] = {0, 0, 0, 0};
        hash_const = 0x8b51f9ddu;
        for (int i = 0; i < 8; i++) {
            uint32_t v = pool[i % 4] ^ hash_const;
            hash_const *= 0x58f38dedu;
            v *= hash_const;
            seed[i / 2] |= (uint64_t)(v ^ (v >> 16)) << (32 * (i % 2));
        }
        pcg64_t g = {0, U128(seed[2], seed[3]) << 1 | 1};
        next_uint64(&g);
        g.state += U128(seed[0], seed[1]);
        next_uint64(&g);
        store_pcg64(&g, out + 4 * j);
    }
}

/* numpy's ziggurat tables, copied from its libnpyrandom.a at build time */
@TABLES@
static const double ziggurat_nor_r = 3.6541528853610087963519472518;
static const double ziggurat_nor_inv_r = 0.27366123732975827203338247596;

static double standard_normal(pcg64_t *g);

/* the rest of numpy's random_standard_normal for a draw outside the
   rectangles: the idx-0 tail, else the wedge test, else a fresh draw */
static __attribute__((noinline)) double normal_rejected(
    pcg64_t *g, int idx, uint64_t rabs, double x)
{
    if (idx == 0) {
        for (;;) {
            /* Switch to 1.0 - U to avoid log(0.0), see GH 13361 */
            double xx = -ziggurat_nor_inv_r * log1p(-next_double(g));
            double yy = -log1p(-next_double(g));
            if (yy + yy > xx * xx)
                return ((rabs >> 8) & 0x1) ? -(ziggurat_nor_r + xx)
                                           : ziggurat_nor_r + xx;
        }
    }
    if (((fi_double[idx - 1] - fi_double[idx]) * next_double(g)
         + fi_double[idx]) < exp(-0.5 * x * x))
        return x;
    return standard_normal(g);
}

/* numpy's random_standard_normal (Marsaglia & Tsang's ziggurat, J. Stat.
   Softw. 5(8), 2000) as numpy writes it, except that the random sign is
   XOR-ed into bit 63, not taken by an unpredictable branch, and that the
   rejections run out of line on a copy of g, so g stays in registers */
static inline __attribute__((always_inline)) double standard_normal(
    pcg64_t *g)
{
    uint64_t r = next_uint64(g);
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
    pcg64_t copy = *g;
    x = normal_rejected(&copy, idx, rabs, x);
    *g = copy;
    return x;
}

/* n draws of standard_normal from the PCG64 in words[0..3], written back
   after, for the load-time comparison with Generator.standard_normal */
void opo3_normals(uint64_t *words, int64_t n, double *out)
{
    pcg64_t g = LOAD_PCG64(words);
    for (int64_t i = 0; i < n; i++)
        out[i] = standard_normal(&g);
    store_pcg64(&g, words);
}

/* glibc's csqrt (math/s_csqrt_template.c, 2.36) on the operands it takes
   unscaled: finite, both parts nonzero, none above 2^1020 and not both
   below 2^-1021; libm's csqrt takes the rest */
static inline double complex csqrt_fast(double complex z)
{
    double x = creal(z), y = cimag(z), ax = fabs(x), ay = fabs(y), r, s;
    if (!(ax <= 0x1p1020 && ay <= 0x1p1020 && x != 0 && y != 0
          && (ax >= 0x1p-1021 || ay >= 0x1p-1021)))
        return csqrt(z);
    if (x > 0) {
        r = sqrt(0.5 * (hypot(x, y) + x));
        s = 0.5 * (y / r);
    } else {
        s = sqrt(0.5 * (hypot(x, y) - x));
        r = fabs(0.5 * (y / s));
    }
    return CMPLX(r, copysign(s, y));
}

/* one opo3_chunk_step call's arguments, trajectories [lo, hi) of them and
   the thread that runs them */
typedef struct {
    double complex *state; const double *w; uint64_t *gens; double scale;
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
        /* the generator stays in registers for the whole chunk */
        uint64_t *gw = r->gens ? r->gens + 4 * j : NULL;
        pcg64_t g = gw ? LOAD_PCG64(gw) : (pcg64_t){0, 0};
        const double *wj = r->w ? r->w + j * n_steps * 4 : NULL;
        double complex a0 = state[j], a1 = state[nb + j],
                       a2 = state[2 * nb + j], a0p = state[3 * nb + j],
                       a1p = state[4 * nb + j], a2p = state[5 * nb + j];
        for (int64_t c = 0; c < n_steps; c++) {
            double w[4];
            if (gw) {
                for (int k = 0; k < 4; k++)
                    w[k] = standard_normal(&g) * r->scale;
            } else {
                memcpy(w, wj + 4 * c, sizeof w);
            }
            double complex dw1 = CMPLX(w[0], w[1]), dw2 = CMPLX(w[0], -w[1]);
            double complex dw1p = CMPLX(w[2], w[3]), dw2p = CMPLX(w[2], -w[3]);
            double complex r0 = csqrt_fast(eps * a0),
                           r0p = csqrt_fast(eps * a0p);
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
        if (gw)
            store_pcg64(&g, gw);
    }
    return NULL;
}

/* With gens NULL the noise is read from w, (nb, n_steps, 4) and already
   scaled; otherwise trajectory j draws each step's four normals from the
   PCG64 in gens[4j..4j+3] as it takes the step, scales them by `scale`,
   and writes the generator back at the end of the chunk.  n_threads is
   clamped to [1, nb].  Returns -1 when the ranges cannot be allocated. */
int opo3_chunk_step(double complex *state, const double *w, uint64_t *gens,
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
# the load-time check's spawn keys: 0, 1 and 2**32 - 1, 2**32 (two words)
_CHECK_SEED = 20260814
_CHECK_KEYS = (0, 2**32 - 1)
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


def seed_generators(master_seed: int, first: int, nb: int,
                    lib=None) -> np.ndarray:
    """(nb, 4) uint64 rows (state hi, state lo, inc hi, inc lo), row j the
    state of PCG64(SeedSequence(master_seed, spawn_key=(first + j,)))."""
    lib = lib or _c_function()
    if lib is None:
        raise RuntimeError("the C step kernel is not available")
    # master_seed's little-endian uint32 words, as SeedSequence reads it
    n = max(1, -(-master_seed.bit_length() // 32))
    words = np.frombuffer(master_seed.to_bytes(4 * n, "little"), dtype="<u4")
    out = np.empty((nb, 4), dtype=np.uint64)
    lib.opo3_seed(words.ctypes.data, words.size, first, nb, out.ctypes.data)
    return out


def _pcg64_words(bit_generator: np.random.PCG64) -> np.ndarray:
    """A numpy PCG64's state as the kernel's four words."""
    st, mask = bit_generator.state["state"], 2**64 - 1
    return np.array([st["state"] >> 64, st["state"] & mask, st["inc"] >> 64,
                     st["inc"] & mask], dtype=np.uint64)


def _draw_chunk_step_c(state, gens, n_steps, scale, alive, first_bad, eps,
                       m_pump, dt, e_pump, phi_pump, thr2, step0,
                       n_threads=1):
    """`_chunk_step_c` drawing its noise inside the kernel: live trajectory
    j takes from the PCG64 in gens[j] (see `seed_generators`) exactly
    Generator.standard_normal((n_steps, 4)) * scale, moving gens[j] on."""
    if not (gens.dtype == np.uint64 and gens.shape == (len(alive), 4)
            and gens.flags.c_contiguous and gens.flags.writeable):
        raise ValueError("gens must be a writeable C-contiguous uint64 "
                         "(B, 4) array")
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    _call_c(state, None, gens.ctypes.data, scale, alive, first_bad, n_steps,
            eps, m_pump, dt, e_pump, phi_pump, thr2, step0, n_threads)


def _call_c(state, w_ptr, gens_ptr, scale, alive, first_bad, n_steps, eps,
            m_pump, dt, e_pump, phi_pump, thr2, step0, n_threads):
    lib = _c_function()
    if lib is None:
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
    if lib.opo3_chunk_step(state.ctypes.data, w_ptr, gens_ptr, scale,
                           alive.ctypes.data, first_bad.ctypes.data, nb,
                           n_steps, eps, m_pump, dt, e_pump, phi_pump, thr2,
                           step0, n_threads) != 0:
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

    The cache key does not depend on the archive's contents or run the
    compiler, so a cache hit neither reads the archive nor starts a process.
    """
    cc = shutil.which("cc")
    if cc is None:
        raise _BuildError("no C compiler (cc) on PATH")
    archive = _NUMPY_DIR / "random" / "lib" / "libnpyrandom.a"
    if not archive.is_file():
        raise _BuildError(f"numpy's {archive.name} not found at {archive}")
    # the compiler's resolved file, size and mtime name it without running it
    real = os.path.realpath(cc)
    st = os.stat(real)
    compiler = f"{real}:{st.st_size}:{st.st_mtime_ns}"
    # crc32, not hashlib: importing hashlib loads OpenSSL, about 3 MB of
    # resident memory in every process that integrates
    key = "".join(f"{zlib.crc32(part.encode()):08x}"
                  for part in (_C_TEMPLATE, " ".join(_C_FLAGS), compiler,
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
    """The loaded C kernel library, or None (with one warning) when
    unavailable.

    Its seeding must first give numpy's PCG64 states for the spawn keys
    _CHECK_KEYS and their successors, and its sampler must reproduce
    Generator.standard_normal bit for bit on _CHECK_DRAWS draws from the
    last of them, consuming the same words.
    """
    try:
        lib = ctypes.CDLL(str(_compiled_library()))
    except (OSError, subprocess.SubprocessError, _BuildError) as exc:
        warnings.warn(f"opo3: C step kernel unavailable ({exc}); "
                      "using the slower numpy kernel", RuntimeWarning,
                      stacklevel=2)
        return None
    ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    for fn, args, res in (
            (lib.opo3_seed, [ptr, i64, i64, i64, ptr], None),
            (lib.opo3_normals, [ptr, i64, ptr], None),
            (lib.opo3_chunk_step, [ptr] * 3 + [f64] + [ptr] * 2 + [i64] * 2
             + [f64] * 6 + [i64] * 2, ctypes.c_int)):
        fn.argtypes, fn.restype = args, res
    ours = np.concatenate([seed_generators(_CHECK_SEED, k, 2, lib)
                           for k in _CHECK_KEYS])
    bitgens = [np.random.PCG64(np.random.SeedSequence(
        _CHECK_SEED, spawn_key=(k + j,))) for k in _CHECK_KEYS for j in (0, 1)]
    seeded = ours.tobytes() == b"".join(_pcg64_words(b).tobytes()
                                        for b in bitgens)
    # then draws from the last key's state, which is written back
    got = np.empty(_CHECK_DRAWS)
    lib.opo3_normals(ours[-1].ctypes.data, got.size, got.ctypes.data)
    want = np.random.Generator(bitgens[-1]).standard_normal(got.size)
    if not (seeded and got.tobytes() == want.tobytes()
            and ours[-1].tobytes() == _pcg64_words(bitgens[-1]).tobytes()):
        warnings.warn("opo3: the C kernel's generator does not reproduce "
                      "numpy's SeedSequence, PCG64 and "
                      "Generator.standard_normal; using the slower numpy "
                      "kernel", RuntimeWarning, stacklevel=2)
        return None
    return lib


def get_stepper():
    """The C kernel when it builds and loads, else the numpy kernel."""
    return _chunk_step_c if _c_function() is not None else _chunk_step_numpy
