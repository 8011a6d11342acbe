"""Inner integration loops for the positive-P equations.

Two implementations with identical results, bit for bit, advance a block
of trajectories through one chunk of steps in place: a C kernel, compiled
with the system `cc` on first use and cached on disk, and a vectorized
numpy kernel, the reference the tests compare against and the fallback
when no compiler is available or the build fails.

State layout: complex128 array (6, B) with rows (a0, a1, a2, a0p, a1p, a2p).
Noise layout: C-contiguous float64 array (B, n_steps, 4) of normals already
scaled by sqrt(dt/2); the four columns combine into the increments
dw1 = w0 + i*w1, dw2 = w0 - i*w1, dw1p = w2 + i*w3, dw2p = w2 - i*w3,
so <dw1 dw2> = <dw1p dw2p> = dt and all other second moments vanish.

Noise source: a chunk's noise is such a buffer or, in ensemble runs,
generator words: a uint64 array (B, 4) of each trajectory's PCG64 as
(state hi, state lo, inc hi, inc lo), from which each live trajectory
draws four normals a step, through the step it dies at, and scales them.
The C kernel draws as it steps, with a copy of numpy's ziggurat
`random_standard_normal` that XORs the random sign into bit 63 instead
of branching, so the draws are bit-for-bit `Generator.standard_normal`'s;
the numpy kernel draws each chunk up front from a `np.random.PCG64` set
to the words.  `seed_generators` fills them with the states of
PCG64(SeedSequence(master_seed, spawn_key=(i,))).

Threads and lanes: the C kernel runs `n_threads` contiguous ranges of a
block on pthreads, the calling thread taking the first range and any
whose thread fails to start.  A thread steps its range four trajectories
at a time, one per lane of a vector, with the real and imaginary parts of
each amplitude in their own vectors; the step map is stated once, for the
lanes.  A lane past the end of the range, or dead, is masked: it draws
nothing, and its state and generator stay as they are.  A trajectory
touches only its own generator and state column, and every lane rounds
alone, so results depend neither on the thread count nor on the lane.

The pump takes the factored Euler step a0 <- m + (a0 - m) * e_pump +
dt * (-eps * a1 * a2), m = mu/eps, e_pump = 1 - gamma_r*dt; signal modes
take Euler-Maruyama steps.  A trajectory whose candidate exceeds the
threshold or goes non-finite is frozen at its last good state, marked
dead, and its global step index recorded.

Rounding: both kernels take each step in float64 real arithmetic, every
complex product the textbook (ac - bd, ad + bc), each operation rounded
on its own in the same order; the C kernel is built with
-ffp-contract=off, so no multiply-add is fused, and its vector clones
(AVX and the baseline) enable no FMA.  The complex square root is a
formula of IEEE operations only: with m = sqrt(x*x + y*y),
t = sqrt((m + |x|)/2) and u = y/(2t), the root of x + iy is
(t, copysign(u, y)) for x >= 0 and (|u|, copysign(t, y)) for x < 0,
chosen by a mask, not a branch.  Where x*x + y*y leaves [2^-1000, 2^1000]
the operand is first scaled by an exact power of two, and 0 gives
(+0, y).  It is within 2 ulp of cmath.sqrt and needs no libm, so the two
kernels give the same bits.

Build: the ziggurat's tables are local symbols of numpy's static
`random/lib/libnpyrandom.a`, so an ar and ELF64 reader copies them into
the source; nothing of numpy is linked.  On load the kernel's seeding,
sampler and step must reproduce numpy's states and draws and the numpy
kernel's bytes, or the numpy kernel runs instead, with one warning.  The
library is cached under $XDG_CACHE_HOME/opo3 (else ~/.cache/opo3, else a
per-user temporary directory), keyed by this module's source, the flags,
the resolved compiler's path, size and mtime, and the numpy version, so a
cache hit runs no compiler and opens no archive; the numpy kernel's bytes
for the step check are kept beside it.
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

/* The step map runs on LANES trajectories of a range at once, the real
   and imaginary parts of each amplitude in one vector across them.  Each
   lane rounds as a scalar step would: + - * / and sqrt are IEEE per
   element, and nothing fuses a multiply-add (-ffp-contract=off, and
   neither clone below enables FMA).  32-byte vectors are passed by
   pointer: by value, without AVX, they change the ABI (-Wpsabi). */
#define LANES 4
typedef double vdouble __attribute__((vector_size(LANES * sizeof(double))));
typedef int64_t vmask __attribute__((vector_size(LANES * sizeof(int64_t))));
typedef struct { vdouble re, im; } lanes_t;  /* one amplitude of each lane */
#define ALWAYS_INLINE inline __attribute__((always_inline))
#define SIGN_BIT ((vmask){} + INT64_MIN)
#define VABS(a) ((vdouble)((vmask)(a) & ~SIGN_BIT))
#define VCOPYSIGN(a, s) \
    ((vdouble)(((vmask)(a) & ~SIGN_BIT) | ((vmask)(s) & SIGN_BIT)))
#define VSELECT(m, a, b) ((vdouble)(((m) & (vmask)(a)) | (~(m) & (vmask)(b))))
/* an AVX clone besides the baseline one, picked at load by an ifunc */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
    && defined(__GLIBC__)
#define LANE_CLONES __attribute__((target_clones("avx", "default")))
#else
#define LANE_CLONES
#endif

static ALWAYS_INLINE void vsqrt(vdouble *a)
{
    for (int k = 0; k < LANES; k++)
        (*a)[k] = sqrt((*a)[k]);
}

/* the principal root of x + iy: with m = sqrt(x*x + y*y),
   t = sqrt(0.5*(m + |x|)) and u = 0.5*(y/t), (t, copysign(u, y)) for
   x >= 0 and (|u|, copysign(t, y)) for x < 0 */
static ALWAYS_INLINE void root_formula(const vdouble *x, const vdouble *y,
                                       const vdouble *m2, lanes_t *root)
{
    vdouble m = *m2;
    vsqrt(&m);
    vdouble t = 0.5 * (m + VABS(*x));
    vsqrt(&t);
    vdouble u = 0.5 * (*y / t);
    vmask neg = *x < 0.0;
    root->re = VSELECT(neg, VABS(u), t);
    root->im = VCOPYSIGN(VSELECT(neg, t, u), *y);
}

/* the root of x + iy when x*x + y*y is outside [2^-1000, 2^1000] or NaN:
   the formula on x + iy times an exact even power of two that brings it
   into range, its root times the square root of the inverse; 0 gives
   (+0, y) */
static __attribute__((noinline)) void root_rescaled(double x, double y,
                                                    double *re, double *im)
{
    if (x == 0 && y == 0) {
        *re = 0;
        *im = y;
        return;
    }
    const int big = fabs(x) > 1 || fabs(y) > 1;
    const double scale = big ? 0x1p-600 : 0x1p600;
    vdouble sx = {x * scale}, sy = {y * scale};      /* in lane 0 */
    vdouble m2 = sx * sx + sy * sy;
    lanes_t root;
    root_formula(&sx, &sy, &m2, &root);
    *re = root.re[0] * (big ? 0x1p300 : 0x1p-300);
    *im = root.im[0] * (big ? 0x1p300 : 0x1p-300);
}

/* root_formula where x*x + y*y lies in [2^-1000, 2^1000], so that no
   square overflows and a part's square that underflows is below the
   sum's rounding, root_rescaled elsewhere */
static ALWAYS_INLINE void lane_root(const lanes_t *z, lanes_t *root)
{
    const vdouble m2 = z->re * z->re + z->im * z->im;
    root_formula(&z->re, &z->im, &m2, root);
    const vmask out = ~((m2 >= 0x1p-1000) & (m2 <= 0x1p1000));
    if (!(out[0] | out[1] | out[2] | out[3]))
        return;
    for (int k = 0; k < LANES; k++) {
        if (out[k]) {
            double re, im;
            root_rescaled(z->re[k], z->im[k], &re, &im);
            root->re[k] = re;
            root->im[k] = im;
        }
    }
}

/* the textbook product (ac - bd, ad + bc) */
static ALWAYS_INLINE void cmul(const lanes_t *a, const lanes_t *b, lanes_t *p)
{
    p->re = a->re * b->re - a->im * b->im;
    p->im = a->re * b->im + a->im * b->re;
}

/* one opo3_chunk_step call's arguments, trajectories [lo, hi) of them and
   the thread that runs them */
typedef struct {
    double *state; const double *w; uint64_t *gens; double scale;
    uint8_t *alive; int64_t *first_bad; int64_t nb, n_steps;
    double eps, m_pump, dt, e_pump, thr2; int64_t step0;
    int64_t lo, hi; pthread_t thread; int started;
} range_t;

/* the pump mode: m + (a - m)*e_pump + dt*(-eps*b*c) */
static ALWAYS_INLINE void pump_step(const range_t *r, const lanes_t *a,
                                    const lanes_t *b, const lanes_t *c,
                                    lanes_t *next)
{
    lanes_t eb = {-r->eps * b->re, -r->eps * b->im}, p;
    cmul(&eb, c, &p);
    next->re = r->m_pump + (a->re - r->m_pump) * r->e_pump + r->dt * p.re;
    next->im = a->im * r->e_pump + r->dt * p.im;
}

/* a signal mode: s + dt*(eps*p*q - s) + root*dw */
static ALWAYS_INLINE void signal_step(const range_t *r, const lanes_t *s,
                                      const lanes_t *p, const lanes_t *q,
                                      const lanes_t *root, const lanes_t *dw,
                                      lanes_t *next)
{
    lanes_t ep = {r->eps * p->re, r->eps * p->im}, d, f;
    cmul(&ep, q, &d);
    cmul(root, dw, &f);
    next->re = s->re + r->dt * (d.re - s->re) + f.re;
    next->im = s->im + r->dt * (d.im - s->im) + f.im;
}

/* clears the lanes of ok where |z|^2 exceeds thr2 or is NaN */
static ALWAYS_INLINE void and_inside(vmask *ok, const lanes_t *z, double thr2)
{
    *ok &= z->re * z->re + z->im * z->im <= thr2;
}

/* Trajectories [lo, hi) in groups of LANES.  A lane that is dead, or past
   hi, is masked: it draws nothing and its state and generator stay as
   they are; a lane that leaves the threshold keeps its last good state. */
static LANE_CLONES void *step_range(void *arg)
{
    /* a local copy, which the stores through alive cannot alias */
    const range_t copy = *(const range_t *)arg, *r = &copy;
    const int64_t nb = r->nb;
    double *state = r->state;          /* (6, nb) complex, (re, im) pairs */
    for (int64_t j0 = r->lo; j0 < r->hi; j0 += LANES) {
        double parts[12][LANES], w[4][LANES] = {{0}};
        pcg64_t g[LANES] = {{0}};
        const double *wl[LANES] = {0};
        vmask keep = {0};
        for (int k = 0; k < LANES; k++) {
            const int64_t j = j0 + k;
            const int on = j < r->hi && r->alive[j];
            keep[k] = -on;
            /* masked lanes hold 1 + 0i, which takes no rescaled root */
            for (int i = 0; i < 12; i++)
                parts[i][k] = on ? state[2 * ((i / 2) * nb + j) + i % 2]
                                 : (double)(i % 2 == 0);
            if (on && r->gens)
                g[k] = LOAD_PCG64(r->gens + 4 * j);
            if (on && r->w)
                wl[k] = r->w + j * r->n_steps * 4;
        }
        const vmask loaded = keep;
        lanes_t a[6];                   /* a0, a1, a2, a0p, a1p, a2p */
        memcpy(a, parts, sizeof a);
        for (int64_t c = 0; c < r->n_steps; c++) {
            /* each live lane's four normals, drawn or read */
            for (int k = 0; k < LANES; k++) {
                if (!keep[k])
                    continue;
                for (int i = 0; i < 4; i++)
                    w[i][k] = r->gens ? standard_normal(&g[k]) * r->scale
                                      : wl[k][4 * c + i];
            }
            lanes_t dw[4], z, root0, root0p, next[6];
            memcpy(&dw[0].re, w[0], sizeof dw[0].re);
            memcpy(&dw[0].im, w[1], sizeof dw[0].im);
            memcpy(&dw[2].re, w[2], sizeof dw[2].re);
            memcpy(&dw[2].im, w[3], sizeof dw[2].im);
            /* dw1 = w0 + i w1, dw2 = w0 - i w1, and alike for dw1p, dw2p */
            dw[1] = (lanes_t){dw[0].re, -dw[0].im};
            dw[3] = (lanes_t){dw[2].re, -dw[2].im};
            z = (lanes_t){r->eps * a[0].re, r->eps * a[0].im};
            lane_root(&z, &root0);
            z = (lanes_t){r->eps * a[3].re, r->eps * a[3].im};
            lane_root(&z, &root0p);
            pump_step(r, &a[0], &a[1], &a[2], &next[0]);
            pump_step(r, &a[3], &a[4], &a[5], &next[3]);
            signal_step(r, &a[1], &a[5], &a[0], &root0, &dw[0], &next[1]);
            signal_step(r, &a[2], &a[4], &a[0], &root0, &dw[1], &next[2]);
            signal_step(r, &a[4], &a[2], &a[3], &root0p, &dw[2], &next[4]);
            signal_step(r, &a[5], &a[1], &a[3], &root0p, &dw[3], &next[5]);
            vmask ok = ~(vmask){0};
            for (int i = 0; i < 6; i++)
                and_inside(&ok, &next[i], r->thr2);
            const vmask died = keep & ~ok;
            if (died[0] | died[1] | died[2] | died[3]) {
                for (int k = 0; k < LANES; k++) {
                    if (died[k]) {
                        r->alive[j0 + k] = 0;
                        r->first_bad[j0 + k] = r->step0 + c;
                    }
                }
                keep &= ok;
            }
            if (keep[0] & keep[1] & keep[2] & keep[3]) {
                memcpy(a, next, sizeof a);
            } else {
                if (!(keep[0] | keep[1] | keep[2] | keep[3]))
                    break;
                for (int i = 0; i < 6; i++) {
                    a[i].re = VSELECT(keep, next[i].re, a[i].re);
                    a[i].im = VSELECT(keep, next[i].im, a[i].im);
                }
            }
        }
        memcpy(parts, a, sizeof parts);
        for (int k = 0; k < LANES; k++) {
            const int64_t j = j0 + k;
            if (!loaded[k])
                continue;
            for (int i = 0; i < 12; i++)
                state[2 * ((i / 2) * nb + j) + i % 2] = parts[i][k];
            if (r->gens)
                store_pcg64(&g[k], r->gens + 4 * j);
        }
    }
    return NULL;
}

/* With gens NULL the noise is read from w, (nb, n_steps, 4) and already
   scaled; otherwise trajectory j draws each step's four normals from the
   PCG64 in gens[4j..4j+3] as it takes the step, scales them by `scale`,
   and writes the generator back at the end of the chunk.  n_threads is
   clamped to [1, nb].  Returns -1 when the ranges cannot be allocated. */
int opo3_chunk_step(double *state, const double *w, uint64_t *gens,
                    double scale, uint8_t *alive, int64_t *first_bad,
                    int64_t nb, int64_t n_steps, double eps, double m_pump,
                    double dt, double e_pump, double thr2, int64_t step0,
                    int64_t n_threads)
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
                       eps, m_pump, dt, e_pump, thr2, step0,
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
_C_FLAGS = ("-O2", "-pthread", "-fPIC", "-shared", "-ffp-contract=off",
            "-fno-math-errno")
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
# the load-time step check's block: trajectories x steps
_CHECK_STEP = (7, 12)


def _root_formula(x, y, m2):
    """root_formula of the C source on float64 arrays, m2 = x*x + y*y."""
    t = np.sqrt(0.5 * (np.sqrt(m2) + np.abs(x)))
    u = 0.5 * (y / t)
    if not np.signbit(x).any():    # x >= 0, and u has the sign of y
        return t, u
    neg = x < 0.0
    return np.where(neg, np.abs(u), t), np.copysign(np.where(neg, t, u), y)


def _root(x, y):
    """lane_root of the C source: the kernels' principal square root of
    x + iy on float64 arrays, as (real, imaginary) arrays."""
    m2 = x * x + y * y
    re, im = _root_formula(x, y, m2)
    out = ~((m2 >= 2.0**-1000) & (m2 <= 2.0**1000))
    if not out.any():
        return re, im
    # root_rescaled, NaN included
    xo, yo = x[out], y[out]
    big = (np.abs(xo) > 1) | (np.abs(yo) > 1)
    scale = np.where(big, 2.0**-600, 2.0**600)
    sx, sy = xo * scale, yo * scale
    ro, io = _root_formula(sx, sy, sx * sx + sy * sy)
    back = np.where(big, 2.0**300, 2.0**-300)
    zero = (xo == 0) & (yo == 0)
    re[out] = np.where(zero, 0.0, ro * back)
    im[out] = np.where(zero, yo, io * back)
    return re, im


def _scatter(state, cols, px, py, sx, sy):
    """Store pumps (2, n) and signals (2, 2, n) into state's columns."""
    for part, p, s in ((state.real, px, sx), (state.imag, py, sy)):
        rows = np.empty((2, 3, cols.size))
        rows[:, 0], rows[:, 1:] = p, s
        part[:, cols] = rows.reshape(6, cols.size)


def _chunk_step_numpy(state, w, gens, scale, alive, first_bad, n_steps, eps,
                      m_pump, dt, e_pump, thr2, step0, n_threads=1):
    """The C lane step on all live trajectories at once, each operation
    the C source's, in its order, on float64 arrays, so the bits are equal.
    It takes the arguments of `_chunk_step_c` and runs on the calling
    thread whatever n_threads says.

    Pumps are held as (2, n) arrays, rows a0 and a0p, and signals as
    (2, 2, n) arrays, rows (a1, a2) and (a1p, a2p), real and imaginary
    parts apart; the partner p of each signal in eps*p*q is then the
    signals reversed on both axes.
    """
    idx = np.flatnonzero(alive)
    if gens is not None:
        # each live trajectory's whole chunk, drawn up front
        rng = np.random.Generator(np.random.PCG64(0))
        live, start = idx, gens.copy()
        w = np.empty((len(alive), n_steps, 4))
        for j in idx:
            _draw(rng, gens[j], w[j])
            w[j] *= scale
    n = idx.size
    re = state.real[:, idx].reshape(2, 3, n)
    im = state.imag[:, idx].reshape(2, 3, n)
    px, py, sx, sy = re[:, 0], im[:, 0], re[:, 1:], im[:, 1:]
    # dw1 = w0 + i w1, dw2 = w0 - i w1, and alike for dw1p and dw2p
    flip = np.array([1.0, -1.0])[:, None]
    # non-finite states are expected here and killed by the threshold test
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for c in range(n_steps):
            if n == 0:
                break
            wc = (w[:, c] if n == len(alive) else w[idx, c]).T
            rx, ry = _root(eps * px, eps * py)
            # the pumps: m + (a - m)*e_pump + dt*(-eps*b*c)
            bx, by = -eps * sx[:, 0], -eps * sy[:, 0]
            qx = bx * sx[:, 1] - by * sy[:, 1]
            qy = bx * sy[:, 1] + by * sx[:, 1]
            npx = m_pump + (px - m_pump) * e_pump + dt * qx
            npy = py * e_pump + dt * qy
            # the signals: s + dt*(eps*p*q - s) + root*dw
            ex, ey = eps * sx[::-1, ::-1], eps * sy[::-1, ::-1]
            pump_x, pump_y = px[:, None], py[:, None]
            dx = ex * pump_x - ey * pump_y
            dy = ex * pump_y + ey * pump_x
            wr, wi = wc[0::2, None], wc[1::2, None] * flip
            rx, ry = rx[:, None], ry[:, None]
            nsx = sx + dt * (dx - sx) + (rx * wr - ry * wi)
            nsy = sy + dt * (dy - sy) + (rx * wi + ry * wr)
            ok = ((npx * npx + npy * npy <= thr2).all(axis=0)
                  & (nsx * nsx + nsy * nsy <= thr2).all(axis=(0, 1)))
            if not ok.all():
                # the dead keep their last good state
                _scatter(state, idx[~ok], px[:, ~ok], py[:, ~ok],
                         sx[..., ~ok], sy[..., ~ok])
                alive[idx[~ok]] = False
                first_bad[idx[~ok]] = step0 + c
                idx, npx, npy = idx[ok], npx[:, ok], npy[:, ok]
                nsx, nsy = nsx[..., ok], nsy[..., ok]
                n = idx.size
            px, py, sx, sy = npx, npy, nsx, nsy
    _scatter(state, idx, px, py, sx, sy)
    if gens is not None:
        # one that died in the chunk drew through its last step only
        for j in live[~alive[live]]:
            gens[j] = start[j]
            _draw(rng, gens[j], np.empty((first_bad[j] - step0 + 1, 4)))


def _draw(rng, words, out):
    """Fill `out` from rng.standard_normal, its PCG64 set to the state in
    `words` (see `seed_generators`) first and stored back into it after."""
    state, inc = (int(words[0]) << 64 | int(words[1]),
                  int(words[2]) << 64 | int(words[3]))
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    rng.standard_normal(out=out)
    words[:] = _pcg64_words(rng.bit_generator)


def _chunk_step_c(state, w, gens, scale, alive, first_bad, n_steps, eps,
                  m_pump, dt, e_pump, thr2, step0, n_threads=1, lib=None):
    """opo3_chunk_step on a block: its n_steps steps draw their noise from
    gens, each trajectory's generator words, and scale it by `scale`, or
    when gens is None read it from w, a C-contiguous (B, n_steps, 4)
    buffer."""
    lib = lib or _c_function()
    if lib is None:
        raise RuntimeError("the C step kernel is not available")
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    nb = state.shape[1]
    noise = (("gens", gens, np.uint64, (nb, 4)) if gens is not None
             else ("w", w, np.float64, (nb, n_steps, 4)))
    # the C side trusts these shapes and layouts; check them here
    for name, a, dtype, shape in (("state", state, np.complex128, (6, nb)),
                                  ("alive", alive, np.bool_, (nb,)),
                                  ("first_bad", first_bad, np.int64, (nb,)),
                                  noise):
        if not (a.dtype == dtype and a.shape == shape and a.flags.c_contiguous
                and (a.flags.writeable or a is w)):
            need = "C-contiguous" if a is w else "writeable C-contiguous"
            raise ValueError(f"{name} must be a {need} "
                             f"{np.dtype(dtype).name} {shape} array")
    w_ptr, gens_ptr = ((None, gens.ctypes.data) if gens is not None
                       else (w.ctypes.data, None))
    if lib.opo3_chunk_step(state.ctypes.data, w_ptr, gens_ptr, scale,
                           alive.ctypes.data, first_bad.ctypes.data, nb,
                           n_steps, eps, m_pump, dt, e_pump, thr2, step0,
                           n_threads) != 0:
        raise MemoryError("no memory for the C kernel's thread ranges")


def seed_generators(master_seed: int, first: int, nb: int,
                    lib=None) -> np.ndarray:
    """(nb, 4) uint64 rows (state hi, state lo, inc hi, inc lo), row j the
    state of PCG64(SeedSequence(master_seed, spawn_key=(first + j,))),
    seeded in C, or by numpy when the C kernel is not available."""
    lib = lib or _c_function()
    out = np.empty((nb, 4), dtype=np.uint64)
    if lib is None:
        for j in range(nb):
            out[j] = _pcg64_words(np.random.PCG64(np.random.SeedSequence(
                master_seed, spawn_key=(first + j,))))
        return out
    # master_seed's little-endian uint32 words, as SeedSequence reads it
    n = max(1, -(-master_seed.bit_length() // 32))
    words = np.frombuffer(master_seed.to_bytes(4 * n, "little"), dtype="<u4")
    lib.opo3_seed(words.ctypes.data, words.size, first, nb, out.ctypes.data)
    return out


def _pcg64_words(bit_generator: np.random.PCG64) -> np.ndarray:
    """A numpy PCG64's state as the kernel's four words."""
    st, mask = bit_generator.state["state"], 2**64 - 1
    return np.array([st["state"] >> 64, st["state"] & mask, st["inc"] >> 64,
                     st["inc"] & mask], dtype=np.uint64)


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
    # resident memory in every process that integrates; this module's
    # source holds both the C template and the numpy kernel whose check
    # bytes are kept beside the library
    key = "".join(f"{zlib.crc32(part):08x}"
                  for part in (Path(__file__).read_bytes(),
                               " ".join(_C_FLAGS).encode(), compiler.encode(),
                               np.__version__.encode()))
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


def _check_chunk(step, normals) -> bytes:
    """state, alive and first_bad bytes after `step` (a kernel) on the
    load-time check chunk: _CHECK_STEP trajectories x steps of buffered
    noise made from `normals`, two lane groups, the second partial, with
    #3 kicked over the threshold at step 9, #5 starting at a zero pump
    (the exact zero root) and #6 at a tiny one (the rescaled root)."""
    nb, n_steps = _CHECK_STEP
    state = 2.0 + normals[:6 * nb].reshape(6, nb) + 1j * normals[
        6 * nb:12 * nb].reshape(6, nb)
    state[0, 5], state[3, 6] = 0.0, 1e-170j
    w = 0.1 * normals[12 * nb:(12 + 4 * n_steps) * nb].reshape(nb, n_steps, 4)
    w[3, 9, 0] = 1e4
    alive = np.ones(nb, dtype=np.bool_)
    first_bad = np.full(nb, -1, dtype=np.int64)
    step(state, w, None, 1.0, alive, first_bad, n_steps, 0.5, 2.0, 0.01,
         0.99, 1e4, 3)
    return state.tobytes() + alive.tobytes() + first_bad.tobytes()


def _check_reference(path: Path, normals) -> bytes:
    """The numpy kernel's `_check_chunk` bytes, kept in `path` beside the
    library: the first load of a build computes them, later loads read
    them, because a first numpy step pages in about 0.3 MB of numpy that
    a run on the C kernel never touches."""
    try:
        return path.read_bytes()
    except OSError:
        pass
    reference = _check_chunk(_chunk_step_numpy, normals)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".check-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(reference)
        os.replace(tmp, path)
    except OSError:
        pass        # compared all the same, only not kept
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return reference


@functools.cache
def _c_function():
    """The loaded C kernel library, or None (with one warning) when
    unavailable.

    Its seeding must first give numpy's PCG64 states for the spawn keys
    _CHECK_KEYS and their successors, its sampler must reproduce
    Generator.standard_normal bit for bit on _CHECK_DRAWS draws from the
    last of them, consuming the same words, and its step must leave the
    numpy kernel's bytes on `_check_chunk`.
    """
    try:
        path = _compiled_library()
        lib = ctypes.CDLL(str(path))
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
             + [f64] * 5 + [i64] * 2, ctypes.c_int)):
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
            and ours[-1].tobytes() == _pcg64_words(bitgens[-1]).tobytes()
            and _check_chunk(functools.partial(_chunk_step_c, lib=lib), want)
            == _check_reference(path.with_suffix(".check"), want)):
        warnings.warn("opo3: the C kernel does not reproduce numpy's "
                      "SeedSequence, PCG64, Generator.standard_normal and "
                      "step kernel; using the slower numpy kernel",
                      RuntimeWarning, stacklevel=2)
        return None
    return lib


def get_stepper():
    """The C kernel when it builds and loads, else the numpy kernel."""
    return _chunk_step_c if _c_function() is not None else _chunk_step_numpy
