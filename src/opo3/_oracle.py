"""numpy's versions of the passes of `_kernels`, their oracle and
fallback, and numpy's answers to its load-time check.  Each pass takes
the operations of the C source, `_kernels.c`, in its order on float64
arrays, multiplying
real and imaginary parts apart, since numpy's complex multiply fuses a
multiply-add into each part where the CPU has FMA, so the bytes are the
C passes'.  `_kernels` imports this module only without the library, on
a build's first load and to seed generators without the library.
"""

from __future__ import annotations

import numpy as np

from ._kernels import (
    _CHECK_DRAWS, _CHECK_KEYS, _CHECK_SEED, _CHECK_STEP, OP_ADD, OP_KEY,
    OP_MEAN, OP_N, OP_OFFSET, OP_SHIFT, OP_STORE, PAGE_COLUMNS, SPREAD_GROUP,
    Kernels, Pages, _check_bytes, _finite, _key_block)

# the pages the numpy target programs join and run at a time
PAGE_RUN = 16


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


def _key_sums_numpy(values, centers, prefixes, collect, base, n_threads=1,
                    out=None):
    """opo3_key_sums in numpy, each operation the C source's, in its order,
    on float64 arrays, so the bits are equal; numpy's complex multiply
    fuses a multiply-add where the CPU has one, so products are taken on
    the real and imaginary parts apart.  It takes the arguments of
    `_key_sums_c`, runs on the calling thread whatever n_threads says and
    refuses non-finite sums as the C version does."""
    c, nb, n = values.shape
    n_keys = c + len(prefixes)
    # the products, sample-major: (K, n, nb) real and imaginary parts
    re, im = np.empty((2, n_keys, n, nb))
    tmp = np.empty((n, nb))
    # non-finite values or overflowing products leave a non-finite sum
    with np.errstate(over="ignore", invalid="ignore"):
        for part, src, center in ((re, values.real, centers.real),
                                  (im, values.imag, centers.imag)):
            np.subtract(src.transpose(0, 2, 1), center[:, None, None],
                        out=part[:c])
        for k, (p, q) in enumerate(prefixes.tolist(), c):
            np.multiply(re[p], re[q], out=re[k])
            np.multiply(im[p], im[q], out=tmp)
            re[k] -= tmp
            np.multiply(re[p], im[q], out=im[k])
            np.multiply(im[p], re[q], out=tmp)
            im[k] += tmp
        block = _key_block(out, n_keys, nb)
        chains = (np.empty((n_keys, n), dtype=np.complex128) if collect
                  else None)
        for at, prods in ((0, re), (1, im)):
            # explicit adds in sample order: a reduction along the sample
            # axis would sum pairwise once that axis is innermost (nb = 1)
            acc = prods[:, 0].copy()
            for j in range(1, n):
                acc += prods[:, j]
            block.view(np.float64)[:, at::2] = acc
            if collect:
                # one chain over batches, carried on from base, written
                # over the products
                if base is not None:
                    prods[:, :, 0] += base.view(np.float64)[:, at::2]
                np.add.accumulate(prods, axis=2, out=prods)
                chains.view(np.float64)[:, at::2] = prods[:, :, -1]
    _finite(block, "sample values or key sums")
    if collect:
        _finite(chains, "per-sample sums")
    return block, chains


def _mean_numpy(re, im, n, inv):
    """The parts of a mean of n samples on whole rows, each part times
    inv = 1/n: MEAN, and the shifts, of `_targets_numpy`."""
    return re * inv, im * inv


def _targets_numpy(ops, consts, sums, totals, n, n_out, n_threads=1):
    """opo3_targets in numpy on whole rows, each operation the C source's,
    in its order, on float64 arrays, so the bits are equal; products are
    taken on the real and imaginary parts apart, as in `_key_sums_numpy`.
    It takes the arguments of `_targets_c` and runs on the calling thread
    whatever n_threads says.  Pages are joined PAGE_RUN at a time, so a
    run's rows stay in cache and no (K, B) copy is made."""
    if isinstance(sums, Pages):
        out = np.empty((n_out, sums.n_cols), dtype=np.complex128)
        for p in range(0, len(sums.pages), PAGE_RUN):
            lo, hi = p * PAGE_COLUMNS, min((p + PAGE_RUN) * PAGE_COLUMNS,
                                           sums.n_cols)
            out[:, lo:hi] = _targets_numpy(
                ops, consts, Pages(sums.pages[p:p + PAGE_RUN], hi - lo)
                .joined(), totals, n[lo:hi], n_out)
        return out
    inv = 1.0 / n
    c_re, c_im = consts.real.tolist(), consts.imag.tolist()
    out = np.empty((n_out, sums.shape[1]), dtype=np.complex128)

    def key(k):
        if totals is None:
            return sums[k].real, sums[k].imag
        return totals[k].real - sums[k].real, totals[k].imag - sums[k].imag

    negs, stack = {}, []
    # leave-one-out sums and their products may overflow, as in C
    with np.errstate(over="ignore", invalid="ignore"):
        for op, arg in ops.tolist():
            if op == OP_KEY:
                stack.append(key(arg))
            elif op == OP_N:
                stack.append((n, np.zeros_like(n)))
            elif op == OP_ADD:
                re, im = stack.pop()
                stack[-1] = (stack[-1][0] + re, stack[-1][1] + im)
            elif op == OP_STORE:
                out[arg].real, out[arg].imag = stack.pop()
            elif op == OP_MEAN:
                stack[-1] = _mean_numpy(*stack[-1], n, inv)
            elif op == OP_OFFSET:
                re, im = stack[-1]
                stack[-1] = (re + c_re[arg], im + c_im[arg])
            else:
                if op == OP_SHIFT:
                    if arg not in negs:
                        m_re, m_im = _mean_numpy(*key(arg), n, inv)
                        negs[arg] = (-m_re, -m_im)
                    q_re, q_im = negs[arg]
                else:
                    q_re, q_im = c_re[arg], c_im[arg]
                re, im = stack[-1]
                stack[-1] = (re * q_re - im * q_im, re * q_im + im * q_re)
    return out


def _spreads_numpy(rows, n_threads=1):
    """opo3_spreads in numpy: the same sums in the same order, per lane of
    SPREAD_GROUP doubles over the groups (a reduction along an axis that
    is not the innermost adds in order), then each part's lanes, the last
    group padded as the C source pads it, so the bits are equal.  It
    takes the arguments of `_spreads_c` and runs on the calling thread
    whatever n_threads says."""
    n_rows, nb = rows.shape
    pad = -2 * nb % SPREAD_GROUP
    x = rows.view(np.float64)
    if pad:
        x = np.concatenate([x, np.zeros((n_rows, pad))], axis=1)

    def part_sums(x):
        lanes = np.add.reduce(x.reshape(n_rows, -1, SPREAD_GROUP), axis=1)
        return np.add.accumulate(lanes.reshape(n_rows, -1, 2), axis=1)[:, -1]

    with np.errstate(over="ignore", invalid="ignore"):
        means = part_sums(x) / nb
        if pad:
            x[:, 2 * nb:] = np.tile(means, pad // 2)
        dev = x.reshape(n_rows, -1, 2) - means[:, None, :]
        np.multiply(dev, dev, out=dev)
        return part_sums(dev.reshape(n_rows, -1))


def _totals_numpy(sums: Pages, n_threads=1) -> np.ndarray:
    """The (K,) totals of the pages: numpy's row sums of the joined
    array, the answer that opo3_totals reproduces.  It takes the
    arguments of `_totals_c` and runs on the calling thread whatever
    n_threads says."""
    return sums.joined().sum(axis=1)


def _pcg64_words(bit_generator: np.random.PCG64) -> np.ndarray:
    """A numpy PCG64's state as the kernel's four words."""
    st, mask = bit_generator.state["state"], 2**64 - 1
    return np.array([st["state"] >> 64, st["state"] & mask, st["inc"] >> 64,
                     st["inc"] & mask], dtype=np.uint64)


def _passes() -> Kernels:
    """numpy's passes, as this module names them when called."""
    return Kernels(_chunk_step_numpy, _key_sums_numpy, _targets_numpy,
                   _spreads_numpy, _totals_numpy)


def _numpy_answers() -> bytes:
    """numpy's answers to the load-time check, laid out as `_c_function`
    lays out the C library's: the seeded PCG64 words, the draws from the
    last of them and its words after the draws, then `_check_bytes` of
    the numpy passes on the draws and the words of
    SeedSequence(_CHECK_SEED, spawn_key=(j,))."""
    bitgens = [np.random.PCG64(np.random.SeedSequence(
        _CHECK_SEED, spawn_key=(k + j,))) for k in _CHECK_KEYS for j in (0, 1)]
    seeded = b"".join(_pcg64_words(b).tobytes() for b in bitgens)
    draws = np.random.Generator(bitgens[-1]).standard_normal(_CHECK_DRAWS)
    gens = np.array([_pcg64_words(np.random.PCG64(np.random.SeedSequence(
        _CHECK_SEED, spawn_key=(j,)))) for j in range(_CHECK_STEP[0])])
    return (seeded + draws.tobytes() + _pcg64_words(bitgens[-1]).tobytes()
            + _check_bytes(_passes(), draws, gens))
