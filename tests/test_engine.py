"""Stochastic integration engine: noise statistics, exact stepping algebra,
determinism, divergence handling, stationarity, and weak convergence."""

import cmath
import ctypes
import dataclasses
import inspect
import itertools
import math
import os
import re
import shutil
import struct
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest

from opo3 import (
    ModelParams,
    MomentAccumulator,
    PhaseSpaceState,
    SimConfig,
    ValidityError,
    _kernels,
    _oracle,
    amplitude_schema,
    analytic_moment_report,
    drift_and_diffusion,
    engine,
    fixed_point,
    integrate_batch,
    run_ensemble,
    simulate_trajectory,
)
from conftest import use_kernels
from opo3 import moments
from opo3.moments import merge as moments_merge, opo_schema

needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler (cc) on PATH")
# the one fallback warning, with the reasons the tests provoke
FALLBACK = ("opo3: C step kernel unavailable ({}); using the slower numpy "
            "kernel")
NOT_REPRODUCED = FALLBACK.format(
    "it does not reproduce numpy's SeedSequence, PCG64, "
    "Generator.standard_normal, step kernel, key sums, target programs, "
    "spreads and totals")
NO_COMPILER = FALLBACK.format("no C compiler (cc) on PATH")
WRONG_SPLIT = ("opo3: C moment passes split over threads unavailable (they "
               "do not reproduce their bytes on one thread); running them "
               "on one thread")
# the kernels a test runs the engine on in turn
KERNELS = ("c", "numpy") if shutil.which("cc") else ("numpy",)
# the static archive numpy wheels ship for C extensions
NPYRANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"


def c_table(source, name):
    """The 256 entries of the table `name` in C source, as written."""
    body = re.search(rf" {name}\[256\] = {{(.*?)}};", source, re.S)
    entries = [t.strip() for t in body.group(1).split(",")]
    assert len(entries) == 256, name
    return entries


def se_of_mean(arr):
    return float(np.std(arr) / math.sqrt(arr.size))


def kernel_increments(rng, dt, size):
    """The (dw1, dw2, dw1p, dw2p) one kernel step applies to `size`
    trajectories, with the four unscaled normals each drew.

    From a0 = a0p = 1/eps with every signal amplitude at 0, at a point where
    eps*a0 is exactly 1, one integrate_batch step leaves the a1, a2, a1p and
    a2p rows equal to the increments themselves.
    """
    params = ModelParams(0.5, 0.5, 0.5)
    assert params.eps * (1.0 / params.eps) == 1.0
    start = np.zeros((6, size), dtype=np.complex128)
    start[[0, 3]] = 1.0 / params.eps
    normals = rng.standard_normal((1, 4, size))
    final, alive, _ = integrate_batch(params, dt, normals, start)
    assert alive.all()
    return final[[1, 2, 4, 5]], normals[0]


class TestNoise:
    def test_increment_moments(self):
        rng = np.random.default_rng(20260814)
        dt = 0.02
        n = 1_000_000
        (dw1, dw2, dw1p, dw2p), _ = kernel_increments(rng, dt, n)
        # the only nonzero second moments are <dw1 dw2> = <dw1p dw2p> = dt
        for prod, target in (
            (dw1 * dw2, dt),
            (dw1p * dw2p, dt),
            (dw1 * dw1, 0.0),
            (dw2 * dw2, 0.0),
            (dw1p * dw1p, 0.0),
            (dw1 * dw1p, 0.0),
            (dw1 * dw2p, 0.0),
            (dw2 * dw1p, 0.0),
        ):
            mean = prod.mean()
            assert abs(mean.real - target) <= 4.0 * se_of_mean(prod.real)
            assert abs(mean.imag) <= 4.0 * se_of_mean(prod.imag)
        for comp in (dw1, dw2, dw1p, dw2p):
            assert abs(comp.mean().real) <= 4.0 * se_of_mean(comp.real)
            assert abs(comp.mean().imag) <= 4.0 * se_of_mean(comp.imag)
        # exact conjugate pairing by construction
        np.testing.assert_array_equal(dw2, np.conj(dw1))
        np.testing.assert_array_equal(dw2p, np.conj(dw1p))

    def test_variance_scale(self):
        # |dw1|^2 averages to dt as well (real and imag parts dt/2 each)
        rng = np.random.default_rng(7)
        (dw1, _, _, _), _ = kernel_increments(rng, 0.1, 200_000)
        mag2 = (dw1 * np.conj(dw1)).real
        assert abs(mag2.mean() - 0.1) <= 4.0 * se_of_mean(mag2)

    def test_scalar_draw(self):
        # one trajectory's increments are its four normals scaled by
        # sqrt(dt/2): dw1 = w0 + i*w1, dw2 = w0 - i*w1, and w2, w3 likewise
        rng = np.random.default_rng(1)
        dw, normals = kernel_increments(rng, 0.5, 1)
        w = normals[:, 0] * math.sqrt(0.5 / 2.0)
        assert list(dw[:, 0]) == [complex(w[0], w[1]), complex(w[0], -w[1]),
                                  complex(w[2], w[3]), complex(w[2], -w[3])]


def one_step(params, state, normals, scheme="euler", dt=0.01):
    """One kernel step of a one-trajectory block; normals are the four
    unscaled standard normals of the step."""
    final, alive, _ = integrate_batch(
        params, dt, np.asarray(normals, dtype=np.float64).reshape(1, 4, 1),
        np.asarray(state, dtype=np.complex128).reshape(6, 1), scheme=scheme)
    assert alive[0]
    return PhaseSpaceState.from_array(final[:, 0])


class TestStep:
    def test_exact_linear_decay(self):
        # decoupled signal with the pump at zero: a1' = a1*(1 - dt) exactly,
        # and the multiplicative noise amplitude sqrt(eps*a0) is exactly 0
        params = ModelParams(mu=0.0, gamma_r=1.0, g=0.05)
        rng = np.random.default_rng(3)
        out = one_step(params, [0, 1.0, 0, 0, 0, 0], rng.standard_normal(4))
        assert out.a1 == 0.99
        assert out.a0 == 0.0 and out.a2 == 0.0 and out.a0p == 0.0

    def test_pump_relaxation_euler(self):
        params = ModelParams(mu=0.5, gamma_r=2.0, g=0.05)
        m = params.mu / params.eps
        out = one_step(params, np.zeros(6), np.zeros(4))
        # plain Euler: a0' = a0 + dt*gamma_r*(m - a0)
        assert out.a0 == pytest.approx(0.02 * m, rel=1e-14)

    def test_unknown_scheme(self):
        params = ModelParams(mu=0.5, gamma_r=1.0, g=0.05)
        with pytest.raises(ValueError, match="unknown scheme"):
            one_step(params, np.zeros(6), np.zeros(4), scheme="heun")
        # the Euler step is the only scheme, named but not settable
        assert engine.ResolvedConfig.scheme == "euler"
        assert "scheme" not in {f.name for f in dataclasses.fields(
            engine.ResolvedConfig)}

    def test_matches_kernel_one_step(self):
        # the kernel's step is x + dt*drift + amp*dw with the drift and noise
        # amplitudes of the independently stated Ito equations
        params = ModelParams(mu=0.6, gamma_r=1.5, g=0.1)
        rng = np.random.default_rng(11)
        vec = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        normals = rng.standard_normal(4)
        w = normals * math.sqrt(0.01 / 2.0)
        dw1, dw1p = complex(w[0], w[1]), complex(w[2], w[3])
        drift, (r0, r0p) = drift_and_diffusion(
            PhaseSpaceState.from_array(vec), params)
        noise = PhaseSpaceState(a0=0, a1=r0 * dw1, a2=r0 * dw1.conjugate(),
                                a0p=0, a1p=r0p * dw1p,
                                a2p=r0p * dw1p.conjugate())
        expect = vec + 0.01 * drift.as_array() + noise.as_array()
        out = one_step(params, vec, normals)
        np.testing.assert_allclose(out.as_array(), expect, rtol=1e-13, atol=0)


class TestResolve:
    def test_auto_rules(self):
        params = ModelParams(mu=0.5, gamma_r=4.0, g=0.05)
        rcfg = SimConfig().resolve(params)
        assert rcfg.dt == pytest.approx(0.01 / 4.0)
        assert rcfg.burn_in == pytest.approx(20.0 / 0.5, rel=1e-9)
        assert rcfg.sample_interval == pytest.approx(4.0, rel=1e-9)
        slow = ModelParams(mu=0.5, gamma_r=0.25, g=0.05)
        rcfg = SimConfig().resolve(slow)
        assert rcfg.dt == pytest.approx(0.01)
        assert rcfg.burn_in == pytest.approx(80.0, rel=1e-9)

    def test_floors_and_ceiling(self):
        params = ModelParams(mu=0.5, gamma_r=10.0, g=0.05)
        with pytest.raises(ValidityError, match="dt"):
            SimConfig(dt=0.01).resolve(params)  # dt*gamma_r = 0.1 > 0.05
        with pytest.raises(ValidityError, match="burn_in"):
            SimConfig(burn_in=1.0).resolve(ModelParams(0.5, 1.0, 0.05))
        with pytest.raises(ValidityError, match="sample_interval"):
            SimConfig(sample_interval=0.5).resolve(ModelParams(0.5, 1.0, 0.05))

    def test_above_threshold(self):
        with pytest.raises(ValidityError, match="above threshold"):
            SimConfig().resolve(ModelParams(1.0, 1.0, 0.05))
        with pytest.raises(ValidityError, match="above threshold"):
            SimConfig().resolve(ModelParams(1.3, 1.0, 0.05))

    def test_bad_counts(self):
        params = ModelParams(0.5, 1.0, 0.05)
        with pytest.raises(ValueError):
            SimConfig(n_samples_per_traj=0).resolve(params)
        with pytest.raises(ValueError):
            SimConfig(n_trajectories=0).resolve(params)
        with pytest.raises(ValueError):
            SimConfig(divergence_threshold=0.0).resolve(params)

    @pytest.mark.parametrize("field", ["dt", "burn_in", "sample_interval"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0])
    def test_non_finite_or_non_positive_times(self, field, value):
        # rejected by name before any step count is derived from them
        params = ModelParams(0.5, 1.0, 0.05)
        with pytest.raises(ValueError,
                           match=f"^{field} must be positive and finite$"):
            SimConfig(**{field: value}).resolve(params)
        # finite, but too many steps of dt for the int64 step counter
        if field != "dt":
            with pytest.raises(ValueError, match=f"^{field}=1e\\+307 needs "
                               "too many steps of dt=0.001 for the int64"):
                SimConfig(dt=0.001, **{field: 1e307}).resolve(params)

    @pytest.mark.parametrize("seed", [-1, np.int64(-1), True, False,
                                      np.True_, 1.0, "7", None])
    def test_bad_master_seed(self, seed):
        # named before anything is seeded; SeedSequence would reject -1
        # only inside the first block, with a message naming no field
        with pytest.raises(ValueError, match="^master_seed must be an "
                           "integer >= 0, got "):
            SimConfig(master_seed=seed).resolve(ModelParams(0.5, 1.0, 0.05))

    @pytest.mark.parametrize("field", ["n_samples_per_traj",
                                       "n_trajectories"])
    @pytest.mark.parametrize("count", [0, -1, np.int64(0), True, False,
                                       np.True_, 10.5, 4.0, "4", None])
    def test_bad_count(self, field, count):
        # named before anything runs: True ran one trajectory and 4.0 or
        # "4" failed later with a TypeError naming no field
        with pytest.raises(ValueError, match=f"^{field} must be an "
                           "integer >= 1, got "):
            SimConfig(**{field: count}).resolve(ModelParams(0.5, 1.0, 0.05))

    @pytest.mark.parametrize("field", ["n_samples_per_traj",
                                       "n_trajectories"])
    def test_integer_count(self, field):
        # numpy integers pass, stored as int
        rcfg = SimConfig(**{field: np.int64(3)}).resolve(
            ModelParams(0.5, 1.0, 0.05))
        assert getattr(rcfg, field) == 3
        assert type(getattr(rcfg, field)) is int

    @pytest.mark.parametrize("seed", [0, 2**200, np.int64(5), np.uint64(7)])
    def test_integer_master_seed(self, seed):
        # numpy integers pass, as SeedSequence takes them, stored as int
        rcfg = SimConfig(master_seed=seed).resolve(ModelParams(0.5, 1.0, 0.05))
        assert rcfg.master_seed == int(seed)
        assert type(rcfg.master_seed) is int

    def test_sample_times(self):
        params = ModelParams(0.5, 1.0, 0.05)
        rcfg = SimConfig(dt=0.01, burn_in=20.0, sample_interval=2.0,
                         n_samples_per_traj=4).resolve(params)
        np.testing.assert_allclose(rcfg.sample_times(), [22.0, 24.0, 26.0, 28.0])
        assert rcfg.total_steps == 2000 + 4 * 200


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        params = ModelParams(0.5, 1.0, 0.05)
        cfg = SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=8, n_trajectories=32,
                        master_seed=123)
        a = run_ensemble(params, cfg).report("none")
        b = run_ensemble(params, cfg).report("none")
        for name in ("t1", "q4", "var_x0", "amp_triple", "mean_x0"):
            assert a[name].value == b[name].value
            assert a[name].std_error == b[name].std_error

    def test_worker_count_invariance(self):
        # three blocks, the last one partial; the kernel splits each block
        # over the threads, and the results must not depend on how many
        params = ModelParams(0.5, 1.0, 0.05)
        cfg = SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=4,
                        n_trajectories=2 * engine.BLOCK_SIZE + 64,
                        master_seed=321)
        serial = run_ensemble(params, cfg, workers=1).report("none")
        for workers in (2, 3):
            threaded = run_ensemble(params, cfg, workers=workers).report(
                "none")
            for name in ("t1", "t2", "q4", "var_x0", "cov_x_xp",
                         "amp_triple", "mean_x0", "s"):
                a, b = serial[name], threaded[name]
                assert a.value == b.value, (workers, name)
                assert a.std_error == b.std_error, (workers, name)
                assert a.std_error_imag == b.std_error_imag, (workers, name)

    def test_block_size_invariance(self, monkeypatch):
        # the block size decides how batches reach the accumulator; the
        # moments and the running-average sums must not depend on it
        params = ModelParams(0.5, 1.0, 0.05)
        cfg = SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=4, n_trajectories=40,
                        master_seed=323)
        want = run_ensemble(params, cfg, collect_time_series=True)
        monkeypatch.setattr(engine, "BLOCK_SIZE", 7)
        got = run_ensemble(params, cfg, collect_time_series=True)
        assert (got.block_size, want.block_size) == (7, 256)
        assert (got.moments.per_sample_sums.tobytes()
                == want.moments.per_sample_sums.tobytes())
        a, b = got.report(), want.report()
        for name in a.entries:
            assert a[name] == b[name], name

    @pytest.mark.parametrize("workers", [0, -3, 2.0, True, "2", np.True_,
                                         np.int64(0)])
    def test_bad_worker_count_rejected(self, workers):
        params = ModelParams(0.5, 1.0, 0.05)
        cfg = SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=1, n_trajectories=1)
        with pytest.raises(ValueError,
                           match="^workers must be an integer >= 1"):
            run_ensemble(params, cfg, workers=workers)

    @pytest.mark.parametrize("workers", [np.int64(2), np.int32(1),
                                         np.uint8(3)])
    def test_numpy_integer_worker_count_accepted(self, workers):
        # counts are integers however they are typed, as in SimConfig
        params = ModelParams(0.5, 1.0, 0.05)
        cfg = SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=1, n_trajectories=3)
        res = run_ensemble(params, cfg, workers=workers)
        on_c = res.backend == "opo3._kernels._chunk_step_c"
        assert res.workers == (int(workers) if on_c else 1)
        assert type(res.workers) is int

    def test_reports_workers_and_block_size(self, monkeypatch):
        params = ModelParams(0.5, 1.0, 0.05)
        cfg = SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=1, n_trajectories=3)
        monkeypatch.setenv("OPO3_WORKERS", "2")
        res = run_ensemble(params, cfg)
        assert res.block_size == engine.BLOCK_SIZE
        on_c = res.backend == "opo3._kernels._chunk_step_c"
        assert res.workers == (2 if on_c else 1)
        # more threads than trajectories: the kernel runs one per trajectory
        assert run_ensemble(params, cfg, workers=4).workers == (
            3 if on_c else 1)

    def test_trajectory_matches_ensemble_member(self):
        # trajectory seeding depends only on (master_seed, index), so the
        # run accumulates each member's samples as simulate_trajectory
        # gives them
        params = ModelParams(0.5, 1.0, 0.05)
        kw = dict(dt=0.05, burn_in=20.0, sample_interval=2.0,
                  n_samples_per_traj=4, master_seed=55)
        ens = run_ensemble(params, SimConfig(n_trajectories=8, **kw))
        acc = MomentAccumulator(ens.moments.schema)
        for index in range(8):
            channels, first_bad = simulate_trajectory(
                params, SimConfig(n_trajectories=1, **kw),
                trajectory_index=index)
            assert first_bad == -1
            acc.add_batches(channels[:, None, :])
        want, got = ens.report(), acc.finalize()
        assert (got.batch_sums.joined().tobytes()
                == want.batch_sums.joined().tobytes())
        for name in want.entries:
            assert got[name] == want[name], name

    @needs_cc
    def test_numpy_fallback_agrees(self, no_compiler):
        # with no compiler the engine falls back, once and with one warning,
        # to the numpy kernel, which reproduces the compiled run
        params = ModelParams(0.5, 1.0, 0.05)
        cfg = SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=8, n_trajectories=32,
                        master_seed=77)
        fast = run_ensemble(params, cfg)
        assert fast.backend == "opo3._kernels._chunk_step_c"
        no_compiler()
        with pytest.warns(RuntimeWarning, match=re.escape(NO_COMPILER)):
            assert _kernels.kernels().step is _oracle._chunk_step_numpy
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slow = run_ensemble(params, cfg, workers=2)
        assert slow.backend == "opo3._oracle._chunk_step_numpy"
        assert slow.workers == 1
        assert slow.n_diverged == fast.n_diverged == 0
        # the kernels are bitwise equal, so the moments and errors are too
        a, b = fast.report("none"), slow.report("none")
        for name in ("t1", "q4", "var_x0", "cov_x_xp", "amp_n0", "mean_x0"):
            want, got = (np.array([r[name].value, r[name].std_error,
                                   r[name].std_error_imag]).tobytes()
                         for r in (a, b))
            assert got == want, name


def use_kernel(monkeypatch, kernel):
    """Make the engine run on `kernel`, "c" or "numpy", once the test's
    earlier patches are undone; returns the kernel."""
    monkeypatch.undo()
    if kernel == "c":
        assert _kernels.kernels().step is _kernels._chunk_step_c
        return _kernels._chunk_step_c
    use_kernels(monkeypatch, step=_oracle._chunk_step_numpy)
    return _oracle._chunk_step_numpy


def stream(master_seed, index):
    """Trajectory `index`'s documented noise stream."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        master_seed, spawn_key=(index,))))


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """Call to hide `cc` and forget the loaded kernel; undone afterwards."""

    def hide():
        monkeypatch.setenv("PATH", str(tmp_path))
        _kernels._c_function.cache_clear()

    yield hide
    _kernels._c_function.cache_clear()


@pytest.fixture
def fake_cc(monkeypatch, tmp_path):
    """PATH holding only a `cc` that fails if it is ever run."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "cc").write_text("#!/bin/sh\nexit 1\n")
    (bin_dir / "cc").chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))


@pytest.fixture(scope="session")
def fresh_build(tmp_path_factory):
    """One build of the kernel into an empty cache of its own, the tests'
    to share: the cache's directory (an XDG_CACHE_HOME), the library's
    path, and each command the build ran, with its stdin."""
    cache = tmp_path_factory.mktemp("xdg-cache")
    commands = []
    run = subprocess.run

    def recording_run(cmd, *args, **kwargs):
        commands.append((cmd, kwargs.get("input")))
        return run(cmd, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(cache))
        mp.setattr(subprocess, "run", recording_run)
        lib = _kernels._compiled_library()
    return cache, lib, commands


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """A kernel cache that holds only a copy of this session's library, so
    that the first load there computes and keeps its own check answers
    without compiling again; yields the copy's path.  The loaded kernel is
    forgotten before and after."""
    built = _kernels._compiled_library()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    (tmp_path / "opo3").mkdir(mode=0o700)
    copy = Path(shutil.copy(built, tmp_path / "opo3" / built.name))
    _kernels._c_function.cache_clear()
    yield copy
    _kernels._c_function.cache_clear()


def one_ulp_off(state, *args, step=_oracle._chunk_step_numpy):
    """The numpy kernel, then a1's real part at #0 one ulp larger."""
    step(state, *args)
    state.real[1, 0] = np.nextafter(state.real[1, 0], np.inf)


def sums_one_ulp_off(*args, sums=_oracle._key_sums_numpy, **kwargs):
    """The numpy key sums, then the last per-sample sum's imaginary part,
    where there are per-sample sums, one ulp larger."""
    block, chains = sums(*args, **kwargs)
    if chains is not None:
        chains.imag[-1, -1] = np.nextafter(chains.imag[-1, -1], np.inf)
    return block, chains


def targets_one_ulp_off(*args, evaluate=_oracle._targets_numpy):
    """The numpy target programs, then the first value's real part one ulp
    larger."""
    out = evaluate(*args)
    out.real[0, 0] = np.nextafter(out.real[0, 0], np.inf)
    return out


def totals_one_ulp_off(*args, totals=_oracle._totals_numpy):
    """The numpy totals, then the first total's real part one ulp
    larger."""
    out = totals(*args)
    out.real[0] = np.nextafter(out.real[0], np.inf)
    return out


def drive(stepper, start, w, params, dt, thr, step0, chunk, **kw):
    """Advance `start` through the noise `w` in chunks of `chunk` steps;
    `kw` goes to the stepper."""
    state = start.copy()
    alive = np.ones(start.shape[1], dtype=np.bool_)
    first_bad = np.full(start.shape[1], -1, dtype=np.int64)
    m_pump = params.mu / params.eps
    for lo in range(0, w.shape[1], chunk):
        wc = np.ascontiguousarray(w[:, lo:lo + chunk])
        stepper(state, wc, None, 1.0, alive, first_bad, wc.shape[1],
                params.eps, m_pump, dt, 1.0 - params.gamma_r * dt, thr * thr,
                step0 + lo, **kw)
    return state, alive, first_bad


def drive_drawn(stepper, start, params, dt, thr, step0, chunk, n_steps,
                seed=9, **kw):
    """`drive` on noise the kernel draws from the trajectories' generators,
    seeded by `seed_generators(seed, 0, B)`; returns their words too."""
    state = start.copy()
    alive = np.ones(start.shape[1], dtype=np.bool_)
    first_bad = np.full(start.shape[1], -1, dtype=np.int64)
    gens = _kernels.seed_generators(seed, 0, start.shape[1])
    for lo in range(0, n_steps, chunk):
        stepper(state, None, gens, math.sqrt(dt / 2.0), alive, first_bad,
                min(chunk, n_steps - lo), params.eps, params.mu / params.eps,
                dt, 1.0 - params.gamma_r * dt, thr * thr, step0 + lo, **kw)
    return state, alive, first_bad, gens


class TestKernels:
    params = ModelParams(0.6, 1.5, 0.1)

    def kicked_block(self):
        # trajectories near the fixed point; #4 and #6 start non-finite, #2
        # is kicked over the threshold in the first chunk and #3 in the second
        rng = np.random.default_rng(8)
        nb, n_steps, dt = 7, 300, 0.01
        start = np.repeat(fixed_point(self.params).as_array()[:, None], nb,
                          axis=1)
        start = start + 0.1 * (rng.standard_normal((6, nb))
                               + 1j * rng.standard_normal((6, nb)))
        start[0, 4] = np.inf
        start[1, 6] = np.nan
        w = rng.standard_normal((nb, n_steps, 4)) * math.sqrt(dt / 2.0)
        w[2, 137, 0] = 1e4
        w[3, 200, 3] = -1e4
        return start, w, dt

    @needs_cc
    def test_c_kernel_matches_numpy_kernel(self):
        start, w, dt = self.kicked_block()
        c_out = drive(_kernels._chunk_step_c, start, w, self.params, dt,
                      50.0, 5000, 150)
        np_out = drive(_oracle._chunk_step_numpy, start, w, self.params, dt,
                       50.0, 5000, 150)
        # a dead trajectory stays at its last good state
        frozen, _, _ = drive(_oracle._chunk_step_numpy, start[:, 2:3],
                             w[2:3, :137], self.params, dt, 50.0, 0, 150)
        for state, alive, first_bad in (c_out, np_out):
            np.testing.assert_array_equal(alive, [1, 1, 0, 0, 0, 1, 0])
            np.testing.assert_array_equal(
                first_bad, [-1, -1, 5137, 5200, 5000, -1, 5000])
            assert state[:, 2].tobytes() == frozen[:, 0].tobytes()
            assert state[:, 4::2].tobytes() == start[:, 4::2].tobytes()
        for got, want in zip(c_out, np_out):
            assert got.tobytes() == want.tobytes()

    @needs_cc
    def test_kernels_match_on_generator_words(self):
        # both kernels drawing from the same seed_generators words, chunk
        # after chunk, leave the same bytes and the same words; #4 and #6
        # die at the first step of the first chunk, so each has drawn only
        # that step's four normals
        start, w, dt = self.kicked_block()
        c_out, np_out = (drive_drawn(step, start, self.params, dt, 50.0,
                                     5000, 150, w.shape[1])
                         for step in (_kernels._chunk_step_c,
                                      _oracle._chunk_step_numpy))
        np.testing.assert_array_equal(c_out[2],
                                      [-1, -1, -1, -1, 5000, -1, 5000])
        for got, want in zip(c_out, np_out):
            assert got.tobytes() == want.tobytes()
        for j in (4, 6):
            rng = stream(9, j)
            rng.standard_normal(4)
            want = _oracle._pcg64_words(rng.bit_generator)
            assert np_out[3][j].tobytes() == want.tobytes()

    @needs_cc
    def test_kernels_match_on_a_drawn_death_mid_chunk(self):
        # #1 starts with pumps and signals that grow past the threshold a
        # few steps into the first chunk of drawn noise; both kernels leave
        # the same bytes, and its generator has drawn four normals for each
        # step through the one it died at, and no more
        start, w, dt = self.kicked_block()
        start[:, 1] = (49, 35, 35, 49, 35, 35)
        step0, chunk = 5000, 150
        c_out, np_out = (drive_drawn(step, start, self.params, dt, 50.0,
                                     step0, chunk, w.shape[1])
                         for step in (_kernels._chunk_step_c,
                                      _oracle._chunk_step_numpy))
        first_bad = c_out[2]
        np.testing.assert_array_equal(first_bad,
                                      [-1, 5006, -1, -1, 5000, -1, 5000])
        assert step0 < first_bad[1] < step0 + chunk - 1
        for got, want in zip(c_out, np_out):
            assert got.tobytes() == want.tobytes()
        rng = stream(9, 1)
        rng.standard_normal(4 * (first_bad[1] - step0 + 1))
        want = _oracle._pcg64_words(rng.bit_generator)
        assert c_out[3][1].tobytes() == want.tobytes()

    @needs_cc
    @pytest.mark.parametrize("n_threads", [2, 3, 8])
    def test_c_kernel_thread_count_invariance(self, n_threads):
        # each trajectory is stepped by exactly one thread, on its own
        # noise, so any split of the block gives the same bits; 8 is more
        # threads than trajectories
        start, w, dt = self.kicked_block()
        p = self.params

        def buffered(threads):
            return drive(_kernels._chunk_step_c, start, w, p, dt, 50.0,
                         5000, 150, n_threads=threads)

        def drawn(threads):
            return drive_drawn(_kernels._chunk_step_c, start, p, dt, 50.0,
                               5000, 150, w.shape[1], n_threads=threads)

        for run in (buffered, drawn):
            want, got = run(1), run(n_threads)
            assert want[0].tobytes() == got[0].tobytes(), run.__name__
            np.testing.assert_array_equal(want[1], got[1])
            np.testing.assert_array_equal(want[2], got[2])
            if run is drawn:    # the generators end in the same states too
                assert want[3].tobytes() == got[3].tobytes()
        # the buffered case keeps its kicked deaths, the drawn one only the
        # non-finite starts
        np.testing.assert_array_equal(buffered(n_threads)[2],
                                      [-1, -1, 5137, 5200, 5000, -1, 5000])
        np.testing.assert_array_equal(drawn(n_threads)[2],
                                      [-1, -1, -1, -1, 5000, -1, 5000])

    @needs_cc
    def test_c_kernel_rejects_bad_layout(self):
        # the C side trusts its pointers; wrong layouts must not reach it
        state = np.zeros((6, 3), dtype=np.complex128)
        w = np.zeros((3, 5, 4))
        alive = np.ones(3, dtype=np.bool_)
        first_bad = np.full(3, -1, dtype=np.int64)
        scalars = (0.1, 5.0, 0.01, 0.99, 1e12, 0)
        step = _kernels._chunk_step_c
        for bad in (state.astype(np.complex64), np.zeros((3, 6), complex).T):
            with pytest.raises(ValueError, match="state must be"):
                step(bad, w, None, 1.0, alive, first_bad, 5, *scalars)
        for bad in (np.zeros((5, 4, 3)), w.astype(np.float32),
                    np.zeros((3, 4, 5)).transpose(0, 2, 1), w[:, :4].copy()):
            with pytest.raises(ValueError, match="w must be"):
                step(state, bad, None, 1.0, alive, first_bad, 5, *scalars)
        with pytest.raises(ValueError, match="alive must be"):
            step(state, w, None, 1.0, alive.astype(np.int64), first_bad, 5,
                 *scalars)
        for bad in (first_bad.astype(np.int32), first_bad[:2]):
            with pytest.raises(ValueError, match="first_bad must be"):
                step(state, w, None, 1.0, alive, bad, 5, *scalars)
        read_only = state.copy()
        read_only.flags.writeable = False
        with pytest.raises(ValueError, match="state must be a writeable"):
            step(read_only, w, None, 1.0, alive, first_bad, 5, *scalars)
        gens = _kernels.seed_generators(0, 0, 3)
        read_only = gens.copy()
        read_only.flags.writeable = False
        for bad in (gens[:2], gens.astype(np.int64), gens.T.copy(),
                    np.zeros((4, 3), np.uint64).T, read_only):
            with pytest.raises(ValueError, match="gens must be"):
                step(state, None, bad, 0.1, alive, first_bad, 5, *scalars)
        for noise in ((w[:, :0].copy(), None), (None, gens)):
            with pytest.raises(ValueError, match="n_steps must be positive"):
                step(state, *noise, 0.1, alive, first_bad, 0, *scalars)

    @pytest.mark.parametrize("kernel", ["c", "numpy"])
    @pytest.mark.parametrize("index", [-1, 2**64])
    def test_trajectory_index_out_of_range(self, monkeypatch, kernel, index):
        # SeedSequence refuses -1 and the C seeding cannot express 2**64:
        # both kernels refuse both, before integrating
        if kernel == "numpy":
            use_kernels(monkeypatch, step=_oracle._chunk_step_numpy)
        cfg = SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=1, n_trajectories=1)
        with pytest.raises(ValueError, match=r"trajectory indices must lie "
                           r"in \[0, 2\*\*64\)"):
            simulate_trajectory(ModelParams(0.5, 1.0, 0.05), cfg,
                                trajectory_index=index)
        channels, _ = simulate_trajectory(ModelParams(0.5, 1.0, 0.05), cfg,
                                          trajectory_index=2**64 - 1)
        assert channels.shape == (12, 1)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_numpy_kernel_quiet_on_non_finite_state(self, monkeypatch, bad):
        use_kernels(monkeypatch, step=_oracle._chunk_step_numpy)
        params = ModelParams(0.5, 1.0, 0.05)
        cfg = SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=4, n_trajectories=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            channels, first_bad = simulate_trajectory(
                params, cfg, initial_state=PhaseSpaceState(bad, 0, 0, 0, 0, 0))
        assert channels.shape == (12, 0) and first_bad == 0

    def test_kernel_draws_match_standard_normal_feed(self, monkeypatch):
        # each kernel draws each trajectory's normals from its own stream;
        # that must equal integrate_batch fed rng.standard_normal on the same
        # streams, through a burn-in of two chunks and a trajectory (#4)
        # that crosses the low threshold at step 1200, mid-chunk
        params = ModelParams(0.5, 1.0, 0.3)
        cfg = SimConfig(dt=0.01, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=1, n_trajectories=8,
                        master_seed=31, divergence_threshold=1.248)
        rcfg = cfg.resolve(params)
        assert rcfg.burn_steps > engine.CHUNK_STEPS
        normals = np.stack([stream(31, j).standard_normal(
            (rcfg.total_steps, 4)) for j in range(8)], axis=2)
        start = np.repeat(fixed_point(params).as_array()[:, None], 8, axis=1)
        for kernel in KERNELS:
            use_kernel(monkeypatch, kernel)
            cube, alive, first_bad = engine._run_block(params, rcfg, range(8))
            state, want_alive, want_bad = integrate_batch(
                params, rcfg.dt, normals, start, rcfg.divergence_threshold)
            np.testing.assert_array_equal(first_bad,
                                          [-1] * 4 + [1200] + [-1] * 3)
            np.testing.assert_array_equal(alive, want_alive)
            np.testing.assert_array_equal(first_bad, want_bad)
            # channels 6..11 are a0, a0p, a1, a1p, a2, a2p
            np.testing.assert_array_equal(cube[6:, alive, 0],
                                          state[[0, 3, 1, 4, 2, 5]][:, alive])

    @pytest.mark.skipif(not NPYRANDOM.is_file(),
                        reason="numpy ships no libnpyrandom.a here")
    def test_ziggurat_tables_are_numpys(self):
        # each embedded table, packed as numpy stores it, is 2048 bytes of
        # numpy's static archive, so the sampler's tables are numpy's own
        archive = NPYRANDOM.read_bytes()
        for name, fmt, parse in (
                ("ki_double", "<256Q", lambda t: int(t.removesuffix("ULL"), 16)),
                ("wi_double", "<256d", float.fromhex),
                ("fi_double", "<256d", float.fromhex)):
            entries = c_table(_kernels._C_FILE.read_text(), name)
            blob = struct.pack(fmt, *map(parse, entries))
            assert blob in archive, name

    @needs_cc
    def test_c_source_compiles_without_warnings(self, tmp_path):
        # compile only the C source, with the runtime flags plus warnings
        # as errors, by path, so that a diagnostic cites _kernels.c:LINE
        proc = subprocess.run(
            ["cc", *_kernels._C_FLAGS, "-Wall", "-Wextra", "-Werror",
             "-c", str(_kernels._C_FILE), "-o", str(tmp_path / "kernel.o")],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_build_flags_keep_the_rounding(self):
        # no flag may let the compiler fuse, reassociate or assume away a
        # float operation, nor tune for the build machine, and no vector
        # clone may enable FMA
        flags = _kernels._C_FLAGS
        assert "-ffp-contract=off" in flags
        for flag in ("-ffast-math", "-Ofast", "-funsafe-math-optimizations",
                     "-ffinite-math-only", "-fassociative-math",
                     "-freciprocal-math", "-march=native"):
            assert flag not in flags, flag
        targets = re.findall(r"target(?:_clones)?\(([^)]*)\)",
                             _kernels._C_FILE.read_text())
        assert targets
        for target in targets:
            for name in re.findall(r'"([^"]*)"', target):
                assert not any(isa in name for isa in
                               ("fma", "avx2", "avx512", "arch=")), name

    @needs_cc
    def test_library_exports_kernel_without_linking_numpy(self, fresh_build):
        # the build compiles the C source as it stands and links nothing
        # of numpy's
        _, path, commands = fresh_build
        lib = ctypes.CDLL(str(path))
        build = [(cmd, source) for cmd, source in commands if "-shared" in cmd]
        assert len(build) == 1
        assert build[0][1] == _kernels._C_FILE.read_bytes()
        assert not any("npyrandom" in str(arg) for arg in build[0][0])
        for name in ("opo3_chunk_step", "opo3_normals", "opo3_seed"):
            assert hasattr(lib, name), name
        assert not hasattr(lib, "random_standard_normal_fill")

    @needs_cc
    def test_c_sampler_matches_standard_normal(self):
        # 1e7 draws over four seeds, bitwise, enough for the idx-0 tail
        # (|x| > r) and the wedge tests to run many times; equal generator
        # states afterwards mean the rejections consumed the same words
        assert _kernels.kernels().step is _kernels._chunk_step_c
        normals = _kernels._c_function().opo3_normals
        n, tails = 2_500_000, 0
        for seed in (0, 1, 20260814, 2**63 + 5):
            numpys = np.random.PCG64(seed)
            ours = _oracle._pcg64_words(numpys)
            got = np.empty(n)
            normals(ours.ctypes.data, n, got.ctypes.data)
            want = np.random.Generator(numpys).standard_normal(n)
            assert got.tobytes() == want.tobytes(), seed
            assert ours.tobytes() == _oracle._pcg64_words(numpys).tobytes()
            tails += int(np.count_nonzero(np.abs(got) > 3.6541528853610088))
        assert tails > 0

    def test_seeding_without_c_kernel(self, monkeypatch):
        # without the C kernel numpy seeds the same words
        monkeypatch.setattr(_kernels, "_c_function", lambda: None)
        for seed, first in ((0, 0), (31, 2**32 - 2), (2**200 + 17, 2**64 - 3)):
            rows = _kernels.seed_generators(seed, first, 3)
            for j, row in enumerate(rows):
                bitgen = stream(seed, first + j).bit_generator
                want = _oracle._pcg64_words(bitgen)
                assert row.tobytes() == want.tobytes(), (seed, first + j)

    @needs_cc
    def test_seeding_matches_seed_sequence(self):
        # opo3_seed runs SeedSequence and pcg64_set_seed in C; spawn keys
        # from 2**32 on have two words, seeds from 2**128 on more than four
        assert _kernels.kernels().step is _kernels._chunk_step_c
        for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 12345678901234567890,
                     2**200 + 17):
            for index in (0, 1, 255, 2**31, 2**32 - 1, 2**32, 2**40,
                          2**63, 2**64 - 1):
                want = np.random.PCG64(np.random.SeedSequence(
                    entropy=seed, spawn_key=(index,))).state["state"]
                hi_s, lo_s, hi_i, lo_i = (
                    int(v) for v in _kernels.seed_generators(seed, index, 1)[0])
                assert (hi_s << 64 | lo_s) == want["state"], (seed, index)
                assert (hi_i << 64 | lo_i) == want["inc"], (seed, index)
            # one call over consecutive keys gives each key's row, also
            # across 2**32 (one to two words) and 2**63 (int64's sign bit)
            for first in (2**32 - 1, 2**63 - 1):
                rows = _kernels.seed_generators(seed, first, 3)
                for j, row in enumerate(rows):
                    one = _kernels.seed_generators(seed, first + j, 1)[0]
                    assert row.tobytes() == one.tobytes()

    def test_run_block_writes_back_generator_states(self, monkeypatch):
        # after _run_block each (B, 4) row is the trajectory's PCG64 moved
        # past exactly the normals it drew: every step for the live ones,
        # up to and including its last step for #4, which dies mid-chunk
        params = ModelParams(0.5, 1.0, 0.3)
        cfg = SimConfig(dt=0.01, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=1, n_trajectories=8,
                        master_seed=31, divergence_threshold=1.248)
        rcfg = cfg.resolve(params)
        for kernel in KERNELS:
            step, seen = use_kernel(monkeypatch, kernel), []

            def recording_step(state, w, gens, *args):
                assert w is None
                seen.append(gens)
                return step(state, w, gens, *args)

            use_kernels(monkeypatch, step=recording_step)
            _, alive, first_bad = engine._run_block(params, rcfg, range(8))
            # 2,200 steps in chunks of 1024, 1024 and 152, on one array
            assert len(seen) == 3 and all(gens is seen[0] for gens in seen)
            assert first_bad[4] == 1200 and 1200 % engine.CHUNK_STEPS != 0
            for j, row in enumerate(seen[0]):
                steps = (rcfg.total_steps if alive[j]
                         else int(first_bad[j]) + 1)
                rng = stream(31, j)
                rng.standard_normal(4 * steps)
                want = _oracle._pcg64_words(rng.bit_generator)
                assert row.tobytes() == want.tobytes(), (kernel, j)

    @pytest.mark.parametrize("kernel", [pytest.param("c", marks=needs_cc),
                                        "numpy"])
    def test_root_within_two_ulp_of_cmath(self, kernel):
        # one buffer step from zero signal amplitudes with noise (1, 0, 1,
        # 0) and eps = 1 leaves the a1 and a1p candidates equal to the
        # kernels' roots of a0 and a0p; the grid runs from 1e-300 to 1e300,
        # through the rescaled range at both ends, and the edges hold
        # signed zeros, the negative real axis and subnormals
        tiny = 5e-324
        edges = [(0.0, 1.0), (-0.0, -2.5), (3.0, 0.0), (-3.0, 0.0),
                 (3.0, -0.0), (-3.0, -0.0), (0.0, 0.0), (-0.0, -0.0),
                 (tiny, 1.0), (-tiny, 1.0), (1.0, tiny), (1.0, -tiny),
                 (-1.0, tiny), (tiny, -tiny), (2.0**-1022, 2.0**-1030),
                 (1e150, tiny), (-1e150, 1e-300), (1e-300, 1e150),
                 (-1e-300, -1e150), (1e300, -1e-300), (-1.7e308, 1.7e308)]
        mags = 10.0 ** np.arange(-300, 301, 5, dtype=np.float64)
        angles = np.linspace(-np.pi, np.pi, 13)[:-1] + 0.1
        grid = (mags[:, None] * np.exp(1j * angles)).ravel()
        z = np.concatenate([[complex(x, y) for x, y in edges], grid])
        assert (z.real > 0).sum() > 100 and (z.real < 0).sum() > 100
        zp = -z[::-1]
        nb = z.size
        state = np.zeros((6, nb), dtype=np.complex128)
        state[0], state[3] = z, zp
        w = np.zeros((nb, 1, 4))
        w[:, 0, [0, 2]] = 1.0
        alive = np.ones(nb, dtype=np.bool_)
        first_bad = np.full(nb, -1, dtype=np.int64)
        stepper = (_kernels._chunk_step_c if kernel == "c"
                   else _oracle._chunk_step_numpy)
        stepper(state, w, None, 1.0, alive, first_bad, 1, 1.0, 0.0, 0.5, 1.0,
                math.inf, 0)
        assert alive.all()
        for got, operands in ((state[1], z), (state[4], zp)):
            for root, v in zip(got.tolist(), operands.tolist()):
                want = cmath.sqrt(v)
                for part, exact in ((root.real, want.real),
                                    (root.imag, want.imag)):
                    assert abs(part - exact) <= 2 * math.ulp(exact), v
        # the step's additions may flip the sign of a zero part, so the
        # signs are checked on the formula itself: zero gives (+0, y)
        with np.errstate(all="ignore"):
            re, im = _oracle._root(z.real.copy(), z.imag.copy())
        for r, i, v in zip(re.tolist(), im.tolist(), z.tolist()):
            want = cmath.sqrt(v)
            assert (math.copysign(1, r), math.copysign(1, i)) == (
                math.copysign(1, want.real), math.copysign(1, want.imag)), v

    @needs_cc
    @pytest.mark.parametrize("drawn", [False, True])
    def test_lanes_match_one_trajectory_blocks(self, drawn):
        # blocks of 1 to 9 trajectories on 1 to 3 threads, with the one
        # started at (40, 10, 0, 40, 0, 10) in each position in turn: it
        # outgrows the threshold mid-chunk, whichever lane it is in.  Each
        # trajectory's state, alive, first_bad and generator words equal
        # those of a block that holds it alone
        p = ModelParams(0.5, 1.0, 0.3)
        dt, n_steps, thr = 0.01, 40, 50.0
        calm = np.tile(fixed_point(p).as_array()[:, None], (1, 9))
        wild = np.array([40, 10, 0, 40, 0, 10], dtype=np.complex128)
        buffer = np.random.default_rng(4).standard_normal(
            (9, n_steps, 4)) * math.sqrt(dt / 2.0)
        scalars = (p.eps, p.mu / p.eps, dt, 1.0 - p.gamma_r * dt, thr * thr,
                   0)

        def run(start, first, threads):
            nb = start.shape[1]
            state = start.copy()
            alive = np.ones(nb, dtype=np.bool_)
            first_bad = np.full(nb, -1, dtype=np.int64)
            gens = _kernels.seed_generators(6, first, nb)
            noise = ((None, gens, math.sqrt(dt / 2.0)) if drawn
                     else (buffer[first:first + nb], None, 1.0))
            _kernels._chunk_step_c(state, *noise, alive, first_bad, n_steps,
                                   *scalars, n_threads=threads)
            return state, alive, first_bad, gens

        alone = {}      # (index, calm) -> the trajectory in a block alone
        for j in range(9):
            alone[j, True] = run(calm[:, j:j + 1], j, 1)
            alone[j, False] = run(wild[:, None], j, 1)
            assert alone[j, True][2][0] == -1
            assert 0 < alone[j, False][2][0] < n_steps - 1
        for nb in range(1, 10):
            for dead in range(nb):
                start = calm[:, :nb].copy()
                start[:, dead] = wild
                for threads in (1, 2, 3):
                    got = run(start, 0, threads)
                    for j in range(nb):
                        want = alone[j, j != dead]
                        assert got[0][:, j].tobytes() == want[0].tobytes()
                        assert got[1][j] == want[1][0]
                        assert got[2][j] == want[2][0]
                        assert got[3][j].tobytes() == want[3].tobytes()
                    assert not got[1][dead] and got[1].sum() == nb - 1

    @needs_cc
    def test_cache_key_runs_no_compiler(self, monkeypatch, tmp_path):
        # the key names the compiler by its resolved file's size and mtime:
        # a warm hit starts no process, and a changed compiler a new build
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        (bin_dir / "gcc-x").write_text("#!/bin/sh\n")
        (bin_dir / "gcc-x").chmod(0o755)
        (bin_dir / "cc").symlink_to("gcc-x")
        monkeypatch.setenv("PATH", str(bin_dir))
        commands = []

        def fake_build(cmd, *args, **kwargs):
            # the output file exists already, made empty by mkstemp
            commands.append(cmd)
            return subprocess.CompletedProcess(cmd, 0, "", "")

        monkeypatch.setattr(subprocess, "run", fake_build)
        first = _kernels._compiled_library()
        assert len(commands) == 1 and commands[0][0] == str(bin_dir / "cc")
        assert _kernels._compiled_library() == first
        assert len(commands) == 1
        st = (bin_dir / "gcc-x").stat()
        os.utime(bin_dir / "gcc-x", ns=(st.st_atime_ns,
                                        st.st_mtime_ns + 10**9))
        second = _kernels._compiled_library()
        assert second != first and len(commands) == 2
        (bin_dir / "gcc-x").write_text("#!/bin/sh\n# another\n")
        os.utime(bin_dir / "gcc-x", ns=(st.st_atime_ns, st.st_mtime_ns))
        assert _kernels._compiled_library() not in (first, second)

    def test_cache_key_covers_the_c_file(self, monkeypatch, fake_cc,
                                         tmp_path):
        # one byte more in _kernels.c is a new library, built from the
        # file's bytes as they are then
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        sources = []

        def fake_build(cmd, *args, **kwargs):
            # the output file exists already, made empty by mkstemp
            sources.append(kwargs["input"])
            return subprocess.CompletedProcess(cmd, 0, b"", b"")

        monkeypatch.setattr(subprocess, "run", fake_build)
        copy = tmp_path / "_kernels.c"
        source = _kernels._C_FILE.read_bytes()
        copy.write_bytes(source)
        monkeypatch.setattr(_kernels, "_C_FILE", copy)
        first = _kernels._compiled_library()
        assert _kernels._compiled_library() == first
        copy.write_bytes(source + b"\n")
        assert _kernels._compiled_library() != first
        assert sources == [source, source + b"\n"]

    def test_missing_c_file_falls_back_once(self, monkeypatch, fake_cc,
                                            tmp_path):
        # without _kernels.c nothing is built: one warning that names the
        # file, then numpy's passes
        missing = tmp_path / "_kernels.c"
        monkeypatch.setattr(_kernels, "_C_FILE", missing)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        _kernels._c_function.cache_clear()
        try:
            with pytest.warns(RuntimeWarning) as record:
                assert _kernels.kernels() == _oracle._passes()
                assert _kernels.kernels() == _oracle._passes()
            assert len(record) == 1
            assert str(record[0].message) == FALLBACK.format(
                f"[Errno 2] No such file or directory: '{missing}'")
        finally:
            _kernels._c_function.cache_clear()

    @needs_cc
    def test_hung_build_is_a_build_error(self, monkeypatch, tmp_path):
        # a compiler that outlives its timeout fails the build like any
        # other failure, and leaves nothing in the cache
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))

        def hung_build(cmd, *args, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

        monkeypatch.setattr(subprocess, "run", hung_build)
        with pytest.raises(_kernels._BuildError, match="timed out"):
            _kernels._compiled_library()
        assert list((tmp_path / "opo3").iterdir()) == []

    @needs_cc
    def test_sampler_self_check_falls_back_once(self, monkeypatch,
                                                tmp_path):
        # a kernel whose sampler differs from numpy's in one table entry,
        # wi_double[7] one ulp larger, must never run: one warning, then
        # the numpy kernel; a table entry fails the check at any
        # optimisation, so it builds at -O0, in a quarter of the time
        source = _kernels._C_FILE.read_text()
        entry = c_table(source, "wi_double")[7]
        wider = np.nextafter(float.fromhex(entry), np.inf).hex()
        assert source.count(f" {entry},") == 1
        mutant = tmp_path / "_kernels.c"
        mutant.write_text(source.replace(f" {entry},", f" {wider},"))
        monkeypatch.setattr(_kernels, "_C_FILE", mutant)
        monkeypatch.setattr(_kernels, "_C_FLAGS", tuple(
            "-O0" if flag == "-O3" else flag for flag in _kernels._C_FLAGS))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        _kernels._c_function.cache_clear()
        try:
            with pytest.warns(RuntimeWarning) as record:
                assert _kernels.kernels().step is _oracle._chunk_step_numpy
                assert _kernels.kernels().step is _oracle._chunk_step_numpy
            assert len(record) == 1
            assert str(record[0].message) == NOT_REPRODUCED
        finally:
            _kernels._c_function.cache_clear()

    @needs_cc
    def test_baseline_clone_matches_numpy_kernel(self, monkeypatch, tmp_path):
        # a CPU with AVX only ever runs the "avx" clone of step_range; built
        # without clones, the baseline code must pass the load-time check
        # and step a drawn block of 256 trajectories, #1 dying mid-chunk,
        # to the numpy kernel's bytes
        source = _kernels._C_FILE.read_text()
        clones = '__attribute__((target_clones("avx", "default")))'
        assert source.count(clones) == 1
        baseline = tmp_path / "_kernels.c"
        baseline.write_text(source.replace(clones, ""))
        monkeypatch.setattr(_kernels, "_C_FILE", baseline)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        _kernels._c_function.cache_clear()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _kernels.kernels().step is _kernels._chunk_step_c
            assert b"step_range.avx" not in (
                _kernels._compiled_library().read_bytes())
            rng = np.random.default_rng(4)
            start = fixed_point(self.params).as_array()[:, None] + 0.1 * (
                rng.standard_normal((6, 256))
                + 1j * rng.standard_normal((6, 256)))
            start[:, 1] = (49, 35, 35, 49, 35, 35)
            c_out, np_out = (drive_drawn(step, start, self.params, 0.01,
                                         50.0, 5000, 150, 300)
                             for step in (_kernels._chunk_step_c,
                                          _oracle._chunk_step_numpy))
            assert not c_out[1][1] and c_out[1].sum() == 255
            for got, want in zip(c_out, np_out):
                assert got.tobytes() == want.tobytes()
        finally:
            _kernels._c_function.cache_clear()

    @needs_cc
    def test_step_self_check_falls_back_once(self, monkeypatch, fresh_cache):
        # a C step one ulp away from the numpy kernel on the load-time
        # chunk must never run: one warning, then the numpy kernel
        monkeypatch.setattr(_oracle, "_chunk_step_numpy", one_ulp_off)
        with pytest.warns(RuntimeWarning) as record:
            assert _kernels.kernels().step is one_ulp_off
            assert _kernels.kernels().step is one_ulp_off
        assert len(record) == 1
        assert str(record[0].message) == NOT_REPRODUCED

    @needs_cc
    def test_key_sums_self_check_falls_back_once(self, monkeypatch,
                                                 fresh_cache):
        # C key sums one ulp away from numpy's on the load-time input must
        # never run: one warning, then the step and the key sums both run
        # on numpy
        monkeypatch.setattr(_oracle, "_key_sums_numpy", sums_one_ulp_off)
        with pytest.warns(RuntimeWarning) as record:
            assert _kernels.kernels().step is _oracle._chunk_step_numpy
            assert _kernels.kernels().key_sums is sums_one_ulp_off
            assert _kernels.kernels().step is _oracle._chunk_step_numpy
        assert len(record) == 1
        assert str(record[0].message) == NOT_REPRODUCED
        # an accumulator's per-sample sums come out one ulp off too
        schema = amplitude_schema()
        values = np.arange(12.0).reshape(6, 1, 2) * (1 + 0.5j)
        acc = MomentAccumulator(schema, collect_per_sample=True)
        acc.add_batches(values)
        want = sums_one_ulp_off(values, schema._centers, schema._prefixes,
                                True, None)[1]
        assert acc.per_sample_sums.tobytes() == want.tobytes()

    @needs_cc
    def test_targets_self_check_falls_back_once(self, monkeypatch,
                                                fresh_cache):
        # C target programs one ulp away from numpy's on the load-time
        # input must never run: one warning, then the step, the key sums
        # and the target programs all run on numpy
        numpy_targets = _oracle._targets_numpy
        monkeypatch.setattr(_oracle, "_targets_numpy", targets_one_ulp_off)
        with pytest.warns(RuntimeWarning) as record:
            assert _kernels.kernels().targets is targets_one_ulp_off
            assert _kernels.kernels().step is _oracle._chunk_step_numpy
            assert _kernels.kernels().key_sums is _oracle._key_sums_numpy
        assert len(record) == 1
        assert str(record[0].message) == NOT_REPRODUCED
        # a report's first value comes out one ulp off too
        values = np.arange(24.0).reshape(6, 2, 2) * (1 + 0.5j)
        acc = MomentAccumulator(amplitude_schema()).add_batches(values)
        got = acc.finalize()
        use_kernels(monkeypatch, targets=numpy_targets)
        want = acc.finalize()
        assert list(got.entries)[0] == "amp_n1n2"
        assert got["amp_n1n2"].value.real == np.nextafter(
            want["amp_n1n2"].value.real, np.inf)
        assert got["amp_n0"] == want["amp_n0"]

    @needs_cc
    def test_totals_self_check_falls_back_once(self, monkeypatch,
                                               fresh_cache):
        # C totals one ulp away from numpy's row sums of the joined pages on
        # the load-time input must never run: one warning, then every pass
        # runs on numpy
        monkeypatch.setattr(_oracle, "_totals_numpy", totals_one_ulp_off)
        with pytest.warns(RuntimeWarning) as record:
            assert _kernels.kernels() == (
                _oracle._chunk_step_numpy, _oracle._key_sums_numpy,
                _oracle._targets_numpy, _oracle._spreads_numpy,
                totals_one_ulp_off)
        assert len(record) == 1
        assert str(record[0].message) == NOT_REPRODUCED
        # a report's totals come out one ulp off too
        values = np.arange(24.0).reshape(6, 2, 2) * (1 + 0.5j)
        rep = MomentAccumulator(amplitude_schema()).add_batches(
            values).finalize()
        want = rep.batch_sums.joined().sum(axis=1)
        assert rep.batch_totals[0].real == np.nextafter(want[0].real, np.inf)
        assert rep.batch_totals[1:].tobytes() == want[1:].tobytes()

    @needs_cc
    @pytest.mark.parametrize("name", ["_key_sums_c", "_targets_c",
                                      "_spreads_c", "_totals_c"])
    def test_wrong_split_falls_back_once(self, monkeypatch, fresh_cache,
                                         name):
        # a C moment pass whose bytes change only when it is split over
        # threads must never run split: loading starts no thread and
        # passes, and the first moment pass on more than one thread checks
        # the splits over two, so one warning, and every moment pass falls
        # back to C on one thread
        c_pass = getattr(_kernels, name)
        signature = inspect.signature(c_pass)
        splits = []

        def off_when_split(*args, **kwargs):
            out = c_pass(*args, **kwargs)
            threads = signature.bind(*args, **kwargs).arguments.get(
                "n_threads", 1)
            splits.append(threads)
            first = out[0] if isinstance(out, tuple) else out
            if threads > 1:
                first.real.flat[0] = np.nextafter(first.real.flat[0], np.inf)
            return out

        monkeypatch.setattr(_kernels, name, off_when_split)
        monkeypatch.setenv("OPO3_WORKERS", "2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chosen = _kernels.kernels()
        assert chosen.step is _kernels._chunk_step_c
        assert off_when_split in chosen
        assert set(splits) == {1}
        values = np.arange(48.0).reshape(6, 4, 2) * (1 + 0.5j)
        with pytest.warns(RuntimeWarning) as record:
            assert _kernels.moment_threads() == 1
            splits.clear()
            rep = MomentAccumulator(amplitude_schema()).add_batches(
                values).finalize()
            assert _kernels.moment_threads() == 1
        assert set(splits) == {1}
        assert len(record) == 1
        assert str(record[0].message) == WRONG_SPLIT
        monkeypatch.setattr(_kernels, name, c_pass)
        assert rep == MomentAccumulator(amplitude_schema()).add_batches(
            values).finalize()

    @needs_cc
    def test_drawn_step_self_check_falls_back_once(self, monkeypatch,
                                                   fresh_cache):
        # the load-time chunk also draws from seeded generator words, its
        # last lane group partial and #3 dying mid-chunk, so a C step one
        # ulp away from the numpy kernel on drawn noise only never runs
        nb, n_steps = _kernels._CHECK_STEP
        assert nb % 4
        normals = stream(_kernels._CHECK_SEED,
                         _kernels._CHECK_KEYS[-1] + 1).standard_normal(
            _kernels._CHECK_DRAWS)
        gens = np.array([_oracle._pcg64_words(
            stream(_kernels._CHECK_SEED, j).bit_generator) for j in range(nb)])
        out = _kernels._check_chunk(_oracle._chunk_step_numpy, normals,
                                    gens)
        first_bad = np.frombuffer(out, np.int64, nb, 16 * 6 * nb + nb)
        np.testing.assert_array_equal(first_bad, [-1, -1, -1, 9, -1, -1, -1])
        assert 3 < first_bad[3] < 3 + n_steps - 1
        numpy_step = _oracle._chunk_step_numpy

        def off_when_drawn(state, w, gens, *args):
            step = one_ulp_off if gens is not None else numpy_step
            step(state, w, gens, *args)

        monkeypatch.setattr(_oracle, "_chunk_step_numpy", off_when_drawn)
        with pytest.warns(RuntimeWarning) as record:
            assert _kernels.kernels().step is off_when_drawn
            assert _kernels.kernels().step is off_when_drawn
        assert len(record) == 1
        assert str(record[0].message) == NOT_REPRODUCED

    @needs_cc
    def test_step_reference_kept_beside_library(self, monkeypatch,
                                                fresh_cache):
        # the first load computes numpy's check answers and keeps them; a
        # later load compares with those and needs neither numpy.random nor
        # a numpy step, and a kept file one bit off in any of its parts
        # makes the C kernel fall back with one warning
        assert _kernels.kernels().step is _kernels._chunk_step_c
        kept = fresh_cache.with_suffix(".check")
        answers = kept.read_bytes()

        def refuse(*args, **kwargs):
            raise AssertionError("numpy computed a check answer on a hit")

        for owner, name in ((np.random, "SeedSequence"),
                            (np.random, "Generator"),
                            (_oracle, "_chunk_step_numpy"),
                            (_oracle, "_key_sums_numpy"),
                            (_oracle, "_targets_numpy"),
                            (_oracle, "_spreads_numpy"),
                            (_oracle, "_totals_numpy")):
            monkeypatch.setattr(owner, name, refuse)
        _kernels._c_function.cache_clear()
        assert _kernels.kernels() == (
            _kernels._chunk_step_c, _kernels._key_sums_c,
            _kernels._targets_c, _kernels._spreads_c, _kernels._totals_c)
        # seed words, draws, the words after the draws, the buffered
        # chunk's state, alive and first_bad bytes, then the drawn chunk's
        # and its generator words after, then the key sums: both calls'
        # batch sums and the per-sample sums, then the batch sums of one
        # call on two threads, all complex, over the keys of order 1 to 4
        # of the check's channels, then the target programs' two stored
        # rows of every column, leaving each out of the totals and not,
        # then the spreads of each part of each row, then the totals of
        # each key
        nb = _kernels._CHECK_STEP[0]
        n_ch, n_batches, n = _kernels._CHECK_SUMS
        n_keys = sum(math.comb(n_ch + order - 1, order)
                     for order in range(1, 5))
        columns = _kernels._CHECK_TARGETS[1]
        spread_rows = _kernels._CHECK_SPREADS[0]
        sizes = {"seed words": 8 * 4 * 2 * len(_kernels._CHECK_KEYS),
                 "draws": 8 * _kernels._CHECK_DRAWS, "words after": 8 * 4,
                 "chunk": 16 * 6 * nb + nb + 8 * nb,
                 "drawn chunk": 16 * 6 * nb + nb + 8 * nb + 8 * 4 * nb,
                 "key sums": 16 * n_keys * (2 * n_batches + n),
                 "target programs": 16 * 2 * 2 * columns,
                 "spreads": 8 * 2 * spread_rows,
                 "totals": 16 * _kernels._CHECK_TOTALS[0]}
        assert len(answers) == sum(sizes.values())
        start = 0
        for part, size in sizes.items():
            at = start + size // 2
            kept.write_bytes(answers[:at] + bytes([answers[at] ^ 4])
                             + answers[at + 1:])
            _kernels._c_function.cache_clear()
            with pytest.warns(RuntimeWarning) as record:
                assert _kernels.kernels() == (refuse,) * 5
            assert len(record) == 1, part
            assert str(record[0].message) == NOT_REPRODUCED, part
            start += size

    @needs_cc
    def test_fallback_warnings_pass_the_test_filters(self, monkeypatch,
                                                     fresh_cache,
                                                     no_compiler):
        # the one fallback warning, for a failed self-check and for no
        # compiler alike, is let through by the one `default:` entry of the
        # suite's filterwarnings, matched as `warnings` matches, with
        # re.match and ignoring case
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as f:
            entries = tomllib.load(f)["tool"]["pytest"]["ini_options"][
                "filterwarnings"]
        defaults = [(re.compile(message, re.I), category)
                    for action, message, category
                    in (entry.split(":")[:3] for entry in entries)
                    if action == "default"]
        assert len(defaults) == 1
        messages = []
        monkeypatch.setattr(_oracle, "_chunk_step_numpy", one_ulp_off)
        for fail in (lambda: None, no_compiler):
            fail()
            with pytest.warns(RuntimeWarning) as record:
                _kernels.kernels().step
            assert len(record) == 1
            messages.append(str(record[0].message))
        assert messages == [NOT_REPRODUCED, NO_COMPILER]
        [(pattern, category)] = defaults
        assert category == "RuntimeWarning"
        for message in messages:
            assert pattern.match(message), message

    def test_relative_xdg_cache_home_is_ignored(self, monkeypatch, tmp_path):
        # the XDG spec says to ignore a relative path: the cache falls
        # through to ~/.cache/opo3, and the working directory, checked by
        # no one, holds no library
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
        assert _kernels._cache_dir() == tmp_path / "home" / ".cache" / "opo3"
        assert [p.name for p in tmp_path.iterdir()] == ["home"]

    def test_usable_home_cache_never_looks_up_the_temporary_directory(
            self, monkeypatch, tmp_path):
        # gettempdir's first call writes and removes a probe file; with a
        # usable ~/.cache the cold start never makes it
        def refuse():
            raise AssertionError("looked up the temporary directory")

        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setattr(_kernels.tempfile, "gettempdir", refuse)
        assert _kernels._cache_dir() == tmp_path / "home" / ".cache" / "opo3"
        # a home that is a file: the private candidate is looked up next
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("HOME", str(tmp_path / "file"))
        with pytest.raises(AssertionError, match="temporary directory"):
            _kernels._cache_dir()

    @needs_cc
    def test_library_cached_under_xdg_cache_home(self, monkeypatch,
                                                 fresh_build):
        cache, lib, _ = fresh_build
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        assert lib.parent == cache / "opo3" and lib.is_file()
        built = lib.stat().st_mtime_ns
        assert _kernels._compiled_library() == lib
        assert lib.stat().st_mtime_ns == built
        assert [p.name for p in lib.parent.iterdir()] == [lib.name]


class TestDivergence:
    def test_non_finite_initial_state(self):
        params = ModelParams(0.5, 1.0, 0.05)
        cfg = SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=4, n_trajectories=1)
        bad = PhaseSpaceState(float("inf"), 0, 0, 0, 0, 0)
        channels, first_bad = simulate_trajectory(params, cfg,
                                                  initial_state=bad)
        assert first_bad == 0
        assert channels.shape == (12, 0)

    @pytest.mark.parametrize("threshold", [1e300, 10**200, math.inf],
                             ids=["1e300", "int-1e200", "inf"])
    def test_huge_states_agree_across_kernels(self, monkeypatch, threshold):
        # pumps near 1e200 put eps*a0 out of the formula's range, so every
        # step takes the rescaled root; the threshold's square, of a float
        # or an int, overflows to inf instead of raising, and both kernels
        # give the same bytes
        params = ModelParams(0.5, 1.0, 0.05)
        start = np.zeros((6, 5), dtype=np.complex128)
        start[0] = start[3] = 1e200 * np.exp(1j * np.linspace(-3, 3, 5))
        normals = np.random.default_rng(2).standard_normal((2, 4, 5))
        got = integrate_batch(params, 0.01, normals, start, threshold)
        use_kernels(monkeypatch, step=_oracle._chunk_step_numpy)
        want = integrate_batch(params, 0.01, normals, start, threshold)
        assert got[0][1].tobytes() != start[1].tobytes()
        assert np.isfinite(got[0]).all() and got[1].all()
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_threshold_beyond_float_refused_by_name(self):
        # 10**400 once passed resolve and then raised a bare OverflowError
        # in the run; every entry point now refuses it by name, and inf
        # stays a threshold that never trips
        params = ModelParams(0.5, 1.0, 0.05)
        kw = dict(dt=0.05, burn_in=20.0, sample_interval=2.0,
                  n_samples_per_traj=2, n_trajectories=3)
        normals = np.random.default_rng(1).standard_normal((3, 4, 3))
        start = np.repeat(fixed_point(params).as_array()[:, None], 3, axis=1)
        match = "^divergence_threshold is too large for a float"
        with pytest.raises(ValueError, match=match):
            SimConfig(divergence_threshold=10**400, **kw).resolve(params)
        with pytest.raises(ValueError, match=match):
            run_ensemble(params, SimConfig(divergence_threshold=10**400,
                                           **kw))
        with pytest.raises(ValueError, match=match):
            integrate_batch(params, 0.01, normals, start, 10**400)
        res = run_ensemble(params, SimConfig(divergence_threshold=math.inf,
                                             **kw))
        assert res.n_diverged == 0 and res.moments.n_samples == 6
        _, alive, first_bad = integrate_batch(params, 0.01, normals, start,
                                              float("inf"))
        assert alive.all() and (first_bad == -1).all()

    def test_tiny_threshold_kills_everything(self):
        params = ModelParams(0.5, 1.0, 0.05)
        cfg = SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=4, n_trajectories=16,
                        divergence_threshold=1.0)
        res = run_ensemble(params, cfg)
        assert res.n_diverged == 16
        assert res.divergence_fraction == 1.0
        assert not res.reliable
        assert res.moments.n_samples == 0

    def test_partial_divergence_bookkeeping(self):
        # vacuum start with a threshold just above the depleted pump mean:
        # at this seed exactly one trajectory wanders over the line
        params = ModelParams(0.5, 1.0, 0.05)
        init = np.zeros(6, dtype=complex)
        cfg = SimConfig(dt=0.01, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=16, n_trajectories=64,
                        master_seed=99, divergence_threshold=7.068)
        res = run_ensemble(params, cfg, initial_state=init)
        assert 1 <= res.n_diverged < 64
        assert res.diverged_indices == [53]
        # ensemble estimates exclude the diverged trajectory entirely
        kept = 64 - res.n_diverged
        assert res.moments.n_samples == kept * 16
        assert not res.reliable  # 1/64 > 1% divergence budget

    def test_trajectory_keeps_pre_divergence_samples(self):
        # the single-trajectory view of the same run retains the samples
        # taken before the divergence step and discards the rest
        params = ModelParams(0.5, 1.0, 0.05)
        init = np.zeros(6, dtype=complex)
        cfg = SimConfig(dt=0.01, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=16, n_trajectories=1,
                        master_seed=99, divergence_threshold=7.068)
        channels, first_bad = simulate_trajectory(
            params, cfg, trajectory_index=53, initial_state=init)
        assert first_bad == 3940
        assert channels.shape == (12, 9)    # 7 of 16 samples discarded
        steps = cfg.resolve(params).sample_steps()
        assert steps[8] <= first_bad < steps[9]
        assert np.all(np.isfinite(channels))

    def test_pump_bounded_by_fixed_point(self, std_ensemble, std_samples,
                                         base_params):
        # pathwise alpha1*alpha2 = |alpha1|^2 >= 0, so the pump amplitude
        # never exceeds mu/eps; no trajectory diverges at sane thresholds
        assert std_ensemble.n_diverged == 0
        a0 = std_samples[6]
        assert np.max(np.abs(a0)) <= base_params.mu / base_params.eps + 1e-9


class TestStationaryPhysics:
    def test_single_trajectory_time_averages(self):
        params = ModelParams(0.5, 1.0, 0.05)
        cfg = SimConfig(dt=0.01, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=512, n_trajectories=1,
                        master_seed=4242)
        channels, first_bad = simulate_trajectory(params, cfg)
        assert first_bad == -1 and channels.shape == (12, 512)
        x0 = channels[0].real
        # mean pump quadrature sits at 2*mu up to the O(g^2) depletion,
        # well within the per-sample spread ...
        assert abs(x0.mean() - 1.0) <= 3.0 * x0.std()
        # ... and on the depletion-corrected value at block-averaged errors
        blocks = x0.reshape(16, 32).mean(axis=1)
        block_se = blocks.std(ddof=1) / 4.0
        target = analytic_moment_report(params)["mean_x0"].value.real
        assert abs(x0.mean() - target) <= 3.0 * block_se
        # down-converted means vanish
        for field, arr in (("x", channels[2]), ("y", channels[3])):
            bl = arr.reshape(16, 32).mean(axis=1)
            for part in (np.real, np.imag):
                se = part(bl).std(ddof=1) / 4.0
                assert abs(part(arr.mean())) <= 3.0 * se, field

    def test_cov_x_xp_matches_ou_oracle(self, std_report, base_params):
        xxp = analytic_moment_report(base_params)["cov_x_xp"].value.real
        est = std_report["cov_x_xp"]
        assert xxp == pytest.approx(2.5e-3, rel=1e-12)
        assert abs(est.value.real - xxp) <= 3.0 * est.std_error

    def test_mu_zero_is_exactly_deterministic(self):
        # at mu = 0 the noise amplitude is identically zero and the state
        # never leaves the origin: every fluctuation moment is exactly 0
        params = ModelParams(mu=0.0, gamma_r=1.0, g=0.05)
        cfg = SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=8, n_trajectories=8,
                        master_seed=31)
        rep = run_ensemble(params, cfg).report()
        for name in ("t1", "t2", "t3", "t4", "s", "q4", "var_x0", "var_y0",
                     "skew_x0", "cov_x_xp", "amp_n1n2", "amp_n0",
                     "amp_triple", "mean_x0"):
            assert rep[name].value == 0.0, name
            assert rep[name].std_error == 0.0, name

    def test_halves_are_statistically_stationary(self, std_ensemble):
        first, second = std_ensemble.halves
        ra, rb = first.finalize(), second.finalize()
        assert ra.n_samples == rb.n_samples == 256 * 32
        for name in ("var_x0", "cov_x_xp", "cov_y_yp", "q4", "amp_n0",
                     "mean_x0"):
            a, b = ra[name], rb[name]
            comb = math.hypot(a.std_error, b.std_error)
            assert abs(a.value.real - b.value.real) <= 3.0 * comb, name

    def test_conjugate_pairing_invariants(self, std_samples):
        # exact pathwise structure from real pump initial data: the pump
        # stays real, the unstarred/starred signal pairs stay conjugate,
        # so xp = conj(x), yp = -conj(y) sample by sample
        s = std_samples
        x0, y0, x, y, xp, yp = (s[i] for i in range(6))
        a0, a1, a2 = s[6], s[8], s[10]
        tol = 1e-12
        assert np.max(np.abs(a0.imag)) <= tol * np.max(np.abs(a0))
        assert np.max(np.abs(a2 - np.conj(a1))) <= tol
        assert np.max(np.abs(xp - np.conj(x))) <= tol
        assert np.max(np.abs(yp + np.conj(y))) <= tol
        assert np.max(np.abs(y0.real)) <= tol
        # consequence: the two mixed triple estimators coincide sample-wise
        t3_samples = (y * xp * (y0 - y0.mean())).real
        t4_samples = (x * yp * (y0 - y0.mean())).real
        np.testing.assert_allclose(t3_samples, t4_samples, atol=1e-16)


class TestWeakConvergence:
    def test_order_about_one(self):
        # common-random-number refinement: aggregated normals reproduce the
        # same Brownian path at each step size, isolating the weak bias
        params = ModelParams(mu=0.5, gamma_r=1.0, g=0.2)
        dt0, T, B = 0.005, 4.0, 4096
        n = int(round(T / dt0))
        rng = np.random.default_rng(31415)
        normals = rng.standard_normal((n, 4, B))
        init = np.zeros((6, B), dtype=complex)

        def observe(state):
            a0, a1, a2, a0p, a1p, a2p = state
            x0 = params.eps * (a0 + a0p)
            x = params.g * (a1 + a2p)
            xp = params.g * (a2 + a1p)
            return np.array([x0.mean().real, (x * xp).mean().real])

        final, alive, _ = integrate_batch(params, dt0, normals, init)
        assert alive.all()
        ref = observe(final)
        ks = (4, 8, 16)
        errs = []
        for k in ks:
            agg = normals.reshape(n // k, k, 4, B).sum(axis=1) / math.sqrt(k)
            final, alive, _ = integrate_batch(params, k * dt0, agg, init)
            assert alive.all()
            errs.append(np.abs(observe(final) - ref))
        errs = np.array(errs)
        log_dt = np.log([k * dt0 for k in ks])
        for j in range(2):
            slope = np.polyfit(log_dt, np.log(errs[:, j]), 1)[0]
            assert 0.6 <= slope <= 1.5, (j, errs[:, j], slope)

    def test_integrate_batch_validation(self):
        params = ModelParams(0.5, 1.0, 0.05)
        with pytest.raises(ValueError, match="normals"):
            integrate_batch(params, 0.01, np.zeros((5, 3, 2)),
                            np.zeros((6, 2), dtype=complex))
        with pytest.raises(ValueError, match="initial_states"):
            integrate_batch(params, 0.01, np.zeros((5, 4, 2)),
                            np.zeros((6, 3), dtype=complex))

    @pytest.mark.parametrize("field, value", [
        ("dt", 0.0), ("dt", -0.01), ("dt", math.nan), ("dt", math.inf),
        ("divergence_threshold", math.nan), ("divergence_threshold", 0.0),
        ("divergence_threshold", -1.0)])
    def test_integrate_batch_rejects_bad_dt_and_threshold(self, field, value):
        # each once ran: dt=0 returned the start with every trajectory
        # alive, dt<0 raised a bare math domain error, and the others
        # silently killed every trajectory
        kwargs = {"dt": 0.01, "divergence_threshold": 1e6, field: value}
        with pytest.raises(ValueError, match=field):
            integrate_batch(ModelParams(0.5, 1.0, 0.05),
                            normals=np.zeros((5, 4, 3)),
                            initial_states=np.ones((6, 3), dtype=complex),
                            **kwargs)


def grouped_bits(acc):
    """The bytes of an accumulator's stored sums and counts and of every
    entry of its report."""
    rep = acc.finalize()
    return [rep.batch_sums.joined().tobytes(), rep.batch_counts.tobytes(),
            *(np.array([e.value, e.std_error, e.std_error_imag]).tobytes()
              for e in rep.entries.values())]


class TestGroups:
    """Past GROUP_CAP trajectories the jackknife leaves out fixed groups of
    consecutive trajectories, each summed in trajectory order."""

    def test_group_size(self):
        cap = engine.GROUP_CAP
        sizes = [engine.group_size(n) for n in (1, cap, cap + 1, 2 * cap,
                                                2 * cap + 1, 2**20, 2**24,
                                                2**24 + 1)]
        assert sizes == [1, 1, 2, 2, 4, 16, 256, 512]
        for g in sizes:
            assert engine.BLOCK_SIZE % g == 0 or g % engine.BLOCK_SIZE == 0

    @pytest.mark.parametrize("key_sums", ["c", "numpy"])
    @pytest.mark.parametrize("cap, g", [(3, 16), (20, 2)])
    def test_arrival_order_across_the_cap(self, monkeypatch, key_sums, cap,
                                          g):
        # a cap of 3 puts 40 trajectories in groups of 16, a cap of 20 in
        # groups of 2; some diverge and leave their groups, the first and
        # last members of one among them, and empty another.  Runs on
        # blocks of 8, 32 and 256, on 1 and 2 workers, and accumulators
        # fed the kept batches in one call, in calls of 1 to 7 and in
        # shards merged at group boundaries hold the same bytes, with each
        # group's sums its members' batch sums added in trajectory order,
        # on the C key sums and on numpy's
        if key_sums == "c" and _kernels.kernels().key_sums is not (
                _kernels._key_sums_c):
            pytest.skip("no C key sums")
        use_kernels(monkeypatch, key_sums=getattr(
            _kernels if key_sums == "c" else _oracle, f"_key_sums_{key_sums}"))
        monkeypatch.setattr(engine, "GROUP_CAP", cap)
        params = ModelParams(0.5, 1.0, 0.5)
        cfg = SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                        n_samples_per_traj=3, n_trajectories=40,
                        divergence_threshold=1.2, master_seed=22)
        runs = []
        for block, workers in ((8, 1), (32, 2), (256, 1)):
            monkeypatch.setattr(engine, "BLOCK_SIZE", block)
            res = run_ensemble(params, cfg, workers=workers,
                               collect_time_series=True)
            assert res.record()["group_size"] == g
            runs.append(grouped_bits(res.moments)
                        + [res.moments.per_sample_sums.tobytes()])
        assert runs[1] == runs[0] and runs[2] == runs[0]
        cube, alive, _ = engine._run_block(params, cfg.resolve(params),
                                           range(40))
        index = np.flatnonzero(alive)
        assert not alive[32] and not alive[-1] and not alive[6:8].any()
        kept = cube[:, alive]
        schema = opo_schema(params)

        def fed(*calls):
            acc = MomentAccumulator(schema, group_size=g)
            for lo, hi in calls:
                acc.add_batches(kept[:, lo:hi], index[lo:hi])
            return acc

        widths = np.cumsum([0, *itertools.islice(
            itertools.cycle(range(1, 8)), 40)])
        widths = widths[widths < len(index)].tolist() + [len(index)]
        bounds = np.searchsorted(index, [0, 16, 32, 40]).tolist()
        shards = [fed((lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        for acc in (fed((0, len(index))), fed(*zip(widths, widths[1:])),
                    moments_merge(moments_merge(*shards[:2]), shards[2])):
            assert grouped_bits(acc) == runs[0][:-1]
        # each group's sums: its members' batch sums in trajectory order
        block = _oracle._key_sums_numpy(kept, schema._centers,
                                        schema._prefixes, False, None)[0]
        edges = np.searchsorted(index, np.arange(0, 40 + g, g))
        groups = [(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]
        assert len(groups) == {16: 3, 2: 18}[g]
        sums = np.frombuffer(runs[0][0], dtype=np.complex128).reshape(
            schema.n_keys, len(groups))
        for i, (lo, hi) in enumerate(groups):
            want = block[:, lo]
            for j in range(lo + 1, hi):
                want = want + block[:, j]
            assert sums[:, i].tobytes() == want.tobytes()
        assert np.frombuffer(runs[0][1], dtype=np.int64).tolist() == [
            3 * (hi - lo) for lo, hi in groups]

    def test_merge_refuses_misaligned_groups(self):
        params = ModelParams(0.5, 1.0, 0.05)
        schema = opo_schema(params)
        rng = np.random.default_rng(443)
        cube = rng.standard_normal((12, 12, 2)) + 1j * rng.standard_normal(
            (12, 12, 2))

        def grouped(lo, hi, g=4):
            return MomentAccumulator(schema, group_size=g).add_batches(
                cube[:, lo:hi], range(lo, hi))

        ungrouped = MomentAccumulator(schema).add_batches(cube[:, 4:8])
        for a, b in ((grouped(0, 6), grouped(6, 10)),
                     (grouped(8, 12), grouped(0, 6)),
                     (grouped(0, 4), grouped(4, 8, g=2)),
                     (grouped(0, 4), ungrouped)):
            with pytest.raises(moments.SchemaError,
                               match="groups do not line up"):
                moments_merge(a, b)
        one = grouped(0, 6).add_batches(cube[:, 8:12], range(8, 12))
        assert grouped_bits(moments_merge(grouped(0, 6),
                                          grouped(8, 12))) == (
            grouped_bits(one))
        for bad in (None, range(3), [9, 8, 10, 11]):
            with pytest.raises(ValueError, match="trajectory ind"):
                grouped(0, 6).add_batches(cube[:, 8:12], bad)
        with pytest.raises(ValueError, match="trajectory ind"):
            grouped(0, 6).add_batches(cube[:, 0:1], [3])
