"""Ensemble integration of the positive-P equations.

Trajectories are integrated in nondimensional time tau = gamma*t with
explicit Euler-Maruyama steps; the pump's linear part takes the factored
form of `_step_constants`.  The step map is stated in the block kernels
of `_kernels` (compiled C) and `_oracle` (numpy, its oracle and
fallback), which `_advance` drives a chunk at a time, whichever loaded;
`model.drift_and_diffusion` states the equations independently, and the
tests check one against the other through `integrate_batch` on a
one-trajectory block.  Each trajectory owns an independent, counter-derived
random stream: Generator(PCG64(SeedSequence(master_seed,
spawn_key=(trajectory_index,)))), which `_kernels.seed_generators` seeds
and the kernel draws from.  Noise is consumed in fixed step order per
trajectory, every trajectory is integrated independently of the others in
its block, and finished blocks are merged in trajectory order, so results
are bit-identical for any worker count and any block size.

Workers are C kernel threads on contiguous ranges of a block's
trajectories (see `run_ensemble`).  The moment layer's compiled passes
split their tiles the same way, over `_kernels.worker_count()` threads;
the per-sample sums of a time series stay on one thread, and no byte
depends on either count.  Everything else runs on one thread.

Sampling: after `burn_steps`, the state is recorded every `int_steps` steps,
n_samples_per_traj times, as `model.state_channels`.  Each trajectory
contributes its samples as one batch to a moment accumulator, or past
GROUP_CAP trajectories to its group's batch; divergent trajectories are
excluded entirely and counted.  A run with more than 1% divergent
trajectories is flagged unreliable.  `run_ensemble` imports the moment
layer when it runs, so `simulate_trajectory` never loads it.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, fields

import numpy as np

from . import _kernels
from .model import (ModelParams, PhaseSpaceState, ValidityError, fixed_point,
                    state_channels)

BLOCK_SIZE = 256          # trajectories per work unit; results do not depend on it
CHUNK_STEPS = 1024        # steps per kernel call
DT_CEILING = 0.05         # dt * max(1, gamma_r) must not exceed this
MAX_DIVERGED_FRACTION = 0.01
GROUP_CAP = 2**16         # the most jackknife groups a run keeps
_MAX_STEPS = 2**63 - 1    # the kernels count steps in int64


def _step_constants(params: ModelParams, dt: float, divergence_threshold):
    """(eps, m_pump, dt, e_pump, thr2), the kernels' step constants: the
    Euler pump step a0 <- m + (a0 - m)*e_pump + dt*(-eps*a1*a2) with
    m = m_pump = mu/eps and e_pump = 1 - gamma_r*dt, and the square of the
    divergence threshold, which must be positive and within float range."""
    if not (divergence_threshold > 0):
        raise ValueError("divergence_threshold must be positive")
    try:
        thr = float(divergence_threshold)
    except OverflowError:
        raise ValueError("divergence_threshold is too large for a float; "
                         "use math.inf for none") from None
    # t * t, not t ** 2: the same bits, and inf rather than OverflowError
    return (params.eps, params.mu / params.eps, dt,
            1.0 - params.gamma_r * dt, thr * thr)


@dataclass(frozen=True)
class SimConfig:
    """Ensemble run settings; None fields are resolved from the model.

    Auto rules: dt = 0.01/max(1, gamma_r); burn_in = 20/min(1-mu, gamma_r);
    sample_interval = 2/(1-mu).  Resolution fails for mu >= 1 and when
    explicit values violate the step-size ceiling (dt*max(1,gamma_r) <=
    0.05) or the burn-in / decorrelation floors (burn_in >=
    10/min(1-mu, gamma_r), sample_interval >= 1/(1-mu)).
    """

    dt: float | None = None
    burn_in: float | None = None
    sample_interval: float | None = None
    n_samples_per_traj: int = 64
    n_trajectories: int = 256
    master_seed: int = 12345
    divergence_threshold: float = 1e6

    def resolve(self, params: ModelParams) -> "ResolvedConfig":
        if params.mu >= 1.0:
            raise ValidityError("above threshold unsupported (mu >= 1)")
        integers = {name: _kernels._integer(name, getattr(self, name), least)
                    for name, least in (("n_samples_per_traj", 1),
                                        ("n_trajectories", 1),
                                        ("master_seed", 0))}
        slow = min(1.0 - params.mu, params.gamma_r)
        fast = max(1.0, params.gamma_r)
        dt = self.dt if self.dt is not None else 0.01 / fast
        burn_in = self.burn_in if self.burn_in is not None else 20.0 / slow
        interval = (self.sample_interval if self.sample_interval is not None
                    else 2.0 / (1.0 - params.mu))
        for name, value in (("dt", dt), ("burn_in", burn_in),
                            ("sample_interval", interval)):
            if not (0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite")
        _step_constants(params, dt, self.divergence_threshold)   # refusals
        if dt * fast > DT_CEILING * (1 + 1e-9):
            raise ValidityError(
                f"dt={dt:g} too coarse: need dt*max(1,gamma_r) <= {DT_CEILING}"
            )
        if burn_in * slow < 10.0 * (1 - 1e-9):
            raise ValidityError(
                f"burn_in={burn_in:g} too short: need >= {10.0 / slow:g}"
            )
        if interval * (1.0 - params.mu) < 1.0 * (1 - 1e-9):
            raise ValidityError(
                f"sample_interval={interval:g} too short: need >= "
                f"{1.0 / (1.0 - params.mu):g}"
            )
        # each at most 1/(n+1) of the counter, so the total fits as well
        limit = _MAX_STEPS // (integers["n_samples_per_traj"] + 1)
        for name, value in (("burn_in", burn_in), ("sample_interval", interval)):
            if not value / dt < limit:      # also an overflow to inf
                raise ValueError(f"{name}={value:g} needs too many steps of "
                                 f"dt={dt:g} for the int64 step counter")
        burn_steps = max(1, math.ceil(burn_in / dt - 1e-9))
        int_steps = max(1, math.ceil(interval / dt - 1e-9))
        return ResolvedConfig(
            dt=dt,
            burn_steps=burn_steps,
            int_steps=int_steps,
            **integers,
            divergence_threshold=self.divergence_threshold,
        )


@dataclass(frozen=True)
class ResolvedConfig:
    dt: float
    burn_steps: int
    int_steps: int
    n_samples_per_traj: int
    n_trajectories: int
    master_seed: int
    divergence_threshold: float

    # the only step scheme; integrate_batch still takes it by name
    scheme = "euler"

    @property
    def burn_in(self) -> float:
        return self.burn_steps * self.dt

    @property
    def sample_interval(self) -> float:
        return self.int_steps * self.dt

    @property
    def total_steps(self) -> int:
        return self.burn_steps + self.n_samples_per_traj * self.int_steps

    def sample_steps(self) -> np.ndarray:
        k = np.arange(1, self.n_samples_per_traj + 1, dtype=np.int64)
        return self.burn_steps + k * self.int_steps

    def sample_times(self) -> np.ndarray:
        return self.sample_steps() * self.dt

    def to_dict(self) -> dict:
        """The resolved value of every SimConfig setting."""
        return {f.name: getattr(self, f.name) for f in fields(SimConfig)}


def _initial_block(initial_state, params: ModelParams, nb: int) -> np.ndarray:
    if initial_state is None:
        initial_state = fixed_point(params)
    if isinstance(initial_state, PhaseSpaceState):
        initial_state = initial_state.as_array()
    vec = np.asarray(initial_state, dtype=np.complex128).reshape(6)
    return np.repeat(vec[:, None], nb, axis=1)


def _advance(state, stops, consts, gens=None, normals=None, n_threads=1):
    """Step the (6, B) block `state` in place to each step count of `stops`
    in turn, at most CHUNK_STEPS steps a kernel call, and yield its
    (alive, first_bad) at each; `consts` are `_step_constants`.

    The noise is each trajectory's generator words `gens` (see
    `_kernels.seed_generators`), drawn and scaled in the kernel, or else
    caller-supplied unscaled standard normals `normals` (n_steps, 4, B).
    The C kernel splits the block over n_threads threads, the numpy one not.
    """
    stepper = _kernels.kernels(n_threads).step
    nb = state.shape[1]
    alive = np.ones(nb, dtype=np.bool_)
    first_bad = np.full(nb, -1, dtype=np.int64)
    scale = math.sqrt(consts[2] / 2.0)
    step, w = 0, None
    for stop in stops:
        while step < stop:
            c = min(CHUNK_STEPS, stop - step)
            if normals is not None:
                # the kernels read each trajectory's noise as one contiguous run
                w = np.empty((nb, c, 4), dtype=np.float64)
                np.multiply(normals[step:step + c].transpose(2, 0, 1), scale,
                            out=w)
            stepper(state, w, gens, scale, alive, first_bad, c, *consts,
                    step, n_threads)
            step += c
        yield alive, first_bad


def _run_block(params: ModelParams, rcfg: ResolvedConfig, traj_indices,
               initial_state=None, n_threads: int = 1):
    """Integrate one block of consecutive trajectory indices; returns
    channel cube and divergence bookkeeping.

    cube: (12, B, n_samples) complex128 in model.OPO_CHANNELS order, for
    every trajectory including ones that later diverge (callers filter).
    """
    nb = len(traj_indices)
    first = operator.index(traj_indices[0])
    # SeedSequence refuses a negative spawn key; the C seeding takes one or
    # two uint32 words, so both kernels refuse what it cannot express
    if first < 0 or first + nb > 2**64:
        raise ValueError(f"trajectory indices must lie in [0, 2**64), got "
                         f"{first}..{first + nb - 1}")
    state = _initial_block(initial_state, params, nb)
    cube = np.empty((12, nb, rcfg.n_samples_per_traj), dtype=np.complex128)
    gens = _kernels.seed_generators(rcfg.master_seed, first, nb)
    consts = _step_constants(params, rcfg.dt, rcfg.divergence_threshold)
    # the last sample is taken at the last step
    samples = _advance(state, rcfg.sample_steps().tolist(), consts, gens=gens,
                       n_threads=n_threads)
    for k, (alive, first_bad) in enumerate(samples):
        # dead trajectories may hold non-finite frozen states; their
        # channels are filtered out downstream
        with np.errstate(invalid="ignore", over="ignore"):
            cube[:, :, k] = state_channels(state, params)
    return cube, alive, first_bad


def simulate_trajectory(params: ModelParams, config: SimConfig,
                        trajectory_index: int = 0, initial_state=None):
    """Integrate one trajectory; returns (channels, first_bad_step).

    channels: the (12, n_kept) samples in OPO_CHANNELS order taken before
    the trajectory diverged (all of them if it did not); first_bad_step is
    the step it diverged at, or -1.
    """
    rcfg = config.resolve(params)
    cube, _, first_bad = _run_block(params, rcfg, [trajectory_index],
                                    initial_state=initial_state)
    bad = int(first_bad[0])
    kept = rcfg.n_samples_per_traj if bad < 0 else int(
        np.searchsorted(rcfg.sample_steps(), bad, side="right"))
    return cube[:, 0, :kept], bad


@dataclass
class EnsembleResult:
    """Merged moments plus run provenance for one ensemble integration."""

    moments: MomentAccumulator
    params: ModelParams
    config: ResolvedConfig
    elapsed_seconds: float
    diverged_indices: list
    backend: str                          # qualified name of the step kernel
    workers: int                          # threads the kernel ran a block on
    block_size: int                       # trajectories per block
    group_size: int = 1                   # trajectories per jackknife group
    halves: tuple | None = None           # (first-half acc, second-half acc)

    @property
    def n_trajectories(self) -> int:
        return self.config.n_trajectories

    @property
    def n_diverged(self) -> int:
        return len(self.diverged_indices)

    @property
    def divergence_fraction(self) -> float:
        return self.n_diverged / self.n_trajectories

    @property
    def reliable(self) -> bool:
        return self.divergence_fraction <= MAX_DIVERGED_FRACTION

    def report(self, centering: str = "reference"):
        return self.moments.finalize(centering=centering)

    def record(self) -> dict:
        """The run's provenance in plain JSON types: the point, the resolved
        settings, the kernel and its threads, the jackknife's group size,
        and how many trajectories diverged."""
        p = self.params
        return {
            "params": {"mu": p.mu, "gamma_r": p.gamma_r, "g": p.g,
                       "eps": p.eps},
            "config": self.config.to_dict(),
            "n_trajectories": self.n_trajectories,
            "n_diverged": self.n_diverged,
            "divergence_fraction": self.divergence_fraction,
            "reliable": self.reliable,
            "elapsed_seconds": self.elapsed_seconds,
            "backend": self.backend,
            "workers": self.workers,
            "block_size": self.block_size,
            "group_size": self.group_size,
        }


def group_size(n_trajectories: int) -> int:
    """The smallest power of two g with ceil(n_trajectories / g) <=
    GROUP_CAP: it divides BLOCK_SIZE or is a multiple of it."""
    g = 1
    while -(-n_trajectories // g) > GROUP_CAP:
        g *= 2
    return g


def run_ensemble(params: ModelParams, config: SimConfig, workers: int | None = None,
                 collect_time_series: bool = False, split_halves: bool = False,
                 initial_state=None) -> EnsembleResult:
    """Integrate an ensemble and stream every trajectory into one accumulator.

    Blocks of BLOCK_SIZE trajectories run in trajectory order, each added
    as it finishes.  `workers` sets the step kernel's threads: the C
    kernel splits a block into `workers` contiguous ranges, one thread
    each; the calling thread runs the first and any range whose thread
    fails to start.  workers defaults to OPO3_WORKERS, else to the CPUs
    this process may use (`_kernels.worker_count`); it must be an integer
    >= 1, and estimates do not depend on it.  The moment passes take
    `_kernels.worker_count()`, that is OPO3_WORKERS, else the CPUs.

    Past GROUP_CAP trajectories the accumulators sum them in groups of
    `group_size(n_trajectories)` consecutive ones, which the jackknife
    leaves out one at a time, so the store stays within GROUP_CAP columns.
    """
    from .moments import MomentAccumulator, opo_schema

    t0 = time.perf_counter()
    rcfg = config.resolve(params)
    nt, n = rcfg.n_trajectories, rcfg.n_samples_per_traj
    # the kernel runs at most one thread per trajectory of a block
    threads = min(_kernels.worker_count(workers), BLOCK_SIZE, nt)
    stepper = _kernels.kernels(threads).step
    schema = opo_schema(params)
    g = group_size(nt)
    acc = MomentAccumulator(schema, collect_per_sample=collect_time_series,
                            group_size=g)
    halves = ((MomentAccumulator(schema, group_size=g),
               MomentAccumulator(schema, group_size=g))
              if split_halves else None)
    diverged_indices = []
    for lo in range(0, nt, BLOCK_SIZE):
        cube, alive, _ = _run_block(params, rcfg,
                                    range(lo, min(lo + BLOCK_SIZE, nt)),
                                    initial_state, threads)
        diverged_indices.extend(lo + int(d) for d in np.flatnonzero(~alive))
        kept = cube[:, alive, :]
        if kept.shape[1] == 0:
            continue
        indices = lo + np.flatnonzero(alive)
        acc.add_batches(kept, indices)
        if halves and n >= 2:
            halves[0].add_batches(kept[:, :, : n // 2], indices)
            halves[1].add_batches(kept[:, :, n // 2:], indices)

    return EnsembleResult(
        moments=acc,
        params=params,
        config=rcfg,
        elapsed_seconds=time.perf_counter() - t0,
        diverged_indices=diverged_indices,
        backend=f"{stepper.__module__}.{stepper.__name__}",
        # the numpy kernel runs on the calling thread alone
        workers=threads if stepper is _kernels._chunk_step_c else 1,
        block_size=BLOCK_SIZE,
        group_size=g,
        halves=halves,
    )


def integrate_batch(params: ModelParams, dt: float, normals: np.ndarray,
                    initial_states: np.ndarray, divergence_threshold: float = 1e6,
                    scheme: str = "euler"):
    """Drive a batch with caller-supplied standard normals; returns finals.

    normals has shape (n_steps, 4, B), unscaled; initial_states (6, B).
    Used for common-random-number convergence studies; scheme must be
    "euler", the only one.  Returns (final_states, alive, first_bad).
    """
    normals = np.asarray(normals, dtype=np.float64)
    if normals.ndim != 3 or normals.shape[1] != 4:
        raise ValueError("normals must have shape (n_steps, 4, B)")
    state = np.array(initial_states, dtype=np.complex128, order="C")
    if state.shape != (6, normals.shape[2]):
        raise ValueError("initial_states must have shape (6, B)")
    if not (0.0 < dt < math.inf):
        raise ValueError("dt must be positive and finite")
    if scheme != ResolvedConfig.scheme:
        raise ValueError(f"unknown scheme {scheme!r}")
    consts = _step_constants(params, dt, divergence_threshold)
    for alive, first_bad in _advance(state, [normals.shape[0]], consts,
                                     normals=normals):
        pass
    return state, alive, first_bad
