"""Per-layer timing from outside the program.

A Tracer records spans around calls into opo3's public functions by
swapping the module and class attributes the callers look up, and puts
them back afterwards.  A span's self time is its duration minus the time
its direct child spans cover.

The engine's inner loop runs inside `run_ensemble`, where no public call
boundary separates noise fill, kernel, channel extraction and
accumulation.  `replay` therefore re-runs that loop on the same blocks
through public calls: `integrate_batch` once per sample interval on the
trajectory's documented noise stream
`PCG64(SeedSequence(master_seed, spawn_key=(i,)))`, then `state_channels`
and `add_batches`.  Its moments must equal `run_ensemble`'s before the
split is published.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import time

import numpy as np

from opo3 import cli, criteria, engine, model, moments

# (owner, attribute, span name).  cli imported its callees by name, so a
# function both cli and the benchmark call is patched in both modules.
PATCHES = (
    (cli, "run_ensemble", "engine.run_ensemble"),
    (engine.SimConfig, "resolve", "engine.resolve"),
    (engine, "integrate_batch", "kernels.integrate_batch"),
    (moments, "state_channels", "moments.state_channels"),
    (moments.MomentAccumulator, "add_batches", "moments.add_batches"),
    (moments.MomentAccumulator, "finalize", "moments.finalize"),
    (moments, "merge", "moments.merge"),
    (cli, "cs_test", "criteria.cs_test"),
    (criteria, "cs_test", "criteria.cs_test"),
    (cli, "cs_running_average", "criteria.running_average"),
    (cli, "separability_witness", "criteria.other"),
    (criteria, "separability_witness", "criteria.other"),
    (cli, "pair_audit", "criteria.other"),
    (criteria, "pair_audit", "criteria.other"),
    (cli, "pump_odd_moment", "criteria.other"),
    (criteria, "pump_odd_moment", "criteria.other"),
    (cli, "analytic_moment_report", "analytic.report"),
    (cli, "cs_sides_analytic", "analytic.report"),
)


class Tracer:
    """In-memory spans: [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self):
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in PATCHES]
        try:
            for owner, attr, name in PATCHES:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def seconds(self, name: str) -> float:
        return sum(e - s for n, s, e, _ in self.spans if n == name)

    def count(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def self_seconds(self, name: str) -> float:
        total = 0.0
        for idx, (n, s, e, _) in enumerate(self.spans):
            if n == name:
                children = sum(ce - cs for _, cs, ce, p in self.spans
                               if p == idx)
                total += (e - s) - children
        return total


def replay(run, seed: int):
    """Re-run `run_ensemble`'s loop for `run` through public calls.

    Returns (accumulator, tracer, n_blocks).  Raises ValueError when a
    trajectory diverges, which the engine would have frozen mid-interval.
    """
    tracer = Tracer()
    params = run.params()
    rcfg = run.resolved(seed)
    stops = np.concatenate(([0], rcfg.sample_steps()))
    block = getattr(engine, "BLOCK_SIZE", 256)
    start = model.fixed_point(params).as_array()
    n_blocks = 0
    with tracer.patched():
        acc = moments.MomentAccumulator(moments.opo_schema(params),
                                        collect_per_sample=True)
        for lo in range(0, rcfg.n_trajectories, block):
            idx = range(lo, min(lo + block, rcfg.n_trajectories))
            rngs = [np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(rcfg.master_seed, spawn_key=(i,))))
                for i in idx]
            state = np.repeat(start[:, None], len(idx), axis=1)
            cube = np.empty((12, len(idx), rcfg.n_samples_per_traj),
                            dtype=np.complex128)
            for k in range(rcfg.n_samples_per_traj):
                n_steps = int(stops[k + 1] - stops[k])
                normals = np.empty((n_steps, 4, len(idx)))
                for j, rng in enumerate(rngs):
                    normals[:, :, j] = rng.standard_normal((n_steps, 4))
                state, alive, _ = engine.integrate_batch(
                    params, rcfg.dt, normals, state,
                    rcfg.divergence_threshold, rcfg.scheme)
                if not alive.all():
                    raise ValueError("a replayed trajectory diverged")
                cube[:, :, k] = moments.state_channels(state, params)
            acc.add_batches(cube)
            n_blocks += 1
    return acc, tracer, n_blocks


def same_moments(mc: dict, rep: moments.MomentReport, rtol: float) -> list:
    """Entries of `rep` that differ from report.json's `mc` moments."""
    bad = []
    for name, want in mc.items():
        got = rep[name]
        pairs = ((got.value.real, want["value"][0]),
                 (got.value.imag, want["value"][1]),
                 (got.std_error, want["std_error"]),
                 (got.std_error_imag, want["std_error_imag"]))
        if rtol == 0.0:
            ok = all(a == b for a, b in pairs)
        else:
            ok = all(abs(a - b) <= rtol * max(abs(b), 1e-300)
                     for a, b in pairs)
        if not ok:
            bad.append(name)
    return bad


def cpu_seconds() -> float:
    """CPU time of this process plus its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
