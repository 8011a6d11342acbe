"""Run one opo3 benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`, and the command fails when that is missing.  One
process runs one workload in a closed loop: an untimed, checked warm-up
execution (for an engine workload, its tiny size at the reference seed),
then executions at `--seed` until `--seconds` have passed (at least
MIN_EXECUTIONS).  Every execution's output is checked; one that raises,
exits non-zero or fails its check counts as failed.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics: median wall time per execution, samples per
second, median set-up time of fresh interpreters (one is started after
each execution, so the samples spread over the run like the executions)
and the process's peak resident memory.  With `--trace 1` the timed loop
is followed by traced executions, and the JSON object carries the
per-layer metrics (medians over the traced executions) instead.  Lines
before it give the same numbers for people, with `failed_fraction`,
throughput in trajectory-steps, and the provenance of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_EXECUTIONS = 3
# import plus the first small trajectory, in a fresh interpreter
SETUP_CODE = """
import time
t0 = time.perf_counter()
import opo3
opo3.simulate_trajectory(
    opo3.ModelParams(mu=0.5, gamma_r=1.0, g=0.05),
    opo3.SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                   n_samples_per_traj=1, n_trajectories=1))
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {"wall_s": "s", "samples_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
# printed for people, not part of the JSON result
EXTRA_UNITS = {"traj_steps_per_s": "1/s", "failed_fraction": "fraction"}
PER_LAYER_UNITS = {
    "kernels.integrate_batch_s": "s",
    "kernels.ns_per_traj_step": "ns",
    "kernels.gbytes_per_s_computed": "GB/s",
    "kernels.us_per_step_call": "us",
    "engine.run_ensemble_s": "s",
    "engine.traj_steps": "count",
    "engine.diverged_fraction": "fraction",
    "engine.residual_s": "s",
    "engine.pool_speedup": "x",
    "engine.pool_cpu_s": "s",
    "moments.state_channels_s": "s",
    "moments.add_batches_s": "s",
    "moments.add_batches_ns_per_sample": "ns",
    "moments.merge_s": "s",
    "moments.finalize_s": "s",
    "moments.finalize_us_per_batch": "us",
    "moments.n_batches": "count",
    "criteria.cs_test_s": "s",
    "criteria.running_average_s": "s",
    "criteria.other_s": "s",
    "analytic.report_s": "s",
    "cli.residual_s": "s",
    "trace.overhead_fraction": "fraction",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny runs the same code on small inputs")
    p.add_argument("--reference", type=Path,
                   default=Path(__file__).resolve().parent / "reference.json",
                   help="physics checksums at the reference seed")
    return p.parse_args(argv)


class Session:
    """One workload's inputs, executions and failure count."""

    def __init__(self, run, seed: int, references: dict, scale: str):
        import workloads
        self.run, self.seed = run, seed
        self.references, self.scale = references, scale
        self.attempted = self.failed = 0
        self.inputs = run.prepare(seed)
        self.oracle = (workloads.moments_oracle(self.inputs, run.params())
                       if run.kind == "moments" else None)
        self.first_checksum = None

    def warm_up(self) -> None:
        """One untimed, checked execution before timing starts.

        An engine workload runs at its tiny size at the reference seed,
        so that every run checks the recorded physics checksum.
        """
        import workloads
        if self.run.kind != "engine":
            self.execute()
            return
        tiny = workloads.WORKLOADS["tiny"][self.run.name]
        seed = workloads.REFERENCE_SEED
        self._once(tiny, seed, tiny.prepare(seed), self.references["tiny"])

    def execute(self, tracer=None):
        """Run the workload once and check it: (wall or None, output)."""
        return self._once(self.run, self.seed, self.inputs,
                          self.references[self.scale], tracer)

    def _once(self, run, seed: int, inputs, reference: dict, tracer=None):
        self.attempted += 1
        out = None
        try:
            t0 = time.perf_counter()
            if tracer is None:
                out = run.execute(inputs)
            else:
                with tracer.patched(), tracer.span("workload"):
                    out = run.execute(inputs)
            wall = time.perf_counter() - t0
            problems = self.check(run, seed, out, reference)
        except Exception:
            traceback.print_exc()
            problems = ["execution raised"]
        if problems:
            self.fail(problems)
            return None, out
        return wall, out

    def check(self, run, seed: int, out, reference: dict) -> list:
        if run.kind == "moments":
            return run.check(self.inputs, out, self.oracle)
        problems, checksum = run.check(seed, out, reference)
        if checksum is not None and (run, seed) == (self.run, self.seed):
            if self.first_checksum is None:
                self.first_checksum = checksum
            elif checksum != self.first_checksum:
                problems.append("output differs from the first execution "
                                "at the same seed")
        return problems

    def fail(self, problems: list) -> None:
        self.failed += 1
        for line in problems:
            print(f"check failed: {line}", file=sys.stderr)

    def timed(self, seconds: float, between=None) -> list:
        """Wall times of the executions that passed their check.

        `between`, when given, is called after every execution, inside the
        measured window.
        """
        walls = []
        deadline = time.perf_counter() + seconds
        n = 0
        while n < MIN_EXECUTIONS or time.perf_counter() < deadline:
            wall, _ = self.execute()
            n += 1
            if wall is not None:
                walls.append(wall)
            if between is not None:
                between()
        return walls


def setup_seconds() -> float:
    """Set-up time measured inside one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def traced_layers(session: Session) -> tuple:
    """One traced execution; returns (per-layer dict or None, wall)."""
    import tracing

    run = session.run
    tracer = tracing.Tracer()
    wall, _ = session.execute(tracer=tracer)
    if wall is None:
        return None, None
    layers = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    layers.update({
        "moments.merge_s": tracer.seconds("moments.merge"),
        "moments.finalize_s": tracer.seconds("moments.finalize"),
        "criteria.cs_test_s": tracer.seconds("criteria.cs_test"),
        "criteria.running_average_s":
            tracer.seconds("criteria.running_average"),
        "criteria.other_s": tracer.seconds("criteria.other"),
        "analytic.report_s": tracer.seconds("analytic.report"),
    })
    if run.kind == "moments":
        generation = tracing.Tracer()
        with generation.patched():
            run.prepare(session.seed)
        layers["moments.state_channels_s"] = generation.seconds(
            "moments.state_channels")
        layers["moments.add_batches_s"] = tracer.seconds("moments.add_batches")
        n_batches = run.n_batches
    else:
        engine_layers = engine_split(session, tracer)
        if engine_layers is None:
            return None, wall
        layers.update(engine_layers)
        n_batches = run.n_trajectories
    samples = run.work(session.seed)["samples"]
    layers["moments.add_batches_ns_per_sample"] = (
        layers["moments.add_batches_s"] / samples * 1e9)
    layers["moments.n_batches"] = n_batches
    layers["moments.finalize_us_per_batch"] = (
        layers["moments.finalize_s"]
        / (n_batches * max(1, tracer.count("moments.finalize"))) * 1e6)
    write_spans(run.name, tracer)
    return layers, wall


def engine_split(session: Session, tracer) -> dict | None:
    """Kernel, extraction, accumulation, loop and pool numbers of a run.

    Replays the traced run's inner loop, and runs it again on one and on
    two workers.  Returns None, after counting a failure, when any of
    them does not reproduce the traced run's moments.
    """
    import tracing
    import workloads
    from opo3 import engine

    run, seed = session.run, session.seed
    doc = run.read_report()
    mc = doc["moments"]["moments"]
    try:
        acc, replayed, n_blocks = tracing.replay(run, seed)
    except ValueError as exc:
        session.fail([f"replay: {exc}"])
        return None
    exact = backend_name().endswith("_numpy")
    bad = tracing.same_moments(mc, acc.finalize(centering="reference"),
                               0.0 if exact else workloads.CHECKSUM_RTOL)
    if bad:
        session.fail([f"replay differs from run_ensemble in {bad}; "
                      "per-layer split invalid"])
        return None
    pool_wall, pool_cpu = {}, {}
    for workers in (1, 2):
        c0, t0 = tracing.cpu_seconds(), time.perf_counter()
        res = engine.run_ensemble(run.params(), run.sim_config(seed),
                                  workers=workers, collect_time_series=True)
        pool_wall[workers] = time.perf_counter() - t0
        pool_cpu[workers] = tracing.cpu_seconds() - c0
        bad = tracing.same_moments(mc, res.report(), 0.0)
        if bad:
            session.fail([f"run_ensemble on {workers} workers differs from "
                          f"the traced run in {bad}"])
            return None
    kernel = replayed.seconds("kernels.integrate_batch")
    extract = replayed.seconds("moments.state_channels")
    accumulate = replayed.seconds("moments.add_batches")
    traj_steps = run.work(seed)["traj_steps"]
    return {
        "kernels.integrate_batch_s": kernel,
        "kernels.ns_per_traj_step": kernel / traj_steps * 1e9,
        "kernels.gbytes_per_s_computed":
            traj_steps * workloads.BYTES_PER_TRAJ_STEP / kernel / 1e9,
        "kernels.us_per_step_call":
            kernel / (run.resolved(seed).total_steps * n_blocks) * 1e6,
        "engine.run_ensemble_s": tracer.seconds("engine.run_ensemble"),
        "engine.traj_steps": traj_steps,
        "engine.diverged_fraction": doc["n_diverged"] / run.n_trajectories,
        "engine.residual_s": pool_wall[1] - kernel - extract - accumulate,
        "engine.pool_speedup": pool_wall[1] / pool_wall[2],
        "engine.pool_cpu_s": pool_cpu[2],
        "moments.state_channels_s": extract,
        "moments.add_batches_s": accumulate,
        "cli.residual_s": tracer.self_seconds("workload"),
    }


def write_spans(name: str, tracer) -> None:
    import workloads
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    spans = [{"name": n, "start_s": s - t0, "duration_s": e - s,
              "parent": p} for n, s, e, p in tracer.spans]
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    (workloads.OUT_DIR / f"trace-{name}.json").write_text(
        json.dumps(spans, indent=1) + "\n")


def backend_name() -> str:
    from opo3 import _kernels
    stepper = _kernels.get_stepper()
    return f"{stepper.__module__}.{stepper.__name__}"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def provenance(session: Session, args, samples: dict) -> dict:
    import numpy as np
    from opo3 import engine
    return {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "backend": backend_name(),
        "block_size": getattr(engine, "BLOCK_SIZE", None),
        "workers": session.run.workers, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": git_commit(), "samples": samples,
        "attempted": session.attempted, "failed": session.failed,
    }


def emit(session: Session, metrics: dict, units: dict, info: dict,
         extra: dict) -> None:
    """Print metrics for people, then provenance, then the JSON result."""
    shown = {**units, **EXTRA_UNITS}
    for name, value in {**metrics, **extra}.items():
        print(f"  {name:36s} {value:>16.6g} {shown[name]}")
    print("provenance " + json.dumps(info))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))



def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "opo3" / "__init__.py").is_file():
        print(f"error: opo3 sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import opo3
    if Path(opo3.__file__).resolve().parent != SRC / "opo3":
        print(f"error: imported opo3 from {opo3.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    table = workloads.WORKLOADS[args.scale]
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(table)}", file=sys.stderr)
        return 2
    run = table[args.workload]
    session = Session(run, args.seed,
                      workloads.load_reference(args.reference), args.scale)
    print(f"workload {run.name} ({args.scale}) seed {args.seed}: "
          f"closed loop, 1 client, {run.workers} worker process(es)")
    work = run.work(args.seed)

    if args.trace == 0:
        setup = []
        session.warm_up()
        walls = session.timed(args.seconds,
                              lambda: setup.append(setup_seconds()))
        if not walls:
            print("error: no execution passed its check", file=sys.stderr)
            return 1
        wall = statistics.median(walls)
        metrics = {
            "wall_s": wall,
            "samples_per_s": work["samples"] / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        extra = {"failed_fraction": session.failed / session.attempted}
        if work["traj_steps"]:
            extra["traj_steps_per_s"] = work["traj_steps"] / wall
        samples = {"wall_s": len(walls), "setup_s": len(setup),
                   "walls": walls, "setups": setup}
        emit(session, metrics, END_TO_END_UNITS,
             provenance(session, args, samples), extra)
        return 0

    # half the time untraced, for the overhead baseline; half traced, with
    # no traced execution started that would end past the deadline
    session.warm_up()
    untraced = session.timed(args.seconds / 2)
    traced, traced_walls = [], []
    deadline = time.perf_counter() + args.seconds / 2
    last = 0.0
    while not traced or time.perf_counter() + last < deadline:
        t0 = time.perf_counter()
        layers, wall = traced_layers(session)
        last = time.perf_counter() - t0
        if layers is None:
            traced = []
            break
        traced.append(layers)
        traced_walls.append(wall)
    metrics = {}
    if traced and untraced:
        metrics = {k: statistics.median(d[k] for d in traced)
                   for k in PER_LAYER_UNITS}
        metrics["trace.overhead_fraction"] = (
            statistics.median(traced_walls) / statistics.median(untraced) - 1)
    else:
        print("per-layer split invalid; not published", file=sys.stderr)
    samples = {"untraced": len(untraced), "traced": len(traced)}
    emit(session, metrics, PER_LAYER_UNITS,
         provenance(session, args, samples), {})
    return 0


if __name__ == "__main__":
    sys.exit(main())
