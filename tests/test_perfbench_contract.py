"""The benchmark harness under perfbench/ looks package names up directly.

The harness stays unchanged between benchmark revisions, so these checks
load its modules by path, as they are, and fail when the package drops or
renames a name the harness patches or calls.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from opo3 import _oracle, cli, engine
from conftest import use_kernels

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    tracing = load("tracing")
    owners = {(owner.__name__, attr) for owner, attr, _ in tracing.PATCHES}
    assert {("opo3.cli", "analytic_moment_report"),
            ("opo3.cli", "cs_sides_analytic")} <= owners
    missing = [(owner.__name__, attr) for owner, attr, _ in tracing.PATCHES
               if attr not in owner.__dict__]
    assert missing == []
    before = [owner.__dict__[attr] for owner, attr, _ in tracing.PATCHES]
    with tracing.Tracer().patched():
        pass
    assert [owner.__dict__[attr]
            for owner, attr, _ in tracing.PATCHES] == before


def test_every_traced_cli_name_is_called(monkeypatch, tmp_path):
    # a span reads 0 when the program stops calling the name the harness
    # patches, as when a call moves out of cli's namespace; with only the
    # patches on opo3.cli in place, each under a span of its own name (some
    # share a layer's span), one small `opo3 run` must open every one
    tracing = load("tracing")
    on_cli = tuple((owner, attr, attr) for owner, attr, _ in tracing.PATCHES
                   if owner is cli)
    assert len(on_cli) == 8
    monkeypatch.setattr(tracing, "PATCHES", on_cli)
    tracer = tracing.Tracer()
    with tracer.patched():
        rc = cli.main(["run", "--dt", "0.05", "--burn-in", "20",
                       "--sample-interval", "2", "--n-trajectories", "4",
                       "--n-samples-per-traj", "2", "--out-dir",
                       str(tmp_path)])
    assert rc == 0
    assert [attr for _, attr, _ in on_cli if tracer.count(attr) == 0] == []


def test_setup_probe_runs(capsys):
    run = load("run")
    exec(compile(run.SETUP_CODE, "perfbench set-up probe", "exec"), {})
    assert float(capsys.readouterr().out.split()[-1]) >= 0.0


def test_moment_workload_matches_its_oracle():
    # the benchmark's moments-wide workload at its smoke size: add_batches,
    # merge, finalize under every centering and each criterion it calls
    workloads = load("workloads")
    run = workloads.WORKLOADS["tiny"]["moments-wide"]
    cube = run.prepare(3)
    out = run.execute(cube)
    oracle = workloads.moments_oracle(cube, run.params())
    assert run.check(cube, out, oracle) == []


@pytest.mark.parametrize("kernel", ["default", "numpy"])
def test_replay_reproduces_the_run_bitwise(monkeypatch, kernel):
    # the harness replays run_ensemble's loop through integrate_batch,
    # passing the scheme by position, on each trajectory's documented
    # stream; the replay's moments and errors must equal the run's exactly
    tracing, workloads = load("tracing"), load("workloads")
    run = workloads.WORKLOADS["tiny"]["ensemble-wide"]
    if kernel == "numpy":
        use_kernels(monkeypatch, step=_oracle._chunk_step_numpy)
        run = dataclasses.replace(run, n_trajectories=16)
    res = engine.run_ensemble(run.params(), run.sim_config(5),
                              workers=run.workers)
    assert res.n_diverged == 0
    mc = res.report().to_dict()["moments"]
    acc, tracer, n_blocks = tracing.replay(run, 5)
    assert n_blocks == -(-run.n_trajectories // engine.BLOCK_SIZE)
    assert tracer.count("kernels.integrate_batch") == (
        n_blocks * run.n_samples_per_traj)
    rep = acc.finalize(centering="reference")
    assert len(mc) > 20
    assert tracing.same_moments(mc, rep, 0.0) == []
