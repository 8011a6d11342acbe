"""Shared fixtures: kernel warm-up, a reusable mid-size ensemble, and the
acceptance-line registry echoed at the end of the run."""

import pytest

from opo3 import (ModelParams, SimConfig, _kernels, engine, run_ensemble,
                  simulate_trajectory)


def use_kernels(monkeypatch, **passes):
    """Run the passes named in `passes` (fields of `_kernels.Kernels`) on
    the functions given, and the others as `_kernels.kernels()` chose."""
    chosen = _kernels.kernels()._replace(**passes)
    monkeypatch.setattr(_kernels, "kernels", lambda: chosen)


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # the first kernel call builds the C step kernel (or loads it from the
    # on-disk cache); doing it once here keeps individual test timings honest
    params = ModelParams(mu=0.3, gamma_r=1.0, g=0.05)
    cfg = SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                    n_samples_per_traj=1, n_trajectories=1, master_seed=1)
    simulate_trajectory(params, cfg)


@pytest.fixture(scope="session")
def base_params():
    return ModelParams(mu=0.5, gamma_r=1.0, g=0.05)


@pytest.fixture(scope="session")
def std_ensemble(base_params):
    """Mid-size reference run shared across test modules.

    256 trajectories x 64 samples at mu=0.5, gamma_r=1, g=0.05 with all
    optional payloads enabled; large enough for 3-sigma physics checks,
    small enough to run in about a second.
    """
    cfg = SimConfig(dt=0.01, burn_in=20.0, sample_interval=2.0,
                    n_samples_per_traj=64, n_trajectories=256,
                    master_seed=2468)
    return run_ensemble(base_params, cfg, collect_time_series=True,
                        split_halves=True)


@pytest.fixture(scope="session")
def std_samples(std_ensemble):
    """The (12, kept, 64) channel cube of std_ensemble's run, integrated
    again: trajectories are seeded by index, so it holds the samples the
    run accumulated."""
    res = std_ensemble
    cube, alive, _ = engine._run_block(res.params, res.config,
                                       range(res.n_trajectories),
                                       n_threads=res.workers)
    return cube[:, alive]


@pytest.fixture(scope="session")
def std_report(std_ensemble):
    return std_ensemble.report()


def pytest_configure(config):
    config._acceptance_lines = []


@pytest.fixture
def acceptance(request):
    """Record one pass/fail line per acceptance criterion for the summary."""

    def record(criterion: str, passed: bool, detail: str = ""):
        status = "PASS" if passed else "FAIL"
        line = f"[criterion {criterion}] {status}"
        if detail:
            line += f" - {detail}"
        request.config._acceptance_lines.append(line)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
