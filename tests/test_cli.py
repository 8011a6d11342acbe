"""Command-line front-end: config handling, artifacts, exit codes."""

import importlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import pytest

import opo3
from opo3 import _kernels, _oracle, cli, engine
from opo3.cli import (
    CliError,
    build_runspec,
    main,
    RunSpec,
    make_parser,
    parse_config_file,
)
from conftest import use_kernels

FAST = ["--dt", "0.05", "--burn-in", "20", "--sample-interval", "2"]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_main(argv):
    return main([str(a) for a in argv])


def package_env():
    """Environment for a child interpreter that imports the same opo3 as
    this process: its source root leads PYTHONPATH, so neither the
    caller's PYTHONPATH nor an installed copy decides which opo3 runs."""
    root = str(Path(opo3.__file__).resolve().parent.parent)
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + rest if rest else "")
    return env


def read_pyproject():
    # tomllib is stdlib from Python 3.11; requires-python still allows 3.10
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as f:
        return tomllib.load(f)


class TestConfigFile:
    def test_parse_comments_and_auto(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(
            "# full-line comment\n"
            "mu = 0.3   # trailing comment\n"
            "dt = auto\n"
            "burn_in =\n"
            "n_trajectories = 16\n"
            "out_dir = results\n"
        )
        d = parse_config_file(str(p))
        assert d == {"mu": 0.3, "dt": None, "burn_in": None,
                     "n_trajectories": 16, "out_dir": "results"}

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("banana = 3\n")
        with pytest.raises(CliError, match="unknown config key"):
            parse_config_file(str(p))

    def test_bad_value(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("mu = fast\n")
        with pytest.raises(CliError, match="bad value"):
            parse_config_file(str(p))

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("mu 0.5\n")
        with pytest.raises(CliError, match="key = value"):
            parse_config_file(str(p))

    def test_missing_file(self):
        with pytest.raises(CliError, match="cannot read"):
            parse_config_file("/nonexistent/path.cfg")

    def test_flag_beats_config_beats_default(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("mu = 0.3\ngamma_r = 2.0\n")
        args = make_parser().parse_args(
            ["run", "--config", str(p), "--mu", "0.7"])
        spec = build_runspec(args)
        assert spec.mu == 0.7          # flag wins
        assert spec.gamma_r == 2.0     # config wins over default
        assert spec.g == 0.05          # default

    def test_seed_alias(self):
        args = make_parser().parse_args(["run", "--seed", "777"])
        assert build_runspec(args).master_seed == 777


class TestSettingsTable:
    # `opo3 run`'s options; the flags derived from RunSpec must keep them
    RUN_OPTIONS = [
        "-h", "--help", "--config", "--mu", "--gamma-r", "--g", "--dt",
        "--burn-in", "--sample-interval", "--n-samples-per-traj",
        "--n-trajectories", "--master-seed", "--seed",
        "--divergence-threshold", "--sigma-threshold", "--out-dir"]
    # a value other than the default for every RunSpec field
    VALUES = {"mu": 0.25, "gamma_r": 3.5, "g": 0.125, "dt": 0.004,
              "burn_in": 55.0, "sample_interval": 6.5,
              "n_samples_per_traj": 7, "n_trajectories": 33,
              "master_seed": 4242, "divergence_threshold": 1e5,
              "sigma_threshold": 2.5, "out_dir": "elsewhere"}

    def test_run_option_strings(self):
        sub = next(a for a in make_parser()._actions if a.dest == "command")
        got = [s for a in sub.choices["run"]._actions
               for s in a.option_strings]
        assert got == self.RUN_OPTIONS

    def test_engine_defaults_are_sim_configs(self):
        # RunSpec states no engine default of its own
        assert RunSpec().sim_config() == engine.SimConfig()

    @pytest.mark.parametrize("key", [f.name for f in fields(RunSpec)])
    def test_flag_and_config_key_agree(self, tmp_path, key):
        value = self.VALUES[key]
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\n")
        parser = make_parser()
        via_flag = build_runspec(parser.parse_args(
            ["run", "--" + key.replace("_", "-"), str(value)]))
        via_file = build_runspec(parser.parse_args(
            ["run", "--config", str(cfg)]))
        assert via_flag == via_file == replace(RunSpec(), **{key: value})
        assert type(getattr(via_flag, key)) is type(value)
        sim = via_flag.sim_config()
        assert getattr(sim, key, value) == value


class TestRun:
    def test_artifacts_and_exit_zero(self, tmp_path, capsys):
        rc = run_main(["run", *FAST, "--n-trajectories", 16,
                       "--n-samples-per-traj", 8, "--seed", 42,
                       "--out-dir", tmp_path])
        assert rc == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert set(doc) == {"version", "params", "config", "sigma_threshold",
                            "n_trajectories", "n_diverged",
                            "divergence_fraction", "reliable",
                            "elapsed_seconds", "backend", "workers",
                            "block_size", "group_size", "moments", "criteria",
                            "analytic"}
        stepper = _kernels.kernels().step
        assert doc["backend"] == f"{stepper.__module__}.{stepper.__name__}"
        assert doc["params"]["mu"] == 0.5
        assert doc["reliable"] is True
        assert doc["moments"]["n_samples"] == 16 * 8
        assert set(doc["criteria"]) == {
            "cauchy_schwarz_0_12", "cauchy_schwarz_1_02",
            "cauchy_schwarz_2_01", "separability_witness", "pair_audit",
            "pump_odd_moment"}
        assert doc["analytic"]["cauchy_schwarz"]["verdict"] == "violated"
        lines = (tmp_path / "timeseries.csv").read_text().splitlines()
        assert lines[0] == "tau,n_samples,lhs,rhs,ratio"
        assert len(lines) == 1 + 8
        first = lines[1].split(",")
        assert float(first[0]) == 22.0
        assert int(first[1]) == 16
        out = capsys.readouterr().out
        assert "cauchy-schwarz 0|12" in out

    def test_auto_steps_resolve(self, tmp_path):
        rc = run_main(["run", "--dt", "auto", "--n-trajectories", 8,
                       "--n-samples-per-traj", 4, "--out-dir", tmp_path])
        assert rc == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["dt"] == pytest.approx(0.01)
        assert doc["config"]["burn_in"] == pytest.approx(40.0)

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["run", *FAST, "--n-trajectories", 16,
                "--n-samples-per-traj", 8, "--seed", 99]
        assert run_main(argv + ["--out-dir", a]) == 0
        assert run_main(argv + ["--out-dir", b]) == 0
        assert ((a / "timeseries.csv").read_bytes()
                == (b / "timeseries.csv").read_bytes())
        ja = json.loads((a / "report.json").read_text())
        jb = json.loads((b / "report.json").read_text())
        # elapsed_seconds differs; everything numeric must not
        assert ja["moments"] == jb["moments"]
        assert ja["criteria"] == jb["criteria"]

    def test_above_threshold_exits_2(self, tmp_path, capsys):
        rc = run_main(["run", "--mu", "1.2", "--out-dir", tmp_path])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("banana = 3\n")
        rc = run_main(["run", "--config", p, "--out-dir", tmp_path])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_all_diverged_exits_3_but_reports(self, tmp_path, capsys):
        rc = run_main(["run", *FAST, "--n-trajectories", 8,
                       "--n-samples-per-traj", 8, "--seed", 5,
                       "--divergence-threshold", "1e-3",
                       "--out-dir", tmp_path])
        assert rc == 3
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["moments"] is None
        assert doc["reliable"] is False
        assert doc["n_diverged"] == 8
        lines = (tmp_path / "timeseries.csv").read_text().splitlines()
        assert lines == ["tau,n_samples,lhs,rhs,ratio"]
        assert "unreliable" in capsys.readouterr().err

    def test_huge_divergence_threshold_runs(self, tmp_path):
        # its square overflows to inf, which the kernels take as no bound
        rc = run_main(["run", *FAST, "--n-trajectories", 4,
                       "--n-samples-per-traj", 2,
                       "--divergence-threshold", "1e300",
                       "--out-dir", tmp_path])
        assert rc == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["n_diverged"] == 0

    @pytest.mark.parametrize("point", [
        ["--gamma-r", "1", "--dt", "0.01"],       # the ensemble-wide point
        ["--gamma-r", "25", "--dt", "2e-3"]])     # the trajectory-stiff one
    def test_artifacts_equal_across_kernels_and_workers(
            self, tmp_path, monkeypatch, point):
        # the kernels are bitwise equal and a trajectory's bits do not
        # depend on the thread that steps it, so the artifacts differ only
        # in the fields naming the kernel and its threads, and the time
        argv = ["run", "--mu", "0.5", "--g", "0.05", "--burn-in", "20",
                "--sample-interval", "2", *point, "--n-trajectories", "9",
                "--n-samples-per-traj", "3", "--seed", "3"]
        runs = {}
        for name, workers in (("c1", "1"), ("c2", "2"), ("c3", "3"),
                              ("numpy", "1")):
            if name == "numpy":
                use_kernels(monkeypatch, step=_oracle._chunk_step_numpy)
            monkeypatch.setenv("OPO3_WORKERS", workers)
            assert run_main(argv + ["--out-dir", tmp_path / name]) == 0
            doc = json.loads((tmp_path / name / "report.json").read_text())
            for key in ("backend", "workers", "elapsed_seconds"):
                doc.pop(key)
            runs[name] = (json.dumps(doc),
                          (tmp_path / name / "timeseries.csv").read_bytes())
        for name in ("c2", "c3", "numpy"):
            assert runs[name] == runs["c1"], name

    def test_too_few_trajectories_exits_2(self, tmp_path, capsys):
        # one trajectory and no divergence: an input problem, as in compare
        rc = run_main(["run", *FAST, "--n-trajectories", 1,
                       "--n-samples-per-traj", 4, "--out-dir", tmp_path])
        assert rc == 2
        assert "at least 2 batches" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("n_traj, n_samples, rc_want", [
        (2, 1, 2), (3, 1, 0), (2, 2, 0)])
    def test_replicates_need_two_samples(self, tmp_path, capsys, n_traj,
                                         n_samples, rc_want):
        # two one-sample trajectories: leaving one out keeps a lone sample,
        # whose centered moments are rounding noise, so no error bars; 3x1
        # and 2x2 keep two samples in every replicate and run
        rc = run_main(["run", *FAST, "--n-trajectories", n_traj,
                       "--n-samples-per-traj", n_samples,
                       "--out-dir", tmp_path])
        assert rc == rc_want
        refused = "standard errors need at least 2" in capsys.readouterr().err
        assert refused is (rc_want == 2)
        assert (tmp_path / "report.json").exists() is (rc_want == 0)

    @pytest.mark.parametrize("flag, value", [("--burn-in", "inf"),
                                             ("--burn-in", "nan"),
                                             ("--sample-interval", "inf")])
    def test_non_finite_times_exit_2(self, tmp_path, capsys, flag, value):
        rc = run_main(["run", *FAST, flag, value, "--out-dir", tmp_path])
        assert rc == 2
        field = flag[2:].replace("-", "_")
        assert f"{field} must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_sigma_threshold_exits_2_before_integrating(
            self, tmp_path, capsys, monkeypatch, value):
        def no_run(*args, **kwargs):
            raise AssertionError("integrated despite a bad sigma threshold")
        monkeypatch.setattr(cli, "run_ensemble", no_run)
        rc = run_main(["run", *FAST, "--sigma-threshold", value,
                       "--out-dir", tmp_path])
        assert rc == 2
        assert "sigma_threshold must be positive" in capsys.readouterr().err

    def test_report_names_fallback_backend(self, tmp_path, monkeypatch):
        use_kernels(monkeypatch, step=_oracle._chunk_step_numpy)
        rc = run_main(["run", *FAST, "--n-trajectories", 4,
                       "--n-samples-per-traj", 2, "--out-dir", tmp_path])
        assert rc == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["backend"] == "opo3._oracle._chunk_step_numpy"
        assert doc["workers"] == 1

    def test_report_workers_default_and_override(self, tmp_path, monkeypatch):
        # unset, the kernel threads over every CPU this process may use
        argv = ["run", *FAST, "--n-trajectories", 4,
                "--n-samples-per-traj", 2, "--out-dir", tmp_path]
        on_c = _kernels.kernels().step is _kernels._chunk_step_c
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count())
        for value, want in ((None, min(cpus, 4)), ("1", 1)):
            if value is None:
                monkeypatch.delenv("OPO3_WORKERS", raising=False)
            else:
                monkeypatch.setenv("OPO3_WORKERS", value)
            assert run_main(argv) == 0
            doc = json.loads((tmp_path / "report.json").read_text())
            assert doc["workers"] == (want if on_c else 1)
            assert doc["block_size"] == engine.BLOCK_SIZE

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
    def test_bad_workers_env_exits_2(self, tmp_path, capsys, monkeypatch,
                                     value):
        monkeypatch.setenv("OPO3_WORKERS", value)
        rc = run_main(["run", *FAST, "--n-trajectories", 4,
                       "--n-samples-per-traj", 2, "--out-dir", tmp_path])
        assert rc == 2
        assert ("OPO3_WORKERS must be an integer >= 1"
                in capsys.readouterr().err)
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("flag", ["--seed", "--master-seed"])
    def test_negative_seed_exits_2_before_building(
            self, tmp_path, capsys, monkeypatch, flag):
        def no_kernel():
            raise AssertionError("reached the kernel despite a bad seed")
        monkeypatch.setattr(_kernels, "get_stepper", no_kernel)
        monkeypatch.setattr(_kernels, "_c_function", no_kernel)
        rc = run_main(["run", *FAST, flag, "-1", "--out-dir", tmp_path])
        assert rc == 2
        assert ("master_seed must be an integer >= 0, got -1"
                in capsys.readouterr().err)
        assert not (tmp_path / "report.json").exists()

    def test_step_count_overflow_exits_2(self, tmp_path, capsys):
        rc = run_main(["run", "--burn-in", "1e307", "--dt", "0.001",
                       "--out-dir", tmp_path])
        assert rc == 2
        assert ("burn_in=1e+307 needs too many steps of dt=0.001"
                in capsys.readouterr().err)


class TestSweep:
    def test_analytic_gamma_r(self, tmp_path):
        rc = run_main(["sweep", "--axis", "gamma_r", "--values", "100,0.01",
                       "--mu", "0.7", "--out-dir", tmp_path])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("mu,gamma_r,g,source,lhs,rhs,ratio,significance,"
                            "verdict,n_diverged,reliable")
        rows = [ln.split(",") for ln in lines[1:]]
        assert [(r[1], r[3], r[8], r[9], r[10]) for r in rows] == [
            ("100", "analytic", "violated", "0", "true"),
            ("0.01", "analytic", "satisfied", "0", "true"),
        ]
        assert float(rows[0][6]) == pytest.approx(1.5230345115117114, rel=1e-9)
        assert float(rows[1][6]) == pytest.approx(0.68880480148245683, rel=1e-9)

    def test_mc_source(self, tmp_path):
        rc = run_main(["sweep", "--axis", "mu", "--values", "0.5",
                       "--source", "both", *FAST, "--n-trajectories", 16,
                       "--n-samples-per-traj", 8, "--out-dir", tmp_path])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        sources = [ln.split(",")[3] for ln in lines[1:]]
        assert sources == ["analytic", "mc"]

    def test_duplicate_value_warns(self, tmp_path, capsys):
        rc = run_main(["sweep", "--axis", "mu", "--values", "0.5,0.5",
                       "--out-dir", tmp_path])
        assert rc == 0
        assert "duplicate sweep value" in capsys.readouterr().err
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 2

    def test_mc_all_diverged_exits_3(self, tmp_path, capsys):
        rc = run_main(["sweep", "--axis", "mu", "--values", "0.5",
                       "--source", "mc", *FAST, "--n-trajectories", 8,
                       "--n-samples-per-traj", 4,
                       "--divergence-threshold", "1.0",
                       "--out-dir", tmp_path])
        assert rc == 3
        assert "8/8 trajectories diverged" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()
        record, = json.loads((tmp_path / "sweep.json").read_text())
        assert record["n_diverged"] == 8

    def test_mc_partly_diverged_writes_csv_and_exits_3(self, tmp_path, capsys):
        # at g=0.5 a threshold of 1.2 cuts 1 of 16 signal excursions: an
        # estimate remains, but more than 1% diverged
        rc = run_main(["sweep", "--axis", "mu", "--values", "0.5",
                       "--source", "both", *FAST, "--g", "0.5",
                       "--n-trajectories", 16, "--n-samples-per-traj", 4,
                       "--divergence-threshold", "1.2",
                       "--out-dir", tmp_path])
        assert rc == 3
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        rows = [ln.split(",") for ln in lines[1:]]
        assert [(r[3], r[9], r[10]) for r in rows] == [
            ("analytic", "0", "true"), ("mc", "1", "false")]
        assert "mu=0.5: 1/16 diverged" in capsys.readouterr().err

    def test_underflowing_coupling_exits_2(self, tmp_path, capsys):
        rc = run_main(["sweep", "--axis", "mu", "--values", "0.5", "--g",
                       "1e-82", "--source", "analytic", "--out-dir",
                       tmp_path])
        assert rc == 2
        assert "too small" in capsys.readouterr().err

    def test_empty_values_exits_2(self, tmp_path, capsys):
        rc = run_main(["sweep", "--axis", "mu", "--values", ",",
                       "--out-dir", tmp_path])
        assert rc == 2
        assert "empty sweep axis" in capsys.readouterr().err

    def test_bad_axis_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", "phi", "--values", "1"])
        assert exc.value.code == 2


class TestCompare:
    def test_table(self, tmp_path, capsys):
        rc = run_main(["compare", *FAST, "--n-trajectories", 64,
                       "--n-samples-per-traj", 16, "--seed", 11,
                       "--out-dir", tmp_path])
        assert rc == 0
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[0] == ("moment,mc_value,mc_std_error,analytic_value,"
                            "pull,within_threshold,low_confidence")
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[0] for r in rows] == ["t1", "t2", "t3", "t4", "q4",
                                        "var_x0", "cov_x_xp", "cov_y_yp"]
        # pre-verified at this seed: every pull is modest
        for r in rows:
            assert abs(float(r[4])) <= 3.0
            assert r[5] == "True"
        assert "all pulls within +-3" in capsys.readouterr().out

    def test_all_diverged_exits_3(self, tmp_path, capsys):
        rc = run_main(["compare", *FAST, "--n-trajectories", 8,
                       "--n-samples-per-traj", 4,
                       "--divergence-threshold", "1.0",
                       "--out-dir", tmp_path])
        assert rc == 3
        assert "8/8 trajectories diverged" in capsys.readouterr().err
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["reliable"] is False
        assert doc["n_diverged"] == 8
        assert not (tmp_path / "compare.csv").exists()

    def test_sigma_threshold_sets_within_threshold(self, tmp_path, capsys):
        # the within_threshold column, the flag and the summary follow k
        flags = {}
        for k in ("3", "0.1"):
            rc = run_main(["compare", *FAST, "--n-trajectories", 64,
                           "--n-samples-per-traj", 8, "--seed", 5,
                           "--sigma-threshold", k, "--out-dir", tmp_path / k])
            assert rc == 0
            rows = [ln.split(",") for ln in (tmp_path / k / "compare.csv")
                    .read_text().splitlines()[1:]]
            flags[k] = [r[5] for r in rows]
            for r in rows:
                assert r[5] == str(abs(float(r[4])) <= float(k)), r
            out = capsys.readouterr().out
            assert ("outside 0.1 sigma" in out) is (k == "0.1")
        assert "pulls outside +-0.1" in out
        assert any(a == "True" and b == "False"
                   for a, b in zip(flags["3"], flags["0.1"]))

    def test_too_few_trajectories_exits_2(self, tmp_path, capsys):
        # one trajectory and no divergence: no error bars, an input problem
        rc = run_main(["compare", *FAST, "--n-trajectories", 1,
                       "--n-samples-per-traj", 4, "--out-dir", tmp_path])
        assert rc == 2
        assert "at least 2 batches" in capsys.readouterr().err

    def test_exact_agreement_has_zero_pulls(self, tmp_path, capsys):
        # at mu = 0 every compared moment is exactly 0 on both sides with
        # a zero standard error: exact agreement, not an infinite pull
        rc = run_main(["compare", *FAST, "--mu", 0, "--n-trajectories", 4,
                       "--n-samples-per-traj", 2, "--out-dir", tmp_path])
        assert rc == 0
        rows = [ln.split(",") for ln in
                (tmp_path / "compare.csv").read_text().splitlines()[1:]]
        assert len(rows) == 8
        for r in rows:
            assert float(r[2]) == 0.0 and float(r[4]) == 0.0, r
            assert r[5] == "True", r
        out = capsys.readouterr().out
        assert "outside 3 sigma" not in out
        assert "all pulls within +-3" in out


class TestRunRecord:
    # run, compare and sweep state a run's provenance in one record
    POINT = [*FAST, "--mu", "0.5", "--n-trajectories", 16,
             "--n-samples-per-traj", 4, "--seed", 7]

    def test_records_agree_across_subcommands(self, tmp_path):
        for cmd in (["run"], ["compare"],
                    ["sweep", "--axis", "mu", "--values", "0.5",
                     "--source", "mc"]):
            assert run_main([*cmd, *self.POINT,
                             "--out-dir", tmp_path / cmd[0]]) == 0
        run = json.loads((tmp_path / "run" / "report.json").read_text())
        compare = json.loads((tmp_path / "compare" / "report.json")
                             .read_text())
        sweep, = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
        assert set(compare) == set(sweep) == {
            "params", "config", "n_trajectories", "n_diverged",
            "divergence_fraction", "reliable", "elapsed_seconds", "backend",
            "workers", "block_size", "group_size"}
        for key in set(compare) - {"elapsed_seconds"}:
            assert run[key] == compare[key] == sweep[key], key
        assert compare["config"]["master_seed"] == 7
        assert compare["n_trajectories"] == 16

    def test_json_is_strict(self, tmp_path):
        # JSON has no literal for a non-finite float: an unbounded
        # threshold is written as the CSV token "inf" in every JSON
        # artifact, and a finite document as json.dumps writes it
        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        point = [*self.POINT, "--divergence-threshold", "inf"]
        for cmd in (["run"], ["compare"],
                    ["sweep", "--axis", "mu", "--values", "0.5",
                     "--source", "mc"]):
            assert run_main([*cmd, *point,
                             "--out-dir", tmp_path / cmd[0]]) == 0
        for path in ("run/report.json", "compare/report.json",
                     "sweep/sweep.json"):
            doc = json.loads((tmp_path / path).read_text(),
                             parse_constant=refuse)
            record = doc[0] if isinstance(doc, list) else doc
            assert record["config"]["divergence_threshold"] == "inf", path
        assert run_main(["run", *self.POINT,
                         "--out-dir", tmp_path / "finite"]) == 0
        text = (tmp_path / "finite" / "report.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        cli._write_json(tmp_path / "tokens.json",
                        {"a": (float("-inf"), float("nan")), "b": 1.5})
        assert json.loads((tmp_path / "tokens.json").read_text(),
                          parse_constant=refuse) == {"a": ["-inf", "nan"],
                                                     "b": 1.5}

    def test_compare_and_sweep_record_kernel_and_divergences(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPO3_WORKERS", "2")
        stepper = _kernels.kernels().step
        # at g=0.5 a threshold of 1.2 cuts 1 of 16 signal excursions
        point = [*FAST, "--g", "0.5", "--n-trajectories", 16,
                 "--n-samples-per-traj", 4, "--divergence-threshold", "1.2"]
        assert run_main(["compare", *point,
                         "--out-dir", tmp_path / "compare"]) == 3
        assert run_main(["sweep", "--axis", "mu", "--values", "0.5,0.3",
                         "--source", "both", *point,
                         "--out-dir", tmp_path / "sweep"]) == 3
        compare = json.loads((tmp_path / "compare" / "report.json")
                             .read_text())
        sweep = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
        assert [r["params"]["mu"] for r in sweep] == [0.5, 0.3]
        for doc in (compare, sweep[0]):
            assert doc["backend"] == (f"{stepper.__module__}."
                                      f"{stepper.__name__}")
            assert doc["workers"] == (
                2 if stepper is _kernels._chunk_step_c else 1)
            assert doc["n_diverged"] == 1
            assert doc["reliable"] is False
        assert (tmp_path / "compare" / "compare.csv").exists()
        assert (tmp_path / "sweep" / "sweep.csv").exists()

    def test_analytic_sweep_records_no_runs(self, tmp_path):
        assert run_main(["sweep", "--axis", "mu", "--values", "0.5",
                         "--out-dir", tmp_path]) == 0
        assert json.loads((tmp_path / "sweep.json").read_text()) == []


class TestClosedFormRange:
    @pytest.mark.parametrize("argv", [
        ["run"], ["compare"],
        ["sweep", "--axis", "mu", "--values", "0.3,0.5", "--source",
         "analytic"],
        ["sweep", "--axis", "gamma_r", "--values", "1,2", "--source",
         "both"]])
    def test_overflowing_coupling_exits_2_before_integrating(
            self, tmp_path, capsys, monkeypatch, argv):
        # g**8, the scale of the closed forms, overflows: each subcommand
        # that evaluates them names g and integrates nothing
        def no_run(*args, **kwargs):
            raise AssertionError("integrated despite an overflowing g")
        monkeypatch.setattr(cli, "run_ensemble", no_run)
        rc = run_main([*argv, *FAST, "--g", "1e39", "--out-dir", tmp_path])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: g = 1e+39 is too large")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_run_settings_refused_before_closed_forms(self, tmp_path,
                                                      capsys):
        # gamma_r = 1e200 overflows the closed forms, but `run` names the
        # step count its burn-in would need first, as the engine does;
        # an analytic sweep names gamma_r
        rc = run_main(["run", "--gamma-r", "1e200", "--out-dir", tmp_path])
        assert rc == 2
        assert "needs too many steps" in capsys.readouterr().err
        rc = run_main(["sweep", "--axis", "gamma_r", "--values", "1,1e200",
                       "--source", "analytic", "--out-dir", tmp_path])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: gamma_r = 1e+200 is too large")
        assert list(tmp_path.iterdir()) == []

    def test_tiny_pump_runs_without_warnings(self, tmp_path):
        # at mu = 1e-320 the pump moments underflow to subnormals or 0;
        # the run finishes and no warning is printed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_main(["run", *FAST, "--mu", "1e-320",
                           "--n-trajectories", 16, "--n-samples-per-traj",
                           4, "--out-dir", tmp_path])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["moments"]["n_batches"] == 16


class TestOutputDirectory:
    @pytest.mark.parametrize("argv", [
        ["run"],
        ["sweep", "--axis", "mu", "--values", "0.3", "--source", "both"],
        ["compare"]])
    def test_unusable_out_dir_exits_2_before_integrating(
            self, tmp_path, capsys, monkeypatch, argv):
        def no_run(*args, **kwargs):
            raise AssertionError("integrated despite an unusable out_dir")
        monkeypatch.setattr(cli, "run_ensemble", no_run)
        blocker = tmp_path / "taken"
        blocker.write_text("a file, not a directory\n")
        rc = run_main([*argv, *FAST, "--n-trajectories", 4,
                       "--n-samples-per-traj", 2, "--out-dir", blocker])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert blocker.read_text() == "a file, not a directory\n"

    def test_unwritable_report_exits_2(self, tmp_path, capsys):
        (tmp_path / "report.json").mkdir()
        rc = run_main(["run", *FAST, "--n-trajectories", 4,
                       "--n-samples-per-traj", 2, "--out-dir", tmp_path])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_io_error_while_integrating_is_not_input_error(
            self, tmp_path, monkeypatch):
        def failing_run(*args, **kwargs):
            raise OSError("worker pool lost")
        monkeypatch.setattr(cli, "run_ensemble", failing_run)
        with pytest.raises(OSError, match="worker pool lost"):
            run_main(["run", *FAST, "--out-dir", tmp_path])


class TestPackage:
    def test_all_names_resolve_once(self):
        assert len(opo3.__all__) == len(set(opo3.__all__))
        assert [n for n in opo3.__all__ if not hasattr(opo3, n)] == []

    @pytest.mark.skipif(shutil.which("cc") is None,
                        reason="no C compiler (cc) on PATH")
    def test_integrating_loads_only_what_it_needs(self):
        # on a warm kernel cache, importing the package and integrating one
        # trajectory loads neither the build's subprocess, numpy.random
        # (nor the hashlib it brings in), the moment layer, the numpy
        # oracle, the criteria or the closed forms (nor their logging); the
        # lazy names are listed all the same and resolve to their modules'
        # own objects, and the quadrature map is the model's everywhere
        code = (
            "import json, sys, opo3\n"
            "opo3.simulate_trajectory(opo3.ModelParams(0.5, 1.0, 0.05), "
            "opo3.SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0, "
            "n_samples_per_traj=1, n_trajectories=1))\n"
            "loaded = [m for m in ('subprocess', 'numpy.random', 'hashlib', "
            "'logging', 'opo3.moments', 'opo3._oracle', 'opo3.criteria', "
            "'opo3.analytic') if m in sys.modules]\n"
            "unlisted = sorted(set(opo3.__all__) - set(dir(opo3)))\n"
            "stepper = opo3._kernels.kernels().step.__name__\n"
            "own = all(getattr(sys.modules[getattr(opo3, n).__module__], n) "
            "is getattr(opo3, n) for n in opo3.__all__ if n != '__version__')\n"
            "print(json.dumps([loaded, unlisted, stepper, own, "
            "opo3.cs_test is opo3.criteria.cs_test, "
            "opo3.CsSides is opo3.analytic.CsSides, "
            "opo3.state_channels is opo3.moments.state_channels "
            "is opo3.model.state_channels]))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=package_env())
        assert out.returncode == 0, out.stderr
        loaded, unlisted, stepper, own, *same = json.loads(out.stdout)
        assert stepper == "_chunk_step_c"
        assert loaded == []
        assert unlisted == []
        assert own and all(same)

    def test_build_copies_the_c_source(self, tmp_path):
        # the C kernel's source is package data: setuptools' build_py,
        # run on a copy of the project (it writes an egg-info into the
        # tree it runs in), installs it beside the modules, byte for byte
        pytest.importorskip("setuptools")
        root = PYPROJECT.parent
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(root / name, tmp_path / name)
        shutil.copytree(root / "src", tmp_path / "src", ignore=(
            shutil.ignore_patterns("__pycache__", "*.egg-info")))
        out = subprocess.run(
            [sys.executable, "-c", "import setuptools; setuptools.setup()",
             "build_py", "--build-lib", str(tmp_path / "lib")],
            capture_output=True, text=True, cwd=tmp_path, timeout=300)
        assert out.returncode == 0, out.stderr
        built = tmp_path / "lib" / "opo3" / "_kernels.c"
        assert built.read_bytes() == _kernels._C_FILE.read_bytes()

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            opo3.no_such_name
        assert not hasattr(opo3, "cs_tests")
        assert {"cs_test", "CsSides", "run_ensemble"} <= set(dir(opo3))


class TestEntryPoints:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_missing_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_entry_bad_value(self):
        out = subprocess.run(
            [sys.executable, "-m", "opo3.cli", "run", "--dt", "bogus"],
            capture_output=True, text=True, env=package_env())
        assert out.returncode == 2
        assert "bad value for dt" in out.stderr

    def test_package_module_entry(self):
        # `python -m opo3` from the checkout stands in for `opo3`
        out = subprocess.run(
            [sys.executable, "-m", "opo3", "run", "--help"],
            capture_output=True, text=True, env=package_env(),
            cwd=PYPROJECT.parent)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("usage: opo3 run")

    def test_one_worker_run_leaves_multiprocessing_unimported(self):
        # workers are threads inside the C kernel, so neither a one-worker
        # trajectory nor a two-worker ensemble of two blocks loads
        # multiprocessing
        code = ("import sys, opo3\n"
                "p = opo3.ModelParams(0.5, 1.0, 0.05)\n"
                "cfg = opo3.SimConfig(dt=0.05, burn_in=20.0, "
                "sample_interval=2.0, n_samples_per_traj=1, "
                "n_trajectories=opo3.engine.BLOCK_SIZE + 1)\n"
                "opo3.simulate_trajectory(p, cfg)\n"
                "opo3.run_ensemble(p, cfg, workers=2)\n"
                "print('multiprocessing' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=package_env())
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_console_script_version(self):
        # The `opo3` executable exists only after a pip install; from a
        # checkout, check the declared entry point and run it the way
        # pip's generated wrapper does.
        project = read_pyproject()["project"]
        target = project["scripts"]["opo3"]
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))
        wrapper = (f"import sys; from {module} import {attr}; "
                   f"sys.argv[0] = 'opo3'; sys.exit({attr}())")
        out = subprocess.run(
            [sys.executable, "-c", wrapper, "--version"],
            capture_output=True, text=True, env=package_env())
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == project["version"]
        assert out.stdout.strip() == opo3.__version__

    @pytest.mark.skipif(shutil.which("opo3") is None,
                        reason="no opo3 console script on PATH")
    def test_installed_console_script_version(self):
        out = subprocess.run(["opo3", "--version"],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == read_pyproject()["project"]["version"]
