"""Batch front-end: runs, sweeps, and analytic-vs-Monte-Carlo comparisons.

Configuration is plain `key = value` text (# comments allowed) with
command-line flags taking precedence over the file, which takes precedence
over defaults.  Keys:

    mu, gamma_r, g, dt, burn_in, sample_interval, n_samples_per_traj,
    n_trajectories, master_seed, divergence_threshold, sigma_threshold,
    out_dir

dt, burn_in and sample_interval accept "auto" (or empty) to defer to the
engine's resolution rules.  Unknown keys are rejected.

Every integrated ensemble leaves its record (`EnsembleResult.record`):
`run` writes report.json (the record, moments, criteria and closed
forms) and timeseries.csv; `compare` writes the record as report.json
beside compare.csv, whose `within_threshold` column holds
|pull| <= sigma_threshold; `sweep` writes sweep.csv and, beside it,
sweep.json, the list of its Monte-Carlo points' records.

Exit codes: 0 ok, 2 invalid input (including too few trajectories or
samples for error bars, and an out_dir that cannot be made, checked
before any integration, or written), 3 unreliable run (more than 1% of
some run's trajectories diverged).  An unreliable run still writes its
report.json or sweep.json, and `run` its timeseries.csv; when
divergences leave no estimate, `compare` writes no compare.csv and
`sweep` no sweep.csv.  The OPO3_WORKERS environment variable sets the C
kernel's thread count.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import __version__
from .analytic import analytic_moment_report, cs_sides_analytic
from .criteria import (
    PARTITIONS,
    _significance,
    check_sigma_threshold,
    cs_running_average,
    cs_test,
    pair_audit,
    pump_odd_moment,
    separability_witness,
)
from .engine import SimConfig, run_ensemble
from .model import ModelParams
from .moments import NoSamplesError


class CliError(ValueError):
    """User-input problem; maps to exit code 2."""


EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNRELIABLE = 3


@dataclass(frozen=True)
class RunSpec:
    """Fully resolved invocation settings (model + run + output); the
    engine's settings default to SimConfig's defaults."""

    mu: float = 0.5
    gamma_r: float = 1.0
    g: float = 0.05
    dt: float | None = SimConfig.dt
    burn_in: float | None = SimConfig.burn_in
    sample_interval: float | None = SimConfig.sample_interval
    n_samples_per_traj: int = SimConfig.n_samples_per_traj
    n_trajectories: int = SimConfig.n_trajectories
    master_seed: int = SimConfig.master_seed
    divergence_threshold: float = SimConfig.divergence_threshold
    sigma_threshold: float = 3.0
    out_dir: str = "."

    def params(self) -> ModelParams:
        return ModelParams(mu=self.mu, gamma_r=self.gamma_r, g=self.g)

    def sim_config(self) -> SimConfig:
        return SimConfig(**{f.name: getattr(self, f.name)
                            for f in fields(SimConfig)})


CONFIG_KEYS = tuple(f.name for f in fields(RunSpec))
# key -> (kind, optional): a `float | None` field is (float, True)
_KINDS = {key: ((typing.get_args(hint) or (hint,))[0],
                type(None) in typing.get_args(hint))
          for key, hint in typing.get_type_hints(RunSpec).items()}


def _convert(key: str, raw: str):
    raw = raw.strip()
    if key not in _KINDS:
        raise CliError(f"unknown config key: {key}")
    kind, optional = _KINDS[key]
    if optional and raw.lower() in ("", "auto", "none"):
        return None
    try:
        return kind(raw)
    except ValueError:
        raise CliError(f"bad value for {key}: {raw!r}")


def parse_config_file(path: str) -> dict:
    """Read key=value lines; '#' starts a comment; unknown keys rejected."""
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key = value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: unknown config key: {key}")
        out[key] = _convert(key, raw)
    return out


def build_runspec(args: argparse.Namespace) -> RunSpec:
    spec = RunSpec()
    if getattr(args, "config", None):
        spec = replace(spec, **parse_config_file(args.config))
    overrides = {}
    for key in CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is None:
            continue
        # optional (auto-resolved) flags arrive as strings ("auto" allowed)
        overrides[key] = _convert(key, val) if _KINDS[key][1] else val
    if getattr(args, "seed", None) is not None:
        overrides["master_seed"] = int(args.seed)
    if overrides:
        spec = replace(spec, **overrides)
    check_sigma_threshold(spec.sigma_threshold)
    return spec


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return format(x, ".12g") if isinstance(x, float) else str(x)


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write(path, "\n".join(lines) + "\n")


def _write_json(path: Path, doc) -> None:
    _write(path, json.dumps(doc, indent=2) + "\n")


TIMESERIES_HEADER = "tau,n_samples,lhs,rhs,ratio"
SWEEP_HEADER = ("mu,gamma_r,g,source,lhs,rhs,ratio,significance,verdict,"
                "n_diverged,reliable")
COMPARE_HEADER = ("moment,mc_value,mc_std_error,analytic_value,pull,"
                  "within_threshold,low_confidence")


def _out_dir(spec: RunSpec) -> Path:
    """The output directory, made before any integration."""
    out_dir = Path(spec.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot make out_dir {out_dir}: {exc}") from exc
    return out_dir


def _integrate(spec: RunSpec, **kwargs):
    """(result, its record, its reference-centered moments) of the ensemble
    at `spec`; the moments are None when divergences left too few
    trajectories for an estimate."""
    result = run_ensemble(spec.params(), spec.sim_config(), **kwargs)
    try:
        report = result.report()
    except NoSamplesError:
        if result.reliable:
            raise   # too few trajectories requested: invalid input
        report = None
    return result, result.record(), report


def _exit_code(records: list, estimated: bool, axis: str | None = None) -> int:
    """EXIT_OK, or EXIT_UNRELIABLE after the one warning when some record
    is unreliable; a sweep names its points by `axis`, and `estimated`
    says whether the last run left an estimate."""
    bad = [r for r in records if not r["reliable"]]
    if not bad:
        return EXIT_OK
    points = "".join(f"; {axis}={r['params'][axis]:g}: {r['n_diverged']}/"
                     f"{r['n_trajectories']} diverged" for r in bad if axis)
    print(f"warning: unreliable run: {sum(r['n_diverged'] for r in bad)}/"
          f"{sum(r['n_trajectories'] for r in bad)} trajectories diverged"
          f"{points}{'' if estimated else ', leaving no estimate'}",
          file=sys.stderr)
    return EXIT_UNRELIABLE


def cmd_run(spec: RunSpec) -> int:
    out_dir = _out_dir(spec)
    result, record, report = _integrate(spec, collect_time_series=True)
    params, k = result.params, spec.sigma_threshold

    criteria = {}
    if report is not None:
        for part in sorted(PARTITIONS):
            criteria[f"cauchy_schwarz_{part.replace('|', '_')}"] = cs_test(
                report, partition=part, sigma_threshold=k).to_dict()
        criteria["separability_witness"] = separability_witness(
            report, sigma_threshold=k).to_dict()
        criteria["pair_audit"] = pair_audit(report, sigma_threshold=k).to_dict()
        criteria["pump_odd_moment"] = pump_odd_moment(
            report, sigma_threshold=k).to_dict()

    analytic_rep = analytic_moment_report(params)
    sides = cs_sides_analytic(params)
    _write_json(out_dir / "report.json", {
        "version": __version__,
        **record,
        "sigma_threshold": k,
        "moments": report.to_dict() if report is not None else None,
        "criteria": criteria,
        "analytic": {
            "moments": analytic_rep.to_dict(),
            "cauchy_schwarz": {"lhs": sides.lhs, "rhs": sides.rhs,
                               "ratio": sides.ratio, "verdict": sides.verdict},
        },
    })

    if result.moments.per_sample_sums is not None:
        curves = cs_running_average(result)
        rows = ([float(t), int(n), float(l), float(r), float(q)]
                for t, n, l, r, q in zip(curves["tau"], curves["n_samples"],
                                         curves["lhs"], curves["rhs"],
                                         curves["ratio"]))
    else:
        rows = ()
    _write_csv(out_dir / "timeseries.csv", TIMESERIES_HEADER, rows)

    n_kept = report.n_samples if report is not None else 0
    print(f"run: mu={params.mu} gamma_r={params.gamma_r} g={params.g} "
          f"n_samples={n_kept} diverged={result.n_diverged}")
    if "cauchy_schwarz_0_12" in criteria:
        cs0 = criteria["cauchy_schwarz_0_12"]
        print(f"cauchy-schwarz 0|12: {cs0['verdict']} "
              f"(ratio={_fmt(cs0['ratio'])}, "
              f"significance={_fmt(cs0['significance'])})")
    print(f"wrote {out_dir / 'report.json'} and {out_dir / 'timeseries.csv'}")
    return _exit_code([record], report is not None)


def _sweep_values(raw: str) -> list:
    try:
        vals = [float(v) for v in raw.split(",") if v.strip() != ""]
    except ValueError:
        raise CliError(f"bad sweep values: {raw!r}")
    if not vals:
        raise CliError("empty sweep axis")
    seen = []
    for v in vals:
        if v in seen:
            print(f"warning: duplicate sweep value {v:g} dropped",
                  file=sys.stderr)
        else:
            seen.append(v)
    return seen


def _criterion_row(params: ModelParams, source: str, crit,
                   n_diverged: int = 0, reliable: bool = True) -> list:
    return [params.mu, params.gamma_r, params.g, source,
            crit.lhs, crit.rhs, crit.ratio, crit.significance, crit.verdict,
            n_diverged, "true" if reliable else "false"]


def cmd_sweep(spec: RunSpec, axis: str, values_raw: str, source: str) -> int:
    values = _sweep_values(values_raw)
    out_dir = _out_dir(spec)
    rows, records = [], []
    for v in values:
        point = replace(spec, **{axis: v})
        params = point.params()
        if source != "mc":
            crit = cs_test(analytic_moment_report(params),
                           sigma_threshold=point.sigma_threshold)
            rows.append(_criterion_row(params, "analytic", crit))
        if source != "analytic":
            _, record, report = _integrate(point)
            records.append(record)
            if report is None:      # no estimate at this point: no sweep.csv
                rows = None
                break
            crit = cs_test(report, sigma_threshold=point.sigma_threshold)
            rows.append(_criterion_row(params, "mc", crit,
                                       record["n_diverged"],
                                       record["reliable"]))
    if rows is not None:
        path = out_dir / "sweep.csv"
        _write_csv(path, SWEEP_HEADER, rows)
        for row in rows:
            print(f"{axis}={row[0] if axis == 'mu' else row[1]:g} "
                  f"[{row[3]}] ratio={_fmt(row[6])} verdict={row[8]}")
        print(f"wrote {path}")
    _write_json(out_dir / "sweep.json", records)
    print(f"wrote {out_dir / 'sweep.json'}")
    return _exit_code(records, rows is not None, axis)


COMPARE_MOMENTS = ("t1", "t2", "t3", "t4", "q4", "var_x0",
                   "cov_x_xp", "cov_y_yp")


def cmd_compare(spec: RunSpec) -> int:
    out_dir = _out_dir(spec)
    _, record, report = _integrate(spec)
    _write_json(out_dir / "report.json", record)
    if report is not None:
        k = spec.sigma_threshold
        analytic_rep = analytic_moment_report(spec.params())
        rows = []
        for name in COMPARE_MOMENTS:
            mc = report[name]
            an = analytic_rep[name].value.real
            pull = _significance(mc.value.real - an, mc.std_error)
            rows.append([name, mc.value.real, mc.std_error, an, pull,
                         abs(pull) <= k, mc.low_confidence])
        path = out_dir / "compare.csv"
        _write_csv(path, COMPARE_HEADER, rows)
        print(f"{'moment':10s} {'mc':>14s} {'std_err':>10s} "
              f"{'analytic':>14s} {'pull':>7s}")
        for name, mcv, se, an, pull, ok, low in rows:
            flag = "" if ok else f"  <-- outside {k:g} sigma"
            low_s = " (low confidence)" if low else ""
            print(f"{name:10s} {mcv:14.6e} {se:10.2e} {an:14.6e} "
                  f"{pull:7.2f}{flag}{low_s}")
        within = all(row[5] for row in rows)
        print(f"summary: {'all pulls within' if within else 'pulls outside'}"
              f" +-{k:g}; wrote {path}")
        if any(row[6] for row in rows):
            print("warning: fewer than 30 trajectory batches; "
                  "errors are low-confidence", file=sys.stderr)
    print(f"wrote {out_dir / 'report.json'}")
    return _exit_code([record], report is not None)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file")
    for key, (kind, optional) in _KINDS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key,
                       type=str if optional else kind)
        if key == "master_seed":
            p.add_argument("--seed", type=int, help="alias for --master-seed")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opo3",
        description="Three-mode OPO simulator: positive-P trajectories, "
                    "moment estimation, Cauchy-Schwarz nonclassicality tests.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate an ensemble, write "
                                       "report.json and timeseries.csv")
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="scan gamma_r or mu; write sweep.csv")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=("gamma_r", "mu"))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    p_sweep.add_argument("--source", default="analytic",
                         choices=("analytic", "mc", "both"))

    p_cmp = sub.add_parser("compare", help="Monte Carlo vs analytic moment "
                                           "table; write compare.csv")
    _add_common(p_cmp)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        spec = build_runspec(args)
        if args.command == "run":
            return cmd_run(spec)
        if args.command == "sweep":
            return cmd_sweep(spec, args.axis, args.values, args.source)
        return cmd_compare(spec)
    except ValueError as exc:    # CliError and the model's input errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
