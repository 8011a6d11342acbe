"""The benchmark's workloads and the checks on their outputs.

Three engine workloads run the `opo3 run` command in-process through
`opo3.cli.main`; `moments-wide` drives the moment accumulator and the
criteria on a synthetic channel cube, with no integration.  Every
workload builds its inputs from the seed it is given, so one seed always
gives one set of inputs.

Engine outputs are checked two ways.  At REFERENCE_SEED the physics
checksum (a few moments to full precision and the 0|12 verdict) must
match `reference.json` within CHECKSUM_RTOL, a tolerance that a compiled
kernel differing from numpy in the last bit passes and that is far below
one standard error.  At any other seed the Monte-Carlo pulls against the
perturbative closed forms must stay within PULL_BOUND standard errors.
`moments-wide` is checked against a direct numpy mean-of-products oracle
on the same cube.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from opo3 import analytic, cli, criteria, engine, model, moments

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

REFERENCE_SEED = 12345
CHECKSUM_RTOL = 1e-9
CHECKSUM_MOMENTS = ("t1", "q4", "var_x0", "amp_n1n2", "mean_x0")
# the moments `opo3 compare` and acceptance criterion 2 hold against theory
PULL_MOMENTS = ("t1", "t2", "t3", "t4", "q4", "var_x0", "cov_x_xp", "cov_y_yp")
PULL_BOUND = 7.0
ORACLE_RTOL = 1e-8

# computed traffic of one trajectory-step in the kernel: six complex128
# amplitudes read and written, four float64 normals read
BYTES_PER_TRAJ_STEP = 6 * 16 * 2 + 4 * 8


@dataclass(frozen=True)
class EngineRun:
    """One `opo3 run` invocation at a fixed physics point and size."""

    name: str
    mu: float
    gamma_r: float
    g: float
    dt: float
    burn_in: float
    sample_interval: float
    n_samples_per_traj: int
    n_trajectories: int
    workers: int

    kind = "engine"

    def params(self) -> model.ModelParams:
        return model.ModelParams(mu=self.mu, gamma_r=self.gamma_r, g=self.g)

    def sim_config(self, seed: int) -> engine.SimConfig:
        return engine.SimConfig(
            dt=self.dt, burn_in=self.burn_in,
            sample_interval=self.sample_interval,
            n_samples_per_traj=self.n_samples_per_traj,
            n_trajectories=self.n_trajectories, master_seed=seed)

    def resolved(self, seed: int) -> engine.ResolvedConfig:
        return self.sim_config(seed).resolve(self.params())

    def out_dir(self) -> Path:
        return OUT_DIR / self.name

    def prepare(self, seed: int) -> list:
        """The `opo3 run` argument vector for this seed."""
        return ["run", "--mu", repr(self.mu), "--gamma-r", repr(self.gamma_r),
                "--g", repr(self.g), "--dt", repr(self.dt),
                "--burn-in", repr(self.burn_in),
                "--sample-interval", repr(self.sample_interval),
                "--n-samples-per-traj", str(self.n_samples_per_traj),
                "--n-trajectories", str(self.n_trajectories),
                "--seed", str(seed), "--out-dir", str(self.out_dir())]

    def execute(self, argv: list) -> int:
        os.environ["OPO3_WORKERS"] = str(self.workers)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def work(self, seed: int) -> dict:
        rcfg = self.resolved(seed)
        return {"samples": self.n_trajectories * self.n_samples_per_traj,
                "traj_steps": self.n_trajectories * rcfg.total_steps}

    def read_report(self) -> dict:
        return json.loads((self.out_dir() / "report.json").read_text())

    def check(self, seed: int, rc: int, reference: dict) -> tuple:
        """Problems with the last execution's output, and its checksum."""
        if rc != 0:
            return [f"exit code {rc}"], None
        doc = self.read_report()
        problems = []
        if doc["n_diverged"] != 0 or not doc["reliable"]:
            problems.append(f"{doc['n_diverged']} trajectories diverged")
        rep = doc["moments"]
        want = self.n_trajectories * self.n_samples_per_traj
        if rep["n_samples"] != want or rep["n_batches"] != self.n_trajectories:
            problems.append(f"report holds {rep['n_samples']} samples in "
                            f"{rep['n_batches']} batches, expected {want} in "
                            f"{self.n_trajectories}")
        rows = (self.out_dir() / "timeseries.csv").read_text().splitlines()
        if len(rows) != 1 + self.n_samples_per_traj:
            problems.append(f"timeseries.csv has {len(rows) - 1} rows")
        checksum = physics_checksum(doc)
        if seed == REFERENCE_SEED:
            problems += compare_checksum(checksum, reference.get(self.name))
        else:
            problems += self.check_pulls(rep["moments"])
        return problems, checksum

    def check_pulls(self, mc: dict) -> list:
        theory = analytic.analytic_moment_report(self.params())
        problems = []
        for name in PULL_MOMENTS:
            value, se = mc[name]["value"][0], mc[name]["std_error"]
            gap = value - theory[name].value.real
            pull = gap / se if se > 0 else math.inf
            if not abs(pull) <= PULL_BOUND:
                problems.append(f"{name}: pull {pull:.2f} against the closed "
                                f"form exceeds {PULL_BOUND}")
        return problems


def physics_checksum(doc: dict) -> dict:
    mc = doc["moments"]["moments"]
    out = {name: mc[name]["value"][0] for name in CHECKSUM_MOMENTS}
    out["verdict_0_12"] = doc["criteria"]["cauchy_schwarz_0_12"]["verdict"]
    return out


def compare_checksum(got: dict, want: dict | None) -> list:
    if want is None:
        return ["no reference checksum recorded"]
    problems = []
    for key, ref in want.items():
        val = got.get(key)
        if isinstance(ref, str):
            ok = val == ref
        else:
            ok = val is not None and abs(val - ref) <= CHECKSUM_RTOL * abs(ref)
        if not ok:
            problems.append(f"checksum {key}: got {val!r}, reference {ref!r}")
    return problems


@dataclass(frozen=True)
class MomentsRun:
    """Accumulate, merge, finalize and test a synthetic channel cube.

    The cube holds n_batches per-trajectory batches of n_samples each:
    state_channels of complex Gaussian states around the fixed point.  It
    is fed through add_batches in slices into shard accumulators, which
    are merged; finalize then runs under every centering and the criteria
    on the result.
    """

    name: str
    n_batches: int
    n_samples: int
    slice_width: int = 256
    n_shards: int = 8
    spread: float = 0.3

    kind = "moments"
    workers = 1
    params_point = (0.5, 1.0, 0.05)

    def params(self) -> model.ModelParams:
        return model.ModelParams(*self.params_point)

    def prepare(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        shape = (6, self.n_batches, self.n_samples)
        centre = model.fixed_point(self.params()).as_array()
        states = centre[:, None, None] + self.spread * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        return moments.state_channels(states, self.params())

    def execute(self, cube: np.ndarray) -> dict:
        schema = moments.opo_schema(self.params())
        shards = [moments.MomentAccumulator(schema)
                  for _ in range(self.n_shards)]
        bounds = np.linspace(0, self.n_batches, self.n_shards + 1).astype(int)
        for acc, start, stop in zip(shards, bounds[:-1], bounds[1:]):
            for lo in range(start, stop, self.slice_width):
                acc.add_batches(cube[:, lo:min(lo + self.slice_width, stop)])
        acc = shards[0]
        for other in shards[1:]:
            acc = moments.merge(acc, other)
        reports = {c: acc.finalize(centering=c) for c in moments.CENTERINGS}
        ref = reports["reference"]
        return {
            "reports": reports,
            "cs": {p: criteria.cs_test(ref, partition=p)
                   for p in sorted(criteria.PARTITIONS)},
            "witness": criteria.separability_witness(ref),
            "audit": criteria.pair_audit(ref),
            "odd": criteria.pump_odd_moment(ref),
        }

    def work(self, seed: int) -> dict:
        return {"samples": self.n_batches * self.n_samples, "traj_steps": 0}

    def check(self, cube: np.ndarray, out: dict, oracle: dict) -> list:
        problems = []
        for centering, rep in out["reports"].items():
            if rep.n_samples != cube.shape[1] * cube.shape[2] \
                    or rep.n_batches != cube.shape[1]:
                problems.append(f"{centering}: wrong sample or batch count")
            for name, (want, scale) in oracle[centering].items():
                got = rep[name].value
                if not abs(got - want) <= ORACLE_RTOL * scale:
                    problems.append(f"{centering} {name}: finalize {got!r}, "
                                    f"oracle {want!r}")
        ref = oracle["reference"]
        for name, want in oracle["mean_se"].items():
            got = out["reports"]["reference"][name].std_error
            if not abs(got - want) <= ORACLE_RTOL * want:
                problems.append(f"{name}: jackknife error {got!r}, "
                                f"batch-means error {want!r}")
        for part, (qname, pname) in criteria.PARTITIONS.items():
            res = out["cs"][part]
            lhs = ref[qname][0].real * ref[pname][0].real
            rhs = abs(ref["amp_triple"][0]) ** 2
            if not (math.isclose(res.lhs, lhs, rel_tol=ORACLE_RTOL)
                    and math.isclose(res.rhs, rhs, rel_tol=ORACLE_RTOL)):
                problems.append(f"cs_test {part}: sides ({res.lhs!r}, "
                                f"{res.rhs!r}), oracle ({lhs!r}, {rhs!r})")
        triples = [row[1] for row in out["witness"].triples]
        if not all(math.isclose(v, ref[n][0].real, rel_tol=ORACLE_RTOL)
                   for v, n in zip(triples, ("t1", "t2", "t3", "t4"))):
            problems.append("separability_witness triples differ from oracle")
        audited = [row[1] for row in out["audit"].entries]
        if not all(math.isclose(v, ref[n][0].real, rel_tol=ORACLE_RTOL)
                   for v, n in zip(audited, ("cov_x0_x", "cov_x0_y",
                                             "cov_y0_x", "cov_y0_y"))):
            problems.append("pair_audit covariances differ from oracle")
        if not math.isclose(out["odd"].value, ref["skew_x0"][0].real,
                            rel_tol=ORACLE_RTOL):
            problems.append("pump_odd_moment differs from oracle")
        return problems


def moments_oracle(cube: np.ndarray, params: model.ModelParams) -> dict:
    """Every OPO target under every centering, as direct sample means.

    Returns {centering: {target: (value, scale)}} where scale is the mean
    absolute size of the summed products, against which rounding in the
    accumulator's inclusion-exclusion is judged; plus "mean_se", the
    batch-means standard error of each plain-mean target.
    """
    schema = moments.opo_schema(params)
    index = {c.name: i for i, c in enumerate(schema.channels)}
    centres = np.array([c.center for c in schema.channels])
    shiftable = np.array([c.shiftable for c in schema.channels])
    v = cube.reshape(cube.shape[0], -1) - centres[:, None]
    means = v.mean(axis=1)
    shifts = {
        "reference": np.where(shiftable, means, 0.0),
        "sample": means,
        "none": np.zeros_like(means),
        "raw": -centres,
    }
    out = {}
    for centering, shift in shifts.items():
        d = v - shift[:, None]
        entries = {}
        for tgt in schema.targets:
            base = d if tgt.apply_shift else v
            value, scale = complex(tgt.offset), abs(tgt.offset)
            for coef, mult in tgt.terms:
                prod = np.prod([base[index[ch]] for ch in mult], axis=0)
                value += coef * prod.mean()
                scale += abs(coef) * np.abs(prod).mean()
            entries[tgt.name] = (value, scale)
        out[centering] = entries
    n_batches = cube.shape[1]
    mean_se = {}
    for tgt in schema.targets:
        if tgt.apply_shift:
            continue
        (_, (ch,)), = tgt.terms
        batch_means = cube[index[ch]].real.mean(axis=1)
        mean_se[tgt.name] = float(np.sqrt(
            batch_means.var(ddof=1) / n_batches))
    out["mean_se"] = mean_se
    return out


def _ensemble(name, workers, n_trajectories, n_samples):
    return EngineRun(name, mu=0.5, gamma_r=1.0, g=0.05, dt=0.01,
                     burn_in=20.0, sample_interval=2.0,
                     n_samples_per_traj=n_samples,
                     n_trajectories=n_trajectories, workers=workers)


def _stiff(n_trajectories, n_samples):
    # the fast pump pins dt at its ceiling 0.05/gamma_r while the burn-in
    # floor stays 10/(1 - mu): many steps of a narrow block
    return EngineRun("trajectory-stiff", mu=0.5, gamma_r=25.0, g=0.05,
                     dt=2e-3, burn_in=20.0, sample_interval=2.0,
                     n_samples_per_traj=n_samples,
                     n_trajectories=n_trajectories, workers=1)


# full size for measurement, tiny size for the smoke test; the tiny
# ensembles keep two blocks so that the pool still starts
WORKLOADS = {
    "full": {
        "ensemble-wide": _ensemble("ensemble-wide", 1, 1024, 4),
        "trajectory-stiff": _stiff(128, 8),
        "moments-wide": MomentsRun("moments-wide", n_batches=16384,
                                   n_samples=8),
        "ensemble-pool": _ensemble("ensemble-pool", 2, 1024, 4),
    },
    "tiny": {
        "ensemble-wide": _ensemble("ensemble-wide", 1, 260, 2),
        "trajectory-stiff": _stiff(8, 2),
        "moments-wide": MomentsRun("moments-wide", n_batches=1024,
                                   n_samples=4),
        "ensemble-pool": _ensemble("ensemble-pool", 2, 260, 2),
    },
}


def load_reference(path: Path) -> dict:
    """Recorded checksums, {scale: {workload: checksum}}."""
    doc = json.loads(Path(path).read_text())
    if doc["seed"] != REFERENCE_SEED:
        raise ValueError(f"{path}: reference seed {doc['seed']} is not "
                         f"{REFERENCE_SEED}")
    return doc["checksums"]
