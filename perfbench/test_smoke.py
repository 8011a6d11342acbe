"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs through the same code path as a measured run, with
tracing off and on, and every metric BENCHMARK.json names must appear
with its unit.  A perturbed reference checksum must make the run count
as failed, and a directory holding only the benchmark files, without the
package sources, must make the command fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "0",
           "--scale", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_named_with_its_unit(workload, trace):
    res = last_json(bench("--workload", workload, "--seed", "7",
                          "--trace", str(trace)))
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 4
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in res["metrics"].values())


def test_perturbed_reference_checksum_counts_as_failed():
    ref = json.loads((BENCH / "reference.json").read_text())
    ref["checksums"]["tiny"]["ensemble-wide"]["t1"] *= 1 + 1e-6
    SCRATCH.mkdir(exist_ok=True)
    path = SCRATCH / "perturbed-reference.json"
    path.write_text(json.dumps(ref))
    proc = bench("--workload", "ensemble-wide", "--seed", "7",
                 "--trace", "0", "--reference", str(path))
    res = last_json(proc)
    assert not res["correct"] and res["failed"] == 1
    assert "checksum t1" in proc.stderr


def test_fails_without_package_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "ensemble-wide", "--seed", "7",
                 "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
