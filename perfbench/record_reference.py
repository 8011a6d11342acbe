"""Record the physics checksums the benchmark holds every commit to.

    python3 perfbench/record_reference.py

Runs each engine workload, at full and tiny size, once at the reference
seed and writes `perfbench/reference.json`.  Record only at a commit
whose physics is trusted.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def main() -> int:
    checksums = {}
    for scale, table in workloads.WORKLOADS.items():
        checksums[scale] = {}
        for name, run in table.items():
            if run.kind != "engine":
                continue
            rc = run.execute(run.prepare(workloads.REFERENCE_SEED))
            if rc != 0:
                print(f"{scale} {name}: exit code {rc}", file=sys.stderr)
                return 1
            checksums[scale][name] = workloads.physics_checksum(
                run.read_report())
            print(scale, name, checksums[scale][name])
    doc = {"seed": workloads.REFERENCE_SEED, "checksums": checksums}
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
