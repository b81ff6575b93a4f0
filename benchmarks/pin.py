"""Write pinned.json: the seed-0 outputs every later op is checked against.

    python3 benchmarks/pin.py

Runs one op of each workload at seed 0 through the same set-up and op
code as a benchmark run, and stores the effective matrices and CSV
percent columns it produced. Pin once, at the commit whose numbers are
the reference; a program change that moves any of them by more than
checks.REL_TOL then fails the benchmark's output check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (MESH_SEED, THREADS, WORKLOADS,  # noqa: E402
                       orientation_seed)

os.environ.update(THREADS)          # before numpy is first imported

import checks  # noqa: E402
import child  # noqa: E402
from run import WORK  # noqa: E402

SEED = 0


def pin_workload(cli, workload) -> dict:
    paths = child.Paths(WORK / "pin" / workload.name)
    shutil.rmtree(paths.work, ignore_errors=True)
    paths.work.mkdir(parents=True)
    if child.setup(workload, SEED, paths) != 0:
        raise SystemExit(f"{workload.name}: set-up failed")
    op = child.OpRunner(cli, workload, paths, None).run()
    if op["problems"]:
        raise SystemExit(f"{workload.name}: {op['problems']}")
    pinned = {}
    for name, data in op["files"].items():
        text = data.decode()
        if name.startswith(checks.CACHE_PREFIX):
            pinned["reference"] = checks.result_summary(text)
        elif name == "result.json":
            pinned[name] = checks.result_summary(text)
        elif name.endswith(".csv") and name != "effective.csv":
            pinned[name] = checks.csv_summary(text)
    return pinned


def main() -> int:
    cli = child.import_polyvem()
    doc = {
        "about": f"seed {SEED}: mesh seed {MESH_SEED}, orientation seed "
                 f"{orientation_seed(SEED)}; written by benchmarks/pin.py",
        "rel_tol": checks.REL_TOL,
        "workloads": {name: {str(SEED): pin_workload(cli, w)}
                      for name, w in WORKLOADS.items()},
    }
    (HERE / "pinned.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
