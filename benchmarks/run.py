"""polyvem benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run sets the workload up three
times in fresh processes (import, config generation, cache warm-up)
and reports the median as setup_s. A fourth process then calls
`polyvem.cli.main` once per op for S seconds and checks every op's
outputs (see checks.py). Times are scaled to a fixed host speed (see
calibrate.py); the raw ones are recorded too. With --trace 0 the last line of stdout holds
the end-to-end metrics; with --trace 1 it holds the per-layer metrics
of a traced run (see tracing.py). The line before it records the
environment. Work files go to .bench_work/ at the checkout root.

BLAS and OpenMP are pinned to one thread, so that pool workers times
threads stays within the two cores the workloads were sized for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import (MESH_SEED, THREADS, WORKLOADS,  # noqa: E402
                       orientation_seed)

# the host speed reference runs here too, with the children's threads
os.environ.update(THREADS)
import calibrate  # noqa: E402

SETUP_REPEATS = 3
DEADLINE_S = 170.0
WORK = ROOT / ".bench_work"
# metric name -> unit, in the order BENCHMARK.json lists them
UNITS = {kind: {m["name"]: m["unit"] for m in metrics}
         for kind, metrics in json.loads(
             (ROOT / "BENCHMARK.json").read_text()).items()
         if kind in ("end_to_end", "per_layer")}


class BenchError(RuntimeError):
    """The run could not be set up or measured; no result is printed."""


def source_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def _child(args: list, deadline: float) -> float:
    """Run child.py with `args`; returns its wall seconds."""
    env = {**os.environ, **THREADS}
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + " ".join(args[:1]))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                              env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} timed out") from None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited with {proc.returncode}")
    return wall


def check_counts(name: str, seed: int, digest: str, counts: dict) -> list:
    """Counts must repeat between runs of the same source: the first
    traced run of a (workload, seed, source) records them, later ones
    compare."""
    store = WORK / "counts"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{name}-seed{seed}-{digest[:16]}.json"
    if not path.exists():
        path.write_text(json.dumps(counts, indent=1, sort_keys=True))
        return []
    return checks.count_mismatches(counts, json.loads(path.read_text()))


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "polyvem" / "cli.py").is_file():
        raise BenchError(f"no polyvem source under {ROOT / 'src'}")
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", name, "--seed", str(seed), "--work", str(work)]

    setups, readings = [], [calibrate.reference_s()]
    for _ in range(SETUP_REPEATS):
        setups.append(_child(["setup", *common], deadline))
        readings.append(calibrate.reference_s())
    _child(["measure", *common, "--seconds", str(seconds),
            "--trace", str(int(trace))], deadline)
    m = json.loads((work / "measure.json").read_text())

    digest = source_digest()
    env = {**m["env"], "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "commit": git_commit(), "source_sha256": digest,
           "workload": name, "seed": seed, "mesh_seed": MESH_SEED,
           "orientation_seed": orientation_seed(seed),
           "run_seconds": seconds, "trace": int(trace),
           "setup_s_each": setups, "ops_timed": m["end_to_end"]["ops"],
           "op_walls": m["walls"], "reference_s": calibrate.REFERENCE_S,
           "raw": {**m["raw"], "setup_s": statistics.median(setups),
                   "setup_reference_s": readings}}
    problems = list(m["problems"])
    if trace:
        trace_ok = not m["unsteady_counts"]
        if not trace_ok:
            problems.append(f"counts differ between ops: "
                            f"{m['unsteady_counts']}")
        drift = check_counts(name, seed, digest, m["counts"])
        if drift:
            trace_ok = False
            problems.append(f"counts differ from an earlier run: {drift}")
        if m["untraced"]:
            # a renamed function would otherwise read 0 s and 0 calls
            trace_ok = False
            problems.append(f"traced targets not found: {m['untraced']}")
        values = m["per_layer"]
        units = UNITS["per_layer"]
    else:
        trace_ok = True
        values = {**m["end_to_end"],
                  "setup_s": calibrate.scaled(statistics.median(setups),
                                              readings),
                  "ok_ratio": 1.0 - m["failed"] / m["attempted"]}
        units = UNITS["end_to_end"]
    metrics = {k: {"value": values[k], "unit": unit}
               for k, unit in units.items()}
    result = {"correct": m["failed"] == 0 and trace_ok,
              "attempted": m["attempted"], "failed": m["failed"],
              "metrics": metrics}
    record = {"env": env, "problems": problems, **result}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return env, problems, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="polyvem benchmark run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("need seconds > 0")
    try:
        env, problems, result = run(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
