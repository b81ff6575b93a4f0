"""Set-up and measuring processes of one benchmark run.

    python3 benchmarks/child.py setup   --workload W --seed N --work DIR
    python3 benchmarks/child.py measure --workload W --seed N --work DIR
                                        --seconds S --trace 0|1

`setup` writes the workload's config and, for a warm workload, fills
the reference cache through the CLI. `measure` calls `polyvem.cli.main`
in-process once per op for S seconds and writes `measure.json` to the
work directory. Each runs in a process of its own, so the measuring
process's peak RSS and CPU time hold only its ops and their pool
workers. run.py starts both; BLAS/OpenMP threads are pinned to 1 in
their environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import (THREADS, WORKLOADS, config_text,  # noqa: E402
                       warm_sections)


def import_polyvem():
    """Import the checkout's polyvem, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import polyvem.cli
    if not Path(polyvem.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"polyvem imported from {polyvem.cli.__file__}, "
                          f"not from {src}")
    return polyvem.cli


class Paths:
    def __init__(self, work: Path):
        self.work = work
        self.config = work / "config.ini"
        self.cache = work / "cache"
        self.out = work / "out"
        self.spans = work / "spans"


def setup(workload, seed: int, paths: Paths) -> int:
    cli = import_polyvem()
    cache = str(paths.cache) if workload.cache else None
    paths.config.write_text(config_text(workload.sections, seed, cache))
    shutil.rmtree(paths.cache, ignore_errors=True)
    paths.cache.mkdir(parents=True)
    if workload.cache != "warm":
        return 0
    warm = paths.work / "warm.ini"
    warm.write_text(config_text(warm_sections(workload), seed, cache))
    rc = cli.main(["study", "--config", str(warm),
                   "--out", str(paths.work / "warm-out")])
    if rc != 0 or not any(paths.cache.iterdir()):
        print(f"cache warm-up failed (exit code {rc})", file=sys.stderr)
        return 1
    return 0


def _listing(directory: Path) -> dict:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in directory.iterdir() if p.is_file()}


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class OpRunner:
    """Runs and checks the ops of one workload in this process."""

    def __init__(self, cli, workload, paths: Paths, pinned: dict | None):
        self.cli = cli
        self.workload = workload
        self.paths = paths
        self.pinned = pinned
        self.first = None               # files of the first op
        self.count = 0

    def run(self, tracer=None) -> dict:
        w, p = self.workload, self.paths
        out = p.out / f"op{self.count}"
        self.count += 1
        if w.cache == "cold":
            shutil.rmtree(p.cache, ignore_errors=True)
            p.cache.mkdir()
        before = _listing(p.cache)
        argv = [w.command, "--config", str(p.config), "--out", str(out),
                *w.argv_tail]
        problems = []
        gc.collect()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = self.cli.main(argv)
            else:
                with tracer.span(tracing.MAIN):
                    rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            problems.append("raised: " + traceback.format_exc(limit=3))
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0

        if rc != 0:
            problems.append(f"exit code {rc}")
        after = _listing(p.cache)
        written = [n for n in after if after[n] != before.get(n)]
        files = {}
        if out.is_dir():
            files = {f.name: f.read_bytes() for f in out.iterdir()
                     if f.is_file()}
        files.update({checks.CACHE_PREFIX + n: (p.cache / n).read_bytes()
                      for n in written})
        problems += checks.check_outputs(w, files, self.pinned)
        if self.first is None:
            self.first = files
        else:
            problems += checks.check_identical(files, self.first)
        shutil.rmtree(out, ignore_errors=True)
        return {"wall": wall, "cpu": cpu, "problems": problems,
                "files": files,
                "bytes_written": sum(len(b) for b in files.values())}


def _median_layers(layers: list) -> dict:
    """Median over ops; counts are taken from the first op, as they must
    repeat exactly (checked separately)."""
    return {k: layers[0][k] if k in tracing.COUNTS
            else statistics.median(layer[k] for layer in layers)
            for k in layers[0]}


def measure(workload, seed: int, seconds: float, trace: bool,
            paths: Paths) -> dict:
    cli = import_polyvem()
    pinned_doc = json.loads((HERE / "pinned.json").read_text())
    pinned = pinned_doc["workloads"].get(workload.name, {}).get(str(seed))
    runner = OpRunner(cli, workload, paths, pinned)
    ops = [runner.run()] if workload.warmup else []
    plain, traced, layers, spans = [], [], [], []
    tracer = tracing.Tracer(str(paths.spans))
    paths.spans.mkdir(exist_ok=True)

    # with tracing, ops alternate untraced and traced so that both see the
    # same machine load; the untraced ones give trace.overhead_ratio. Two
    # traced ops at least, so that their counts can be compared. The
    # host speed reference is read before and after every timed op.
    start = time.perf_counter()
    readings = [calibrate.reference_s()]
    while (not plain or (trace and len(traced) < 2)
           or time.perf_counter() - start < seconds):
        if not trace or len(traced) == len(plain):
            plain.append(runner.run())
            readings.append(calibrate.reference_s())
            continue
        uninstall, missing = tracing.install(tracer)
        try:
            op = runner.run(tracer)
        finally:
            uninstall()
        records = tracer.take()
        spans += [{"op": len(traced), **rec} for rec in records]
        layer = tracing.layer_metrics(records, op["wall"], workload.workers)
        layer["cli.bytes_written"] = op["bytes_written"]
        traced.append(op)
        layers.append(layer)
        readings.append(calibrate.reference_s())
    ops += plain + traced
    if trace:
        with open(paths.work / "trace.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in spans)

    raw = {"run_s": statistics.median(op["wall"] for op in plain),
           "cpu_s": statistics.median(op["cpu"] for op in plain)}
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["problems"]),
        "problems": [q for op in ops for q in op["problems"]][:20],
        "end_to_end": {
            "run_s": calibrate.scaled(raw["run_s"], readings),
            "cpu_s": calibrate.scaled(raw["cpu_s"], readings),
            # this process plus its largest pool worker, in MiB
            "peak_rss_mb": (own + kids) / 1024.0,
            "ops": len(plain),
        },
        "walls": [op["wall"] for op in ops],
        "raw": {**raw, "reference_s": readings},
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in THREADS},
        },
    }
    if trace:
        first = {k: layers[0][k] for k in tracing.COUNTS}
        unsteady = sorted({k for layer in layers for k in
                           checks.count_mismatches(
                               {c: layer[c] for c in tracing.COUNTS}, first)})
        per_layer = _median_layers(layers)
        per_layer["trace.overhead_ratio"] = (
            statistics.median(op["wall"] for op in traced)
            / result["raw"]["run_s"] - 1.0)
        result.update(per_layer=per_layer, counts=first,
                      unsteady_counts=unsteady, untraced=missing)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    paths = Paths(Path(args.work))
    if args.phase == "setup":
        return setup(workload, args.seed, paths)
    result = measure(workload, args.seed, args.seconds, bool(args.trace),
                     paths)
    (paths.work / "measure.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
