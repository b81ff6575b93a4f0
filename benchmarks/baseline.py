"""Record a baseline: two sets of runs of every workload, compared.

    python3 benchmarks/baseline.py --label NAME

For each workload of BENCHMARK.json, runs run.py with --trace 0 on
seeds 0..RUNS-1 and once with --trace 1 on seed 0, all with
BENCHMARK.json's run_seconds, and then does the same a second time.
Prints, per workload and end-to-end metric, each set's median and
spread (Q3 - Q1) / median (statistics.quantiles(values, n=4)) and how
far the second median lies from the first, next to the metric's bound;
and whether the count metrics of the two traced runs are equal. Writes
every run to benchmarks/baseline/NAME.json.

Exits 1 if a run is incorrect, a spread (other than setup_s) or a
median difference exceeds its bound, or the counts differ. A spread
above a third of its bound is flagged UNSTEADY, without failing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import COUNTS  # noqa: E402

RUNS = 10
SETS = 2


def bench(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / spec["command"][1]),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         + proc.stderr[-3000:])
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return {"seed": seed, **json.loads(env_line), **json.loads(result_line)}


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse the second median is than the first, as a share."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return -change if metric["better"] == "higher" else change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    doc = {"label": args.label, "run_seconds": spec["run_seconds"],
           "workloads": {}}
    ok = True
    for name in [w["name"] for w in spec["workloads"]]:
        sets = []
        for _ in range(SETS):
            runs = [bench(spec, name, seed, 0) for seed in range(RUNS)]
            traced = bench(spec, name, 0, 1)
            summary = {m: summarize([r["metrics"][m]["value"] for r in runs])
                       for m in e2e}
            sets.append({"summary": summary, "runs": runs, "traced": traced})
            ok = ok and traced["correct"] and all(r["correct"] for r in runs)
        doc["workloads"][name] = {"sets": sets}
        for metric, spec_m in e2e.items():
            bound = spec_m["bound"]
            s1, s2 = (s["summary"][metric] for s in sets)
            drift = worse_by(spec_m, s1["median"], s2["median"])
            spreads = (s1["spread"], s2["spread"])
            within = drift <= bound and (
                metric == "setup_s" or max(spreads) <= bound)
            ok = ok and within
            flag = "" if within else "  OUT OF BOUND"
            if metric != "setup_s" and max(spreads) > bound / 3:
                flag += "  UNSTEADY"
            print(f"{name:20s} {metric:12s} median {s1['median']:10.4f} "
                  f"{s2['median']:10.4f} worse by {drift:+.4f} "
                  f"spread {spreads[0]:.4f} {spreads[1]:.4f} "
                  f"bound {bound:.2f}{flag}", flush=True)
        counts = [{c: s["traced"]["metrics"][c]["value"] for c in COUNTS}
                  for s in sets]
        same = counts[0] == counts[1]
        ok = ok and same
        correct = [sum(r["correct"] for r in s["runs"]) for s in sets]
        print(f"{name:20s} correct {correct[0]}/{RUNS} {correct[1]}/{RUNS}, "
              f"traced correct {[s['traced']['correct'] for s in sets]}, "
              f"counts repeat {same}", flush=True)
    out = HERE / "baseline" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
