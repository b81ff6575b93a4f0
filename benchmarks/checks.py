"""Output checks of one benchmark operation.

An operation passes when polyvem exits with 0 and its outputs hold up:
Hill residuals at most 1e-10 where a result carries them, effective
matrices and CSV percent columns within a relative Frobenius distance
of 1e-9 of the values pinned at the seed commit (seed 0 only), numeric
files byte-identical to those of the run's first operation, and the
reference cache read (warm) or written (cold) as the workload says.
Every check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

REL_TOL = 1e-9
HILL_MAX = 1e-10

# modulus blocks of polyvem.study.target_block present in each mode
BLOCKS = {
    "fullyCoupled": ("C", "e", "q", "eps", "mu", "alpha"),
    "electroMech": ("C", "e", "eps"),
    "magnetoMech": ("C", "q", "mu"),
}

# run_diagnostics.json carries wall times and so differs between reruns
NON_NUMERIC = frozenset({"run_diagnostics.json"})

CACHE_PREFIX = "cache/"


def rel_distance(actual, pinned) -> float:
    """Relative Frobenius distance |a - p| / |p| (|a - p| when p = 0)."""
    a = np.asarray(actual, dtype=float)
    p = np.asarray(pinned, dtype=float)
    if a.shape != p.shape:
        return float("inf")
    ref = float(np.linalg.norm(p))
    diff = float(np.linalg.norm(a - p))
    return diff / ref if ref > 0.0 else diff


def result_summary(text: str) -> dict:
    """The pinned part of a polyvem result document."""
    doc = json.loads(text)
    n = len(doc["state_labels"])
    return {"mode": doc["mode"],
            "effective": np.reshape(doc["effective_row_major"],
                                    (n, n)).tolist()}


def csv_summary(text: str) -> dict:
    """Row labels and the percent columns of a study CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    columns = {name: [float(r[i]) for r in body]
               for i, name in enumerate(header) if name.endswith("_pct")}
    return {"rows": [r[0] for r in body], "columns": columns}


def check_result(name: str, text: str, pinned: dict | None) -> list:
    """Hill residuals and, when pinned, the effective matrix block by block."""
    # late import: child.import_polyvem puts the checkout's src on the path
    from polyvem.study import target_block

    try:
        doc = json.loads(text)
        hills = [float(h) for h in doc["hill_residuals"]]
        summary = result_summary(text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{name}: unreadable result ({exc!r})"]
    worst = max(hills, default=float("inf"))
    problems = []
    if not worst <= HILL_MAX:
        problems.append(f"{name}: Hill residual {worst:.3e} > {HILL_MAX:g}")
    if pinned is None:
        return problems
    if summary["mode"] != pinned["mode"]:
        return problems + [f"{name}: mode {summary['mode']} "
                           f"!= pinned {pinned['mode']}"]
    mode = summary["mode"]
    for block in BLOCKS[mode]:
        d = rel_distance(target_block(summary["effective"], mode, block),
                         target_block(pinned["effective"], mode, block))
        if not d <= REL_TOL:
            problems.append(f"{name}: block {block} differs from pinned "
                            f"by {d:.3e} (relative)")
    return problems


def check_csv(name: str, text: str, pinned: dict | None) -> list:
    """Percent columns of a study CSV against the pinned ones."""
    try:
        summary = csv_summary(text)
    except (ValueError, IndexError) as exc:
        return [f"{name}: unreadable CSV ({exc!r})"]
    if pinned is None:
        return []
    if summary["rows"] != pinned["rows"]:
        return [f"{name}: rows {summary['rows']} != pinned {pinned['rows']}"]
    problems = []
    for col, values in pinned["columns"].items():
        d = rel_distance(summary["columns"].get(col, []), values)
        if not d <= REL_TOL:
            problems.append(f"{name}: column {col} differs from pinned "
                            f"by {d:.3e} (relative)")
    return problems


def check_outputs(workload, files: dict, pinned: dict | None) -> list:
    """Checks on the files of one op: name -> bytes, cache files under
    CACHE_PREFIX. `pinned` maps file names (and "reference" for a
    written cache entry) to pinned summaries, or is None."""
    pinned = pinned or {}
    problems = [f"missing output {name}" for name in workload.outputs
                if name not in files]
    cache_files = [n for n in files if n.startswith(CACHE_PREFIX)]
    if workload.cache == "warm" and cache_files:
        problems.append(f"reference cache missed: wrote {cache_files}")
    if workload.cache == "cold" and not cache_files:
        problems.append("cold cache: no reference was written")
    for name, data in sorted(files.items()):
        text = data.decode("utf-8", errors="replace")
        if name.startswith(CACHE_PREFIX):
            problems += check_result(name, text, pinned.get("reference"))
        elif name == "result.json":
            problems += check_result(name, text, pinned.get(name))
        elif name.endswith(".csv") and name != "effective.csv":
            problems += check_csv(name, text, pinned.get(name))
    return problems


def check_identical(files: dict, first: dict) -> list:
    """Numeric files must repeat byte for byte across the ops of a run."""
    problems = []
    for name in sorted(set(files) | set(first)):
        if name in NON_NUMERIC:
            continue
        if files.get(name) != first.get(name):
            problems.append(f"{name} differs from the run's first op")
    return problems


def count_mismatches(counts: dict, expected: dict) -> list:
    """Names of count metrics whose values differ between two ops or runs."""
    return sorted(k for k in set(counts) | set(expected)
                  if counts.get(k) != expected.get(k))
