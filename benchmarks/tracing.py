"""Spans around calls into polyvem, installed from outside the program.

`install` wraps each traced function at every place it is bound: the
defining module and each polyvem module that imported it with
`from .x import y`. Methods are wrapped on their class, and SciPy's
`splu` on `scipy.sparse.linalg`, which assembly calls through. The
program's source is not touched.

Spans stay in memory. Fork-started pool workers inherit the wrappers
and the tracer; a worker drops the parent's spans and appends its own
to `spans-<pid>.jsonl` in the spill directory whenever its outermost
span closes, because pool workers end without running exit handlers.

A span's self time is its duration minus that of its direct children.
Work the tracer itself adds (reading LU fill) runs in a child span
named PROBE, so it is charged to no layer.
"""

from __future__ import annotations

import functools
import glob
import importlib
import itertools
import json
import os
import sys
import time
from contextlib import contextmanager

PROBE = "trace.probe"
POOL_TASK = "cli.pool.task"
MAIN = "cli.main"


def _cell_tets(args, kwargs, sub):
    cell = args[1] if len(args) > 1 else kwargs["cell_id"]
    return {"cell": int(cell), "tets": len(sub.tets)}


def _refined_tets(args, kwargs, tmesh):
    return {"tets": len(tmesh.tets)}


def _lu_fill(args, kwargs, lu):
    fill = lu.L.nnz             # L and U are copies: read one at a time
    fill += lu.U.nnz
    return {"fill": int(fill)}


def _system_size(args, kwargs, system):
    # the whole system, not the interior block that splu factors
    return {"n": int(system.K.shape[0]), "nnz": int(system.K.nnz)}


# (module, attribute, span name, probe) of the traced functions
FUNCTIONS = (
    ("polyvem.mesh", "generate_voronoi", "mesh.generate_voronoi", None),
    ("polyvem.mesh", "triangulate_cell", "mesh.triangulate_cell", _cell_tets),
    ("polyvem.mesh", "refine_tet_mesh", "mesh.refine_tet_mesh", _refined_tets),
    ("polyvem.mesh", "mesh_hash", "mesh.mesh_hash", None),
    ("polyvem.materials", "rotate_modulus", "materials.rotate_modulus", None),
    ("polyvem.materials", "builtin_library", "materials.builtin_library",
     None),
    ("polyvem.element_fem", "batch_o1_operators",
     "element_fem.batch_o1_operators", None),
    ("polyvem.element_fem", "quadratic_state_operators",
     "element_fem.quadratic_state_operators", None),
    ("polyvem.element_fem", "promote_to_quadratic",
     "element_fem.promote_to_quadratic", None),
    ("polyvem.assembly", "assemble", "assembly.assemble", None),
    ("polyvem.assembly", "system_from_triplets",
     "assembly.system_from_triplets", None),
    ("polyvem.homogenization", "homogenize_vem",
     "homogenization.homogenize_vem", None),
    ("polyvem.homogenization", "homogenize_fem",
     "homogenization.homogenize_fem", None),
    ("polyvem.homogenization", "grain_moduli",
     "homogenization.grain_moduli", None),
    ("polyvem.homogenization", "result_to_json",
     "homogenization.result_io", None),
    ("polyvem.homogenization", "result_from_json",
     "homogenization.result_io", None),
    ("polyvem.homogenization", "result_to_csv",
     "homogenization.result_io", None),
    ("polyvem.study", "build_reference", "study.build_reference", None),
    # the function the CLI's process pool runs once per sweep point
    ("polyvem.cli", "_beta_point", POOL_TASK, None),
    ("scipy.sparse.linalg", "splu", "assembly.splu", _lu_fill),
)

# (module, class, method, span name, probe) of the traced methods
METHODS = (
    ("polyvem.element_vem", "VemElement", "__init__",
     "element_vem.VemElement", None),
    ("polyvem.assembly", "SparseSystem", "factorize", "assembly.factorize",
     _system_size),
    ("polyvem.assembly", "SparseSystem", "solve_dirichlet",
     "assembly.solve_dirichlet", None),
    ("polyvem.assembly", "SparseSystem", "energy", "assembly.energy", None),
)

# per-layer metrics: span names reported as self seconds and as calls
SELF_TIMES = (
    "mesh.generate_voronoi", "mesh.triangulate_cell", "mesh.refine_tet_mesh",
    "mesh.mesh_hash", "materials.rotate_modulus", "materials.builtin_library",
    "element_vem.VemElement", "element_fem.batch_o1_operators",
    "element_fem.quadratic_state_operators",
    "element_fem.promote_to_quadratic", "assembly.assemble",
    "assembly.system_from_triplets", "assembly.factorize", "assembly.splu",
    "assembly.solve_dirichlet", "assembly.energy",
    "homogenization.homogenize_vem", "homogenization.homogenize_fem",
    "homogenization.grain_moduli", "homogenization.result_io",
    "study.build_reference", MAIN,
)
CALLS = (
    "mesh.triangulate_cell", "materials.rotate_modulus",
    "element_vem.VemElement", "element_fem.quadratic_state_operators",
    "assembly.factorize", "assembly.solve_dirichlet",
)
# metrics that must repeat exactly between ops and runs of the same code
COUNTS = tuple(f"{n}.calls" for n in CALLS) + (
    "mesh.n_tets", "mesh.n_tets_refined", "assembly.n_dofs", "assembly.nnz",
    "assembly.lu_fill", "study.cache_hits", "study.cache_misses",
)


class Tracer:
    """Span recorder for one process and the pool workers it forks."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.owner = os.getpid()
        self._pid = self.owner
        self._ids = itertools.count()
        self._stack = []
        self.records = []

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its attribute dict."""
        pid = os.getpid()
        if pid != self._pid:                 # first span in a forked worker
            self._pid, self._stack, self.records = pid, [], []
        frame = {"name": name, "pid": pid, "id": next(self._ids),
                 "parent": self._stack[-1]["id"] if self._stack else None,
                 "attrs": {}, "child": 0.0}
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield frame["attrs"]
        finally:
            dur = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1]["child"] += dur
            frame.update(start=start, dur=dur, self=dur - frame.pop("child"))
            self.records.append(frame)
            if not self._stack and pid != self.owner:
                self._spill()

    def _spill(self):
        path = os.path.join(self.spill_dir, f"spans-{self._pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")
        self.records = []

    def take(self) -> list:
        """This process's spans plus the spilled worker spans, cleared."""
        records, self.records = self.records, []
        for path in sorted(glob.glob(os.path.join(self.spill_dir,
                                                  "spans-*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                records.extend(json.loads(line) for line in fh)
            os.remove(path)
        return records

    def wrap(self, name: str, fn, probe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if probe is not None:
                    with self.span(PROBE):
                        attrs.update(probe(args, kwargs, result))
            return result
        return traced


def install(tracer: Tracer):
    """Wrap every traced function and method; returns (uninstall,
    names of targets this polyvem version does not have)."""
    patched = []                  # (namespace, attribute, original)
    missing = []

    def patch(namespace, attr, new):
        patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, new)

    for mod_name, attr, name, probe in FUNCTIONS:
        original = getattr(importlib.import_module(mod_name), attr, None)
        if original is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        wrapper = tracer.wrap(name, original, probe)
        sites = [m for k, m in list(sys.modules.items())
                 if k == mod_name or k == "polyvem" or k.startswith("polyvem.")]
        for module in sites:
            for key, value in list(vars(module).items()):
                if value is original:
                    patch(module, key, wrapper)
    for mod_name, cls_name, attr, name, probe in METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{mod_name}.{cls_name}.{attr}")
            continue
        patch(cls, attr, tracer.wrap(name, vars(cls)[attr], probe))

    def uninstall():
        for namespace, attr, original in reversed(patched):
            setattr(namespace, attr, original)

    return uninstall, missing


def layer_metrics(records: list, wall: float, workers: int) -> dict:
    """Per-layer metrics of one op from its span records."""
    out = {f"{n}.self_s": 0.0 for n in SELF_TIMES}
    out.update({f"{n}.calls": 0 for n in CALLS})
    main_pid = next((r["pid"] for r in records if r["name"] == MAIN), None)
    cells = {}
    refined = [0]
    largest = {"n": 0, "nnz": 0, "key": None}
    fills = {}                  # (pid, factorize span id) -> LU fill
    fem_parents = {(r["pid"], r["parent"]) for r in records
                   if r["name"] == "homogenization.homogenize_fem"}
    hits = misses = 0
    busy = covered = probe = 0.0
    for r in records:
        name = r["name"]
        if f"{name}.self_s" in out:
            out[f"{name}.self_s"] += r["self"]
        if f"{name}.calls" in out:
            out[f"{name}.calls"] += 1
        attrs = r["attrs"]
        if name == "mesh.triangulate_cell":
            cells[attrs["cell"]] = attrs["tets"]
        elif name == "mesh.refine_tet_mesh":
            refined.append(attrs["tets"])
        elif name == "assembly.factorize" and attrs["n"] > largest["n"]:
            largest = {**attrs, "key": (r["pid"], r["id"])}
        elif name == "assembly.splu":
            key = (r["pid"], r["parent"])
            fills[key] = fills.get(key, 0) + attrs["fill"]
        elif name == "study.build_reference":
            if (r["pid"], r["id"]) in fem_parents:
                misses += 1
            else:
                hits += 1
        elif name == POOL_TASK and r["pid"] != main_pid:
            busy += r["dur"]
        if r["pid"] == main_pid:
            if name == PROBE:
                probe += r["dur"]
            elif name != MAIN:
                covered += r["self"]
    out.update({
        "mesh.n_tets": sum(cells.values()),
        "mesh.n_tets_refined": max(refined),
        "assembly.n_dofs": largest["n"],
        "assembly.nnz": largest["nnz"],
        "assembly.lu_fill": fills.get(largest["key"], 0),
        "study.cache_hits": hits,
        "study.cache_misses": misses,
        "cli.pool.worker_busy_s": busy,
        "cli.pool.utilization": busy / (workers * wall) if workers > 1 else 0.0,
        # share of the op (less probe time) inside named spans below cli.main
        "trace.coverage": covered / (wall - probe) if wall > probe else 0.0,
    })
    return out
