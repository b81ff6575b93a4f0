"""Method-comparison studies: error metrics, stabilization-weight sweeps,
volume-fraction sweeps, and refined-reference management.

This module alone knows how a study runs: it owns the beta and
volume-fraction grids and the worker pool of the sweeps.

Errors are percent deviations of Frobenius norms of target modulus
blocks against a refined linear-tet reference. Sweep outputs are
plot-ready CSV tables with fixed-format floats and no timing columns,
so reruns with identical configurations are byte-identical; wall times
live only in the run-diagnostics sidecar.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .element_fem import FIELD_COUNT
from .homogenization import (RESULT_FORMAT, GrainLayout, HomogenizationError,
                             HomogenizationResult, VemOperators,
                             homogenize_fem, homogenize_vem, reduce_modulus,
                             result_from_json, result_to_json)
from .materials import (MODE_PINDEX, MODE_POTENTIALS, STATE_ROWS,
                        build_modulus, datasheet_matrix)
from .mesh import PolyMesh, mesh_hash

__all__ = [
    "StudyError", "ComparisonRow", "FractionRow",
    "frobenius", "computational_error", "relative_deviation",
    "target_block", "check_targets", "check_fraction_phases",
    "assign_volume_fraction",
    "parse_method", "run_method",
    "build_reference", "method_comparison", "beta_curve", "beta_sweep",
    "beta_opt", "beta_grid", "beta_key", "fraction_grid", "fraction_sweep",
    "usable_workers", "comparison_csv", "beta_sweep_csv", "fraction_csv",
]

DEFAULT_BETA = 0.1
BETA_STEP = 0.05
FRACTION_STEP = 0.1
# Refined meshes above this many tets are refused before any work. It
# admits 50 grains at level 3 (600,576 tets): its electro-mechanical
# reference stores 635.0M + 70.6M factor entries, 2.8 GB at the 4 bytes
# of the single-precision stores (5.6 GB in float64), and ran in 3.8 GiB
# on a 7.8 GiB host. 20 grains at level 4 and 100 grains at level 3 are
# admitted too, though by the n^(4/3) growth of 3-D fill their stores
# alone would need 2-3 times that; the factors' own check
# (`cholesky.NodeSymbolic.check_memory`) counts their exact entries
# against the memory the process may use before allocating them.
MEMORY_GUARD_TETS = 2_000_000

METHODS = ("VEM-VO", "FEM-O1-coarse", "FEM-O2-coarse", "FEM-O1-refined")

# the (active, passive) phases of a volume-fraction sweep
FRACTION_PHASES = ("CoFe2O4", "BaTiO3")


class StudyError(RuntimeError):
    """Invalid study configuration or resource guard violation."""


def beta_grid(step: float = BETA_STEP) -> tuple:
    """Stabilization weights step, 2 step, ... up to 1 (at most 1000)."""
    if not 1e-3 <= step <= 1.0:
        raise StudyError(f"beta_step must be in [0.001, 1], got {step}")
    n = int(1.0 / step + 1e-9)
    return tuple(round(k * step, 10) for k in range(1, n + 1))


def fraction_grid(step: float = FRACTION_STEP) -> tuple:
    """Volume fractions 0.05, 0.05 + step, ... up to 0.95."""
    if not 1e-3 <= step <= 0.9:
        raise StudyError(f"fraction_step must be in [0.001, 0.9], got {step}")
    grid = []
    p = 0.05
    while p <= 0.95 + 1e-9:
        grid.append(round(p, 10))
        p += step
    return tuple(grid)


DEFAULT_BETA_GRID = beta_grid(BETA_STEP)
DEFAULT_FRACTION_GRID = fraction_grid(FRACTION_STEP)


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------

def frobenius(M) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(np.asarray(M, dtype=float)))


def relative_deviation(M, M_ref) -> float:
    """Signed percent deviation of Frobenius norms."""
    ref = frobenius(M_ref)
    if ref == 0.0:
        raise StudyError("reference modulus has zero norm")
    return 100.0 * (frobenius(M) - ref) / ref


def computational_error(M, M_ref) -> float:
    """Unsigned percent deviation of Frobenius norms."""
    return abs(relative_deviation(M, M_ref))


# named blocks of the effective matrix by (row kind, column kind) of P;
# every block but C is stored negated (docs/conventions.md)
_TARGET_KINDS = {"C": ("strain", "strain"), "e": ("electric", "strain"),
                 "q": ("magnetic", "strain"), "eps": ("electric", "electric"),
                 "mu": ("magnetic", "magnetic"),
                 "alpha": ("electric", "magnetic")}


def target_block(effective: np.ndarray, mode: str, target: str) -> np.ndarray:
    """Extract a named modulus block from an effective matrix.

    Targets: G (whole), C (mechanical), e (piezoelectric), q
    (piezomagnetic), eps (dielectric), mu (magnetic), alpha
    (electromagnetic; fully coupled only). Blocks convert to
    data-sheet units first, so whole-matrix norms weight entries the
    way reported tables print them; per-block norm ratios are
    unaffected by the conversion.
    """
    M = datasheet_matrix(np.asarray(effective, dtype=float), mode)
    if target == "G":
        return M
    if target not in _TARGET_KINDS:
        raise StudyError(f"unknown target {target!r}")
    row, col = _TARGET_KINDS[target]
    potentials = {row, col} - {"strain"}
    if not potentials <= set(MODE_POTENTIALS[mode]):
        raise StudyError(f"target {target!r} undefined for mode {mode!r}"
                         if len(potentials) == 1 else
                         f"target {target!r} requires the fully coupled mode")
    index = MODE_PINDEX[mode]             # rows of P kept in M, in order
    rows, cols = (slice(index.index(STATE_ROWS[k].start),
                        index.index(STATE_ROWS[k].stop - 1) + 1)
                  for k in (row, col))
    return M[rows, cols] if row == col == "strain" else -M[rows, cols]


def check_targets(moduli, mode: str, targets) -> None:
    """StudyError for a target whose block is zero in every grain
    modulus: its reference block is zero too, and no error can be
    measured against it. alpha is a product property, which a composite
    of grains without it can have, so it is not checked."""
    for target in targets:
        if target != "alpha" and not any(
                target_block(G, mode, target).any() for G in moduli):
            raise StudyError(f"target {target!r} is zero in every grain "
                             f"modulus of mode {mode!r}")


# ---------------------------------------------------------------------------
# Result rows
# ---------------------------------------------------------------------------

@dataclass
class ComparisonRow:
    method: str
    n_nodes: int
    n_dofs: int
    e_c: dict                       # target -> percent error
    d_rel: dict                     # target -> signed percent deviation
    wall_seconds: float
    # the method's SparseSystem.solver_stats; diagnostics, not in the CSV
    solver_stats: dict = field(default_factory=dict)


@dataclass
class FractionRow:
    fraction_target: float
    fraction_achieved: float
    n_active_grains: int
    beta_opt: float
    e_c: dict                       # target -> percent error at DEFAULT_BETA
    d_rel_opt: dict                 # target -> deviation at beta_opt
    wall_seconds: float
    # solver counters of the reference and of the DEFAULT_BETA point;
    # diagnostics, not in the CSV
    solver_stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Grain assignment for hybrid sweeps
# ---------------------------------------------------------------------------

def check_fraction_phases(library: dict, mode: str, targets) -> None:
    """StudyError unless both FRACTION_PHASES are in the library and
    every target passes `check_targets` on their unrotated moduli (a
    rotation cannot make a zero block nonzero)."""
    for name in FRACTION_PHASES:
        if name not in library:
            raise StudyError(f"material {name!r} not in library")
    check_targets([reduce_modulus(build_modulus(library[name]), mode)
                   for name in FRACTION_PHASES], mode, targets)


def assign_volume_fraction(mesh: PolyMesh, fraction: float, rng_seed: int,
                           active: str = FRACTION_PHASES[0],
                           passive: str = FRACTION_PHASES[1]):
    """Greedy seeded assignment of grains to the `active` phase until its
    cumulative volume reaches fraction * L^3; independent random
    orientations for every grain. Returns (layout, achieved fraction,
    number of active grains)."""
    if not 0.0 <= fraction <= 1.0:
        raise StudyError(f"volume fraction must be in [0, 1], got {fraction}")
    rng = np.random.default_rng(rng_seed)
    n = len(mesh.cells)
    order = rng.permutation(n)
    angles = tuple(tuple(float(a) for a in rng.uniform(0.0, 2.0 * np.pi, 3))
                   for _ in range(n))
    volume = mesh.edge_length ** 3
    target = fraction * volume
    names = [passive] * n
    covered = 0.0
    taken = 0
    for cid in order:
        if covered >= target - 1e-12 * volume:
            break
        names[cid] = active
        covered += mesh.cells[cid].volume
        taken += 1
    layout = GrainLayout(tuple(names), angles)
    return layout, covered / volume, taken


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def _reference_digest(mesh: PolyMesh, moduli, mode: str, levels: int) -> str:
    """Cache key of a reference; an entry written by another release or
    in another result format is a miss."""
    h = hashlib.sha256()
    h.update(f"{RESULT_FORMAT}|{__version__}|".encode())
    h.update(mesh_hash(mesh).encode())
    h.update(f"|{mode}|{levels}|fem-o1".encode())
    for M in moduli:
        h.update(np.ascontiguousarray(M, dtype=float).tobytes())
    return h.hexdigest()


def build_reference(mesh: PolyMesh, moduli, mode: str, levels: int,
                    cache_dir: str | None = None) -> HomogenizationResult:
    """Refined linear-tet reference run, cached by configuration digest.

    A cache entry that cannot be read back counts as a miss and is
    rewritten; entries are written to a temporary file in the cache
    directory and moved into place, so no reader sees a partial entry.
    """
    if levels < 1:
        raise StudyError("reference needs at least one refinement level")
    path = None
    if cache_dir is not None:
        digest = _reference_digest(mesh, moduli, mode, levels)
        path = os.path.join(cache_dir, f"reference-{digest}.json")
        cached = _read_cached(path)
        if cached is not None:
            return cached
    _guard_refinement(mesh, levels)
    result = homogenize_fem(mesh, moduli, order=1, levels=levels, mode=mode)
    if path is not None:
        _write_atomic(path, result_to_json(result))
    return result


def _guard_refinement(mesh: PolyMesh, levels: int) -> None:
    """StudyError when `levels` refinements of the coarse tets, each
    into 8, would give more than MEMORY_GUARD_TETS tets. The power is
    capped where it alone passes the guard, so a level of any size is
    decided without forming 8 ** levels."""
    cap = MEMORY_GUARD_TETS.bit_length()        # 8 ** cap > 2 ** cap > guard
    if len(mesh.tets.tets) * 8 ** min(levels, cap) > MEMORY_GUARD_TETS:
        raise StudyError(
            f"refined mesh at level {levels} would have more than "
            f"{MEMORY_GUARD_TETS} tets; lower the refinement level")


def _read_cached(path: str) -> HomogenizationResult | None:
    """The cached result at `path`, or None when absent or unreadable."""
    try:
        with open(path, encoding="utf-8") as fh:
            return result_from_json(fh.read())
    except (FileNotFoundError, ValueError, KeyError, TypeError,
            HomogenizationError):        # absent, torn or not a result
        return None


def _write_atomic(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    # one writer per process, so the process id keeps temp names apart
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Comparisons and sweeps
# ---------------------------------------------------------------------------

def parse_method(method: str):
    """(base name, refinement levels) of a method name. Only
    "FEM-O1-refined" is refined: 1 level, or as many as it names in
    "FEM-O1-refined(2)"; the other methods have 0."""
    base, paren, arg = method.partition("(")
    refined = base == "FEM-O1-refined"
    if base not in METHODS or (paren and not refined):
        raise StudyError(f"unknown method {method!r}; expected one of "
                         f"{', '.join(METHODS)}")
    if not paren:
        return base, int(refined)
    level = arg[:-1]
    try:
        # int() also reads "+1", "1_0" and non-ASCII digits such as "١"
        levels = int(level) if level.isascii() and level.isdigit() else 0
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        levels = 0
    if not (arg.endswith(")") and levels > 0):
        raise StudyError(f"bad refinement level in method {method!r}")
    return base, levels


def run_method(mesh, moduli, mode, method, beta,
               material_names=()) -> HomogenizationResult:
    """One homogenization run of a named method."""
    base, levels = parse_method(method)
    if base == "VEM-VO":
        return homogenize_vem(mesh, moduli, beta=beta, mode=mode,
                              material_names=material_names)
    if levels:
        _guard_refinement(mesh, levels)
    order = 2 if base == "FEM-O2-coarse" else 1
    return homogenize_fem(mesh, moduli, order=order, levels=levels,
                          mode=mode, material_names=material_names)


def _deviations(effective, reference_effective, targets, mode) -> dict:
    return {t: relative_deviation(target_block(effective, mode, t),
                                  target_block(reference_effective, mode, t))
            for t in targets}


def _errors(result, reference, targets, mode):
    d_rel = _deviations(result.effective, reference.effective, targets, mode)
    return {t: abs(d) for t, d in d_rel.items()}, d_rel


def method_comparison(mesh: PolyMesh, moduli, mode: str, methods,
                      reference: HomogenizationResult, targets,
                      beta: float = DEFAULT_BETA):
    """One ComparisonRow per method against a shared reference."""
    rows = []
    nf = FIELD_COUNT[mode]
    for method in methods:
        t0 = time.perf_counter()
        result = run_method(mesh, moduli, mode, method, beta)
        wall = time.perf_counter() - t0
        e_c, d_rel = _errors(result, reference, targets, mode)
        rows.append(ComparisonRow(
            method=result.method, n_nodes=result.n_dofs // nf,
            n_dofs=result.n_dofs, e_c=e_c, d_rel=d_rel,
            wall_seconds=wall,
            solver_stats=result.solver_stats))
    return rows


def beta_key(beta: float) -> str:
    """A weight as the beta column of the sweep's CSV prints it."""
    return f"{beta:.6g}"


def beta_curve(operators: VemOperators, beta_grid, reference_effective,
               targets, solver=None):
    """(beta, d_rel dict) for each grid value, in grid order: the VEM
    operators blended at every weight. A dict `solver` receives each
    point's solver counters under its `beta_key`."""
    curve = []
    for b in beta_grid:
        result = operators.evaluate(float(b))
        if solver is not None:
            solver[beta_key(b)] = result.solver_stats
        curve.append((float(b), _deviations(result.effective,
                                            reference_effective, targets,
                                            operators.mode)))
    return curve


def _beta_point(mesh, moduli, mode, chunk, ref_effective, targets):
    """Pool task: the curve of one contiguous chunk of the beta grid and
    its points' solver counters; the VEM operators are built once per
    chunk."""
    operators = VemOperators(mesh, moduli, mode)
    solver = {}
    return beta_curve(operators, chunk, ref_effective, targets, solver), solver


def beta_sweep(mesh: PolyMesh, moduli, mode: str, beta_grid,
               reference: HomogenizationResult, targets, workers: int = 1,
               solver=None):
    """Deviation curve over the stabilization-weight grid.

    Returns (curve, fem_row): curve is a list of (beta, d_rel dict) in
    grid order; the coarse linear-tet row is the beta = 1 blend, which
    the chunks evaluate even when it is off the grid. The weights are cut
    into up to `workers` contiguous chunks, one `_pool_map` task each,
    the first in this process, `workers` capped at the CPUs this process
    may run on. A dict `solver` receives the counters of each grid point
    under its `beta_key` and of the coarse row under "FEM-O1-coarse".
    """
    weights = _with_weight(beta_grid, 1.0)
    # built here, so every payload's mesh carries them
    mesh_hash(mesh)
    mesh.tets
    n = max(1, min(usable_workers(workers), len(weights)))
    chunks = [(mesh, moduli, mode,
               weights[k * len(weights) // n:(k + 1) * len(weights) // n],
               reference.effective, targets) for k in range(n)]
    # _beta_point is read when called, so a wrapper bound in its place runs
    curve, points = [], {}
    for part, stats in _pool_map(_beta_point, chunks, workers):
        curve += part
        points.update(stats)
    if solver is not None:
        solver.update({beta_key(b): points[beta_key(b)] for b in beta_grid})
        solver["FEM-O1-coarse"] = points[beta_key(1.0)]
    return curve[:len(beta_grid)], dict(curve)[1.0]


def _with_weight(grid, beta: float) -> tuple:
    """`grid` and `beta` when off it: the weights of a curve read at `beta`."""
    return tuple(grid) if beta in grid else (*grid, beta)


def beta_opt(curve, target: str = "G") -> float:
    """Grid argmin of |D_rel| for one target; ties go to the smaller
    stabilization weight (min keeps the first of the ascending curve)."""
    if not curve:
        raise StudyError("empty sweep curve")
    ordered = sorted(curve, key=lambda item: item[0])
    return float(min(ordered, key=lambda item: abs(item[1][target]))[0])


def fraction_sweep(mesh: PolyMesh, library: dict, fractions, rng_seed: int,
                   beta_grid, mode: str = "fullyCoupled",
                   targets=("G",), reference_levels: int = 2,
                   cache_dir: str | None = None, workers: int = 1):
    """Hybrid volume-fraction sweep, one pool task per fraction: assign
    phases, build the refined reference, sweep beta, and report beta_opt
    plus the error at the default stabilization weight. `workers` is
    capped at the CPUs this process may run on."""
    return _pool_map(_fraction_row, [
        (mesh, library, f, rng_seed, beta_grid, mode, targets,
         reference_levels, cache_dir) for f in fractions],
        usable_workers(workers))


def _fraction_row(mesh, library, frac, rng_seed, beta_grid, mode, targets,
                  reference_levels, cache_dir) -> FractionRow:
    t0 = time.perf_counter()
    layout, achieved, taken = assign_volume_fraction(mesh, frac, rng_seed)
    moduli = layout.moduli(library, mode)
    reference = build_reference(mesh, moduli, mode, reference_levels,
                                cache_dir)
    operators = VemOperators(mesh, moduli, mode)
    points = {}
    curve = beta_curve(operators, _with_weight(beta_grid, DEFAULT_BETA),
                       reference.effective, targets, points)
    b_opt = beta_opt(curve[:len(beta_grid)], targets[0])
    by_beta = dict(curve)
    e_c = {t: abs(d) for t, d in by_beta[DEFAULT_BETA].items()}
    d_opt = dict(by_beta[b_opt])
    # a reference read from the cache carries no solver counters
    key = beta_key(DEFAULT_BETA)
    solver = {"reference": reference.solver_stats or {"cached": True},
              key: points[key]}
    return FractionRow(
        fraction_target=float(frac), fraction_achieved=float(achieved),
        n_active_grains=taken, beta_opt=b_opt, e_c=e_c, d_rel_opt=d_opt,
        wall_seconds=time.perf_counter() - t0, solver_stats=solver)


def usable_workers(workers: int) -> int:
    """`workers`, at most the number of CPUs this process may run on."""
    return min(workers, len(os.sched_getaffinity(0)))


def _pool_map(task, payloads, workers: int) -> list:
    """task(*args) for each args tuple of payloads, in order, on up to
    `workers` processes, this one included: it runs every n-th payload
    from the first, n = min(workers, payloads), while a pool of n - 1
    processes maps the rest. All run here when n <= 1. A task that
    raises ends the call with its exception; no pool process outlives
    the call."""
    n = min(workers, len(payloads))
    if n <= 1:
        return [task(*args) for args in payloads]
    from concurrent.futures import ProcessPoolExecutor
    results = [None] * len(payloads)
    theirs = [k for k in range(len(payloads)) if k % n]
    with ProcessPoolExecutor(max_workers=n - 1) as pool:
        try:
            pending = pool.map(task, *zip(*(payloads[k] for k in theirs)))
            results[::n] = [task(*args) for args in payloads[::n]]
            for k, result in zip(theirs, pending):
                results[k] = result
        except BaseException:
            # tasks not yet started are dropped, not waited for
            pool.shutdown(cancel_futures=True)
            raise
    return results


# ---------------------------------------------------------------------------
# CSV writers (deterministic: no timing columns)
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.12e}"


def comparison_csv(rows, targets) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    head = ["method", "n_nodes", "n_dofs"]
    head += [f"E_C_{t}_pct" for t in targets]
    head += [f"D_rel_{t}_pct" for t in targets]
    w.writerow(head)
    for r in rows:
        w.writerow([r.method, r.n_nodes, r.n_dofs]
                   + [_fmt(r.e_c[t]) for t in targets]
                   + [_fmt(r.d_rel[t]) for t in targets])
    return buf.getvalue()


def beta_sweep_csv(curve, fem_d, targets) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["beta"] + [f"D_rel_{t}_pct" for t in targets])
    for b, d in sorted(curve, key=lambda item: item[0]):
        w.writerow([beta_key(b)] + [_fmt(d[t]) for t in targets])
    w.writerow(["FEM-O1-coarse"] + [_fmt(fem_d[t]) for t in targets])
    return buf.getvalue()


def fraction_csv(rows, targets) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["fraction_target", "fraction_achieved", "n_active_grains",
                "beta_opt"]
               + [f"E_C_{t}_pct_beta_default" for t in targets]
               + [f"D_rel_{t}_pct_beta_opt" for t in targets])
    for r in rows:
        w.writerow([f"{r.fraction_target:.6g}", _fmt(r.fraction_achieved),
                    r.n_active_grains, f"{r.beta_opt:.6g}"]
                   + [_fmt(r.e_c[t]) for t in targets]
                   + [_fmt(r.d_rel_opt[t]) for t in targets])
    return buf.getvalue()
