"""Method-comparison studies: error metrics, refined references, and one
study grid for comparisons, stabilization-weight sweeps and
volume-fraction sweeps.

A study is a list of setups (grain moduli) times one tuple of tasks
(method names or weights), run by `_grid` through one worker pool and
reduced per kind by `run_study`. Errors are percent deviations of
Frobenius norms of target modulus blocks against a refined linear-tet
reference. The CSV tables carry fixed-format floats and no timings, so
reruns are byte-identical; wall times live in the diagnostics sidecar.
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
    "parse_method", "run_method", "build_reference", "fraction_setups",
    "run_study", "method_comparison", "beta_sweep", "beta_opt", "beta_grid",
    "beta_key", "fraction_grid", "fraction_sweep", "usable_workers",
    "comparison_csv", "beta_sweep_csv", "fraction_csv",
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


def _row(since, result, reference_effective, targets) -> ComparisonRow:
    """The row of a run that started at perf_counter `since`."""
    mode, wall = result.mode, time.perf_counter() - since
    d_rel = _deviations(result.effective, reference_effective, targets, mode)
    return ComparisonRow(result.method, result.n_dofs // FIELD_COUNT[mode],
                         result.n_dofs, {t: abs(d) for t, d in d_rel.items()},
                         d_rel, wall, result.solver_stats)


def beta_key(beta: float) -> str:
    """A weight as the beta column of the sweep's CSV prints it."""
    return f"{beta:.6g}"


def beta_opt(curve, target: str = "G") -> float:
    """Grid argmin of |D_rel| for one target; ties go to the smaller
    stabilization weight (min keeps the first of the ascending curve)."""
    if not curve:
        raise StudyError("empty sweep curve")
    ordered = sorted(curve, key=lambda item: item[0])
    return float(min(ordered, key=lambda item: abs(item[1][target]))[0])


def fraction_setups(mesh: PolyMesh, library: dict, fractions, rng_seed: int,
                    mode: str):
    """(setups, points) of a fraction sweep: per fraction, the moduli of
    `assign_volume_fraction` and (fraction, achieved, active grains)."""
    drawn = [(f, *assign_volume_fraction(mesh, f, rng_seed))
             for f in fractions]
    return ([layout.moduli(library, mode) for _, layout, _, _ in drawn],
            [(f, achieved, taken) for f, _, achieved, taken in drawn])


def run_study(kind: str, mesh: PolyMesh, setups, mode: str, targets,
              reference, methods=(), betas=DEFAULT_BETA_GRID,
              beta: float = DEFAULT_BETA, points=(), workers: int = 1):
    """A study of `kind`, one reduction of `_grid`: (its CSV writer's
    arguments before the targets, the solver counters of
    run_diagnostics.json, what it adds to that file's wall_seconds and
    to provenance.json). A comparison's tasks are `methods`, VEM-VO at
    weight `beta`; a sweep's are the weights `betas` and, when off them,
    the one its coarse FEM row (1, the coarse linear-tet system) or its
    fraction rows (DEFAULT_BETA, `points`: see `fraction_setups`) read."""
    read = 1.0 if kind == "beta-sweep" else DEFAULT_BETA
    tasks = (tuple(methods) if kind == "comparison"
             else tuple(dict.fromkeys((*betas, read))))
    grid = _grid(mesh, setups, mode, tasks, targets, reference, workers, beta)
    if kind == "comparison":
        rows, ref, _ = grid[0]
        rows = [rows[m] for m in methods]
        solver = {r.method: r.solver_stats for r in rows}
        return ((rows,), {**solver, "reference": ref},
                {"rows": [r.wall_seconds for r in rows]}, {})
    if kind == "beta-sweep":
        rows, ref, _ = grid[0]
        curve = [(float(b), rows[b].d_rel) for b in betas]
        solver = {beta_key(b): rows[b].solver_stats for b in betas}
        solver.update({"FEM-O1-coarse": rows[1.0].solver_stats,
                       "reference": ref})
        return ((curve, rows[1.0].d_rel), solver, {},
                {"beta_opt": beta_opt(curve, targets[0])})
    table, solver = [], {}
    for (fraction, achieved, taken), (rows, ref, seconds) in zip(points, grid):
        b_opt = beta_opt([(float(b), rows[b].d_rel) for b in betas],
                         targets[0])
        at = rows[DEFAULT_BETA]
        stats = solver[beta_key(fraction)] = {
            "reference": ref, beta_key(DEFAULT_BETA): at.solver_stats}
        table.append(FractionRow(float(fraction), float(achieved), taken,
                                 b_opt, at.e_c, rows[b_opt].d_rel, seconds,
                                 stats))
    return (table,), solver, {"rows": [seconds for *_, seconds in grid]}, {}


def _grid(mesh, setups, mode, tasks, targets, reference, workers, beta):
    """Per setup, ({task: ComparisonRow}, its reference's solver counters,
    seconds); setups whose references share a digest run once.
    `reference` is a single setup's, or the (levels, cache_dir) of each
    setup's. A single setup has its reference here and its tasks cut into
    up to `workers` contiguous chunks; several go one payload each."""
    mesh_hash(mesh)                 # built here, so every payload's mesh
    mesh.tets                       # carries them
    levels = reference[0] if isinstance(reference, tuple) else None
    first = {}                      # reference digest -> its first setup
    owner = [first.setdefault(_reference_digest(mesh, m, mode, levels), s)
             for s, m in enumerate(setups)]
    runs, chunks = list(first.values()), [tasks] * len(first)
    workers, t0 = usable_workers(workers), time.perf_counter()
    if len(runs) == 1:
        reference = _reference(mesh, setups[runs[0]], mode, reference)
        n = max(1, min(workers, len(tasks)))
        chunks = [tasks[k * len(tasks) // n:(k + 1) * len(tasks) // n]
                  for k in range(n)]
        runs *= n
    done = _pool_map(_run_setup, [(mesh, setups[s], mode, chunk, reference,
                                   targets, beta)
                                  for s, chunk in zip(runs, chunks)], workers)
    seconds, grid = time.perf_counter() - t0, {}
    for s, (rows, stats, wall) in zip(runs, done):
        # a single setup's run is the whole grid
        grid.setdefault(s, ({}, stats, wall if len(first) > 1 else seconds)
                        )[0].update(rows)
    return [grid[s] for s in owner]


def _reference(mesh, moduli, mode, reference) -> HomogenizationResult:
    """`reference`, or the one its (levels, cache_dir) builds or reads."""
    return (reference if isinstance(reference, HomogenizationResult)
            else build_reference(mesh, moduli, mode, *reference))


def _run_setup(mesh, moduli, mode, tasks, reference, targets, beta):
    """Pool task: ({task: ComparisonRow}, reference counters, seconds) of
    one setup, method names through `run_method`, weights `_beta_point`."""
    t0 = time.perf_counter()
    reference = _reference(mesh, moduli, mode, reference)
    if all(isinstance(task, str) for task in tasks):
        rows = {m: _row(time.perf_counter(),
                        run_method(mesh, moduli, mode, m, beta),
                        reference.effective, targets) for m in tasks}
    else:   # read when called, so a wrapper bound in its place runs here
        rows = dict(zip(tasks, _beta_point(mesh, moduli, mode, tasks,
                                           reference.effective, targets)))
    # a reference read from the cache carries no solver counters
    return (rows, reference.solver_stats or {"cached": True},
            time.perf_counter() - t0)


def _beta_point(mesh, moduli, mode, weights, ref_effective, targets):
    """The row of each weight, from one build of the VEM operators."""
    operators = VemOperators(mesh, moduli, mode)
    return [_row(time.perf_counter(), operators.evaluate(float(b)),
                 ref_effective, targets) for b in weights]


def method_comparison(mesh: PolyMesh, moduli, mode: str, methods,
                      reference: HomogenizationResult, targets,
                      beta: float = DEFAULT_BETA):
    """One ComparisonRow per method against a shared reference."""
    return run_study("comparison", mesh, [moduli], mode, targets, reference,
                     methods, beta=beta)[0][0]


def beta_sweep(mesh: PolyMesh, moduli, mode: str, beta_grid,
               reference: HomogenizationResult, targets, workers: int = 1,
               solver=None):
    """((beta, d_rel dict) in grid order, the coarse FEM row: the beta = 1
    blend); a dict `solver` gets each point's counters under its
    `beta_key` and the coarse row's under "FEM-O1-coarse"."""
    sweep, counters, _, _ = run_study("beta-sweep", mesh, [moduli], mode,
                                      targets, reference, betas=beta_grid,
                                      workers=workers)
    if solver is not None:
        solver.update((k, v) for k, v in counters.items() if k != "reference")
    return sweep


def fraction_sweep(mesh: PolyMesh, library: dict, fractions, rng_seed: int,
                   beta_grid, mode: str = "fullyCoupled",
                   targets=("G",), reference_levels: int = 2,
                   cache_dir: str | None = None, workers: int = 1):
    """Hybrid volume-fraction sweep: per fraction, the refined reference,
    the beta curve, beta_opt and the error at the default weight."""
    setups, points = fraction_setups(mesh, library, fractions, rng_seed,
                                     mode)
    return run_study("fraction-sweep", mesh, setups, mode, targets,
                     (reference_levels, cache_dir), betas=beta_grid,
                     points=points, workers=workers)[0][0]


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


def _csv(head, rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([head, *rows])
    return buf.getvalue()


def comparison_csv(rows, targets) -> str:
    return _csv(["method", "n_nodes", "n_dofs"]
                + [f"{k}_{t}_pct" for k in ("E_C", "D_rel") for t in targets],
                ([r.method, r.n_nodes, r.n_dofs]
                 + [_fmt(v[t]) for v in (r.e_c, r.d_rel) for t in targets]
                 for r in rows))


def beta_sweep_csv(curve, fem_d, targets) -> str:
    points = [(beta_key(b), d) for b, d in sorted(curve, key=lambda p: p[0])]
    return _csv(["beta"] + [f"D_rel_{t}_pct" for t in targets],
                ([key] + [_fmt(d[t]) for t in targets]
                 for key, d in points + [("FEM-O1-coarse", fem_d)]))


def fraction_csv(rows, targets) -> str:
    return _csv(["fraction_target", "fraction_achieved", "n_active_grains",
                 "beta_opt"]
                + [f"E_C_{t}_pct_beta_default" for t in targets]
                + [f"D_rel_{t}_pct_beta_opt" for t in targets],
                ([beta_key(r.fraction_target), _fmt(r.fraction_achieved),
                  r.n_active_grains, beta_key(r.beta_opt)]
                 + [_fmt(v[t]) for v in (r.e_c, r.d_rel_opt) for t in targets]
                 for r in rows))
