"""Batch front-end: mesh generation, homogenization runs, studies,
and material listing, driven by a sectioned key-value config file.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O or
input-data error. Outputs are deterministic for identical configs and
seeds: numeric tables carry no timestamps or timings; wall times go to
a separate diagnostics file. Every run writes a provenance file with
package/library versions, input hashes, and solver tolerances.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time

import numpy as np
import scipy

from . import __version__
from .assembly import AssemblyError
from .homogenization import (GrainLayout, HomogenizationError,
                             config_digest, result_to_csv, result_to_json)
from .materials import (MODE_PINDEX, MODES, MaterialError,
                        anisotropy_index, build_modulus, builtin_library,
                        parse_library)
from .mesh import (EDGE_LENGTH_RULE, MeshError, MeshParseError, PolyMesh,
                   cell_watertight, generate_voronoi,
                   interior_face_conformity, mesh_hash, parse_tess,
                   random_seeds, read_mesh, valid_edge_length, write_mesh,
                   write_tess)
from .study import (BETA_STEP, DEFAULT_BETA, FRACTION_STEP, StudyError,
                    beta_grid, beta_opt, beta_sweep, beta_sweep_csv,
                    build_reference, comparison_csv, fraction_csv,
                    fraction_grid, fraction_sweep, method_comparison,
                    parse_method, run_method, target_block)
# re-exported: benchmarks/tracing.py wraps cli._beta_point as the pool task
from .study import _beta_point  # noqa: F401

__all__ = ["main", "ConfigError", "InputDataError"]

# tolerances enforced by the numerical core, recorded in provenance
TOLERANCES = {
    "stiffness_symmetry_audit_rel": 1e-12,
    "interior_solve_residual_rel": 1e-10,
    "boundary_vertex_snap_rel": 1e-9,
}


class ConfigError(ValueError):
    """Invalid or unknown configuration content (exit code 2)."""


class InputDataError(RuntimeError):
    """Missing or malformed input files (exit code 4)."""


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

_SCHEMA = {
    "run": {"out", "seed", "workers"},
    "mesh": {"source", "path", "n_grains", "mesh_seed", "edge_length",
             "lloyd"},
    "materials": {"library", "names", "orientation_seed"},
    "homogenize": {"mode", "method", "beta"},
    "study": {"kind", "mode", "methods", "targets", "beta", "beta_step",
              "fraction_step", "fraction_seed", "reference_levels", "cache"},
}


def load_config(path: str | None) -> dict:
    """Parse the sectioned key-value config; unknown keys are rejected."""
    cfg = {section: {} for section in _SCHEMA}
    if path is None:
        return cfg
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown config section [{section}]; "
                f"expected one of {sorted(_SCHEMA)}")
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]; "
                    f"allowed: {sorted(_SCHEMA[section])}")
            cfg[section][key] = value
    return cfg


def _get(cfg, section, key, default, conv=str):
    raw = cfg[section].get(key)
    if raw is None:
        return default
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"bad value for [{section}] {key}: {raw!r}") from exc


# execution details that cannot change any computed number
_NON_SCIENTIFIC = {("run", "out"), ("run", "workers")}


def _scientific(cfg: dict) -> dict:
    """The result-determining part of a config, which its digest covers."""
    return {section: {key: value for key, value in body.items()
                      if (section, key) not in _NON_SCIENTIFIC}
            for section, body in cfg.items()}


# seeds feed NumPy's generators, which reject negative values
_SEEDS = (("run", "seed"), ("mesh", "mesh_seed"),
          ("materials", "orientation_seed"), ("study", "fraction_seed"))


def _check_seeds(cfg: dict) -> None:
    for section, key in _SEEDS:
        seed = _get(cfg, section, key, 0, int)
        if seed < 0:
            raise ConfigError(
                f"[{section}] {key} must be non-negative, got {seed}")


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------

def _apply_overrides(cfg: dict, args) -> dict:
    if args.out is not None:
        cfg["run"]["out"] = args.out
    if args.seed is not None:
        cfg["run"]["seed"] = str(args.seed)
    if args.workers is not None:
        cfg["run"]["workers"] = str(args.workers)
    return cfg


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputDataError(f"cannot read {what} {path!r}: {exc}") from exc


def build_mesh(cfg: dict) -> PolyMesh:
    seed = _get(cfg, "run", "seed", 1, int)
    source = _get(cfg, "mesh", "source", "generate")
    if source == "generate":
        n = _get(cfg, "mesh", "n_grains", 20, int)
        mesh_seed = _get(cfg, "mesh", "mesh_seed", seed, int)
        L = _get(cfg, "mesh", "edge_length", 1.0, float)
        lloyd = _get(cfg, "mesh", "lloyd", 0, int)
        if n < 1:
            raise ConfigError(f"n_grains must be positive, got {n}")
        if not valid_edge_length(L):
            raise ConfigError(f"edge_length must be {EDGE_LENGTH_RULE}, got {L}")
        if lloyd < 0:
            raise ConfigError(f"lloyd must be non-negative, got {lloyd}")
        seeds = random_seeds(n, L, mesh_seed)
        return generate_voronoi(seeds.seeds, L, lloyd=lloyd)
    if source == "file":
        path = cfg["mesh"].get("path")
        if not path:
            raise ConfigError("mesh source 'file' requires [mesh] path")
        text = _read_text(path, "mesh file")
        try:
            if path.endswith(".tess"):
                return parse_tess(text)
            return read_mesh(text)
        except MeshParseError as exc:
            raise InputDataError(f"malformed mesh file {path!r}: {exc}") from exc
    raise ConfigError(f"unknown mesh source {source!r}; "
                      "expected 'generate' or 'file'")


def load_library(cfg: dict) -> dict:
    name = _get(cfg, "materials", "library", "builtin")
    if name == "builtin":
        return builtin_library()
    text = _read_text(name, "material library")
    try:
        return parse_library(text)
    except MaterialError as exc:
        raise InputDataError(f"malformed material library {name!r}: {exc}") from exc


def build_layout(cfg: dict, library: dict, n_cells: int) -> GrainLayout:
    seed = _get(cfg, "run", "seed", 1, int)
    orientation_seed = _get(cfg, "materials", "orientation_seed",
                            seed + 1, int)
    names = _get(cfg, "materials", "names", "hex_high_anisotropy")
    name_list = [s.strip() for s in names.split(",") if s.strip()]
    if not name_list:
        raise ConfigError("[materials] names must list at least one material")
    for nm in name_list:
        if nm not in library:
            raise ConfigError(f"material {nm!r} not in library "
                              f"(available: {sorted(library)})")
    override = [name_list[c % len(name_list)] for c in range(n_cells)]
    return GrainLayout.random(library, None, n_cells, orientation_seed,
                              names_override=override)


def _write(outdir: str, name: str, text: str) -> str:
    try:
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return name
    except OSError as exc:
        raise InputDataError(f"cannot write {name!r} in {outdir!r}: {exc}") from exc


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def write_provenance(outdir: str, command: str, cfg: dict, outputs,
                     mesh_digest: str | None = None, extra=None) -> None:
    doc = {
        "format": "polyvem-provenance",
        "package_version": __version__,
        "python_version": sys.version.split()[0],
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "command": command,
        "config_digest": config_digest(_scientific(cfg)),
        "tolerances": TOLERANCES,
        "outputs": sorted(outputs),
    }
    if mesh_digest is not None:
        doc["mesh_digest"] = mesh_digest
    if extra:
        doc.update(extra)
    _write(outdir, "provenance.json", _json_dumps(doc))


def write_diagnostics(outdir: str, wall: dict, solver=None) -> None:
    doc = {"format": "polyvem-diagnostics", "wall_seconds": wall}
    if solver is not None:
        doc["solver"] = solver
    _write(outdir, "run_diagnostics.json", _json_dumps(doc))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_mesh(cfg: dict, verbose: bool) -> int:
    outdir = _get(cfg, "run", "out", "polyvem-out")
    t0 = time.perf_counter()
    mesh = build_mesh(cfg)
    stats = {
        "format": "polyvem-mesh-stats",
        "n_cells": len(mesh.cells),
        "n_vertices": mesh.n_vertices,
        "edge_length": mesh.edge_length,
        "mesh_digest": mesh_hash(mesh),
        "cell_volumes": [float(c.volume) for c in mesh.cells],
        "volume_closure_rel": float(
            abs(sum(c.volume for c in mesh.cells) - mesh.edge_length ** 3)
            / mesh.edge_length ** 3),
        "all_cells_watertight": bool(all(
            cell_watertight(c) for c in mesh.cells)),
        "interior_faces_conforming": bool(interior_face_conformity(mesh)),
    }
    outputs = [
        _write(outdir, "mesh.poly.txt", write_mesh(mesh)),
        _write(outdir, "mesh.tess", write_tess(mesh)),
        _write(outdir, "mesh_stats.json", _json_dumps(stats)),
    ]
    write_provenance(outdir, "mesh", cfg, outputs,
                     mesh_digest=stats["mesh_digest"])
    write_diagnostics(outdir, {"mesh": time.perf_counter() - t0})
    if verbose:
        print(f"mesh: {stats['n_cells']} cells, "
              f"{stats['n_vertices']} vertices -> {outdir}")
    return 0


def _beta(cfg, section: str) -> float:
    beta = _get(cfg, section, "beta", DEFAULT_BETA, float)
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"[{section}] beta must be in [0, 1], got {beta}")
    return beta


def _checked(section: str, check, *args):
    """check(*args), with a StudyError raised as a config error."""
    try:
        return check(*args)
    except StudyError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _method(section: str, method: str) -> str:
    _checked(section, parse_method, method)
    return method


def _mode(cfg, section: str, default: str) -> str:
    mode = _get(cfg, section, "mode", default)
    if mode not in MODES:
        raise ConfigError(f"[{section}] unknown mode {mode!r}; expected one "
                          f"of {', '.join(MODES)}")
    return mode


def _targets(cfg, mode: str) -> tuple:
    """The [study] targets, each a modulus block that `mode` has."""
    targets = tuple(s.strip() for s in
                    _get(cfg, "study", "targets", "G,C").split(",")
                    if s.strip())
    if not targets:
        raise ConfigError("[study] targets must name at least one block")
    n = len(MODE_PINDEX[mode])
    for target in targets:
        _checked("study", target_block, np.zeros((n, n)), mode, target)
    return targets


def cmd_homogenize(cfg: dict, verbose: bool) -> int:
    outdir = _get(cfg, "run", "out", "polyvem-out")
    mode = _mode(cfg, "homogenize", "fullyCoupled")
    method = _method("homogenize",
                     _get(cfg, "homogenize", "method", "VEM-VO"))
    beta = _beta(cfg, "homogenize")
    t0 = time.perf_counter()
    mesh = build_mesh(cfg)
    library = load_library(cfg)
    layout = build_layout(cfg, library, len(mesh.cells))
    moduli = layout.moduli(library, mode)
    result = run_method(mesh, moduli, mode, method, beta, layout.names)
    outputs = [
        _write(outdir, "result.json",
               result_to_json(result, config=_scientific(cfg))),
        _write(outdir, "effective.csv", result_to_csv(result)),
    ]
    write_provenance(outdir, "homogenize", cfg, outputs,
                     mesh_digest=result.mesh_digest,
                     extra={"method": result.method, "mode": result.mode,
                            "n_dofs": result.n_dofs})
    write_diagnostics(outdir, {"homogenize": time.perf_counter() - t0},
                      solver=result.solver_stats)
    if verbose:
        print(f"homogenize: {result.method} on {len(mesh.cells)} cells, "
              f"{result.n_dofs} dofs, max Hill residual "
              f"{float(np.max(result.hill_residuals)):.3e} -> {outdir}")
    return 0


_STUDY_KINDS = ("comparison", "beta-sweep", "fraction-sweep")


def cmd_study(cfg: dict, verbose: bool) -> int:
    outdir = _get(cfg, "run", "out", "polyvem-out")
    kind = _get(cfg, "study", "kind", "comparison")
    if kind not in _STUDY_KINDS:
        raise ConfigError(f"unknown study kind {kind!r}; expected "
                          f"{', '.join(_STUDY_KINDS)}")
    mode = _mode(cfg, "study", "electroMech")
    # a fraction sweep runs electroMech as fullyCoupled
    run_mode = ("fullyCoupled" if kind == "fraction-sweep"
                and mode == "electroMech" else mode)
    targets = _targets(cfg, run_mode)
    methods = tuple(_method("study", s.strip()) for s in
                    _get(cfg, "study", "methods",
                         "VEM-VO,FEM-O1-coarse").split(",") if s.strip())
    levels = _get(cfg, "study", "reference_levels", 2, int)
    if levels < 1:
        raise ConfigError(
            f"[study] reference_levels must be at least 1, got {levels}")
    beta = _beta(cfg, "study")
    betas = _checked("study", beta_grid,
                     _get(cfg, "study", "beta_step", BETA_STEP, float))
    fractions = _checked("study", fraction_grid, _get(
        cfg, "study", "fraction_step", FRACTION_STEP, float))
    seed = _get(cfg, "run", "seed", 1, int)
    fraction_seed = _get(cfg, "study", "fraction_seed", seed + 2, int)
    cache = cfg["study"].get("cache")
    workers = _get(cfg, "run", "workers", 1, int)
    t0 = time.perf_counter()
    mesh = build_mesh(cfg)
    library = load_library(cfg)
    outputs = []
    wall = {}
    solver = None
    extra = {"kind": kind, "mode": mode}

    if kind == "fraction-sweep":
        rows = fraction_sweep(mesh, library, fractions, fraction_seed, betas,
                              mode=run_mode, targets=targets,
                              reference_levels=levels, cache_dir=cache,
                              workers=workers)
        outputs.append(_write(outdir, "fraction_sweep.csv",
                              fraction_csv(rows, targets)))
        wall["rows"] = [r.wall_seconds for r in rows]
    else:
        layout = build_layout(cfg, library, len(mesh.cells))
        moduli = layout.moduli(library, mode)
        reference = build_reference(mesh, moduli, mode, levels, cache)
        if kind == "comparison":
            rows = method_comparison(mesh, moduli, mode, methods, reference,
                                     targets, beta=beta)
            outputs.append(_write(outdir, "comparison.csv",
                                  comparison_csv(rows, targets)))
            wall["rows"] = [r.wall_seconds for r in rows]
            solver = {r.method: r.solver_stats for r in rows}
        else:                                # beta-sweep
            solver = {}
            curve, fem_d = beta_sweep(mesh, moduli, mode, betas, reference,
                                      targets, workers, solver)
            outputs.append(_write(outdir, "beta_sweep.csv",
                                  beta_sweep_csv(curve, fem_d, targets)))
            extra["beta_opt"] = beta_opt(curve, targets[0])
        # a reference read from the cache carries no solver counters
        solver["reference"] = reference.solver_stats or {"cached": True}

    write_provenance(outdir, "study", cfg, outputs,
                     mesh_digest=mesh_hash(mesh), extra=extra)
    wall["study"] = time.perf_counter() - t0
    write_diagnostics(outdir, wall, solver=solver)
    if verbose:
        print(f"study[{kind}]: {', '.join(sorted(outputs))} -> {outdir}")
    return 0


def cmd_materials(cfg: dict, verbose: bool) -> int:
    library = load_library(cfg)
    lines = [f"{'name':24s} {'mode':14s} {'lattice':12s} {'A_U':>10s}"]
    for name in sorted(library):
        rec = library[name]
        a_u = anisotropy_index(build_modulus(rec).stiffness)
        lines.append(f"{name:24s} {rec.mode:14s} {rec.lattice:12s} {a_u:10.4f}")
    table = "\n".join(lines) + "\n"
    print(table, end="")
    outdir = cfg["run"].get("out")
    if outdir:
        outputs = [_write(outdir, "materials.txt", table)]
        write_provenance(outdir, "materials", cfg, outputs)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyvem",
        description="Effective coupled moduli of polycrystals: polyhedral "
                    "virtual elements with tetrahedral baselines.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("mesh", "generate or convert a grain mesh"),
            ("homogenize", "run one homogenization and write tables"),
            ("study", "run comparison/sweep studies and write CSVs"),
            ("materials", "list material library entries with A_U")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="sectioned key-value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="global RNG seed (derived seeds offset from it)")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes for sweep points")
        p.add_argument("--verbose", action="store_true")
    return parser


_COMMANDS = {
    "mesh": cmd_mesh,
    "homogenize": cmd_homogenize,
    "study": cmd_study,
    "materials": cmd_materials,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        _check_seeds(cfg)
        return _COMMANDS[args.command](cfg, args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InputDataError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except (AssemblyError, HomogenizationError, StudyError, MeshError,
            MaterialError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
