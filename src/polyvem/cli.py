"""Batch front-end: mesh generation, homogenization runs, studies,
and material listing, driven by a sectioned key-value config file.

Exit codes: 0 success, 2 config error, 3 numerical failure or
exhausted memory, 4 I/O or input-data error. Outputs are deterministic
for identical configs and seeds: numeric tables carry no timestamps or
timings; wall times go to a separate diagnostics file. Every run writes
a provenance file with package/library versions, input hashes, and
solver tolerances.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import json
import os
import platform
import sys
import time

import numpy as np
import scipy

from . import __version__, assembly, mesh as meshing
from .assembly import AssemblyError
from .homogenization import (GrainLayout, HomogenizationError,
                             config_digest, result_to_csv, result_to_json)
from .materials import (MODE_PINDEX, MODES, MaterialError,
                        anisotropy_index, build_modulus, builtin_library,
                        parse_library)
from .mesh import (EDGE_LENGTH_RULE, MeshError, MeshParseError, PolyMesh,
                   generate_voronoi, interior_face_conformity, mesh_hash,
                   parse_tess, random_seeds, read_mesh, valid_edge_length,
                   watertight_cells, write_mesh, write_tess)
from .study import (BETA_STEP, DEFAULT_BETA, FRACTION_STEP, StudyError,
                    beta_grid, beta_sweep_csv, check_fraction_phases,
                    check_targets, comparison_csv, fraction_csv,
                    fraction_grid, fraction_setups, parse_method,
                    run_method, run_study, target_block)
# re-exported: benchmarks/tracing.py wraps cli._beta_point as the pool task
from .study import _beta_point  # noqa: F401

__all__ = ["main", "ConfigError", "InputDataError"]

class ConfigError(ValueError):
    """Invalid or unknown configuration content (exit code 2)."""


class InputDataError(RuntimeError):
    """Missing or malformed input files (exit code 4)."""


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

# study kind -> (CSV name, writer of the table `run_study` returns)
_STUDY_CSV = {"comparison": ("comparison.csv", comparison_csv),
              "beta-sweep": ("beta_sweep.csv", beta_sweep_csv),
              "fraction-sweep": ("fraction_sweep.csv", fraction_csv)}


def _names(raw: str) -> tuple:
    """The entries of a comma list, blanks dropped."""
    return tuple(s.strip() for s in raw.split(",") if s.strip())


def _must(ok, rule: str):
    """Check that ok(value) holds, stating `rule` when it does not."""
    def check(key, value):
        if not ok(value):
            raise ValueError(f"{key} must be {rule}, got {value!r}")
    return check


def _naming(what: str):
    """Check that a value is not empty: that it names `what`."""
    def check(key, value):
        if not value:
            raise ValueError(f"{key} must name {what}")
    return check


def _methods(key, methods):
    _naming("at least one method")(key, methods)
    for method in methods:
        parse_method(method)


def _one_of(choices):
    """Check that a value is one of `choices`."""
    def check(key, value):
        if value not in choices:
            raise ValueError(f"unknown {key} {value!r}; expected one of "
                             f"{', '.join(choices)}")
    return check


def _seed(offset: int):
    """Default of a derived seed: [run] seed + offset."""
    return lambda cfg: setting(cfg, "run", "seed") + offset


# seeds feed NumPy's generators, which reject negative values
_NON_NEGATIVE = _must(lambda v: v >= 0, "non-negative")
_POSITIVE = _must(lambda v: v >= 1, "at least 1")
_BETA = _must(lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_MODE = _one_of(MODES)

# section -> key -> (parse, default, check): `parse` turns the config's
# text into the value (a ValueError there is a bad value); `check(key,
# value)`, if any, raises ValueError or StudyError saying what is wrong
# with a parsed value; a callable default derives the value from other
# keys. Defaults are not checked.
CONFIG = {
    "run": {"out": (str, "polyvem-out", _naming("a directory")),
            "seed": (int, 1, _NON_NEGATIVE),
            "workers": (int, 1, _POSITIVE)},
    "mesh": {"source": (str, "generate", _one_of(("generate", "file"))),
             "path": (str, None, None),
             "n_grains": (int, 20, _POSITIVE),
             "mesh_seed": (int, _seed(0), _NON_NEGATIVE),
             "edge_length": (float, 1.0,
                             _must(valid_edge_length, EDGE_LENGTH_RULE)),
             "lloyd": (int, 0, _NON_NEGATIVE)},
    "materials": {"library": (str, "builtin", None),
                  "names": (_names, ("hex_high_anisotropy",),
                            _naming("at least one material")),
                  "orientation_seed": (int, _seed(1), _NON_NEGATIVE)},
    "homogenize": {"mode": (str, "fullyCoupled", _MODE),
                   "method": (str, "VEM-VO",
                              lambda key, method: parse_method(method)),
                   "beta": (float, DEFAULT_BETA, _BETA)},
    "study": {"kind": (str, "comparison", _one_of(tuple(_STUDY_CSV))),
              "mode": (str, "electroMech", _MODE),
              "methods": (_names, ("VEM-VO", "FEM-O1-coarse"), _methods),
              "targets": (_names, ("G", "C"), _naming("at least one block")),
              "beta": (float, DEFAULT_BETA, _BETA),
              "beta_step": (float, BETA_STEP,
                            lambda key, step: beta_grid(step)),
              "fraction_step": (float, FRACTION_STEP,
                                lambda key, step: fraction_grid(step)),
              "fraction_seed": (int, _seed(2), _NON_NEGATIVE),
              "reference_levels": (int, 2, _POSITIVE),
              "cache": (str, None, _naming("a directory"))},
}


def load_config(path: str | None) -> dict:
    """Parse the sectioned key-value config; unknown keys are rejected.
    Values stay the config's text; `setting` reads them."""
    cfg = {section: {} for section in CONFIG}
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
        if section not in CONFIG:
            raise ConfigError(
                f"unknown config section [{section}]; "
                f"expected one of {sorted(CONFIG)}")
        for key, value in parser.items(section):
            if key not in CONFIG[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]; "
                    f"allowed: {sorted(CONFIG[section])}")
            cfg[section][key] = value
    return cfg


def setting(cfg: dict, section: str, key: str):
    """The value of `[section] key`: parsed and checked when the config
    gives it, its default otherwise."""
    parse, default, check = CONFIG[section][key]
    raw = cfg[section].get(key)
    if raw is None:
        return default(cfg) if callable(default) else default
    try:
        value = parse(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    if check is not None:
        _checked(section, check, key, value)
    return value


def _checked(section: str, check, *args):
    """check(*args), with what it raises about the config (StudyError or
    ValueError) raised as a config error."""
    try:
        return check(*args)
    except (StudyError, ValueError) as exc:
        raise ConfigError(f"[{section}] {exc}") from None


# execution details that cannot change any computed number
_NON_SCIENTIFIC = {("run", "out"), ("run", "workers")}


def _scientific(cfg: dict) -> dict:
    """The result-determining part of a config, which its digest covers."""
    return {section: {key: value for key, value in body.items()
                      if (section, key) not in _NON_SCIENTIFIC}
            for section, body in cfg.items()}


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------

def _apply_overrides(cfg: dict, args) -> dict:
    for key in ("out", "seed", "workers"):
        if getattr(args, key) is not None:
            cfg["run"][key] = str(getattr(args, key))
    return cfg


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputDataError(f"cannot read {what} {path!r}: {exc}") from exc


def build_mesh(cfg: dict) -> PolyMesh:
    if setting(cfg, "mesh", "source") == "generate":
        L = setting(cfg, "mesh", "edge_length")
        seeds = random_seeds(setting(cfg, "mesh", "n_grains"), L,
                             setting(cfg, "mesh", "mesh_seed"))
        return generate_voronoi(seeds.seeds, L,
                                lloyd=setting(cfg, "mesh", "lloyd"))
    path = setting(cfg, "mesh", "path")
    if not path:
        raise ConfigError("mesh source 'file' requires [mesh] path")
    text = _read_text(path, "mesh file")
    try:
        if path.endswith(".tess"):
            return parse_tess(text)
        return read_mesh(text)
    except MeshParseError as exc:
        raise InputDataError(f"malformed mesh file {path!r}: {exc}") from exc


def load_library(cfg: dict) -> dict:
    name = setting(cfg, "materials", "library")
    if name == "builtin":
        return builtin_library()
    text = _read_text(name, "material library")
    try:
        return parse_library(text)
    except MaterialError as exc:
        raise InputDataError(f"malformed material library {name!r}: {exc}") from exc


def material_names(cfg: dict, library: dict) -> tuple:
    """The [materials] names, each checked against the library."""
    names = setting(cfg, "materials", "names")
    for name in names:
        if name not in library:
            raise ConfigError(f"material {name!r} not in library "
                              f"(available: {sorted(library)})")
    return names


def build_layout(cfg: dict, library: dict, names, n_cells: int) -> GrainLayout:
    """Grains take `names` in turn, at seeded random orientations."""
    override = [names[c % len(names)] for c in range(n_cells)]
    return GrainLayout.random(library, None, n_cells,
                              setting(cfg, "materials", "orientation_seed"),
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
        # the tolerances the numerical core enforces, as it reads them
        "tolerances": {
            "stiffness_symmetry_audit_rel": assembly.SYMMETRY_AUDIT,
            "interior_solve_residual_rel": assembly.RESIDUAL_GATE,
            "boundary_vertex_snap_rel": meshing.TAU_BOX,
        },
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
    outdir = setting(cfg, "run", "out")
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
        "all_cells_watertight": bool(watertight_cells(mesh.cells).all()),
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


def cmd_homogenize(cfg: dict, verbose: bool) -> int:
    outdir = setting(cfg, "run", "out")
    mode = setting(cfg, "homogenize", "mode")
    t0 = time.perf_counter()
    library = load_library(cfg)
    names = material_names(cfg, library)
    t_mesh = time.perf_counter()
    mesh = build_mesh(cfg)
    wall = {"mesh": time.perf_counter() - t_mesh}
    layout = build_layout(cfg, library, names, len(mesh.cells))
    moduli = layout.moduli(library, mode)
    result = run_method(mesh, moduli, mode,
                        setting(cfg, "homogenize", "method"),
                        setting(cfg, "homogenize", "beta"), layout.names)
    outputs = [
        _write(outdir, "result.json",
               result_to_json(result, config=_scientific(cfg))),
        _write(outdir, "effective.csv", result_to_csv(result)),
    ]
    write_provenance(outdir, "homogenize", cfg, outputs,
                     mesh_digest=result.mesh_digest,
                     extra={"method": result.method, "mode": result.mode,
                            "n_dofs": result.n_dofs})
    wall["homogenize"] = time.perf_counter() - t0
    write_diagnostics(outdir, wall, solver=result.solver_stats)
    if verbose:
        print(f"homogenize: {result.method} on {len(mesh.cells)} cells, "
              f"{result.n_dofs} dofs, max Hill residual "
              f"{float(np.max(result.hill_residuals)):.3e} -> {outdir}")
    return 0


def cmd_study(cfg: dict, verbose: bool) -> int:
    outdir = setting(cfg, "run", "out")
    study = {key: setting(cfg, "study", key) for key in CONFIG["study"]}
    kind, mode, targets = study["kind"], study["mode"], study["targets"]
    fractions = kind == "fraction-sweep"
    if fractions and mode == "electroMech":
        mode = "fullyCoupled"       # a fraction sweep runs it fully coupled
    n = len(MODE_PINDEX[mode])
    for target in targets:                 # each a block that mode has
        _checked("study", target_block, np.zeros((n, n)), mode, target)
    t0 = time.perf_counter()
    library = load_library(cfg)
    if fractions:
        _checked("study", check_fraction_phases, library, mode, targets)
    else:
        names = material_names(cfg, library)
    t_mesh = time.perf_counter()
    mesh = build_mesh(cfg)
    wall = {"mesh": time.perf_counter() - t_mesh}
    if fractions:
        setups, points = fraction_setups(
            mesh, library, fraction_grid(study["fraction_step"]),
            study["fraction_seed"], mode)
    else:
        layout = build_layout(cfg, library, names, len(mesh.cells))
        setups, points = [layout.moduli(library, mode)], ()
        _checked("study", check_targets, setups[0], mode, targets)
    table, solver, walls, extra = run_study(
        kind, mesh, setups, mode, targets,
        (study["reference_levels"], study["cache"]), study["methods"],
        beta_grid(study["beta_step"]), study["beta"], points,
        setting(cfg, "run", "workers"))
    name, writer = _STUDY_CSV[kind]
    outputs = [_write(outdir, name, writer(*table, targets))]
    write_provenance(outdir, "study", cfg, outputs,
                     mesh_digest=mesh_hash(mesh),
                     extra={"kind": kind, "mode": mode, **extra})
    wall.update(walls)
    wall["study"] = time.perf_counter() - t0
    write_diagnostics(outdir, wall, solver=solver)
    if verbose:
        print(f"study[{kind}]: {name} -> {outdir}")
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
    if "out" in cfg["run"]:               # written only when asked for
        outdir = setting(cfg, "run", "out")
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
                       help="processes for sweep points, this one "
                            "included")
        p.add_argument("--verbose", action="store_true")
    return parser


_COMMANDS = {
    "mesh": cmd_mesh,
    "homogenize": cmd_homogenize,
    "study": cmd_study,
    "materials": cmd_materials,
}


def main(argv=None) -> int:
    # glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, fixed: arrays from
    # 4 MiB get mappings of their own ("Heap thresholds" in docs/fem.md)
    if platform.libc_ver()[0] == "glibc":
        for param, value in ((-3, 4 << 20), (-1, 8 << 20)):
            ctypes.CDLL(None).mallopt(param, value)
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        for section, keys in CONFIG.items():    # every given value, first
            for key in keys:
                setting(cfg, section, key)
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
    except MemoryError as exc:
        print(f"numerical failure: out of memory ({exc})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
