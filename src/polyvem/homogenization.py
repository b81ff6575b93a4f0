"""Dirichlet load-case battery, volume averaging, effective modulus.

Each load case prescribes a linear boundary field whose exact volume
average is a unit vector in the generalized-gradient space: six unit
macroscopic strains (engineering-shear convention), then unit electric
fields via a linear electric potential, then unit magnetic fields via a
linear magnetic potential. One factorization of the interior operator
and one solve serve every case; column m of the effective modulus is
the volume-averaged generalized flux of case m.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .assembly import DofMap, assemble_parts, system_from_blocks
from .element_fem import (FIELD_COUNT, batch_o1_operators,
                          promote_to_quadratic, quadratic_state_operators)
from .element_vem import (consistency_part, stabilization_part,
                          stabilization_required)
# re-exported: the benchmark's tracing test reads VemElement here
from .element_vem import VemElement  # noqa: F401
from .materials import (MODE_PINDEX, MODE_POTENTIALS, GeneralizedModulus,
                        build_modulus, datasheet_matrix, rotate_modulus,
                        voigt_to_strain)
from .mesh import PolyMesh, TetMesh, mesh_hash, refine_tet_mesh

__all__ = [
    "HomogenizationError", "HomogenizationResult", "GrainLayout",
    "case_count", "case_kind", "unit_macro_state", "boundary_values",
    "reduce_modulus", "grain_moduli",
    "VemOperators", "homogenize_vem", "homogenize_fem",
    "config_digest", "result_to_json", "result_from_json", "result_to_csv",
]

# the "format" tag of a result document
RESULT_FORMAT = "polyvem-result"

# labels of the 12-vector P and of its flux L, read at MODE_PINDEX
_STATE_NAMES = ("eps11", "eps22", "eps33", "eps23", "eps13", "eps12",
                "E1", "E2", "E3", "H1", "H2", "H3")
_FLUX_NAMES = ("sig11", "sig22", "sig33", "sig23", "sig13", "sig12",
               "negD1", "negD2", "negD3", "negB1", "negB2", "negB3")
STATE_LABELS = {mode: tuple(_STATE_NAMES[i] for i in index)
                for mode, index in MODE_PINDEX.items()}
FLUX_LABELS = {mode: tuple(_FLUX_NAMES[i] for i in index)
               for mode, index in MODE_PINDEX.items()}


class HomogenizationError(RuntimeError):
    """Invalid load case or inconsistent battery configuration."""


def case_count(mode: str) -> int:
    if mode not in MODE_PINDEX:
        raise HomogenizationError(f"unknown mode {mode!r}")
    return len(MODE_PINDEX[mode])


def case_kind(case: int, mode: str):
    """(kind, index) of 1-based load case: ('strain', voigt index) or
    ('electric'|'magnetic', axis)."""
    n = case_count(mode)
    if not 1 <= case <= n:
        raise HomogenizationError(
            f"case {case} invalid for mode {mode!r} (1..{n})")
    if case <= 6:
        return "strain", case - 1
    return MODE_POTENTIALS[mode][(case - 7) // 3], (case - 7) % 3


def unit_macro_state(case: int, mode: str) -> np.ndarray:
    """Exact volume-averaged generalized gradient of load case `case`."""
    case_kind(case, mode)                 # validates
    return np.eye(case_count(mode))[case - 1]


def boundary_values(case: int, coords: np.ndarray, mode: str) -> np.ndarray:
    """Prescribed nodal values (n_nodes, n_fields) at coordinates `coords`.

    Strain cases set u = eps_bar . x with tensor off-diagonals of 1/2 so
    the engineering-shear slot averages to one; potential cases set the
    potential to -x_axis so the corresponding field averages to +1.
    """
    kind, index = case_kind(case, mode)
    coords = np.asarray(coords, dtype=float)
    values = np.zeros((len(coords), FIELD_COUNT[mode]))
    if kind == "strain":
        values[:, 0:3] = coords @ voigt_to_strain(np.eye(6)[index])
    else:
        values[:, 3 + MODE_POTENTIALS[mode].index(kind)] = -coords[:, index]
    return values


def reduce_modulus(G, mode: str) -> np.ndarray:
    """Active-row/column submatrix of a full 12x12 modulus for `mode`."""
    M = G.matrix if isinstance(G, GeneralizedModulus) else np.asarray(G, float)
    if M.shape != (12, 12):
        raise HomogenizationError(f"expected a 12x12 modulus, got {M.shape}")
    idx = np.asarray(MODE_PINDEX[mode], dtype=int)
    return M[np.ix_(idx, idx)]


def grain_moduli(records, angles, mode: str):
    """Per-cell reduced moduli from material records and Euler angles;
    each distinct record object's modulus is built once."""
    if len(records) != len(angles):
        raise HomogenizationError("records and angles must pair up per cell")
    built = {}
    out = []
    for rec, ang in zip(records, angles):
        if isinstance(rec, GeneralizedModulus):
            G = rec
        else:
            G = built.get(id(rec))
            if G is None:
                G = built[id(rec)] = build_modulus(rec)
        out.append(reduce_modulus(rotate_modulus(G, ang), mode))
    return out


# ---------------------------------------------------------------------------
# Result container and battery driver
# ---------------------------------------------------------------------------

@dataclass
class HomogenizationResult:
    mode: str
    method: str
    beta: float | None
    effective: np.ndarray                 # (nP, nP), column m = <L> of case m
    average_states: np.ndarray            # (n_cases, nP), <P> per case
    average_fluxes: np.ndarray            # (n_cases, nP), <L> per case
    hill_residuals: np.ndarray            # (n_cases,)
    asymmetry: float
    mesh_digest: str
    material_names: tuple
    n_dofs: int
    n_factorizations: int
    n_solves: int
    # diagnostics, outside result_to_json: SparseSystem.solver_stats
    solver_stats: dict = field(default_factory=dict)

    @property
    def modulus(self) -> GeneralizedModulus | None:
        """Full generalized modulus view (symmetrized; fullyCoupled only)."""
        if self.mode != "fullyCoupled":
            return None
        return GeneralizedModulus((self.effective + self.effective.T) / 2.0)

    @property
    def effective_datasheet(self) -> np.ndarray:
        """Effective matrix converted to data-sheet block units."""
        return datasheet_matrix(self.effective, self.mode)


def _battery(system, intP, intL, coords, mesh, mode, method, beta,
             material_names):
    """Every load case on `system`, its nodes at `coords`: the volume
    averages of a solution `full` are intP @ full and intL @ full over
    the volume of `mesh`, whose digest the result carries."""
    dof_map = system.dof_map
    volume = mesh.edge_length ** 3
    n_cases = case_count(mode)            # one case per state component
    states = np.zeros((n_cases, n_cases))
    fluxes = np.zeros((n_cases, n_cases))
    hills = np.zeros(n_cases)
    system.factorize()
    bnodes = dof_map.boundary_nodes
    values = np.stack([boundary_values(case, coords[bnodes], mode).ravel()
                       for case in range(1, n_cases + 1)], axis=1)
    full, product = system.solve_dirichlet(values, product=True)
    micro = 2.0 * system.energy(full, product) / volume
    del product
    fulls = np.ascontiguousarray(full.T)
    for case, full in enumerate(fulls):
        states[case] = intP @ full / volume
        fluxes[case] = intL @ full / volume
        macro = float(states[case] @ fluxes[case])
        hills[case] = abs(micro[case] - macro) / max(abs(macro), 1e-300)
    effective = fluxes.T.copy()
    scale = np.abs(effective).max()
    asym = np.abs(effective - effective.T).max() / scale if scale else 0.0
    return HomogenizationResult(
        mode=mode, method=method, beta=beta, effective=effective,
        average_states=states, average_fluxes=fluxes, hill_residuals=hills,
        asymmetry=float(asym), mesh_digest=mesh_hash(mesh),
        material_names=tuple(material_names), n_dofs=dof_map.n_dofs,
        n_factorizations=system.n_factorizations, n_solves=system.n_solves,
        solver_stats=dict(system.solver_stats))


# ---------------------------------------------------------------------------
# Virtual-element path
# ---------------------------------------------------------------------------

class VemOperators:
    """The weight-independent pieces of the VEM battery on one (mesh,
    moduli, mode): the assembly pattern and, per part (consistency,
    stabilization), the global stiffness blocks and integrated-state
    pair. `evaluate(beta)` blends them, then factorizes, solves and
    averages once per weight. The stabilization part, and with it the
    triangulation, is built at the first positive weight.
    """

    def __init__(self, mesh: PolyMesh, moduli, mode: str = "fullyCoupled"):
        if len(moduli) != len(mesh.cells):
            raise HomogenizationError(
                f"need one modulus per cell ({len(mesh.cells)}), "
                f"got {len(moduli)}")
        nf = FIELD_COUNT[mode]
        self.mesh = mesh
        self.moduli = moduli
        self.mode = mode
        self.dof_map = DofMap(mesh.n_vertices, mesh.boundary_node_ids, mode)
        # cells whose consistency part alone is singular (hint at beta = 0)
        self.deficient_cells = tuple(
            c for c, cell in enumerate(mesh.cells)
            if stabilization_required(len(cell.vertex_ids), nf))
        self._parts = None

    def _blended(self, beta):
        """(system, intP, intL) at weight beta: both parts share one
        pattern, so a weight blends only the values of summed blocks."""
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        n_parts = 1 if beta == 0.0 else 2
        if self._parts is None or len(self._parts[1]) < n_parts:
            cells, nf = range(len(self.mesh.cells)), self.dof_map.n_fields
            parts = [consistency_part(self.mesh, cells, nf)]
            if n_parts == 2:
                parts.append(stabilization_part(self.mesh, cells, self.moduli,
                                                nf))
            self._parts = assemble_parts(parts, self.moduli,
                                         self.mesh.n_vertices, nf)
        pattern, parts = self._parts
        blocks, intP, intL = parts[0] if beta == 0.0 else (
            (1.0 - beta) * a + beta * b for a, b in zip(*parts))
        return system_from_blocks(
            pattern, blocks, self.dof_map,
            self.deficient_cells if beta == 0.0 else ()), intP, intL

    def system(self, beta: float):
        """The global sparse system at stabilization weight `beta`."""
        return self._blended(beta)[0]

    def evaluate(self, beta: float, material_names=()) -> HomogenizationResult:
        """Effective modulus at stabilization weight `beta`; the parts
        are kept for the next weight."""
        return _battery(*self._blended(beta), self.mesh.vertices, self.mesh,
                        self.mode, "VEM-VO", float(beta), material_names)


def homogenize_vem(mesh: PolyMesh, moduli, beta: float = 0.1,
                   mode: str = "fullyCoupled",
                   material_names=()) -> HomogenizationResult:
    """Effective modulus on the polyhedral mesh, one element per grain.
    The parts' node-pair blocks are freed once blended, before the
    factorization."""
    blended = VemOperators(mesh, moduli, mode)._blended(beta)
    return _battery(*blended, mesh.vertices, mesh, mode, "VEM-VO",
                    float(beta), material_names)


# ---------------------------------------------------------------------------
# Tetrahedral finite-element paths
# ---------------------------------------------------------------------------

def _tet_system(tmesh: TetMesh, moduli, dof_map):
    """(system, intP, intL) of a linear (4-node) or quadratic (10-node)
    tet mesh, one `assemble_parts` part. A grain's tets are contiguous,
    in grain order, in every coarse, refined and promoted mesh."""
    points, tets, nf = tmesh.vertices, tmesh.tets, dof_map.n_fields
    bounds = np.searchsorted(tmesh.cell_of_tet, np.arange(len(moduli) + 1))
    grains = [tets[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    def operators(c):
        if tets.shape[1] == 10:         # the corners carry the geometry
            return quadratic_state_operators(points, grains[c][:, :4], nf)
        B, vols = batch_o1_operators(points, grains[c], nf)
        return B[:, None], vols[:, None]

    pattern, ((blocks, intP, intL),) = assemble_parts(
        [(grains, operators)], moduli, dof_map.n_nodes, nf)
    return system_from_blocks(pattern, blocks, dof_map), intP, intL


def homogenize_fem(mesh: PolyMesh, moduli, order: int = 1, levels: int = 0,
                   mode: str = "fullyCoupled",
                   material_names=()) -> HomogenizationResult:
    """Effective modulus on the tetrahedralized grains.

    order 1 with levels 0 is the coarse linear baseline (`mesh.tets`);
    levels > 0 red-refines every grain conformingly; order 2 then
    promotes the tets to 10-node quadratic tets (levels must be 0).
    """
    if len(moduli) != len(mesh.cells):
        raise HomogenizationError(
            f"need one modulus per cell ({len(mesh.cells)}), got {len(moduli)}")
    if order not in (1, 2):
        raise HomogenizationError(f"order must be 1 or 2, got {order}")
    if order == 2 and levels:
        raise HomogenizationError("quadratic path supports levels=0 only")
    tmesh = refine_tet_mesh(mesh.tets, levels) if levels else mesh.tets
    if order == 2:
        tmesh = promote_to_quadratic(tmesh)
    dof_map = DofMap(tmesh.n_vertices, tmesh.boundary_node_ids, mode)
    method = (f"FEM-O{order}-refined({levels})" if levels
              else f"FEM-O{order}-coarse")
    return _battery(*_tet_system(tmesh, moduli, dof_map), tmesh.vertices,
                    mesh, mode, method, None, material_names)


# ---------------------------------------------------------------------------
# Grain layouts (material + orientation per cell)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrainLayout:
    """Material name and Euler angles for every grain of a mesh."""
    names: tuple
    angles: tuple                          # of 3-tuples

    @staticmethod
    def random(library: dict, name, n_cells: int, seed: int,
               names_override=None) -> "GrainLayout":
        """Uniformly random orientations, single material everywhere
        unless an explicit per-cell name sequence is given."""
        rng = np.random.default_rng(seed)
        angles = tuple(tuple(float(a) for a in rng.uniform(0.0, 2.0 * np.pi, 3))
                       for _ in range(n_cells))
        if names_override is not None:
            names = tuple(names_override)
            if len(names) != n_cells:
                raise HomogenizationError("one material name per cell required")
        else:
            names = (name,) * n_cells
        for nm in names:
            if nm not in library:
                raise HomogenizationError(f"material {nm!r} not in library")
        return GrainLayout(names, angles)

    def moduli(self, library: dict, mode: str):
        records = [library[nm] for nm in self.names]
        return grain_moduli(records, self.angles, mode)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def config_digest(config: dict) -> str:
    """Order-independent digest of a configuration mapping (sorted-key
    JSON); the one digest of result and provenance documents."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def result_to_json(result: HomogenizationResult, config: dict | None = None) -> str:
    """Deterministic JSON document (no timestamps or timings)."""
    payload = {
        "format": RESULT_FORMAT,
        "version": __version__,
        "mode": result.mode,
        "method": result.method,
        "beta": result.beta,
        "mesh_digest": result.mesh_digest,
        "materials": list(result.material_names),
        "n_dofs": result.n_dofs,
        "n_factorizations": result.n_factorizations,
        "n_solves": result.n_solves,
        "state_labels": list(STATE_LABELS[result.mode]),
        "flux_labels": list(FLUX_LABELS[result.mode]),
        "effective_row_major": [float(x) for x in result.effective.ravel()],
        "average_states": [[float(x) for x in row]
                           for row in result.average_states],
        "average_fluxes": [[float(x) for x in row]
                           for row in result.average_fluxes],
        "hill_residuals": [float(x) for x in result.hill_residuals],
        "asymmetry": float(result.asymmetry),
    }
    payload["config_digest"] = config_digest(config if config is not None
                                              else {"mesh": result.mesh_digest,
                                                    "mode": result.mode,
                                                    "method": result.method,
                                                    "beta": result.beta})
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def result_from_json(text: str) -> HomogenizationResult:
    """Rebuild a result from its JSON document (cache loading)."""
    doc = json.loads(text)
    if doc.get("format") != RESULT_FORMAT:
        raise HomogenizationError("not a polyvem result document")
    nP = len(doc["state_labels"])
    return HomogenizationResult(
        mode=doc["mode"], method=doc["method"], beta=doc["beta"],
        effective=np.array(doc["effective_row_major"]).reshape(nP, nP),
        average_states=np.array(doc["average_states"]),
        average_fluxes=np.array(doc["average_fluxes"]),
        hill_residuals=np.array(doc["hill_residuals"]),
        asymmetry=float(doc["asymmetry"]),
        mesh_digest=doc["mesh_digest"],
        material_names=tuple(doc["materials"]),
        n_dofs=int(doc["n_dofs"]),
        n_factorizations=int(doc["n_factorizations"]),
        n_solves=int(doc["n_solves"]))


def result_to_csv(result: HomogenizationResult) -> str:
    """Flat spreadsheet table of the effective modulus (data-sheet units)."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cols = STATE_LABELS[result.mode]
    rows = FLUX_LABELS[result.mode]
    writer.writerow(["units", "GPa | C/m^2 | N/Am | mC/kVm | N/kA^2 | s/m"])
    writer.writerow(["flux\\state", *cols])
    table = result.effective_datasheet
    for i, label in enumerate(rows):
        writer.writerow([label] + [f"{v:.12e}" for v in table[i]])
    writer.writerow([])
    writer.writerow(["case", "hill_residual"])
    for m, h in enumerate(result.hill_residuals, start=1):
        writer.writerow([m, f"{h:.3e}"])
    writer.writerow(["asymmetry", f"{result.asymmetry:.3e}"])
    return buf.getvalue()
