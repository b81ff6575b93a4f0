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
from .assembly import (BlockPattern, DofMap, add_blocks, node_dofs,
                       scatter_columns, system_from_blocks)
from .element_fem import (FIELD_COUNT, batch_o1_operators, field_operator,
                          gauss_stiffness, promote_to_quadratic,
                          quadratic_state_operators)
from .element_vem import cell_operators, stabilization_required
# re-exported: the benchmark's tracing test reads VemElement here
from .element_vem import VemElement  # noqa: F401
from .materials import (MODE_PINDEX, GeneralizedModulus, build_modulus,
                        datasheet_matrix, rotate_modulus)
from .mesh import PolyMesh, mesh_hash, refine_tet_mesh

__all__ = [
    "HomogenizationError", "HomogenizationResult", "GrainLayout",
    "case_count", "case_kind", "unit_macro_state", "boundary_values",
    "reduce_modulus", "grain_moduli",
    "VemOperators", "homogenize_vem", "homogenize_fem", "surface_average_state",
    "config_digest", "result_to_json", "result_from_json", "result_to_csv",
]

# the "format" tag of a result document
RESULT_FORMAT = "polyvem-result"

STATE_LABELS = {
    "fullyCoupled": ("eps11", "eps22", "eps33", "eps23", "eps13", "eps12",
                     "E1", "E2", "E3", "H1", "H2", "H3"),
    "electroMech": ("eps11", "eps22", "eps33", "eps23", "eps13", "eps12",
                    "E1", "E2", "E3"),
    "magnetoMech": ("eps11", "eps22", "eps33", "eps23", "eps13", "eps12",
                    "H1", "H2", "H3"),
}
FLUX_LABELS = {
    "fullyCoupled": ("sig11", "sig22", "sig33", "sig23", "sig13", "sig12",
                     "negD1", "negD2", "negD3", "negB1", "negB2", "negB3"),
    "electroMech": ("sig11", "sig22", "sig33", "sig23", "sig13", "sig12",
                    "negD1", "negD2", "negD3"),
    "magnetoMech": ("sig11", "sig22", "sig33", "sig23", "sig13", "sig12",
                    "negB1", "negB2", "negB3"),
}

_VOIGT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))


class HomogenizationError(RuntimeError):
    """Invalid load case or inconsistent battery configuration."""


def case_count(mode: str) -> int:
    if mode not in FIELD_COUNT:
        raise HomogenizationError(f"unknown mode {mode!r}")
    return 6 + 3 * (FIELD_COUNT[mode] - 3)


def case_kind(case: int, mode: str):
    """(kind, index) of 1-based load case: ('strain', voigt index) or
    ('electric'|'magnetic', axis)."""
    n = case_count(mode)
    if not 1 <= case <= n:
        raise HomogenizationError(
            f"case {case} invalid for mode {mode!r} (1..{n})")
    if case <= 6:
        return "strain", case - 1
    axis = (case - 7) % 3
    if mode == "magnetoMech" or (mode == "fullyCoupled" and case > 9):
        return "magnetic", axis
    return "electric", axis


def unit_macro_state(case: int, mode: str) -> np.ndarray:
    """Exact volume-averaged generalized gradient of load case `case`."""
    e = np.zeros(6 + 3 * (FIELD_COUNT[mode] - 3))
    case_kind(case, mode)                 # validates
    e[case - 1] = 1.0
    return e


def boundary_values(case: int, coords: np.ndarray, mode: str) -> np.ndarray:
    """Prescribed nodal values (n_nodes, n_fields) at coordinates `coords`.

    Strain cases set u = eps_bar . x with tensor off-diagonals of 1/2 so
    the engineering-shear slot averages to one; potential cases set the
    potential to -x_axis so the corresponding field averages to +1.
    """
    kind, index = case_kind(case, mode)
    coords = np.asarray(coords, dtype=float)
    nf = FIELD_COUNT[mode]
    values = np.zeros((len(coords), nf))
    if kind == "strain":
        i, j = _VOIGT_PAIRS[index]
        eps = np.zeros((3, 3))
        if i == j:
            eps[i, i] = 1.0
        else:
            eps[i, j] = eps[j, i] = 0.5
        values[:, 0:3] = coords @ eps
    else:
        if mode == "fullyCoupled":
            col = 3 if kind == "electric" else 4
        else:
            col = 3
        values[:, col] = -coords[:, index]
    return values


def reduce_modulus(G, mode: str) -> np.ndarray:
    """Active-row/column submatrix of a full 12x12 modulus for `mode`."""
    M = G.matrix if isinstance(G, GeneralizedModulus) else np.asarray(G, float)
    if M.shape != (12, 12):
        raise HomogenizationError(f"expected a 12x12 modulus, got {M.shape}")
    idx = np.asarray(MODE_PINDEX[mode], dtype=int)
    return M[np.ix_(idx, idx)]


def grain_moduli(records, angles, mode: str):
    """Per-cell reduced moduli from material records and Euler angles."""
    if len(records) != len(angles):
        raise HomogenizationError("records and angles must pair up per cell")
    out = []
    for rec, ang in zip(records, angles):
        G = rec if isinstance(rec, GeneralizedModulus) else build_modulus(rec)
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
    scaling_report: dict
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


def _battery(system, dof_map, coords, mode, volume, averager,
             method, beta, mesh_digest, material_names):
    n_cases = case_count(mode)            # one case per state component
    states = np.zeros((n_cases, n_cases))
    fluxes = np.zeros((n_cases, n_cases))
    hills = np.zeros(n_cases)
    system.factorize()
    bnodes = dof_map.boundary_nodes
    values = np.stack([boundary_values(case, coords[bnodes], mode).ravel()
                       for case in range(1, n_cases + 1)], axis=1)
    fulls = np.ascontiguousarray(system.solve_dirichlet(values).T)
    micro = 2.0 * system.energy(fulls.T) / volume
    for case, full in enumerate(fulls):
        avgP, avgL = averager(full)
        states[case] = avgP
        fluxes[case] = avgL
        macro = float(avgP @ avgL)
        hills[case] = abs(micro[case] - macro) / max(abs(macro), 1e-300)
    effective = fluxes.T.copy()
    scale = np.abs(effective).max()
    asym = np.abs(effective - effective.T).max() / scale if scale else 0.0
    return HomogenizationResult(
        mode=mode, method=method, beta=beta, effective=effective,
        average_states=states, average_fluxes=fluxes, hill_residuals=hills,
        asymmetry=float(asym), mesh_digest=mesh_digest,
        material_names=tuple(material_names), n_dofs=dof_map.n_dofs,
        n_factorizations=system.n_factorizations, n_solves=system.n_solves,
        scaling_report=system.scaling_report,
        solver_stats=dict(system.solver_stats))


# ---------------------------------------------------------------------------
# Virtual-element path
# ---------------------------------------------------------------------------

class VemOperators:
    """The weight-independent pieces of the VEM battery on one (mesh,
    moduli, mode): the assembly pattern, the consistency and
    stabilization parts of the global stiffness values, and the same two
    parts of the volume-averaging operators. `evaluate(beta)` blends
    them, then factorizes, solves and averages once per weight.

    `with_tets=False` skips the stabilization parts and the
    triangulation; such operators evaluate at beta = 0 only.
    """

    def __init__(self, mesh: PolyMesh, moduli, mode: str = "fullyCoupled",
                 with_tets: bool = True):
        if len(moduli) != len(mesh.cells):
            raise HomogenizationError(
                f"need one modulus per cell ({len(mesh.cells)}), "
                f"got {len(moduli)}")
        nf = FIELD_COUNT[mode]
        nP = case_count(mode)
        self.mesh = mesh
        self.mode = mode
        self.with_tets = with_tets
        self.dof_map = DofMap(mesh.n_vertices, mesh.boundary_node_ids, mode)
        self.mesh_digest = mesh_hash(mesh)
        # cells whose consistency part alone is singular (hint at beta = 0)
        self.deficient_cells = tuple(
            c for c, cell in enumerate(mesh.cells)
            if stabilization_required(len(cell.vertex_ids), nf))

        # shared pattern: one nf x nf block per coupled node pair, so each
        # weight assembles only the blended values of summed blocks
        self._pattern, positions = BlockPattern.of_elements(
            [cell.vertex_ids[None] for cell in mesh.cells], mesh.n_vertices,
            nf)

        # index 0: consistency part, 1: stabilization part
        n_parts = 2 if with_tets else 1
        blocks = np.zeros((n_parts, self._pattern.n_pairs, nf, nf))
        average = np.zeros((n_parts, 2, nP, self.dof_map.n_dofs))
        cells = cell_operators(mesh, range(len(mesh.cells)), moduli, nf,
                               with_tets)
        for c, G, at in zip(cells, moduli, positions):
            dofs = node_dofs(c.node_ids, nf)
            for part, (K, A) in enumerate([(c.K_cons, c.A_cons),
                                           (c.K_tet, c.A_tet)][:n_parts]):
                add_blocks(blocks[part], at, K[None])
                average[part, 0][:, dofs] += A
                average[part, 1][:, dofs] += G @ A
        self._blocks = blocks
        self._average = average

    @staticmethod
    def _blend(parts, beta):
        if beta == 0.0:
            return parts[0]
        return (1.0 - beta) * parts[0] + beta * parts[1]

    def system(self, beta: float):
        """The global sparse system at stabilization weight `beta`."""
        return system_from_blocks(
            self._pattern, self._blend(self._blocks, beta), self.dof_map,
            self.deficient_cells if beta == 0.0 else ())

    def evaluate(self, beta: float, material_names=()) -> HomogenizationResult:
        """Effective modulus at stabilization weight `beta`."""
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        if beta > 0.0 and not self.with_tets:
            raise HomogenizationError(
                "operators built for beta = 0 only; rebuild with_tets")
        volume = self.mesh.edge_length ** 3
        return _battery(self.system(beta), self.dof_map, self.mesh.vertices,
                        self.mode, volume,
                        _averager(*self._blend(self._average, beta), volume),
                        "VEM-VO", float(beta), self.mesh_digest,
                        material_names)


def homogenize_vem(mesh: PolyMesh, moduli, beta: float = 0.1,
                   mode: str = "fullyCoupled",
                   material_names=()) -> HomogenizationResult:
    """Effective modulus on the polyhedral mesh, one element per grain."""
    operators = VemOperators(mesh, moduli, mode, with_tets=beta > 0.0)
    return operators.evaluate(beta, material_names)


def surface_average_state(mesh: PolyMesh, nodal_values: np.ndarray) -> np.ndarray:
    """Volume-averaged generalized gradient evaluated purely from surface
    integrals of the nodal data over the box boundary (divergence form)."""
    values = np.asarray(nodal_values, dtype=float)
    t = mesh.faces
    # an on-box face has one owner, which winds it as stored (outward)
    integrals = np.add.reduceat(t.weights[:, None] * values[t.loops],
                                t.offsets[:-1])
    acc = t.normal[t.on_box].T @ integrals[t.on_box] / mesh.edge_length ** 3
    # acc[j, f] = <d field_f / dx_j>: the rows act as nodes whose shape
    # gradients are the unit vectors
    return field_operator(np.eye(3), values.shape[1]) @ acc.ravel()


# ---------------------------------------------------------------------------
# Tetrahedral finite-element paths
# ---------------------------------------------------------------------------

def _tet_system(nodes, owners, operators, moduli, dof_map):
    """(system, intP, intL) of a tet mesh, built one grain at a time.

    nodes (m, k) are the node ids of each tet and owners its grain;
    operators(idx) gives the state operators B (len(idx), n_gauss, nP,
    nd) and weights w (len(idx), n_gauss) of the tets idx at their
    Gauss points (a linear tet is one point of weight V). Per grain,
    the stiffness is summed into the node-pair blocks of one pattern
    and the weighted operators into the integrated-state pair intP =
    int P, intL = int G P (nP x n_dofs), so no operator array larger
    than one grain's is ever held.
    """
    nf = dof_map.n_fields
    pattern, (positions,) = BlockPattern.of_elements([nodes], dof_map.n_nodes,
                                                     nf)
    blocks = np.zeros((pattern.n_pairs, nf, nf))
    intP = np.zeros((case_count(dof_map.mode), dof_map.n_dofs))
    intL = np.zeros_like(intP)
    for c in np.unique(owners):
        idx = np.nonzero(owners == c)[0]
        B, w = operators(idx)
        add_blocks(blocks, positions[idx], gauss_stiffness(B, w, moduli[c]))
        part = scatter_columns(node_dofs(nodes[idx], nf),
                               np.einsum("mg,mgpa->mpa", w, B),
                               dof_map.n_dofs)
        intP += part
        intL += moduli[c] @ part
    del positions
    return system_from_blocks(pattern, blocks, dof_map), intP, intL


def _averager(intP, intL, volume):
    """Battery averager of an integrated-state pair: the volume averages
    (<P>, <L>) of a full solution vector."""
    def averager(full):
        return intP @ full / volume, intL @ full / volume
    return averager


def _fem_o1_system(points, tets, owners, moduli, dof_map):
    """Linear-tet system and its integrated-state pair (intP, intL)."""
    def operators(idx):
        B, vols = batch_o1_operators(points, tets[idx], dof_map.n_fields)
        return B[:, None], vols[:, None]

    system, *pair = _tet_system(tets, owners, operators, moduli, dof_map)
    return system, pair


def _fem_o2_system(tmesh, o2, moduli, dof_map):
    """Quadratic-tet system and its integrated-state pair (intP, intL)."""
    def operators(idx):
        return quadratic_state_operators(tmesh.vertices, tmesh.tets[idx],
                                         dof_map.n_fields)

    system, *pair = _tet_system(o2.tets, o2.cell_of_tet, operators, moduli,
                                dof_map)
    return system, pair


def homogenize_fem(mesh: PolyMesh, moduli, order: int = 1, levels: int = 0,
                   mode: str = "fullyCoupled",
                   material_names=()) -> HomogenizationResult:
    """Effective modulus on the tetrahedralized grains.

    order 1 with levels 0 is the coarse linear baseline (`mesh.tets`);
    levels > 0 red-refines every grain conformingly; order 2 promotes
    the coarse mesh to 10-node quadratic tets (levels must be 0).
    """
    if len(moduli) != len(mesh.cells):
        raise HomogenizationError(
            f"need one modulus per cell ({len(mesh.cells)}), got {len(moduli)}")
    if order not in (1, 2):
        raise HomogenizationError(f"order must be 1 or 2, got {order}")
    if order == 2 and levels:
        raise HomogenizationError("quadratic path supports levels=0 only")
    tmesh = mesh.tets
    if levels:
        tmesh = refine_tet_mesh(tmesh, levels)

    if order == 1:
        dof_map = DofMap(tmesh.n_vertices, tmesh.boundary_node_ids, mode)
        system, pair = _fem_o1_system(
            tmesh.vertices, tmesh.tets, tmesh.cell_of_tet, moduli, dof_map)
        coords = tmesh.vertices
        method = f"FEM-O1-refined({levels})" if levels else "FEM-O1-coarse"
    else:
        o2 = promote_to_quadratic(tmesh)
        dof_map = DofMap(o2.n_points, o2.boundary_node_ids, mode)
        system, pair = _fem_o2_system(tmesh, o2, moduli, dof_map)
        coords = o2.points
        method = "FEM-O2-coarse"
    volume = mesh.edge_length ** 3
    return _battery(system, dof_map, coords, mode, volume,
                    _averager(*pair, volume), method, None, mesh_hash(mesh),
                    material_names)


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
        "scaling_report": result.scaling_report,
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
        n_solves=int(doc["n_solves"]),
        scaling_report=doc["scaling_report"])


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
