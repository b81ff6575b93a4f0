"""Global dof management, sparse symmetric assembly, Dirichlet solves.

Dofs are node-major: global index = node * n_fields + field. Boundary
dofs are eliminated (not penalized); the interior block is factorized
once per configuration and the factorization is reused for every load
case. A per-field diagonal congruence scaling equalizes the widely
different magnitudes of the mechanical, electric, and magnetic blocks
before factorization and is undone exactly afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .element_fem import FIELD_COUNT

__all__ = ["AssemblyError", "DofMap", "SparseSystem", "assemble",
           "node_dofs", "block_triplets", "scatter_columns",
           "triplets_from_elements", "system_from_triplets"]


class AssemblyError(RuntimeError):
    """Assembly or factorization failure."""


@dataclass(frozen=True)
class DofMap:
    """Bijection (node, field) <-> global dof with a boundary partition."""
    n_nodes: int
    boundary_nodes: np.ndarray
    mode: str

    def __post_init__(self):
        if self.mode not in FIELD_COUNT:
            raise AssemblyError(f"unknown mode {self.mode!r}")
        b = np.unique(np.asarray(self.boundary_nodes, dtype=int))
        if len(b) and (b[0] < 0 or b[-1] >= self.n_nodes):
            raise AssemblyError("boundary node id out of range")
        object.__setattr__(self, "boundary_nodes", b)

    @property
    def n_fields(self) -> int:
        return FIELD_COUNT[self.mode]

    @property
    def n_dofs(self) -> int:
        return self.n_nodes * self.n_fields

    def dof(self, node: int, field_index: int) -> int:
        return node * self.n_fields + field_index

    @property
    def boundary_dofs(self) -> np.ndarray:
        return node_dofs(self.boundary_nodes, self.n_fields)

    @property
    def interior_dofs(self) -> np.ndarray:
        mask = np.ones(self.n_dofs, dtype=bool)
        mask[self.boundary_dofs] = False
        return np.nonzero(mask)[0]


def node_dofs(nodes, n_fields: int) -> np.ndarray:
    """Node-major dofs (..., k * n_fields) of node ids (..., k)."""
    nodes = np.asarray(nodes, dtype=int)
    return (nodes[..., None] * n_fields + np.arange(n_fields)).reshape(
        *nodes.shape[:-1], -1)


def block_triplets(dofs: np.ndarray, blocks: np.ndarray):
    """COO (rows, cols, vals) of dense blocks: blocks[k] (nd x nd) couples
    dofs[k] (nd,) with themselves; dofs is (m, nd), blocks (m, nd, nd)."""
    nd = dofs.shape[1]
    return (np.repeat(dofs, nd, axis=1).ravel(),
            np.tile(dofs, (1, nd)).ravel(), blocks.ravel())


def scatter_columns(dofs: np.ndarray, blocks: np.ndarray,
                    n_cols: int) -> np.ndarray:
    """Sum of row blocks (m, r, nd) into an (r, n_cols) matrix, block k
    at the columns dofs[k] (m, nd)."""
    r = blocks.shape[1]
    index = np.arange(r)[None, :, None] * n_cols + dofs[:, None, :]
    return np.bincount(index.ravel(), weights=blocks.ravel(),
                       minlength=r * n_cols).reshape(r, n_cols)


def triplets_from_elements(elements, dof_map: DofMap):
    """COO triplet arrays from element stiffness blocks.

    Each element provides node_ids and a node-major stiffness over its
    nodes x active fields.
    """
    chunks = []
    for elem in elements:
        ids = np.asarray(elem.node_ids, dtype=int)
        if ids.max() >= dof_map.n_nodes:
            raise AssemblyError(
                f"element references node {ids.max()} outside the dof map")
        dofs = node_dofs(ids, dof_map.n_fields)
        K = elem.stiffness
        if K.shape != (len(dofs), len(dofs)):
            raise AssemblyError(
                f"element stiffness shape {K.shape} does not match "
                f"{len(dofs)} dofs")
        chunks.append(block_triplets(dofs[None], K[None]))
    if not chunks:
        raise AssemblyError("no elements to assemble")
    return tuple(np.concatenate(part) for part in zip(*chunks))


def system_from_triplets(rows, cols, vals, dof_map: DofMap,
                         deficient_cells=()) -> "SparseSystem":
    n = dof_map.n_dofs
    K = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
    # symmetrization audit: duplicate-summed matrix must already be symmetric
    asym = abs(K - K.T).max()
    scale = abs(K).max() if K.nnz else 0.0
    if scale and asym > 1e-12 * scale:
        raise AssemblyError(
            f"assembled matrix asymmetry {asym:.3e} exceeds audit tolerance "
            f"({1e-12 * scale:.3e})")
    return SparseSystem(K, dof_map, tuple(deficient_cells))


def assemble(elements, dof_map: DofMap) -> "SparseSystem":
    """Scatter element stiffness blocks into a global sparse system."""
    rows, cols, vals = triplets_from_elements(elements, dof_map)
    deficient = [getattr(e, "cell_id", i) for i, e in enumerate(elements)
                 if getattr(e, "consistency_rank_deficient", False)]
    return system_from_triplets(rows, cols, vals, dof_map, deficient)


class _EmptyFactor:
    """Stand-in factorization when every dof is on the boundary."""

    def solve(self, rhs):
        return np.zeros_like(rhs)


class SparseSystem:
    """Symmetric sparse system with shared-factorization Dirichlet solves."""

    def __init__(self, K: sp.csc_matrix, dof_map: DofMap, deficient_cells=()):
        self.K = K
        self.dof_map = dof_map
        self.deficient_cells = tuple(deficient_cells)
        self.n_factorizations = 0
        self.n_solves = 0
        self._lu = None
        self._prepare_scaling()

    def _prepare_scaling(self):
        nf = self.dof_map.n_fields
        diag = self.K.diagonal()
        s = np.ones(self.dof_map.n_dofs)
        report = {}
        for f in range(nf):
            d = np.abs(diag[f::nf])
            mean = d.mean() if len(d) else 0.0
            report[f"field{f}"] = {
                "diag_mean": float(mean),
                "diag_min": float(d.min()) if len(d) else 0.0,
                "diag_max": float(d.max()) if len(d) else 0.0,
            }
            if mean > 0.0:
                s[f::nf] = 1.0 / np.sqrt(mean)
        self.scaling = s
        self.scaling_report = report

    def factorize(self):
        """Factor the scaled interior block once; reused by every solve."""
        ii = self.dof_map.interior_dofs
        ib = self.dof_map.boundary_dofs
        S = sp.diags(self.scaling)
        Ks = (S @ self.K @ S).tocsc()
        self._Kii = self.K[ii][:, ii]
        self._Kib = self.K[ii][:, ib]
        self._Kii_s = Ks[ii][:, ii]
        self._Kib_s = Ks[ii][:, ib]
        self._ii, self._ib = ii, ib
        if len(ii) == 0:
            self._lu = _EmptyFactor()
            self.n_factorizations += 1
            return self
        try:
            self._lu = spla.splu(self._Kii_s)
        except RuntimeError as exc:
            hint = (f"; under-stabilized cells: {list(self.deficient_cells)}"
                    if self.deficient_cells else "")
            raise AssemblyError(f"factorization failed: {exc}{hint}") from None
        self.n_factorizations += 1
        return self

    def solve_dirichlet(self, boundary_values: np.ndarray) -> np.ndarray:
        """Full solution vector for prescribed boundary-dof values."""
        if self._lu is None:
            self.factorize()
        ub = np.asarray(boundary_values, dtype=float).ravel()
        if ub.shape != self._ib.shape:
            raise AssemblyError(
                f"expected {len(self._ib)} boundary values, got {len(ub)}")
        yb = ub / self.scaling[self._ib]
        yi = self._lu.solve(-(self._Kib_s @ yb))
        ui = yi * self.scaling[self._ii]
        self.n_solves += 1

        rhs = self._Kib @ ub
        denom = np.linalg.norm(rhs)
        if denom > 0.0:
            res = np.linalg.norm(self._Kii @ ui + rhs) / denom
            if res > 1e-10:
                raise AssemblyError(
                    f"interior solve residual {res:.3e} exceeds 1e-10")
        full = np.empty(self.dof_map.n_dofs)
        full[self._ii] = ui
        full[self._ib] = ub
        return full

    def energy(self, full_solution: np.ndarray) -> float:
        """Quadratic form 0.5 u.K.u of a full solution vector."""
        u = np.asarray(full_solution, dtype=float).ravel()
        return 0.5 * float(u @ (self.K @ u))

    def dump_coo(self) -> str:
        """Coordinate text dump (row col value per line, zero-based)."""
        coo = self.K.tocoo()
        lines = [f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}"]
        order = np.lexsort((coo.col, coo.row))
        for k in order:
            lines.append(f"{coo.row[k]} {coo.col[k]} {float(coo.data[k])!r}")
        return "\n".join(lines) + "\n"
