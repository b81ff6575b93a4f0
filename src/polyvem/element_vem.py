"""First-order virtual element on a polyhedral cell.

The element carries the coupled fields (displacements plus one or two
scalar potentials) with point values at the cell vertices as the only
unknowns. Gradients are projected to constants via exact face integrals
of the first-order face reconstruction; the energy blends that projected
(consistency) part with a linear-tet (stabilization) part on the cell's
tets in the coarse tet mesh, weighted (1-beta) / beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import node_dofs, scatter_columns
from .element_fem import (batch_o1_operators, field_operator, gauss_stiffness,
                          kernel_dimension)
from .mesh import MeshError, PolyMesh

__all__ = [
    "CellOperators", "VemElement", "cell_operators", "gradient_operators",
    "stabilization_required",
]


def gradient_operators(mesh: PolyMesh, cell_ids) -> list:
    """Per cell, the matrix D (3 x n_vertices) with D.s = projected
    gradient of the scalar vertex data s.

    Row j of D accumulates (1/V) sum_F n_F[j] * I_F with I_F the exact
    face-reconstruction integral given by the face table's weights, all
    cells from one scatter of the table's signed normals times weights.
    Exact for globally linear fields.
    """
    t = mesh.faces
    cells = [mesh.cells[c] for c in cell_ids]
    for c, cell in zip(cell_ids, cells):
        if cell.volume <= 0.0:
            raise MeshError(f"cell {c} has non-positive volume")
    lo = t.cell_offsets[cell_ids]
    n_refs = t.cell_offsets[np.asarray(cell_ids) + 1] - lo
    ref = _ranges(lo, n_refs)
    face = t.cell_faces[ref]
    size = np.diff(t.offsets)[face]
    entry = _ranges(t.offsets[face], size)
    # per loop entry: owning cell and the cell's outward normal times weight
    owner = np.repeat(np.repeat(np.arange(len(cells)), n_refs), size)
    value = np.repeat(t.cell_signs[ref][:, None] * t.normal[face], size, axis=0)
    value *= t.weights[entry][:, None]
    n = mesh.n_vertices
    keys = np.concatenate([k * n + cell.vertex_ids for k, cell in enumerate(cells)])
    order = np.argsort(keys)
    col = order[np.searchsorted(keys[order], owner * n + t.loops[entry])]
    D = np.stack([np.bincount(col, value[:, j], minlength=len(keys))
                  for j in range(3)])
    splits = np.cumsum([len(cell.vertex_ids) for cell in cells])[:-1]
    return [Dc / cell.volume for Dc, cell in zip(np.split(D, splits, axis=1), cells)]


def _ranges(starts, counts) -> np.ndarray:
    """Concatenated aranges [starts[i], starts[i] + counts[i])."""
    shift = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return shift + np.arange(counts.sum())


def stabilization_required(n_vertices: int, n_fields: int) -> bool:
    """True when the consistency term alone cannot control all dofs:
    its rank is at most the state size, so cells with more non-kernel
    dofs than that need beta > 0."""
    state_size = 6 + 3 * (n_fields - 3)
    return n_vertices * n_fields - kernel_dimension(n_fields) > state_size


@dataclass(frozen=True)
class CellOperators:
    """Weight-independent operators of one polyhedral cell.

    Over the cell's vertex dofs the blended element is affine in the
    stabilization weight: K(beta) = (1 - beta) K_cons + beta K_tet and
    A(beta) = (1 - beta) A_cons + beta A_tet. K_cons = V B^T G B and
    A_cons = V B act on the projected constant state B; K_tet and A_tet
    are the linear-tet stiffness and integrated-state operator of the
    cell's coarse tets. The centroid node of a fallback cell enters only
    the tet part, so it is condensed out there, and its recovery
    operator does not depend on beta. The tet fields are None when the
    operators were built for beta = 0 only.
    """
    node_ids: np.ndarray
    volume: float
    K_cons: np.ndarray
    A_cons: np.ndarray
    K_tet: Optional[np.ndarray] = None
    A_tet: Optional[np.ndarray] = None

    def blend(self, beta: float):
        """(stiffness, integrated-state operator) at weight beta."""
        if beta == 0.0:
            return self.K_cons, self.A_cons
        return ((1.0 - beta) * self.K_cons + beta * self.K_tet,
                (1.0 - beta) * self.A_cons + beta * self.A_tet)


def cell_operators(mesh: PolyMesh, cell_ids, moduli, n_fields: int = 5,
                   with_tets: bool = True):
    """Yield the CellOperators of the given cells in order, one modulus
    per cell.

    The linear-tet operators of all cells come from one batched build
    over their tets in the coarse mesh `mesh.tets`; `with_tets=False`
    skips them (and the triangulation) for beta = 0 only. Cells are
    yielded one at a time so that a caller scattering them into global
    arrays never holds every dense cell matrix at once.
    """
    state_size = 6 + 3 * (n_fields - 3)
    nf = n_fields
    cell_ids = np.asarray(cell_ids, dtype=int)
    moduli = [np.asarray(G, dtype=float) for G in moduli]
    for G in moduli:
        if G.shape != (state_size, state_size):
            raise ValueError(
                f"modulus must be {state_size}x{state_size} for "
                f"{n_fields} fields, got {G.shape}")
    if with_tets:
        tmesh = mesh.tets
        # a cell's tets are contiguous in the coarse mesh, in cell order
        bounds = np.searchsorted(tmesh.cell_of_tet,
                                 np.arange(len(mesh.cells) + 1))
        counts = bounds[cell_ids + 1] - bounds[cell_ids]
        tets = tmesh.tets[_ranges(bounds[cell_ids], counts)]
        B_all, vols = batch_o1_operators(tmesh.vertices, tets, nf)
        starts = np.concatenate([[0], np.cumsum(counts)])
    gradients = gradient_operators(mesh, cell_ids)
    for k, (c, G, D) in enumerate(zip(cell_ids, moduli, gradients)):
        cell = mesh.cells[c]
        B = field_operator(D.T, nf)
        K = cell.volume * (B.T @ G @ B)
        tet = {}
        if with_tets:
            span = slice(starts[k], starts[k + 1])
            tet = _tet_part(cell.vertex_ids, tets[span], mesh.n_vertices,
                            B_all[span], vols[span], G, nf)
        yield CellOperators(
            node_ids=cell.vertex_ids.copy(), volume=cell.volume,
            K_cons=(K + K.T) / 2.0, A_cons=cell.volume * B, **tet)


def _tet_part(node_ids, tets, n_mesh, B, vol, G, nf):
    """Condensed K_tet and A_tet of one cell from its coarse tets and
    their per-tet operators. Tet nodes from n_mesh on (a fallback
    centroid) are numbered after the cell's vertices."""
    n_loc = len(node_ids)
    extra = np.unique(tets[tets >= n_mesh])
    n_extra = len(extra)
    ndof_v = n_loc * nf
    ndof = ndof_v + n_extra * nf
    loc = np.empty(max(n_mesh, tets.max() + 1), dtype=int)
    loc[node_ids] = np.arange(n_loc)
    loc[extra] = n_loc + np.arange(n_extra)
    cols = node_dofs(loc[tets], nf)
    index = cols[:, :, None] * ndof + cols[:, None, :]
    K = np.bincount(index.ravel(),
                    weights=gauss_stiffness(B[:, None], vol[:, None], G).ravel(),
                    minlength=ndof * ndof).reshape(ndof, ndof)
    A = scatter_columns(cols, B * vol[:, None, None], ndof)
    if n_extra:
        Kvc = K[:ndof_v, ndof_v:]
        recovery = -np.linalg.solve(K[ndof_v:, ndof_v:], Kvc.T)
        K = K[:ndof_v, :ndof_v] + Kvc @ recovery
        A = A[:, :ndof_v] + A[:, ndof_v:] @ recovery
    return {"K_tet": (K + K.T) / 2.0, "A_tet": A}


class VemElement:
    """One polyhedral element at its stabilization weight: the node ids
    and the blended stiffness that `assembly.assemble` reads."""

    def __init__(self, mesh: PolyMesh, cell_id: int, G: np.ndarray,
                 beta: float, n_fields: int = 5):
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        ops, = cell_operators(mesh, [cell_id], [G], n_fields,
                              with_tets=beta > 0.0)
        self.cell_id = cell_id
        self.node_ids = ops.node_ids
        self.stiffness = ops.blend(beta)[0]
