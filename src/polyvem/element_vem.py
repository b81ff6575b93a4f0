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

import numpy as np

from .assembly import assemble_parts, node_dofs
from .element_fem import (batch_o1_operators, field_operator, gauss_stiffness,
                          kernel_dimension, state_size)
from .mesh import MeshError, PolyMesh

__all__ = [
    "CellOperators", "VemElement", "cell_operators", "consistency_part",
    "gradient_operators", "stabilization_part", "stabilization_required",
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
    return (n_vertices * n_fields - kernel_dimension(n_fields)
            > state_size(n_fields))


def consistency_part(mesh: PolyMesh, cell_ids, n_fields: int):
    """Consistency part of the cells for `assembly.assemble_parts`: per
    cell one element over its vertices with one point, the projected
    state operator B at weight V (all gradients from one scatter)."""
    gradients = gradient_operators(mesh, cell_ids)
    cells = [mesh.cells[c] for c in cell_ids]

    def operators(k):
        return (field_operator(gradients[k].T, n_fields)[None, None],
                np.array([[cells[k].volume]]))

    return [cell.vertex_ids[None] for cell in cells], operators


def stabilization_part(mesh: PolyMesh, cell_ids, moduli, n_fields: int):
    """Stabilization part of the cells (one modulus each) for
    `assembly.assemble_parts`: their tets in the coarse mesh, one point
    each, i.e. the coarse linear-tet system. A fallback cell is one
    element over its vertices whose points are its tets, each operator
    B carried to the vertex dofs as B R by the centroid recovery map R
    = [I; -Kcc^-1 Kvc^T] of the tets' stiffness K (R^T K R is K's Schur
    complement)."""
    tmesh = mesh.tets
    # a cell's tets are contiguous in the coarse mesh, in cell order
    bounds = np.searchsorted(tmesh.cell_of_tet, np.arange(len(mesh.cells) + 1))
    tets = [tmesh.tets[bounds[c]:bounds[c + 1]] for c in cell_ids]
    nodes = [t if t.max() < mesh.n_vertices else mesh.cells[c].vertex_ids[None]
             for c, t in zip(cell_ids, tets)]

    def operators(k):
        B, vols = batch_o1_operators(tmesh.vertices, tets[k], n_fields)
        if nodes[k] is tets[k]:                  # no centroid node
            return B[:, None], vols[:, None]
        n_loc = nodes[k].shape[1]
        loc = np.full(tets[k].max() + 1, n_loc)   # the centroid is n_loc
        loc[nodes[k][0]] = np.arange(n_loc)
        full = np.zeros((*B.shape[:2], (n_loc + 1) * n_fields))
        np.put_along_axis(full, node_dofs(loc[tets[k]], n_fields)[:, None],
                          B, axis=2)
        K = gauss_stiffness(full[:, None], vols[:, None], moduli[k]).sum(0)
        nv = n_loc * n_fields
        R = np.vstack([np.eye(nv), -np.linalg.solve(K[nv:, nv:], K[nv:, :nv])])
        return (full @ R)[None], vols[None]

    return nodes, operators


@dataclass(frozen=True)
class CellOperators:
    """Weight-independent operators of one polyhedral cell over its
    vertex dofs, a per-cell view of the global build: the stiffness K
    and integrated-state operator A of the consistency and the
    stabilization part, blended as K(beta) = (1 - beta) K_cons + beta
    K_tet and A(beta) = (1 - beta) A_cons + beta A_tet."""
    node_ids: np.ndarray
    volume: float
    K_cons: np.ndarray
    A_cons: np.ndarray
    K_tet: np.ndarray
    A_tet: np.ndarray

    def blend(self, beta: float):
        """(stiffness, integrated-state operator) at weight beta."""
        if beta == 0.0:
            return self.K_cons, self.A_cons
        return ((1.0 - beta) * self.K_cons + beta * self.K_tet,
                (1.0 - beta) * self.A_cons + beta * self.A_tet)


def cell_operators(mesh: PolyMesh, cell_ids, moduli, n_fields: int = 5):
    """Yield the CellOperators of the given cells in order, one modulus
    per cell: the parts `VemOperators` builds, by `assemble_parts` on
    each cell alone with its vertices numbered locally."""
    for c, G in zip(cell_ids, moduli):
        cell = mesh.cells[c]
        n = len(cell.vertex_ids)
        loc = np.zeros(mesh.n_vertices, dtype=int)
        loc[cell.vertex_ids] = np.arange(n)
        _, sums = assemble_parts(
            [([loc[nodes[0]]], operators) for nodes, operators in (
                consistency_part(mesh, [c], n_fields),
                stabilization_part(mesh, [c], [G], n_fields))],
            [G], n, n_fields)
        # the consistency element couples all vertices: pair (row a,
        # column b) of the clique pattern is b n + a
        (K_cons, A_cons), (K_tet, A_tet) = (
            (blocks.reshape(n, n, n_fields, n_fields).transpose(1, 2, 0, 3)
             .reshape(n * n_fields, -1), intP) for blocks, intP, _ in sums)
        yield CellOperators(cell.vertex_ids.copy(), cell.volume, K_cons,
                            A_cons, K_tet, A_tet)


class VemElement:
    """One polyhedral element at its stabilization weight: the node ids
    and the blended stiffness that `assembly.assemble` reads."""

    def __init__(self, mesh: PolyMesh, cell_id: int, G: np.ndarray,
                 beta: float, n_fields: int = 5):
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        ops, = cell_operators(mesh, [cell_id], [G], n_fields)
        self.cell_id = cell_id
        self.node_ids = ops.node_ids
        self.stiffness = ops.blend(beta)[0]
