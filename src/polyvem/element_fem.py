"""Linear and quadratic tetrahedral elements for the coupled problem.

Nodal unknowns are ordered node-major: for each node the active fields
follow as (u1, u2, u3[, electric potential][, magnetic potential]).
The element operators map nodal unknowns to the coupled state
P = [strain(6, engineering), E(3)[, H(3)]] with E = -grad(potential).
"""

from __future__ import annotations

import numpy as np

from .materials import MODE_POTENTIALS
from .mesh import MeshError, TetMesh, _EDGE_LOCAL, edge_midpoints

__all__ = [
    "FIELD_COUNT", "state_size", "tet_gradient", "field_operator",
    "kernel_dimension",
    "promote_to_quadratic", "GAUSS4_BARY", "GAUSS4_WEIGHTS",
    "quadratic_state_operators", "batch_o1_operators", "gauss_stiffness",
]

# active scalar fields per coupling mode (3 displacements + potentials)
FIELD_COUNT = {mode: 3 + len(potentials)
               for mode, potentials in MODE_POTENTIALS.items()}

# 4-point Gauss rule on the reference tet (degree-2 exact), barycentric
_GA = 0.5854101966249685      # (5 + 3 sqrt(5)) / 20
_GB = 0.1381966011250105      # (5 - sqrt(5)) / 20
GAUSS4_BARY = np.array([
    [_GA, _GB, _GB, _GB],
    [_GB, _GA, _GB, _GB],
    [_GB, _GB, _GA, _GB],
    [_GB, _GB, _GB, _GA],
])
GAUSS4_WEIGHTS = np.array([0.25, 0.25, 0.25, 0.25])


def state_size(n_fields: int) -> int:
    """Length of the state P: 6 strains, then 3 field components for
    each of the n_fields - 3 potentials."""
    return 3 * (n_fields - 1)


def kernel_dimension(n_fields: int) -> int:
    """Zero-energy modes: 3 translations, 3 rotations, one constant per
    potential field."""
    return 6 + (n_fields - 3)


def _corner_gradients(corners: np.ndarray):
    """Barycentric gradients and volumes of a batch of 4-node tets.

    corners is (..., 4, 3); returns (grads (..., 4, 3), volumes (...))
    with grads[..., a, :] = d lambda_a / dx. Raises on an inverted or
    degenerate tet.
    """
    J = corners[..., 1:, :] - corners[..., :1, :]     # rows are edge vectors
    vols = np.linalg.det(J) / 6.0
    if np.any(vols <= 0.0):
        raise MeshError(f"inverted or degenerate tet (volume {vols.min():g})")
    grads = np.empty(corners.shape)
    grads[..., 1:, :] = np.swapaxes(np.linalg.inv(J), -1, -2)
    grads[..., 0, :] = -grads[..., 1:, :].sum(axis=-2)
    return grads, vols


def tet_gradient(coords: np.ndarray):
    """Constant shape-function gradients of a 4-node tet.

    Returns (grads, volume) with grads[a] = d N_a / d x; raises on an
    inverted or degenerate tet.
    """
    grads, vols = _corner_gradients(np.asarray(coords, dtype=float)[None])
    return grads[0], vols[0]


# (state row, displacement component, gradient component) of the strain
# rows: Voigt 11, 22, 33, 23, 13, 12 with engineering shears
_STRAIN_ENTRIES = ((0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 1, 2), (3, 2, 1),
                   (4, 0, 2), (4, 2, 0), (5, 0, 1), (5, 1, 0))


def field_operator(grads: np.ndarray, n_fields: int) -> np.ndarray:
    """State operator B from nodal shape gradients.

    grads is (..., n_nodes, 3) of scalar shape-function gradients, with
    any leading batch axes; the result B is
    (..., state_size(n_fields), n_nodes*n_fields) and maps node-major dofs
    to [strain Voigt (engineering shears), -grad(potentials)...].
    """
    grads = np.asarray(grads, dtype=float)
    *batch, n_nodes, _ = grads.shape
    n_rows = state_size(n_fields)
    B = np.zeros((*batch, n_rows, n_nodes, n_fields))
    for row, comp, axis in _STRAIN_ENTRIES:
        B[..., row, :, comp] = grads[..., axis]
    for f in range(3, n_fields):              # E = -grad(phi), H = -grad(psi)
        B[..., state_size(f):state_size(f + 1), :, f] = \
            -np.swapaxes(grads, -1, -2)
    return B.reshape(*batch, n_rows, n_nodes * n_fields)


def batch_o1_operators(points: np.ndarray, tets: np.ndarray, n_fields: int):
    """(B (m, n_rows, 4*n_fields), volumes (m,)) of many linear tets."""
    grads, vols = _corner_gradients(points[tets])
    return field_operator(grads, n_fields), vols


_EDGE_A, _EDGE_B = np.array(_EDGE_LOCAL).T


def quadratic_state_operators(points: np.ndarray, tets: np.ndarray,
                              n_fields: int):
    """(B (m, 4, n_rows, 10*n_fields), weights (m, 4)) of many 10-node
    tets at the 4 Gauss points, weights = Gauss weight x volume.

    tets (m, 4) holds the corner ids; the columns of B take the corners
    first, then the edge nodes in _EDGE_LOCAL order.
    """
    corner_grads, vols = _corner_gradients(points[tets])
    lam = GAUSS4_BARY[None, :, :, None]          # (1, gauss, corner, 1)
    dlam = corner_grads[:, None]                 # (m, 1, corner, 3)
    corner = (4.0 * lam - 1.0) * dlam
    edge = 4.0 * (lam[:, :, _EDGE_A] * dlam[:, :, _EDGE_B]
                  + lam[:, :, _EDGE_B] * dlam[:, :, _EDGE_A])
    grads = np.concatenate([corner, edge], axis=2)
    return field_operator(grads, n_fields), vols[:, None] * GAUSS4_WEIGHTS


def gauss_stiffness(B: np.ndarray, w: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Symmetrized stiffness sum_g w_g B_g^T G B_g of each tet.

    B is (m, n_gauss, n_rows, nd) and w (m, n_gauss); a linear tet is
    one point of weight V. Returns (m, nd, nd).
    """
    m, _, _, nd = B.shape
    # one batched product over the Gauss points stacked with the state rows
    wB = (B * w[:, :, None, None]).reshape(m, -1, nd)
    K = np.swapaxes(wB, 1, 2) @ (G @ B).reshape(m, -1, nd)
    return (K + K.transpose(0, 2, 1)) / 2.0


# ---------------------------------------------------------------------------
# Quadratic (10-node) mesh promotion
# ---------------------------------------------------------------------------

def promote_to_quadratic(tmesh: TetMesh) -> TetMesh:
    """The 10-node tet mesh of a conforming tet mesh: the corners first,
    then one shared midpoint per edge, numbered in order of first
    appearance, tet by tet and edge by edge in _EDGE_LOCAL order. Each
    tet lists its 4 corners, then its 6 midpoints in that edge order."""
    points, mids = edge_midpoints(tmesh.vertices, tmesh.tets)
    return TetMesh(points, np.hstack([tmesh.tets, mids]),
                   tmesh.cell_of_tet.copy(), tmesh.edge_length)
