"""Global dof management, sparse symmetric assembly, Dirichlet solves.

Dofs are node-major: global index = node * n_fields + field. Boundary
dofs are eliminated (not penalized); the interior block is factorized
once per configuration and the factorization is reused for every load
case, all cases in one solve. Large blocks factor their mechanical and
potential diagonal blocks apart and couple them by MINRES. A per-field
diagonal congruence scaling equalizes the widely different magnitudes
of the mechanical, electric, and magnetic blocks before factorization
and is undone exactly afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cholesky import NodeCholesky
from .element_fem import FIELD_COUNT

__all__ = ["AssemblyError", "DofMap", "SparseSystem", "BlockPattern",
           "assemble", "add_blocks", "node_dofs", "scatter_columns",
           "system_from_blocks", "system_from_triplets"]


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

    @cached_property
    def interior_nodes(self) -> np.ndarray:
        """Sorted ids of the nodes off the boundary."""
        mask = np.ones(self.n_nodes, dtype=bool)
        mask[self.boundary_nodes] = False
        return np.flatnonzero(mask)

    @cached_property
    def boundary_dofs(self) -> np.ndarray:
        return node_dofs(self.boundary_nodes, self.n_fields)

    @cached_property
    def interior_dofs(self) -> np.ndarray:
        return node_dofs(self.interior_nodes, self.n_fields)


def node_dofs(nodes, n_fields: int) -> np.ndarray:
    """Node-major dofs (..., k * n_fields) of node ids (..., k)."""
    nodes = np.asarray(nodes, dtype=int)
    return (nodes[..., None] * n_fields + np.arange(n_fields)).reshape(
        *nodes.shape[:-1], -1)


def scatter_columns(dofs: np.ndarray, blocks: np.ndarray,
                    n_cols: int) -> np.ndarray:
    """Sum of row blocks (m, r, nd) into an (r, n_cols) matrix, block k
    at the columns dofs[k] (m, nd)."""
    r = blocks.shape[1]
    index = np.arange(r)[None, :, None] * n_cols + dofs[:, None, :]
    return np.bincount(index.ravel(), weights=blocks.ravel(),
                       minlength=r * n_cols).reshape(r, n_cols)


class BlockPattern:
    """Sparsity of a global matrix by node pairs: the sorted unique (row
    node, column node) pairs that some element couples, each holding one
    n_fields x n_fields block of dofs.

    Pairs run column-major (by column node, then row node), so the pairs
    of one column node fill that node's CSC columns in row order. The
    pattern of element node lists is symmetric: every pair has a mirror.
    """

    def __init__(self, keys: np.ndarray, n_nodes: int, n_fields: int):
        self.n_nodes, self.n_fields = n_nodes, n_fields
        self._keys = keys                    # column node * n_nodes + row node
        self.cols, self.rows = np.divmod(keys, n_nodes)

    @classmethod
    def of_elements(cls, groups, n_nodes: int, n_fields: int):
        """(pattern, positions) of elements given in groups of equal node
        count, each group an (m, k) array of node ids. positions[g][e, a,
        b] is the pair of (row node a, column node b) of element e of
        group g, an (m, k, k) array per group."""
        keys = [g[:, None, :] * n_nodes + g[:, :, None] for g in groups]
        unique, inverse = np.unique(np.concatenate([k.ravel() for k in keys]),
                                    return_inverse=True)
        ends = np.cumsum([k.size for k in keys])[:-1]
        return cls(unique, n_nodes, n_fields), [
            at.reshape(k.shape) for at, k in zip(np.split(inverse, ends), keys)]

    @property
    def n_pairs(self) -> int:
        return len(self._keys)

    @cached_property
    def mirror(self) -> np.ndarray:
        """Pair index of each pair's (column node, row node) mirror."""
        return np.searchsorted(self._keys, self.rows * self.n_nodes + self.cols)

    @cached_property
    def indptr(self) -> np.ndarray:
        """Start of each column node's pairs (n_nodes + 1,)."""
        return np.searchsorted(self.cols, np.arange(self.n_nodes + 1))


def add_blocks(blocks: np.ndarray, positions: np.ndarray,
               matrices: np.ndarray):
    """Add node-major element matrices (m, k * nf, k * nf) into the
    node-pair blocks (n_pairs, nf, nf) at the elements' pair positions
    (m, k, k); entries that meet in one pair are summed."""
    m, k = positions.shape[:2]
    nf = blocks.shape[-1]
    values = matrices.reshape(m, k, nf, k, nf).transpose(0, 1, 3, 2, 4)
    # sum over the pairs these elements touch, not over the whole pattern
    touched, local = np.unique(positions, return_inverse=True)
    index = local.reshape(-1, 1) * (nf * nf) + np.arange(nf * nf)
    blocks[touched] += np.bincount(
        index.ravel(), weights=values.ravel(),
        minlength=len(touched) * nf * nf).reshape(-1, nf, nf)


def _audit_symmetry(asymmetry: float, scale: float):
    """The assembled matrix must already be symmetric to 1e-12 relative."""
    if scale and asymmetry > 1e-12 * scale:
        raise AssemblyError(
            f"assembled matrix asymmetry {asymmetry:.3e} exceeds audit "
            f"tolerance ({1e-12 * scale:.3e})")


def system_from_blocks(pattern: BlockPattern, blocks: np.ndarray,
                       dof_map: DofMap, deficient_cells=()) -> "SparseSystem":
    """Sparse system of the node-pair blocks (n_pairs, nf, nf) of
    `pattern`, whose pairs come with their mirrors. Each block is audited
    against the transpose of its mirror pair's block."""
    nf = dof_map.n_fields
    if (pattern.n_nodes, pattern.n_fields) != (dof_map.n_nodes, nf) or \
            blocks.shape != (pattern.n_pairs, nf, nf):
        raise AssemblyError(
            f"blocks {blocks.shape} on a {pattern.n_nodes}-node pattern do "
            f"not fit {dof_map.n_nodes} nodes x {nf} fields")
    # pair k read as block row cols[k] holds K's block (cols[k], rows[k]),
    # which is its mirror pair's block
    row_blocks = blocks[pattern.mirror]
    if blocks.size:
        diff = row_blocks.transpose(0, 2, 1) - blocks
        _audit_symmetry(max(diff.max(), -diff.min()),
                        max(blocks.max(), -blocks.min()))
        del diff
    return SparseSystem(pattern, row_blocks, dof_map, deficient_cells)


def system_from_triplets(rows, cols, vals, dof_map: DofMap,
                         deficient_cells=()) -> "SparseSystem":
    """Sparse system of dof-level (row, col, value) triplets, duplicates
    summed; for small hand-made systems. Its pattern holds every node
    pair with an entry in either orientation."""
    n, nf, n_nodes = dof_map.n_dofs, dof_map.n_fields, dof_map.n_nodes
    K = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc().tocoo()
    row_node, row_field = np.divmod(K.row.astype(np.int64), nf)
    col_node, col_field = np.divmod(K.col.astype(np.int64), nf)
    at = col_node * n_nodes + row_node
    keys = np.unique(np.concatenate([at, row_node * n_nodes + col_node]))
    blocks = np.zeros((len(keys), nf, nf))
    blocks[np.searchsorted(keys, at), row_field, col_field] = K.data
    return system_from_blocks(BlockPattern(keys, n_nodes, nf), blocks,
                              dof_map, deficient_cells)


def assemble(elements, dof_map: DofMap) -> "SparseSystem":
    """Scatter element stiffness blocks into a global sparse system.

    Each element provides node_ids and a node-major stiffness over its
    nodes x active fields.
    """
    elements = list(elements)
    if not elements:
        raise AssemblyError("no elements to assemble")
    nf = dof_map.n_fields
    node_lists = []
    for elem in elements:
        ids = np.asarray(elem.node_ids, dtype=int)
        if ids.max() >= dof_map.n_nodes:
            raise AssemblyError(
                f"element references node {ids.max()} outside the dof map")
        n = len(ids) * nf
        if elem.stiffness.shape != (n, n):
            raise AssemblyError(
                f"element stiffness shape {elem.stiffness.shape} does not "
                f"match {n} dofs")
        node_lists.append(ids[None])
    pattern, positions = BlockPattern.of_elements(node_lists, dof_map.n_nodes,
                                                  nf)
    blocks = np.zeros((pattern.n_pairs, nf, nf))
    for elem, at in zip(elements, positions):
        add_blocks(blocks, at, elem.stiffness[None])
    deficient = [getattr(e, "cell_id", i) for i, e in enumerate(elements)
                 if getattr(e, "consistency_rank_deficient", False)]
    return system_from_blocks(pattern, blocks, dof_map, deficient)


class _EmptyFactor:
    """Stand-in factorization when every dof is on the boundary."""

    def solve(self, rhs):
        return np.zeros_like(rhs)


# Interior dofs from which `factorize` splits the block (docs/fem.md):
# below it one symmetric LU of the whole block and its back-substitutions
# beat two block LUs and the MINRES iterations that couple them.
SPLIT_MIN_DOFS = 10000
MINRES_RTOL = 1e-14          # per column, preconditioned residual estimate
MINRES_MAXITER = 100
RESIDUAL_GATE = 1e-10        # per column, interior residual, unscaled


def _symmetric_lu(block):
    """SuperLU factors of a block that needs no pivoting: a definite or
    quasi-definite one, which factors stably under any symmetric ordering
    (Vanderbei 1995). The ordering is minimum degree on the pattern of
    A + A^T. relax=1 merges no elimination subtree into a relaxed
    supernode: scipy's default relaxation stores about a third more
    entries on these meshes (docs/fem.md). A zero pivot raises
    RuntimeError."""
    return spla.splu(block, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     relax=1, options={"SymmetricMode": True})


def _node_order(perm_c, per_node: int) -> np.ndarray:
    """Nodes in the order a SuperLU column permutation eliminates their
    first dof (node-major dofs, `per_node` per node)."""
    nodes = np.argsort(perm_c) // per_node
    _, first = np.unique(nodes, return_index=True)
    return nodes[np.sort(first)]


def _csc_of_blocks(rows, cols, blocks, n_rows: int,
                   n_cols: int) -> sp.csc_matrix:
    """CSC matrix of node blocks given transposed: blocks[k] (b x a) is
    the block at node pair (rows[k], cols[k]) transposed, with a row and
    b column dofs per node, the pairs sorted by column, then row. Read by
    rows these are the BSR arrays of the transpose, whose CSR arrays are
    the CSC arrays wanted. Exact zeros are dropped, as a sparse matrix
    product drops them."""
    _, b, a = blocks.shape
    indptr = np.searchsorted(cols, np.arange(n_cols + 1))
    T = sp.bsr_matrix((blocks, rows, indptr),
                      shape=(n_cols * b, n_rows * a)).tocsr()
    A = sp.csc_matrix((T.data, T.indices, T.indptr),
                      shape=(n_rows * a, n_cols * b))
    A.eliminate_zeros()
    return A


def _block_minres(apply, precondition, B):
    """Solution X of K X = B for every column of B by MINRES (Paige &
    Saunders 1975), with K given by `apply` (v -> K v) and the SPD
    preconditioner by `precondition` (r -> M^-1 r).

    One recurrence runs over all columns, so each iteration makes one
    matrix product and one preconditioner application on the columns
    still open; a column closes when its preconditioned residual
    estimate falls to MINRES_RTOL of its start. Returns (X, iterations),
    X None when a column is still open after MINRES_MAXITER iterations
    or the recurrence turns non-finite (an indefinite preconditioner
    shows as the square root of a negative number).
    """
    X = np.zeros_like(B)
    r1 = B
    y = precondition(r1)
    with np.errstate(invalid="ignore"):
        beta = np.sqrt(np.einsum("ij,ij->j", r1, y))
    if not np.isfinite(beta).all():
        return None, 0
    cols = np.nonzero(beta > 0.0)[0]
    r1, y, beta = r1[:, cols], y[:, cols], beta[cols]
    r2 = r1
    stop = MINRES_RTOL * beta
    phibar = beta
    old_beta = dbar = eps_ln = sn = np.zeros_like(beta)
    cs = -np.ones_like(beta)
    w = w2 = np.zeros_like(r1)
    iterations = 0
    while len(cols):
        if iterations == MINRES_MAXITER:
            return None, iterations
        iterations += 1
        v = y / beta
        y = apply(v)
        if iterations > 1:
            y -= (beta / old_beta) * r1
        alpha = np.einsum("ij,ij->j", v, y)
        y -= (alpha / beta) * r2
        r1, r2 = r2, y
        y = precondition(r2)
        old_beta = beta
        with np.errstate(invalid="ignore"):
            beta = np.sqrt(np.einsum("ij,ij->j", r2, y))
        # plane rotation that keeps the tridiagonal least-squares form
        old_eps = eps_ln
        delta = cs * dbar + sn * alpha
        gbar = sn * dbar - cs * alpha
        eps_ln = sn * beta
        dbar = -cs * beta
        gamma = np.maximum(np.hypot(gbar, beta), np.finfo(float).eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - old_eps * w1 - delta * w2) / gamma
        X[:, cols] += phi * w
        if not np.isfinite(phibar).all():
            return None, iterations
        open_ = phibar > stop
        if not open_.all():
            cols = cols[open_]
            (y, r1, r2, w, w2) = (a[:, open_] for a in (y, r1, r2, w, w2))
            (beta, old_beta, dbar, eps_ln, cs, sn, phibar, stop) = (
                a[open_] for a in (beta, old_beta, dbar, eps_ln, cs, sn,
                                   phibar, stop))
    return X, iterations


class SparseSystem:
    """Symmetric sparse system with shared-factorization Dirichlet solves.

    `K` is the matrix as BSR over the node pairs of `pattern`, which
    must come with their mirrors: pair k, read as block row cols[k],
    holds K's block (cols[k], rows[k]) in `row_blocks[k]`.

    `solver_stats` records how the interior block was solved: the path
    ("split", "small" or "fallback"), the MINRES iterations, the stored
    entries of each factor and the worst interior residual.
    """

    # rungs of the solve, tried in this order: the field split (large
    # blocks only), the symmetric LU of the whole block and the whole
    # block's LU with COLAMD and partial pivoting
    SPLIT, SYMMETRIC, PIVOTED = range(3)

    def __init__(self, pattern: BlockPattern, row_blocks: np.ndarray,
                 dof_map: DofMap, deficient_cells=()):
        n = dof_map.n_dofs
        self.pattern = pattern
        self.K = sp.bsr_matrix((row_blocks, pattern.rows, pattern.indptr),
                               shape=(n, n))
        self.dof_map = dof_map
        self.deficient_cells = tuple(deficient_cells)
        self.n_factorizations = 0
        self.n_solves = 0
        self._lu = None
        self._split = None
        self.solver_stats = {}
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

    @cached_property
    def _rows(self) -> sp.csr_matrix:
        """K as CSR, for products: a row sums its entries in column order
        from zero, as K's BSR and CSC products do, at a lower cost per
        entry than BSR's."""
        return self.K.tocsr()

    def _scaled_pairs(self, pairs):
        """(row labels, column labels, blocks) of the scaled matrix
        S K S at the node pairs `pairs`, each block transposed, each
        node labelled by its rank among the interior or the boundary
        nodes. The entries are (K_ij s_i) s_j, the products of the
        sparse product S @ K @ S."""
        nf = self.dof_map.n_fields
        p = self.pattern
        rows, cols = p.rows[pairs], p.cols[pairs]
        s = self.scaling.reshape(-1, nf)
        blocks = np.empty((len(pairs), nf, nf))
        np.multiply(self.K.data[p.mirror[pairs]].transpose(0, 2, 1),
                    s[rows, None, :], out=blocks)
        blocks *= s[cols, :, None]
        return self._label[rows], self._label[cols], blocks

    def factorize(self):
        """Factor the scaled interior block once; reused by every solve.

        The interior and interior-boundary blocks are cut out of the
        node pairs by node masks and scaled there. From SPLIT_MIN_DOFS
        interior dofs on, the two sign-definite diagonal blocks are
        factored instead of the whole block. A rung that fails to
        factor, or whose solve fails, hands the block to the next rung:
        split, symmetric whole block, pivoted whole block.
        """
        dm = self.dof_map
        inner, bound = dm.interior_nodes, dm.boundary_nodes
        self._label = np.empty(dm.n_nodes, dtype=np.int64)
        self._label[inner] = np.arange(len(inner))
        self._label[bound] = np.arange(len(bound))
        is_inner = np.zeros(dm.n_nodes, dtype=bool)
        is_inner[inner] = True
        row_in, col_in = (is_inner[self.pattern.rows],
                          is_inner[self.pattern.cols])
        self._inner_pairs = np.flatnonzero(row_in & col_in)
        self._Kib_s = _csc_of_blocks(
            *self._scaled_pairs(np.flatnonzero(row_in & ~col_in)),
            len(inner), len(bound))
        self._ii, self._ib = dm.interior_dofs, dm.boundary_dofs
        self._lu = self._split = None
        large = len(self._ii) >= SPLIT_MIN_DOFS
        self.solver_stats = {"path": "split" if large else "small",
                             "minres_iterations": 0, "lu_nnz": [],
                             "max_interior_residual": 0.0}
        if len(self._ii) == 0:
            self._lu, self._rung = _EmptyFactor(), self.PIVOTED
        else:
            self._factor(self.SPLIT if large else self.SYMMETRIC)
        self.n_factorizations += 1
        return self

    def _factor(self, rung: int):
        """Factor the scaled block by the first rung from `rung` on that
        meets no zero pivot; AssemblyError when even the pivoted LU does."""
        for rung in range(rung, self.PIVOTED + 1):
            try:
                if rung == self.SPLIT:
                    self._factor_split()
                else:
                    block = self._scaled_block()
                    self._lu = (_symmetric_lu(block) if rung == self.SYMMETRIC
                                else spla.splu(block))
                    self.solver_stats["lu_nnz"] = [int(self._lu.nnz)]
            except RuntimeError as exc:
                self.solver_stats["path"] = "fallback"
                failure = exc
                continue
            self._rung = rung
            return
        raise self._failure(f"factorization failed: {failure}")

    def _factor_split(self):
        """Factor K_uu and -K_pp of the scaled block, each from the
        sub-blocks of the interior node pairs.

        The block is symmetric quasi-definite, so both are positive
        definite. -K_pp takes the symmetric SuperLU factor; its column
        order, read as nodes by first appearance, is the elimination
        order of the supernodal Cholesky factor of K_uu, whose dofs come
        in blocks of 3 per node over the same interior nodes. Both see
        the pattern of the scaled block with its exact zeros dropped:
        -K_pp as CSC, K_uu as the node blocks that hold a nonzero.
        """
        nf = self.dof_map.n_fields
        n = len(self._ii) // nf
        rows, cols, blocks = self._scaled_pairs(self._inner_pairs)
        lu_p = _symmetric_lu(_csc_of_blocks(rows, cols, -blocks[:, 3:, 3:],
                                            n, n))
        uu = blocks[:, :3, :3]
        nonzero = uu.any(axis=(1, 2))
        uu, rows, cols = uu[nonzero], rows[nonzero], cols[nonzero]
        del blocks, nonzero
        self._split = (NodeCholesky.of_blocks(
            uu, rows, cols, _node_order(lu_p.perm_c, nf - 3)), lu_p)
        self.solver_stats["lu_nnz"] = [int(f.nnz) for f in self._split]

    def _scaled_block(self):
        """The scaled interior block as sorted CSC, built from the node
        pairs (and the split freed), so every rung factors the same
        arrays."""
        self._split = None
        n = len(self._ii) // self.dof_map.n_fields
        return _csc_of_blocks(*self._scaled_pairs(self._inner_pairs), n, n)

    def _failure(self, message: str) -> AssemblyError:
        hint = (f"; under-stabilized cells: {list(self.deficient_cells)}"
                if self.deficient_cells else "")
        return AssemblyError(f"{message}{hint}")

    def _interior_product(self, x):
        """K_ii x of interior columns x (n_interior, m), through K."""
        z = np.zeros((self.dof_map.n_dofs, x.shape[1]))
        z[self._ii] = x
        return (self._rows @ z)[self._ii]

    def _solve_scaled(self, rhs_s):
        """(u_i, worst interior residual) by the current rung; u_i None and
        the residual infinite when MINRES does not converge."""
        s = self.scaling[self._ii, None]
        if self._rung != self.SPLIT:
            ui = self._lu.solve(rhs_s) * s
            return ui, self._worst_residual(ui, rhs_s)
        lu_u, lu_p = self._split
        nf = self.dof_map.n_fields

        def precondition(r):
            # the mechanical and potential dofs of each node, node-major
            r = r.reshape(-1, nf, r.shape[1])
            out = np.empty_like(r)
            for fields, lu in ((slice(0, 3), lu_u), (slice(3, nf), lu_p)):
                part = r[:, fields]
                out[:, fields] = lu.solve(
                    part.reshape(-1, r.shape[2])).reshape(part.shape)
            return out.reshape(-1, r.shape[2])

        def apply(v):                    # the scaled block, through K
            return self._interior_product(v * s) * s

        X, iterations = _block_minres(apply, precondition, rhs_s)
        self.solver_stats["minres_iterations"] += iterations
        if X is None:
            return None, np.inf
        ui = X * s
        return ui, self._worst_residual(ui, rhs_s)

    def _worst_residual(self, ui, rhs_s) -> float:
        """Largest interior residual |K_ii u_i + K_ib u_b| / |K_ib u_b|
        over the columns with a nonzero right-hand side (NaN if any is):
        K_ii u_i through K, K_ib u_b = -rhs_s / s_i with s the scaling."""
        b = rhs_s / self.scaling[self._ii, None]
        denom = np.linalg.norm(b, axis=0)
        res = np.linalg.norm(self._interior_product(ui) - b, axis=0)
        live = denom > 0.0
        return float(np.max(res[live] / denom[live], initial=0.0))

    def solve_dirichlet(self, boundary_values: np.ndarray) -> np.ndarray:
        """Full solution for prescribed boundary-dof values: (n_boundary,)
        gives (n_dofs,), and (n_boundary, n_cases) gives (n_dofs,
        n_cases), every load case in one solve. A column that fails the
        residual gate sends every column down to the next rung."""
        if self._lu is None and self._split is None:
            self.factorize()
        ub = np.asarray(boundary_values, dtype=float)
        if ub.ndim not in (1, 2) or len(ub) != len(self._ib):
            raise AssemblyError(
                f"expected {len(self._ib)} boundary values, got shape "
                f"{ub.shape}")
        single = ub.ndim == 1
        if single:
            ub = ub[:, None]
        yb = ub / self.scaling[self._ib, None]
        rhs_s = -(self._Kib_s @ yb)
        ui, worst = self._solve_scaled(rhs_s)
        while not worst <= RESIDUAL_GATE:
            if self._rung == self.PIVOTED:
                raise self._failure(f"interior solve residual {worst:.3e} "
                                    f"exceeds {RESIDUAL_GATE:g}")
            self.solver_stats["path"] = "fallback"
            self._factor(self._rung + 1)
            ui, worst = self._solve_scaled(rhs_s)
        stats = self.solver_stats
        stats["max_interior_residual"] = max(
            stats["max_interior_residual"], worst)
        self.n_solves += ub.shape[1]
        full = np.empty((self.dof_map.n_dofs, ub.shape[1]))
        full[self._ii] = ui
        full[self._ib] = ub
        return full[:, 0] if single else full

    def energy(self, full_solution: np.ndarray):
        """Quadratic form 0.5 u.K.u of a full solution: a float for a
        vector (n_dofs,), an array for the columns of (n_dofs, n_cases),
        all columns by one sparse product."""
        U = np.asarray(full_solution, dtype=float)
        KU = self._rows @ U
        if U.ndim == 1:
            return 0.5 * float(U @ KU)
        # contiguous rows, so each dot sums as that of a single vector
        return 0.5 * np.array([u @ ku for u, ku in zip(
            np.ascontiguousarray(U.T), np.ascontiguousarray(KU.T))])
