"""Global dof management, sparse symmetric assembly, Dirichlet solves.

Dofs are node-major: global index = node * n_fields + field. Boundary
dofs are eliminated (not penalized); the interior block is factorized
once per configuration and the factorization is reused for every load
case, all cases in one solve. Large blocks factor their mechanical and
potential diagonal blocks apart, in single precision refined in
float64, and couple them by conjugate gradients on the potential's
Schur complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cholesky import (NodeCholesky, NodeSymbolic, NotPositiveDefinite,
                       worst_residual)
from .element_fem import FIELD_COUNT, gauss_stiffness, state_size

__all__ = ["AssemblyError", "DofMap", "SparseSystem", "BlockPattern",
           "assemble", "assemble_parts", "add_blocks", "node_dofs",
           "scatter_columns", "system_from_blocks", "system_from_triplets"]


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
        self._interiors = {}

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

    def interior(self, boundary_nodes: np.ndarray) -> "_Interior":
        """The interior of the pattern off the sorted, unique
        `boundary_nodes` with its node order, made at the first call for
        those nodes and kept for every system on the pattern."""
        key = np.asarray(boundary_nodes, dtype=np.int64).tobytes()
        if key not in self._interiors:
            self._interiors[key] = _Interior(self, boundary_nodes)
        return self._interiors[key]


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


def assemble_parts(parts, moduli, n_nodes: int, n_fields: int):
    """(pattern, [(blocks, intP, intL) per part]) of a system built one
    grain at a time, so no operator array larger than one grain's is
    held; every global system is built here.

    A part is (nodes, operators): nodes[c] (m, k) are the node ids of
    grain c's elements and operators(c) their state operators B (m,
    n_points, nP, k * n_fields) and weights w (m, n_points) (a linear
    tet is one point of weight V). One pattern covers every part. Each
    part sums its element matrices sum_g w_g B_g^T G B_g into node-pair
    blocks and its weighted operators into intP = int P, intL = int G P.
    """
    nf, n_dofs, nP = n_fields, n_nodes * n_fields, state_size(n_fields)
    if any(np.shape(G) != (nP, nP) for G in moduli):
        raise AssemblyError(f"every modulus must be {nP}x{nP} for {nf} fields")
    pattern, positions = BlockPattern.of_elements(
        [nodes for part_nodes, _ in parts for nodes in part_nodes], n_nodes,
        nf)
    sums = [(np.zeros((pattern.n_pairs, nf, nf)), np.zeros((nP, n_dofs)),
             np.zeros((nP, n_dofs))) for _ in parts]
    for c, G in enumerate(moduli):
        for p, ((nodes, operators), (blocks, intP, intL)) in enumerate(
                zip(parts, sums)):
            B, w = operators(c)
            add_blocks(blocks, positions[p * len(moduli) + c],
                       gauss_stiffness(B, w, G))
            own, local = np.unique(nodes[c], return_inverse=True)
            integral = scatter_columns(
                node_dofs(local.reshape(nodes[c].shape), nf),
                np.einsum("mg,mgpa->mpa", w, B), len(own) * nf)
            cols = node_dofs(own, nf)
            intP[:, cols] += integral
            intL[:, cols] += G @ integral
    return pattern, sums


SYMMETRY_AUDIT = 1e-12       # relative asymmetry of an assembled matrix
AUDIT_PAIRS = 4096           # node pairs per chunk of the symmetry audit


def _audit_symmetry(asymmetry: float, scale: float):
    """The assembled matrix must already be symmetric to SYMMETRY_AUDIT
    relative."""
    if scale and asymmetry > SYMMETRY_AUDIT * scale:
        raise AssemblyError(
            f"assembled matrix asymmetry {asymmetry:.3e} exceeds audit "
            f"tolerance ({SYMMETRY_AUDIT * scale:.3e})")


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
        # a chunk of pairs at a time: no difference array of K's size
        peaks = []
        for lo in range(0, len(blocks), AUDIT_PAIRS):
            diff = (row_blocks[lo:lo + AUDIT_PAIRS].transpose(0, 2, 1)
                    - blocks[lo:lo + AUDIT_PAIRS])
            peaks.append(max(diff.max(), -diff.min()))
        _audit_symmetry(np.max(peaks), max(blocks.max(), -blocks.min()))
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


# Interior dofs from which `factorize` splits the block (docs/fem.md):
# set when block MINRES coupled the split. Against the node-ordered
# whole-block LU the single-precision split loses on every block
# measured up to 6,765 dofs and wins at 15,468; the crossover lies
# between.
SPLIT_MIN_DOFS = 10000
CG_RTOL = 1e-14              # per column, preconditioned residual
CG_MAXITER = 100
RESIDUAL_GATE = 1e-10        # per column, interior residual
PIVOT_THRESHOLD = 0.1        # SuperLU's diag_pivot_thresh (docs/fem.md)

# The one SuperLU setting of every whole-block factor. The block comes
# in the node order of its pattern (`_Interior`), which SuperLU keeps
# (NATURAL, up to a postorder of the elimination tree); diagonal pivots
# while they hold PIVOT_THRESHOLD of their column's largest entry; and
# relax=1, which merges no elimination subtree into a relaxed supernode
# (scipy's default relaxation stores half again as many entries on the
# level-2 reference's whole block).
_SUPERLU = dict(permc_spec="NATURAL", diag_pivot_thresh=PIVOT_THRESHOLD,
                relax=1, options={"SymmetricMode": True})


def _symmetric_lu(block):
    """SuperLU factors of a block by threshold pivoting in symmetric mode
    (Demmel et al. 1999). A definite or quasi-definite block factors
    stably on its diagonal under any symmetric ordering (Vanderbei 1995),
    and on these meshes the factor keeps every diagonal pivot, bit for
    bit the unpivoted one; another block pivots off the diagonal only
    where it must. A singular block raises RuntimeError."""
    return spla.splu(block, **_SUPERLU)


def _min_degree_order(block) -> np.ndarray:
    """SuperLU's minimum-degree column order on the pattern of A + Aᵀ
    (MMD_AT_PLUS_A, postordered by its elimination tree), read from an
    incomplete factor that drops almost every entry: SuperLU chooses
    the order before any numeric work, so this costs a fraction of the
    complete factor."""
    return spla.spilu(block, drop_tol=0.99, fill_factor=1,
                      **dict(_SUPERLU, permc_spec="MMD_AT_PLUS_A")).perm_c


def _node_order(perm_c, per_node: int) -> np.ndarray:
    """Nodes in the order a SuperLU column permutation eliminates their
    first dof (node-major dofs, `per_node` per node). perm_c[j] is the
    step that eliminates dof j, so each node's first step is the least
    of its dofs', and the nodes are ranked by it with no sort."""
    first = np.asarray(perm_c).reshape(-1, per_node).min(axis=1)
    at = np.full(len(perm_c), -1, dtype=np.int64)
    at[first] = np.arange(len(first))
    return at[at >= 0]


class _Interior:
    """The interior of a `BlockPattern` off one set of boundary nodes,
    and the order in which every factor on the pattern eliminates its
    nodes (`BlockPattern.interior` keeps one per set).

    `label` ranks each node among the interior or the boundary nodes.
    `order` lists the interior nodes (by rank) in elimination order: the
    minimum-degree order of the interior node graph, one column per
    node (Ashcraft, SISC 16 (1995) 1404, orders such compressed
    graphs), and `position` is its inverse. `pairs` are the interior
    node pairs by (column, row) in that order, from which the whole
    block is built in node order; sorted, they run in the pattern's
    order. `coupling` holds the pairs of an interior row node and a
    boundary column node.
    """

    def __init__(self, pattern: BlockPattern, boundary_nodes):
        is_inner = np.ones(pattern.n_nodes, dtype=bool)
        is_inner[boundary_nodes] = False
        inner = np.flatnonzero(is_inner)
        n = len(inner)
        self.label = np.empty(pattern.n_nodes, dtype=np.int64)
        self.label[inner] = np.arange(n)
        self.label[boundary_nodes] = np.arange(len(boundary_nodes))
        row_in, col_in = is_inner[pattern.rows], is_inner[pattern.cols]
        pairs = np.flatnonzero(row_in & col_in)
        self.coupling = np.flatnonzero(row_in & ~col_in)
        # the pattern's arrays, not the pattern, which keeps this
        self._nodes = pattern.rows, pattern.cols
        rows, cols = self.ranks(pairs)
        self.order = np.arange(n)
        if n:
            # only the pattern counts; a diagonal on every node, also one
            # that no pair couples, keeps the incomplete factor off zero
            # pivots
            off = rows != cols
            r = np.concatenate([rows[off], self.order])
            c = np.concatenate([cols[off], self.order])
            by_col = np.argsort(c * n + r)
            r, c = r[by_col], c[by_col]
            graph = sp.csc_matrix(
                (np.where(r == c, float(n), -1.0), r,
                 np.searchsorted(c, np.arange(n + 1))), shape=(n, n))
            self.order = _node_order(_min_degree_order(graph), 1)
        self.position = np.empty(n, dtype=np.int64)
        self.position[self.order] = np.arange(n)
        self.pairs = pairs[np.argsort(self.position[cols] * n
                                      + self.position[rows])]

    def ranks(self, pairs):
        """(row labels, column labels) of the node pairs `pairs`."""
        rows, cols = self._nodes
        return self.label[rows[pairs]], self.label[cols[pairs]]


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


def _schur_cg(solve_a, solve_c, B, C, f, g):
    """(u, p, iterations) of the quasi-definite system [[A, B], [Bᵀ, -C]]
    [u; p] = [f; g], every column of f and g, by CG on the potential's
    Schur complement S = C + Bᵀ A⁻¹ B preconditioned by C (Benzi, Golub
    & Liesen, Acta Numerica 14 (2005) 1, §5), with A⁻¹ and C⁻¹ given by
    `solve_a` and `solve_c`. Each takes a right-hand side and a bound
    per column on the A⁻¹- (or C⁻¹-) norm of the residual its answer
    may leave: 0 asks for round-off, inf for any answer (one pass of an
    approximate factor). u₀ is solved to round-off; A⁻¹ B d in an
    iteration to CG_RTOL √(start), the stop bound, whose share of a
    shrinking B d grows as the iteration closes (the relaxed inner
    accuracy of inexact Krylov methods; Simoncini & Szyld, SISC 25
    (2003) 454). C⁻¹ only preconditions and measures, so one pass
    serves, but for a decoupled system, where p = C⁻¹ r is the answer.

    u₀ = A⁻¹ f, then S p = Bᵀ u₀ - g, then u = u₀ - A⁻¹ B p. Each
    iteration makes one solve with A and one with C on the columns still
    open, and carries w = A⁻¹ B p, so u takes no solve after the last.
    The whole system's residual is then [0; r], and its norm under the
    block-diagonal preconditioner diag(A, C) is √(rᵀ C⁻¹ r). A column
    closes when that falls to CG_RTOL of the same norm of its right-hand
    side, √(fᵀ A⁻¹ f + gᵀ C⁻¹ g), or starts there (a zero column). u and
    p are None when a column is still open after CG_MAXITER iterations,
    when rᵀ C⁻¹ r or gᵀ C⁻¹ g turns negative or non-finite, or when
    dᵀ S d is not positive: that is how an indefinite C or S shows.
    When B stores no entry (a decoupled mode), S = C, and every column
    closes at once with p = C⁻¹ r and no iteration.
    """
    u = solve_a(f, 0.0)
    start = np.einsum("ij,ij->j", f, u) \
        + np.einsum("ij,ij->j", g, solve_c(g, np.inf))
    r = B.T @ u
    r -= g
    p, w = np.zeros_like(r), np.zeros_like(u)
    z = solve_c(r, 0.0 if not B.nnz else np.inf)
    rz = np.einsum("ij,ij->j", r, z)
    if not (np.isfinite(start + rz).all() and (start >= 0.0).all()
            and (rz >= 0.0).all()):
        return None, None, 0
    if not B.nnz:
        return u, z, 0
    stop = CG_RTOL ** 2 * start
    cols = np.flatnonzero(rz > stop)
    r, d, rz, stop = r[:, cols], z[:, cols], rz[cols], stop[cols]
    pc, wc = p[:, cols], w[:, cols]
    iterations = 0
    while len(cols):
        if iterations == CG_MAXITER:
            return None, None, iterations
        iterations += 1
        ad = solve_a(B @ d, np.sqrt(stop))
        q = C @ d
        q += B.T @ ad
        dq = np.einsum("ij,ij->j", d, q)
        if not (dq > 0.0).all():
            return None, None, iterations
        alpha = rz / dq
        ad *= alpha
        wc += ad
        q *= alpha
        r -= q
        np.multiply(d, alpha, out=q)
        pc += q
        z = solve_c(r, np.inf)
        rz_next = np.einsum("ij,ij->j", r, z)
        if not (np.isfinite(rz_next).all() and (rz_next >= 0.0).all()):
            return None, None, iterations
        d *= rz_next / rz
        d += z
        rz = rz_next
        open_ = rz > stop
        if not open_.all():
            done = cols[~open_]
            p[:, done], w[:, done] = pc[:, ~open_], wc[:, ~open_]
            cols = cols[open_]
            r, d, pc, wc = (a[:, open_] for a in (r, d, pc, wc))
            rz, stop = rz[open_], stop[open_]
    u -= w
    return u, p, iterations


class SparseSystem:
    """Symmetric sparse system with shared-factorization Dirichlet solves.

    `K` is the matrix as BSR over the node pairs of `pattern`, which
    must come with their mirrors: pair k, read as block row cols[k],
    holds K's block (cols[k], rows[k]) in `row_blocks[k]`.

    `solver_stats` records how the interior block was solved: the path
    ("split", "small", or "fallback" when the split handed the block to
    the LU), the CG iterations, the refinement corrections of the
    split's single-precision factors, the stored entries of each factor
    and the bytes of their values, and the worst interior residual.
    """

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
        # the interior block's factors: the whole block's SuperLU factor,
        # or the split's (K_uu factor, C factor, K_up)
        self._factors = None
        self.solver_stats = {}

    def _pair_blocks(self, pairs):
        """K's blocks at the node pairs `pairs`, each transposed and
        gathered contiguously."""
        nf = self.dof_map.n_fields
        # K's block at pair k is its mirror pair's row block; mode "clip"
        # lets take write into `out` unbuffered (the indices are in range)
        blocks = np.empty((len(pairs), nf, nf))
        np.take(self.K.data.transpose(0, 2, 1), self.pattern.mirror[pairs],
                axis=0, out=blocks, mode="clip")
        return blocks

    def factorize(self):
        """Factor the interior block once; reused by every solve.

        The interior and interior-boundary blocks are cut out of the
        node pairs of the pattern's interior (`BlockPattern.interior`),
        whose node order every factor takes. From SPLIT_MIN_DOFS
        interior dofs on, the two sign-definite diagonal blocks are
        factored instead of the whole block. A split that meets a
        nonpositive pivot, or whose solve fails, hands the block to the
        LU of the whole block; a failure of the LU is final.
        """
        dm = self.dof_map
        self._interior = self.pattern.interior(dm.boundary_nodes)
        coupling = self._interior.coupling
        self._Kib = _csc_of_blocks(*self._interior.ranks(coupling),
                                   self._pair_blocks(coupling),
                                   len(dm.interior_nodes),
                                   len(dm.boundary_nodes))
        self._ii, self._ib = dm.interior_dofs, dm.boundary_dofs
        self._factors = None
        # an empty block takes the LU, whatever SPLIT_MIN_DOFS says
        large = len(self._ii) >= max(SPLIT_MIN_DOFS, 1)
        self.solver_stats = {"path": "split" if large else "small",
                             "cg_iterations": 0, "refinement_steps": 0,
                             "lu_nnz": [], "factor_bytes": [],
                             "max_interior_residual": 0.0}
        if large:
            try:
                self._factor_split()
            except NotPositiveDefinite:
                self.solver_stats["path"] = "fallback"
            except MemoryError as exc:      # too large for the LU too
                raise self._failure(f"factorization failed: {exc}") from exc
        if self._factors is None:
            self._factor_whole()
        self.n_factorizations += 1
        return self

    def _factor_whole(self):
        """Factor the whole interior block, in node order, by
        `_symmetric_lu`; AssemblyError when that fails."""
        block = self._interior_block()
        try:
            lu = _symmetric_lu(block)
        except (RuntimeError, MemoryError) as exc:
            raise self._failure(f"factorization failed: {exc}") from exc
        self._factors = lu
        self.solver_stats["lu_nnz"] = [int(lu.nnz)]
        self.solver_stats["factor_bytes"] = [8 * int(lu.nnz)]

    def _factor_split(self):
        """Factor K_uu and C = -K_pp of the interior block, each from the
        sub-blocks of the interior node pairs, and keep the coupling
        block K_up for the Schur complement CG.

        The block is symmetric quasi-definite, so both are positive
        definite, and both come in node blocks over the same interior
        nodes: 3 dofs per node for K_uu, n_fields - 3 for C. One symbolic
        step on the interior node pairs that hold a nonzero of either,
        in the node order of the pattern's interior, serves both
        supernodal Cholesky factors. Each factor keeps its float64
        sub-blocks as its `matrix`, which its refinement and the CG's
        products with C read; K_up is kept as CSC with exact zeros
        dropped. The sub-block copies are cut and the pair blocks freed
        before either store is allocated.
        """
        nf = self.dof_map.n_fields
        n = len(self._ii) // nf
        pairs = np.sort(self._interior.pairs)
        rows, cols = self._interior.ranks(pairs)
        blocks = self._pair_blocks(pairs)
        pp = -blocks[:, 3:, 3:]
        B = _csc_of_blocks(rows, cols, blocks[:, 3:, :3], n, n)
        keep = blocks[:, :3, :3].any(axis=(1, 2)) | pp.any(axis=(1, 2))
        uu, pp, rows, cols = blocks[keep, :3, :3], pp[keep], rows[keep], \
            cols[keep]
        del blocks, keep
        symbolic = NodeSymbolic(rows, cols, self._interior.order)
        symbolic.check_memory(3, nf - 3)
        chol_u = NodeCholesky(uu, rows, cols, symbolic)
        chol_p = NodeCholesky(pp, rows, cols, symbolic)
        self._factors = (chol_u, chol_p, B)
        self.solver_stats["lu_nnz"] = [chol_u.nnz, chol_p.nnz]
        self.solver_stats["factor_bytes"] = [chol_u.nbytes, chol_p.nbytes]

    def _interior_block(self):
        """The interior block as sorted CSC in the node order of the
        pattern's interior, built from its node pairs in that order (and
        the split freed), so every factor reads the same arrays."""
        self._factors = None
        interior = self._interior
        rows, cols = (interior.position[x]
                      for x in interior.ranks(interior.pairs))
        n = len(interior.order)
        return _csc_of_blocks(rows, cols, self._pair_blocks(interior.pairs),
                              n, n)

    def _failure(self, message: str) -> AssemblyError:
        hint = (f"; under-stabilized cells: {list(self.deficient_cells)}"
                if self.deficient_cells else "")
        return AssemblyError(f"{message}{hint}")

    def _solve_interior(self, rhs, ub):
        """(full solution, K @ full, worst interior residual) for the
        boundary values `ub`, u_i by the split when it factored the
        block; a split whose CG fails, or whose answer fails the
        residual gate, hands the block to the LU."""
        if not isinstance(self._factors, spla.SuperLU):
            ui = self._solve_split(rhs)
            if ui is not None:
                full, product, worst = self._gated(ui, ub, rhs)
                if worst <= RESIDUAL_GATE:
                    return full, product, worst
            self.solver_stats["path"] = "fallback"
            self._factor_whole()
        return self._gated(self._solve_whole(rhs), ub, rhs)

    def _solve_whole(self, rhs):
        """u_i by the whole block's LU, whose dofs come in node order."""
        order, m = self._interior.order, rhs.shape[1]
        nf = self.dof_map.n_fields
        x = self._factors.solve(
            rhs.reshape(-1, nf, m)[order].reshape(rhs.shape))
        ui = np.empty((len(order), nf, m))
        ui[order] = x.reshape(ui.shape)
        return ui.reshape(rhs.shape)

    def _solve_split(self, rhs):
        """u_i by the split's Schur complement CG; None when the CG
        fails."""
        chol_u, chol_p, B = self._factors
        nf, m = self.dof_map.n_fields, rhs.shape[1]
        # the mechanical and potential dofs of each node, node-major
        by_node = rhs.reshape(-1, nf, m)
        u, p, iterations = _schur_cg(
            chol_u.solve, chol_p.solve, B, chol_p.matrix,
            by_node[:, :3].reshape(-1, m), by_node[:, 3:].reshape(-1, m))
        self.solver_stats["cg_iterations"] += iterations
        self.solver_stats["refinement_steps"] = \
            chol_u.corrections + chol_p.corrections
        if u is None:
            return None
        return np.concatenate([u.reshape(-1, 3, m), p.reshape(-1, nf - 3, m)],
                              axis=1).reshape(rhs.shape)

    def _gated(self, ui, ub, rhs):
        """(full, K @ full, worst interior residual) of the full solution
        of u_i and u_b: the largest |K_ii u_i + K_ib u_b| / |K_ib u_b|
        over the columns with a nonzero right-hand side (NaN if any is),
        read off the product's interior rows, so that one product with
        K serves the gate and the energies."""
        full = np.empty((self.dof_map.n_dofs, ub.shape[1]))
        full[self._ii] = ui
        full[self._ib] = ub
        product = self.K @ full
        return full, product, worst_residual(product[self._ii], rhs)

    def solve_dirichlet(self, boundary_values: np.ndarray,
                        product: bool = False):
        """Full solution for prescribed boundary-dof values: (n_boundary,)
        gives (n_dofs,), and (n_boundary, n_cases) gives (n_dofs,
        n_cases), every load case in one solve. With `product`, returns
        (solution, K @ solution), the product the residual gate read,
        which `energy` takes. A column that fails the residual gate on
        the LU is an AssemblyError."""
        if self._factors is None:
            self.factorize()
        ub = np.asarray(boundary_values, dtype=float)
        if ub.ndim not in (1, 2) or len(ub) != len(self._ib):
            raise AssemblyError(
                f"expected {len(self._ib)} boundary values, got shape "
                f"{ub.shape}")
        single = ub.ndim == 1
        if single:
            ub = ub[:, None]
        rhs = -(self._Kib @ ub)
        full, KU, worst = self._solve_interior(rhs, ub)
        if not worst <= RESIDUAL_GATE:
            raise self._failure(f"interior solve residual {worst:.3e} "
                                f"exceeds {RESIDUAL_GATE:g}")
        stats = self.solver_stats
        stats["max_interior_residual"] = max(
            stats["max_interior_residual"], worst)
        self.n_solves += ub.shape[1]
        if single:
            full, KU = full[:, 0], KU[:, 0]
        return (full, KU) if product else full

    def energy(self, full_solution: np.ndarray, product=None):
        """Quadratic form 0.5 u.K.u of a full solution: a float for a
        vector (n_dofs,), an array for the columns of (n_dofs, n_cases),
        all columns by one sparse product, or none when `product`, K @ u
        as `solve_dirichlet` returns it, is given."""
        U = np.asarray(full_solution, dtype=float)
        KU = self.K @ U if product is None else product
        if U.ndim == 1:
            return 0.5 * float(U @ KU)
        # contiguous rows, so each dot sums as that of a single vector
        return 0.5 * np.array([u @ ku for u, ku in zip(
            np.ascontiguousarray(U.T), np.ascontiguousarray(KU.T))])
