"""Supernodal Cholesky factorization over node blocks.

A symmetric positive definite matrix whose dofs come in blocks of `b`
per node (node-major) is factored as P A Pᵀ = L Lᵀ. The symbolic step
works on the node graph only: elimination tree, postorder, column
structures, fundamental supernodes and their relaxed amalgamation (Liu,
SIAM Rev. 34 (1992) 82; Ashcraft & Grimes, ACM TOMS 15 (1989) 291), so
one `NodeSymbolic` serves the factors of every matrix on the same node
graph, whatever its b. The numeric step is right-looking: each
supernode is factored in place by LAPACK, its diagonal block in
rectangular full packed form (no unused upper triangle), and its update
is formed by matrix products in column chunks and subtracted straight
from the blocks of the ancestors that own those columns, so there is no
update stack and no scratch larger than one chunk. The store is single
precision (Buttari et al., ACM TOMS 34 (2008) art. 17): the matrix is
read in float64 and rounded once as it is scattered, and `solve` refines
single-precision passes to float64 solutions.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import spftrf, stfsm

__all__ = ["NodeCholesky", "NodeSymbolic", "NotPositiveDefinite",
           "physical_memory", "worst_residual"]

# A child supernode merges into its parent when the merged supernode has
# at most AMALGAMATE_NODES nodes or at most AMALGAMATE_ZEROS of its
# node-block entries are zeros (docs/fem.md).
AMALGAMATE_NODES = 16
AMALGAMATE_ZEROS = 0.10
# dof columns of one update product
UPDATE_CHUNK = 192
# the numeric step's scratch is bounded by the store: an update product
# holds at most nnz / UPDATE_SHARE entries, and one chunk of the scatter
# at most nnz / SCATTER_SHARE, or SCATTER_MIN_PAIRS node pairs when that
# is more (a small store's chunks would cost a Python step per pair)
UPDATE_SHARE = 64
SCATTER_SHARE = 128
SCATTER_MIN_PAIRS = 128
# bytes per stored entry (float32)
ENTRY_BYTES = 4
# refinement goes on while each correction lowers the worst column
# residual at least tenfold
REFINE_FALL = 0.1
# a pass alone serves when this many times its expected error meets the
# bound
PASS_MARGIN = 10.0


class NotPositiveDefinite(RuntimeError):
    """A Cholesky factor met a pivot that is not positive."""


def _postorder(parent: np.ndarray) -> np.ndarray:
    """Postorder of a forest given by parent pointers (-1 at roots):
    children in increasing order, every subtree contiguous."""
    n = len(parent)
    children = [[] for _ in range(n + 1)]
    for v, p in enumerate(parent.tolist()):
        children[p].append(v)            # roots hang under the sentinel n
    order = []
    stack = [(n, iter(children[n]))]
    while stack:
        v, it = stack[-1]
        child = next(it, None)
        if child is None:
            stack.pop()
            order.append(v)
        else:
            stack.append((child, iter(children[child])))
    return np.array(order[:-1], dtype=np.int64)


def _etree(n: int, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Elimination tree (parent pointers, -1 at roots) of the symmetric
    pattern with entries (lower[k], upper[k]), lower < upper, sorted by
    upper (Liu's algorithm with path compression)."""
    parent = [-1] * n
    ancestor = [-1] * n
    for i, j in zip(lower.tolist(), upper.tolist()):
        while True:
            a = ancestor[i]
            if a == j:
                break
            ancestor[i] = j
            if a == -1:
                parent[i] = j
                break
            i = a
    return np.array(parent, dtype=np.int64)


def _supernodes(parent: np.ndarray, rows: np.ndarray, starts: np.ndarray):
    """Fundamental supernodes of a postordered elimination tree.

    rows[starts[j]:starts[j + 1]] are the rows below the diagonal of
    column j of A. Column j joins the supernode of column j - 1 when
    j - 1 is its only child and the two structures nest exactly.
    Returns (first column of each supernode plus n, rows below each
    supernode as sorted arrays)."""
    n = len(parent)
    children = [[] for _ in range(n)]
    for v, p in enumerate(parent.tolist()):
        if p >= 0:
            children[p].append(v)
    struct = [None] * n
    first, below = [], []
    for j in range(n):
        kids = children[j]
        own = rows[starts[j]:starts[j + 1]]
        if kids:
            s = np.concatenate([own] + [struct[c][1:] for c in kids])
            s.sort()
            fresh = np.ones(len(s), dtype=bool)
            fresh[1:] = s[1:] != s[:-1]
            s = s[fresh]
        else:
            s = own
        struct[j] = s
        if not (len(kids) == 1 and len(struct[j - 1]) == len(s) + 1):
            if j:
                below.append(struct[j - 1])
            first.append(j)
        for c in kids:                   # only last columns stay needed
            struct[c] = None
    if n:
        below.append(struct[n - 1])
    return np.array(first + [n], dtype=np.int64), below


def _amalgamate(ncols, nrows, sparent):
    """Relaxed amalgamation of a postordered supernode tree: each
    supernode, children first, absorbs those children for which the
    merged supernode has at most AMALGAMATE_NODES nodes or at most a
    fraction AMALGAMATE_ZEROS of zero node-block entries. Returns the
    supernode each one ends up in (its topmost absorber)."""
    k, m = list(ncols), list(nrows)
    zeros = [0] * len(k)
    into = list(range(len(k)))

    def entries(kk, mm):
        return kk * (kk + 1) // 2 + kk * mm

    children = [[] for _ in k]
    for s, p in enumerate(sparent):
        if p >= 0:
            children[p].append(s)
    for p, kids in enumerate(children):
        for c in kids:
            kk = k[c] + k[p]
            total = entries(kk, m[p])
            z = total - (entries(k[c], m[c]) - zeros[c]) \
                - (entries(k[p], m[p]) - zeros[p])
            if kk <= AMALGAMATE_NODES or z <= AMALGAMATE_ZEROS * total:
                into[c] = p
                k[p], zeros[p] = kk, z
    for s in reversed(range(len(k))):     # absorbers come after absorbed
        into[s] = into[into[s]]
    return np.array(into, dtype=np.int64)


def _packed_columns(n, j):
    """(lead, shift) of columns j of the lower triangle of an n x n
    matrix in LAPACK's rectangular full packed form (TRANSR = 'N', UPLO
    = 'L', n (n + 1) / 2 entries): entry (i, j), i >= j, sits at
    i * lead + shift. The first n - n // 2 columns stand as they are,
    the others transposed beside them."""
    even = 1 - n % 2
    lda, c0 = n + even, n - n // 2
    right = j >= c0
    return (np.where(right, lda, 1),
            np.where(right, j - c0 + (1 - even - c0) * lda, even + j * lda))


# where the process's cgroup is named, and where cgroups are mounted
SELF_CGROUP = "/proc/self/cgroup"
CGROUP_ROOT = "/sys/fs/cgroup"


def _cgroup_limits():
    """Memory limits in bytes of the process's own cgroup: `memory.max`
    of its cgroup v2 entry and `memory.limit_in_bytes` of its cgroup v1
    memory controller, where readable; "max" sets none."""
    try:
        with open(SELF_CGROUP, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    limits = []
    for line in lines:
        parts = line.split(":", 2)
        if len(parts) != 3:
            continue
        controllers, path = parts[1], parts[2].lstrip("/")
        if not controllers:
            name = os.path.join(CGROUP_ROOT, path, "memory.max")
        elif "memory" in controllers.split(","):
            name = os.path.join(CGROUP_ROOT, "memory", path,
                                "memory.limit_in_bytes")
        else:
            continue
        try:
            with open(name, encoding="utf-8") as fh:
                text = fh.read().strip()
        except OSError:
            continue
        if text.isdigit():
            limits.append(int(text))
    return limits


def physical_memory() -> int:
    """Bytes of physical memory the process may use: the machine's, or
    its cgroup's memory limit when that is lower."""
    machine = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return min([machine] + _cgroup_limits())


class NodeSymbolic:
    """Symbolic step of a node-block Cholesky factor, shared by every
    factor on the same node graph whatever its dofs per node: the nodes
    of the pairs (rows[k], cols[k]), eliminated in the node order
    `order` (order[k] is the node eliminated k-th) up to a postorder of
    the elimination tree and the amalgamation of supernodes.

    `order` is the final node order, supernode t owns the nodes
    first[t]:first[t + 1] of it, `owner` maps a node to its supernode,
    and below[t] holds the sorted nodes in the rows below supernode t;
    `n_pairs` counts the pairs given.
    """

    def __init__(self, rows, cols, order):
        order = np.asarray(order, dtype=np.int64)
        n_nodes, self.n_pairs = len(order), len(rows)
        if not np.array_equal(np.sort(order), np.arange(n_nodes)):
            raise ValueError("order must be a permutation of the nodes")
        position = np.empty(n_nodes, dtype=np.int64)
        position[order] = np.arange(n_nodes)
        r = position[np.asarray(rows, dtype=np.int64)]
        c = position[np.asarray(cols, dtype=np.int64)]
        off = r != c
        hi, lo = np.divmod(np.unique(np.maximum(r[off], c[off]) * n_nodes
                                     + np.minimum(r[off], c[off])), n_nodes)
        del r, c, off
        parent = _etree(n_nodes, lo, hi)

        # relabel by a postorder: node post[i] becomes i
        post = _postorder(parent)
        label = np.empty(n_nodes, dtype=np.int64)
        label[post] = np.arange(n_nodes)
        parent = parent[post]
        parent = np.where(parent >= 0, label[np.maximum(parent, 0)], -1)
        order = order[post]
        lo, hi = label[lo], label[hi]
        cols, rows = np.divmod(np.unique(np.minimum(lo, hi) * n_nodes
                                         + np.maximum(lo, hi)), n_nodes)
        first, below = _supernodes(parent, rows,
                                   np.searchsorted(cols, np.arange(n_nodes + 1)))
        n_sn = len(below)
        snode = np.repeat(np.arange(n_sn), np.diff(first))
        up = parent[first[1:] - 1]
        sparent = np.where(up >= 0, snode[np.maximum(up, 0)], -1)

        top = _amalgamate(np.diff(first).tolist(),
                          [len(x) for x in below], sparent.tolist())
        tops = np.flatnonzero(top == np.arange(n_sn))
        index = np.full(n_sn, -1, dtype=np.int64)
        index[tops] = np.arange(len(tops))
        up = sparent[tops]
        tparent = np.where(up >= 0, index[top[np.maximum(up, 0)]], -1)
        # postorder the merged tree; a merged supernode keeps its columns
        # in their old order, so children still come before parents
        tpost = _postorder(tparent)
        rank = np.empty(len(tops), dtype=np.int64)
        rank[tpost] = np.arange(len(tops))
        node_rank = rank[index[top[snode]]]
        final = np.lexsort((np.arange(n_nodes), node_rank))
        new = np.empty(n_nodes, dtype=np.int64)
        new[final] = np.arange(n_nodes)

        self.order = order[final]
        counts = np.bincount(node_rank, minlength=len(tops))
        self.first = np.concatenate([[0], np.cumsum(counts)])
        self.owner = np.repeat(np.arange(len(tops)), counts)
        self.below = [np.sort(new[below[t]]) for t in tops[tpost].tolist()]

    def dof_sizes(self, b):
        """(dof columns, dof rows below them) of each supernode of a
        factor with b dofs per node."""
        return (np.diff(self.first) * b,
                np.array([len(x) for x in self.below], dtype=np.int64) * b)

    def check_memory(self, *bs):
        """MemoryError when factors with bs[0], bs[1], ... dofs per node
        would together exceed physical memory: each its store, at
        ENTRY_BYTES per entry, and the float64 node blocks of its matrix,
        one per pair of the node graph, which it keeps to refine
        against."""
        size = 0
        for b in bs:
            kd, md = self.dof_sizes(b)
            size += ENTRY_BYTES * int(np.sum(kd * (kd + 1) // 2 + kd * md)) \
                + 8 * b * b * self.n_pairs
        bound = physical_memory()
        if size > bound:
            raise MemoryError(
                f"supernodal Cholesky: the factors would take "
                f"{size / 2**30:.3g} GiB, more than the {bound / 2**30:.3g} "
                f"GiB of physical memory")


class NodeCholesky:
    """Cholesky factor of the SPD matrix A whose node block (rows[k],
    cols[k]) is blocks[k] transposed (b x b), with no other nonzero
    block (the block arrays of Aᵀ, as node-pair assembly holds them),
    node-major, on the supernodes of `symbolic`, a `NodeSymbolic` of a
    node graph that holds every pair (rows[k], cols[k]).

    Only the lower triangle in the final order is read, and rounded to
    float32 as it is scattered into the store. A nonpositive pivot
    raises NotPositiveDefinite, a store beyond physical memory MemoryError
    before it is allocated. `nnz` counts the stored entries of L: the
    lower triangle of each supernode's diagonal block and its rows
    below, merge zeros included; `nbytes` is the store's size.

    Supernode t has kd[t] dof columns and md[t] dof rows below them.
    The store holds, per supernode, L11 (its lower triangle in
    rectangular full packed form, kd (kd + 1) / 2 entries) and then L21
    (md x kd, column-major), and after the last supernode one spill
    entry that takes what would land in upper triangles.

    The pairs come grouped by column node (cols nondecreasing), and
    `matrix` is A as a float64 BSR matrix over the blocks as given (not
    copied), for `solve`, which refines single-precision passes against
    it.
    """

    def __init__(self, blocks, rows, cols, symbolic: NodeSymbolic):
        b = blocks.shape[1]
        symbolic.check_memory(b)
        self.b, self.n = b, len(symbolic.order) * b
        self.order, self.first = symbolic.order, symbolic.first
        self.owner, self.below = symbolic.owner, symbolic.below
        self.kd, self.md = symbolic.dof_sizes(b)
        self.offset = np.concatenate([[0], np.cumsum(
            self.kd * (self.kd + 1) // 2 + self.kd * self.md)])
        self.nnz = int(self.offset[-1])
        starts = np.searchsorted(cols, np.arange(len(self.order) + 1))
        self.matrix = sp.bsr_matrix((blocks, rows, starts),
                                    shape=(self.n, self.n))
        # refinement corrections made so far, and the largest relative
        # error of one pass seen (NaN until a first correction is made)
        self.corrections, self.pass_error = 0, np.nan
        self._store = np.zeros(self.nnz + 1, dtype=np.float32)
        self.nbytes = self._store.nbytes
        self._scatter(blocks, rows, cols)
        self._factor()

    # -- numeric step ---------------------------------------------------

    def _scatter(self, blocks, rows, cols):
        """Put the blocks of the lower triangle in the final order into
        the store, in chunks of node pairs (SCATTER_SHARE), so that no
        index array larger than one chunk's is held beside it."""
        new = np.empty(len(self.order), dtype=np.int64)
        new[self.order] = np.arange(len(self.order))
        # (owner, row) keys of the rows below each supernode, sorted
        n_nodes, sizes = len(self.owner), [len(x) for x in self.below]
        keys = np.repeat(np.arange(len(sizes)), sizes) * n_nodes \
            + np.concatenate(self.below)
        start = np.concatenate([[0], np.cumsum(sizes)])
        chunk = max(SCATTER_MIN_PAIRS,
                    self.nnz // (SCATTER_SHARE * self.b ** 2))
        for a in range(0, len(rows), chunk):
            r, c = new[rows[a:a + chunk]], new[cols[a:a + chunk]]
            keep = np.flatnonzero(r >= c)
            self._store[self._positions(r[keep], c[keep], keys, start)] = \
                blocks[a + keep]

    def _positions(self, r, c, keys, start):
        """Store index (k, j, i) of dof (row i, column j) of node block
        (r[k], c[k]), r >= c in the final order: the owner of column c
        holds it in L11 when r is one of its columns (the spill entry
        when i < j there), else in L21, at the position of r among the
        owner's rows below, found by one search over the sorted (owner,
        row) `keys`, whose owner t starts at start[t]."""
        b, first, owner = self.b, self.first, self.owner
        kd, md, offset = self.kd, self.md, self.offset
        t = owner[c]
        in_diag = (r < first[t + 1])[:, None, None]
        q = np.searchsorted(keys, t * len(owner) + r) - start[t]
        d = np.arange(b)
        i = np.where(in_diag, b * (r - first[t])[:, None, None],
                     b * q[:, None, None]) + d
        j = b * (c - first[t])[:, None, None] + d[:, None]
        kt, o = kd[t][:, None, None], offset[t][:, None, None]
        lead, shift = _packed_columns(kt, j)
        return np.where(in_diag,
                        np.where(i >= j, o + i * lead + shift, self.nnz),
                        o + kt * (kt + 1) // 2 + i + j * md[t][:, None, None])

    def _pieces(self, rows, width):
        """Column pieces of a supernode's update: (start, end, owner end)
        node ranges of `rows` that one ancestor owns, at most `width`
        nodes each; `owner end` closes the ancestor's whole run."""
        own = self.owner[rows]
        cut = (np.flatnonzero(np.diff(own)) + 1).tolist()
        pieces = []
        for a, e in zip([0] + cut, cut + [len(rows)]):
            pieces += [(p, min(p + width, e), e) for p in range(a, e, width)]
        return pieces

    def _factor(self):
        b, first, below = self.b, self.first, self.below
        store, offset, kd, md = self._store, self.offset, self.kd, self.md
        # nodes per update product: at most UPDATE_CHUNK dof columns, and
        # a product of at most nnz / UPDATE_SHARE entries
        cap = self.nnz // (UPDATE_SHARE * b * b)
        widths = [max(1, min(UPDATE_CHUNK // b, cap // max(1, len(rows))))
                  for rows in below]
        # what of a piece's leading square lies above the target's
        # diagonal: column x, row y < x (row by row: a 2-D comparison
        # would allocate ufunc buffers larger than the mask)
        square = np.arange(b * max(widths, default=1))
        above = np.empty((len(square), len(square)), dtype=bool)
        for x, row in enumerate(above):
            np.greater(x, square, out=row)
        # per supernode, what a solve reads: its panels L11 (packed) and
        # L21 (column-major) as views of the store, its first dof column,
        # the end of its columns and the nodes below them
        self._plan = []
        for t, (rows, width) in enumerate(zip(below, widths)):
            o, k, m = int(offset[t]), int(kd[t]), int(md[t])
            h = k * (k + 1) // 2
            L11 = store[o:o + h]
            L21 = store[o + h:o + h + k * m].reshape(m, k, order="F")
            _, info = spftrf(k, L11, uplo="L", overwrite_a=1)
            if info != 0:
                raise NotPositiveDefinite(
                    f"supernodal Cholesky: pivot {info} of supernode {t} is "
                    f"not positive")
            lo = b * int(first[t])
            self._plan.append((L11, L21, lo, lo + k, rows))
            if not len(rows):
                continue
            stfsm(1.0, L11, L21, side="R", uplo="L", trans="T", overwrite_b=1)
            pieces = self._pieces(rows, width)
            i = 0
            while i < len(pieces):
                # one product for consecutive pieces up to the chunk width:
                # C[x, y] is the update's entry in column b * j0 + x and
                # row b * j0 + y of the rows below t
                j0 = pieces[i][0]
                i1 = i + 1
                while i1 < len(pieces) and pieces[i1][1] - j0 <= width:
                    i1 += 1
                C = L21[b * j0:b * pieces[i1 - 1][1]] @ L21[b * j0:].T
                for p, e, end in pieces[i:i1]:
                    x = b * (p - j0)
                    self._subtract(C[x:x + b * (e - p), x:], rows[p:],
                                   e - p, end - p, above)
                del C                 # before the next product is made
                i = i1

    def _subtract(self, C, rows, n_cols, n_diag, above):
        """Subtract one piece of a supernode's update from the ancestor u
        that owns the nodes rows[:n_cols]: C[x, y] is the entry in the
        piece's dof column x and dof row y of rows. rows[:n_diag] land
        in u's L11, the rest in its L21, column by column of u; the
        piece's columns are the first rows of its L11 part, so what falls
        above the diagonal is in C's leading square, and goes to the
        spill entry."""
        b, d = self.b, np.arange(self.b)
        u = int(self.owner[rows[0]])
        ku, mu, o = int(self.kd[u]), int(self.md[u]), int(self.offset[u])
        top = int(self.first[u])
        cols = (b * (rows[:n_cols] - top)[:, None] + d).ravel()
        diag = (b * (rows[:n_diag] - top)[:, None] + d).ravel()
        nc, nd = len(cols), len(diag)
        # entry (i, j) of u's packed L11 sits at o + i * lead[j] + shift[j]
        lead, shift = _packed_columns(ku, cols)
        index = np.multiply.outer(lead, diag)
        index += (o + shift)[:, None]
        np.copyto(index[:, :nc], self.nnz, where=above[:nc, :nc])
        # ufunc.at takes its fast path on flat contiguous operands
        np.subtract.at(self._store, index.ravel(),
                       np.ascontiguousarray(C[:, :nd]).ravel())
        del index
        pos = np.searchsorted(self.below[u], rows[n_diag:])
        index = np.add.outer(o + ku * (ku + 1) // 2 + cols * mu,
                             (b * pos[:, None] + d).ravel())
        np.subtract.at(self._store, index.ravel(),
                       np.ascontiguousarray(C[:, nd:]).ravel())

    # -- solve ----------------------------------------------------------

    def _pass(self, rhs):
        """One single-precision pass of A x = rhs, for the columns of a
        matrix (n, m); x is float64, accurate to about κ(A) times the
        float32 unit round-off."""
        b, m = self.b, rhs.shape[1]
        by_node = rhs.reshape(-1, b, m)
        nodes = np.ascontiguousarray(by_node[self.order], dtype=np.float32)
        # L y = rhs, then L^T x = y; x is a view of `nodes` by dof rows,
        # and x[lo:hi] is C-contiguous, so its transpose is a column-major
        # right-hand side
        x = nodes.reshape(self.n, m)
        for L11, L21, lo, hi, rows in self._plan:
            xs = x[lo:hi]
            stfsm(1.0, L11, xs.T, side="R", uplo="L", trans="T", overwrite_b=1)
            if len(rows):
                nodes[rows] -= (L21 @ xs).reshape(-1, b, m)
        for L11, L21, lo, hi, rows in reversed(self._plan):
            xs = x[lo:hi]
            if len(rows):
                xs -= L21.T @ nodes[rows].reshape(-1, m)
            stfsm(1.0, L11, xs.T, side="R", uplo="L", trans="N", overwrite_b=1)
        out = np.empty(by_node.shape)
        out[self.order] = nodes
        return out.reshape(rhs.shape)

    def solve(self, rhs, bound=0.0):
        """Solution of A x = rhs for a vector or the columns of a matrix:
        single-precision passes refined in float64 against `matrix`
        (Wilkinson's iterative refinement; Carson & Higham, SISC 40 (2018)
        A817), x = pass(rhs), then x += pass(r) with r = rhs - A x.

        A column is done when its residual's A⁻¹-norm √(rᵀ A⁻¹ r) is at most
        `bound` (a scalar or one per column), read as rᵀ dx from the next
        correction dx, which is applied. The refinement also stops at the
        first correction that fails to lower the worst column residual
        |r| / |rhs| by the factor REFINE_FALL, which is kept if it
        lowered it at all. So an infinite bound takes one pass, and a
        zero bound refines to round-off. The first pass alone also
        serves when the largest error of one pass seen so far (relative
        to √(rhsᵀ x) in the A⁻¹-norm, at a first correction),
        `pass_error`, times PASS_MARGIN meets the bound in every
        column. `corrections` counts the corrections applied."""
        shape = np.shape(rhs)
        rhs = np.asarray(rhs, dtype=float).reshape(self.n, -1)
        bound = np.broadcast_to(np.asarray(bound, dtype=float), rhs.shape[1:])
        x = self._pass(rhs)
        energy = np.einsum("ij,ij->j", rhs, x)
        expected = PASS_MARGIN * self.pass_error \
            * np.sqrt(np.maximum(energy, 0.0))
        if np.isinf(bound).all() or (expected <= bound).all():
            return x.reshape(shape)
        r = rhs - self.matrix @ x
        now, made = worst_residual(r, rhs), 0
        while now > 0.0:
            dx = self._pass(r)
            size = np.einsum("ij,ij->j", r, dx)
            if not made:
                live = energy > 0.0
                self.pass_error = float(np.fmax(self.pass_error, np.sqrt(
                    np.max(size[live] / energy[live], initial=0.0))))
            dx += x
            if (size <= bound ** 2).all():
                x, made = dx, made + 1
                break
            r_next = rhs - self.matrix @ dx
            after = worst_residual(r_next, rhs)
            if not after < now:
                break
            x, r, made = dx, r_next, made + 1
            if not after <= REFINE_FALL * now:
                break
            now = after
        self.corrections += made
        return x.reshape(shape)


def worst_residual(r, rhs) -> float:
    """Largest column residual |r| / |rhs| over the columns with a
    nonzero rhs (NaN if any is)."""
    denom = np.linalg.norm(rhs, axis=0)
    live = denom > 0.0
    return float(np.max(np.linalg.norm(r, axis=0)[live] / denom[live],
                        initial=0.0))
