"""Supernodal Cholesky factorization over node blocks.

A symmetric positive definite matrix whose dofs come in blocks of `b`
per node (node-major) is factored as P A Pᵀ = L Lᵀ. The symbolic step
works on the node graph only: elimination tree, postorder, column
structures, fundamental supernodes and their relaxed amalgamation (Liu,
SIAM Rev. 34 (1992) 82; Ashcraft & Grimes, ACM TOMS 15 (1989) 291). The
numeric step is right-looking: each supernode is factored in place by
LAPACK, and its update is formed by matrix products in column chunks
and subtracted straight from the blocks of the ancestors that own those
columns, so there is no update stack and no scratch larger than one
chunk.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf

__all__ = ["NodeCholesky"]

# A child supernode merges into its parent when the merged supernode has
# at most AMALGAMATE_NODES nodes or at most AMALGAMATE_ZEROS of its
# node-block entries are zeros (docs/fem.md).
AMALGAMATE_NODES = 4
AMALGAMATE_ZEROS = 0.10
# dof columns of one update product
UPDATE_CHUNK = 192


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


class NodeCholesky:
    """Cholesky factor of an SPD sparse matrix `A` with n_nodes * b dofs,
    node-major, eliminated in the node order `order` (order[k] is the
    node eliminated k-th) up to a postorder of its elimination tree and
    the amalgamation of supernodes.

    Only the lower triangle in the final order is read. A nonpositive
    pivot raises RuntimeError. `nnz` counts the stored entries of L: the
    lower triangle of each supernode's diagonal block and its rows
    below, merge zeros included.

    Supernode t has kd[t] dof columns and md[t] dof rows below them.
    The store holds, per supernode, L11 (kd x kd, column-major, its
    upper triangle unused) and then L21ᵀ (kd x md, row-major, which is
    L21 column-major).
    """

    def __init__(self, A, b: int, order):
        n = A.shape[0]
        if n % b or A.shape != (n, n):
            raise ValueError(f"matrix {A.shape} is not square in blocks of {b}")
        # node blocks of A^T read from A's CSC arrays: block (J, I) holds
        # A's block (I, J) transposed
        A = A.tocsc()
        M = sp.csr_matrix((A.data, A.indices, A.indptr),
                          shape=(n, n)).tobsr((b, b))
        col = np.repeat(np.arange(n // b), np.diff(M.indptr))
        self._setup(M.data, M.indices.astype(np.int64), col, n // b, order)

    @classmethod
    def of_blocks(cls, blocks, rows, cols, order):
        """Factor of the matrix A whose node block (rows[k], cols[k]) is
        blocks[k] transposed (b x b), with no other nonzero block: the
        block arrays of Aᵀ, as node-pair assembly holds them."""
        self = cls.__new__(cls)
        self._setup(blocks, np.asarray(rows, dtype=np.int64),
                    np.asarray(cols, dtype=np.int64), len(order), order)
        return self

    def _setup(self, blocks, row, col, n_nodes, order):
        """Symbolic step, store and numeric factor of the node blocks
        (blocks[k] is A's block (row[k], col[k]) transposed)."""
        b = blocks.shape[1]
        order = np.asarray(order, dtype=np.int64)
        if not np.array_equal(np.sort(order), np.arange(n_nodes)):
            raise ValueError("order must be a permutation of the nodes")
        self.b, self.n = b, n_nodes * b
        self._symbolic(order, row, col)
        # keep the blocks of the lower triangle in the final order only;
        # this step's other arrays are freed before the store is allocated
        new = np.empty(n_nodes, dtype=np.int64)
        new[self.order] = np.arange(n_nodes)
        row, col = new[row], new[col]
        keep = np.flatnonzero(row >= col)
        index = self._positions(row[keep], col[keep])
        blocks = blocks[keep]
        del row, col, keep
        self._store = np.zeros(int(self.offset[-1]))
        self._store[index] = blocks
        del index, blocks
        self._factor()

    # -- symbolic step --------------------------------------------------

    def _symbolic(self, order, row, col):
        """Final node order, supernode partition and row structures, all
        from the node pattern."""
        n_nodes = len(order)
        position = np.empty(n_nodes, dtype=np.int64)
        position[order] = np.arange(n_nodes)
        r, c = position[row], position[col]
        off = r != c
        hi, lo = np.divmod(np.unique(np.maximum(r[off], c[off]) * n_nodes
                                     + np.minimum(r[off], c[off])), n_nodes)
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
        self._dofs = (self.b * self.order[:, None] + np.arange(self.b)).ravel()
        counts = np.bincount(node_rank, minlength=len(tops))
        self.first = np.concatenate([[0], np.cumsum(counts)])
        self.owner = np.repeat(np.arange(len(tops)), counts)
        self.below = [np.sort(new[below[t]]) for t in tops[tpost].tolist()]
        b = self.b
        self.kd = np.diff(self.first) * b
        self.md = np.array([len(x) for x in self.below], dtype=np.int64) * b
        self.offset = np.concatenate(
            [[0], np.cumsum(self.kd * self.kd + self.kd * self.md)])
        self.nnz = int(np.sum(self.kd * (self.kd + 1) // 2
                              + self.kd * self.md))

    # -- numeric step ---------------------------------------------------

    def _positions(self, r, c):
        """Store index (k, j, i) of dof (row i, column j) of node block
        (r[k], c[k]), r >= c in the final order: the owner of column c
        holds it in L11 when r is one of its columns, else in L21."""
        b, first, owner, below = self.b, self.first, self.owner, self.below
        kd, md, offset = self.kd, self.md, self.offset
        t = owner[c]
        in_diag = r < first[t + 1]
        # position of each row below its owner's columns in that owner's
        # rows, by one search over (owner, row) keys
        n_nodes = len(owner)
        sizes = [len(x) for x in below]
        keys = np.repeat(np.arange(len(below)), sizes) * n_nodes \
            + np.concatenate(below)
        start = np.concatenate([[0], np.cumsum(sizes)])
        q = np.searchsorted(keys, t * n_nodes + r) - start[t]
        base = np.where(in_diag, offset[t] + b * (r - first[t]),
                        offset[t] + kd[t] * kd[t] + b * q)
        lead = np.where(in_diag, kd[t], md[t])
        d = np.arange(b)
        return (base[:, None, None] + d
                + (b * (c - first[t])[:, None, None] + d[:, None])
                * lead[:, None, None])

    def _panels(self, t):
        """(L11, L21) of supernode t as column-major views of the store."""
        o, k, m = int(self.offset[t]), int(self.kd[t]), int(self.md[t])
        L11 = self._store[o:o + k * k].reshape(k, k, order="F")
        L21 = self._store[o + k * k:o + k * (k + m)].reshape(m, k, order="F")
        return L11, L21

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
        b, first, owner, below = self.b, self.first, self.owner, self.below
        store, offset, kd, md = self._store, self.offset, self.kd, self.md
        d = np.arange(b)
        width = max(1, UPDATE_CHUNK // b)
        self._rows = []                  # dof rows below each supernode
        for t, rows in enumerate(below):
            L11, L21 = self._panels(t)
            _, info = dpotrf(L11, lower=1, overwrite_a=1, clean=0)
            if info != 0:
                raise RuntimeError(f"supernodal Cholesky: pivot {info} of "
                                   f"supernode {t} is not positive")
            self._rows.append((b * rows[:, None] + d).ravel())
            if not len(rows):
                continue
            dtrsm(1.0, L11, L21, side=1, lower=1, trans_a=1, overwrite_b=1)
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
                    u = int(owner[rows[p]])
                    ku, mu, o = int(kd[u]), int(md[u]), int(offset[u])
                    cols = (b * (rows[p:e] - first[u])[:, None] + d).ravel()
                    # rows[p:end] land in the owner's L11, the rest in its
                    # L21, column by column of the owner
                    diag = (b * (rows[p:end] - first[u])[:, None] + d).ravel()
                    pos = np.searchsorted(below[u], rows[end:])
                    off = ku * ku + (b * pos[:, None] + d).ravel()
                    flat = np.empty((len(cols), len(diag) + len(off)),
                                    dtype=np.intp)
                    np.add(diag, (o + cols * ku)[:, None],
                           out=flat[:, :len(diag)])
                    np.add(off, (o + cols * mu)[:, None],
                           out=flat[:, len(diag):])
                    x = b * (p - j0)
                    np.subtract.at(store, flat.ravel(), np.ascontiguousarray(
                        C[x:x + len(cols), x:]).ravel())
                i = i1

    # -- solve ----------------------------------------------------------

    def solve(self, rhs):
        """Solution of A x = rhs for a vector or the columns of a matrix."""
        rhs = np.asarray(rhs, dtype=float)
        x = np.ascontiguousarray(rhs.reshape(self.n, -1)[self._dofs])
        first = self.first * self.b
        n_sn = len(self.below)
        # L y = rhs, then L^T x = y; x[first[t]:first[t + 1]] is
        # C-contiguous, so its transpose is a column-major right-hand side
        for t in range(n_sn):
            L11, L21 = self._panels(t)
            xs = x[first[t]:first[t + 1]]
            dtrsm(1.0, L11, xs.T, side=1, lower=1, trans_a=1, overwrite_b=1)
            if len(L21):
                x[self._rows[t]] -= L21 @ xs
        for t in reversed(range(n_sn)):
            L11, L21 = self._panels(t)
            xs = x[first[t]:first[t + 1]]
            if len(L21):
                xs -= L21.T @ x[self._rows[t]]
            dtrsm(1.0, L11, xs.T, side=1, lower=1, trans_a=0, overwrite_b=1)
        out = np.empty_like(x)
        out[self._dofs] = x
        return out.reshape(rhs.shape)
