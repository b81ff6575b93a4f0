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
update stack and no scratch larger than one chunk.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.linalg.lapack import dpftrf, dtfsm

__all__ = ["NodeCholesky", "NodeSymbolic", "physical_memory"]

# A child supernode merges into its parent when the merged supernode has
# at most AMALGAMATE_NODES nodes or at most AMALGAMATE_ZEROS of its
# node-block entries are zeros (docs/fem.md).
AMALGAMATE_NODES = 16
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


def physical_memory() -> int:
    """Bytes of physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class NodeSymbolic:
    """Symbolic step of a node-block Cholesky factor, shared by every
    factor on the same node graph whatever its dofs per node: the nodes
    of the pairs (rows[k], cols[k]), eliminated in the node order
    `order` (order[k] is the node eliminated k-th) up to a postorder of
    the elimination tree and the amalgamation of supernodes.

    `order` is the final node order, supernode t owns the nodes
    first[t]:first[t + 1] of it, `owner` maps a node to its supernode,
    and below[t] holds the sorted nodes in the rows below supernode t.
    """

    def __init__(self, rows, cols, order):
        order = np.asarray(order, dtype=np.int64)
        n_nodes = len(order)
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
        """MemoryError when the stores of factors with bs[0], bs[1], ...
        dofs per node would together exceed physical memory."""
        size = 0
        for b in bs:
            kd, md = self.dof_sizes(b)
            size += 8 * int(np.sum(kd * (kd + 1) // 2 + kd * md))
        bound = physical_memory()
        if size > bound:
            raise MemoryError(
                f"supernodal Cholesky: the factor stores would take "
                f"{size / 2**30:.3g} GiB, more than the {bound / 2**30:.3g} "
                f"GiB of physical memory")


class NodeCholesky:
    """Cholesky factor of the SPD matrix A whose node block (rows[k],
    cols[k]) is blocks[k] transposed (b x b), with no other nonzero
    block (the block arrays of Aᵀ, as node-pair assembly holds them),
    node-major, on the supernodes of `symbolic`, a `NodeSymbolic` of a
    node graph that holds every pair (rows[k], cols[k]).

    Only the lower triangle in the final order is read. A nonpositive
    pivot raises RuntimeError, a store beyond physical memory
    MemoryError before it is allocated. `nnz` counts the stored entries
    of L: the lower triangle of each supernode's diagonal block and its
    rows below, merge zeros included.

    Supernode t has kd[t] dof columns and md[t] dof rows below them.
    The store holds, per supernode, L11 (its lower triangle in
    rectangular full packed form, kd (kd + 1) / 2 entries) and then L21
    (md x kd, column-major), and after the last supernode one spill
    entry that takes what would land in upper triangles.
    """

    def __init__(self, blocks, rows, cols, symbolic: NodeSymbolic):
        b = blocks.shape[1]
        symbolic.check_memory(b)
        self.b, self.n = b, len(symbolic.order) * b
        self.order, self.first = symbolic.order, symbolic.first
        self.owner, self.below = symbolic.owner, symbolic.below
        self._dofs = (b * self.order[:, None] + np.arange(b)).ravel()
        self.kd, self.md = symbolic.dof_sizes(b)
        self.offset = np.concatenate([[0], np.cumsum(
            self.kd * (self.kd + 1) // 2 + self.kd * self.md)])
        self.nnz = int(self.offset[-1])
        # keep the blocks of the lower triangle in the final order only;
        # this step's other arrays are freed before the store is allocated
        new = np.empty(len(self.order), dtype=np.int64)
        new[self.order] = np.arange(len(self.order))
        row = new[np.asarray(rows, dtype=np.int64)]
        col = new[np.asarray(cols, dtype=np.int64)]
        keep = np.flatnonzero(row >= col)
        index = self._positions(row[keep], col[keep])
        blocks = blocks[keep]
        del row, col, keep, new
        self._store = np.zeros(self.nnz + 1)
        self._store[index] = blocks
        del index, blocks
        self._factor()

    # -- numeric step ---------------------------------------------------

    def _positions(self, r, c):
        """Store index (k, j, i) of dof (row i, column j) of node block
        (r[k], c[k]), r >= c in the final order: the owner of column c
        holds it in L11 when r is one of its columns (the spill entry
        when i < j there), else in L21."""
        b, first, owner, below = self.b, self.first, self.owner, self.below
        kd, md, offset = self.kd, self.md, self.offset
        t = owner[c]
        in_diag = (r < first[t + 1])[:, None, None]
        # position of each row below its owner's columns in that owner's
        # rows, by one search over (owner, row) keys
        n_nodes = len(owner)
        sizes = [len(x) for x in below]
        keys = np.repeat(np.arange(len(below)), sizes) * n_nodes \
            + np.concatenate(below)
        start = np.concatenate([[0], np.cumsum(sizes)])
        q = np.searchsorted(keys, t * n_nodes + r) - start[t]
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
        b, first, owner, below = self.b, self.first, self.owner, self.below
        store, offset, kd, md = self._store, self.offset, self.kd, self.md
        d = np.arange(b)
        width = max(1, UPDATE_CHUNK // b)
        # per dof column: its packed entry in row i of its owner's L11
        # sits i * lead + shift after the owner's offset
        lead, shift = _packed_columns(np.repeat(kd, kd), np.arange(self.n)
                                      - np.repeat(b * first[:-1], kd))
        # what of a piece's leading square lies above the target's
        # diagonal: column x, row y < x
        above = np.greater.outer(np.arange(b * width), np.arange(b * width))
        # per supernode, what a solve reads: its panels L11 (packed) and
        # L21 (column-major) as views of the store, its first dof column,
        # the end of its columns and the dof rows below them
        self._plan = []
        for t, rows in enumerate(below):
            o, k, m = int(offset[t]), int(kd[t]), int(md[t])
            h = k * (k + 1) // 2
            L11 = store[o:o + h]
            L21 = store[o + h:o + h + k * m].reshape(m, k, order="F")
            _, info = dpftrf(k, L11, uplo="L", overwrite_a=1)
            if info != 0:
                raise RuntimeError(f"supernodal Cholesky: pivot {info} of "
                                   f"supernode {t} is not positive")
            lo = b * int(first[t])
            self._plan.append((L11, L21, lo, lo + k,
                               (b * rows[:, None] + d).ravel()))
            if not len(rows):
                continue
            dtfsm(1.0, L11, L21, side="R", uplo="L", trans="T", overwrite_b=1)
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
                    dofs = (b * rows[p:e, None] + d).ravel()
                    cols = dofs - b * int(first[u])
                    # rows[p:end] land in the owner's L11, the rest in its
                    # L21, column by column of the owner; cols are the
                    # first rows of diag, so what falls above the
                    # diagonal is in the leading square, and goes to the
                    # spill entry
                    diag = (b * (rows[p:end] - first[u])[:, None] + d).ravel()
                    pos = np.searchsorted(below[u], rows[end:])
                    off = ku * (ku + 1) // 2 + (b * pos[:, None] + d).ravel()
                    flat = np.empty((len(cols), len(diag) + len(off)),
                                    dtype=np.intp)
                    packed = flat[:, :len(diag)]
                    np.multiply(diag, lead[dofs, None], out=packed)
                    packed += o + shift[dofs, None]
                    nc = len(cols)
                    packed[:, :nc][above[:nc, :nc]] = self.nnz
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
        # L y = rhs, then L^T x = y; x[lo:hi] is C-contiguous, so its
        # transpose is a column-major right-hand side
        for L11, L21, lo, hi, rows in self._plan:
            xs = x[lo:hi]
            dtfsm(1.0, L11, xs.T, side="R", uplo="L", trans="T", overwrite_b=1)
            if len(rows):
                x[rows] -= L21 @ xs
        for L11, L21, lo, hi, rows in reversed(self._plan):
            xs = x[lo:hi]
            if len(rows):
                xs -= L21.T @ x[rows]
            dtfsm(1.0, L11, xs.T, side="R", uplo="L", trans="N", overwrite_b=1)
        out = np.empty_like(x)
        out[self._dofs] = x
        return out.reshape(rhs.shape)
