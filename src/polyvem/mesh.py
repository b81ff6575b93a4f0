"""Polyhedral RVE meshes on a cube.

Provides Voronoi generation by half-space clipping, watertight polyhedral
cell storage, face geometry, minimal tetrahedralization of convex cells,
red refinement of tetrahedral submeshes, and two text formats (a native
versioned format and a tessellation-file subset). A finished mesh is
immutable by convention and safe to share across threads for queries.

Tolerances are relative to the cube edge length L:
    TAU_MERGE = 1e-9 * L   vertex deduplication (max-norm)
    TAU_PLANE = 1e-8 * L   face planarity
    TAU_BOX   = 1e-9 * L   boundary-node detection
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

TAU_MERGE = 1e-9
TAU_PLANE = 1e-8
TAU_BOX = 1e-9
EPS_VOL = 1e-12
# the face geometry forms L**4 (norms of L**2-sized cross products); these
# bounds keep it a normal finite float, 68 decades inside the limits
EDGE_LENGTH_RULE = "positive with a finite cube, in [1e-60, 1e60]"


def valid_edge_length(L: float) -> bool:
    """True for a cube edge length that EDGE_LENGTH_RULE admits."""
    return bool(1e-60 <= L <= 1e60)


class MeshError(Exception):
    """Invalid geometry or topology; `cell` is the index of the cell at
    fault, when there is one, and `detail` the message without it."""

    def __init__(self, detail: str, cell: int | None = None):
        super().__init__(detail if cell is None else f"cell {cell}: {detail}")
        self.detail, self.cell = detail, cell


class MeshParseError(MeshError):
    """Malformed mesh file."""


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------

@dataclass
class SeedSet:
    """Voronoi seed points, all strictly inside the cube."""

    seeds: np.ndarray              # (n, 3)

    def __post_init__(self):
        self.seeds = np.atleast_2d(np.asarray(self.seeds, dtype=float))
        if self.seeds.shape[1] != 3:
            raise MeshError("seeds must be (n, 3)")
        if not np.all(np.isfinite(self.seeds)):
            raise MeshError("non-finite seed coordinates")


def random_seeds(n: int, L: float, rng_seed: int) -> SeedSet:
    """n uniform seeds in (0, L)^3, reproducible from rng_seed."""
    rng = np.random.default_rng(rng_seed)
    pts = rng.uniform(0.0, L, size=(n, 3))
    return SeedSet(pts)


@dataclass
class PolyCell:
    """One polyhedral grain: oriented face loops over global vertex ids."""

    vertex_ids: np.ndarray                 # unique ids used by this cell
    faces: list                            # list of (k,) int arrays, outward CCW loops
    material_id: int = 0
    volume: float = 0.0


@dataclass
class PolyMesh:
    """Watertight polyhedral cell complex filling the cube [0, L]^3."""

    vertices: np.ndarray                   # (n, 3)
    cells: list                            # list[PolyCell]
    edge_length: float
    _faces: FaceTable | None = field(default=None, repr=False)
    _fans: FaceFans | None = field(default=None, repr=False)
    _tets: TetMesh | None = field(default=None, repr=False)
    _digest: str | None = field(default=None, repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def boundary_node_ids(self) -> np.ndarray:
        """Ids of nodes with any coordinate within TAU_BOX*L of 0 or L."""
        return np.nonzero(box_sides(self.vertices, self.edge_length).any(axis=1))[0]

    @property
    def faces(self) -> FaceTable:
        """The unique faces of the cells (built after orientation when the
        mesh is finalized, else on first use)."""
        if self._faces is None:
            self._faces = face_table(self)
        return self._faces

    @property
    def fans(self) -> FaceFans:
        """The triangles of every unique face (built on first use)."""
        if self._fans is None:
            self._fans = face_fans(self)
        return self._fans

    @property
    def tets(self) -> TetMesh:
        """The coarse tet mesh: the union of one `triangulate_cell` per
        cell, in cell order (built on first use)."""
        if self._tets is None:
            self._tets = union_submeshes(
                self, [triangulate_cell(self, c) for c in range(len(self.cells))])
        return self._tets


@dataclass(frozen=True)
class FaceTable:
    """The unique faces of a polyhedral mesh, as flat arrays.

    Faces are keyed by their vertex-id set, numbered in order of first
    appearance over cells, then faces, and stored in their first owner's
    winding: face f is loops[offsets[f]:offsets[f + 1]], with one
    face-integral weight per loop entry. Cell c refers to its faces, in
    cell.faces order, through cell_faces[cell_offsets[c]:cell_offsets[c + 1]];
    its sign is +1 where the cell winds the face as stored, -1 where it
    reverses it, so the cell's outward normal is sign * normal.
    """

    loops: np.ndarray                      # (n_entries,) vertex ids
    offsets: np.ndarray                    # (n_faces + 1,)
    area: np.ndarray                       # (n_faces,)
    normal: np.ndarray                     # (n_faces, 3) unit, stored winding
    centroid: np.ndarray                   # (n_faces, 3) area centroid
    weights: np.ndarray                    # (n_entries,)
    owners: np.ndarray                     # (n_faces, 2) cell ids, -1 if none
    on_box: np.ndarray                     # (n_faces,) all vertices on one box side
    cell_offsets: np.ndarray               # (n_cells + 1,)
    cell_faces: np.ndarray                 # (n_refs,) face id
    cell_signs: np.ndarray                 # (n_refs,) +1 or -1
    entry_face: np.ndarray                 # (n_entries,) face of each entry
    successor: np.ndarray                  # (n_entries,) next entry on its loop

    def of_cell(self, cell_id: int):
        """(face ids, signs) of one cell's faces, in cell.faces order."""
        span = slice(self.cell_offsets[cell_id], self.cell_offsets[cell_id + 1])
        return self.cell_faces[span], self.cell_signs[span]


@dataclass(frozen=True)
class FaceFans:
    """One triangulation per unique face of a mesh: face f's triangles
    are tris[offsets[f]:offsets[f + 1]], wound like its loop in the face
    table; lowest[f] is its lowest vertex id."""

    tris: np.ndarray                       # (n_tris, 3) vertex ids
    offsets: np.ndarray                    # (n_faces + 1,)
    lowest: np.ndarray                     # (n_faces,)


@dataclass
class TetSubmesh:
    """Tetrahedralization of one cell.

    Tet vertex ids < n_mesh refer to mesh vertices; ids >= n_mesh index
    into extra_vertices (interior points added by the non-convex fallback),
    offset by n_mesh.
    """

    cell_id: int
    tets: np.ndarray                       # (m, 4) int
    volumes: np.ndarray                    # (m,)
    n_mesh: int                            # vertex count of the owning mesh
    extra_vertices: np.ndarray             # (k, 3)
    fallback: bool = False


@dataclass
class TetMesh:
    """Conforming tetrahedral mesh (union of cell submeshes, or refined)."""

    vertices: np.ndarray                   # (n, 3)
    tets: np.ndarray                       # (m, 4), or (m, 10) if quadratic
    cell_of_tet: np.ndarray                # (m,) owning polyhedral cell id
    edge_length: float

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def boundary_node_ids(self) -> np.ndarray:
        return np.nonzero(box_sides(self.vertices, self.edge_length).any(axis=1))[0]


# ---------------------------------------------------------------------------
# Box test and face geometry
# ---------------------------------------------------------------------------

def box_sides(points, edge_length: float) -> np.ndarray:
    """(n, 6) flags: column a marks points within TAU_BOX*L of the plane
    x_a = 0, column 3 + a those within TAU_BOX*L of x_a = L."""
    p = np.asarray(points, dtype=float)
    tol = TAU_BOX * edge_length
    return np.hstack([np.abs(p) <= tol, np.abs(p - edge_length) <= tol])


def _flat_loops(cells):
    """(ids, sizes, n_faces): the cells' face loops end to end, in cell
    then face order, with each loop's length and each cell's loop
    count."""
    loops = [lp for cell in cells for lp in cell.faces]
    ids = (np.concatenate(loops).astype(int, copy=False) if loops
           else np.zeros(0, dtype=int))
    return (ids, np.array([len(lp) for lp in loops], dtype=int),
            np.array([len(cell.faces) for cell in cells], dtype=int))


def _distinct(keys):
    """The distinct values of non-negative integer keys, sorted, by one
    sort (faster here than np.unique)."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def face_table(mesh: PolyMesh) -> FaceTable:
    """Unique faces of the mesh's cells with their geometry.

    A face is keyed by its distinct vertex ids, sorted and padded into
    one row per cell face; one stable sort of the rows numbers the keys
    in order of first appearance (docs/fem.md, "After clipping").
    Area, normal and centroid come from a fan from the vertex mean, exact
    for planar polygons of any (mild) non-convexity. A face's weights w
    make sum_i w[i] s[loop[i]] the exact integral of the first-order face
    reconstruction of vertex data s: area * (vertex mean + tangential
    gradient . (centroid - vertex mean position)), the gradient from edge
    trapezoids; they do not depend on the winding.
    """
    ids, ref_size, n_faces = _flat_loops(mesh.cells)
    ref_cell = np.repeat(np.arange(len(n_faces)), n_faces)
    short = np.flatnonzero(ref_size < 3)
    if short.size:
        raise MeshError(f"face with {ref_size[short[0]]} vertices",
                        int(ref_cell[short[0]]))
    n_refs = len(ref_size)
    ref_start = np.cumsum(ref_size) - ref_size
    entry_ref = np.repeat(np.arange(n_refs), ref_size)
    nv = int(ids.max(initial=0)) + 1
    key = _distinct(entry_ref * nv + ids)
    ref = key // nv
    width = np.bincount(ref, minlength=n_refs)
    rows = np.full((n_refs, max(width.max(initial=0), 1)), -1)
    rows[ref, np.arange(len(key)) - (np.cumsum(width) - width)[ref]] = key % nv
    order = np.lexsort(rows.T[::-1])
    head = np.ones(n_refs, dtype=bool)
    head[1:] = (rows[order[1:]] != rows[order[:-1]]).any(axis=1)
    first = order[head]                    # each key's first cell face
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    refs = np.empty(n_refs, dtype=int)
    refs[order] = rank[np.cumsum(head) - 1]
    first = np.sort(first)

    # owners: the cells of a face's first two references
    n_own = np.bincount(refs, minlength=len(first))
    later = np.argsort(refs, kind="stable")[
        np.minimum(np.cumsum(n_own) - n_own + 1, n_refs - 1)]
    owners = np.column_stack(
        [ref_cell[first], np.where(n_own > 1, ref_cell[later], -1)])
    sizes = ref_size[first]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    starts = offsets[:-1]
    loops = ids[np.repeat(ref_start[first] - starts, sizes)
                + np.arange(offsets[-1])]
    # a reference keeps the stored winding where the id after its first
    # copy of the stored loop's first id is the stored loop's second
    local = np.arange(len(ids)) - ref_start[entry_ref]
    pos = np.minimum.reduceat(
        np.where(ids == loops[starts[refs[entry_ref]]], local, len(ids)),
        ref_start)
    signs = np.where(ids[ref_start + (pos + 1) % ref_size]
                     == loops[starts[refs] + 1], 1, -1)
    face = np.repeat(np.arange(len(sizes)), sizes)
    nxt = np.arange(1, len(loops) + 1)
    nxt[offsets[1:] - 1] = starts

    pts = mesh.vertices[loops]
    c0 = np.add.reduceat(pts, starts) / sizes[:, None]
    cross = np.cross(pts - c0[face], pts[nxt] - c0[face])   # 2 * fan areas
    area_vec = 0.5 * np.add.reduceat(cross, starts)
    area = np.linalg.norm(area_vec, axis=1)
    if np.any(area <= 0.0):
        raise MeshError("zero-area face (collinear loop)",
                        int(owners[np.argmin(area), 0]))
    normal = area_vec / area[:, None]
    tri_area = 0.5 * np.einsum("ij,ij->i", cross, normal[face])     # signed
    tri_cent = (pts + pts[nxt] + c0[face]) / 3.0
    centroid = (np.add.reduceat(tri_area[:, None] * tri_cent, starts)
                / np.add.reduceat(tri_area, starts)[:, None])
    # edge i -> nxt[i] adds half its length times the in-plane outward
    # normal . (centroid - vertex mean) to both ends
    half = 0.5 * np.einsum("ij,ij->i", pts[nxt] - pts,
                           np.cross(normal, centroid - c0)[face])
    weights = (area / sizes)[face] + half
    weights[nxt] += half

    on_box = np.logical_and.reduceat(
        box_sides(pts, mesh.edge_length), starts).any(axis=1)
    return FaceTable(loops, offsets, area, normal, centroid, weights,
                     owners, on_box, np.concatenate([[0], np.cumsum(n_faces)]),
                     refs, signs, face, nxt)


def _volume_moments(vertices, ids, sizes, n_faces):
    """(volumes, first moments) of cells given as flat loops
    (`_flat_loops`).

    Sums signed tets against the origin over each loop's fan from its
    first vertex, all tets in one pass. Each cell's sums run tet by tet
    in face order from 0.0, so a cell's numbers do not depend on the
    cells batched with it.
    """
    n_tri = np.maximum(sizes - 2, 0)
    first = np.repeat(np.cumsum(sizes) - sizes, n_tri)
    second = (first + 1 + np.arange(n_tri.sum())
              - np.repeat(np.cumsum(n_tri) - n_tri, n_tri))
    p0, p1, p2 = (vertices[ids[i]] for i in (first, second, second + 1))
    # stacked matmul reproduces np.dot's bits; einsum does not
    v = (p0[:, None, :] @ np.cross(p1, p2)[:, :, None])[:, 0, 0] / 6.0
    m = v[:, None] * (p0 + p1 + p2) / 4.0
    # one row per cell: 0.0, its tets in face order, then zero padding
    n_cells = len(n_faces)
    row = np.repeat(np.repeat(np.arange(n_cells), n_faces), n_tri)
    per_cell = np.bincount(row, minlength=n_cells)
    col = 1 + np.arange(len(row)) - (np.cumsum(per_cell) - per_cell)[row]
    vol = np.zeros((n_cells, per_cell.max(initial=0) + 1))
    mom = np.zeros(vol.shape + (3,))
    vol[row, col] = v
    mom[row, col] = m
    return np.add.accumulate(vol, axis=1)[:, -1], np.add.accumulate(mom, axis=1)[:, -1]


def cell_volume_centroid(cell: PolyCell, vertices):
    """Exact volume and centroid via signed tets against the origin."""
    vol, mom = _volume_moments(vertices, *_flat_loops([cell]))
    if vol[0] <= 0.0:
        raise MeshError("non-positive cell volume (orientation?)")
    return vol[0], mom[0] / vol[0]


def _turn_outward(cells, vertices) -> np.ndarray:
    """Reverse every loop of each consistently wound cell that encloses a
    negative signed volume; returns the cells' volumes."""
    vols, _ = _volume_moments(vertices, *_flat_loops(cells))
    for cell, vol in zip(cells, vols):
        if vol < 0.0:
            cell.faces[:] = [lp[::-1].copy() for lp in cell.faces]
    return np.abs(vols)


def _by_cell(key, cell):
    """The order that sorts entries by cell, then by key."""
    order = np.argsort(key)
    return order[np.argsort(cell[order], kind="stable")]


def _edge_pairs(ids, sizes, n_faces):
    """The directed-edge check of cells given as flat loops
    (`_flat_loops`): (closed, faces). closed[c] is True where each
    directed edge of cell c's loops appears once and so does its
    reverse; faces is two arrays of loop ids, the loops of each edge of
    a closed cell and of its reverse, every such pair in both orders."""
    cell = np.repeat(np.repeat(np.arange(len(n_faces)), n_faces), sizes)
    a, b = ids, ids[_cyclic_next(sizes)]
    nv = int(ids.max(initial=0)) + 1
    edge, reverse = a * nv + b, b * nv + a
    # each cell's edges, then its reversed edges, sorted: both orders put
    # the cell's edges on the same rows
    fwd, back = _by_cell(edge, cell), _by_cell(reverse, cell)
    edge = edge[fwd]
    bad = edge != reverse[back]
    bad[1:] |= (edge[1:] == edge[:-1]) & (cell[fwd[1:]] == cell[fwd[:-1]])
    closed = np.ones(len(n_faces), dtype=bool)
    closed[cell[fwd[bad]]] = False
    face = np.repeat(np.arange(len(sizes)), sizes)
    keep = closed[cell[fwd]]
    return closed, (face[fwd[keep]], face[back[keep]])


def _joined(faces, n_faces) -> np.ndarray:
    """Per cell: True where the (loop, loop) pairs `faces` join all its
    loops into one surface (or it has none)."""
    label = np.arange(n_faces.sum())
    u, v = faces
    # every label falls to the lowest loop id of its component
    while not np.array_equal(label[u], label[v]):
        np.minimum.at(label, u, np.minimum(label[u], label[v]))
        label = label[label]
    full = n_faces > 0
    starts = (np.cumsum(n_faces) - n_faces)[full]
    joined = np.ones(len(n_faces), dtype=bool)
    joined[full] = (np.minimum.reduceat(label, starts)
                    == np.maximum.reduceat(label, starts))
    return joined


def _wind_consistently(cell: PolyCell):
    """Rewind the cell's loops so that each edge is traversed once in
    each direction, keeping the first loop's winding."""
    loops = [np.asarray(lp, dtype=int) for lp in cell.faces]
    edge_faces = {}
    for fi, loop in enumerate(loops):
        k = len(loop)
        for i in range(k):
            a, b = int(loop[i]), int(loop[(i + 1) % k])
            edge_faces.setdefault(frozenset((a, b)), []).append((fi, (a, b)))
    flip = [None] * len(loops)
    flip[0] = False
    stack = [0]
    while stack:
        fi = stack.pop()
        loop = loops[fi]
        k = len(loop)
        for i in range(k):
            a, b = int(loop[i]), int(loop[(i + 1) % k])
            if flip[fi]:
                a, b = b, a
            for fj, stored in edge_faces[frozenset((a, b))]:
                if fj == fi or flip[fj] is not None:
                    continue
                # the neighbour must traverse this edge as (b, a)
                flip[fj] = stored != (b, a)
                stack.append(fj)
    if any(f is None for f in flip):
        raise MeshError("cell surface is not edge-connected")
    cell.faces[:] = [lp[::-1].copy() if fl else lp
                     for lp, fl in zip(loops, flip)]


# ---------------------------------------------------------------------------
# Convex polyhedron clipping (working representation: per cell, local
# verts, the face loops' ids end to end and the loops' sizes)
# ---------------------------------------------------------------------------

def _cube_poly(L: float):
    verts = np.array([[0, 0, 0], [L, 0, 0], [L, L, 0], [0, L, 0],
                      [0, 0, L], [L, 0, L], [L, L, L], [0, L, L]], dtype=float)
    faces = [[0, 3, 2, 1],    # z = 0, outward -z
             [4, 5, 6, 7],    # z = L, outward +z
             [0, 1, 5, 4],    # y = 0
             [2, 3, 7, 6],    # y = L
             [0, 4, 7, 3],    # x = 0
             [1, 2, 6, 5]]    # x = L
    return verts, faces


def _cyclic_next(sizes):
    """Index of the next entry of each entry's loop, the last entry of a
    loop wrapping to its first; `sizes` are the loops' lengths, in
    order."""
    ends = np.cumsum(sizes)
    nxt = np.arange(1, sizes.sum() + 1)
    full = sizes > 0
    nxt[ends[full] - 1] = (ends - sizes)[full]
    return nxt


def _close_cap(pairs):
    """Cap of the (b, a) pairs chained b -> a in a dict, each b taking
    its last a: None for fewer than 3 keys, else the loop from the
    first key."""
    succ = dict(pairs)
    if len(succ) < 3:
        return None
    start = next(iter(succ))
    cap = [start]
    cur = succ[start]
    while cur != start:
        cap.append(cur)
        if len(cap) > len(succ) or cur not in succ:
            raise MeshError("open cap loop while clipping")
        cur = succ[cur]
    return cap


def _clip_cells(verts, n_verts, loops, sizes, n_faces, d, side):
    """Clip k convex cells, each to its own half-space {x : d(x) <= 0}.

    Cell c has n_verts[c] of the rows of verts and n_faces[c] of the
    faces, in cell order; a face is sizes[f] local vertex ids of loops.
    d is each vertex's signed distance to its cell's plane and side its
    sign, 0 within the tolerance. Every cell has vertices on both
    sides. Returns the clipped cells in the same layout (verts,
    n_verts, loops, sizes, n_faces) and a {cell: MeshError} of the
    cells whose cap did not close.

    Per cell this is the clip of one polyhedron. A face keeps, in order,
    each vertex a of side <= 0 and then, if the edge from a to the next
    vertex b crosses the plane, its cut point; an id equal to the one
    before it (cyclically) is dropped, and so is a face left with fewer
    than 3. Cut points follow the cell's old vertices, numbered in the
    order the faces first cross their edges, each at a + t (b - a) with
    t = d[a] / (d[a] - d[b]) in that first crossing's direction. The cap
    chains the on-plane edges (a, b) of the kept faces as b -> a, from
    the first such b and each b's last-seen a. Unused vertices go,
    keeping the order of the rest.
    """
    k, n_old = len(n_verts), len(verts)
    vcell = np.repeat(np.arange(k), n_verts)
    vend = np.cumsum(n_verts)
    fcell = np.repeat(np.arange(k), n_faces)
    face = np.repeat(np.arange(len(sizes)), sizes)
    a = loops + (vend - n_verts)[fcell[face]]
    b = a[_cyclic_next(sizes)]
    cross = np.flatnonzero(side[a] * side[b] < 0)
    lo, hi = np.minimum(a[cross], b[cross]), np.maximum(a[cross], b[cross])
    _, first, inverse = np.unique(lo * n_old + hi, return_index=True,
                                  return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    pa, pb = a[cross[np.sort(first)]], b[cross[np.sort(first)]]
    n_cuts = np.bincount(vcell[pa], minlength=k)
    # each cell's old vertices, then its cut points in rank order
    old_at = np.arange(n_old) + (np.cumsum(n_cuts) - n_cuts)[vcell]
    cut_at = np.arange(len(pa)) + vend[vcell[pa]]
    new_verts = np.empty((n_old + len(pa), 3))
    new_verts[old_at] = verts
    t = d[pa] / (d[pa] - d[pb])
    new_verts[cut_at] = verts[pa] + t[:, None] * (verts[pb] - verts[pa])
    on_plane = np.ones(len(new_verts), dtype=bool)
    on_plane[old_at] = side == 0

    # each face entry emits its vertex if kept, then its edge's cut point
    slot = np.stack([old_at[a], np.zeros_like(a)], axis=1)
    slot[cross, 1] = cut_at[rank[inverse]]
    emit = np.stack([side[a] <= 0, np.zeros(len(a), dtype=bool)], axis=1)
    emit[cross, 1] = True
    out, out_face = slot[emit], np.repeat(face, emit.sum(axis=1))
    count = np.bincount(out_face, minlength=len(sizes))
    prev = np.empty(len(out), dtype=int)
    prev[_cyclic_next(count)] = np.arange(len(out))
    fresh = out != out[prev]
    out, out_face = out[fresh], out_face[fresh]
    count = np.bincount(out_face, minlength=len(sizes))
    big = count[out_face] >= 3
    out, out_face = out[big], out_face[big]
    kept = np.flatnonzero(count >= 3)

    # cap: the on-plane edges (a, b) of the kept faces chained b -> a; a
    # cell whose pairs are one permutation is followed here, in numpy
    nxt = out[_cyclic_next(count[kept])]
    on = on_plane[out] & on_plane[nxt]
    key, val, pair_cell = nxt[on], out[on], fcell[out_face[on]]
    n_key = np.bincount(key, minlength=len(new_verts))
    n_val = np.bincount(val, minlength=len(new_verts))
    n_pairs = np.bincount(pair_cell, minlength=k)
    odd = np.zeros(k, dtype=bool)
    odd[pair_cell[(n_key[key] != 1) | (n_val[val] != 1)
                  | (n_key[val] != 1)]] = True
    capped = np.flatnonzero((n_pairs >= 3) & ~odd)
    succ = np.zeros(len(new_verts), dtype=int)
    succ[key] = val
    chain = np.empty((len(capped), n_pairs[capped].max(initial=1)), dtype=int)
    chain[:, 0] = key[(np.cumsum(n_pairs) - n_pairs)[capped]]
    for s in range(1, chain.shape[1]):
        chain[:, s] = succ[chain[:, s - 1]]
    whole = np.arange(chain.shape[1]) < n_pairs[capped][:, None]
    # back at its start early: more than one cycle
    short = (whole & (chain == chain[:, :1]))[:, 1:].any(axis=1)
    odd[capped[short]] = True
    capped, chain, whole = capped[~short], chain[~short], whole[~short]
    # the other cells take the dict chain of one cell at a time
    cap_cell, cap_size, cap_ids = [capped], [n_pairs[capped]], [chain[whole]]
    errors = {}
    for c in np.flatnonzero(odd).tolist():
        mine = pair_cell == c
        try:
            cap = _close_cap(zip(key[mine].tolist(), val[mine].tolist()))
        except MeshError as exc:
            errors[c] = exc
            continue
        if cap is not None:
            cap_cell.append([c])
            cap_size.append([len(cap)])
            cap_ids.append(cap)

    # every cell's kept faces, then its cap
    face_cell = np.concatenate([fcell[kept], *cap_cell])
    size = np.concatenate([count[kept], *cap_size])
    ids = np.concatenate([out, *cap_ids])
    order = np.argsort(face_cell, kind="stable")
    start = (np.cumsum(size) - size)[order]
    face_cell, size = face_cell[order], size[order]
    ids = ids[np.repeat(start - (np.cumsum(size) - size), size)
              + np.arange(size.sum())]
    used = np.zeros(len(new_verts), dtype=bool)
    used[ids] = True
    n_used = np.bincount(np.repeat(np.arange(k), n_verts + n_cuts)[used],
                         minlength=k)
    at = (np.cumsum(used) - 1)[ids]
    loops = at - (np.cumsum(n_used) - n_used)[np.repeat(face_cell, size)]
    return (new_verts[used], n_used, loops, size,
            np.bincount(face_cell, minlength=k), errors)


# ---------------------------------------------------------------------------
# Voronoi generation
# ---------------------------------------------------------------------------

# the direction of the merge's sorted pass, in no box plane and no
# low-index lattice plane: points on one such plane still spread along
# it, so that a window holds the near points and few others
_SWEEP = np.array([1.0, 0.7548776662466927, 0.5698402909980532])


def _merge_points(points, tol: float):
    """(ids, kept): each point's id after merging within tol (max-norm)
    and the points that keep their own id, in order.

    Points are taken in order. A point takes the id of an earlier kept
    point within tol whose bucket floor(p / tol) is next to its own (no
    coordinate apart by more than 1); of several, the first in the scan
    of the 27 buckets around its own (offsets -1, 0, 1 in x, then y,
    then z), and of several in one bucket the first kept. A point with
    none keeps its own, the next id. Candidate pairs come from one
    sorted pass along _SWEEP; whether a point is kept is settled in
    rounds, each of which settles at least the first open point
    (docs/fem.md, "After clipping").
    """
    n = len(points)
    keys = np.floor(points / tol).astype(np.int64)
    along = points @ _SWEEP
    order = np.argsort(along)
    ends = np.searchsorted(along[order], along[order] + 2.0 * tol * _SWEEP.sum(),
                           side="right")
    count = ends - np.arange(n) - 1
    lo = np.repeat(np.arange(n), count)
    hi = lo + 1 + np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    i, j = np.minimum(order[lo], order[hi]), np.maximum(order[lo], order[hi])
    near = ((np.abs(points[i] - points[j]) <= tol).all(axis=1)
            & (np.abs(keys[i] - keys[j]) <= 1).all(axis=1))
    i, j = i[near], j[near]
    state = np.ones(n, dtype=np.int8)      # 1 kept, -1 merged, 0 open
    state[j] = 0
    while not state.all():
        hit, wait = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        hit[j[state[i] == 1]] = True
        wait[j[state[i] == 0]] = True
        open_ = state == 0
        state[open_ & hit] = -1
        state[open_ & ~hit & ~wait] = 1
    kept = state == 1
    ids = np.cumsum(kept) - 1
    take = kept[i] & ~kept[j]
    i, j = i[take], j[take]
    scan = (keys[i] - keys[j] + 1) @ np.array([9, 3, 1])
    first = np.lexsort((i, scan, j))
    lead = np.ones(len(first), dtype=bool)
    lead[1:] = j[first[1:]] != j[first[:-1]]
    ids[j[first[lead]]] = ids[i[first[lead]]]
    return ids, points[kept]


def _pieces(array, counts):
    """Consecutive slices of `array`, counts[i] long each."""
    ends = np.cumsum(counts).tolist()
    return [array[e - n:e] for e, n in zip(ends, counts.tolist())]


def _voronoi_cells(seeds: np.ndarray, L: float):
    """Clip the cube per seed by nearest-first bisector planes, every
    cell in lockstep (docs/fem.md, "Voronoi clipping"): round r tests
    the r-th nearest plane of each cell that its security radius has not
    ruled out. Returns (verts, n_verts, loops, sizes, n_faces): the
    cells' vertices in cell order, each cell's vertex count, the face
    loops' local vertex ids end to end, each loop's size and each cell's
    loop count."""
    n = len(seeds)
    eps = TAU_MERGE * L
    cube, cube_faces = _cube_poly(L)
    if n == 1:
        return (cube, np.array([8]), np.concatenate(cube_faces),
                np.array([len(f) for f in cube_faces]), np.array([6]))
    verts = [cube] * n
    loops = [np.concatenate(cube_faces)] * n
    sizes = [np.array([len(f) for f in cube_faces])] * n
    dist = np.array([np.linalg.norm(seeds - s, axis=1) for s in seeds])
    order = np.argsort(dist, axis=1)
    order = order[order != np.arange(n)[:, None]].reshape(n, n - 1)
    half = dist / 2.0
    # security radius: farther bisectors cannot cut
    radius = np.linalg.norm(cube - seeds[:, None, :], axis=2).max(axis=1)
    errors = {}
    active = np.arange(n)
    for step in range(n - 1):
        plane = order[active, step]
        near = ~(half[active, plane] > radius[active])
        active, plane = active[near], plane[near]
        if not active.size:
            break
        normal = (seeds[plane] - seeds[active]) / dist[active, plane][:, None]
        offset = (normal[:, None, :]
                  @ (seeds[active] + seeds[plane])[:, :, None])[:, 0, 0] / 2.0
        # one dgemv per cell on its own rows: its bits do not depend on
        # the other cells (a stacked product rounds differently)
        d = [verts[c] @ nrm - off for c, nrm, off
             in zip(active.tolist(), normal, offset.tolist())]
        n_verts = np.array([len(x) for x in d])
        d = np.concatenate(d)
        side = (d > eps).astype(np.int8) - (d < -eps)
        start = np.cumsum(n_verts) - n_verts
        above = np.maximum.reduceat(side, start) > 0
        below = np.minimum.reduceat(side, start) < 0
        for c in active[above & ~below].tolist():
            errors[c] = MeshError(f"seed {c} produced an empty Voronoi cell")
        cut = above & below
        if cut.any():
            cut_cells = active[cut].tolist()
            mask = np.repeat(cut, n_verts)
            new, n_new, new_loops, new_sizes, n_faces, failed = _clip_cells(
                np.concatenate([verts[c] for c in cut_cells]), n_verts[cut],
                np.concatenate([loops[c] for c in cut_cells]),
                np.concatenate([sizes[c] for c in cut_cells]),
                np.array([len(sizes[c]) for c in cut_cells]),
                d[mask], side[mask])
            norms = np.linalg.norm(new - seeds[np.repeat(cut_cells, n_new)],
                                   axis=1)
            radius[cut_cells] = np.maximum.reduceat(norms,
                                                    np.cumsum(n_new) - n_new)
            n_entries = np.add.reduceat(new_sizes, np.cumsum(n_faces) - n_faces)
            for c, v, lp, sz in zip(cut_cells, _pieces(new, n_new),
                                    _pieces(new_loops, n_entries),
                                    _pieces(new_sizes, n_faces)):
                verts[c], loops[c], sizes[c] = v, lp, sz
            errors.update((cut_cells[c], exc) for c, exc in failed.items())
        if errors:
            active = active[~np.isin(active, list(errors))]
    if errors:
        raise errors[min(errors)]
    return (np.concatenate(verts), np.array([len(v) for v in verts]),
            np.concatenate(loops), np.concatenate(sizes),
            np.array([len(sz) for sz in sizes]))


def generate_voronoi(seeds, L: float, lloyd: int = 0) -> PolyMesh:
    """Voronoi tessellation of [0, L]^3, one convex cell per seed.

    Cells are the cube clipped by seed-pair bisector half-spaces, each
    cell's nearest first and pruned by its security radius, all cells in
    lockstep: one plane per cell per round, the signed distances one
    dgemv per cell and the cuts flat over the round's cells, bit for bit
    the cell-by-cell clip (docs/fem.md, "Voronoi clipping"). Shared
    faces conform and vertices are merged within TAU_MERGE*L. lloyd > 0
    applies that many Lloyd relaxation steps (seeds moved to cell
    centroids) before the final tessellation.
    """
    ss = seeds if isinstance(seeds, SeedSet) else SeedSet(np.asarray(seeds, dtype=float))
    pts = ss.seeds
    if not valid_edge_length(L):
        raise MeshError(f"edge length {L!r} must be {EDGE_LENGTH_RULE}")
    if len(pts) < 1:
        raise MeshError("need at least one seed")
    if np.any(pts <= 0.0) or np.any(pts >= L):
        raise MeshError("seeds must lie strictly inside the cube")
    if len(pts) > 1:
        from scipy.spatial.distance import pdist
        if pdist(pts).min() <= TAU_MERGE * L:
            raise MeshError("coincident seeds")

    for _ in range(int(lloyd)):
        verts, n_verts, loops, sizes, n_faces = _voronoi_cells(pts, L)
        vols, moms = _volume_moments(
            verts, _global_loops(n_verts, loops, sizes, n_faces), sizes, n_faces)
        if np.any(vols <= 0.0):
            raise MeshError("non-positive cell volume (orientation?)")
        pts = moms / vols[:, None]

    mesh = PolyMesh(*_merged_cells(*_voronoi_cells(pts, L), TAU_MERGE * L),
                    float(L))
    _finalize_cells(mesh)
    return mesh


def _global_loops(n_verts, loops, sizes, n_faces):
    """The loops of flat clipped cells over the rows of all their
    vertices, not each cell's own."""
    start = np.cumsum(n_verts) - n_verts
    return loops + np.repeat(np.repeat(start, n_faces), sizes)


def _merged_cells(verts, n_verts, loops, sizes, n_faces, tol: float):
    """(vertices, cells) of flat clipped cells (`_voronoi_cells`) with
    their vertices merged within tol (`_merge_points`). Merging may
    collapse sliver edges: an id equal to the one before it (cyclically)
    goes, and so does a face left with fewer than 3 distinct ids."""
    n = len(n_verts)
    gids, vertices = _merge_points(verts, tol)
    ids = gids[_global_loops(n_verts, loops, sizes, n_faces)]
    face = np.repeat(np.arange(len(sizes)), sizes)
    prev = np.empty_like(ids)
    prev[_cyclic_next(sizes)] = ids
    fresh = ids != prev
    ids, face = ids[fresh], face[fresh]
    nv = len(vertices)
    distinct = np.bincount(_distinct(face * nv + ids) // nv, minlength=len(sizes))
    keep = distinct >= 3
    ids, face = ids[keep[face]], face[keep[face]]
    face_cell = np.repeat(np.arange(n), n_faces)[keep]
    sizes = np.bincount(face, minlength=len(keep))[keep]
    # each cell's vertex ids, sorted
    used = _distinct(np.repeat(face_cell, sizes) * nv + ids)
    vertex_ids = _pieces(used % nv, np.bincount(used // nv, minlength=n))
    loops = _pieces(ids, sizes)
    count = np.bincount(face_cell, minlength=n).tolist()
    return vertices, [PolyCell(vids, loops[e - k:e]) for vids, e, k
                      in zip(vertex_ids, np.cumsum(count).tolist(), count)]


def _finalize_cells(mesh: PolyMesh):
    """Orient faces outward, cache volumes, validate closure, and build
    the face table. A cell whose directed edges pair up with their
    reverses into one surface is wound consistently already; only the
    others are rewound (or rejected) by the edge traversal."""
    ids, sizes, n_faces = _flat_loops(mesh.cells)
    closed, faces = _edge_pairs(ids, sizes, n_faces)
    for c in np.flatnonzero(~(closed & _joined(faces, n_faces))).tolist():
        _wind_consistently(mesh.cells[c])
    vols = _turn_outward(mesh.cells, mesh.vertices)
    total = 0.0
    for ci, (cell, vol) in enumerate(zip(mesh.cells, vols)):
        if vol < EPS_VOL * mesh.edge_length ** 3:
            raise MeshError(f"degenerate (volume {vol:g})", ci)
        cell.volume = vol
        total += vol
    L3 = mesh.edge_length ** 3
    if abs(total - L3) > 1e-10 * L3:
        raise MeshError(f"cell volumes sum to {total:.15g}, expected {L3:.15g}")
    mesh._faces = face_table(mesh)


def watertight_cells(cells) -> np.ndarray:
    """Per cell: each directed edge of its loops appears once, and so
    does its reverse."""
    return _edge_pairs(*_flat_loops(cells))[0]


def cell_watertight(cell: PolyCell) -> bool:
    """Each edge used exactly twice, in opposite directions."""
    return bool(watertight_cells([cell])[0])


def interior_face_conformity(mesh: PolyMesh) -> bool:
    """Every face is either on the box surface or shared by exactly two
    cells with opposite windings."""
    t = mesh.faces
    shared = t.owners[:, 1] >= 0
    net = np.bincount(t.cell_faces, weights=t.cell_signs, minlength=len(shared))
    # one reference per owner slot: no face has a third owner
    return bool(len(t.cell_faces) == len(shared) + shared.sum()
                and np.all(np.where(shared, net == 0, t.on_box)))


# ---------------------------------------------------------------------------
# Tetrahedralization and refinement
# ---------------------------------------------------------------------------

def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _ear_clip(pts2d):
    """Deterministic ear clipping; returns position triples into pts2d."""
    n = len(pts2d)
    area2 = np.sum(pts2d[:, 0] * np.roll(pts2d[:, 1], -1)
                   - np.roll(pts2d[:, 0], -1) * pts2d[:, 1])
    orient = 1.0 if area2 >= 0 else -1.0
    scale2 = max(np.ptp(pts2d[:, 0]), np.ptp(pts2d[:, 1])) ** 2
    eps = 1e-12 * scale2
    active = list(range(n))
    tris = []
    while len(active) > 3:
        found = False
        for k in range(len(active)):
            ia = active[k - 1]
            ib = active[k]
            ic = active[(k + 1) % len(active)]
            a, b, c = pts2d[ia], pts2d[ib], pts2d[ic]
            if orient * _cross2(b - a, c - b) <= eps:
                continue
            blocked = False
            for j in active:
                if j in (ia, ib, ic):
                    continue
                p = pts2d[j]
                s0 = orient * _cross2(b - a, p - a)
                s1 = orient * _cross2(c - b, p - b)
                s2 = orient * _cross2(a - c, p - c)
                if s0 > -eps and s1 > -eps and s2 > -eps:
                    blocked = True
                    break
            if blocked:
                continue
            tris.append((ia, ib, ic))
            del active[k]
            found = True
            break
        if not found:
            raise MeshError("ear clipping failed (degenerate polygon)")
    tris.append(tuple(active))
    return tris


def face_fans(mesh: PolyMesh) -> FaceFans:
    """Triangulate every unique face of the mesh once.

    A face's triangles depend only on its vertex-id cycle, read from its
    lowest id towards the lower of that id's two neighbours, and on the
    axis its normal is largest along (either sign), so the two cells
    sharing a face get the identical triangles and the union tet mesh
    conforms. A face that is convex in the projection dropping that axis
    takes the plain fan from its lowest id; the others are ear clipped.
    """
    t = mesh.faces
    sizes = np.diff(t.offsets)
    starts = t.offsets[:-1]
    face = t.entry_face
    local = np.arange(len(face)) - starts[face]
    lowest = np.minimum.reduceat(t.loops, starts)
    pivot = np.minimum.reduceat(np.where(t.loops == lowest[face], local, len(face)),
                                starts)
    # canonical cycle, from the lowest id towards its lower neighbour;
    # flipped where that runs against the stored loop
    flipped = (t.loops[starts + (pivot - 1) % sizes]
               < t.loops[starts + (pivot + 1) % sizes])
    step = np.where(flipped, -1, 1)[face]
    canon = t.loops[starts[face] + (pivot[face] + step * local) % sizes[face]]

    keep = np.array([[1, 2], [0, 2], [0, 1]])[np.argmax(np.abs(t.normal), axis=1)]
    p = mesh.vertices[canon]
    x = p[np.arange(len(p)), keep[face, 0]]
    y = p[np.arange(len(p)), keep[face, 1]]
    prev = starts[face] + (local - 1) % sizes[face]
    succ = starts[face] + (local + 1) % sizes[face]
    turns = (x - x[prev]) * (y[succ] - y) - (y - y[prev]) * (x[succ] - x)
    scale2 = np.maximum(np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts),
                        np.maximum.reduceat(y, starts) - np.minimum.reduceat(y, starts)) ** 2
    tol = (1e-12 * scale2)[face]
    convex = (np.logical_and.reduceat(turns >= -tol, starts)
              | np.logical_and.reduceat(turns <= tol, starts))

    # canonical positions: the plain fan, then the ear clips over it
    n_tri = sizes - 2
    offsets = np.concatenate([[0], np.cumsum(n_tri)])
    tri_face = np.repeat(np.arange(len(sizes)), n_tri)
    second = starts[tri_face] + 1 + np.arange(offsets[-1]) - offsets[tri_face]
    pos = np.column_stack([starts[tri_face], second, second + 1])
    for f in np.flatnonzero(~convex):
        span = slice(starts[f], starts[f] + sizes[f])
        pos[offsets[f]:offsets[f + 1]] = starts[f] + np.array(
            _ear_clip(np.column_stack([x[span], y[span]])))
    tris = canon[pos]
    back = flipped[tri_face]
    tris[back] = tris[back][:, [0, 2, 1]]
    return FaceFans(tris, offsets, lowest)


def _tet_volumes(points, tets):
    p = points[tets]
    return np.einsum("ij,ij->i", p[:, 1] - p[:, 0],
                     np.cross(p[:, 2] - p[:, 0], p[:, 3] - p[:, 0])) / 6.0


def triangulate_cell(mesh: PolyMesh, cell_id: int) -> TetSubmesh:
    """Minimal tetrahedralization by vertex-apex fan.

    Apex is the cell's lowest vertex id; each face not containing the apex
    contributes its triangles (`face_fans`), so the union over cells
    conforms. Non-convex cells (negative or non-closing fans) fall back to
    a flagged centroid-apex construction with one added interior point.
    """
    cell = mesh.cells[cell_id]
    apex = int(cell.vertex_ids.min())
    fans = mesh.fans
    face_ids, signs = mesh.faces.of_cell(cell_id)
    lo = fans.offsets[face_ids]
    n = fans.offsets[face_ids + 1] - lo
    tris = fans.tris[np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())]
    # a tet winds (a, c, b) of its face triangle (a, b, c) in the cell's
    # outward winding: the stored triangle reversed where the cell keeps
    # the face's winding, as stored where it reverses it
    keeps = np.repeat(signs > 0, n)
    tris[keeps] = tris[keeps][:, [0, 2, 1]]
    # the apex is the cell's lowest id, so a face holds it iff its own
    # lowest id is the apex
    fan = tris[np.repeat(fans.lowest[face_ids] != apex, n)]
    tets = np.column_stack([fan, np.full(len(fan), apex)])
    vols = _tet_volumes(mesh.vertices, tets)
    ok = len(tets) > 0 and np.all(vols > 0.0) and \
        abs(vols.sum() - cell.volume) <= 1e-10 * cell.volume
    if ok:
        return TetSubmesh(cell_id, tets, vols, mesh.n_vertices, np.zeros((0, 3)))

    # fallback: star from the centroid, one interior node
    _, cent = cell_volume_centroid(cell, mesh.vertices)
    tets = np.column_stack([tris, np.full(len(tris), mesh.n_vertices)])
    pts = np.vstack([mesh.vertices, cent[None, :]])
    vols = _tet_volumes(pts, tets)
    if not (np.all(vols > 0.0) and abs(vols.sum() - cell.volume) <= 1e-10 * cell.volume):
        raise MeshError(f"cell {cell_id} is not star-shaped w.r.t. its centroid")
    return TetSubmesh(cell_id, tets, vols, mesh.n_vertices, cent[None, :], fallback=True)


def union_submeshes(mesh: PolyMesh, subs) -> TetMesh:
    """Conforming union tet mesh over all cells (the coarse FEM mesh)."""
    extra = []
    all_tets = []
    owner = []
    offset = mesh.n_vertices
    for sub in subs:
        t = sub.tets.copy()
        if len(sub.extra_vertices):
            # remap this submesh's extras into the shared global range
            hi = t >= sub.n_mesh
            t[hi] = offset + len(extra) + (t[hi] - sub.n_mesh)
            extra.extend(sub.extra_vertices)
        all_tets.append(t)
        owner.extend([sub.cell_id] * len(t))
    verts = np.vstack([mesh.vertices] + ([np.array(extra)] if extra else []))
    return TetMesh(verts, np.vstack(all_tets), np.array(owner, dtype=int), mesh.edge_length)


_EDGE_LOCAL = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def edge_midpoints(points, tets):
    """(points with one midpoint per tet edge appended, (m, 6) midpoint
    ids): numbered in order of first appearance, tet by tet and edge by
    edge in _EDGE_LOCAL order."""
    n = len(points)
    ends = np.sort(tets[:, _EDGE_LOCAL], axis=-1).reshape(-1, 2)
    _, first, inverse = np.unique(ends[:, 0] * n + ends[:, 1],
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    a, b = ends[first[order]].T
    return (np.vstack([points, (points[a] + points[b]) / 2.0]),
            n + rank[inverse].reshape(-1, 6))


# the 8 red children of a tet over its corners (0-3) and edge midpoints
# (4-9); the octahedron is split around its (m02, m13) diagonal
_RED_CHILDREN = np.array([
    [0, 4, 5, 6], [1, 4, 7, 8], [2, 5, 7, 9], [3, 6, 8, 9],
    [5, 8, 4, 6], [5, 8, 6, 9], [5, 8, 9, 7], [5, 8, 7, 4]])


def _refine_once(points, tets):
    """Red refinement: each tet into 8 via edge midpoints (conforming)."""
    all_pts, mids = edge_midpoints(points, tets)
    out = np.hstack([tets, mids])[:, _RED_CHILDREN].reshape(-1, 4)
    vols = _tet_volumes(all_pts, out)
    flip = vols < 0.0
    out[flip] = out[flip][:, [0, 1, 3, 2]]
    return all_pts, out


def refine_tet_mesh(tmesh: TetMesh, levels: int) -> TetMesh:
    """Red-refine a conforming tet mesh globally (shared midpoints)."""
    points, tets = tmesh.vertices, tmesh.tets
    owner = tmesh.cell_of_tet
    for _ in range(int(levels)):
        points, tets = _refine_once(points, tets)
        owner = np.repeat(owner, 8)
    return TetMesh(points, tets, owner, tmesh.edge_length)


# ---------------------------------------------------------------------------
# Native text format
# ---------------------------------------------------------------------------

_NATIVE_MAGIC = "polyvem-mesh 1"


def _native_payload(mesh: PolyMesh) -> str:
    lines = [f"VERTICES {mesh.n_vertices}"]
    lines += [f"{i} {x!r} {y!r} {z!r}" for i, (x, y, z)
              in enumerate(np.asarray(mesh.vertices, dtype=float).tolist())]
    lines.append(f"CELLS {len(mesh.cells)}")
    lines += [f"{i} {cell.material_id} {len(cell.faces)}"
              for i, cell in enumerate(mesh.cells)]
    lines.append("FACES")
    ids, sizes, n_faces = _flat_loops(mesh.cells)
    cell = np.repeat(np.arange(len(n_faces)), n_faces).tolist()
    lines += [f"{c} " + " ".join(map(str, loop))
              for c, loop in zip(cell, _pieces(ids.tolist(), sizes))]
    return "\n".join(lines) + "\n"


def write_mesh(mesh: PolyMesh) -> str:
    """Serialize to the native format (round-trip stable, checksummed)."""
    payload = _native_payload(mesh)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return (f"{_NATIVE_MAGIC}\nL {float(mesh.edge_length)!r}\n"
            f"CHECKSUM {digest}\n{payload}")


class _Lines:
    """The lines of a mesh text, taken in order; errors name the line."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0                       # lines taken so far

    def peek(self) -> str | None:
        return self.lines[self.pos].strip() if self.pos < len(self.lines) else None

    def fail(self, what: str):
        raise MeshParseError(f"line {self.pos}: {what}")

    def take(self) -> str:
        if self.pos >= len(self.lines):
            raise MeshParseError(f"unexpected end of file after line {self.pos}")
        self.pos += 1
        return self.lines[self.pos - 1].strip()

    def fields(self, *convs, tag=None, rest=None) -> list:
        """The next line's fields after its tag (checked when given),
        converted by convs in turn and any further ones by rest."""
        parts = self.take().split()
        if tag is not None and parts[:1] != [tag]:
            self.fail(f"expected {tag}")
        parts = parts[tag is not None:]
        convs += (rest,) * (len(parts) - len(convs)) if rest else ()
        if len(parts) < len(convs):
            self.fail(f"expected {len(convs)} fields")
        try:
            values = [conv(x) for conv, x in zip(convs, parts)]
            # ids and counts go into int64 arrays
            if any(type(v) is int and abs(v) >= 2 ** 63 for v in values):
                raise OverflowError
            return values
        except (ValueError, OverflowError):
            self.fail(f"bad number in {' '.join(parts)!r}")

    def count(self, tag=None) -> int:
        """A count of the items that follow, each on at least one line."""
        n, = self.fields(int, tag=tag)
        if n < 0:
            self.fail(f"negative count {n}")
        if n > len(self.lines) - self.pos:
            self.fail(f"count {n} exceeds the {len(self.lines) - self.pos} "
                      "lines left")
        return n

    def index(self, i: int, n: int) -> int:
        if not 0 <= i < n:
            self.fail(f"id {i} out of range")
        return i

    def vertices(self, n: int, first: int) -> np.ndarray:
        """n lines 'id x y z' with ids first, ..., first + n - 1."""
        verts, seen = np.empty((n, 3)), np.zeros(n, dtype=bool)
        for _ in range(n):
            i, x, y, z = self.fields(int, float, float, float)
            verts[self.index(i - first, n)] = x, y, z
            seen[i - first] = True
        if not seen.all():
            raise MeshParseError("missing vertex ids")
        bad = ~np.isfinite(verts).all(axis=1)
        if bad.any():
            raise MeshParseError(f"vertex {first + int(np.argmax(bad))}: "
                                 "non-finite coordinate")
        return verts


def read_mesh(text: str) -> PolyMesh:
    """Parse the native format; verifies the checksum and all invariants."""
    src = _Lines(text)
    if src.take() != _NATIVE_MAGIC:
        raise MeshParseError("not a native mesh file (bad magic)")
    L, = src.fields(float, tag="L")
    if (src.peek() or "").startswith("CHECKSUM"):
        stated, = src.fields(str, tag="CHECKSUM")
        payload = "\n".join(src.lines[src.pos:]) + "\n"
        if hashlib.sha256(payload.encode()).hexdigest() != stated:
            raise MeshParseError("checksum mismatch")

    verts = src.vertices(src.count("VERTICES"), 0)
    nc = src.count("CELLS")
    header = np.zeros((nc, 2), dtype=int)  # material id, face count
    for _ in range(nc):
        ci, mat, nf = src.fields(int, int, int)
        header[src.index(ci, nc)] = mat, nf
    src.fields(tag="FACES")
    face_lists = [[] for _ in range(nc)]
    while src.peek():
        ci, *ids = src.fields(int, rest=int)
        loop = np.array(ids, dtype=int)
        if np.any(loop >= len(verts)) or np.any(loop < 0):
            raise MeshParseError(f"dangling vertex reference in face of cell {ci}")
        face_lists[src.index(ci, nc)].append(loop)
    cells = []
    for ci, (mat, nf) in enumerate(header):
        if len(face_lists[ci]) != nf or not nf:
            raise MeshParseError(f"cell {ci}: {len(face_lists[ci])} faces, header says {nf}")
        vids = np.unique(np.concatenate(face_lists[ci]))
        cells.append(PolyCell(vids, face_lists[ci], material_id=int(mat)))
    return _parsed_mesh(verts, cells, L, first=0)


def _parsed_mesh(verts, cells, L, first: int) -> PolyMesh:
    """The validated mesh of parsed cells. A degenerate face or cell is
    a fault of the file, so any MeshError becomes a MeshParseError.
    Errors name vertices and cells by the file's ids, which count from
    `first`."""
    if not valid_edge_length(L):
        raise MeshParseError(f"edge length {L!r} must be {EDGE_LENGTH_RULE}")
    # before any face geometry: far-out coordinates overflow its products
    tol = TAU_BOX * L
    outside = np.any((verts < -tol) | (verts > L + tol), axis=1)
    if outside.any():
        i = int(np.argmax(outside))
        raise MeshParseError(f"vertex {i + first}: outside the box "
                             f"[0, {L!r}]^3 at {verts[i].tolist()}")
    try:
        mesh = PolyMesh(verts, cells, L)
        t = mesh.faces
        face = t.entry_face
        gap = np.abs(np.einsum("ij,ij->i",
                               mesh.vertices[t.loops] - t.centroid[face],
                               t.normal[face]))
        planar = (np.maximum.reduceat(gap, t.offsets[:-1])
                  <= TAU_PLANE * mesh.edge_length)
        # the lowest cell at fault, its edges before its faces' planarity
        closed = watertight_cells(mesh.cells)
        bad = ~closed | ~np.logical_and.reduceat(planar[t.cell_faces],
                                                 t.cell_offsets[:-1])
        if bad.any():
            ci = int(np.argmax(bad))
            raise MeshError("non-planar face" if closed[ci] else "not watertight", ci)
        _finalize_cells(mesh)
    except MeshError as exc:
        raise MeshParseError(exc.detail, None if exc.cell is None
                             else exc.cell + first) from None
    return mesh


# ---------------------------------------------------------------------------
# Tessellation-file subset (documented in docs/formats.md)
# ---------------------------------------------------------------------------

def write_tess(mesh: PolyMesh) -> str:
    """Write the tessellation subset grammar (1-based ids)."""
    out = ["***tess", " **format", "   1", " **vertex", f"   {mesh.n_vertices}"]
    out += [f"   {i} {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}"
            for i, v in enumerate(mesh.vertices, start=1)]

    # edges numbered in order of first appearance along the face loops
    t = mesh.faces
    ends = list(zip(t.loops.tolist(), t.loops[t.successor].tolist()))
    edges = {}
    for a, b in ends:
        edges.setdefault((min(a, b), max(a, b)), len(edges) + 1)
    signed = [edges[min(a, b), max(a, b)] * (1 if a < b else -1) for a, b in ends]
    out += [" **edge", f"   {len(edges)}"]
    out += [f"   {eid} {a + 1} {b + 1}" for (a, b), eid in edges.items()]

    plane = np.einsum("ij,ij->i", t.normal, t.centroid)
    out += [" **face", f"   {len(t.area)}"]
    for f, n in enumerate(t.normal):
        lo, hi = t.offsets[f], t.offsets[f + 1]
        out += [f"   {f + 1}",
                f"   {hi - lo} " + " ".join(str(v + 1) for v in t.loops[lo:hi]),
                f"   {hi - lo} " + " ".join(str(e) for e in signed[lo:hi]),
                f"   {float(plane[f])!r} {float(n[0])!r} {float(n[1])!r} {float(n[2])!r}"]
    refs = np.split(t.cell_signs * (t.cell_faces + 1), t.cell_offsets[1:-1])
    out += [" **polyhedron", f"   {len(refs)}"]
    out += [f"   {ci} {len(own)} " + " ".join(str(r) for r in own)
            for ci, own in enumerate(refs, start=1)]
    return "\n".join(out + ["***end"]) + "\n"


def parse_tess(text: str, edge_length: float | None = None) -> PolyMesh:
    """Parse the tessellation subset; fails loudly on unknown sections.

    Accepted sections: **format, **vertex, **edge, **face, **polyhedron,
    wrapped in ***tess ... ***end. Only the vertices, the faces' vertex
    loops and the polyhedra's signed face lists are read: an **edge row
    is taken as three tokens and each face's edge-list and plane lines
    are skipped, unchecked (docs/formats.md). Face orientations are
    normalized (outward) on import.
    """
    src = _Lines(text)
    if src.take() != "***tess":
        raise MeshParseError("missing ***tess header")

    verts = None
    face_loops = {}
    polys = []
    while src.peek() is not None:
        tag = src.take()
        if tag == "***end":
            break
        if not tag.startswith("**"):
            raise MeshParseError(f"line {src.pos}: expected a section, got {tag!r}")
        name = tag[2:]
        if name == "format":
            src.take()
        elif name == "vertex":
            verts = src.vertices(src.count(), 1)
        elif name == "edge":
            for _ in range(src.count()):
                src.fields(str, str, str)
        elif name == "face":
            for _ in range(src.count()):
                fid, = src.fields(int)
                nvert, *ids = src.fields(int, rest=int)
                loop = np.array(ids[:nvert], dtype=int) - 1
                if len(loop) != nvert:
                    raise MeshParseError(f"face {fid}: vertex count mismatch")
                src.take()                  # edge list line, unused
                src.take()                  # plane line, unused
                face_loops[fid - 1] = loop
        elif name == "polyhedron":
            n = src.count()
            for _ in range(n):
                ci, nf, *refs = src.fields(int, int, rest=int)
                if len(refs[:nf]) != nf or nf < 1:
                    raise MeshParseError(f"polyhedron {ci}: face count mismatch")
                polys.append((src.index(ci - 1, n), refs[:nf]))
        else:
            raise MeshParseError(f"unsupported section **{name}")
    else:
        raise MeshParseError("missing ***end")

    if verts is None or not polys:
        raise MeshParseError("file lacks **vertex or **polyhedron data")
    nv = len(verts)
    cells = [None] * len(polys)
    for ci, refs in polys:
        loops = []
        for r in refs:
            fid = abs(r) - 1
            if fid not in face_loops:
                raise MeshParseError(f"polyhedron {ci + 1} references unknown face {fid + 1}")
            loop = face_loops[fid]
            if np.any(loop >= nv) or np.any(loop < 0):
                raise MeshParseError(f"dangling vertex reference in face {fid + 1}")
            loops.append(loop[::-1].copy() if r < 0 else loop.copy())
        cells[ci] = PolyCell(np.unique(np.concatenate(loops)), loops)
    if any(cell is None for cell in cells):
        raise MeshParseError("missing polyhedron ids")

    L = float(edge_length) if edge_length else float(np.max(verts))
    return _parsed_mesh(verts, cells, L, first=1)


def mesh_hash(mesh: PolyMesh) -> str:
    """Stable content hash used for caching and provenance, computed on
    first use and kept with the mesh (a mesh is not changed once built)."""
    if mesh._digest is None:
        mesh._digest = hashlib.sha256(write_mesh(mesh).encode()).hexdigest()
    return mesh._digest
