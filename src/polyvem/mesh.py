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
    rng_seed: int | None = None

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
    return SeedSet(pts, rng_seed)


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
    tets: np.ndarray                       # (m, 4)
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


def face_table(mesh: PolyMesh) -> FaceTable:
    """Unique faces of the mesh's cells with their geometry.

    Area, normal and centroid come from a fan from the vertex mean, exact
    for planar polygons of any (mild) non-convexity. A face's weights w
    make sum_i w[i] s[loop[i]] the exact integral of the first-order face
    reconstruction of vertex data s: area * (vertex mean + tangential
    gradient . (centroid - vertex mean position)), the gradient from edge
    trapezoids; they do not depend on the winding.
    """
    index, face_loops, owners, refs, signs = {}, [], [], [], []
    for ci, cell in enumerate(mesh.cells):
        for loop in cell.faces:
            lp = [int(v) for v in loop]
            if len(lp) < 3:
                raise MeshError(f"face with {len(lp)} vertices", ci)
            f = index.setdefault(frozenset(lp), len(index))
            if f == len(face_loops):
                face_loops.append(lp)
                owners.append([ci, -1])
            elif owners[f][1] < 0:
                owners[f][1] = ci
            first = face_loops[f]
            refs.append(f)
            signs.append(1 if lp[(lp.index(first[0]) + 1) % len(lp)] == first[1]
                         else -1)
    sizes = np.array([len(lp) for lp in face_loops], dtype=int)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    starts = offsets[:-1]
    loops = np.array([v for lp in face_loops for v in lp], dtype=int)
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
                        owners[np.argmin(area)][0])
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
    cell_offsets = np.concatenate(
        [[0], np.cumsum([len(cell.faces) for cell in mesh.cells])])
    return FaceTable(loops, offsets, area, normal, centroid, weights,
                     np.array(owners, dtype=int).reshape(-1, 2), on_box,
                     cell_offsets, np.array(refs, dtype=int),
                     np.array(signs, dtype=int), face, nxt)


def _volume_moments(vertices, cell_loops):
    """(volumes, first moments) of cells given as lists of face loops.

    Sums signed tets against the origin over each loop's fan from its
    first vertex, all tets in one pass. Each cell's sums run tet by tet
    in face order from 0.0, so a cell's numbers do not depend on the
    cells batched with it.
    """
    loops = [np.asarray(lp, dtype=int) for cl in cell_loops for lp in cl]
    k = np.array([len(lp) for lp in loops], dtype=int)
    n_tri = np.maximum(k - 2, 0)
    ids = np.concatenate(loops or [np.zeros(0, dtype=int)])
    first = np.repeat(np.cumsum(k) - k, n_tri)
    second = (first + 1 + np.arange(n_tri.sum())
              - np.repeat(np.cumsum(n_tri) - n_tri, n_tri))
    p0, p1, p2 = (vertices[ids[i]] for i in (first, second, second + 1))
    # stacked matmul reproduces np.dot's bits; einsum does not
    v = (p0[:, None, :] @ np.cross(p1, p2)[:, :, None])[:, 0, 0] / 6.0
    m = v[:, None] * (p0 + p1 + p2) / 4.0
    # one row per cell: 0.0, its tets in face order, then zero padding
    row = np.repeat(np.repeat(np.arange(len(cell_loops)),
                              [len(cl) for cl in cell_loops]), n_tri)
    per_cell = np.bincount(row, minlength=len(cell_loops))
    col = 1 + np.arange(len(row)) - (np.cumsum(per_cell) - per_cell)[row]
    vol = np.zeros((len(cell_loops), per_cell.max(initial=0) + 1))
    mom = np.zeros(vol.shape + (3,))
    vol[row, col] = v
    mom[row, col] = m
    return np.add.accumulate(vol, axis=1)[:, -1], np.add.accumulate(mom, axis=1)[:, -1]


def cell_volume_centroid(cell: PolyCell, vertices):
    """Exact volume and centroid via signed tets against the origin."""
    vol, mom = _volume_moments(vertices, [cell.faces])
    if vol[0] <= 0.0:
        raise MeshError("non-positive cell volume (orientation?)")
    return vol[0], mom[0] / vol[0]


def _turn_outward(cells, vertices) -> np.ndarray:
    """Reverse every loop of each consistently wound cell that encloses a
    negative signed volume; returns the cells' volumes."""
    vols, _ = _volume_moments(vertices, [cell.faces for cell in cells])
    for cell, vol in zip(cells, vols):
        if vol < 0.0:
            cell.faces[:] = [lp[::-1].copy() for lp in cell.faces]
    return np.abs(vols)


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
# Convex polyhedron clipping (working representation: local verts + loops)
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


def _clip_halfspace(verts, faces, normal, offset, eps):
    """Clip convex polyhedron to {x : normal.x <= offset}.

    Returns (verts, faces) or None when empty; the same objects when
    nothing is cut. Watertight by keying edge intersections on the
    original edge, so both adjacent faces receive the identical cut
    point. Faces are lists of local vertex ids.
    """
    d = (verts @ normal - offset).tolist()
    side = [1 if x > eps else -1 if x < -eps else 0 for x in d]
    if 1 not in side:
        return verts, faces
    if -1 not in side:
        return None

    n_old = len(verts)
    cut_cache = {}
    cuts = []                              # (a, b, t) of each new point

    def cut_point(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in cut_cache:
            cut_cache[key] = n_old + len(cuts)
            cuts.append((a, b, d[a] / (d[a] - d[b])))
        return cut_cache[key]

    new_faces = []
    for loop in faces:
        out = []
        for a, b in zip(loop, loop[1:] + loop[:1]):
            if side[a] <= 0:
                out.append(a)
            if side[a] * side[b] < 0:
                out.append(cut_point(a, b))
        # drop consecutive duplicates
        dedup = [v for j, v in enumerate(out) if v != out[j - 1]]
        if len(dedup) >= 3:
            new_faces.append(dedup)

    # cap face: chain the on-plane edges of the clipped faces, reversed;
    # on the plane are the cut points and the old vertices of side 0
    succ = {}
    for loop in new_faces:
        for a, b in zip(loop, loop[1:] + loop[:1]):
            if ((a >= n_old or side[a] == 0)
                    and (b >= n_old or side[b] == 0)):
                succ[b] = a
    if len(succ) >= 3:
        start = next(iter(succ))
        cap = [start]
        cur = succ[start]
        while cur != start:
            cap.append(cur)
            if len(cap) > len(succ):
                raise MeshError("open cap loop while clipping")
            cur = succ[cur]
        new_faces.append(cap)

    if cuts:
        a, b, t = (np.array(col) for col in zip(*cuts))
        verts = np.vstack([verts, verts[a] + t[:, None] * (verts[b] - verts[a])])
    # compact unused vertices
    used = sorted({v for loop in new_faces for v in loop})
    remap = {v: i for i, v in enumerate(used)}
    return verts[used], [[remap[v] for v in loop] for loop in new_faces]


# ---------------------------------------------------------------------------
# Voronoi generation
# ---------------------------------------------------------------------------

class _PointMerger:
    """Spatial-hash vertex dedup within a max-norm tolerance."""

    def __init__(self, tol: float):
        self.tol = tol
        self.buckets = {}
        self.points = []

    def add(self, points: np.ndarray) -> list:
        """Ids of the (n, 3) points, each the first earlier point within
        tol in the scan of the neighbouring buckets, or a new id."""
        keys = np.floor(points / self.tol).astype(np.int64).tolist()
        return [self._find(p, *key) for p, key in zip(points.tolist(), keys)]

    def _find(self, p, kx, ky, kz) -> int:
        x, y, z = p
        tol = self.tol
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    for idx in self.buckets.get((kx + dx, ky + dy, kz + dz), ()):
                        qx, qy, qz = self.points[idx]
                        if abs(x - qx) <= tol and abs(y - qy) <= tol and abs(z - qz) <= tol:
                            return idx
        idx = len(self.points)
        self.points.append(p)
        self.buckets.setdefault((kx, ky, kz), []).append(idx)
        return idx

    def array(self) -> np.ndarray:
        return np.array(self.points) if self.points else np.zeros((0, 3))


def _voronoi_cells(seeds: np.ndarray, L: float):
    """Clip the cube per seed by nearest-first bisector planes."""
    n = len(seeds)
    eps = TAU_MERGE * L
    cells = []
    for i in range(n):
        verts, faces = _cube_poly(L)
        if n > 1:
            dist = np.linalg.norm(seeds - seeds[i], axis=1)
            with np.errstate(invalid="ignore"):      # row i, never read
                normals = (seeds - seeds[i]) / dist[:, None]
            offsets = (normals[:, None, :]
                       @ (seeds[i] + seeds)[:, :, None])[:, 0, 0] / 2.0
            half = (dist / 2.0).tolist()
            # security radius: farther bisectors cannot cut
            radius = np.max(np.linalg.norm(verts - seeds[i], axis=1))
            for j in np.argsort(dist).tolist():
                if j == i:
                    continue
                if half[j] > radius:
                    break
                clipped = _clip_halfspace(verts, faces, normals[j], offsets[j], eps)
                if clipped is None:
                    raise MeshError(f"seed {i} produced an empty Voronoi cell")
                if clipped[0] is not verts:
                    verts, faces = clipped
                    radius = np.max(np.linalg.norm(verts - seeds[i], axis=1))
        cells.append((verts, faces))
    return cells


def generate_voronoi(seeds, L: float, lloyd: int = 0) -> PolyMesh:
    """Voronoi tessellation of [0, L]^3, one convex cell per seed.

    Cells are the cube clipped by seed-pair bisector half-spaces (pruned
    by a nearest-first security-radius bound); shared faces conform and
    vertices are merged within TAU_MERGE*L. lloyd > 0 applies that many
    Lloyd relaxation steps (seeds moved to cell centroids) before the
    final tessellation.
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
        raw = _voronoi_cells(pts, L)
        shift = np.cumsum([0] + [len(verts) for verts, _ in raw])
        vols, moms = _volume_moments(
            np.vstack([verts for verts, _ in raw]),
            [[np.asarray(f) + s for f in faces] for (_, faces), s in zip(raw, shift)])
        if np.any(vols <= 0.0):
            raise MeshError("non-positive cell volume (orientation?)")
        pts = moms / vols[:, None]

    raw = _voronoi_cells(pts, L)
    merger = _PointMerger(TAU_MERGE * L)
    cells = []
    for ci, (verts, faces) in enumerate(raw):
        gids = merger.add(verts)
        loops = []
        for loop in faces:
            g = [gids[v] for v in loop]
            # merging may collapse sliver edges
            g = [v for k, v in enumerate(g) if v != g[k - 1]]
            if len(set(g)) >= 3:
                loops.append(np.array(g, dtype=int))
        cell = PolyCell(np.unique(np.concatenate(loops)), loops, material_id=0)
        cells.append(cell)

    mesh = PolyMesh(merger.array(), cells, float(L))
    _finalize_cells(mesh)
    return mesh


def _finalize_cells(mesh: PolyMesh):
    """Orient faces outward, cache volumes, validate closure, and build
    the face table."""
    for cell in mesh.cells:
        _wind_consistently(cell)
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


def cell_watertight(cell: PolyCell) -> bool:
    """Each edge used exactly twice, in opposite directions."""
    count = {}
    for loop in cell.faces:
        k = len(loop)
        for i in range(k):
            a, b = int(loop[i]), int(loop[(i + 1) % k])
            count[(a, b)] = count.get((a, b), 0) + 1
    for (a, b), c in count.items():
        if c != 1 or count.get((b, a), 0) != 1:
            return False
    return True


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
    for i, v in enumerate(mesh.vertices):
        lines.append(f"{i} {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    lines.append(f"CELLS {len(mesh.cells)}")
    for i, cell in enumerate(mesh.cells):
        lines.append(f"{i} {cell.material_id} {len(cell.faces)}")
    lines.append("FACES")
    for i, cell in enumerate(mesh.cells):
        for loop in cell.faces:
            lines.append(f"{i} " + " ".join(str(int(v)) for v in loop))
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
        for ci, cell in enumerate(mesh.cells):
            if not cell_watertight(cell):
                raise MeshError("not watertight", ci)
            if not planar[t.of_cell(ci)[0]].all():
                raise MeshError("non-planar face", ci)
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
    """Stable content hash used for caching and provenance."""
    return hashlib.sha256(write_mesh(mesh).encode()).hexdigest()
