"""Identity pins of the mesh front end: vertex numbering, fan tets and
cell volumes must not move by a bit.

The digests were taken from the per-face implementation that the batched
clipping, volume pass and face fans replaced. A change that moves one of
them changes the FEM and beta > 0 numbers, so it has to be deliberate.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from polyvem import mesh as pm
from polyvem.element_fem import promote_to_quadratic

# (n grains, seed, lloyd steps) -> sha256 of mesh_hash, of the fan
# (int64 tets bytes then volumes bytes of every cell in order), and of
# the float64 array of cell volumes
PINS = {
    (6, 3, 0): (
        "fb61b88d47d331add709452f6c8d7a588f5282eff7ab9ce78f0fde692088c5db",
        "83563bbc9aa67d51f12ebdb2fe9a1ef1af1c8bad3ab2f2b686985b86dbc9c006",
        "e8df0ed1083296ff771b58245df8da75c18eb6d20707129bab326971c7186a65"),
    (20, 101, 0): (
        "a0798a724b1a00e471ca25b559babd359a686f2fcce8aa814fbdd72ef25758c5",
        "83059af16e46a18b6ec4ca2cd5932115edc059495951d70138babd4020a8baf1",
        "fedf64b68f74a209332d26a3df9ce045e79051649acb4a68aa73c584f143599a"),
    (100, 101, 0): (
        "8c0d5d8cd669c5b4fb7a7fbdbfcfe01df9ee7b86fce765cd3aa975f19e15a66d",
        "da9134c7507dc27e44d1a33b5ec4cc3b5a56f6c9613c8bf269308c15b1be3efb",
        "2ad22fad913f0655cf10ccb94d58b2b817bd75b8c0cf43c1180d9f4af123cce8"),
    (20, 11, 2): (
        "85f96611471bc74c37d3fd0537a0ac0d4cec6b77a4edcda5ffe07f79ba690211",
        "3e0d76bb19a51d1bc092c8e3955431aa34f37737e71778ae45e1af24ca3e3e66",
        "2b95426cba005637582545664cbb4a6519e359014890bd7c9d8ce44cc0ae31e4"),
}


def fan_digest(mesh, triangulate):
    h = hashlib.sha256()
    for c in range(len(mesh.cells)):
        sub = triangulate(mesh, c)
        h.update(np.ascontiguousarray(sub.tets, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(sub.volumes, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("n,seed,lloyd", sorted(PINS))
def test_mesh_numbering_fans_and_volumes_are_pinned(n, seed, lloyd):
    mesh = pm.generate_voronoi(pm.random_seeds(n, 1.0, seed).seeds, 1.0, lloyd)
    volumes = np.array([cell.volume for cell in mesh.cells], dtype=np.float64)
    got = (pm.mesh_hash(mesh), fan_digest(mesh, pm.triangulate_cell),
           hashlib.sha256(volumes.tobytes()).hexdigest())
    assert got == PINS[n, seed, lloyd]


# ---------------------------------------------------------------------------
# Frozen copies of the per-tet volume loop, the per-cell, per-face
# triangulation and the per-tet red refinement that the batched volume
# pass, face_fans and edge_midpoints replaced
# ---------------------------------------------------------------------------

def frozen_volume_centroid(cell, vertices):
    vol = 0.0
    mom = np.zeros(3)
    for loop in cell.faces:
        pts = vertices[loop]
        p0 = pts[0]
        for i in range(1, len(pts) - 1):
            v = np.dot(p0, np.cross(pts[i], pts[i + 1])) / 6.0
            vol += v
            mom += v * (p0 + pts[i] + pts[i + 1]) / 4.0
    return vol, mom / vol


def frozen_triangulate_face(loop, vertices, normal):
    loop = np.asarray(loop, dtype=int)
    pivot = int(np.argmin(loop))
    canon = np.roll(loop, -pivot)
    flipped = False
    if len(canon) > 2 and canon[-1] < canon[1]:
        canon = np.concatenate([canon[:1], canon[1:][::-1]])
        flipped = True
    pts = vertices[canon]
    drop = int(np.argmax(np.abs(normal)))
    keep = [ax for ax in range(3) if ax != drop]
    pts2d = pts[:, keep]
    v1 = pts2d - np.roll(pts2d, 1, axis=0)
    v2 = np.roll(pts2d, -1, axis=0) - pts2d
    turns = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
    scale2 = max(np.ptp(pts2d[:, 0]), np.ptp(pts2d[:, 1])) ** 2
    if np.all(turns >= -1e-12 * scale2) or np.all(turns <= 1e-12 * scale2):
        tris = [(0, i, i + 1) for i in range(1, len(canon) - 1)]
    else:
        tris = pm._ear_clip(pts2d)
    out = [(int(canon[a]), int(canon[b]), int(canon[c])) for a, b, c in tris]
    if flipped:
        out = [(a, c, b) for a, b, c in out]
    return out


def frozen_triangulate_cell(mesh, cell_id):
    cell = mesh.cells[cell_id]
    apex = int(cell.vertex_ids.min())
    face_ids, _ = mesh.faces.of_cell(cell_id)
    face_tris = [frozen_triangulate_face(loop, mesh.vertices, mesh.faces.normal[f])
                 for loop, f in zip(cell.faces, face_ids)]
    tets = []
    for loop, tris in zip(cell.faces, face_tris):
        if apex in set(int(v) for v in loop):
            continue
        for (a, b, c) in tris:
            tets.append((a, c, b, apex))
    tets = np.array(tets, dtype=int)
    vols = pm._tet_volumes(mesh.vertices, tets)
    ok = len(tets) > 0 and np.all(vols > 0.0) and \
        abs(vols.sum() - cell.volume) <= 1e-10 * cell.volume
    if ok:
        return pm.TetSubmesh(cell_id, tets, vols, mesh.n_vertices, np.zeros((0, 3)))
    _, cent = frozen_volume_centroid(cell, mesh.vertices)
    cid = mesh.n_vertices
    tets = np.array([(a, c, b, cid) for tris in face_tris for (a, b, c) in tris],
                    dtype=int)
    vols = pm._tet_volumes(np.vstack([mesh.vertices, cent[None, :]]), tets)
    return pm.TetSubmesh(cell_id, tets, vols, mesh.n_vertices, cent[None, :],
                         fallback=True)


def stacked_l_prisms():
    """Native text of the cube [0, 2]^3 as two layers, each an L-shaped
    prism and the unit cube filling its notch. The L faces are not
    convex, and each prism's lowest vertex cannot see its far arm."""
    base = [(2, 1), (2, 0), (0, 0), (0, 2), (1, 2), (1, 1), (2, 2)]
    verts = [(x, y, z) for z in range(3) for x, y in base]

    def prism(ring, layer):
        lo = [v + 7 * layer for v in ring]
        hi = [v + 7 for v in lo]
        sides = [[lo[i], lo[(i + 1) % len(ring)], hi[(i + 1) % len(ring)], hi[i]]
                 for i in range(len(ring))]
        loops = [np.array(lp) for lp in [lo, hi[::-1]] + sides]
        return pm.PolyCell(np.unique(np.concatenate(loops)), loops)

    cells = [prism(ring, layer) for layer in range(2)
             for ring in ([0, 1, 2, 3, 4, 5], [5, 0, 6, 4])]
    mesh = pm.PolyMesh(np.array(verts, dtype=float), cells, 2.0)
    pm._finalize_cells(mesh)
    return pm.write_mesh(mesh)


def assert_same_submesh(got, want):
    assert got.fallback == want.fallback
    for name in ("tets", "volumes", "extra_vertices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name


def test_parsed_nonconvex_cells_match_the_per_face_path(monkeypatch):
    clips = []

    def counting_ear_clip(pts2d):
        clips.append(len(pts2d))
        return ear_clip(pts2d)

    ear_clip = pm._ear_clip
    monkeypatch.setattr(pm, "_ear_clip", counting_ear_clip)
    mesh = pm.read_mesh(stacked_l_prisms())
    subs = [pm.triangulate_cell(mesh, c) for c in range(len(mesh.cells))]
    # the three L faces (bottom, shared middle, top), each clipped once
    assert clips == [6, 6, 6]
    assert [sub.fallback for sub in subs] == [True, False, True, False]
    for c, sub in enumerate(subs):
        assert_same_submesh(sub, frozen_triangulate_cell(mesh, c))


@pytest.mark.parametrize("n,seed", [(20, 101), (50, 7)])
def test_voronoi_fans_match_the_per_face_path(n, seed):
    mesh = pm.generate_voronoi(pm.random_seeds(n, 1.0, seed).seeds, 1.0)
    for c in range(len(mesh.cells)):
        assert_same_submesh(pm.triangulate_cell(mesh, c),
                            frozen_triangulate_cell(mesh, c))


def test_batched_volume_pass_matches_the_per_tet_loop():
    mesh = pm.generate_voronoi(pm.random_seeds(20, 1.0, 101).seeds, 1.0)
    parsed = pm.read_mesh(stacked_l_prisms())
    for m in (mesh, parsed):
        for cell in m.cells:
            got = pm.cell_volume_centroid(cell, m.vertices)
            want = frozen_volume_centroid(cell, m.vertices)
            assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert np.float64(cell.volume).tobytes() == np.float64(want[0]).tobytes()


def frozen_refine_once(points, tets):
    pts = [points]
    nid = len(points)
    cache = {}

    def mid(a, b):
        nonlocal nid
        key = (a, b) if a < b else (b, a)
        if key not in cache:
            pts.append((points[a] + points[b])[None, :] / 2.0)
            cache[key] = nid
            nid += 1
        return cache[key]

    out = np.empty((len(tets) * 8, 4), dtype=int)
    for k, (v0, v1, v2, v3) in enumerate(tets):
        m01, m02, m03 = mid(v0, v1), mid(v0, v2), mid(v0, v3)
        m12, m13, m23 = mid(v1, v2), mid(v1, v3), mid(v2, v3)
        out[8 * k:8 * k + 8] = [
            (v0, m01, m02, m03), (v1, m01, m12, m13),
            (v2, m02, m12, m23), (v3, m03, m13, m23),
            (m02, m13, m01, m03), (m02, m13, m03, m23),
            (m02, m13, m23, m12), (m02, m13, m12, m01),
        ]
    all_pts = np.vstack(pts)
    vols = pm._tet_volumes(all_pts, out)
    flip = vols < 0.0
    out[flip] = out[flip][:, [0, 1, 3, 2]]
    return all_pts, out


@pytest.mark.parametrize("n,seed", [(6, 3), (20, 101), (50, 7)])
def test_refinement_and_promotion_match_the_per_tet_loop(n, seed):
    mesh = pm.generate_voronoi(pm.random_seeds(n, 1.0, seed).seeds, 1.0)
    tmesh = pm.union_submeshes(
        mesh, [pm.triangulate_cell(mesh, c) for c in range(len(mesh.cells))])
    points, tets = tmesh.vertices, tmesh.tets
    for level in (1, 2):
        points, tets = frozen_refine_once(points, tets)
        got = pm.refine_tet_mesh(tmesh, level)
        assert got.vertices.tobytes() == points.tobytes()
        assert got.tets.dtype == tets.dtype
        assert got.tets.tobytes() == tets.tobytes()
        assert got.cell_of_tet.tolist() == np.repeat(
            tmesh.cell_of_tet, 8 ** level).tolist()
    # promotion numbers the same midpoints as the first refinement
    points, tets = frozen_refine_once(tmesh.vertices, tmesh.tets)
    promoted = promote_to_quadratic(tmesh)
    assert promoted.vertices.tobytes() == points.tobytes()
    a, b = np.array(pm._EDGE_LOCAL).T
    mids = (tmesh.vertices[tmesh.tets[:, a]] + tmesh.vertices[tmesh.tets[:, b]]) / 2.0
    assert promoted.vertices[promoted.tets[:, 4:]].tobytes() == mids.tobytes()


# ---------------------------------------------------------------------------
# Frozen copy of the per-cell clipper that the lockstep one replaced
# ---------------------------------------------------------------------------

def frozen_clip_halfspace(verts, faces, normal, offset, eps):
    d = (verts @ normal - offset).tolist()
    side = [1 if x > eps else -1 if x < -eps else 0 for x in d]
    if 1 not in side:
        return verts, faces
    if -1 not in side:
        return None
    n_old = len(verts)
    cut_cache = {}
    cuts = []

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
        dedup = [v for j, v in enumerate(out) if v != out[j - 1]]
        if len(dedup) >= 3:
            new_faces.append(dedup)
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
                raise pm.MeshError("open cap loop while clipping")
            cur = succ[cur]
        new_faces.append(cap)
    if cuts:
        a, b, t = (np.array(col) for col in zip(*cuts))
        verts = np.vstack([verts, verts[a] + t[:, None] * (verts[b] - verts[a])])
    used = sorted({v for loop in new_faces for v in loop})
    remap = {v: i for i, v in enumerate(used)}
    return verts[used], [[remap[v] for v in loop] for loop in new_faces]


def frozen_voronoi_cells(seeds, L):
    n = len(seeds)
    eps = pm.TAU_MERGE * L
    cells = []
    for i in range(n):
        verts, faces = pm._cube_poly(L)
        if n > 1:
            dist = np.linalg.norm(seeds - seeds[i], axis=1)
            with np.errstate(invalid="ignore"):
                normals = (seeds - seeds[i]) / dist[:, None]
            offsets = (normals[:, None, :]
                       @ (seeds[i] + seeds)[:, :, None])[:, 0, 0] / 2.0
            half = (dist / 2.0).tolist()
            radius = np.max(np.linalg.norm(verts - seeds[i], axis=1))
            for j in np.argsort(dist).tolist():
                if j == i:
                    continue
                if half[j] > radius:
                    break
                clipped = frozen_clip_halfspace(verts, faces, normals[j],
                                                offsets[j], eps)
                if clipped is None:
                    raise pm.MeshError(f"seed {i} produced an empty Voronoi cell")
                if clipped[0] is not verts:
                    verts, faces = clipped
                    radius = np.max(np.linalg.norm(verts - seeds[i], axis=1))
        cells.append((verts, faces))
    return cells


def per_cell(flat):
    """The lockstep clipper's flat cells as the per-cell clipper's list of
    (verts, faces), faces as lists of local vertex ids."""
    verts, n_verts, loops, sizes, n_faces = flat
    ids, ends = loops.tolist(), np.cumsum(sizes).tolist()
    faces = [ids[e - k:e] for e, k in zip(ends, sizes.tolist())]
    at, vat = np.cumsum(n_faces).tolist(), np.cumsum(n_verts).tolist()
    return [(verts[v - nv:v], faces[f - nf:f]) for v, nv, f, nf
            in zip(vat, n_verts.tolist(), at, n_faces.tolist())]


def outcome(cells_of, seeds):
    try:
        return cells_of(seeds, 1.0)
    except pm.MeshError as exc:
        return repr(exc)
    except KeyError:
        # the per-cell cap chain stepped off its dict; the lockstep
        # clipper reports that as the open cap it is
        return repr(pm.MeshError("open cap loop while clipping"))


def assert_same_cells(seeds):
    got, want = outcome(pm._voronoi_cells, seeds), outcome(frozen_voronoi_cells, seeds)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    got = per_cell(got)
    assert len(got) == len(want)
    for (gv, gf), (wv, wf) in zip(got, want):
        assert gv.shape == wv.shape and np.array_equal(gv, wv)
        assert gf == wf


# ---------------------------------------------------------------------------
# The seed families that the clipper and the front end after it are both
# checked on: each parametrization below feeds one test of each
# ---------------------------------------------------------------------------

ON_PINS = pytest.mark.parametrize("n,seed,lloyd", sorted(PINS))


def pin_iterates(n, seed, lloyd, monkeypatch):
    """The seeds of every Lloyd iterate of a pinned mesh, its last
    tessellation's included."""
    calls = []

    def recording(seeds, L):
        calls.append(seeds.copy())
        return cells_of(seeds, L)

    cells_of = pm._voronoi_cells
    monkeypatch.setattr(pm, "_voronoi_cells", recording)
    pm.generate_voronoi(pm.random_seeds(n, 1.0, seed).seeds, 1.0, lloyd)
    monkeypatch.undo()
    assert len(calls) == lloyd + 1
    return calls


RANDOM_CASES = [(int(n), 1000 + i) for i, n in enumerate(
    np.random.default_rng(30).integers(2, 151, size=20))]
ON_RANDOM_SEEDS = pytest.mark.parametrize("n,seed", RANDOM_CASES)


def lattice(m):
    ticks = (np.arange(m) + 0.5) / m
    return np.stack(np.meshgrid(ticks, ticks, ticks, indexing="ij"),
                    axis=-1).reshape(-1, 3)


def jittered_lattice(m, jitter):
    rng = np.random.default_rng(m)
    return lattice(m) + jitter * rng.uniform(-1.0, 1.0, (m ** 3, 3))


def on_lattices(test):
    # at 1e-9 and 2e-9 the jitter is of the order of the side tolerance:
    # some cells' on-plane edges are not one cycle, and some caps do not
    # close
    return pytest.mark.parametrize("m", [2, 3, 4])(
        pytest.mark.parametrize("jitter", [0.0, 1e-12, 1e-9, 2e-9])(test))


ON_COPLANAR = pytest.mark.parametrize("n", [3, 8, 15])


def coplanar_seeds(n):
    """Random seeds on the plane z = 1/2, and a regular polygon there:
    every cell's bisectors meet on the axis."""
    rng = np.random.default_rng(n)
    angle = 2.0 * np.pi * np.arange(n) / n
    return [np.column_stack([rng.uniform(0.05, 0.95, (n, 2)), np.full(n, 0.5)]),
            np.column_stack([0.5 + 0.3 * np.cos(angle), 0.5 + 0.3 * np.sin(angle),
                             np.full(n, 0.5)])]


def on_drawn_seeds(test):
    return settings(max_examples=25, derandomize=True, deadline=None,
                    database=None)(given(
        points=st.lists(st.tuples(*[st.floats(0.01, 0.99)] * 3),
                        min_size=2, max_size=30),
        grid=st.sampled_from([0.0, 0.125, 0.25]))(test))


def drawn_seeds(points, grid):
    """The distinct drawn points, snapped to the grid when there is one
    (ties and on-plane vertices); None for fewer than two."""
    seeds = np.array(points)
    if grid:
        seeds = np.clip(np.round(seeds / grid) * grid, grid / 2, 1 - grid / 2)
    seeds = np.unique(seeds, axis=0)
    return seeds if len(seeds) >= 2 else None


@ON_PINS
def test_lockstep_clipper_matches_the_per_cell_one_on_the_pins(
        n, seed, lloyd, monkeypatch):
    for seeds in pin_iterates(n, seed, lloyd, monkeypatch):
        assert_same_cells(seeds)


@ON_RANDOM_SEEDS
def test_lockstep_clipper_matches_the_per_cell_one_on_random_seeds(n, seed):
    assert_same_cells(pm.random_seeds(n, 1.0, seed).seeds)


@on_lattices
def test_lockstep_clipper_matches_the_per_cell_one_on_lattices(m, jitter):
    assert_same_cells(jittered_lattice(m, jitter))


def test_cells_off_one_cap_cycle_take_the_dict_chain(monkeypatch):
    chains = []

    def counting(pairs):
        chains.append(1)
        return close_cap(pairs)

    close_cap = pm._close_cap
    monkeypatch.setattr(pm, "_close_cap", counting)
    seeds = jittered_lattice(3, 1e-9)
    assert not isinstance(outcome(pm._voronoi_cells, seeds), str)
    assert chains
    assert_same_cells(seeds)


@ON_COPLANAR
def test_lockstep_clipper_matches_the_per_cell_one_on_coplanar_seeds(n):
    for seeds in coplanar_seeds(n):
        assert_same_cells(seeds)


@on_drawn_seeds
def test_lockstep_clipper_matches_the_per_cell_one_property(points, grid):
    seeds = drawn_seeds(points, grid)
    if seeds is not None:
        assert_same_cells(seeds)


# ---------------------------------------------------------------------------
# Frozen copies of the per-point vertex merger, the per-face compaction,
# the per-cell winding traversal, the dict-keyed face table and the
# per-entry native text that the array passes after the clip replaced
# ---------------------------------------------------------------------------

class FrozenPointMerger:
    def __init__(self, tol):
        self.tol = tol
        self.buckets = {}
        self.points = []

    def add(self, points):
        keys = np.floor(points / self.tol).astype(np.int64).tolist()
        return [self._find(p, *key) for p, key in zip(points.tolist(), keys)]

    def _find(self, p, kx, ky, kz):
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

    def array(self):
        return np.array(self.points) if self.points else np.zeros((0, 3))


def frozen_merged_cells(raw, tol):
    merger = FrozenPointMerger(tol)
    cells = []
    for verts, faces in raw:
        gids = merger.add(verts)
        loops = []
        for loop in faces:
            g = [gids[v] for v in loop]
            g = [v for k, v in enumerate(g) if v != g[k - 1]]
            if len(set(g)) >= 3:
                loops.append(np.array(g, dtype=int))
        cells.append(pm.PolyCell(np.unique(np.concatenate(loops)), loops))
    return merger.array(), cells


def frozen_wind_consistently(cell):
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
                flip[fj] = stored != (b, a)
                stack.append(fj)
    if any(f is None for f in flip):
        raise pm.MeshError("cell surface is not edge-connected")
    cell.faces[:] = [lp[::-1].copy() if fl else lp
                     for lp, fl in zip(loops, flip)]


def frozen_cell_watertight(cell):
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


def frozen_face_table(mesh):
    index, face_loops, owners, refs, signs = {}, [], [], [], []
    for ci, cell in enumerate(mesh.cells):
        for loop in cell.faces:
            lp = [int(v) for v in loop]
            if len(lp) < 3:
                raise pm.MeshError(f"face with {len(lp)} vertices", ci)
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
    cell_offsets = np.concatenate(
        [[0], np.cumsum([len(cell.faces) for cell in mesh.cells])])
    return dict(loops=np.array([v for lp in face_loops for v in lp], dtype=int),
                offsets=offsets,
                owners=np.array(owners, dtype=int).reshape(-1, 2),
                cell_offsets=cell_offsets, cell_faces=np.array(refs, dtype=int),
                cell_signs=np.array(signs, dtype=int))


def frozen_finalize_cells(mesh):
    for cell in mesh.cells:
        frozen_wind_consistently(cell)
    vols = pm._turn_outward(mesh.cells, mesh.vertices)
    total = 0.0
    for ci, (cell, vol) in enumerate(zip(mesh.cells, vols)):
        if vol < pm.EPS_VOL * mesh.edge_length ** 3:
            raise pm.MeshError(f"degenerate (volume {vol:g})", ci)
        cell.volume = vol
        total += vol
    L3 = mesh.edge_length ** 3
    if abs(total - L3) > 1e-10 * L3:
        raise pm.MeshError(f"cell volumes sum to {total:.15g}, expected {L3:.15g}")
    return frozen_face_table(mesh)


def frozen_native_payload(mesh):
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


def frozen_front_end(seeds, L):
    """The mesh of one tessellation, merged, compacted, wound and keyed
    as before; the clip is the lockstep one."""
    if len(seeds) > 1 and pdist(seeds).min() <= pm.TAU_MERGE * L:
        raise pm.MeshError("coincident seeds")
    raw = per_cell(pm._voronoi_cells(seeds, L))
    mesh = pm.PolyMesh(*frozen_merged_cells(raw, pm.TAU_MERGE * L), float(L))
    return mesh, frozen_finalize_cells(mesh)


def assert_same_mesh(got, want, table):
    assert got.vertices.dtype == want.vertices.dtype
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert len(got.cells) == len(want.cells)
    for g, w in zip(got.cells, want.cells):
        assert np.array_equal(g.vertex_ids, w.vertex_ids)
        assert len(g.faces) == len(w.faces)
        for gl, wl in zip(g.faces, w.faces):
            assert np.asarray(gl).dtype == wl.dtype and np.array_equal(gl, wl)
        assert np.float64(g.volume).tobytes() == np.float64(w.volume).tobytes()
    t = got.faces
    for name, want_array in table.items():
        got_array = getattr(t, name)
        assert got_array.dtype == want_array.dtype, name
        assert np.array_equal(got_array, want_array), name
    assert pm._native_payload(got) == frozen_native_payload(want)


def assert_same_front_end(seeds):
    try:
        want = frozen_front_end(seeds, 1.0)
    except pm.MeshError as exc:
        with pytest.raises(pm.MeshError) as got:
            pm.generate_voronoi(seeds, 1.0)
        assert repr(got.value) == repr(exc)
        return
    except KeyError:
        with pytest.raises(pm.MeshError, match="^open cap loop while clipping$"):
            pm.generate_voronoi(seeds, 1.0)
        return
    assert_same_mesh(pm.generate_voronoi(seeds, 1.0), *want)


@ON_PINS
def test_front_end_matches_the_per_face_one_on_the_pins(n, seed, lloyd, monkeypatch):
    for seeds in pin_iterates(n, seed, lloyd, monkeypatch):
        assert_same_front_end(seeds)


@ON_RANDOM_SEEDS
def test_front_end_matches_the_per_face_one_on_random_seeds(n, seed):
    assert_same_front_end(pm.random_seeds(n, 1.0, seed).seeds)


@on_lattices
def test_front_end_matches_the_per_face_one_on_lattices(m, jitter):
    assert_same_front_end(jittered_lattice(m, jitter))


@pytest.mark.parametrize("m,jitter", [(3, 2e-9), (4, 1e-9), (4, 2e-9)])
def test_lattices_near_the_side_tolerance_still_cannot_be_built(m, jitter):
    with pytest.raises(pm.MeshError, match="^open cap loop while clipping$"):
        pm.generate_voronoi(jittered_lattice(m, jitter), 1.0)


@ON_COPLANAR
def test_front_end_matches_the_per_face_one_on_coplanar_seeds(n):
    for seeds in coplanar_seeds(n):
        assert_same_front_end(seeds)


@on_drawn_seeds
def test_front_end_matches_the_per_face_one_property(points, grid):
    seeds = drawn_seeds(points, grid)
    if seeds is not None:
        assert_same_front_end(seeds)


def test_merge_keeps_the_bucket_scan_choice_and_chains():
    tol = pm.TAU_MERGE
    p = np.full((8, 3), 0.5)
    # two kept points within tol of a third: the merger takes the one in
    # the first bucket of its scan (x offset -1), not the first kept
    p[0, 0] += 1.5 * tol
    p[1, 0] -= 0.1 * tol
    p[2, 0] += 0.75 * tol
    # the same along z, where the scan runs last
    p[3:6] = p[0:3] + [0.0, 0.3, 0.0]
    p[3:6, [0, 2]] = p[3:6, [2, 0]]
    # a chain: the middle point merges into the first, so the last, out
    # of the first's reach, keeps its own id
    p[6] = p[0] + [0.0, 0.0, 0.2]
    p[7] = p[6] + [0.9 * tol, 0.0, 0.0]
    p = np.vstack([p, p[7] + [0.9 * tol, 0.0, 0.0]])
    merger = FrozenPointMerger(tol)
    want = merger.add(p)
    assert want == [0, 1, 1, 2, 3, 3, 4, 4, 5]
    ids, kept = pm._merge_points(p, tol)
    assert ids.tolist() == want
    assert kept.tobytes() == merger.array().tobytes()


def test_collapsed_faces_and_sliver_edges_go_as_before():
    tol = pm.TAU_MERGE
    # a triangular prism whose edges (0, 1) and (3, 4) are slivers: both
    # triangles and the quad between the slivers collapse
    prism = np.array([[0.2, 0.2, 0.2], [0.2, 0.2, 0.2], [0.6, 0.2, 0.2],
                      [0.2, 0.2, 0.6], [0.2, 0.2, 0.6], [0.6, 0.2, 0.6]])
    prism[1, 1] += 0.5 * tol
    prism[4, 1] += 0.5 * tol
    prism_faces = [[0, 2, 1], [3, 4, 5], [0, 1, 4, 3], [1, 2, 5, 4], [2, 0, 3, 5]]
    # a triangle whose first loop revisits a vertex: 3 distinct ids, kept
    triangle = np.array([[0.7, 0.7, 0.7], [0.9, 0.7, 0.7], [0.9, 0.9, 0.7]])
    triangle_faces = [[0, 1, 0, 2], [0, 2, 1]]
    raw = [(prism, prism_faces), (triangle, triangle_faces)]
    verts = np.vstack([prism, triangle])
    loops = np.concatenate([np.concatenate(f) for f in (prism_faces, triangle_faces)])
    sizes = np.array([len(f) for f in prism_faces + triangle_faces])
    got_verts, got = pm._merged_cells(verts, np.array([6, 3]), loops, sizes,
                                      np.array([5, 2]), tol)
    want_verts, want = frozen_merged_cells(raw, tol)
    assert [len(cell.faces) for cell in got] == [2, 2]
    assert got_verts.tobytes() == want_verts.tobytes()
    for g, w in zip(got, want):
        assert np.array_equal(g.vertex_ids, w.vertex_ids)
        assert [lp.tolist() for lp in g.faces] == [lp.tolist() for lp in w.faces]


def cube_cell(offset=0):
    faces = [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4],
             [2, 3, 7, 6], [0, 4, 7, 3], [1, 2, 6, 5]]
    loops = [np.array(f) + offset for f in faces]
    return pm.PolyCell(np.unique(np.concatenate(loops)), loops)


def cube_vertices(lo, hi):
    (x0, y0, z0), (x1, y1, z1) = lo, hi
    return np.array([[x0, y0, z0], [x1, y0, z0], [x1, y1, z0], [x0, y1, z0],
                     [x0, y0, z1], [x1, y0, z1], [x1, y1, z1], [x0, y1, z1]])


def twin_meshes(cells, vertices, L):
    return [pm.PolyMesh(vertices, [pm.PolyCell(c.vertex_ids, [lp.copy() for lp in c.faces])
                                   for c in cells], L) for _ in range(2)]


def test_reversed_loops_are_rewound_as_before():
    # one loop reversed in the first cell, every loop in the second
    cells = [cube_cell(), cube_cell(8)]
    cells[0].faces[2] = cells[0].faces[2][::-1].copy()
    cells[1].faces[:] = [lp[::-1].copy() for lp in cells[1].faces]
    vertices = np.vstack([cube_vertices((0, 0, 0), (1, 1, 0.5)),
                          cube_vertices((0, 0, 0.5), (1, 1, 1))])
    got, want = twin_meshes(cells, vertices, 1.0)
    assert [pm.cell_watertight(c) for c in got.cells] == [False, True]
    assert [frozen_cell_watertight(c) for c in got.cells] == [False, True]
    pm._finalize_cells(got)
    assert_same_mesh(got, want, frozen_finalize_cells(want))
    assert got.cells[0].faces[2].tolist() == [0, 1, 5, 4]


def test_split_cell_surface_fails_as_before():
    # one cell made of two closed cubes: watertight, but not one surface
    cells = [cube_cell(), cube_cell(8)]
    cells = [pm.PolyCell(np.arange(16), cells[0].faces + cells[1].faces)]
    vertices = np.vstack([cube_vertices((0, 0, 0), (1, 1, 0.5)),
                          cube_vertices((0, 0, 0.5), (1, 1, 1))])
    got, want = twin_meshes(cells, vertices, 1.0)
    assert pm.cell_watertight(got.cells[0]) and frozen_cell_watertight(want.cells[0])
    with pytest.raises(pm.MeshError, match="^cell surface is not edge-connected$"):
        frozen_finalize_cells(want)
    with pytest.raises(pm.MeshError, match="^cell surface is not edge-connected$"):
        pm._finalize_cells(got)


@pytest.mark.parametrize("faces", [
    [[0, 1, 2], [0, 2, 1]],                # a closed two-sided triangle
    [[0, 1, 2], [0, 2, 1], [0, 1, 2]],     # a face twice
    [[0, 1, 2, 1]],                        # a loop that doubles back
    [[0, 1], [1, 0]],
    [[3]],
    [],
])
def test_watertight_check_matches_the_edge_count(faces):
    cell = pm.PolyCell(np.arange(4), [np.array(f, dtype=int) for f in faces])
    assert pm.cell_watertight(cell) == frozen_cell_watertight(cell)
    assert pm.watertight_cells([cell, cube_cell()]).tolist() == [
        frozen_cell_watertight(cell), True]
