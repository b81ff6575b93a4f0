"""Mesh module tests: oracle values are frozen or computed independently."""

import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvem import mesh as pm
from polyvem.element_fem import TetMeshO2


def grid_mesh_oracle(L):
    """Direct 2x2x2 sub-cube construction (independent of the clipper)."""
    h = L / 2.0
    coords = np.array([[i * h, j * h, k * h]
                       for k in range(3) for j in range(3) for i in range(3)])
    vid = lambda i, j, k: i + 3 * j + 9 * k
    cells = []
    for ck in range(2):
        for cj in range(2):
            for ci in range(2):
                c = [vid(ci + a, cj + b, ck + d)
                     for d in range(2) for b in range(2) for a in range(2)]
                # local corners 0..7 of the sub-cube, same layout as _cube_poly
                lv = [c[0], c[1], c[3], c[2], c[4], c[5], c[7], c[6]]
                faces = [np.array([lv[0], lv[3], lv[2], lv[1]]),
                         np.array([lv[4], lv[5], lv[6], lv[7]]),
                         np.array([lv[0], lv[1], lv[5], lv[4]]),
                         np.array([lv[2], lv[3], lv[7], lv[6]]),
                         np.array([lv[0], lv[4], lv[7], lv[3]]),
                         np.array([lv[1], lv[2], lv[6], lv[5]])]
                cells.append(pm.PolyCell(np.unique(np.concatenate(faces)), faces))
    m = pm.PolyMesh(coords, cells, L)
    pm._finalize_cells(m)
    return m


def single_cell_mesh(verts, faces, L):
    cells = [pm.PolyCell(np.unique(np.concatenate([np.asarray(f) for f in faces])),
                         [np.asarray(f, dtype=int) for f in faces])]
    m = pm.PolyMesh(np.asarray(verts, dtype=float), cells, L)
    pm._wind_consistently(m.cells[0])
    m.cells[0].volume = pm._turn_outward(m.cells, m.vertices)[0]
    return m


def locate(mesh, point) -> int:
    """Containing cell id of a point (convex cells), or -1: the first
    cell with the point below all its outward face planes."""
    t = mesh.faces
    outward = t.normal[t.cell_faces] * t.cell_signs[:, None]
    offset = np.einsum("ij,ij->i", outward, t.centroid[t.cell_faces])
    below = outward @ point - offset <= pm.TAU_PLANE * mesh.edge_length
    inside = np.nonzero(np.logical_and.reduceat(below, t.cell_offsets[:-1]))[0]
    return int(inside[0]) if len(inside) else -1


class TestVoronoi:
    def test_single_seed_full_cube(self):
        m = pm.generate_voronoi([[0.3, 0.4, 0.5]], 1.0)
        assert len(m.cells) == 1
        assert m.n_vertices == 8
        assert len(m.cells[0].faces) == 6
        assert m.cells[0].volume == pytest.approx(1.0, abs=1e-14)

    def test_two_seeds_symmetric_split(self):
        L = 2.0
        m = pm.generate_voronoi([[L / 4, L / 2, L / 2], [3 * L / 4, L / 2, L / 2]], L)
        assert len(m.cells) == 2
        for cell in m.cells:
            assert cell.volume == pytest.approx(L ** 3 / 2, rel=1e-13)
        # interface sits at x = L/2
        for cell in m.cells:
            xs = m.vertices[cell.vertex_ids][:, 0]
            assert np.isclose(xs.min(), 0.0) or np.isclose(xs.max(), L)
            assert np.any(np.isclose(xs, L / 2))

    def test_eight_grid_seeds_match_direct_construction(self):
        L = 1.0
        h = L / 4
        seeds = [[h + 2 * h * i, h + 2 * h * j, h + 2 * h * k]
                 for k in range(2) for j in range(2) for i in range(2)]
        m = pm.generate_voronoi(seeds, L)
        oracle = grid_mesh_oracle(L)
        assert len(m.cells) == 8
        for cell in m.cells:
            assert cell.volume == pytest.approx(L ** 3 / 8, rel=1e-12)
            assert len(cell.faces) == 6
            assert len(cell.vertex_ids) == 8
        got = sorted(tuple(np.round(v, 12)) for v in m.vertices)
        want = sorted(tuple(np.round(v, 12)) for v in oracle.vertices)
        assert got == want

    @pytest.mark.parametrize("n,seed", [(5, 0), (20, 1), (50, 2)])
    def test_volume_closure_and_conformity(self, n, seed):
        L = 1.0
        m = pm.generate_voronoi(pm.random_seeds(n, L, seed), L)
        total = sum(c.volume for c in m.cells)
        assert abs(total - L ** 3) <= 1e-10 * L ** 3
        assert pm.interior_face_conformity(m)
        t = m.faces
        for ci, cell in enumerate(m.cells):
            assert pm.cell_watertight(cell)
            vecs = np.zeros(3)
            amax = 0.0
            for f, sign in zip(*t.of_cell(ci)):
                a, nrm = t.area[f], sign * t.normal[f]
                vecs += a * nrm
                amax = max(amax, a)
            assert np.linalg.norm(vecs) <= 1e-10 * amax

    def test_same_winding_on_both_sides_is_not_conforming(self):
        m = pm.generate_voronoi(pm.random_seeds(6, 1.0, 3), 1.0)
        assert pm.interior_face_conformity(m)
        t = m.faces
        f = int(np.nonzero(t.owners[:, 1] >= 0)[0][0])
        second = int(t.owners[f, 1])
        k = list(t.of_cell(second)[0]).index(f)
        cells = [pm.PolyCell(c.vertex_ids, list(c.faces), c.material_id, c.volume)
                 for c in m.cells]
        cells[second].faces[k] = cells[second].faces[k][::-1].copy()
        bad = pm.PolyMesh(m.vertices, cells, m.edge_length)
        assert not pm.interior_face_conformity(bad)

    def test_nearest_seed_is_containing_cell(self):
        L = 1.0
        ss = pm.random_seeds(20, L, 7)
        m = pm.generate_voronoi(ss, L)
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, L, size=(1000, 3))
        d = np.linalg.norm(pts[:, None, :] - ss.seeds[None, :, :], axis=2)
        nearest = d.argmin(axis=1)
        for p, want in zip(pts, nearest):
            # skip points numerically on a bisector
            ds = np.sort(d[np.all(pts == p, axis=1)][0]) if False else None
            got = locate(m, p)
            dd = np.sort(np.linalg.norm(ss.seeds - p, axis=1))
            if dd[1] - dd[0] < 1e-9:
                continue
            assert got == want

    def test_coincident_seeds_rejected(self):
        with pytest.raises(pm.MeshError):
            pm.generate_voronoi([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]], 1.0)

    def test_outside_seed_rejected(self):
        with pytest.raises(pm.MeshError):
            pm.generate_voronoi([[1.5, 0.5, 0.5]], 1.0)

    def test_lloyd_moves_toward_centroids(self):
        L = 1.0
        m0 = pm.generate_voronoi(pm.random_seeds(10, L, 3), L)
        m1 = pm.generate_voronoi(pm.random_seeds(10, L, 3), L, lloyd=2)
        v0 = np.array(sorted(c.volume for c in m0.cells))
        v1 = np.array(sorted(c.volume for c in m1.cells))
        # relaxation evens out cell volumes
        assert v1.std() < v0.std()


def face_geometry(loop, verts):
    """(area, normal, centroid) of one polygon, read from the face table
    of a mesh whose only cell is that face."""
    loop = np.asarray(loop, dtype=int)
    cell = pm.PolyCell(np.unique(loop), [loop])
    t = pm.PolyMesh(np.asarray(verts, dtype=float), [cell], 1.0).faces
    return t.area[0], t.normal[0], t.centroid[0]


class TestFaceGeometry:
    def test_unit_square(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
        a, n, c = face_geometry([0, 1, 2, 3], verts)
        assert a == pytest.approx(1.0)
        assert np.allclose(n, [0, 0, 1])
        assert np.allclose(c, [0.5, 0.5, 0])

    def test_reversed_winding_flips_normal(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
        _, n, _ = face_geometry([3, 2, 1, 0], verts)
        assert np.allclose(n, [0, 0, -1])

    def test_regular_hexagon_area(self):
        # frozen oracle: area = (3*sqrt(3)/2) a^2 for edge a
        a_edge = 0.7
        ang = np.arange(6) * np.pi / 3
        verts = np.column_stack([a_edge * np.cos(ang), a_edge * np.sin(ang), np.full(6, 2.0)])
        area, n, c = face_geometry(np.arange(6), verts)
        assert area == pytest.approx(1.5 * np.sqrt(3) * a_edge ** 2, rel=1e-14)
        # shoelace oracle in the face plane
        x, y = verts[:, 0], verts[:, 1]
        shoelace = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        assert area == pytest.approx(shoelace, rel=1e-14)
        assert np.allclose(c, [0, 0, 2.0], atol=1e-15)

    def test_collinear_loop_raises(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
        with pytest.raises(pm.MeshError):
            face_geometry([0, 1, 2], verts)


class TestTriangulation:
    def test_cube_six_tets(self):
        m = pm.generate_voronoi([[0.5, 0.5, 0.5]], 1.0)
        sub = pm.triangulate_cell(m, 0)
        assert len(sub.tets) == 6                      # frozen fan count
        assert not sub.fallback
        assert sub.volumes.sum() == pytest.approx(1.0, rel=1e-13)
        assert np.all(sub.volumes > 0)

    def test_single_tet_fixed_point(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        faces = [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]
        m = single_cell_mesh(verts, faces, 1.0)
        sub = pm.triangulate_cell(m, 0)
        assert len(sub.tets) == 1
        assert sorted(sub.tets[0]) == [0, 1, 2, 3]

    def test_prism_three_tets(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]]
        faces = [[0, 2, 1], [3, 4, 5], [0, 1, 4, 3], [1, 2, 5, 4], [2, 0, 3, 5]]
        m = single_cell_mesh(verts, faces, 1.0)
        sub = pm.triangulate_cell(m, 0)
        assert len(sub.tets) == 3                      # frozen enumeration count
        assert sub.volumes.sum() == pytest.approx(0.5, rel=1e-13)

    def test_union_conforms_across_cells(self):
        m = pm.generate_voronoi(pm.random_seeds(10, 1.0, 5), 1.0)
        subs = [pm.triangulate_cell(m, i) for i in range(len(m.cells))]
        tm = pm.union_submeshes(m, subs)
        faces = {}
        for tet in tm.tets:
            for tri in ([0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]):
                key = frozenset(int(tet[i]) for i in tri)
                faces[key] = faces.get(key, 0) + 1
        assert set(faces.values()) <= {1, 2}
        # every once-seen triangle must be on the box surface
        L, tol = 1.0, 1e-9
        for key, cnt in faces.items():
            if cnt == 1:
                pts = tm.vertices[list(key)]
                on_box = any(np.all(np.abs(pts[:, ax] - val) <= tol)
                             for ax in range(3) for val in (0.0, L))
                assert on_box

    def test_nonconvex_fallback(self):
        # L-shaped prism; vertex 0 sits at the corner that cannot see the
        # far arm, so the apex fan fails and the centroid fallback fires
        base = [[2, 1], [2, 0], [0, 0], [0, 2], [1, 2], [1, 1]]
        verts = [[x, y, 0.0] for x, y in base] + [[x, y, 1.0] for x, y in base]
        bottom = [0, 1, 2, 3, 4, 5]
        top = [11, 10, 9, 8, 7, 6]
        sides = [[i, (i + 1) % 6, (i + 1) % 6 + 6, i + 6] for i in range(6)]
        m = single_cell_mesh(verts, [bottom, top] + sides, 2.0)
        sub = pm.triangulate_cell(m, 0)
        assert sub.fallback
        assert len(sub.extra_vertices) == 1
        assert sub.volumes.sum() == pytest.approx(3.0, rel=1e-12)
        assert np.all(sub.volumes > 0)


def refined_cell(mesh, levels):
    """(coarse submesh, refined tet mesh, refined tet volumes) of a
    one-cell mesh."""
    sub = pm.triangulate_cell(mesh, 0)
    tm = pm.refine_tet_mesh(pm.union_submeshes(mesh, [sub]), levels)
    return sub, tm, pm._tet_volumes(tm.vertices, tm.tets)


class TestRefinement:
    def test_level_zero_identity(self):
        m = pm.generate_voronoi([[0.5, 0.5, 0.5]], 1.0)
        sub, tm, _ = refined_cell(m, 0)
        assert np.array_equal(tm.vertices, m.vertices)
        assert np.array_equal(tm.tets, sub.tets)

    def test_one_tet_to_eight(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        faces = [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]
        m = single_cell_mesh(verts, faces, 1.0)
        sub, tm, vols = refined_cell(m, 1)
        assert len(tm.tets) == 8
        assert vols.sum() == pytest.approx(sub.volumes.sum(), rel=1e-12)
        assert np.all(vols > 0)

    def test_cube_two_levels_384(self):
        m = pm.generate_voronoi([[0.5, 0.5, 0.5]], 1.0)
        _, tm, vols = refined_cell(m, 2)
        assert len(tm.tets) == 6 * 64                 # frozen: 6 * 8^2
        assert vols.sum() == pytest.approx(1.0, rel=1e-12)

    def test_refined_union_is_conforming(self):
        m = pm.generate_voronoi(pm.random_seeds(5, 1.0, 9), 1.0)
        subs = [pm.triangulate_cell(m, i) for i in range(len(m.cells))]
        tm = pm.refine_tet_mesh(pm.union_submeshes(m, subs), 1)
        assert np.isclose(pm._tet_volumes(tm.vertices, tm.tets).sum(), 1.0)
        faces = {}
        for tet in tm.tets:
            for tri in ([0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]):
                key = frozenset(int(tet[i]) for i in tri)
                faces[key] = faces.get(key, 0) + 1
        assert set(faces.values()) <= {1, 2}


class TestNativeFormat:
    def test_roundtrip_identical(self):
        m = pm.generate_voronoi(pm.random_seeds(10, 1.0, 13), 1.0)
        text = pm.write_mesh(m)
        m2 = pm.read_mesh(text)
        assert np.array_equal(m.vertices, m2.vertices)
        assert len(m.cells) == len(m2.cells)
        for a, b in zip(m.cells, m2.cells):
            assert a.material_id == b.material_id
            assert len(a.faces) == len(b.faces)
            for fa, fb in zip(a.faces, b.faces):
                assert np.array_equal(fa, fb)
        assert pm.write_mesh(m2) == text

    def test_checksum_tamper_detected(self):
        m = pm.generate_voronoi([[0.5, 0.5, 0.5]], 1.0)
        text = pm.write_mesh(m)
        bad = text.replace("0 0.0 0.0 0.0", "0 0.01 0.0 0.0")
        with pytest.raises(pm.MeshParseError):
            pm.read_mesh(bad)

    def test_bad_magic(self):
        with pytest.raises(pm.MeshParseError):
            pm.read_mesh("nonsense\n")


@functools.lru_cache(maxsize=None)
def six_grain_texts():
    """Native text with and without its CHECKSUM line, and tess text."""
    m = pm.generate_voronoi(pm.random_seeds(6, 1.0, 3), 1.0)
    native = pm.write_mesh(m)
    bare = "".join(ln for ln in native.splitlines(keepends=True)
                   if not ln.startswith("CHECKSUM"))
    return {"native": (native, pm.read_mesh), "native-no-checksum":
            (bare, pm.read_mesh), "tess": (pm.write_tess(m), pm.parse_tess)}


@pytest.mark.parametrize("fmt", ["native", "native-no-checksum", "tess"])
def test_truncation_at_every_line_is_a_parse_error(fmt):
    text, parse = six_grain_texts()[fmt]
    lines = text.splitlines(keepends=True)
    parse(text)                            # the whole text is valid
    for k in range(len(lines)):
        with pytest.raises(pm.MeshParseError):
            parse("".join(lines[:k]))


def broken_native_texts():
    """The six-grain native text without its CHECKSUM line, each with one
    malformed row: oversized integers and degenerate faces."""
    lines = six_grain_texts()["native-no-checksum"][0].splitlines()
    at_v = next(k for k, ln in enumerate(lines) if ln.startswith("VERTICES"))
    at_c = next(k for k, ln in enumerate(lines) if ln.startswith("CELLS")) + 1
    at_f = lines.index("FACES") + 1
    ci, _, nf = lines[at_c].split()
    fc, a, b = lines[at_f].split()[:3]

    def edit(k, row):
        return "\n".join(lines[:k] + [row] + lines[k + 1:]) + "\n"

    return {
        "cell-material-overflow": edit(at_c, f"{ci} {'9' * 20} {nf}"),
        "vertex-count-overflow": edit(at_v, "VERTICES " + "9" * 20),
        "vertex-count-past-end": edit(at_v, "VERTICES 1000000000000"),
        "two-vertex-face": edit(at_f, f"{fc} {a} {b}"),
        "collinear-face": edit(at_f, f"{fc} {a} {b} {a} {b}"),
    }


@pytest.mark.parametrize("case,message", [
    ("cell-material-overflow", "bad number"),
    ("vertex-count-overflow", "bad number"),
    ("vertex-count-past-end", "lines left"),
    ("two-vertex-face", "cell 0: face with 2 vertices"),
    ("collinear-face", "cell 0: zero-area face"),
])
def test_malformed_native_row_is_a_parse_error(case, message):
    with pytest.raises(pm.MeshParseError, match=message):
        pm.read_mesh(broken_native_texts()[case])


@pytest.mark.parametrize("count,message", [("9" * 20, "bad number"),
                                           ("1000000000000", "lines left")])
def test_oversized_tess_count_is_a_parse_error(count, message):
    text = six_grain_texts()["tess"][0]
    lines = text.splitlines()
    at = lines.index(" **vertex") + 1
    lines[at] = "   " + count
    with pytest.raises(pm.MeshParseError, match=message):
        pm.parse_tess("\n".join(lines) + "\n")


def test_native_mesh_without_cells_is_a_parse_error():
    text = "polyvem-mesh 1\nL 1.0\nVERTICES 1\n0 0.0 0.0 0.0\nCELLS 0\nFACES\n"
    with pytest.raises(pm.MeshParseError, match="cell volumes sum to 0"):
        pm.read_mesh(text)


class TestTessFormat:
    def test_unit_cube_single_polyhedron(self):
        m = pm.generate_voronoi([[0.5, 0.5, 0.5]], 1.0)
        m2 = pm.parse_tess(pm.write_tess(m), edge_length=1.0)
        assert len(m2.cells) == 1
        assert m2.cells[0].volume == pytest.approx(1.0, abs=1e-14)

    def test_roundtrip_topology_and_volume(self):
        m = pm.generate_voronoi(pm.random_seeds(10, 1.0, 21), 1.0)
        m2 = pm.parse_tess(pm.write_tess(m), edge_length=1.0)
        assert m2.n_vertices == m.n_vertices
        assert np.allclose(np.sort(m.vertices, axis=0), np.sort(m2.vertices, axis=0),
                           atol=1e-9)
        total = sum(c.volume for c in m2.cells)
        assert abs(total - 1.0) <= 1e-10
        got = sorted(c.volume for c in m2.cells)
        want = sorted(c.volume for c in m.cells)
        assert np.allclose(got, want, rtol=1e-12)

    def test_errors_name_cells_and_vertices_by_file_ids(self):
        # tess ids count from 1: polyhedron 2 is the second cell
        lines = pm.write_tess(pm.generate_voronoi(
            pm.random_seeds(3, 1.0, 5), 1.0)).splitlines()
        at = lines.index(" **polyhedron") + 3
        ci, nf, *refs = lines[at].split()
        assert ci == "2"
        dropped = lines[:at] + [f"   2 {int(nf) - 1} " + " ".join(refs[:-1])]
        with pytest.raises(pm.MeshParseError, match="^cell 2: not watertight$"):
            pm.parse_tess("\n".join(dropped + lines[at + 1:]) + "\n",
                          edge_length=1.0)
        at = lines.index(" **vertex") + 2
        assert lines[at].split()[0] == "1"
        moved = lines[:at] + ["   1 1.0 1e200 0.0"] + lines[at + 1:]
        with pytest.raises(pm.MeshParseError, match="^vertex 1: outside the box"):
            pm.parse_tess("\n".join(moved) + "\n", edge_length=1.0)

    def test_unknown_section_fails_loudly(self):
        m = pm.generate_voronoi([[0.5, 0.5, 0.5]], 1.0)
        text = pm.write_tess(m).replace(" **edge", " **orientation")
        with pytest.raises(pm.MeshParseError, match="unsupported section"):
            pm.parse_tess(text, edge_length=1.0)

    def test_dangling_vertex_fails(self):
        m = pm.generate_voronoi([[0.5, 0.5, 0.5]], 1.0)
        text = pm.write_tess(m)
        text = text.replace("   4 1 2 3 4", "   4 1 2 3 99", 1) if "   4 1 2 3 4" in text else text
        # force a dangling reference robustly
        lines = text.splitlines()
        for i, ln in enumerate(lines):
            parts = ln.split()
            if len(parts) >= 5 and parts[0] == "4" and i > 0 and lines[i - 1].strip().isdigit():
                lines[i] = ln.replace(parts[-1], "99")
                break
        with pytest.raises(pm.MeshParseError):
            pm.parse_tess("\n".join(lines), edge_length=1.0)


class TestBoundary:
    def test_grid_mesh_boundary_count(self):
        m = grid_mesh_oracle(1.0)
        # 27 grid nodes, only the body center is interior
        assert len(m.boundary_node_ids) == 26
        assert 13 not in m.boundary_node_ids

    def test_node_at_box_tolerance_is_boundary_for_every_mesh_type(self):
        L = 2.0
        tol = pm.TAU_BOX * L
        pts = np.array([[tol, 0.5, 0.5], [2.0 * tol, 0.5, 0.5],
                        [0.5, L - 2.0 * tol, 0.5], [1.0, 1.0, 1.0]])
        meshes = [pm.PolyMesh(pts, [], L),
                  pm.TetMesh(pts, np.zeros((0, 4), int), np.zeros(0, int), L),
                  TetMeshO2(pts, np.zeros((0, 10), int), np.zeros(0, int), L)]
        for m in meshes:
            assert m.boundary_node_ids.tolist() == [0]


# ---------------------------------------------------------------------------
# Property tests: a damaged mesh text parses or raises MeshParseError
# ---------------------------------------------------------------------------

# one-token replacements: signs, zeros, non-finite, oversized and
# non-numeric values, and ids next to the valid range
MUTATIONS = ["", "0", "-0", "1", "-1", "2", "7", "99", "1000000", "9" * 20,
             "-" + "9" * 20, "0.5", "-0.5", "1e308", "-1e308", "1e-308",
             "nan", "inf", "-inf", "x", "1.0.0", "**face", "***end",
             "FACES", "CELLS", "VERTICES", "L"]

FORMATS = ["native", "native-no-checksum", "tess"]


def damaged_text(text, data):
    """The text truncated at a character, or with one whitespace-separated
    token replaced, deleted or doubled."""
    if data.draw(st.booleans(), label="truncate"):
        return text[:data.draw(st.integers(0, len(text) - 1), label="at")]
    spans = [m.span() for m in re.finditer(r"\S+", text)]
    lo, hi = spans[data.draw(st.integers(0, len(spans) - 1), label="token")]
    token = text[lo:hi]
    new = data.draw(st.sampled_from(MUTATIONS + [token + token, token + "0",
                                                  token[:-1], "-" + token]),
                    label="replacement")
    return text[:lo] + new + text[hi:]


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_damaged_mesh_text_parses_or_is_a_parse_error(fmt, data):
    text, parse = six_grain_texts()[fmt]
    damaged = damaged_text(text, data)
    try:
        mesh = parse(damaged)
    except pm.MeshParseError:
        return
    assert np.isfinite(mesh.edge_length) and mesh.edge_length > 0.0
    assert np.all(np.isfinite(mesh.vertices))


@pytest.mark.parametrize("old,new,message", [
    ("\nL 1.0\n", f"\nL {value}\n", "edge length")
    for value in ["nan", "inf", "-1", "0", "1e308", "1e100", "1e-90"]] + [
    ("\n0 0.0 0.0 1.0\n", f"\n0 0.0 {value} 1.0\n", "vertex 0: non-finite")
    for value in ["nan", "inf", "-inf"]] + [
    ("\n0 0.0 0.0 1.0\n", "\n0 0.0 1e200 1.0\n", "vertex 0: outside the box")])
def test_bad_native_number_is_a_parse_error(old, new, message):
    text = six_grain_texts()["native-no-checksum"][0]
    with pytest.raises(pm.MeshParseError, match=message):
        pm.read_mesh(text.replace(old, new))
