"""Virtual element tests, through the production cell operators.

Central properties: exactness of projected gradients on linear fields for
arbitrary Voronoi cells; independence of the blended energy from beta on
patch fields; exact degeneration to the linear-tet energy at beta = 1;
kernel/rank structure of the element stiffness.
"""

import numpy as np
import pytest

from polyvem import element_fem as fem
from polyvem import element_vem as vem
from polyvem import homogenization as ph
from polyvem import materials as mat
from polyvem import mesh as pm

from test_element_fem import random_modulus
from test_mesh import single_cell_mesh

RNG = np.random.default_rng(99)


def unit_cube_mesh():
    return pm.generate_voronoi([[0.5, 0.5, 0.5]], 1.0)


def random_voronoi(n, seed, L=1.0):
    return pm.generate_voronoi(pm.random_seeds(n, L, seed), L)


def cell_ops(mesh, G, cell_ids=None, n_fields=5):
    """CellOperators of the given cells (all by default), one modulus G."""
    if cell_ids is None:
        cell_ids = range(len(mesh.cells))
    cell_ids = list(cell_ids)
    return list(vem.cell_operators(mesh, cell_ids, [G] * len(cell_ids),
                                   n_fields))


def linear_state(A):
    """State of the linear field with gradient rows A[f] = grad field f,
    laid out by the state operator of the unit gradients."""
    return fem.field_operator(np.eye(3), len(A)) @ A.T.ravel()


def energy(K, p):
    return 0.5 * float(p @ K @ p)


def l_prism_mesh():
    """Non-convex single-cell mesh that forces the fallback submesh."""
    base = [[2, 1], [2, 0], [0, 0], [0, 2], [1, 2], [1, 1]]
    verts = [[x, y, 0.0] for x, y in base] + [[x, y, 1.0] for x, y in base]
    bottom = [0, 1, 2, 3, 4, 5]
    top = [11, 10, 9, 8, 7, 6]
    sides = [[i, (i + 1) % 6, (i + 1) % 6 + 6, i + 6] for i in range(6)]
    return single_cell_mesh(verts, [bottom, top] + sides, 2.0)


def loop_face_geometry(loop, vertices):
    """Per-face reference for the face table: (area, normal, centroid,
    weights) of one loop by the fan from the vertex mean and the edge
    trapezoids of the face reconstruction, one face at a time."""
    pts = vertices[loop]
    c0 = pts.mean(axis=0)
    cross = np.cross(pts - c0, np.roll(pts, -1, axis=0) - c0)
    area_vec = 0.5 * cross.sum(axis=0)
    area = np.linalg.norm(area_vec)
    normal = area_vec / area
    tri_area = 0.5 * cross @ normal
    tri_cent = (pts + np.roll(pts, -1, axis=0) + c0) / 3.0
    centroid = (tri_area[:, None] * tri_cent).sum(axis=0) / tri_area.sum()
    k = len(loop)
    w = np.full(k, area / k)
    for i in range(k):
        j = (i + 1) % k
        edge = pts[j] - pts[i]
        ell = np.linalg.norm(edge)
        c = 0.5 * ell * float(np.cross(edge / ell, normal) @ (centroid - c0))
        w[i] += c
        w[j] += c
    return area, normal, centroid, w


class TestFaceTable:
    @pytest.mark.parametrize("mesh", [random_voronoi(20, 11), l_prism_mesh()],
                             ids=["voronoi-20", "l-prism"])
    def test_matches_per_face_loops_of_every_cell(self, mesh):
        """Every cell's own loop, in its own winding, gives the table's
        geometry with the cell's sign on the normal and the same weights
        at the same vertices (the weights do not depend on the winding)."""
        t = mesh.faces
        scale = mesh.edge_length
        for ci, cell in enumerate(mesh.cells):
            for loop, f, sign in zip(cell.faces, *t.of_cell(ci)):
                area, normal, centroid, w = loop_face_geometry(loop, mesh.vertices)
                assert t.area[f] == pytest.approx(area, rel=1e-14)
                assert np.allclose(sign * t.normal[f], normal, rtol=0, atol=1e-14)
                assert np.allclose(t.centroid[f], centroid, rtol=0,
                                   atol=1e-14 * scale)
                stored = t.loops[t.offsets[f]:t.offsets[f + 1]]
                by_vertex = dict(zip(stored.tolist(),
                                     t.weights[t.offsets[f]:t.offsets[f + 1]]))
                # coordinate round-off (~1e-16 L) enters a weight times an
                # edge length (~sqrt(area))
                assert np.allclose([by_vertex[int(v)] for v in loop], w,
                                   rtol=0, atol=1e-14 * np.sqrt(area) * scale)


class TestProjectedGradient:
    @pytest.mark.parametrize("n_cells,seed", [(1, 0), (5, 3), (20, 11)])
    def test_linear_patch_exactness(self, n_cells, seed):
        m = unit_cube_mesh() if n_cells == 1 else random_voronoi(n_cells, seed)
        A = RNG.standard_normal((5, 3))
        b = RNG.standard_normal(5)
        D = vem.gradient_operators(m, range(len(m.cells)))
        for cid, cell in enumerate(m.cells):
            values = m.vertices[cell.vertex_ids] @ A.T + b
            grads = D[cid] @ values          # column f = grad of field f
            assert np.allclose(grads[:, :3].T, A[:3], atol=1e-13)
            assert np.allclose(grads[:, 3:].T, A[3:], atol=1e-13)

    def test_constant_field_zero_gradient(self):
        m = random_voronoi(4, 5)
        values = np.ones((len(m.cells[0].vertex_ids), 5)) * 3.7
        D, = vem.gradient_operators(m, [0])
        assert np.allclose(D @ values, 0.0, atol=1e-13)

    def test_cube_against_face_quadrature_oracle(self):
        """Independent oracle: on a cube, the face reconstruction integral
        equals the exact integral of the bilinear face interpolant (the
        centroid offset vanishes), evaluated here by Gauss-Legendre
        quadrature face by face."""
        m = unit_cube_mesh()
        cell = m.cells[0]
        values = RNG.standard_normal(len(cell.vertex_ids))
        order = {int(g): i for i, g in enumerate(cell.vertex_ids)}

        gp, gw = np.polynomial.legendre.leggauss(4)
        gp = (gp + 1.0) / 2.0            # map to [0, 1]
        gw = gw / 2.0

        grad = np.zeros(3)
        faces = m.faces
        for loop, f, sign in zip(cell.faces, *faces.of_cell(0)):
            area, normal = faces.area[f], sign * faces.normal[f]
            pts = m.vertices[loop]
            vals = values[[order[int(v)] for v in loop]]
            # bilinear interpolant over the quad (corners in loop order)
            integral = 0.0
            for s, ws in zip(gp, gw):
                for t, wt in zip(gp, gw):
                    N = np.array([(1 - s) * (1 - t), s * (1 - t),
                                  s * t, (1 - s) * t])
                    integral += ws * wt * (N @ vals)
            integral *= area
            grad += integral * normal
        grad /= cell.volume

        D, = vem.gradient_operators(m, [0])
        assert np.allclose(D @ values, grad, atol=1e-12)

    def test_state_vector_layout(self):
        g = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        pots = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        # acc[j, f] = d field_f / dx_j, as surface_average_state holds it
        acc = np.hstack([g.T, pots.T])
        P = fem.field_operator(np.eye(3), 5) @ acc.ravel()
        assert np.allclose(P[:6], [1.0, 5.0, 9.0, 6.0 + 8.0, 3.0 + 7.0, 2.0 + 4.0])
        assert np.allclose(P[6:9], -pots[0])
        assert np.allclose(P[9:12], -pots[1])


class TestElementEnergy:
    @pytest.mark.parametrize("beta", [0.0, 0.1, 0.5, 1.0])
    def test_patch_energy_independent_of_beta(self, beta):
        m = random_voronoi(6, 21)
        G = random_modulus(5, RNG)
        A = RNG.standard_normal((5, 3))
        exact_density = mat.energy_quadratic(G, linear_state(A))
        total = 0.0
        for cell, ops in zip(m.cells, cell_ops(m, G)):
            values = m.vertices[cell.vertex_ids] @ A.T
            U = energy(ops.blend(beta)[0], values.ravel())
            assert U == pytest.approx(cell.volume * exact_density,
                                      rel=1e-11, abs=1e-13)
            total += U
        # cell energies tile the box for the patch field
        assert total == pytest.approx(exact_density, rel=1e-10)

    def test_zero_values_zero_energy(self):
        m = unit_cube_mesh()
        ops, = cell_ops(m, random_modulus(5, RNG))
        assert energy(ops.blend(0.3)[0], np.zeros(8 * 5)) == 0.0

    def test_beta_one_equals_linear_fem_on_submesh(self):
        m = unit_cube_mesh()
        G = random_modulus(5, RNG)
        sub = pm.triangulate_cell(m, 0)
        cell = m.cells[0]
        values = RNG.standard_normal((len(cell.vertex_ids), 5))
        order = {int(g): i for i, g in enumerate(cell.vertex_ids)}
        B, vols = fem.batch_o1_operators(m.vertices, sub.tets, 5)
        fem_energy = 0.0
        for tet, Bt, vol in zip(sub.tets, B, vols):
            p = values[[order[int(t)] for t in tet]].ravel()
            fem_energy += vol * mat.energy_quadratic(G, Bt @ p)
        ops, = cell_ops(m, G)
        U = energy(ops.blend(1.0)[0], values.ravel())
        assert U == pytest.approx(fem_energy, rel=1e-12)

    def test_fallback_cell_patch_energy(self):
        m = l_prism_mesh()
        G = random_modulus(5, RNG)
        A = RNG.standard_normal((5, 3))
        values = m.vertices[m.cells[0].vertex_ids] @ A.T
        exact = m.cells[0].volume * mat.energy_quadratic(G, linear_state(A))
        ops, = cell_ops(m, G)
        for beta in (0.2, 1.0):
            U = energy(ops.blend(beta)[0], values.ravel())
            assert U == pytest.approx(exact, rel=1e-10)

    def test_invalid_beta_raises(self):
        m = unit_cube_mesh()
        operators = ph.VemOperators(m, [random_modulus(5, RNG)])
        with pytest.raises(ValueError, match="beta"):
            operators.evaluate(-0.1)


class TestElementStiffness:
    def setup_method(self):
        self.m = unit_cube_mesh()
        self.G = random_modulus(5, RNG) + 6.0 * np.eye(12)
        self.ops, = cell_ops(self.m, self.G)

    def test_symmetry(self):
        K = self.ops.blend(0.1)[0]
        assert np.allclose(K, K.T, atol=1e-12 * np.abs(K).max())

    def test_zero_energy_modes(self):
        K = self.ops.blend(0.1)[0]
        node_ids = self.ops.node_ids
        scale = np.abs(K).max()
        coords = self.m.vertices[node_ids]
        # translations and constant potentials
        for f in range(5):
            p = np.zeros((len(node_ids), 5))
            p[:, f] = 1.0
            assert np.abs(K @ p.ravel()).max() < 1e-10 * scale
        # linearized rotations u = W x with W skew
        for axis in range(3):
            W = np.zeros((3, 3))
            i, j = [(1, 2), (0, 2), (0, 1)][axis]
            W[i, j], W[j, i] = 1.0, -1.0
            p = np.zeros((len(node_ids), 5))
            p[:, :3] = coords @ W.T
            assert np.abs(K @ p.ravel()).max() < 1e-10 * scale

    def test_rank_with_and_without_stabilization(self):
        # cube cell, fully coupled: 40 dofs, 8 zero-energy modes
        for beta in (0.1, 1.0):
            K = self.ops.blend(beta)[0]
            s = np.linalg.svd(K, compute_uv=False)
            assert int(np.sum(s > 1e-10 * s[0])) == 32
        K0 = self.ops.blend(0.0)[0]
        s = np.linalg.svd(K0, compute_uv=False)
        assert int(np.sum(s > 1e-10 * s[0])) <= 12

    def test_rank_deficiency_detection(self):
        operators = ph.VemOperators(self.m, [self.G])
        assert operators.deficient_cells == (0,)
        assert operators.system(0.0).deficient_cells == (0,)
        assert operators.system(0.1).deficient_cells == ()
        assert vem.stabilization_required(8, 5)
        assert not vem.stabilization_required(4, 5)   # single tet: 12 <= 12

    def test_tangent_matches_energy_finite_differences(self):
        K = self.ops.blend(0.3)[0]
        p = RNG.standard_normal(K.shape[0])
        # central differences are exact for a quadratic energy, so a large
        # step only suppresses roundoff
        h = 1e-3
        scale = np.abs(K @ p).max()
        for k in RNG.choice(K.shape[0], size=8, replace=False):
            dp = np.zeros(K.shape[0])
            dp[k] = h
            num = (energy(K, p + dp) - energy(K, p - dp)) / (2 * h)
            assert num == pytest.approx((K @ p)[k], rel=1e-6, abs=1e-9 * scale)

    def test_fallback_interior_recovery_on_linear_field(self):
        """The centroid of a fallback submesh, recovered from the
        uncondensed tet stiffness, carries the linear field, and the
        condensed K_tet is that stiffness's Schur complement."""
        m = l_prism_mesh()
        sub = pm.triangulate_cell(m, 0)
        assert sub.fallback and len(sub.extra_vertices) == 1
        ops, = cell_ops(m, self.G)
        points = np.vstack([m.vertices, sub.extra_vertices])
        n_loc = len(ops.node_ids)
        loc = np.empty(len(points), dtype=int)
        loc[ops.node_ids] = np.arange(n_loc)
        loc[sub.n_mesh:] = n_loc                  # the centroid comes last
        B, vols = fem.batch_o1_operators(points, sub.tets, 5)
        K = np.zeros(((n_loc + 1) * 5,) * 2)
        for tet, Bt, vol in zip(sub.tets, B, vols):
            cols = (loc[tet][:, None] * 5 + np.arange(5)).ravel()
            K[np.ix_(cols, cols)] += vol * (Bt.T @ self.G @ Bt)
        nv = n_loc * 5
        recovery = -np.linalg.solve(K[nv:, nv:], K[:nv, nv:].T)
        A = RNG.standard_normal((5, 3))
        values = m.vertices[ops.node_ids] @ A.T
        assert np.allclose(recovery @ values.ravel(),
                           A @ sub.extra_vertices[0], atol=1e-9)
        schur = K[:nv, :nv] + K[:nv, nv:] @ recovery
        assert np.allclose(ops.K_tet, schur,
                           atol=1e-12 * np.abs(schur).max())


class TestAveraging:
    @pytest.mark.parametrize("beta", [0.0, 0.1, 1.0])
    def test_linear_field_average_is_exact_state(self, beta):
        m = random_voronoi(5, 17)
        G = random_modulus(5, RNG)
        A = RNG.standard_normal((5, 3))
        for cell, ops in zip(m.cells, cell_ops(m, G)):
            values = m.vertices[cell.vertex_ids] @ A.T
            average = ops.blend(beta)[1] @ values.ravel() / ops.volume
            assert np.allclose(average, linear_state(A), atol=1e-11)

    def test_average_blends_projection_and_tets(self):
        m = random_voronoi(3, 23)
        G = random_modulus(5, RNG)
        beta = 0.37
        ops, = cell_ops(m, G, [0])
        sub = pm.triangulate_cell(m, 0)
        assert not sub.fallback
        values = RNG.standard_normal((len(ops.node_ids), 5))
        p = values.ravel()
        proj = ops.A_cons @ p / ops.volume
        order = {int(g): i for i, g in enumerate(ops.node_ids)}
        B, vols = fem.batch_o1_operators(m.vertices, sub.tets, 5)
        tet_part = np.zeros(12)
        for tet, Bt, vol in zip(sub.tets, B, vols):
            tet_part += vol * (Bt @ values[[order[int(t)] for t in tet]].ravel())
        expected = (1 - beta) * proj + beta * tet_part / ops.volume
        assert np.allclose(ops.blend(beta)[1] @ p / ops.volume, expected,
                           atol=1e-11)
