"""Tetrahedral element tests.

Frozen oracles: reference-tet shape gradients; closed-form energies of
quadratic fields integrated by hand over the reference tet via simplex
monomial moments (for u=(x^2,y^2,z^2): U = (lam+mu)/5; for potential
phi=x^2 with permittivity p: U = -2p/30).
"""

import numpy as np
import pytest

from polyvem import element_fem as fem
from polyvem import materials as mat
from polyvem import mesh as pm

RNG = np.random.default_rng(42)

REF_TET = np.array([[0.0, 0.0, 0.0],
                    [1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0],
                    [0.0, 0.0, 1.0]])


def coupled_linear_field(points, n_fields, rng):
    """Random linear field per dof; returns (values, exact state vector)."""
    A = rng.standard_normal((n_fields, 3))
    b = rng.standard_normal(n_fields)
    values = points @ A.T + b
    g = A[:3]                      # displacement gradient rows du_i/dx
    strain = np.array([g[0, 0], g[1, 1], g[2, 2],
                       g[1, 2] + g[2, 1], g[0, 2] + g[2, 0], g[0, 1] + g[1, 0]])
    state = np.concatenate([strain] + [-A[f] for f in range(3, n_fields)])
    return values, state


def tet_stiffness(coords, G, order, n_fields):
    """Stiffness of one linear (order 1) or 10-node (order 2, corners
    first) tet: the batched kernels and gauss_stiffness on a batch of
    one."""
    coords = np.asarray(coords, dtype=float)
    corners = np.arange(4)[None]
    if order == 1:
        B, vols = fem.batch_o1_operators(coords, corners, n_fields)
        B, w = B[:, None], vols[:, None]
    else:
        B, w = fem.quadratic_state_operators(coords, corners, n_fields)
    return fem.gauss_stiffness(B, w, np.asarray(G, dtype=float))[0]


def random_modulus(n_fields, rng):
    n = 6 + 3 * (n_fields - 3)
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2.0


class TestTetGradient:
    def test_reference_tet_frozen(self):
        grads, vol = fem.tet_gradient(REF_TET)
        assert vol == pytest.approx(1.0 / 6.0, rel=1e-15)
        expected = np.array([[-1.0, -1.0, -1.0],
                             [1.0, 0.0, 0.0],
                             [0.0, 1.0, 0.0],
                             [0.0, 0.0, 1.0]])
        assert np.allclose(grads, expected, atol=1e-14)

    def test_partition_of_unity_gradients(self):
        coords = RNG.standard_normal((4, 3))
        if np.linalg.det(coords[1:] - coords[0]) < 0:
            coords[[1, 2]] = coords[[2, 1]]
        grads, _ = fem.tet_gradient(coords)
        assert np.allclose(grads.sum(axis=0), 0.0, atol=1e-12)
        # gradients reproduce linear functions: sum_a N_a(x_a) x_a = x
        for j in range(3):
            assert np.allclose(grads.T @ coords[:, j],
                               np.eye(3)[j], atol=1e-12)

    def test_inverted_tet_raises(self):
        bad = REF_TET[[0, 2, 1, 3]]
        with pytest.raises(pm.MeshError, match="inverted"):
            fem.tet_gradient(bad)


class TestLinearElement:
    @pytest.mark.parametrize("n_fields", [4, 5])
    def test_linear_patch_state(self, n_fields):
        coords = REF_TET + 0.1 * RNG.standard_normal((4, 3))
        values, state = coupled_linear_field(coords, n_fields, RNG)
        B, _ = fem.batch_o1_operators(coords, np.arange(4)[None], n_fields)
        assert np.allclose(B[0] @ values.ravel(), state, atol=1e-12)

    def test_energy_matches_quadratic_form(self):
        G = random_modulus(5, RNG)
        values, state = coupled_linear_field(REF_TET, 5, RNG)
        K = tet_stiffness(REF_TET, G, order=1, n_fields=5)
        p = values.ravel()
        U = 0.5 * p @ K @ p
        assert U == pytest.approx((1.0 / 6.0) * mat.energy_quadratic(G, state),
                                  rel=1e-12)

    @pytest.mark.parametrize("n_fields,expected_kernel", [(5, 8), (4, 7)])
    def test_kernel_dimension(self, n_fields, expected_kernel):
        G = random_modulus(n_fields, RNG) + 10.0 * np.eye(6 + 3 * (n_fields - 3))
        K = tet_stiffness(REF_TET, G, order=1, n_fields=n_fields)
        s = np.linalg.svd(K, compute_uv=False)
        kernel = int(np.sum(s < 1e-10 * s[0]))
        assert kernel == expected_kernel
        assert fem.kernel_dimension(n_fields) == expected_kernel

    def test_stiffness_symmetric(self):
        G = random_modulus(5, RNG)
        K = tet_stiffness(REF_TET, G, order=1, n_fields=5)
        assert np.allclose(K, K.T, atol=1e-12 * np.abs(K).max())


class TestQuadraticElement:
    def test_gauss_rule_weights_and_points(self):
        assert fem.GAUSS4_BARY.shape == (4, 4)
        assert np.allclose(fem.GAUSS4_BARY.sum(axis=1), 1.0, atol=1e-14)
        assert fem.GAUSS4_WEIGHTS.sum() == pytest.approx(1.0)

    def test_linear_patch_through_quadratic_element(self):
        mesh10 = fem.promote_to_quadratic(
            pm.TetMesh(REF_TET, np.array([[0, 1, 2, 3]]), np.zeros(1, int), 1.0))
        values, state = coupled_linear_field(mesh10.vertices, 5, RNG)
        G = random_modulus(5, RNG)
        K = tet_stiffness(mesh10.vertices[mesh10.tets[0]], G, order=2,
                          n_fields=5)
        p = values.ravel()
        U = 0.5 * p @ K @ p
        assert U == pytest.approx((1.0 / 6.0) * mat.energy_quadratic(G, state),
                                  rel=1e-11)

    def test_quadratic_displacement_energy_closed_form(self):
        # u = (x^2, y^2, z^2), isotropic stiffness from Lame (lam, mu):
        # psi = lam/2 (2x+2y+2z)^2 + mu (4x^2+4y^2+4z^2); with reference-tet
        # moments Int x^2 = 1/60, Int xy = 1/120 the energy is (lam+mu)/5.
        lam, sh = 2.0, 3.0
        exact = (lam + sh) / 5.0
        rec = mat.isotropic_record("iso", lam, sh, eps=1.0, mu=1.0)
        G = mat.build_modulus(rec).matrix
        mesh10 = fem.promote_to_quadratic(
            pm.TetMesh(REF_TET, np.array([[0, 1, 2, 3]]), np.zeros(1, int), 1.0))
        pts = mesh10.vertices[mesh10.tets[0]]
        values = np.zeros((10, 5))
        values[:, 0] = pts[:, 0] ** 2
        values[:, 1] = pts[:, 1] ** 2
        values[:, 2] = pts[:, 2] ** 2
        K = tet_stiffness(pts, G, order=2, n_fields=5)
        p = values.ravel()
        assert 0.5 * p @ K @ p == pytest.approx(exact, rel=1e-12)

    def test_quadratic_potential_energy_closed_form(self):
        # phi = x^2 with permittivity diag(p): psi = -p/2 |grad phi|^2
        # = -2 p x^2, integral over the reference tet = -2p/60 = -p/30.
        pval = 3.0
        exact = -pval / 30.0
        rec = mat.isotropic_record("iso", 1.0, 1.0, eps=pval, mu=1.0)
        G = mat.build_modulus(rec).matrix
        mesh10 = fem.promote_to_quadratic(
            pm.TetMesh(REF_TET, np.array([[0, 1, 2, 3]]), np.zeros(1, int), 1.0))
        pts = mesh10.vertices[mesh10.tets[0]]
        values = np.zeros((10, 5))
        values[:, 3] = pts[:, 0] ** 2
        K = tet_stiffness(pts, G, order=2, n_fields=5)
        p = values.ravel()
        assert 0.5 * p @ K @ p == pytest.approx(exact, rel=1e-12)


class TestPromotion:
    def test_single_tet_ten_nodes(self):
        t = pm.TetMesh(REF_TET, np.array([[0, 1, 2, 3]]), np.zeros(1, int), 1.0)
        m10 = fem.promote_to_quadratic(t)
        assert m10.n_vertices == 10
        assert m10.tets.shape == (1, 10)

    def test_two_tets_share_face_midpoints(self):
        # frozen oracle: 5 corners + 9 unique edges = 14 nodes
        pts = np.vstack([REF_TET, [[1.0, 1.0, 1.0]]])
        tets = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
        fem.tet_gradient(pts[tets[1]])      # orientation sanity
        m10 = fem.promote_to_quadratic(
            pm.TetMesh(pts, tets, np.zeros(2, int), 1.0))
        assert m10.n_vertices == 14
        shared = set(m10.tets[0, 4:]) & set(m10.tets[1, 4:])
        assert len(shared) == 3             # midpoints of the shared face

    def test_cube_boundary_midpoints_flagged(self):
        m = pm.generate_voronoi([[0.5, 0.5, 0.5]], 1.0)
        sub = pm.triangulate_cell(m, 0)
        tmesh = pm.union_submeshes(m, [sub])
        m10 = fem.promote_to_quadratic(tmesh)
        boundary = set(m10.boundary_node_ids.tolist())
        tol = 1e-12
        for nid in range(m10.n_vertices):
            x = m10.vertices[nid]
            on_surface = np.any(np.abs(x) < tol) or np.any(np.abs(x - 1.0) < tol)
            assert (nid in boundary) == on_surface
        # the main diagonal midpoint sits at the cube center: interior
        center = np.nonzero(np.all(np.isclose(m10.vertices, 0.5), axis=1))[0]
        assert len(center) == 1 and center[0] not in boundary


class TestBatchOperators:
    def test_matches_single_tet_operators(self):
        m = pm.generate_voronoi(pm.random_seeds(4, 1.0, 7), 1.0)
        subs = [pm.triangulate_cell(m, c) for c in range(len(m.cells))]
        tmesh = pm.union_submeshes(m, subs)
        B, vols = fem.batch_o1_operators(tmesh.vertices, tmesh.tets, 5)
        for k in range(len(tmesh.tets)):
            Bk, vk = fem.batch_o1_operators(tmesh.vertices[tmesh.tets[k]],
                                            np.arange(4)[None], 5)
            assert vols[k] == pytest.approx(vk[0], rel=1e-12)
            assert np.allclose(B[k], Bk[0], atol=1e-12)
