"""Tests for global assembly and the shared-factorization Dirichlet solver."""

import gc
import os
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg as sl
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import polyvem.assembly as pa
import polyvem.cholesky as pc
import polyvem.element_fem as pf
import polyvem.element_vem as pv
import polyvem.homogenization as ph
import polyvem.mesh as pm

from test_element_fem import coupled_linear_field, random_modulus, tet_stiffness
from test_homogenization import table_moduli

RNG = np.random.default_rng(20260816)


def voronoi_mesh(n_seeds, seed=7, L=1.0):
    seeds = np.random.default_rng(seed).uniform(0.05, 0.95, (n_seeds, 3)) * L
    return pm.generate_voronoi(seeds, L)


class TetElem:
    """Minimal element wrapper for assembly tests."""

    def __init__(self, node_ids, coords, G, n_fields, order=1):
        self.node_ids = np.asarray(node_ids, dtype=int)
        self.stiffness = tet_stiffness(coords, G, order, n_fields)


def two_tet_points_tets():
    points = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 1.0, 1.0],
    ])
    tets = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    return points, tets


class TestDofMap:
    def test_counts_and_indexing(self):
        dm = pa.DofMap(10, [0, 9], "fullyCoupled")
        assert dm.n_fields == 5
        assert dm.n_dofs == 50
        assert pa.node_dofs([3], dm.n_fields)[2] == 17

    def test_partition_is_disjoint_union(self):
        dm = pa.DofMap(7, [1, 4, 5], "electroMech")
        b = set(dm.boundary_dofs.tolist())
        i = set(dm.interior_dofs.tolist())
        assert b | i == set(range(dm.n_dofs))
        assert b & i == set()
        assert len(b) == 3 * 4

    def test_unknown_mode_rejected(self):
        with pytest.raises(pa.AssemblyError, match="mode"):
            pa.DofMap(4, [], "thermal")

    def test_out_of_range_boundary_rejected(self):
        with pytest.raises(pa.AssemblyError, match="range"):
            pa.DofMap(4, [4], "fullyCoupled")


class TestAssemble:
    def test_single_element_matches_dense(self):
        mesh = voronoi_mesh(1)
        G = random_modulus(5, RNG)
        elem = pv.VemElement(mesh, 0, G, beta=0.1)
        dm = pa.DofMap(len(mesh.vertices), mesh.boundary_node_ids, "fullyCoupled")
        system = pa.assemble([elem], dm)
        assert np.allclose(system.K.toarray(), elem.stiffness, atol=1e-14)

    def test_disconnected_elements_block_diagonal(self):
        points, _ = two_tet_points_tets()
        points = np.vstack([points[:4], points[:4] + 5.0])
        G = random_modulus(4, RNG)
        elems = [TetElem([0, 1, 2, 3], points[:4], G, 4),
                 TetElem([4, 5, 6, 7], points[4:], G, 4)]
        dm = pa.DofMap(8, [], "electroMech")
        K = pa.assemble(elems, dm).K.toarray()
        assert np.allclose(K[:16, 16:], 0.0)
        assert np.allclose(K[:16, :16], elems[0].stiffness)
        assert np.allclose(K[16:, 16:], elems[1].stiffness)

    def test_shared_nodes_are_summed(self):
        points, tets = two_tet_points_tets()
        G = random_modulus(4, RNG)
        elems = [TetElem(t, points[t], G, 4) for t in tets]
        dm = pa.DofMap(5, [], "electroMech")
        K = pa.assemble(elems, dm).K.toarray()
        dense = np.zeros((20, 20))
        for e in elems:
            dofs = (e.node_ids[:, None] * 4 + np.arange(4)).ravel()
            dense[np.ix_(dofs, dofs)] += e.stiffness
        assert np.allclose(K, dense, atol=1e-14)

    def test_asymmetric_element_fails_audit(self):
        class Bad:
            node_ids = np.array([0, 1, 2, 3])
            stiffness = RNG.normal(size=(20, 20))

        dm = pa.DofMap(4, [], "fullyCoupled")
        with pytest.raises(pa.AssemblyError, match="asymmetry"):
            pa.assemble([Bad()], dm)

    def test_node_out_of_map_rejected(self):
        points, tets = two_tet_points_tets()
        G = random_modulus(4, RNG)
        elems = [TetElem(tets[1], points[tets[1]], G, 4)]
        dm = pa.DofMap(3, [], "electroMech")
        with pytest.raises(pa.AssemblyError, match="outside"):
            pa.assemble(elems, dm)

    def test_global_kernel_contains_translations_and_constants(self):
        mesh = voronoi_mesh(5)
        G = random_modulus(5, RNG)
        K = ph.VemOperators(mesh, [G] * 5).system(0.1).K
        scale = abs(K).max()
        for f in range(5):
            u = np.zeros(K.shape[0])
            u[f::5] = 1.0
            assert np.abs(K @ u).max() < 1e-9 * scale


class TestSolve:
    def test_dense_oracle(self):
        points, tets = two_tet_points_tets()
        G = random_modulus(4, RNG)
        elems = [TetElem(t, points[t], G, 4) for t in tets]
        dm = pa.DofMap(5, [0, 1, 2, 4], "electroMech")
        system = pa.assemble(elems, dm)
        ub = RNG.normal(size=len(dm.boundary_dofs))
        u = system.solve_dirichlet(ub)

        Kd = system.K.toarray()
        ii, ib = dm.interior_dofs, dm.boundary_dofs
        ui = np.linalg.solve(Kd[np.ix_(ii, ii)], -Kd[np.ix_(ii, ib)] @ ub)
        assert np.allclose(u[ii], ui, rtol=1e-10, atol=1e-10 * np.abs(ui).max())
        assert np.allclose(u[ib], ub)

    def test_patch_solution_through_solver(self):
        # a homogeneous material and linear boundary data must reproduce
        # the exact linear field at interior nodes
        mesh = voronoi_mesh(8, seed=3)
        G = random_modulus(5, RNG)
        operators = ph.VemOperators(mesh, [G] * len(mesh.cells))
        dm = operators.dof_map
        system = operators.system(0.1).factorize()

        values, _ = coupled_linear_field(mesh.vertices, 5, RNG)
        exact = values.ravel()
        u = system.solve_dirichlet(exact[dm.boundary_dofs])
        assert np.abs(u - exact).max() < 1e-10 * max(1.0, np.abs(exact).max())

    def test_single_factorization_many_solves(self):
        mesh = voronoi_mesh(4, seed=11)
        G = random_modulus(5, RNG)
        operators = ph.VemOperators(mesh, [G] * len(mesh.cells))
        dm = operators.dof_map
        system = operators.system(0.1)
        for _ in range(12):
            system.solve_dirichlet(RNG.normal(size=len(dm.boundary_dofs)))
        assert system.n_factorizations == 1
        assert system.n_solves == 12

    def test_all_boundary_system(self):
        mesh = voronoi_mesh(1)
        G = random_modulus(5, RNG)
        operators = ph.VemOperators(mesh, [G])
        dm = operators.dof_map
        # the one cube cell has every node on the box
        assert np.array_equal(dm.boundary_nodes, np.arange(len(mesh.vertices)))
        system = operators.system(0.1)
        ub = RNG.normal(size=len(dm.boundary_dofs))
        u = system.solve_dirichlet(ub)
        assert np.allclose(u, ub)

    def test_singular_factorization_names_cells(self):
        rows = np.array([0, 1, 2, 3])
        cols = np.array([0, 1, 2, 3])
        vals = np.array([1.0, 1.0, 0.0, 1.0])
        dm = pa.DofMap(1, [], "electroMech")
        system = pa.system_from_triplets(rows, cols, vals, dm,
                                         deficient_cells=[3])
        with pytest.raises(pa.AssemblyError, match=r"\[3\]"):
            system.factorize()

    def test_node_no_pair_couples_is_a_singular_block(self):
        # interior node 1 has no entry, so the node graph has no pair
        # there: the node order still takes it, and the LU names the
        # singular block
        dm = pa.DofMap(3, [2], "electroMech")
        rows = np.r_[0:4, 8:12, 0:4, 8:12]
        cols = np.r_[0:4, 8:12, 8:12, 0:4]
        vals = np.r_[[4.0, 4, 4, -4], [4.0, 4, 4, -4], [1.0] * 8]
        system = pa.system_from_triplets(rows, cols, vals, dm)
        with pytest.raises(pa.AssemblyError, match="singular"):
            system.factorize()
        assert sorted(system._interior.order) == [0, 1]

    def test_wrong_boundary_value_count(self):
        mesh = voronoi_mesh(1)
        G = random_modulus(5, RNG)
        system = ph.VemOperators(mesh, [G]).system(0.1)
        with pytest.raises(pa.AssemblyError, match="boundary values"):
            system.solve_dirichlet(np.zeros(3))

    def test_permutation_invariance(self):
        points, tets = two_tet_points_tets()
        G = random_modulus(4, RNG)
        perm = np.array([3, 0, 4, 1, 2])  # new id of each old node
        boundary = np.array([0, 1, 2, 4])
        ub_by_node = {n: RNG.normal(size=4) for n in boundary}

        elems_a = [TetElem(t, points[t], G, 4) for t in tets]
        dm_a = pa.DofMap(5, boundary, "electroMech")
        ub_a = np.concatenate([ub_by_node[n] for n in dm_a.boundary_nodes])
        u_a = pa.assemble(elems_a, dm_a).solve_dirichlet(ub_a)

        points_b = np.empty_like(points)
        points_b[perm] = points
        tets_b = perm[tets]
        elems_b = [TetElem(t, points_b[t], G, 4) for t in tets_b]
        dm_b = pa.DofMap(5, perm[boundary], "electroMech")
        inv = {int(perm[n]): n for n in boundary}
        ub_b = np.concatenate([ub_by_node[inv[int(n)]]
                               for n in dm_b.boundary_nodes])
        u_b = pa.assemble(elems_b, dm_b).solve_dirichlet(ub_b)

        scale = np.abs(u_a).max()
        for old in range(5):
            new = perm[old]
            assert np.abs(u_a[old * 4:(old + 1) * 4]
                          - u_b[new * 4:(new + 1) * 4]).max() < 1e-11 * scale


class TestFieldSplit:
    """Split factorization with batched Schur complement CG against the
    whole-block LU."""

    @staticmethod
    def vem_operators(mode):
        """VEM operators of an 8-grain two-phase sample; random symmetric
        moduli are not quasi-definite, so the moduli are the library's.
        Each system(0.1) call builds a fresh system."""
        mesh = voronoi_mesh(8, seed=31)
        moduli, _ = table_moduli(mesh, ["BaTiO3", "CoFe2O4"], seed=7,
                                 mode=mode)
        return ph.VemOperators(mesh, moduli, mode)

    @pytest.mark.parametrize("mode", ["fullyCoupled", "electroMech",
                                      "magnetoMech"])
    def test_split_matches_whole_block(self, monkeypatch, mode):
        mesh = voronoi_mesh(8, seed=31)
        moduli, _ = table_moduli(mesh, ["BaTiO3", "CoFe2O4"], seed=7,
                                 mode=mode)
        whole = ph.homogenize_vem(mesh, moduli, beta=0.1, mode=mode)
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        split = ph.homogenize_vem(mesh, moduli, beta=0.1, mode=mode)
        assert whole.solver_stats["path"] == "small"
        assert split.solver_stats["path"] == "split"
        assert split.solver_stats["cg_iterations"] > 0
        assert len(split.solver_stats["lu_nnz"]) == 2
        assert split.solver_stats["max_interior_residual"] <= 1e-10
        diff = np.linalg.norm(split.effective - whole.effective)
        assert diff <= 1e-12 * np.linalg.norm(whole.effective)
        assert (split.n_dofs, split.n_factorizations, split.n_solves) == (
            whole.n_dofs, whole.n_factorizations, whole.n_solves)

    @pytest.mark.parametrize("split", [False, True])
    def test_batched_solve_equals_single_solves(self, monkeypatch, split):
        if split:
            monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        operators = self.vem_operators("fullyCoupled")
        dm = operators.dof_map
        system = operators.system(0.1)
        ub = RNG.normal(size=(len(dm.boundary_dofs), 5))
        batched = system.solve_dirichlet(ub)
        assert batched.shape == (dm.n_dofs, 5)
        assert system.solver_stats["path"] == ("split" if split else "small")
        for k in range(5):
            single = system.solve_dirichlet(ub[:, k])
            assert single.shape == (dm.n_dofs,)
            assert np.abs(batched[:, k] - single).max() \
                <= 1e-12 * np.abs(single).max()
        assert system.n_factorizations == 1
        assert system.n_solves == 10

    @pytest.mark.parametrize("split", [False, True])
    def test_products_read_k_without_a_csr_copy(self, monkeypatch, split):
        # the residual gate and the energies multiply K's node-pair
        # blocks: no CSR copy, and the bits of a CSR product
        if split:
            monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        mesh = voronoi_mesh(6, seed=31)
        moduli, _ = table_moduli(mesh, ["BaTiO3", "CoFe2O4"], seed=7)
        system = ph.VemOperators(mesh, moduli, "fullyCoupled").system(0.1)
        K = system.K.tocsr()

        def no_copy(*args, **kwargs):
            raise AssertionError("K was copied to CSR")

        monkeypatch.setattr(system.K, "tocsr", no_copy)
        ub = np.random.default_rng(5).normal(
            size=(len(system.dof_map.boundary_dofs), 3))
        U = system.solve_dirichlet(ub)
        assert system.solver_stats["path"] == ("split" if split else "small")
        ii = system.dof_map.interior_dofs
        rhs = -(system._Kib @ ub)
        KU = K @ U
        # the gate reads K_ii u_i + K_ib u_b off the product's interior rows
        assert system.solver_stats["max_interior_residual"] == \
            pc.worst_residual(KU[ii], rhs)
        assert np.array_equal(system.energy(U), 0.5 * np.array(
            [u @ ku for u, ku in zip(np.ascontiguousarray(U.T),
                                     np.ascontiguousarray(KU.T))]))
        assert system.energy(U[:, 0]) == \
            0.5 * float(U[:, 0] @ (K @ U[:, 0]))

    @pytest.mark.parametrize("split", [False, True])
    def test_battery_multiplies_k_once(self, monkeypatch, split):
        # the residual gate's product with K also gives the energies
        if split:
            monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        products = []
        multiply = sp.bsr_matrix._matmul_multivector

        def counting(self, other):
            products.append((self.shape, other.shape))
            return multiply(self, other)

        monkeypatch.setattr(sp.bsr_matrix, "_matmul_multivector", counting)
        result = self.vem_operators("fullyCoupled").evaluate(0.1)
        assert result.solver_stats["path"] == ("split" if split else "small")
        # the split's CG multiplies its own, smaller blocks
        n = result.n_dofs
        assert [p for p in products if p[0] == (n, n)] == [((n, n), (n, 12))]

    def test_singular_block_falls_back_and_names_cells(self, monkeypatch):
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        dm = pa.DofMap(1, [], "electroMech")
        system = pa.system_from_triplets(
            np.arange(4), np.arange(4), np.array([1.0, 1.0, 0.0, -1.0]), dm,
            deficient_cells=[3])
        with pytest.raises(pa.AssemblyError, match=r"\[3\]"):
            system.factorize()
        assert system.solver_stats["path"] == "fallback"

    def test_cg_cap_falls_back_to_whole_block(self, monkeypatch):
        operators = self.vem_operators("electroMech")
        ub = RNG.normal(size=(len(operators.dof_map.boundary_dofs), 3))
        expected = operators.system(0.1).solve_dirichlet(ub)
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        monkeypatch.setattr(pa, "CG_MAXITER", 2)
        system = operators.system(0.1)
        got = system.solve_dirichlet(ub)
        assert system.solver_stats["path"] == "fallback"
        assert system.solver_stats["cg_iterations"] == 2
        assert len(system.solver_stats["lu_nnz"]) == 1
        assert np.array_equal(got, expected)
        assert system.n_factorizations == 1

    def test_cg_halves_block_minres_iterations(self, monkeypatch):
        # fully coupled, split forced: block-diagonally preconditioned
        # MINRES took 17 iterations on this sample, CG on the Schur
        # complement takes 8 (eigenvalues of C^-1 S in [1.0003, 1.113])
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        result = self.vem_operators("fullyCoupled").evaluate(0.1)
        assert result.solver_stats["path"] == "split"
        assert 0 < result.solver_stats["cg_iterations"] <= 17 // 2

    def test_indefinite_potential_block_leaves_split(self, monkeypatch):
        # -K_pp = diag(1, -1): its Cholesky factor meets the negative
        # pivot, so the split refuses the block while factoring and the
        # LU of the whole block solves it
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        rng = np.random.default_rng(8)
        M = np.zeros((12, 12))
        ii = np.r_[0:8]                 # nodes 0 and 1; node 2 on the box
        A = rng.normal(size=(6, 6))
        M[np.ix_([0, 1, 2, 4, 5, 6], [0, 1, 2, 4, 5, 6])] = A @ A.T + 6 * np.eye(6)
        M[np.ix_([3, 7], [3, 7])] = np.diag([-1.0, 1.0])
        B = 0.3 * rng.normal(size=(6, 2))
        M[np.ix_([0, 1, 2, 4, 5, 6], [3, 7])] = B
        M[np.ix_([3, 7], [0, 1, 2, 4, 5, 6])] = B.T
        M[8:, :8] = rng.normal(size=(4, 8))
        M[:8, 8:] = M[8:, :8].T
        M[8:, 8:] = np.diag([9.0, 9.0, 9.0, -9.0])
        rows, cols = np.nonzero(M)
        dm = pa.DofMap(3, [2], "electroMech")
        system = pa.system_from_triplets(rows, cols, M[rows, cols], dm)
        assert isinstance(system.factorize()._factors, spla.SuperLU)
        assert system.solver_stats["path"] == "fallback"
        assert len(system.solver_stats["lu_nnz"]) == 1
        ub = rng.normal(size=(4, 3))
        got = system.solve_dirichlet(ub)
        assert system.solver_stats["cg_iterations"] == 0
        lu = spla.splu(sp.csc_matrix(M[np.ix_(ii, ii)]))
        expected = lu.solve(-M[ii, 8:] @ ub)
        assert np.abs(got[ii] - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_cg_refuses_an_indefinite_preconditioner(self):
        # C = diag(1, -1) solves without a zero pivot: a column whose
        # gᵀ C⁻¹ g, or whose first rᵀ C⁻¹ r, is negative ends the CG
        rng = np.random.default_rng(8)
        X = rng.normal(size=(6, 6))
        A = X @ X.T + 6 * np.eye(6)
        C = np.diag([1.0, -1.0])
        B = np.zeros((6, 2))
        B[:, 1] = rng.normal(size=6)
        solve_a = lambda r, bound: np.linalg.solve(A, r)
        solve_c = lambda r, bound: np.linalg.solve(C, r)
        f = rng.normal(size=(6, 1))
        for g in (np.array([[0.0], [10.0]]), np.zeros((2, 1))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                u, p, iterations = pa._schur_cg(
                    solve_a, solve_c, sp.csc_matrix(B), sp.csc_matrix(C), f, g)
            assert u is None and p is None and iterations == 0

    def test_decoupled_system_closes_without_iterations(self):
        # B stores no entry: S = C, so p = C⁻¹ r closes every column at
        # once, and the solution is exact
        rng = np.random.default_rng(9)
        X, Y = rng.normal(size=(6, 6)), rng.normal(size=(3, 3))
        A, C = X @ X.T + 6 * np.eye(6), Y @ Y.T + 3 * np.eye(3)
        f, g = rng.normal(size=(6, 4)), rng.normal(size=(3, 4))
        g[:, 0] = 0.0
        u, p, iterations = pa._schur_cg(
            lambda r, bound: np.linalg.solve(A, r),
            lambda r, bound: np.linalg.solve(C, r),
            sp.csc_matrix((6, 3)), sp.csc_matrix(C), f, g)
        assert iterations == 0
        assert np.abs(u - np.linalg.solve(A, f)).max() \
            <= 1e-14 * np.abs(u).max()
        assert np.abs(p + np.linalg.solve(C, g)).max() \
            <= 1e-14 * np.abs(p).max()
        assert not p[:, 0].any()

    def test_decoupled_mode_takes_no_cg_iteration(self, monkeypatch):
        # magnetoMech on grains without piezomagnetic constants
        mesh = voronoi_mesh(8, seed=31)
        moduli, _ = table_moduli(mesh, ["BaTiO3"], seed=7, mode="magnetoMech")
        whole = ph.homogenize_vem(mesh, moduli, beta=0.1, mode="magnetoMech")
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        split = ph.homogenize_vem(mesh, moduli, beta=0.1, mode="magnetoMech")
        assert split.solver_stats["path"] == "split"
        assert split.solver_stats["cg_iterations"] == 0
        assert np.linalg.norm(split.effective - whole.effective) \
            <= 1e-12 * np.linalg.norm(whole.effective)

    def test_split_rung_makes_no_superlu_call(self, monkeypatch):
        operators = self.vem_operators("fullyCoupled")
        ub = RNG.normal(size=(len(operators.dof_map.boundary_dofs), 3))
        expected = operators.system(0.1).solve_dirichlet(ub)

        def no_superlu(*args, **kwargs):
            raise AssertionError("splu called on the split path")
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        monkeypatch.setattr(spla, "splu", no_superlu)
        system = operators.system(0.1)
        got = system.solve_dirichlet(ub)
        assert system.solver_stats["path"] == "split"
        assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()

    @pytest.mark.parametrize("mode", ["fullyCoupled", "electroMech",
                                      "magnetoMech"])
    def test_incomplete_factor_orders_as_the_complete_one(self, monkeypatch,
                                                          mode):
        # the order of the interior node graph, the one every factor on
        # the pattern takes, is that of the complete factor of the graph
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        system = self.vem_operators(mode).system(0.1).factorize()
        graph = node_graph(system)
        complete = spla.splu(graph, permc_spec="MMD_AT_PLUS_A",
                             diag_pivot_thresh=pa.PIVOT_THRESHOLD, relax=1,
                             options={"SymmetricMode": True})
        assert np.array_equal(pa._min_degree_order(graph), complete.perm_c)
        assert np.array_equal(system._interior.order,
                              pa._node_order(complete.perm_c, 1))

    def test_batched_cg_equals_single_columns_without_warnings(self):
        # a zero column, a column that starts solved, one whose Schur
        # right-hand side is C times an eigenvector of C^-1 S (solved in
        # one iteration) and two random ones: the batch closes them at
        # different iterations, and no step divides by a zero curvature
        rng = np.random.default_rng(12)
        X = rng.normal(size=(9, 9))
        A = X @ X.T + 9 * np.eye(9)
        Y = rng.normal(size=(4, 4))
        C = Y @ Y.T + 4 * np.eye(4)
        B = rng.normal(size=(9, 4))
        f, g = rng.normal(size=(9, 5)), rng.normal(size=(4, 5))
        f[:, 0] = g[:, 0] = 0.0
        f[:, 1], g[:, 1] = A @ f[:, 1], B.T @ f[:, 1]      # p = 0 solves it
        _, V = sl.eigh(C + B.T @ np.linalg.solve(A, B), C)
        g[:, 2] = B.T @ np.linalg.solve(A, f[:, 2]) - C @ V[:, 0]
        solve_a = lambda r, bound: np.linalg.solve(A, r)
        solve_c = lambda r, bound: np.linalg.solve(C, r)
        Bs, Cs = sp.csc_matrix(B), sp.csc_matrix(C)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, p, iterations = pa._schur_cg(solve_a, solve_c, Bs, Cs, f, g)
            singles = [pa._schur_cg(solve_a, solve_c, Bs, Cs, f[:, [k]],
                                    g[:, [k]]) for k in range(5)]
        assert 0 < iterations <= 4 + 1
        assert not u[:, 0].any() and not p[:, 0].any()
        assert not p[:, 1].any()
        assert [s[2] for s in singles[:3]] == [0, 0, 1]
        for k, (uk, pk, _) in enumerate(singles):
            assert np.abs(u[:, k] - uk[:, 0]).max() <= 1e-12 * np.abs(u).max()
            assert np.abs(p[:, k] - pk[:, 0]).max() <= 1e-12 * np.abs(p).max()
        K = np.block([[A, B], [B.T, -C]])
        exact = np.linalg.solve(K, np.vstack([f, g]))
        assert np.abs(np.vstack([u, p]) - exact).max() \
            <= 1e-12 * np.abs(exact).max()

    def test_indefinite_block_takes_pivoted_rung(self):
        # the mechanical 2x2 [[eps, 1], [1, eps]] is nonsingular but not
        # quasi-definite: its tiny diagonal pivot falls below the
        # threshold, so the LU pivots off the diagonal and the solve
        # passes the gate on the small path
        rng = np.random.default_rng(5)
        M = np.zeros((8, 8))
        M[:4, :4] = [[1e-20, 1, 0, 0], [1, 1e-20, 0, 0], [0, 0, 2, 0],
                     [0, 0, 0, -1]]
        M[:4, 4:] = rng.normal(size=(4, 4))
        M[4:, :4] = M[:4, 4:].T
        M[4:, 4:] = np.diag([1.0, 1.0, 1.0, -1.0])
        rows, cols = np.nonzero(M)
        dm = pa.DofMap(2, [1], "electroMech")
        system = pa.system_from_triplets(rows, cols, M[rows, cols], dm)
        ub = rng.normal(size=(4, 3))
        got = system.solve_dirichlet(ub)
        assert system.solver_stats["path"] == "small"
        lu = system._factors
        assert not np.array_equal(lu.perm_r, lu.perm_c)
        assert system.solver_stats["max_interior_residual"] <= 1e-10
        Kii = sp.csc_matrix(M[:4, :4])
        expected = spla.spsolve(Kii, -M[:4, 4:] @ ub)
        assert np.abs(got[:4] - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_empty_interior_takes_the_lu(self, monkeypatch):
        # every node on the box: the split has nothing to factor, and the
        # empty LU leaves a pure boundary evaluation
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        system = TestScaledBlocks.system("all-boundary")
        ub = RNG.normal(size=(system.dof_map.n_dofs, 2))
        assert np.array_equal(system.solve_dirichlet(ub), ub)
        assert system.solver_stats["path"] == "small"

    @pytest.mark.parametrize("path", ["small", "split", "fallback"])
    def test_solved_system_holds_no_reference_cycle(self, monkeypatch, path):
        # with the cyclic collector off, the last reference to a solved
        # system frees it: nothing it stores refers back to it
        if path != "small":
            monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        if path == "fallback":
            monkeypatch.setattr(pa, "CG_MAXITER", 2)
        operators = self.vem_operators("electroMech")
        ub = RNG.normal(size=(len(operators.dof_map.boundary_dofs), 3))
        gc.disable()
        try:
            system = operators.system(0.1)
            system.solve_dirichlet(ub)
            assert system.solver_stats["path"] == path
            alive = weakref.ref(system)
            del system
            assert alive() is None
        finally:
            gc.enable()

    def test_small_path_matches_direct_solve(self):
        # the electro-mechanical block is well conditioned, so the bound
        # measures the symmetric LU, not the round-off of two solvers
        operators = self.vem_operators("electroMech")
        dm = operators.dof_map
        system = operators.system(0.1)
        ub = RNG.normal(size=(len(dm.boundary_dofs), 4))
        got = system.solve_dirichlet(ub)
        assert system.solver_stats["path"] == "small"
        ii, ib = dm.interior_dofs, dm.boundary_dofs
        K = system.K.tocsr()
        expected = spla.spsolve(K[ii][:, ii].tocsc(), -(K[ii][:, ib] @ ub))
        assert np.abs(got[ii] - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("mode", ["fullyCoupled", "electroMech",
                                      "magnetoMech"])
    def test_split_matches_dense_solves(self, monkeypatch, mode):
        # the refined single-precision split against float64 dense solves
        # of the same interior block
        mesh = voronoi_mesh(8, seed=31)
        moduli, _ = table_moduli(mesh, ["BaTiO3", "CoFe2O4"], seed=7,
                                 mode=mode)
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        split = ph.homogenize_vem(mesh, moduli, beta=0.1, mode=mode)

        def dense(self, rhs, ub):
            ii = self._ii
            ui = np.linalg.solve(self.K.toarray()[np.ix_(ii, ii)], rhs)
            return *self._gated(ui, ub, rhs)[:2], 0.0
        monkeypatch.setattr(pa.SparseSystem, "_solve_interior", dense)
        exact = ph.homogenize_vem(mesh, moduli, beta=0.1, mode=mode)
        assert split.solver_stats["path"] == "split"
        assert np.linalg.norm(split.effective - exact.effective) \
            <= 1e-12 * np.linalg.norm(exact.effective)

    @pytest.mark.parametrize("kappa", [1e5, 1e9])
    def test_ill_conditioned_block_is_refined_or_handed_on(self, monkeypatch,
                                                           kappa):
        # a mechanical block of condition number kappa; 1e9 is beyond
        # float32 (1 / u = 1.7e7). The split refines its single-precision
        # passes to the gate, or the LU solves the block: either way
        # every column passes the gate, checked here on the dense
        # matrix, and a hand-over shows as the fallback path
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        rng = np.random.default_rng(17)
        n_inner, nf = 6, 4                      # nodes 6 and 7 on the box
        mech = np.arange(n_inner * nf) % nf < 3
        Q, _ = np.linalg.qr(rng.normal(size=(18, 18)))
        A = (Q * np.logspace(0, np.log10(kappa), 18)) @ Q.T
        Y = rng.normal(size=(6, 6))
        u, p = np.flatnonzero(mech), np.flatnonzero(~mech)
        M = np.zeros((8 * nf, 8 * nf))
        M[np.ix_(u, u)] = A
        M[np.ix_(p, p)] = -(Y @ Y.T + np.eye(6))
        M[np.ix_(p, u)] = 0.1 * rng.normal(size=(6, 18))
        M[np.ix_(u, p)] = M[np.ix_(p, u)].T
        M = np.tril(M) + np.tril(M, -1).T
        # boundary coupling K_ib = K_ii W, so u_i = -W u_b: the solution
        # is well scaled, and the float64 LU meets the gate
        ni = n_inner * nf
        M[:ni, ni:] = M[:ni, :ni] @ rng.normal(size=(ni, 8))
        M[ni:, :ni] = M[:ni, ni:].T
        M[ni:, ni:] = np.diag([9.0, 9, 9, -9] * 2)
        rows, cols = np.nonzero(M)
        dm = pa.DofMap(8, [6, 7], "electroMech")
        system = pa.system_from_triplets(rows, cols, M[rows, cols], dm)
        ub = rng.normal(size=(8, 3))
        got = system.solve_dirichlet(ub)
        stats = system.solver_stats
        ii, ib = dm.interior_dofs, dm.boundary_dofs
        rhs = -M[np.ix_(ii, ib)] @ ub
        residual = np.linalg.norm(M[np.ix_(ii, ii)] @ got[ii] - rhs, axis=0)
        assert (residual <= 1e-10 * np.linalg.norm(rhs, axis=0)).all()
        assert stats["max_interior_residual"] <= 1e-10
        if kappa < 1e7:
            assert stats["path"] == "split" and stats["refinement_steps"] > 0
        else:
            assert stats["path"] in ("split", "fallback")

    def test_split_factors_store_less_than_default_relaxation(self,
                                                              monkeypatch):
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        system = self.vem_operators("fullyCoupled").system(0.1).factorize()
        default = sum(spla.splu(block, permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=0.0,
                                options={"SymmetricMode": True}).nnz
                      for block in split_blocks(system._interior_block(), 5))
        assert sum(system.solver_stats["lu_nnz"]) < default


class TestWholeBlockLU:
    """Every whole block takes one SuperLU setting, in the node order of
    its pattern, with threshold pivoting; on quasi-definite blocks it
    keeps every diagonal pivot."""

    @staticmethod
    def systems(mode):
        """The systems of one 6-grain sample: VEM at
        three weights and the coarse, refined and quadratic tets."""
        mesh = voronoi_mesh(6, seed=31)
        moduli, _ = table_moduli(mesh, ["BaTiO3", "CoFe2O4"], seed=7,
                                 mode=mode)
        operators = ph.VemOperators(mesh, moduli, mode)
        systems = {f"VEM-{b}": operators.system(b) for b in (0.0, 0.1, 1.0)}
        for name, tmesh in (
                ("FEM-O1-coarse", mesh.tets),
                ("FEM-O1-refined(1)", pm.refine_tet_mesh(mesh.tets, 1)),
                ("FEM-O2-coarse", pf.promote_to_quadratic(mesh.tets))):
            dm = pa.DofMap(tmesh.n_vertices, tmesh.boundary_node_ids, mode)
            systems[name] = ph._tet_system(tmesh, moduli, dm)[0]
        return systems

    @pytest.mark.parametrize("mode", ["fullyCoupled", "electroMech",
                                      "magnetoMech"])
    def test_threshold_pivoting_moves_no_number(self, mode):
        # the factor a system keeps, of its node-ordered block: each
        # pivot on the diagonal, and the bits of the unpivoted factor
        for name, system in self.systems(mode).items():
            got = system.factorize()._factors
            assert system.solver_stats["path"] == "small", name
            assert np.array_equal(got.perm_r, got.perm_c), name
            unpivoted = spla.splu(system._interior_block(),
                                  permc_spec="NATURAL", diag_pivot_thresh=0.0,
                                  relax=1, options={"SymmetricMode": True})
            for attr in ("perm_r", "perm_c"):
                assert np.array_equal(getattr(got, attr),
                                      getattr(unpivoted, attr)), name
            for attr in ("L", "U"):
                assert getattr(got, attr).data.tobytes() == \
                    getattr(unpivoted, attr).data.tobytes(), name

    @pytest.mark.parametrize("mode", ["fullyCoupled", "electroMech",
                                      "magnetoMech"])
    def test_solutions_match_spsolve(self, mode):
        # norm-wise: on the fully coupled tet blocks spsolve itself is
        # 1e-12 off a dense solve in its largest entry
        rng = np.random.default_rng(3)
        for name, system in self.systems(mode).items():
            dm = system.dof_map
            ub = rng.normal(size=(len(dm.boundary_dofs), 3))
            got = system.solve_dirichlet(ub)[dm.interior_dofs]
            Kii, Kib = sliced_oracle(system)
            expected = spla.spsolve(Kii, -(Kib @ ub))
            assert np.linalg.norm(got - expected) \
                <= 1e-12 * np.linalg.norm(expected), name

    def test_positive_weights_order_the_pattern_once(self, monkeypatch):
        # the β > 0 systems of one VemOperators share one pattern, and
        # with it the ordering pass
        calls = []
        order = pa._min_degree_order

        def counting(block):
            calls.append(block.shape)
            return order(block)

        monkeypatch.setattr(pa, "_min_degree_order", counting)
        operators = TestFieldSplit.vem_operators("fullyCoupled")
        for beta in (0.1, 0.5, 1.0):
            operators.evaluate(beta)
        assert len(calls) == 1

    def test_split_and_whole_block_read_one_node_order(self, monkeypatch):
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        orders = []
        symbolic = pa.NodeSymbolic

        def recording(rows, cols, order):
            orders.append(order)
            return symbolic(rows, cols, order)

        monkeypatch.setattr(pa, "NodeSymbolic", recording)
        system = TestFieldSplit.vem_operators("fullyCoupled").system(0.1)
        system.factorize()
        assert system.solver_stats["path"] == "split"
        assert len(orders) == 1 and orders[0] is system._interior.order
        perm = pa.node_dofs(orders[0], system.dof_map.n_fields)
        Kii = sliced_oracle(system)[0]
        assert_same_bits(system._interior_block(), Kii[perm][:, perm])


def node_graph(system):
    """The interior node graph of a factored system as a matrix, one
    column per interior node (by rank), with a dominant diagonal."""
    rows, cols = system._interior.ranks(system._interior.pairs)
    n = len(system._interior.order)
    graph = sp.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return (graph + 2 * n * sp.identity(n, format="csc")).tocsc()


def split_blocks(K, n_fields):
    """(K_uu, -K_pp) of a node-major block K: the mechanical dofs
    (field < 3) and the negated potential dofs, each in dof order."""
    mech = np.arange(K.shape[0]) % n_fields < 3
    K = K.tocsr()
    return K[mech][:, mech].tocsc(), -K[~mech][:, ~mech].tocsc()


def node_block_spd(n_nodes, b, elements, rng):
    """Sparse SPD matrix with b dofs per node (node-major), the sum of
    one random SPD matrix per element (a list of node-id arrays) plus a
    diagonal that keeps it well conditioned."""
    rows, cols, vals = [], [], []
    for nodes in elements:
        dofs = pa.node_dofs(np.asarray(nodes)[None], b)[0]
        X = rng.normal(size=(len(dofs), len(dofs)))
        rows.append(np.repeat(dofs, len(dofs)))
        cols.append(np.tile(dofs, len(dofs)))
        vals.append((X @ X.T).ravel())
    n = n_nodes * b
    A = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                              np.concatenate(cols))),
                      shape=(n, n)).tocsc()
    return (A + n * sp.eye(n)).tocsc()


def node_cholesky(A, b, order):
    """NodeCholesky of a sparse matrix A with b dofs per node, node-major:
    its node blocks read from A's CSC arrays, which are the CSR arrays
    of Aᵀ, so block (J, I) of Aᵀ holds A's block (I, J) transposed."""
    n = A.shape[0]
    if n % b or A.shape != (n, n):
        raise ValueError(f"matrix {A.shape} is not square in blocks of {b}")
    A = A.tocsc()
    M = sp.csr_matrix((A.data, A.indices, A.indptr),
                      shape=(n, n)).tobsr((b, b))
    col = np.repeat(np.arange(n // b), np.diff(M.indptr))
    symbolic = pc.NodeSymbolic(M.indices, col, order)
    return pc.NodeCholesky(M.data, M.indices, col, symbolic)


class TestNodeCholesky:
    """The supernodal node-block Cholesky factor against dense solves."""

    @staticmethod
    def assert_solves(A, b, order, n_rhs=3):
        factor = node_cholesky(A, b, order)
        rhs = RNG.normal(size=(A.shape[0], n_rhs))
        expected = np.linalg.solve(A.toarray(), rhs)
        for got in (factor.solve(rhs), factor.solve(rhs[:, 0])[:, None]):
            assert np.abs(got - expected[:, :got.shape[1]]).max() \
                <= 1e-12 * np.abs(expected).max()
        return factor

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_random_node_block_matrices(self, b):
        rng = np.random.default_rng(b)
        n_nodes = 60
        elements = [rng.choice(n_nodes, 4, replace=False) for _ in range(70)]
        A = node_block_spd(n_nodes, b, elements, rng)
        factor = self.assert_solves(A, b, rng.permutation(n_nodes))
        # the store's lower triangle covers the nonzeros of A at least
        assert factor.nnz >= sp.tril(A).nnz

    def test_forest_of_two_grains(self):
        # two grains that share no node, their node ids interleaved: the
        # elimination tree is a forest with two roots
        rng = np.random.default_rng(11)
        grains = [np.arange(0, 40, 2), np.arange(1, 40, 2)]
        elements = [rng.choice(g, 4, replace=False) for g in grains
                    for _ in range(25)]
        A = node_block_spd(40, 3, elements, rng)
        d0, d1 = (pa.node_dofs(g[None], 3)[0] for g in grains)
        assert A[d0][:, d1].nnz == 0
        self.assert_solves(A, 3, np.arange(40))

    def test_one_dense_clique(self):
        # one polyhedral element couples all its nodes: a single supernode
        rng = np.random.default_rng(12)
        A = node_block_spd(14, 3, [np.arange(14)], rng)
        factor = self.assert_solves(A, 3, rng.permutation(14))
        assert len(factor.below) == 1 and factor.nnz == 42 * 43 // 2
        # the packed diagonal block, and the spill entry
        assert factor._store.size == factor.nnz + 1

    def test_single_node(self):
        A = node_block_spd(1, 3, [np.array([0])], np.random.default_rng(13))
        self.assert_solves(A, 3, [0])

    def test_nonpositive_pivot_raises(self):
        A = node_block_spd(6, 3, [np.arange(6)], np.random.default_rng(14))
        A = A.tolil()
        A[4, 4] = -1.0
        with pytest.raises(RuntimeError, match="not positive"):
            node_cholesky(A.tocsc(), 3, np.arange(6))

    def test_shared_symbolic_step_is_bit_identical(self):
        # one symbolic step, made from the b = 1 matrix, serves the
        # factors of b = 1, 2 and 3 on the same node graph; each equals
        # the factor made on a symbolic step of its own
        rng = np.random.default_rng(20)
        elements = [rng.choice(50, 4, replace=False) for _ in range(60)]
        order = rng.permutation(50)
        shared = None
        for b in (1, 2, 3):
            A = node_block_spd(50, b, elements, rng)
            M = sp.csr_matrix((A.data, A.indices, A.indptr),
                              shape=A.shape).tobsr((b, b))
            col = np.repeat(np.arange(50), np.diff(M.indptr))
            if shared is None:
                shared = pc.NodeSymbolic(M.indices, col, order)
            together = pc.NodeCholesky(M.data, M.indices, col, shared)
            alone = node_cholesky(A, b, order)
            assert together._store.tobytes() == alone._store.tobytes()
            assert together.nnz == alone.nnz

    def test_matrix_not_square_in_blocks_raises(self):
        A = node_block_spd(5, 2, [np.arange(5)], np.random.default_rng(16))
        with pytest.raises(ValueError, match="not square in blocks of 3"):
            node_cholesky(A, 3, np.arange(5))

    def test_store_beyond_physical_memory_leaves_the_ladder(self,
                                                            monkeypatch):
        # the factor's size is known before its store is allocated; a
        # store the machine cannot hold is an AssemblyError, and the LU
        # does not try to factor the block
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        monkeypatch.setattr(pc, "physical_memory", lambda: 1000)
        system = TestFieldSplit.vem_operators("fullyCoupled").system(0.1)
        with pytest.raises(pa.AssemblyError, match="physical memory"):
            system.factorize()
        assert system.solver_stats["path"] == "split"
        assert system._factors is None

    @pytest.mark.parametrize("version", [1, 2])
    def test_physical_memory_reads_the_cgroup_limit(self, tmp_path,
                                                    monkeypatch, version):
        # a temporary directory stands for the cgroup mount; the limit of
        # the process's own cgroup lowers the bound, "max" or a limit at
        # or above the machine's memory leaves it
        machine = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        root = tmp_path / "cgroup"
        if version == 2:
            line, limit = "0::/job/step", root / "job/step/memory.max"
        else:
            line = "4:memory:/job"
            limit = root / "memory/job/memory.limit_in_bytes"
        limit.parent.mkdir(parents=True)
        (tmp_path / "self").write_text(f"9:pids:/\n{line}\n")
        monkeypatch.setattr(pc, "SELF_CGROUP", str(tmp_path / "self"))
        monkeypatch.setattr(pc, "CGROUP_ROOT", str(root))
        for text, expected in (("4096\n", 4096), ("max\n", machine),
                               (f"{2 * machine}\n", machine)):
            limit.write_text(text)
            assert pc.physical_memory() == expected
        limit.unlink()
        assert pc.physical_memory() == machine
        monkeypatch.setattr(pc, "SELF_CGROUP", str(tmp_path / "absent"))
        assert pc.physical_memory() == machine

    @pytest.mark.parametrize("error", [RecursionError, NotImplementedError,
                                       pc.NotPositiveDefinite])
    def test_only_a_nonpositive_pivot_leaves_the_split(self, monkeypatch,
                                                       error):
        # a fault in the split's code is raised, not solved around by the
        # whole-block LU; a factor that meets a nonpositive pivot hands
        # the block on
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)

        def failing(*args):
            raise error("in the split")

        monkeypatch.setattr(pa, "NodeCholesky", failing)
        system = TestFieldSplit.vem_operators("electroMech").system(0.1)
        if error is pc.NotPositiveDefinite:
            assert isinstance(system.factorize()._factors, spla.SuperLU)
            assert system.solver_stats["path"] == "fallback"
        else:
            with pytest.raises(error, match="in the split"):
                system.factorize()

    def test_split_with_nonpositive_pivot_falls_back(self, monkeypatch):
        # an indefinite but nonsingular mechanical block: the split's
        # Cholesky factor refuses it, and the symmetric LU of the whole
        # block solves it
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        rng = np.random.default_rng(15)
        M = np.zeros((12, 12))
        M[:8, :8] = np.diag([2.0, 3.0, -1.0, -1.0, 2.0, 3.0, 3.0, -2.0])
        M[:8, :8] += 0.1 * np.ones((8, 8))
        M[:8, 8:] = 0.1 * rng.normal(size=(8, 4))
        M[8:, :8] = M[:8, 8:].T
        M[8:, 8:] = np.eye(4)
        rows, cols = np.nonzero(M)
        dm = pa.DofMap(3, [2], "electroMech")
        system = pa.system_from_triplets(rows, cols, M[rows, cols], dm)
        ub = rng.normal(size=(4, 3))
        got = system.solve_dirichlet(ub)
        assert system.solver_stats["path"] == "fallback"
        assert system.solver_stats["max_interior_residual"] <= 1e-10
        ii = dm.interior_dofs
        ib = dm.boundary_dofs
        expected = np.linalg.solve(M[np.ix_(ii, ii)], -M[np.ix_(ii, ib)] @ ub)
        assert np.abs(got[ii] - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_factorizations_are_bit_identical(self, monkeypatch):
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        operators = TestFieldSplit.vem_operators("fullyCoupled")
        ub = RNG.normal(size=(len(operators.dof_map.boundary_dofs), 4))
        first, second = (operators.system(0.1).solve_dirichlet(ub)
                         for _ in range(2))
        assert np.array_equal(first, second)

    def test_factor_memory_guard(self):
        # factoring K_uu of the 20-grain level-1 reference may hold at
        # most twice the bytes of the factor's store
        tmesh, moduli = TestBlockPattern.level1_reference()
        dm = pa.DofMap(tmesh.n_vertices, tmesh.boundary_node_ids, "electroMech")
        system, _, _ = ph._tet_system(tmesh, moduli, dm)
        ii = dm.interior_dofs
        mech = ii % dm.n_fields < 3
        K = system.K.tocsr()[ii][:, ii]
        Kuu, Kpp = K[mech][:, mech].tocsc(), K[~mech][:, ~mech].tocsc()
        order = pa._node_order(pa._min_degree_order(-Kpp), 1)
        tracemalloc.start()
        try:
            factor = node_cholesky(Kuu, 3, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * factor._store.nbytes


def block_triplets(dofs, blocks):
    """Dof-level COO (rows, cols, vals) of dense blocks: blocks[k] couples
    dofs[k] with themselves (the layout global assembly once used)."""
    nd = dofs.shape[1]
    return (np.repeat(dofs, nd, axis=1).ravel(),
            np.tile(dofs, (1, nd)).ravel(), blocks.ravel())


def coo_reference(dofs_and_blocks, n_dofs):
    """CSC matrix of the summed triplets of (dofs, blocks) chunks."""
    rows, cols, vals = (np.concatenate(part) for part in zip(
        *(block_triplets(d, b) for d, b in dofs_and_blocks)))
    return sp.coo_matrix((vals, (rows, cols)), shape=(n_dofs, n_dofs)).tocsc()


class TestBlockPattern:
    """The node-pair pattern path against a summed coordinate list."""

    MODE = "electroMech"

    @classmethod
    def sample(cls):
        mesh = voronoi_mesh(8, seed=31)
        moduli, _ = table_moduli(mesh, ["BaTiO3", "CoFe2O4"], seed=7,
                                 mode=cls.MODE)
        tmesh = pm.union_submeshes(
            mesh, [pm.triangulate_cell(mesh, c) for c in range(len(mesh.cells))])
        return mesh, moduli, tmesh

    @staticmethod
    def assert_same_matrix(K, ref):
        K = K.tocsc()
        assert np.array_equal(K.indptr, ref.indptr)
        assert np.array_equal(K.indices, ref.indices)
        assert np.abs(K.data - ref.data).max() <= 1e-14 * np.abs(ref.data).max()

    def tet_case(self, order, levels):
        """(system, reference) of the linear or quadratic tet path."""
        mesh, moduli, tmesh = self.sample()
        nf = pf.FIELD_COUNT[self.MODE]
        if order == 1:
            tmesh = pm.refine_tet_mesh(tmesh, levels) if levels else tmesh
            B, vols = pf.batch_o1_operators(tmesh.vertices, tmesh.tets, nf)
            B, w = B[:, None], vols[:, None]
        else:
            B, w = pf.quadratic_state_operators(tmesh.vertices, tmesh.tets, nf)
            tmesh = pf.promote_to_quadratic(tmesh)
        dm = pa.DofMap(tmesh.n_vertices, tmesh.boundary_node_ids, self.MODE)
        system, _, _ = ph._tet_system(tmesh, moduli, dm)
        nodes, owners = tmesh.tets, tmesh.cell_of_tet
        chunks = []
        for c in np.unique(owners):
            idx = np.nonzero(owners == c)[0]
            chunks.append((pa.node_dofs(nodes[idx], nf),
                           pf.gauss_stiffness(B[idx], w[idx], moduli[c])))
        return system, coo_reference(chunks, dm.n_dofs)

    @pytest.mark.parametrize("order,levels", [(1, 0), (1, 1), (2, 0)])
    def test_tet_systems_match_coordinate_sum(self, order, levels):
        system, ref = self.tet_case(order, levels)
        self.assert_same_matrix(system.K, ref)

    @pytest.mark.parametrize("beta", [0.0, 0.1])
    def test_vem_systems_match_coordinate_sum(self, beta):
        mesh, moduli, _ = self.sample()
        nf = pf.FIELD_COUNT[self.MODE]
        ops = ph.VemOperators(mesh, moduli, self.MODE)
        chunks = []
        for c in pv.cell_operators(mesh, range(len(mesh.cells)), moduli, nf):
            K = (1.0 - beta) * c.K_cons + beta * c.K_tet if beta else c.K_cons
            chunks.append((pa.node_dofs(c.node_ids, nf)[None], K[None]))
        self.assert_same_matrix(ops.system(beta).K,
                                coo_reference(chunks, ops.dof_map.n_dofs))

    def tet_blocks(self):
        """(pattern, blocks, dof map) of the sample's linear tets."""
        mesh, moduli, tmesh = self.sample()
        nf = pf.FIELD_COUNT[self.MODE]
        dm = pa.DofMap(tmesh.n_vertices, tmesh.boundary_node_ids, self.MODE)
        B, vols = pf.batch_o1_operators(tmesh.vertices, tmesh.tets, nf)
        pattern, (positions,) = pa.BlockPattern.of_elements(
            [tmesh.tets], tmesh.n_vertices, nf)
        blocks = np.zeros((pattern.n_pairs, nf, nf))
        for c in np.unique(tmesh.cell_of_tet):
            idx = np.nonzero(tmesh.cell_of_tet == c)[0]
            pa.add_blocks(blocks, positions[idx], pf.gauss_stiffness(
                B[idx, None], vols[idx, None], moduli[c]))
        return pattern, blocks, dm

    def test_asymmetric_block_fails_audit(self):
        pattern, blocks, dm = self.tet_blocks()
        pa.system_from_blocks(pattern, blocks, dm)      # symmetric: passes
        off = np.nonzero(pattern.rows != pattern.cols)[0][0]
        blocks[off, 0, 1] += 1e-9 * np.abs(blocks).max()
        with pytest.raises(pa.AssemblyError, match="asymmetry"):
            pa.system_from_blocks(pattern, blocks, dm)

    @pytest.mark.parametrize("factor", [2.0, 0.99])
    def test_chunked_audit_reads_the_last_chunk(self, monkeypatch, factor):
        pattern, blocks, dm = self.tet_blocks()
        monkeypatch.setattr(pa, "AUDIT_PAIRS", 7)
        assert pattern.n_pairs > 10 * pa.AUDIT_PAIRS
        # the last pair is a diagonal one, its own mirror: the only
        # asymmetric pair, alone in the last chunk
        last = pattern.n_pairs - 1
        assert pattern.rows[last] == pattern.cols[last]
        scale = np.abs(blocks).max()
        blocks[last, 0, 1] += factor * pa.SYMMETRY_AUDIT * scale
        # the message of the audit over one whole difference array
        diff = blocks[pattern.mirror].transpose(0, 2, 1) - blocks
        assert np.abs(diff[:last]).max() < 1e-3 * pa.SYMMETRY_AUDIT * scale
        message = (f"assembled matrix asymmetry "
                   f"{max(diff.max(), -diff.min()):.3e} exceeds audit "
                   f"tolerance ({pa.SYMMETRY_AUDIT * np.abs(blocks).max():.3e})")
        if factor < 1.0:
            pa.system_from_blocks(pattern, blocks, dm)
        else:
            with pytest.raises(pa.AssemblyError, match=re.escape(message)):
                pa.system_from_blocks(pattern, blocks, dm)

    def test_repeated_node_is_summed(self):
        # entries of one element that meet in one node pair add up, as
        # in a coordinate sum
        elem = TetElem([0, 1, 2, 3], two_tet_points_tets()[0][:4],
                       random_modulus(4, RNG), 4)
        elem.node_ids = np.array([0, 1, 2, 2])
        system = pa.assemble([elem], pa.DofMap(3, [], "electroMech"))
        ref = coo_reference([(pa.node_dofs(elem.node_ids[None], 4),
                              elem.stiffness[None])], 12)
        self.assert_same_matrix(system.K, ref)

    @staticmethod
    def level1_reference():
        """Mesh and moduli of the 20-grain level-1 electro-mechanical
        reference (3,248 tets)."""
        mesh = pm.generate_voronoi(pm.random_seeds(20, 1.0, 101).seeds, 1.0)
        moduli, _ = table_moduli(mesh, ["BaTiO3"], seed=7,
                                 mode=TestBlockPattern.MODE)
        tmesh = pm.refine_tet_mesh(mesh.tets, 1)
        assert len(tmesh.tets) == 3248
        return tmesh, moduli

    def test_refined_system_memory_guard(self):
        # building the level-1 reference's system, tet operators included,
        # may hold at most 8 times the bytes of K
        tmesh, moduli = self.level1_reference()
        dm = pa.DofMap(tmesh.n_vertices, tmesh.boundary_node_ids, self.MODE)
        tracemalloc.start()
        try:
            system, _, _ = ph._tet_system(tmesh, moduli, dm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        K = system.K
        assert peak <= 8 * (K.data.nbytes + K.indices.nbytes + K.indptr.nbytes)


def quasi_definite_triplets(rng):
    """(rows, cols, vals, dof map) of a sparse symmetric electro-mechanical
    system of 6 nodes, 2 on the boundary: K_uu positive and K_pp negative
    definite, some node pairs uncoupled and some entries of coupled pairs
    exactly zero."""
    n_nodes, nf = 6, 4
    X = rng.normal(size=(n_nodes * nf, n_nodes * nf))
    X += X.T
    coupled = rng.random((n_nodes, n_nodes)) < 0.6
    coupled |= coupled.T | np.eye(n_nodes, dtype=bool)
    X *= np.kron(coupled, np.ones((nf, nf)))
    X[0, 5] = X[5, 0] = X[6, 9] = X[9, 6] = 0.0
    X += np.diag(np.tile([30.0, 30.0, 30.0, -30.0], n_nodes))
    rows, cols = np.nonzero(X)
    return rows, cols, X[rows, cols], pa.DofMap(n_nodes, [0, 5], "electroMech")


def sliced_oracle(system):
    """(K_ii, K_ib) sliced from the CSC of system.K by fancy indexing,
    with the exact zeros of its node blocks dropped."""
    dm = system.dof_map
    K = system.K.tocsc()
    K.eliminate_zeros()
    rows = K[dm.interior_dofs]
    return rows[:, dm.interior_dofs], rows[:, dm.boundary_dofs]


def assert_same_bits(A, B):
    A, B = A.tocsc().sorted_indices(), B.tocsc().sorted_indices()
    assert A.shape == B.shape
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert A.data.tobytes() == B.data.tobytes()


class TestScaledBlocks:
    """The interior and interior-boundary blocks cut from the node pairs,
    bit for bit against K sliced by dofs, with no scaling in between."""

    @staticmethod
    def system(case):
        if case.startswith("vem-"):
            return TestFieldSplit.vem_operators(case[4:]).system(0.1)
        if case.startswith("tet-"):
            return TestBlockPattern().tet_case(int(case[-1]), 0)[0]
        rows, cols, vals, dm = quasi_definite_triplets(
            np.random.default_rng(21))
        if case == "all-boundary":
            dm = pa.DofMap(dm.n_nodes, np.arange(dm.n_nodes), dm.mode)
        return pa.system_from_triplets(rows, cols, vals, dm)

    CASES = ["vem-electroMech", "vem-fullyCoupled", "tet-1", "tet-2",
             "triplets", "all-boundary"]

    @pytest.mark.parametrize("case", CASES)
    def test_scaling_and_blocks_match_sparse_products(self, case):
        system = self.system(case).factorize()
        Kii, Kib = sliced_oracle(system)
        assert_same_bits(system._Kib, Kib)
        if case == "all-boundary":
            assert Kii.shape == (0, 0)
        else:
            # the whole block comes in the node order of its interior
            perm = pa.node_dofs(system._interior.order,
                                system.dof_map.n_fields)
            assert_same_bits(system._interior_block(), Kii[perm][:, perm])

    def test_fully_coupled_blocks_hold_exact_zeros(self):
        # the zero sub-blocks are stored in the node pairs but not in the
        # interior block, whose pattern SuperLU orders
        system = self.system("vem-fullyCoupled").factorize()
        assert (system.K.data == 0.0).any()
        assert (system._interior_block().data != 0.0).all()

    @pytest.mark.parametrize("case", CASES[:-1])
    def test_split_stores_as_from_the_sliced_block(self, monkeypatch, case):
        # the factors of K_uu and -K_pp cut from the node pairs, on one
        # symbolic step, are those of the blocks sliced from K, each
        # factored on its own
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        system = self.system(case).factorize()
        assert system.solver_stats["path"] == "split"
        nf = system.dof_map.n_fields
        Kuu, Kpp = split_blocks(sliced_oracle(system)[0], nf)
        order = pa._node_order(pa._min_degree_order(Kpp), nf - 3)
        factors = [node_cholesky(Kuu, 3, order),
                   node_cholesky(Kpp, nf - 3, order)]
        assert system.solver_stats["lu_nnz"] == [f.nnz for f in factors]
        # equal entries; the split's store may hold -0.0 where the
        # negated blocks of -K_pp had zeros
        for split, factor in zip(system._factors[:2], factors):
            assert np.array_equal(split._store, factor._store)
