"""Tests for global assembly and the shared-factorization Dirichlet solver."""

import tracemalloc

import numpy as np
import pytest
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


class TestScalingAndDump:
    def test_scaling_is_exactly_undone(self):
        # same solve with scaling forced to identity must agree closely
        points, tets = two_tet_points_tets()
        G = random_modulus(4, RNG)
        elems = [TetElem(t, points[t], G, 4) for t in tets]
        dm = pa.DofMap(5, [0, 1, 2, 4], "electroMech")
        ub = RNG.normal(size=len(dm.boundary_dofs))

        scaled = pa.assemble(elems, dm)
        u_scaled = scaled.solve_dirichlet(ub)
        plain = pa.assemble(elems, dm)
        plain.scaling = np.ones(dm.n_dofs)
        u_plain = plain.solve_dirichlet(ub)
        assert np.allclose(u_scaled, u_plain, rtol=1e-9,
                           atol=1e-12 * np.abs(u_plain).max())

    def test_scaling_report_fields(self):
        mesh = voronoi_mesh(2)
        G = random_modulus(5, RNG)
        system = ph.VemOperators(mesh, [G] * 2).system(0.1)
        assert set(system.scaling_report) == {f"field{f}" for f in range(5)}
        for rec in system.scaling_report.values():
            assert rec["diag_max"] >= rec["diag_mean"] >= rec["diag_min"]


class TestFieldSplit:
    """Split factorization with batched MINRES against the whole-block LU."""

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
        assert split.solver_stats["minres_iterations"] > 0
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

    def test_singular_block_falls_back_and_names_cells(self, monkeypatch):
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        dm = pa.DofMap(1, [], "electroMech")
        system = pa.system_from_triplets(
            np.arange(4), np.arange(4), np.array([1.0, 1.0, 0.0, -1.0]), dm,
            deficient_cells=[3])
        with pytest.raises(pa.AssemblyError, match=r"\[3\]"):
            system.factorize()
        assert system.solver_stats["path"] == "fallback"

    def test_minres_cap_falls_back_to_whole_block(self, monkeypatch):
        operators = self.vem_operators("electroMech")
        ub = RNG.normal(size=(len(operators.dof_map.boundary_dofs), 3))
        expected = operators.system(0.1).solve_dirichlet(ub)
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        monkeypatch.setattr(pa, "MINRES_MAXITER", 2)
        system = operators.system(0.1)
        got = system.solve_dirichlet(ub)
        assert system.solver_stats["path"] == "fallback"
        assert system.solver_stats["minres_iterations"] == 2
        assert len(system.solver_stats["lu_nnz"]) == 1
        assert np.array_equal(got, expected)
        assert system.n_factorizations == 1

    def test_indefinite_block_takes_pivoted_rung(self):
        # the mechanical 2x2 [[eps, 1], [1, eps]] is nonsingular but not
        # quasi-definite: without pivoting its tiny pivot wrecks the
        # solve, so the residual gate sends it to the pivoted LU
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
        assert system.solver_stats["path"] == "fallback"
        assert system.solver_stats["max_interior_residual"] <= 1e-10
        Kii = sp.csc_matrix(M[:4, :4])
        expected = spla.spsolve(Kii, -M[:4, 4:] @ ub)
        assert np.abs(got[:4] - expected).max() <= 1e-12 * np.abs(expected).max()

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

    def test_split_factors_store_less_than_default_relaxation(self,
                                                              monkeypatch):
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        system = self.vem_operators("fullyCoupled").system(0.1).factorize()
        default = sum(spla.splu(block, permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=0.0,
                                options={"SymmetricMode": True}).nnz
                      for block in split_blocks(system._scaled_block(), 5))
        assert sum(system.solver_stats["lu_nnz"]) < default


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


class TestNodeCholesky:
    """The supernodal node-block Cholesky factor against dense solves."""

    @staticmethod
    def assert_solves(A, b, order, n_rhs=3):
        factor = pc.NodeCholesky(A, b, order)
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

    def test_single_node(self):
        A = node_block_spd(1, 3, [np.array([0])], np.random.default_rng(13))
        self.assert_solves(A, 3, [0])

    def test_nonpositive_pivot_raises(self):
        A = node_block_spd(6, 3, [np.arange(6)], np.random.default_rng(14))
        A = A.tolil()
        A[4, 4] = -1.0
        with pytest.raises(RuntimeError, match="not positive"):
            pc.NodeCholesky(A.tocsc(), 3, np.arange(6))

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
        system, _ = ph._fem_o1_system(tmesh.vertices, tmesh.tets,
                                      tmesh.cell_of_tet, moduli, dm)
        ii = dm.interior_dofs
        mech = ii % dm.n_fields < 3
        K = system.K.tocsr()[ii][:, ii]
        Kuu, Kpp = K[mech][:, mech].tocsc(), K[~mech][:, ~mech].tocsc()
        order = pa._node_order(pa._symmetric_lu(-Kpp).perm_c, 1)
        tracemalloc.start()
        try:
            factor = pc.NodeCholesky(Kuu, 3, order)
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
            dm = pa.DofMap(tmesh.n_vertices, tmesh.boundary_node_ids, self.MODE)
            B, vols = pf.batch_o1_operators(tmesh.vertices, tmesh.tets, nf)
            B, w, nodes, owners = B[:, None], vols[:, None], tmesh.tets, \
                tmesh.cell_of_tet
        else:
            o2 = pf.promote_to_quadratic(tmesh)
            dm = pa.DofMap(o2.n_points, o2.boundary_node_ids, self.MODE)
            B, w = pf.quadratic_state_operators(tmesh.vertices, tmesh.tets, nf)
            nodes, owners = o2.tets, o2.cell_of_tet
        system, _, _ = ph._tet_system(nodes, owners,
                                      lambda idx: (B[idx], w[idx]), moduli, dm)
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

    def test_asymmetric_block_fails_audit(self):
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
        pa.system_from_blocks(pattern, blocks, dm)      # symmetric: passes
        off = np.nonzero(pattern.rows != pattern.cols)[0][0]
        blocks[off, 0, 1] += 1e-9 * np.abs(blocks).max()
        with pytest.raises(pa.AssemblyError, match="asymmetry"):
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

        def operators(idx):
            B, vols = pf.batch_o1_operators(tmesh.vertices, tmesh.tets[idx],
                                            dm.n_fields)
            return B[:, None], vols[:, None]

        tracemalloc.start()
        try:
            system, _, _ = ph._tet_system(tmesh.tets, tmesh.cell_of_tet,
                                          operators, moduli, dm)
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


def scaled_oracle(system):
    """(scaling, K_ii, K_ib) of the scaled matrix S K S, sliced from the
    CSC of system.K by sparse products and fancy indexing."""
    dm = system.dof_map
    nf = dm.n_fields
    K = system.K.tocsc()
    diag = K.diagonal()
    s = np.ones(dm.n_dofs)
    for f in range(nf):
        mean = np.abs(diag[f::nf]).mean()
        if mean > 0.0:
            s[f::nf] = 1.0 / np.sqrt(mean)
    S = sp.diags(s)
    rows = (S @ K @ S).tocsc()[dm.interior_dofs]
    return s, rows[:, dm.interior_dofs], rows[:, dm.boundary_dofs]


def assert_same_bits(A, B):
    A, B = A.tocsc().sorted_indices(), B.tocsc().sorted_indices()
    assert A.shape == B.shape
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert A.data.tobytes() == B.data.tobytes()


class TestScaledBlocks:
    """The scaled interior and interior-boundary blocks cut from the node
    pairs, bit for bit against S K S sliced from the assembled matrix."""

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
        s, Kii, Kib = scaled_oracle(system)
        assert system.scaling.tobytes() == s.tobytes()
        assert_same_bits(system._Kib_s, Kib)
        if case == "all-boundary":
            assert Kii.shape == (0, 0)
        else:
            assert_same_bits(system._scaled_block(), Kii)

    def test_fully_coupled_blocks_hold_exact_zeros(self):
        # the zero sub-blocks are stored in the node pairs but not in the
        # scaled block, whose pattern SuperLU orders
        system = self.system("vem-fullyCoupled").factorize()
        assert (system.K.data == 0.0).any()
        assert (system._scaled_block().data != 0.0).all()

    @pytest.mark.parametrize("case", CASES[:-1])
    def test_split_stores_as_from_the_sliced_block(self, monkeypatch, case):
        # the factors of K_uu and -K_pp cut from the node pairs store as
        # many entries as those of the blocks sliced from S K S
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        system = self.system(case).factorize()
        assert system.solver_stats["path"] == "split"
        nf = system.dof_map.n_fields
        Kuu, Kpp = split_blocks(scaled_oracle(system)[1], nf)
        lu_p = pa._symmetric_lu(Kpp)
        factor = pc.NodeCholesky(Kuu, 3, pa._node_order(lu_p.perm_c, nf - 3))
        assert system.solver_stats["lu_nnz"] == [factor.nnz, lu_p.nnz]
