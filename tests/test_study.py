"""Tests for error metrics, sweeps, references, and study CSV tables."""

import concurrent.futures
import json
import multiprocessing
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyvem.cli as cli
import polyvem.homogenization as ph
import polyvem.materials as pmat
import polyvem.mesh as pm
import polyvem.study as ps

from test_element_vem import l_prism_mesh

LIB = pmat.builtin_library()
RNG = np.random.default_rng(20260818)


def voronoi_mesh(n_seeds, seed=5, L=1.0):
    seeds = np.random.default_rng(seed).uniform(0.1, 0.9, (n_seeds, 3)) * L
    return pm.generate_voronoi(seeds, L)


def grid8_mesh():
    """Eight equal cubic cells from octant-center seeds."""
    axis = (0.25, 0.75)
    seeds = np.array([[x, y, z] for x in axis for y in axis for z in axis])
    return pm.generate_voronoi(seeds, 1.0)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_frobenius_zero(self):
        assert ps.frobenius(np.zeros((4, 4))) == 0.0

    def test_frobenius_identity(self):
        assert ps.frobenius(np.eye(3)) == pytest.approx(np.sqrt(3.0), rel=1e-15)

    def test_frobenius_elementwise_oracle(self):
        M = RNG.normal(size=(7, 5))
        total = 0.0
        for i in range(7):
            for j in range(5):
                total += M[i, j] ** 2
        assert ps.frobenius(M) == pytest.approx(np.sqrt(total), rel=1e-14)

    def test_equal_matrices_zero_error(self):
        M = RNG.normal(size=(6, 6))
        assert ps.computational_error(M, M) == 0.0
        assert ps.relative_deviation(M, M) == 0.0

    def test_five_percent_example(self):
        M_ref = RNG.normal(size=(3, 3))
        M = 1.05 * M_ref
        assert ps.relative_deviation(M, M_ref) == pytest.approx(5.0, rel=1e-12)
        assert ps.computational_error(M, M_ref) == pytest.approx(5.0, rel=1e-12)

    def test_random_pair_formula_oracle(self):
        A = RNG.normal(size=(4, 4))
        B = RNG.normal(size=(4, 4))
        na = np.sqrt((A * A).sum())
        nb = np.sqrt((B * B).sum())
        assert ps.relative_deviation(A, B) == pytest.approx(
            100.0 * (na - nb) / nb, rel=1e-12)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
           st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_error_is_absolute_deviation(self, a, b):
        A = np.array(a).reshape(2, 2)
        B = np.array(b).reshape(2, 2)
        if np.linalg.norm(B) == 0.0:
            with pytest.raises(ps.StudyError, match="zero"):
                ps.relative_deviation(A, B)
        else:
            assert ps.computational_error(A, B) == abs(ps.relative_deviation(A, B))
            assert ps.computational_error(A, B) >= 0.0

    def test_zero_reference_raises(self):
        with pytest.raises(ps.StudyError, match="zero"):
            ps.relative_deviation(np.eye(2), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# Target blocks
# ---------------------------------------------------------------------------

def synthetic_modulus():
    C = RNG.normal(size=(6, 6))
    C = C + C.T + 12 * np.eye(6)
    e = RNG.normal(size=(3, 6))
    q = RNG.normal(size=(3, 6))
    eps = np.diag([2.0, 3.0, 4.0])
    mu = np.diag([5.0, 6.0, 7.0])
    alpha = RNG.normal(size=(3, 3))
    G = pmat.GeneralizedModulus.from_blocks(C, e, q, eps, alpha, mu)
    return G, C, e, q, eps, mu, alpha


class TestTargetBlocks:
    def setup_method(self):
        (self.G, self.C, self.e, self.q,
         self.eps, self.mu, self.alpha) = synthetic_modulus()

    def test_full_matrix_in_datasheet_units(self):
        out = ps.target_block(self.G.matrix, "fullyCoupled", "G")
        assert np.allclose(out, pmat.datasheet_matrix(self.G.matrix))

    def test_mechanical_block(self):
        assert np.allclose(
            ps.target_block(self.G.matrix, "fullyCoupled", "C"), self.C)

    def test_coupling_blocks_unconverted(self):
        assert np.allclose(
            ps.target_block(self.G.matrix, "fullyCoupled", "e"), self.e)
        assert np.allclose(
            ps.target_block(self.G.matrix, "fullyCoupled", "q"), self.q)

    def test_storage_blocks_convert(self):
        assert np.allclose(
            ps.target_block(self.G.matrix, "fullyCoupled", "eps"),
            self.eps / pmat.PERMITTIVITY_SCALE)
        assert np.allclose(
            ps.target_block(self.G.matrix, "fullyCoupled", "mu"),
            self.mu / pmat.PERMEABILITY_SCALE)
        assert np.allclose(
            ps.target_block(self.G.matrix, "fullyCoupled", "alpha"),
            self.alpha / pmat.MAGNETOELECTRIC_SCALE)

    def test_block_error_metric_is_unit_invariant(self):
        # norm-ratio metrics on a single block cancel any unit factor
        A = ph.reduce_modulus(self.G.matrix, "electroMech")
        B = 1.01 * A
        d_block = ps.relative_deviation(
            ps.target_block(B, "electroMech", "eps"),
            ps.target_block(A, "electroMech", "eps"))
        assert d_block == pytest.approx(1.0, rel=1e-10)

    def test_reduced_mode_slices(self):
        Ge = ph.reduce_modulus(self.G.matrix, "electroMech")
        assert np.allclose(ps.target_block(Ge, "electroMech", "e"), self.e)
        assert np.allclose(ps.target_block(Ge, "electroMech", "eps"),
                           self.eps / pmat.PERMITTIVITY_SCALE)
        Gm = ph.reduce_modulus(self.G.matrix, "magnetoMech")
        assert np.allclose(ps.target_block(Gm, "magnetoMech", "q"), self.q)
        assert np.allclose(ps.target_block(Gm, "magnetoMech", "mu"),
                           self.mu / pmat.PERMEABILITY_SCALE)

    def test_undefined_targets_raise(self):
        Ge = ph.reduce_modulus(self.G.matrix, "electroMech")
        with pytest.raises(ps.StudyError, match="'q'"):
            ps.target_block(Ge, "electroMech", "q")
        with pytest.raises(ps.StudyError, match="'mu'"):
            ps.target_block(Ge, "electroMech", "mu")
        Gm = ph.reduce_modulus(self.G.matrix, "magnetoMech")
        with pytest.raises(ps.StudyError, match="'e'"):
            ps.target_block(Gm, "magnetoMech", "e")
        with pytest.raises(ps.StudyError, match="fully coupled"):
            ps.target_block(Gm, "magnetoMech", "alpha")
        with pytest.raises(ps.StudyError, match="unknown target"):
            ps.target_block(self.G.matrix, "fullyCoupled", "Z")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

class TestStudyConfig:
    """Defaults and checks of the [study] configuration."""

    def test_defaults_valid(self):
        assert ps.DEFAULT_BETA == 0.1
        grid = ps.DEFAULT_BETA_GRID
        assert grid[0] == 0.05 and grid[-1] == 1.0
        assert len(grid) == 20
        fractions = ps.DEFAULT_FRACTION_GRID
        assert fractions[0] == 0.05 and fractions[-1] == 0.95
        assert len(fractions) == 10

    def test_bad_mode(self):
        with pytest.raises(cli.ConfigError, match="mode"):
            cli.setting({"study": {"mode": "thermal"}}, "study", "mode")

    def test_beta_grid_range(self):
        for step in (1.5, 0, -0.1, 1e-4, 1e-320, float("nan")):
            with pytest.raises(ps.StudyError, match="beta_step"):
                ps.beta_grid(step)
        for step in (0.05, 0.3, 1, 0.35, 0.6, 0.15):
            grid = ps.beta_grid(step)
            assert all(0.0 <= b <= 1.0 for b in grid)
        assert ps.beta_grid() == ps.DEFAULT_BETA_GRID

    def test_fraction_grid_range(self):
        for step in (-0.1, 0, 0.95, 1e-4, 1e-320, float("nan")):
            with pytest.raises(ps.StudyError, match="fraction_step"):
                ps.fraction_grid(step)
        for step in (0.1, 0.45, 0.9):
            grid = ps.fraction_grid(step)
            assert all(0.0 <= p <= 1.0 for p in grid)
        assert ps.fraction_grid() == ps.DEFAULT_FRACTION_GRID

    def test_unknown_method(self):
        with pytest.raises(ps.StudyError, match="method"):
            ps.parse_method("BEM")

    def test_refined_method_with_levels_accepted(self):
        assert ps.parse_method("FEM-O1-refined(2)") == ("FEM-O1-refined", 2)


# ---------------------------------------------------------------------------
# Volume-fraction assignment
# ---------------------------------------------------------------------------

class TestAssignVolumeFraction:
    def test_zero_fraction_all_passive(self):
        mesh = voronoi_mesh(6)
        layout, achieved, taken = ps.assign_volume_fraction(mesh, 0.0, 1)
        assert set(layout.names) == {"BaTiO3"}
        assert achieved == 0.0
        assert taken == 0

    def test_full_fraction_all_active(self):
        mesh = voronoi_mesh(6)
        layout, achieved, taken = ps.assign_volume_fraction(mesh, 1.0, 1)
        assert set(layout.names) == {"CoFe2O4"}
        assert achieved == pytest.approx(1.0, abs=1e-9)
        assert taken == 6

    def test_counting_oracle_equal_volumes(self):
        # 8 equal-volume grains at fraction 1/2 -> exactly 4 active
        mesh = grid8_mesh()
        layout, achieved, taken = ps.assign_volume_fraction(mesh, 0.5, 9)
        assert taken == 4
        assert achieved == pytest.approx(0.5, abs=1e-12)
        assert layout.names.count("CoFe2O4") == 4
        assert layout.names.count("BaTiO3") == 4

    def test_achieved_within_one_grain_volume(self):
        mesh = voronoi_mesh(10, seed=77)
        max_vol = max(c.volume for c in mesh.cells)
        for frac in (0.2, 0.45, 0.7, 0.9):
            _, achieved, _ = ps.assign_volume_fraction(mesh, frac, 4)
            assert achieved + 1e-12 >= frac          # greedy covers the target
            assert abs(achieved - frac) <= max_vol + 1e-12

    def test_deterministic_for_seed(self):
        mesh = voronoi_mesh(8)
        a = ps.assign_volume_fraction(mesh, 0.4, 11)
        b = ps.assign_volume_fraction(mesh, 0.4, 11)
        assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]

    def test_orientations_cover_all_grains(self):
        mesh = voronoi_mesh(7)
        layout, _, _ = ps.assign_volume_fraction(mesh, 0.5, 2)
        assert len(layout.names) == 7
        assert len(layout.angles) == 7
        flat = np.array(layout.angles).ravel()
        assert np.all((flat >= 0.0) & (flat < 2.0 * np.pi))

    def test_invalid_fraction_rejected(self):
        mesh = voronoi_mesh(4)
        with pytest.raises(ps.StudyError, match="fraction"):
            ps.assign_volume_fraction(mesh, 1.5, 1)

    def test_custom_phase_names(self):
        mesh = voronoi_mesh(4)
        layout, _, _ = ps.assign_volume_fraction(
            mesh, 1.0, 1, active="isotropic_reference", passive="BaTiO3")
        assert set(layout.names) == {"isotropic_reference"}


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

class TestBuildReference:
    def test_homogeneous_reference_is_exact(self):
        mesh = voronoi_mesh(4)
        rec = LIB["BaTiO3"]
        n = len(mesh.cells)
        moduli = ph.grain_moduli([rec] * n, [(0.0, 0.0, 0.0)] * n, "electroMech")
        ref = ps.build_reference(mesh, moduli, "electroMech", 1, None)
        exact = ph.reduce_modulus(pmat.build_modulus(rec), "electroMech")
        err = np.abs(ref.effective - exact).max() / np.abs(exact).max()
        assert err < 1e-8

    def test_cache_roundtrip_and_hit(self, tmp_path, monkeypatch):
        mesh = voronoi_mesh(3)
        moduli, _ = _hex_moduli(mesh, seed=5)
        first = ps.build_reference(mesh, moduli, "electroMech", 1,
                                   str(tmp_path))
        files = list(tmp_path.glob("reference-*.json"))
        assert len(files) == 1

        def boom(*a, **k):
            raise AssertionError("cache miss: recomputed the reference")

        monkeypatch.setattr(ps, "homogenize_fem", boom)
        second = ps.build_reference(mesh, moduli, "electroMech", 1,
                                    str(tmp_path))
        assert np.allclose(second.effective, first.effective,
                           rtol=1e-15, atol=0.0)
        assert second.method == first.method

    def test_entry_with_a_scaling_report_is_a_hit(self, tmp_path,
                                                  monkeypatch):
        # earlier builds wrote a per-field scaling report into every
        # result; the digest is unchanged, so their entries stay hits
        mesh = voronoi_mesh(3)
        moduli, _ = _hex_moduli(mesh, seed=5)
        first = ps.build_reference(mesh, moduli, "electroMech", 1,
                                   str(tmp_path))
        entry, = tmp_path.glob("reference-*.json")
        doc = json.loads(entry.read_text())
        doc["scaling_report"] = {
            f"field{f}": {"diag_mean": 1.0, "diag_min": 0.5, "diag_max": 2.0}
            for f in range(4)}
        entry.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

        def boom(*a, **k):
            raise AssertionError("cache miss: recomputed the reference")

        monkeypatch.setattr(ps, "homogenize_fem", boom)
        second = ps.build_reference(mesh, moduli, "electroMech", 1,
                                    str(tmp_path))
        assert second.effective.tobytes() == first.effective.tobytes()

    def test_cache_entry_of_another_release_is_a_miss(self, tmp_path,
                                                      monkeypatch):
        mesh = voronoi_mesh(3)
        moduli, _ = _hex_moduli(mesh, seed=5)
        ps.build_reference(mesh, moduli, "electroMech", 1, str(tmp_path))
        builds = []

        def counting(*args, **kwargs):
            builds.append(1)
            return ph.homogenize_fem(*args, **kwargs)

        monkeypatch.setattr(ps, "homogenize_fem", counting)
        monkeypatch.setattr(ps, "__version__", ps.__version__ + ".other")
        for _ in range(2):             # a miss and a rewrite, then a hit
            ps.build_reference(mesh, moduli, "electroMech", 1, str(tmp_path))
        assert len(builds) == 1
        assert len(list(tmp_path.glob("reference-*.json"))) == 2

    def test_cache_distinguishes_levels(self, tmp_path):
        mesh = voronoi_mesh(3)
        moduli, _ = _hex_moduli(mesh, seed=5)
        ps.build_reference(mesh, moduli, "electroMech", 1, str(tmp_path))
        ps.build_reference(mesh, moduli, "electroMech", 2, str(tmp_path))
        assert len(list(tmp_path.glob("reference-*.json"))) == 2

    def test_memory_guard(self, tmp_path):
        mesh = voronoi_mesh(6)
        moduli, _ = _hex_moduli(mesh, seed=5)
        for cache_dir in (None, str(tmp_path)):   # a cache miss is guarded
            with pytest.raises(ps.StudyError, match="lower the refinement"):
                ps.build_reference(mesh, moduli, "electroMech", 8, cache_dir)
        assert list(tmp_path.iterdir()) == []

    def test_cache_miss_triangulates_each_cell_once(self, monkeypatch):
        mesh = voronoi_mesh(3)
        moduli, _ = _hex_moduli(mesh, seed=5)
        calls = []
        triangulate = pm.triangulate_cell

        def counting(mesh, cell_id, *args, **kwargs):
            calls.append(cell_id)
            return triangulate(mesh, cell_id, *args, **kwargs)

        monkeypatch.setattr(pm, "triangulate_cell", counting)
        reference = ps.build_reference(mesh, moduli, "electroMech", 1, None)
        # the methods of a comparison reuse the reference's coarse tets
        ps.method_comparison(mesh, moduli, "electroMech", ps.METHODS[:3],
                             reference, ("G",))
        assert sorted(calls) == list(range(len(mesh.cells)))

    def test_levels_validated(self):
        mesh = voronoi_mesh(3)
        moduli, _ = _hex_moduli(mesh, seed=5)
        with pytest.raises(ps.StudyError, match="refinement"):
            ps.build_reference(mesh, moduli, "electroMech", 0, None)

    def test_self_convergence_two_grains(self):
        # refined levels approach a common limit: level 2 sits closer
        # to level 3 than level 1 does
        seeds = np.array([[0.5, 0.5, 0.3], [0.5, 0.5, 0.7]])
        mesh = pm.generate_voronoi(seeds, 1.0)
        a = pmat.isotropic_record("A", lam=60.0, shear=40.0)
        b = pmat.isotropic_record("B", lam=6.0, shear=4.0)
        moduli = ph.grain_moduli([a, b], [(0, 0, 0)] * 2, "electroMech")
        G = {lvl: ps.build_reference(mesh, moduli, "electroMech", lvl, None)
             for lvl in (1, 2, 3)}
        d21 = abs(ps.relative_deviation(G[1].effective, G[3].effective))
        d22 = abs(ps.relative_deviation(G[2].effective, G[3].effective))
        assert d22 < d21


def _hex_moduli(mesh, seed):
    layout = ph.GrainLayout.random(LIB, "hex_high_anisotropy",
                                   len(mesh.cells), seed)
    return layout.moduli(LIB, "electroMech"), layout


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

class TestBetaSweep:
    def test_endpoint_matches_coarse_fem(self):
        # the coarse row is the beta = 1 blend; an independent coarse
        # linear-tet run gives the same numbers, to the bit on a convex
        # mesh and to round-off where a fallback centroid is condensed
        targets = ("G", "C")
        for mesh, rel in ((voronoi_mesh(6, seed=31), 0.0),
                          (l_prism_mesh(), 1e-12)):
            moduli, _ = _hex_moduli(mesh, seed=13)
            ref = ps.build_reference(mesh, moduli, "electroMech", 1, None)
            curve, fem_d = ps.beta_sweep(mesh, moduli, "electroMech",
                                         (0.5, 1.0), ref, targets)
            fem = ph.homogenize_fem(mesh, moduli, order=1,
                                    mode="electroMech")
            expected = ps._deviations(fem.effective, ref.effective, targets,
                                      "electroMech")
            assert fem_d == pytest.approx(expected, rel=rel, abs=0.0)
            assert curve[-1] == (1.0, fem_d)

    def test_coarse_row_makes_no_fem_run(self, monkeypatch):
        mesh = voronoi_mesh(6, seed=31)
        moduli, _ = _hex_moduli(mesh, seed=13)
        ref = ps.build_reference(mesh, moduli, "electroMech", 1, None)
        calls = []
        homogenize_fem = ps.homogenize_fem

        def counting(*args, **kwargs):
            calls.append(args)
            return homogenize_fem(*args, **kwargs)

        monkeypatch.setattr(ps, "homogenize_fem", counting)
        on_grid = ps.beta_sweep(mesh, moduli, "electroMech", (0.35, 1.0),
                                ref, ("G",))
        # off the grid, beta = 1 is evaluated with it and trimmed away
        solver = {}
        curve, fem_d = ps.beta_sweep(mesh, moduli, "electroMech",
                                     ps.beta_grid(0.35), ref, ("G",),
                                     solver=solver)
        assert calls == []
        assert fem_d == on_grid[1] and curve[0] == on_grid[0][0]
        rows = ps.beta_sweep_csv(curve, fem_d, ("G",)).splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == [
            "0.35", "0.7", "FEM-O1-coarse"]
        assert list(solver) == ["0.35", "0.7", "FEM-O1-coarse"]

    def test_homogeneous_curve_is_zero(self):
        mesh = voronoi_mesh(5, seed=8)
        n = len(mesh.cells)
        layout = ph.GrainLayout.random(LIB, "isotropic_reference", n, 3)
        moduli = layout.moduli(LIB, "fullyCoupled")
        ref = ps.build_reference(mesh, moduli, "fullyCoupled", 1, None)
        curve, fem_d = ps.beta_sweep(mesh, moduli, "fullyCoupled",
                                     (0.05, 0.4, 1.0), ref, ("G",))
        for _, d in curve:
            assert abs(d["G"]) < 1e-8
        assert abs(fem_d["G"]) < 1e-8

    def test_workers_do_not_change_the_curve(self, monkeypatch):
        # as many workers as asked, whatever this host's CPU count
        monkeypatch.setattr(ps, "usable_workers", lambda workers: workers)
        mesh = voronoi_mesh(6, seed=31)
        moduli, _ = _hex_moduli(mesh, seed=13)
        ref = ps.build_reference(mesh, moduli, "electroMech", 1, None)
        grid = (0.0, 0.25, 0.5, 1.0)
        serial = ps.beta_sweep(mesh, moduli, "electroMech", grid, ref,
                               ("G", "C"))
        for workers in (2, 3):                # 3: uneven chunks
            assert ps.beta_sweep(mesh, moduli, "electroMech", grid, ref,
                                 ("G", "C"), workers=workers) == serial
        assert [b for b, _ in serial[0]] == list(grid)

    def test_pool_payloads_carry_the_coarse_tets(self, monkeypatch):
        moduli, _ = _hex_moduli(voronoi_mesh(6, seed=31), seed=13)
        ref = ps.build_reference(voronoi_mesh(6, seed=31), moduli,
                                 "electroMech", 1, None)
        shipped = []

        def in_process(task, payloads, workers):
            shipped.extend(args[0]._tets is not None for args in payloads)
            return [task(*args) for args in payloads]

        monkeypatch.setattr(ps, "_pool_map", in_process)
        monkeypatch.setattr(ps, "usable_workers", lambda workers: workers)
        ps.beta_sweep(voronoi_mesh(6, seed=31), moduli, "electroMech",
                      (0.0, 0.5, 1.0), ref, ("G",), workers=2)
        assert shipped == [True, True]

    def test_sweep_hashes_the_mesh_once(self, monkeypatch):
        # the digest is kept with the mesh before the payloads are
        # pickled, so the chunks and the caller all read that one
        moduli, _ = _hex_moduli(voronoi_mesh(6, seed=31), seed=13)
        ref = ps.build_reference(voronoi_mesh(6, seed=31), moduli,
                                 "electroMech", 1, None)
        expected = pm.mesh_hash(voronoi_mesh(6, seed=31))
        mesh = voronoi_mesh(6, seed=31)
        calls = []
        write = pm.write_mesh

        def counting(m):
            calls.append(m)
            return write(m)

        def shipped(task, payloads, workers):
            return [task(*pickle.loads(pickle.dumps(args)))
                    for args in payloads]

        monkeypatch.setattr(pm, "write_mesh", counting)
        monkeypatch.setattr(ps, "_pool_map", shipped)
        monkeypatch.setattr(ps, "usable_workers", lambda workers: workers)
        ps.beta_sweep(mesh, moduli, "electroMech", (0.0, 0.5, 1.0), ref,
                      ("G",), workers=2)
        assert pm.mesh_hash(mesh) == expected
        assert [m is mesh for m in calls] == [True]

    def test_sweep_triangulates_each_cell_once(self, monkeypatch):
        moduli, _ = _hex_moduli(voronoi_mesh(6, seed=31), seed=13)
        ref = ps.build_reference(voronoi_mesh(6, seed=31), moduli,
                                 "electroMech", 1, None)
        mesh = voronoi_mesh(6, seed=31)
        calls = []
        triangulate = pm.triangulate_cell

        def counting(mesh, cell_id, *args, **kwargs):
            calls.append(cell_id)
            return triangulate(mesh, cell_id, *args, **kwargs)

        monkeypatch.setattr(pm, "triangulate_cell", counting)
        # every β chunk reads the tets built once before the chunks
        ps.beta_sweep(mesh, moduli, "electroMech", (0.0, 0.5, 1.0), ref,
                      ("G",), workers=1)
        assert sorted(calls) == list(range(len(mesh.cells)))

    def test_workers_are_capped_at_the_usable_cpus(self, monkeypatch):
        # 1000 workers on a 1000-point grid or 901 fractions run on as
        # many processes as this process may run on (3 here), no more:
        # a pool of 2, and this process as the third
        started = []

        class FakePool:
            """Records max_workers and runs the tasks here."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, task, *columns):
                return map(task, *columns)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            FakePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        chunks = []

        def beta_point(mesh, moduli, mode, chunk, ref_effective, targets):
            chunks.append(len(chunk))
            return [ps.ComparisonRow("VEM-VO", 1, 1, {"G": 0.0}, {"G": 0.0},
                                     0.0) for b in chunk]

        monkeypatch.setattr(ps, "_beta_point", beta_point)
        mesh = voronoi_mesh(2, seed=3)
        moduli, _ = _hex_moduli(mesh, seed=13)
        ref = ph.homogenize_fem(mesh, moduli, mode="electroMech")
        # every fraction point a setup of its own, with a stand-in
        # reference, and each row its fraction
        monkeypatch.setattr(ps, "_reference_digest",
                            lambda mesh, moduli, mode, levels: id(moduli))
        monkeypatch.setattr(ps, "build_reference", lambda *args: ref)
        monkeypatch.setattr(ps, "FractionRow",
                            lambda fraction, *fields: fraction)
        curve, _ = ps.beta_sweep(mesh, moduli, "electroMech",
                                 ps.beta_grid(0.001), ref, ("G",),
                                 workers=1000)
        assert len(curve) == 1000 and chunks == [333, 333, 334]
        fractions = ps.fraction_grid(0.001)
        assert ps.fraction_sweep(mesh, LIB, fractions, 0, (0.5,),
                                 workers=1000) == list(fractions)
        assert started == [2, 2]

    def test_beta_opt_picks_minimum(self):
        curve = [(0.1, {"G": 3.0}), (0.2, {"G": -1.0}), (0.3, {"G": 2.0})]
        assert ps.beta_opt(curve) == 0.2

    def test_beta_opt_tie_breaks_to_smaller(self):
        curve = [(0.3, {"G": 2.0}), (0.1, {"G": -2.0}), (0.2, {"G": 2.0})]
        assert ps.beta_opt(curve) == 0.1

    def test_beta_opt_empty_curve(self):
        with pytest.raises(ps.StudyError, match="empty"):
            ps.beta_opt([])


def _square_here(k):
    """Pool task: k squared, and the process that computed it."""
    return k * k, os.getpid()


def _fail_at(k, bad):
    """Pool task that raises for payload `bad`."""
    if k == bad:
        raise ValueError(f"task {k} failed")
    return k


class TestPoolMap:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_results_come_back_in_order(self, workers, n):
        payloads = [(k,) for k in range(n)]
        results = ps._pool_map(_square_here, payloads, workers)
        assert [r for r, _ in results] == [k * k for k in range(n)]
        # this process ran every n-th payload from the first, and only
        # those: ceil(n / workers) of them
        here = [k for k, (_, pid) in enumerate(results)
                if pid == os.getpid()]
        assert here == list(range(0, n, min(workers, n)))
        assert len(here) == -(-n // workers)
        assert multiprocessing.active_children() == []

    def test_one_worker_or_one_payload_runs_here(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        assert ps._pool_map(_square_here, [(2,), (3,)], 1) == \
            [(4, os.getpid()), (9, os.getpid())]
        assert ps._pool_map(_square_here, [(2,)], 4) == [(4, os.getpid())]
        assert ps._pool_map(_square_here, [], 4) == []

    @pytest.mark.parametrize("bad", [0, 1, 3])  # here, a worker, here
    def test_a_failing_task_propagates_and_leaves_no_process(self, bad):
        with pytest.raises(ValueError, match=f"task {bad} failed"):
            ps._pool_map(_fail_at, [(k, bad) for k in range(6)], 3)
        assert multiprocessing.active_children() == []


class TestMethodComparison:
    def test_rows_cover_all_methods(self):
        mesh = voronoi_mesh(5, seed=21)
        moduli, _ = _hex_moduli(mesh, seed=4)
        ref = ps.build_reference(mesh, moduli, "electroMech", 1, None)
        rows = ps.method_comparison(
            mesh, moduli, "electroMech",
            ("VEM-VO", "FEM-O1-coarse", "FEM-O2-coarse", "FEM-O1-refined(1)"),
            ref, ("G", "C"), beta=0.1)
        labels = [r.method for r in rows]
        assert labels[0].startswith("VEM")
        assert "FEM-O1-coarse" in labels
        assert "FEM-O2-coarse" in labels
        assert any(lbl.startswith("FEM-O1-refined") for lbl in labels)
        for r in rows:
            assert r.n_dofs > 0 and r.n_nodes > 0
            for t in ("G", "C"):
                assert r.e_c[t] == abs(r.d_rel[t])

    def test_refined_row_matches_reference_exactly(self):
        mesh = voronoi_mesh(4, seed=2)
        moduli, _ = _hex_moduli(mesh, seed=4)
        ref = ps.build_reference(mesh, moduli, "electroMech", 1, None)
        rows = ps.method_comparison(mesh, moduli, "electroMech",
                                    ("FEM-O1-refined(1)",), ref, ("G",))
        assert rows[0].e_c["G"] == pytest.approx(0.0, abs=1e-12)

    def test_unknown_method_raises(self):
        mesh = voronoi_mesh(3)
        moduli, _ = _hex_moduli(mesh, seed=4)
        ref = ps.build_reference(mesh, moduli, "electroMech", 1, None)
        with pytest.raises(ps.StudyError, match="unknown method"):
            ps.method_comparison(mesh, moduli, "electroMech", ("FVM",),
                                 ref, ("G",))


class TestFractionSweep:
    def test_rows_and_determinism(self, tmp_path):
        mesh = voronoi_mesh(6, seed=17)
        max_vol = max(c.volume for c in mesh.cells)
        kwargs = dict(fractions=(0.25, 0.75), rng_seed=5,
                      beta_grid=(0.1, 0.5, 1.0), mode="fullyCoupled",
                      targets=("G",), reference_levels=1,
                      cache_dir=str(tmp_path))
        rows1 = ps.fraction_sweep(mesh, LIB, **kwargs)
        rows2 = ps.fraction_sweep(mesh, LIB, **kwargs)
        assert len(rows1) == 2
        for r in rows1:
            assert abs(r.fraction_achieved - r.fraction_target) <= max_vol
            assert r.beta_opt in (0.1, 0.5, 1.0)
            assert r.e_c["G"] >= 0.0
        assert rows1[0].n_active_grains <= rows1[1].n_active_grains
        csv1 = ps.fraction_csv(rows1, ("G",))
        csv2 = ps.fraction_csv(rows2, ("G",))
        assert csv1 == csv2

    def test_default_weight_on_the_grid_is_evaluated_once(self, tmp_path,
                                                          monkeypatch):
        mesh = voronoi_mesh(8, seed=17)
        weights = []
        evaluate = ph.VemOperators.evaluate

        def counting(self, beta, *args, **kwargs):
            weights.append(beta)
            return evaluate(self, beta, *args, **kwargs)

        monkeypatch.setattr(ph.VemOperators, "evaluate", counting)

        def row(grid):
            weights.clear()
            row, = ps.fraction_sweep(
                mesh, LIB, (0.5,), 5, grid, targets=("G",),
                reference_levels=1, cache_dir=str(tmp_path))
            return row

        on_grid = row(ps.beta_grid(0.05))
        assert len(weights) == 20 and weights.count(ps.DEFAULT_BETA) == 1
        # off the grid, the default weight is evaluated apart, to the bit
        off_grid = row((0.05, 0.5))
        assert weights == [0.05, 0.5, ps.DEFAULT_BETA]
        assert off_grid.e_c == on_grid.e_c
        key = ps.beta_key(ps.DEFAULT_BETA)
        assert off_grid.solver_stats[key] == on_grid.solver_stats[key]


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

class TestCsvWriters:
    def test_comparison_csv_layout(self):
        rows = [ps.ComparisonRow("VEM-VO(beta=0.1)", 10, 50,
                                 {"G": 1.5}, {"G": -1.5}, 0.123)]
        text = ps.comparison_csv(rows, ("G",))
        lines = text.strip().split("\n")
        assert lines[0] == "method,n_nodes,n_dofs,E_C_G_pct,D_rel_G_pct"
        assert "0.123" not in text                 # no timing columns
        cells = lines[1].split(",")
        assert float(cells[3]) == 1.5
        assert float(cells[4]) == -1.5

    def test_beta_sweep_csv_sorted_with_fem_row(self):
        curve = [(1.0, {"G": 3.0}), (0.1, {"G": -2.0})]
        text = ps.beta_sweep_csv(curve, {"G": 3.0}, ("G",))
        lines = text.strip().split("\n")
        assert lines[0] == "beta,D_rel_G_pct"
        assert lines[1].startswith("0.1,")
        assert lines[2].startswith("1,")
        assert lines[3].startswith("FEM-O1-coarse,")

    def test_fraction_csv_layout(self):
        rows = [ps.FractionRow(0.25, 0.27, 2, 0.15,
                               {"G": 0.8}, {"G": 0.2}, 9.9)]
        text = ps.fraction_csv(rows, ("G",))
        lines = text.strip().split("\n")
        assert lines[0] == ("fraction_target,fraction_achieved,"
                            "n_active_grains,beta_opt,"
                            "E_C_G_pct_beta_default,D_rel_G_pct_beta_opt")
        assert "9.9" not in lines[1]               # no timing columns
        cells = lines[1].split(",")
        assert cells[0] == "0.25" and cells[2] == "2" and cells[3] == "0.15"
