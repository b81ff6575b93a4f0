"""Tests for the Dirichlet load-case battery and effective-modulus assembly."""

import csv
import io
import json
import os
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import polyvem.assembly as pa
import polyvem.element_fem as fem
import polyvem.element_vem as vem
import polyvem.homogenization as ph
import polyvem.materials as pmat
import polyvem.mesh as pm

from test_element_vem import l_prism_mesh

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
RNG = np.random.default_rng(20260817)
LIB = pmat.builtin_library()


def voronoi_mesh(n_seeds, seed=5, L=1.0):
    seeds = np.random.default_rng(seed).uniform(0.1, 0.9, (n_seeds, 3)) * L
    return pm.generate_voronoi(seeds, L)


def table_moduli(mesh, names, seed=3, mode="fullyCoupled"):
    """Random-orientation reduced moduli cycling through `names`."""
    n = len(mesh.cells)
    layout = ph.GrainLayout.random(
        LIB, None, n, seed,
        names_override=[names[c % len(names)] for c in range(n)])
    return layout.moduli(LIB, mode), layout


def surface_average_state(mesh, nodal_values):
    """Volume-averaged generalized gradient evaluated purely from surface
    integrals of the nodal data over the box boundary (divergence form)."""
    values = np.asarray(nodal_values, dtype=float)
    t = mesh.faces
    # an on-box face has one owner, which winds it as stored (outward)
    integrals = np.add.reduceat(t.weights[:, None] * values[t.loops],
                                t.offsets[:-1])
    acc = t.normal[t.on_box].T @ integrals[t.on_box] / mesh.edge_length ** 3
    # acc[j, f] = <d field_f / dx_j>: the rows act as nodes whose shape
    # gradients are the unit vectors
    return fem.field_operator(np.eye(3), values.shape[1]) @ acc.ravel()


class TestLoadCases:
    def test_case_counts(self):
        assert ph.case_count("fullyCoupled") == 12
        assert ph.case_count("electroMech") == 9
        assert ph.case_count("magnetoMech") == 9

    def test_case_kinds(self):
        assert ph.case_kind(1, "fullyCoupled") == ("strain", 0)
        assert ph.case_kind(6, "fullyCoupled") == ("strain", 5)
        assert ph.case_kind(7, "fullyCoupled") == ("electric", 0)
        assert ph.case_kind(9, "fullyCoupled") == ("electric", 2)
        assert ph.case_kind(10, "fullyCoupled") == ("magnetic", 0)
        assert ph.case_kind(12, "fullyCoupled") == ("magnetic", 2)
        assert ph.case_kind(8, "electroMech") == ("electric", 1)
        assert ph.case_kind(8, "magnetoMech") == ("magnetic", 1)

    def test_invalid_cases_rejected(self):
        with pytest.raises(ph.HomogenizationError, match="invalid"):
            ph.case_kind(0, "fullyCoupled")
        with pytest.raises(ph.HomogenizationError, match="invalid"):
            ph.case_kind(13, "fullyCoupled")
        with pytest.raises(ph.HomogenizationError, match="invalid"):
            ph.case_kind(10, "electroMech")
        with pytest.raises(ph.HomogenizationError, match="mode"):
            ph.case_count("thermo")

    def test_unit_states(self):
        for mode in ("fullyCoupled", "electroMech", "magnetoMech"):
            n = ph.case_count(mode)
            for m in range(1, n + 1):
                e = ph.unit_macro_state(m, mode)
                assert e[m - 1] == 1.0 and np.count_nonzero(e) == 1

    def test_tension_values_at_corner(self):
        L = 2.0
        coords = np.array([[L, L, L]])
        v = ph.boundary_values(1, coords, "fullyCoupled")
        assert np.allclose(v[0], [L, 0.0, 0.0, 0.0, 0.0])

    def test_shear_uses_half_offdiagonals(self):
        coords = np.array([[0.0, 2.0, 4.0]])
        v = ph.boundary_values(4, coords, "fullyCoupled")  # eps23
        assert np.allclose(v[0, 0:3], [0.0, 2.0, 1.0])

    def test_electric_case_slope(self):
        coords = np.array([[0.3, 0.6, 0.9]])
        v = ph.boundary_values(7, coords, "fullyCoupled")
        assert np.allclose(v[0], [0.0, 0.0, 0.0, -0.3, 0.0])
        v = ph.boundary_values(9, coords, "fullyCoupled")
        assert v[0, 3] == -0.9

    def test_labels_of_each_mode(self):
        strains = ("eps11", "eps22", "eps33", "eps23", "eps13", "eps12")
        stresses = ("sig11", "sig22", "sig33", "sig23", "sig13", "sig12")
        assert ph.STATE_LABELS["electroMech"] == strains + ("E1", "E2", "E3")
        assert ph.STATE_LABELS["magnetoMech"] == strains + ("H1", "H2", "H3")
        assert ph.STATE_LABELS["fullyCoupled"] == strains + (
            "E1", "E2", "E3", "H1", "H2", "H3")
        assert ph.FLUX_LABELS["electroMech"] == stresses + (
            "negD1", "negD2", "negD3")
        assert ph.FLUX_LABELS["magnetoMech"] == stresses + (
            "negB1", "negB2", "negB3")
        assert ph.FLUX_LABELS["fullyCoupled"] == stresses + (
            "negD1", "negD2", "negD3", "negB1", "negB2", "negB3")

    def test_conventions_doc_table_matches_the_modes(self):
        # docs/conventions.md, "Coupling modes": one row per mode
        with open(os.path.join(REPO, "docs", "conventions.md"),
                  encoding="utf-8") as fh:
            section = fh.read().split("## Coupling modes", 1)[1]
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in section.split("\n## ", 1)[0].splitlines()
                if line.startswith("| ") and not line.startswith("| mode")]
        potentials = {"phi": "electric", "psi": "magnetic"}
        assert sorted(row[0] for row in rows) == sorted(pmat.MODES)
        for mode, fields, state_length, cases in rows:
            names, count = fields.rsplit(" (", 1)
            assert names.split(", ")[0] == "u1 u2 u3"
            assert tuple(potentials[p] for p in names.split(", ")[1:]) == \
                pmat.MODE_POTENTIALS[mode]
            assert int(count.rstrip(")")) == fem.FIELD_COUNT[mode]
            assert int(state_length) == len(pmat.MODE_PINDEX[mode])
            assert int(cases) == ph.case_count(mode)

    def test_magnetic_case_targets_last_field(self):
        coords = np.array([[0.3, 0.6, 0.9]])
        v = ph.boundary_values(10, coords, "fullyCoupled")
        assert np.allclose(v[0], [0.0, 0.0, 0.0, 0.0, -0.3])
        v = ph.boundary_values(7, coords, "magnetoMech")
        assert v.shape[1] == 4 and v[0, 3] == -0.3
        v = ph.boundary_values(7, coords, "electroMech")
        assert v.shape[1] == 4 and v[0, 3] == -0.3


class TestAverageTheorem:
    def test_vem_heterogeneous(self):
        mesh = voronoi_mesh(8)
        moduli, _ = table_moduli(mesh, ["BaTiO3", "CoFe2O4"])
        res = ph.homogenize_vem(mesh, moduli, beta=0.1)
        assert np.abs(res.average_states - np.eye(12)).max() < 1e-10

    def test_fem_heterogeneous(self):
        mesh = voronoi_mesh(5)
        moduli, _ = table_moduli(mesh, ["BaTiO3", "CoFe2O4"])
        for kw in ({"order": 1}, {"order": 1, "levels": 1}, {"order": 2}):
            res = ph.homogenize_fem(mesh, moduli, **kw)
            assert np.abs(res.average_states - np.eye(12)).max() < 1e-10

    def test_volume_vs_surface_on_ten_cells(self):
        mesh = voronoi_mesh(10, seed=9)
        moduli, _ = table_moduli(mesh, ["BaTiO3", "CoFe2O4"], seed=4)
        res = ph.homogenize_vem(mesh, moduli, beta=0.1)
        # the solution takes each case's boundary data on the box, so the
        # divergence form of its average reads that data alone
        for case in range(1, 13):
            data = ph.boundary_values(case, mesh.vertices, "fullyCoupled")
            surface = surface_average_state(mesh, data)
            assert np.abs(surface - res.average_states[case - 1]).max() < 1e-10

    def test_surface_average_of_zero_data(self):
        mesh = voronoi_mesh(3)
        vals = np.zeros((mesh.n_vertices, 5))
        assert np.allclose(surface_average_state(mesh, vals), 0.0)


class TestEffectiveModulus:
    def test_homogeneous_recovers_grain_modulus(self):
        mesh = voronoi_mesh(6, seed=2)
        G = pmat.build_modulus(LIB["BaTiO3"]).matrix
        moduli = [G] * 6
        for res in (ph.homogenize_vem(mesh, [ph.reduce_modulus(g, "fullyCoupled")
                                             for g in moduli], beta=0.1),
                    ph.homogenize_fem(mesh, [ph.reduce_modulus(g, "fullyCoupled")
                                             for g in moduli], order=1)):
            assert np.abs(res.effective - G).max() < 1e-10 * np.abs(G).max()

    def test_single_grain_any_orientation(self):
        mesh = pm.generate_voronoi(np.array([[0.5, 0.5, 0.5]]), 1.0)
        angles = (0.4, 1.1, -0.8)
        Gr = pmat.rotate_modulus(pmat.build_modulus(LIB["BaTiO3"]), angles)
        res = ph.homogenize_vem(mesh, [ph.reduce_modulus(Gr, "fullyCoupled")],
                                beta=0.1)
        err = np.abs(res.effective - Gr.matrix).max() / np.abs(Gr.matrix).max()
        assert err < 1e-8

    def test_reduced_modes_run_nine_cases(self):
        mesh = voronoi_mesh(4, seed=6)
        for mode in ("electroMech", "magnetoMech"):
            moduli, _ = table_moduli(mesh, ["BaTiO3", "CoFe2O4"], mode=mode)
            res = ph.homogenize_vem(mesh, moduli, beta=0.1, mode=mode)
            assert res.effective.shape == (9, 9)
            assert res.n_solves == 9
            assert np.abs(res.average_states - np.eye(9)).max() < 1e-10

    def test_hill_residuals_every_method(self):
        mesh = voronoi_mesh(6, seed=8)
        moduli, _ = table_moduli(mesh, ["BaTiO3", "CoFe2O4"], seed=7)
        runs = [ph.homogenize_vem(mesh, moduli, beta=0.1),
                ph.homogenize_vem(mesh, moduli, beta=1.0),
                ph.homogenize_fem(mesh, moduli, order=1),
                ph.homogenize_fem(mesh, moduli, order=2)]
        for res in runs:
            assert res.hill_residuals.max() < 1e-9

    def test_symmetry_reported_small(self):
        mesh = voronoi_mesh(9, seed=12)
        moduli, _ = table_moduli(mesh, ["BaTiO3", "CoFe2O4"], seed=13)
        res = ph.homogenize_vem(mesh, moduli, beta=0.1)
        assert res.asymmetry < 1e-8

    def test_homogeneity_scaling_exact(self):
        mesh = voronoi_mesh(5, seed=15)
        moduli, _ = table_moduli(mesh, ["BaTiO3", "CoFe2O4"], seed=16)
        s = 3.75
        base = ph.homogenize_vem(mesh, moduli, beta=0.1)
        scaled = ph.homogenize_vem(mesh, [s * M for M in moduli], beta=0.1)
        err = np.abs(scaled.effective - s * base.effective).max()
        assert err < 1e-12 * np.abs(s * base.effective).max()

    def test_one_factorization_for_battery(self):
        mesh = voronoi_mesh(4, seed=21)
        moduli, _ = table_moduli(mesh, ["BaTiO3"], seed=22)
        res = ph.homogenize_vem(mesh, moduli, beta=0.1)
        assert res.n_factorizations == 1
        assert res.n_solves == 12

    def test_moduli_count_mismatch(self):
        mesh = voronoi_mesh(3, seed=2)
        with pytest.raises(ph.HomogenizationError, match="per cell"):
            ph.homogenize_vem(mesh, [np.eye(12)], beta=0.1)

    def test_fem_argument_validation(self):
        mesh = voronoi_mesh(2, seed=2)
        moduli, _ = table_moduli(mesh, ["BaTiO3"])
        with pytest.raises(ph.HomogenizationError, match="order"):
            ph.homogenize_fem(mesh, moduli, order=3)
        with pytest.raises(ph.HomogenizationError, match="levels"):
            ph.homogenize_fem(mesh, moduli, order=2, levels=1)


class TestGrainModuli:
    def test_each_record_is_built_once(self, monkeypatch):
        records = [LIB["BaTiO3"], LIB["CoFe2O4"]]
        names = [records[c % 3 == 0] for c in range(10)]
        angles = [tuple(RNG.uniform(0.0, 2.0 * np.pi, 3)) for _ in names]
        want = [ph.reduce_modulus(pmat.rotate_modulus(pmat.build_modulus(rec), ang),
                                  "fullyCoupled") for rec, ang in zip(names, angles)]
        built, rotated = [], []

        def counting_build(rec):
            built.append(rec.name)
            return pmat.build_modulus(rec)

        def counting_rotate(G, ang):
            rotated.append(ang)
            return pmat.rotate_modulus(G, ang)

        monkeypatch.setattr(ph, "build_modulus", counting_build)
        monkeypatch.setattr(ph, "rotate_modulus", counting_rotate)
        got = ph.grain_moduli(names, angles, "fullyCoupled")
        assert sorted(built) == ["BaTiO3", "CoFe2O4"]
        assert rotated == angles
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def laminate_mesh(L=1.0):
    """Two equal slabs stacked along z."""
    seeds = np.array([[0.5, 0.5, 0.25], [0.5, 0.5, 0.75]]) * L
    return pm.generate_voronoi(seeds, L)


class TestLaminate:
    def test_in_plane_shear_matches_arithmetic_mixture(self):
        # in-plane response of a laminate is the volume-weighted mean;
        # the kinematic boundary data reproduces it exactly here
        mesh = laminate_mesh()
        a = pmat.isotropic_record("A", lam=60.0, shear=40.0)
        b = pmat.isotropic_record("B", lam=20.0, shear=10.0)
        moduli = ph.grain_moduli([a, b], [(0, 0, 0), (0, 0, 0)], "fullyCoupled")
        res = ph.homogenize_vem(mesh, moduli, beta=0.1)
        C = res.effective[:6, :6]
        mu_mean = 0.5 * (40.0 + 10.0)
        assert abs(C[5, 5] - mu_mean) < 1e-6 * mu_mean

    def test_kinematic_bound_sits_at_arithmetic_mean(self):
        # every vertex of a two-slab mesh lies on the box surface, so the
        # kinematic data determines the whole discrete field and the
        # result is exactly the volume-weighted (upper-bound) mixture;
        # the series-direction entries therefore exceed the harmonic mix
        mesh = laminate_mesh()
        a = pmat.isotropic_record("A", lam=60.0, shear=40.0)
        b = pmat.isotropic_record("B", lam=20.0, shear=10.0)
        moduli = ph.grain_moduli([a, b], [(0, 0, 0), (0, 0, 0)], "fullyCoupled")
        res = ph.homogenize_vem(mesh, moduli, beta=0.1)
        voigt = 0.5 * (moduli[0] + moduli[1])
        assert np.abs(res.effective - voigt).max() < 1e-9 * np.abs(voigt).max()
        harmonic_c33 = 2.0 / (1.0 / 140.0 + 1.0 / 40.0)
        assert res.effective[2, 2] > harmonic_c33 * (1.0 + 1e-6)


class TestVoigtReussBracketing:
    def test_mechanical_block_bracketed(self):
        mesh = voronoi_mesh(8, seed=31)
        a = pmat.isotropic_record("A", lam=60.0, shear=40.0)
        b = pmat.isotropic_record("B", lam=20.0, shear=10.0)
        recs = [a if c % 2 == 0 else b for c in range(8)]
        moduli = ph.grain_moduli(recs, [(0.0, 0.0, 0.0)] * 8, "fullyCoupled")
        res = ph.homogenize_vem(mesh, moduli, beta=0.1)
        C_eff = res.effective[:6, :6]

        vols = np.array([cell.volume for cell in mesh.cells])
        fracs = vols / vols.sum()
        C_voigt = sum(f * M[:6, :6] for f, M in zip(fracs, moduli))
        S_reuss = sum(f * np.linalg.inv(M[:6, :6])
                      for f, M in zip(fracs, moduli))
        C_reuss = np.linalg.inv(S_reuss)

        scale = np.abs(C_voigt).max()
        assert np.linalg.eigvalsh(C_voigt - C_eff).min() > -1e-8 * scale
        assert np.linalg.eigvalsh(C_eff - C_reuss).min() > -1e-8 * scale


class TestHybridComposite:
    def test_coupling_blocks_emerge(self):
        mesh = voronoi_mesh(8, seed=41)
        moduli, layout = table_moduli(mesh, ["BaTiO3", "CoFe2O4"], seed=42)
        res = ph.homogenize_vem(mesh, moduli, beta=0.1,
                                material_names=layout.names)
        Geff = res.modulus
        assert np.abs(Geff.piezoelectric).max() > 1e-3
        assert np.abs(Geff.piezomagnetic).max() > 1e-1
        alpha = Geff.electromagnetic
        assert np.all(np.isfinite(alpha))
        assert res.hill_residuals.max() < 1e-9
        assert set(res.material_names) == {"BaTiO3", "CoFe2O4"}


class TestGrainLayout:
    def test_deterministic_for_seed(self):
        a = ph.GrainLayout.random(LIB, "BaTiO3", 5, 123)
        b = ph.GrainLayout.random(LIB, "BaTiO3", 5, 123)
        assert a == b
        c = ph.GrainLayout.random(LIB, "BaTiO3", 5, 124)
        assert a != c

    def test_unknown_material_rejected(self):
        with pytest.raises(ph.HomogenizationError, match="library"):
            ph.GrainLayout.random(LIB, "unobtainium", 3, 1)

    def test_override_length_checked(self):
        with pytest.raises(ph.HomogenizationError, match="per cell"):
            ph.GrainLayout.random(LIB, None, 3, 1, names_override=["BaTiO3"])


@pytest.fixture(scope="module")
def result():
    mesh = voronoi_mesh(4, seed=51)
    moduli, layout = table_moduli(mesh, ["BaTiO3", "CoFe2O4"], seed=52)
    return ph.homogenize_vem(mesh, moduli, beta=0.1,
                             material_names=layout.names)


class TestSerialization:

    def test_json_round_trip(self, result):
        doc = json.loads(ph.result_to_json(result))
        assert doc["format"] == "polyvem-result"
        G = np.array(doc["effective_row_major"]).reshape(12, 12)
        assert np.allclose(G, result.effective)
        assert doc["mesh_digest"] == result.mesh_digest
        assert len(doc["config_digest"]) == 64
        assert "time" not in ph.result_to_json(result).lower()

    def test_json_deterministic(self, result):
        assert ph.result_to_json(result) == ph.result_to_json(result)
        d1 = json.loads(ph.result_to_json(result, config={"a": 1}))
        d2 = json.loads(ph.result_to_json(result, config={"a": 2}))
        assert d1["config_digest"] != d2["config_digest"]

    def test_csv_table(self, result):
        rows = list(csv.reader(io.StringIO(ph.result_to_csv(result))))
        assert rows[0][0] == "units"
        assert rows[1][0] == "flux\\state"
        assert len(rows[1]) == 13
        body = np.array([[float(x) for x in r[1:]] for r in rows[2:14]])
        assert np.allclose(body, result.effective_datasheet,
                           rtol=1e-11, atol=1e-18)
        # storage blocks print in data-sheet units: 1e-3 x assembled
        assert np.allclose(body[6:9, 6:9], result.effective[6:9, 6:9] / 1e3,
                           rtol=1e-11, atol=1e-18)


# ---------------------------------------------------------------------------
# Shared operators against the element built per weight
# ---------------------------------------------------------------------------

def direct_element(mesh, cell_id, G, beta, nf):
    """Reference element blended before any split: consistency part and
    per-tet stabilization loop weighted by (1-beta)/beta in one matrix,
    then the fallback centroid condensed from that blend."""
    cell = mesh.cells[cell_id]
    B_proj = fem.field_operator(vem.gradient_operators(mesh, [cell_id])[0].T,
                                nf)
    n_loc = len(cell.vertex_ids)
    ndof_v = n_loc * nf
    sub = pm.triangulate_cell(mesh, cell_id) if beta > 0.0 else None
    n_extra = len(sub.extra_vertices) if sub is not None else 0
    ndof = ndof_v + n_extra * nf
    K = np.zeros((ndof, ndof))
    A = np.zeros((B_proj.shape[0], ndof))
    K[:ndof_v, :ndof_v] = (1.0 - beta) * cell.volume * (B_proj.T @ G @ B_proj)
    A[:, :ndof_v] = (1.0 - beta) * cell.volume * B_proj
    if sub is not None:
        loc = {int(g): i for i, g in enumerate(cell.vertex_ids)}
        points = np.vstack([mesh.vertices, sub.extra_vertices])
        for tet in sub.tets:
            lids = [loc[int(t)] if int(t) < sub.n_mesh
                    else n_loc + int(t) - sub.n_mesh for t in tet]
            cols = np.concatenate([np.arange(l * nf, l * nf + nf)
                                   for l in lids])
            (Bt,), (vol,) = fem.batch_o1_operators(points[tet],
                                                   np.arange(4)[None], nf)
            K[np.ix_(cols, cols)] += beta * vol * (Bt.T @ G @ Bt)
            A[:, cols] += beta * vol * Bt
    if n_extra:
        R = -np.linalg.solve(K[ndof_v:, ndof_v:], K[:ndof_v, ndof_v:].T)
        A = A[:, :ndof_v] + A[:, ndof_v:] @ R
        K = K[:ndof_v, :ndof_v] + K[:ndof_v, ndof_v:] @ R
    return SimpleNamespace(
        cell_id=cell_id, node_ids=cell.vertex_ids, modulus=G,
        stiffness=(K[:ndof_v, :ndof_v] + K[:ndof_v, :ndof_v].T) / 2.0,
        average_op=A[:, :ndof_v],
        consistency_rank_deficient=beta == 0.0 and
        vem.stabilization_required(n_loc, nf))


def direct_homogenize(mesh, moduli, beta, mode):
    """Battery over direct_element blocks, its integrated-state pair
    scattered element by element."""
    nf = fem.FIELD_COUNT[mode]
    elems = [direct_element(mesh, c, moduli[c], beta, nf)
             for c in range(len(mesh.cells))]
    dof_map = pa.DofMap(mesh.n_vertices, mesh.boundary_node_ids, mode)
    intP = np.zeros((fem.state_size(nf), dof_map.n_dofs))
    intL = np.zeros_like(intP)
    for e in elems:
        dofs = (e.node_ids[:, None] * nf + np.arange(nf)).ravel()
        intP[:, dofs] += e.average_op
        intL[:, dofs] += e.modulus @ e.average_op
    return ph._battery(pa.assemble(elems, dof_map), intP, intL,
                       mesh.vertices, mesh, mode, "VEM-VO", beta, ())


class TestSharedOperators:
    BETAS = (0.0, 0.05, 0.5, 1.0)

    @pytest.mark.parametrize("sample", ["voronoi", "fallback"])
    def test_blend_matches_per_weight_element(self, sample):
        if sample == "voronoi":
            mesh, mode = voronoi_mesh(8, seed=31), "fullyCoupled"
        else:
            mesh, mode = l_prism_mesh(), "electroMech"
            assert pm.triangulate_cell(mesh, 0).fallback
        moduli, _ = table_moduli(mesh, ["BaTiO3", "CoFe2O4"], seed=7,
                                 mode=mode)
        operators = ph.VemOperators(mesh, moduli, mode)
        for beta in self.BETAS:
            shared = operators.evaluate(beta)
            direct = direct_homogenize(mesh, moduli, beta, mode)
            diff = np.linalg.norm(shared.effective - direct.effective)
            assert diff <= 1e-12 * np.linalg.norm(direct.effective), beta
            assert (shared.n_dofs, shared.n_factorizations,
                    shared.n_solves) == (direct.n_dofs,
                                         direct.n_factorizations,
                                         direct.n_solves)

    def test_weight_zero_operators_skip_the_submesh(self, monkeypatch):
        mesh = voronoi_mesh(4, seed=2)
        moduli, _ = table_moduli(mesh, ["BaTiO3"])

        def boom(*args, **kwargs):
            raise AssertionError("triangulated for beta = 0")

        monkeypatch.setattr(pm, "triangulate_cell", boom)
        res = ph.homogenize_vem(mesh, moduli, beta=0.0)
        assert res.beta == 0.0

    @pytest.mark.parametrize("mode", ["fullyCoupled", "electroMech"])
    def test_stabilization_part_is_the_coarse_tet_system(self, mode):
        # bit for bit on every pair of the coarse tets, zero elsewhere
        mesh = voronoi_mesh(20, seed=4)
        moduli, _ = table_moduli(mesh, ["BaTiO3", "CoFe2O4"], mode=mode)
        operators = ph.VemOperators(mesh, moduli, mode)
        operators.system(0.1)
        pattern, (_, (blocks, intP, intL)) = operators._parts
        tmesh = mesh.tets
        assert tmesh.n_vertices == mesh.n_vertices     # no fallback cell
        system, tet_P, tet_L = ph._tet_system(tmesh, moduli, operators.dof_map)
        tets = system.pattern
        tet_blocks = system.K.data[tets.mirror]
        n = mesh.n_vertices
        at = np.searchsorted(pattern.cols * n + pattern.rows,
                             tets.cols * n + tets.rows)
        assert np.array_equal(pattern.cols[at], tets.cols)
        assert np.array_equal(pattern.rows[at], tets.rows)
        assert blocks[at].tobytes() == tet_blocks.tobytes()
        others = np.ones(pattern.n_pairs, dtype=bool)
        others[at] = False
        assert others.any() and not blocks[others].any()
        assert intP.tobytes() == tet_P.tobytes()
        assert intL.tobytes() == tet_L.tobytes()

    def test_stabilization_part_is_built_at_the_first_positive_weight(
            self, monkeypatch):
        mesh = voronoi_mesh(4, seed=2)
        moduli, _ = table_moduli(mesh, ["BaTiO3"])
        calls = []
        triangulate = pm.triangulate_cell

        def counted(*args, **kwargs):
            calls.append(args[1])
            return triangulate(*args, **kwargs)

        monkeypatch.setattr(pm, "triangulate_cell", counted)
        operators = ph.VemOperators(mesh, moduli)
        counts = []
        for beta in (0.0, 0.1, 0.5):
            operators.evaluate(beta)
            counts.append(len(calls))
        assert counts == [0, len(mesh.cells), len(mesh.cells)]

    def test_one_shot_frees_the_parts_before_factoring(self, monkeypatch):
        # homogenize_vem holds no part's node-pair blocks through the
        # factorization; VemOperators keeps them for the next weight
        mesh = voronoi_mesh(8, seed=31)
        moduli, _ = table_moduli(mesh, ["BaTiO3", "CoFe2O4"], seed=7)
        parts, alive = [], []
        assemble, factorize = ph.assemble_parts, pa.SparseSystem.factorize

        def kept(*args):
            pattern, sums = assemble(*args)
            parts.extend(weakref.ref(blocks) for blocks, _, _ in sums)
            return pattern, sums

        def checked(self):
            alive.append([ref() is not None for ref in parts])
            return factorize(self)

        monkeypatch.setattr(ph, "assemble_parts", kept)
        monkeypatch.setattr(pa.SparseSystem, "factorize", checked)
        one_shot = ph.homogenize_vem(mesh, moduli, beta=0.1)
        operators = ph.VemOperators(mesh, moduli)
        swept = operators.evaluate(0.1)
        assert alive == [[False, False], [False, False, True, True]]
        assert one_shot.effective.tobytes() == swept.effective.tobytes()



# ---------------------------------------------------------------------------
# Tet paths against a per-tet, per-Gauss-point reference
# ---------------------------------------------------------------------------

def quadratic_gauss_gradients(corner_grads):
    """(4 Gauss points, 10 nodes, 3) quadratic shape-function gradients
    of one tet, point by point and node by node."""
    out = np.empty((len(fem.GAUSS4_BARY), 10, 3))
    for g, bary in enumerate(fem.GAUSS4_BARY):
        for a in range(4):
            out[g, a] = (4.0 * bary[a] - 1.0) * corner_grads[a]
        for k, (a, b) in enumerate(pm._EDGE_LOCAL):
            out[g, 4 + k] = 4.0 * (bary[a] * corner_grads[b]
                                   + bary[b] * corner_grads[a])
    return out


def direct_tet_homogenize(mesh, moduli, order, mode):
    """Battery over per-tet stiffness blocks, each summed over its Gauss
    points, with an integrated-state pair that integrates every tet's
    Gauss-point operators."""
    nf = fem.FIELD_COUNT[mode]
    subs = [pm.triangulate_cell(mesh, c) for c in range(len(mesh.cells))]
    tmesh = pm.union_submeshes(mesh, subs)
    nodes, points, boundary = (tmesh.tets, tmesh.vertices,
                               tmesh.boundary_node_ids)
    if order == 2:
        o2 = fem.promote_to_quadratic(tmesh)
        nodes, points, boundary = o2.tets, o2.vertices, o2.boundary_node_ids
    elems = []
    for t, ids in enumerate(nodes):
        G = moduli[tmesh.cell_of_tet[t]]
        corner_grads, vol = fem.tet_gradient(tmesh.vertices[tmesh.tets[t]])
        if order == 1:
            gauss = [(fem.field_operator(corner_grads, nf), vol)]
        else:
            gauss = [(fem.field_operator(grads, nf), w * vol) for grads, w
                     in zip(quadratic_gauss_gradients(corner_grads),
                            fem.GAUSS4_WEIGHTS)]
        K = sum(w * (B.T @ G @ B) for B, w in gauss)
        elems.append(SimpleNamespace(
            node_ids=ids, modulus=G, gauss=gauss, stiffness=(K + K.T) / 2.0,
            dofs=(ids[:, None] * nf + np.arange(nf)).ravel()))
    dof_map = pa.DofMap(len(points), boundary, mode)
    intP = np.zeros((fem.state_size(nf), dof_map.n_dofs))
    intL = np.zeros_like(intP)
    for e in elems:
        op = sum(w * B for B, w in e.gauss)
        intP[:, e.dofs] += op
        intL[:, e.dofs] += e.modulus @ op
    return ph._battery(pa.assemble(elems, dof_map), intP, intL, points,
                       mesh, mode, "direct", None, ())


class TestTetPaths:
    @pytest.mark.parametrize("order", [1, 2])
    def test_batched_path_matches_per_tet_reference(self, order):
        mesh = voronoi_mesh(6, seed=13)
        moduli, _ = table_moduli(mesh, ["BaTiO3", "CoFe2O4"], seed=17)
        batched = ph.homogenize_fem(mesh, moduli, order=order)
        direct = direct_tet_homogenize(mesh, moduli, order, "fullyCoupled")
        assert batched.n_dofs == direct.n_dofs
        ref = direct.effective_datasheet
        diff = np.linalg.norm(batched.effective_datasheet - ref)
        assert diff <= 1e-12 * np.linalg.norm(ref)
        assert np.abs(batched.hill_residuals).max() <= 1e-10
