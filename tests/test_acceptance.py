"""Acceptance gate: twelve product-level criteria, one test each.

Every test prints a single PASS/FAIL line (written straight to the real
stdout so it is visible under pytest capture) followed by the measured
evidence, then asserts the criterion at its stated tolerance.
"""

import sys
import time

import numpy as np
import pytest

from polyvem.assembly import DofMap
from polyvem.element_vem import cell_operators, kernel_dimension
from polyvem.homogenization import (GrainLayout, VemOperators, _tet_system,
                                    boundary_values, homogenize_fem,
                                    homogenize_vem, promote_to_quadratic,
                                    reduce_modulus, result_to_csv)
from polyvem.materials import (build_modulus, builtin_library,
                               coefficients, energy_invariant,
                               energy_quadratic, isotropic_record,
                               rotate_modulus, rotate_modulus_matrix,
                               rotation_Q, strain_to_voigt, stress_to_voigt,
                               voigt_transforms)
from polyvem.mesh import (generate_voronoi, random_seeds, triangulate_cell,
                          union_submeshes)
from polyvem.study import (DEFAULT_BETA_GRID, DEFAULT_FRACTION_GRID,
                           assign_volume_fraction, beta_opt, beta_sweep,
                           build_reference, computational_error,
                           relative_deviation, target_block)


@pytest.fixture
def report(capfd):
    """Emit one PASS/FAIL line straight to the real stdout (visible under
    capture) and also into the captured stream for failure reports."""
    def _report(number: int, ok: bool, detail: str, extra: str = "") -> None:
        line = f"[CRITERION {number:02d}] {'PASS' if ok else 'FAIL'} — {detail}"
        if extra:
            line += "\n" + extra
        with capfd.disabled():
            print(line, flush=True)
        print(line)
    return _report


def random_symmetric(rng, scale=1.0):
    a = rng.standard_normal((3, 3)) * scale
    return (a + a.T) / 2.0


# ---------------------------------------------------------------------------
# Shared fixtures (expensive pieces computed once per session)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def library():
    return builtin_library()


@pytest.fixture(scope="session")
def mesh20():
    return generate_voronoi(random_seeds(20, 1.0, 101).seeds, 1.0)


@pytest.fixture(scope="session")
def sweep_setup(mesh20, library, tmp_path_factory):
    """High-anisotropy 20-grain electro-mechanical case: refined reference,
    full stabilization sweep, and the deviation of a separate coarse-FEM
    run (not the sweep's own beta = 1 point), timed."""
    t0 = time.perf_counter()
    layout = GrainLayout.random(library, "hex_high_anisotropy", 20, 202)
    moduli = layout.moduli(library, "electroMech")
    cache = str(tmp_path_factory.mktemp("sweep-cache"))
    reference = build_reference(mesh20, moduli, "electroMech", 2, cache)
    curve, _ = beta_sweep(mesh20, moduli, "electroMech", DEFAULT_BETA_GRID,
                          reference, ("G",))
    fem = homogenize_fem(mesh20, moduli, order=1, mode="electroMech")
    fem_d = {"G": relative_deviation(
        target_block(fem.effective, "electroMech", "G"),
        target_block(reference.effective, "electroMech", "G"))}
    elapsed = time.perf_counter() - t0
    return {"curve": curve, "fem_d": fem_d, "elapsed": elapsed,
            "n_ref_dofs": reference.n_dofs}


@pytest.fixture(scope="session")
def hybrid_fraction_rows(mesh20, library, tmp_path_factory):
    """Two-phase fraction grid with per-point refined references."""
    from polyvem.study import fraction_sweep
    cache = str(tmp_path_factory.mktemp("fraction-cache"))
    rows = fraction_sweep(mesh20, library, DEFAULT_FRACTION_GRID, 7,
                          DEFAULT_BETA_GRID, mode="fullyCoupled",
                          targets=("G",), reference_levels=2,
                          cache_dir=cache)
    return rows, cache


# ---------------------------------------------------------------------------
# 1. Single-grain exactness
# ---------------------------------------------------------------------------

def test_criterion_01_single_grain_exactness(library, report):
    mesh = generate_voronoi(random_seeds(1, 1.0, 9).seeds, 1.0)
    rng = np.random.default_rng(14)
    worst = 0.0
    slowest = 0.0
    for name, rec in sorted(library.items()):
        angles = tuple(rng.uniform(0.0, 2.0 * np.pi, 3))
        expected = reduce_modulus(rotate_modulus(build_modulus(rec), angles),
                                  rec.mode)
        t0 = time.perf_counter()
        res = homogenize_vem(mesh, [expected], beta=0.1, mode=rec.mode)
        dt = time.perf_counter() - t0
        err = (np.linalg.norm(res.effective - expected)
               / np.linalg.norm(expected))
        worst = max(worst, err)
        slowest = max(slowest, dt)
    ok = worst < 1e-8 and slowest < 1.0
    report(1, ok, f"{len(library)} materials, worst rel error {worst:.2e} "
                  f"(tol 1e-8), slowest run {slowest * 1e3:.1f} ms (limit 1 s)")
    assert worst < 1e-8
    assert slowest < 1.0


# ---------------------------------------------------------------------------
# 2. Patch tests: global linear fields reproduced exactly
# ---------------------------------------------------------------------------

def test_criterion_02_patch_tests(library, report):
    mesh = generate_voronoi(random_seeds(10, 1.0, 33).seeds, 1.0)
    rng = np.random.default_rng(27)
    G = reduce_modulus(
        rotate_modulus(build_modulus(library["BaTiO3"]),
                       tuple(rng.uniform(0, 2 * np.pi, 3))), "fullyCoupled")
    A = rng.standard_normal((5, 3)) * 0.3          # coupled affine field
    exact = (mesh.vertices @ A.T).ravel()
    scale = np.abs(exact).max()
    moduli = [G] * len(mesh.cells)
    operators = VemOperators(mesh, moduli, "fullyCoupled")
    dm = operators.dof_map
    worst = 0.0

    for beta in (0.02, 0.5, 1.0):
        u = operators.system(beta).solve_dirichlet(exact[dm.boundary_dofs])
        worst = max(worst, np.abs(u - exact).max() / scale)

    subs = [triangulate_cell(mesh, c) for c in range(len(mesh.cells))]
    tmesh = union_submeshes(mesh, subs)
    dm1 = DofMap(tmesh.n_vertices, tmesh.boundary_node_ids, "fullyCoupled")
    sys1, *_ = _tet_system(tmesh, moduli, dm1)
    exact1 = (tmesh.vertices @ A.T).ravel()
    u1 = sys1.solve_dirichlet(exact1[dm1.boundary_dofs])
    worst = max(worst, np.abs(u1 - exact1).max() / scale)

    # per-tet constant gradients of the linear-tet solution
    from polyvem.homogenization import batch_o1_operators
    B_all, _ = batch_o1_operators(tmesh.vertices, tmesh.tets, 5)
    dofs = (tmesh.tets[:, :, None] * 5 + np.arange(5)).reshape(
        len(tmesh.tets), -1)
    states = np.einsum("mpa,ma->mp", B_all, u1[dofs])
    worst_grad = np.abs(states - states[0]).max() / max(
        1.0, np.abs(states[0]).max())

    o2 = promote_to_quadratic(tmesh)
    dm2 = DofMap(o2.n_vertices, o2.boundary_node_ids, "fullyCoupled")
    sys2, *_ = _tet_system(o2, moduli, dm2)
    exact2 = (o2.vertices @ A.T).ravel()
    u2 = sys2.solve_dirichlet(exact2[dm2.boundary_dofs])
    worst = max(worst, np.abs(u2 - exact2).max() / scale)

    ok = worst < 1e-10 and worst_grad < 1e-10
    report(2, ok, "10-grain mesh, polyhedral (three stabilization weights) "
                  f"+ linear/quadratic tets: worst nodal error {worst:.2e}, "
                  f"gradient spread {worst_grad:.2e} (tol 1e-10)")
    assert worst < 1e-10
    assert worst_grad < 1e-10


# ---------------------------------------------------------------------------
# 3. Full-stabilization degeneration to the coarse linear-tet baseline
# ---------------------------------------------------------------------------

def test_criterion_03_full_stabilization_degenerates(library, report):
    mesh = generate_voronoi(random_seeds(10, 1.0, 51).seeds, 1.0)
    names = ["BaTiO3" if c % 2 == 0 else "CoFe2O4" for c in range(10)]
    layout = GrainLayout.random(library, None, 10, 52, names_override=names)
    moduli = layout.moduli(library, "fullyCoupled")

    subs = [triangulate_cell(mesh, c) for c in range(len(mesh.cells))]
    assert all(len(s.extra_vertices) == 0 for s in subs), \
        "submeshes must share the polyhedral vertex set"
    tmesh = union_submeshes(mesh, subs)
    operators = VemOperators(mesh, moduli, "fullyCoupled")
    dm = operators.dof_map
    sys_vem = operators.system(1.0)
    sys_fem, *_ = _tet_system(tmesh, moduli, dm)

    worst = 0.0
    for case in (1, 4, 7, 10, 12):
        vals = boundary_values(case, mesh.vertices[dm.boundary_nodes],
                               "fullyCoupled").ravel()
        u_v = sys_vem.solve_dirichlet(vals)
        u_f = sys_fem.solve_dirichlet(vals)
        worst = max(worst,
                    np.abs(u_v - u_f).max() / max(1.0, np.abs(u_f).max()))

    reference = homogenize_fem(mesh, moduli, order=1, levels=1,
                               mode="fullyCoupled")
    d_vem = relative_deviation(
        target_block(homogenize_vem(mesh, moduli, beta=1.0).effective,
                     "fullyCoupled", "G"),
        target_block(reference.effective, "fullyCoupled", "G"))
    d_fem = relative_deviation(
        target_block(homogenize_fem(mesh, moduli, order=1).effective,
                     "fullyCoupled", "G"),
        target_block(reference.effective, "fullyCoupled", "G"))
    d_gap = abs(d_vem - d_fem)

    ok = worst < 1e-10 and d_gap < 1e-10
    report(3, ok, f"nodal gap {worst:.2e} over 5 load cases (tol 1e-10); "
                  f"deviation-metric gap {d_gap:.2e} (tol 1e-10)")
    assert worst < 1e-10
    assert d_gap < 1e-10


# ---------------------------------------------------------------------------
# 4. Micro-macro energy consistency on a hybrid composite
# ---------------------------------------------------------------------------

def test_criterion_04_energy_consistency(mesh20, library, report):
    layout, achieved, _ = assign_volume_fraction(mesh20, 0.5, 7)
    moduli = layout.moduli(library, "fullyCoupled")
    worst = 0.0
    parts = []
    for tag, run in (
            ("polyhedral", lambda: homogenize_vem(mesh20, moduli, beta=0.1)),
            ("linear tets", lambda: homogenize_fem(mesh20, moduli, order=1)),
            ("quadratic tets", lambda: homogenize_fem(mesh20, moduli,
                                                      order=2))):
        res = run()
        assert len(res.hill_residuals) == 12
        r = float(res.hill_residuals.max())
        worst = max(worst, r)
        parts.append(f"{tag} {r:.2e}")
    ok = worst < 1e-9
    report(4, ok, f"20-grain hybrid (fraction {achieved:.3f}), max relative "
                  f"energy residual over 12 cases: {'; '.join(parts)} "
                  "(tol 1e-9)")
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# 5. Closed-form invariant energy equals the quadratic form
# ---------------------------------------------------------------------------

def test_criterion_05_invariant_energy(library, report):
    rng = np.random.default_rng(61)
    worst = 0.0
    n_samples = 10_000
    for name in ("BaTiO3", "CoFe2O4"):
        rec = library[name]
        G = build_modulus(rec)
        co = coefficients(rec)
        for _ in range(n_samples):
            angles = tuple(rng.uniform(0, 2 * np.pi, 3))
            Q = rotation_Q(angles)
            axis = Q @ np.array([0.0, 0.0, 1.0])
            eps = random_symmetric(rng, 1e-3)
            E = rng.standard_normal(3)
            H = rng.standard_normal(3)
            P = np.concatenate([strain_to_voigt(eps), E, H])
            psi_q = energy_quadratic(rotate_modulus(G, angles), P)
            psi_i = energy_invariant(co, axis, eps, E, H)
            worst = max(worst, abs(psi_i - psi_q) / max(abs(psi_q), 1e-300))
    ok = worst < 1e-10
    report(5, ok, f"2 x {n_samples} random (axis, strain, E, H) samples, "
                  f"worst rel error {worst:.2e} (tol 1e-10)")
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# 6. Transformation duality and rotation round-trip
# ---------------------------------------------------------------------------

def test_criterion_06_transformation_duality(library, report):
    rng = np.random.default_rng(71)
    worst_dual = worst_agree = 0.0
    for _ in range(100):
        angles = tuple(rng.uniform(0, 2 * np.pi, 3))
        ts, te = voigt_transforms(angles)
        worst_dual = max(worst_dual, np.abs(ts.T @ te - np.eye(6)).max())
        Q = rotation_Q(angles)
        s = random_symmetric(rng)
        e = random_symmetric(rng)
        worst_agree = max(
            worst_agree,
            np.abs(ts @ stress_to_voigt(s)
                   - stress_to_voigt(Q.T @ s @ Q)).max(),
            np.abs(te @ strain_to_voigt(e)
                   - strain_to_voigt(Q.T @ e @ Q)).max())

    G = build_modulus(library["BaTiO3"]).matrix
    worst_trip = 0.0
    for _ in range(20):
        Q = rotation_Q(tuple(rng.uniform(0, 2 * np.pi, 3)))
        back = rotate_modulus_matrix(rotate_modulus_matrix(G, Q), Q.T)
        worst_trip = max(worst_trip,
                         np.abs(back - G).max() / np.abs(G).max())
    ok = worst_dual < 1e-12 and worst_agree < 1e-12 and worst_trip < 1e-11
    report(6, ok, f"duality {worst_dual:.2e} and tensor-vs-matrix rotation "
                  f"{worst_agree:.2e} over 100 triples (tol 1e-12); "
                  f"modulus round-trip {worst_trip:.2e} (tol 1e-11)")
    assert worst_dual < 1e-12
    assert worst_agree < 1e-12
    assert worst_trip < 1e-11


# ---------------------------------------------------------------------------
# 7. Laminate closed form and Voigt-Reuss bracketing
# ---------------------------------------------------------------------------

def test_criterion_07_laminate_and_bracketing(report):
    lam_a, mu_a, lam_b, mu_b = 60.0, 40.0, 20.0, 10.0
    a = isotropic_record("A", lam=lam_a, shear=mu_a)
    b = isotropic_record("B", lam=lam_b, shear=mu_b)
    from polyvem.homogenization import grain_moduli

    seeds = np.array([[0.5, 0.5, 0.25], [0.5, 0.5, 0.75]])
    mesh = generate_voronoi(seeds, 1.0)
    moduli = grain_moduli([a, b], [(0, 0, 0)] * 2, "fullyCoupled")
    res = homogenize_fem(mesh, moduli, order=1, levels=2,
                         mode="fullyCoupled")
    C = res.effective[:6, :6]

    def mean(fa, fb):
        return 0.5 * (fa + fb)

    m_a, m_b = lam_a + 2 * mu_a, lam_b + 2 * mu_b
    c33 = 1.0 / mean(1.0 / m_a, 1.0 / m_b)
    r = mean(lam_a / m_a, lam_b / m_b)
    oracle = {
        (2, 2): c33,
        (0, 2): r * c33,
        (0, 0): mean(4 * mu_a * (lam_a + mu_a) / m_a,
                     4 * mu_b * (lam_b + mu_b) / m_b) + r * r * c33,
        (0, 1): mean(2 * lam_a * mu_a / m_a,
                     2 * lam_b * mu_b / m_b) + r * r * c33,
        (3, 3): 1.0 / mean(1.0 / mu_a, 1.0 / mu_b),
        (5, 5): mean(mu_a, mu_b),
    }
    gaps = {ij: abs(C[ij] - v) / abs(v) for ij, v in oracle.items()}
    worst_lam = max(gaps.values())

    mesh8 = generate_voronoi(random_seeds(8, 1.0, 31).seeds, 1.0)
    recs = [a if c % 2 == 0 else b for c in range(8)]
    moduli8 = grain_moduli(recs, [(0.0, 0.0, 0.0)] * 8, "fullyCoupled")
    C_eff = homogenize_vem(mesh8, moduli8, beta=0.1).effective[:6, :6]
    vols = np.array([cell.volume for cell in mesh8.cells])
    fracs = vols / vols.sum()
    C_voigt = sum(f * M[:6, :6] for f, M in zip(fracs, moduli8))
    C_reuss = np.linalg.inv(sum(f * np.linalg.inv(M[:6, :6])
                                for f, M in zip(fracs, moduli8)))
    scale = np.abs(C_voigt).max()
    lo = np.linalg.eigvalsh(C_voigt - C_eff).min() / scale
    hi = np.linalg.eigvalsh(C_eff - C_reuss).min() / scale
    bracket_ok = lo > -1e-8 and hi > -1e-8

    ok = worst_lam < 1e-6 and bracket_ok
    table = "; ".join(f"C{i + 1}{j + 1} {C[i, j]:8.4f} vs {oracle[(i, j)]:8.4f}"
                      f" (gap {gaps[(i, j)]:.1e})"
                      for i, j in sorted(oracle))
    report(7, ok, "two-slab refined run vs closed-form layered mixture, "
                  f"worst rel gap {worst_lam:.3e} (tol 1e-6): {table} | "
                  f"bracketing margins {lo:.1e}/{hi:.1e} (tol -1e-8)")
    # Uniform-displacement data on a finite cube cannot reach the
    # layered closed form for through-thickness entries: the layered
    # field violates the affine lateral boundary, leaving an O(1) gap
    # at every refinement; the in-plane shear entry matches exactly.
    assert bracket_ok
    assert worst_lam < 1e-6


# ---------------------------------------------------------------------------
# 8. Element tangent vs finite differences; kernel dimension
# ---------------------------------------------------------------------------

def test_criterion_08_element_tangent_and_kernel(report):
    mesh = generate_voronoi(random_seeds(10, 1.0, 33).seeds, 1.0)
    rng = np.random.default_rng(83)
    g = rng.standard_normal((12, 12))
    G = (g + g.T) / 2.0 + 12.0 * np.eye(12)
    worst_r = worst_k = 0.0
    kernel_ok = True
    ops, = cell_operators(mesh, [0], [G])
    for beta in (0.01, 0.1, 0.4, 1.0):
        K = ops.blend(beta)[0]

        def residual(q):
            return K @ q

        def energy(q):
            return 0.5 * float(q @ K @ q)

        n = K.shape[0]
        p = rng.standard_normal(n)
        R = residual(p)
        h = 1e-3
        scale_r = np.abs(R).max()
        for k in range(n):
            dp = np.zeros(n)
            dp[k] = h
            num_r = (energy(p + dp) - energy(p - dp)) / (2 * h)
            worst_r = max(worst_r, abs(num_r - R[k]) / scale_r)
            num_col = (residual(p + dp) - residual(p - dp)) / (2 * h)
            worst_k = max(worst_k,
                          np.abs(num_col - K[:, k]).max() / np.abs(K).max())
        s = np.linalg.svd(K, compute_uv=False)
        n_zero = int(np.sum(s < 1e-10 * s[0]))
        kernel_ok &= (n_zero == kernel_dimension(5) == 8)
    ok = worst_r < 1e-6 and worst_k < 1e-6 and kernel_ok
    report(8, ok, f"central differences on a Voronoi cell, 4 weights: "
                  f"gradient err {worst_r:.2e}, tangent err {worst_k:.2e} "
                  f"(tol 1e-6); kernel dimension == 8: {kernel_ok}")
    assert worst_r < 1e-6
    assert worst_k < 1e-6
    assert kernel_ok


# ---------------------------------------------------------------------------
# 9. Method ordering on the high-anisotropy polycrystal
# ---------------------------------------------------------------------------

def test_criterion_09_method_ordering(sweep_setup, report):
    curve = dict((round(b, 10), d["G"]) for b, d in sweep_setup["curve"])
    e_vem = abs(curve[0.1])
    e_fem = abs(sweep_setup["fem_d"]["G"])
    ratio = e_fem / e_vem
    elapsed = sweep_setup["elapsed"]
    ok = e_vem < e_fem and ratio > 2.0 and elapsed < 600.0
    report(9, ok, f"E_C polyhedral(0.1) {e_vem:.3f}% vs coarse tets "
                  f"{e_fem:.3f}% against a twice-refined reference "
                  f"({sweep_setup['n_ref_dofs']} dofs); ratio {ratio:.2f} "
                  f"(need > 2); wall {elapsed:.1f}s (limit 600)")
    assert e_vem < e_fem
    assert ratio > 2.0
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 10. Stabilization sweep: minimum location and endpoint identity
# ---------------------------------------------------------------------------

def test_criterion_10_stabilization_sweep(sweep_setup, report):
    curve = sweep_setup["curve"]
    b_opt = beta_opt(curve, "G")
    d_end = next(d["G"] for b, d in curve if round(b, 10) == 1.0)
    d_fem = sweep_setup["fem_d"]["G"]
    # the full-weight element equals the linear-tet element identically;
    # the two assembly paths differ only in summation order, so the
    # deviation values coincide to the degeneration tolerance
    gap = abs(d_end - d_fem)
    ok = b_opt <= 0.3 and gap < 1e-10
    report(10, ok, f"|D_rel| minimal at weight {b_opt:.2f} (need <= 0.3); "
                   f"full-weight deviation {d_end:+.6f}% vs coarse tets "
                   f"{d_fem:+.6f}%, gap {gap:.1e} (tol 1e-10)")
    assert b_opt <= 0.3
    assert gap < 1e-10


# ---------------------------------------------------------------------------
# 11. Hybrid fraction grid: completion, accuracy bookkeeping, robustness
# ---------------------------------------------------------------------------

def test_criterion_11_fraction_grid(mesh20, library, hybrid_fraction_rows, report):
    rows, cache = hybrid_fraction_rows
    assert len(rows) == len(DEFAULT_FRACTION_GRID)

    vols = np.array([c.volume for c in mesh20.cells])
    max_frac = vols.max() / vols.sum()
    worst_gap = max(abs(r.fraction_achieved - r.fraction_target)
                    for r in rows)
    fractions_ok = worst_gap <= max_frac + 1e-12
    emitted_ok = all(np.isfinite(r.beta_opt) and np.isfinite(r.e_c["G"])
                     for r in rows)
    worst = max(rows, key=lambda r: r.e_c["G"])
    robust_ok = all(r.e_c["G"] < 1.0 for r in rows)

    detail = ", ".join(f"{r.fraction_target:.2f}:{r.e_c['G']:.2f}%@b" +
                       f"{r.beta_opt:.2f}" for r in rows)
    ok = fractions_ok and emitted_ok and robust_ok
    report(11, ok, f"grid of {len(rows)} fractions completed; worst target "
                   f"gap {worst_gap:.4f} <= one-grain volume {max_frac:.4f}: "
                   f"{fractions_ok}; per-point E_C(0.1) and optimal weight "
                   f"emitted: {emitted_ok}; all E_C(0.1) < 1%: {robust_ok} "
                   f"[{detail}]")

    if not robust_ok:
        # deviation decomposition at the worst grid point
        layout, achieved, _ = assign_volume_fraction(
            mesh20, worst.fraction_target, 7)
        moduli = layout.moduli(library, "fullyCoupled")
        res = homogenize_vem(mesh20, moduli, beta=0.1)
        ref = build_reference(mesh20, moduli, "fullyCoupled", 2, cache)
        lines = [f"block-wise E_C at fraction {achieved:.3f} "
                 "(20 grains, twice-refined reference):"]
        for t in ("C", "e", "q", "eps", "mu", "G"):
            e_t = computational_error(
                target_block(res.effective, "fullyCoupled", t),
                target_block(ref.effective, "fullyCoupled", t))
            lines.append(f"  {t:3s} {e_t:7.3f}%")
        print("\n".join(lines), file=sys.__stdout__, flush=True)
        print("\n".join(lines))

    assert fractions_ok
    assert emitted_ok
    # With 20 grains the coupling blocks of the two-phase mixture carry
    # percent-level discretization error that a 100-grain sample averages
    # away; the mechanical block alone stays at the 0.05% scale.
    assert robust_ok


# ---------------------------------------------------------------------------
# 12. Determinism: identical configs give byte-identical tables
# ---------------------------------------------------------------------------

def test_criterion_12_determinism(tmp_path, library, report):
    from polyvem.cli import main

    cfg = tmp_path / "run.ini"
    cfg.write_text("""
[run]
seed = 3
[mesh]
n_grains = 8
mesh_seed = 11
[materials]
names = hex_high_anisotropy
orientation_seed = 12
[homogenize]
mode = electroMech
[study]
kind = beta-sweep
mode = electroMech
targets = G
beta_step = 0.25
reference_levels = 1
cache = {}
""".format(tmp_path / "cache"), encoding="utf-8")

    outs = []
    for d in ("a", "b"):
        out = tmp_path / d
        assert main(["homogenize", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert main(["study", "--config", str(cfg),
                     "--out", str(out)]) == 0
        outs.append(out)

    same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
               for n in ("effective.csv", "beta_sweep.csv"))
    mesh = generate_voronoi(random_seeds(3, 1.0, 5).seeds, 1.0)
    layout = GrainLayout.random(library, "BaTiO3", 3, 6)
    moduli = layout.moduli(library, "fullyCoupled")
    csv_a = result_to_csv(homogenize_vem(mesh, moduli, beta=0.1))
    csv_b = result_to_csv(homogenize_vem(mesh, moduli, beta=0.1))
    same_lib = csv_a == csv_b

    ok = same and same_lib
    report(12, ok, "two identical command runs: effective.csv and "
                   f"beta_sweep.csv byte-identical: {same}; "
                   f"library-level table rerun identical: {same_lib}")
    assert same
    assert same_lib
