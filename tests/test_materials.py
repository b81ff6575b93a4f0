"""Materials module tests.

Oracle policy: frozen hand-derived constants are asserted exactly; derived
checks use independent constructions (direct 3x3 tensor rotation, central
finite differences, Voigt/Reuss assembly in the cubic closed form).
"""

import hashlib
import importlib.resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvem import cli
from polyvem import materials as mat


RNG = np.random.default_rng(20260815)

# frozen oracle: cubic C11=100, C12=60, C44=60 has Zener ratio 3 and
# universal anisotropy index (6/5)(sqrt(Z)-1/sqrt(Z))^2 = 1.6 exactly
CUBIC_ANISO_ORACLE = 1.6


def cubic_stiffness(c11, c12, c44):
    C = np.zeros((6, 6))
    C[:3, :3] = c12
    np.fill_diagonal(C[:3, :3], c11)
    C[3, 3] = C[4, 4] = C[5, 5] = c44
    return C


def random_rotation(rng):
    return mat.rotation_Q(rng.uniform(0.0, 2 * np.pi, size=3))


def random_symmetric3(rng, scale=1.0):
    A = rng.standard_normal((3, 3))
    return scale * (A + A.T) / 2.0


class TestVoigtConversions:
    def test_strain_roundtrip(self):
        e = random_symmetric3(RNG)
        v = mat.strain_to_voigt(e)
        assert np.allclose(mat.voigt_to_strain(v), e, atol=1e-15)
        # engineering shears double the tensor components
        assert v[3] == pytest.approx(2 * e[1, 2])

    def test_stress_roundtrip(self):
        s = random_symmetric3(RNG)
        v = mat.stress_to_voigt(s)
        assert np.allclose(mat.voigt_to_stress(v), s, atol=1e-15)
        assert v[3] == pytest.approx(s[1, 2])

    def test_work_pairing_matches_tensor_contraction(self):
        e = random_symmetric3(RNG)
        s = random_symmetric3(RNG)
        tensor = np.tensordot(s, e)
        voigt = mat.stress_to_voigt(s) @ mat.strain_to_voigt(e)
        assert voigt == pytest.approx(tensor, rel=1e-13)


class TestRotation:
    def test_identity_angles(self):
        assert np.allclose(mat.rotation_Q((0, 0, 0)), np.eye(3), atol=1e-15)

    def test_quarter_turn_about_z_maps_e1_to_e2(self):
        Q = mat.rotation_Q((0, 0, np.pi / 2))
        assert np.allclose(Q @ [1, 0, 0], [0, 1, 0], atol=1e-15)

    @given(st.tuples(*[st.floats(-10, 10) for _ in range(3)]))
    @settings(max_examples=50, deadline=None)
    def test_orthogonal_unit_determinant(self, angles):
        Q = mat.rotation_Q(angles)
        assert np.allclose(Q.T @ Q, np.eye(3), atol=1e-13)
        assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-13)

    def test_composition_order_x_then_y_then_z(self):
        # the composed matrix must equal applying the z factor first
        t = (0.3, -0.7, 1.1)
        q1 = mat.rotation_Q((t[0], 0, 0))
        q2 = mat.rotation_Q((0, t[1], 0))
        q3 = mat.rotation_Q((0, 0, t[2]))
        assert np.allclose(mat.rotation_Q(t), q1 @ q2 @ q3, atol=1e-14)


class TestVoigtTransforms:
    def test_identity(self):
        ts, te = mat.voigt_transforms((0, 0, 0))
        assert np.allclose(ts, np.eye(6), atol=1e-15)
        assert np.allclose(te, np.eye(6), atol=1e-15)

    def test_duality(self):
        for _ in range(20):
            ts, te = mat.voigt_transforms(RNG.uniform(0, 2 * np.pi, 3))
            assert np.allclose(ts.T @ te, np.eye(6), atol=1e-12)

    def test_against_direct_tensor_rotation(self):
        for _ in range(20):
            angles = RNG.uniform(0, 2 * np.pi, 3)
            Q = mat.rotation_Q(angles)
            ts, te = mat.voigt_transforms(angles)
            s = random_symmetric3(RNG)
            e = random_symmetric3(RNG)
            # transforms pull global fields into the grain frame
            assert np.allclose(ts @ mat.stress_to_voigt(s),
                               mat.stress_to_voigt(Q.T @ s @ Q), atol=1e-12)
            assert np.allclose(te @ mat.strain_to_voigt(e),
                               mat.strain_to_voigt(Q.T @ e @ Q), atol=1e-12)

    def test_bond_is_multiplicative(self):
        A = random_rotation(RNG)
        B = random_rotation(RNG)
        assert np.allclose(mat.bond_stress(A @ B),
                           mat.bond_stress(A) @ mat.bond_stress(B), atol=1e-12)
        assert np.allclose(mat.bond_strain(A @ B),
                           mat.bond_strain(A) @ mat.bond_strain(B), atol=1e-12)

    def test_work_invariance(self):
        for _ in range(20):
            ts, te = mat.voigt_transforms(RNG.uniform(0, 2 * np.pi, 3))
            sv = RNG.standard_normal(6)
            ev = RNG.standard_normal(6)
            assert (ts @ sv) @ (te @ ev) == pytest.approx(sv @ ev, rel=1e-12, abs=1e-12)


class TestGeneralizedModulus:
    def test_block_roundtrip_and_signs(self):
        C = cubic_stiffness(3.0, 1.0, 2.0)
        e = RNG.standard_normal((3, 6))
        q = RNG.standard_normal((3, 6))
        eps = np.diag([1.0, 1.0, 2.0])
        alpha = random_symmetric3(RNG)
        mu = np.diag([3.0, 3.0, 4.0])
        G = mat.GeneralizedModulus.from_blocks(C, e, q, eps, alpha, mu)
        assert np.allclose(G.stiffness, C)
        assert np.allclose(G.piezoelectric, e)
        assert np.allclose(G.piezomagnetic, q)
        assert np.allclose(G.dielectric, eps)
        assert np.allclose(G.electromagnetic, alpha)
        assert np.allclose(G.magnetic, mu)
        # sign layout: upper-left positive, coupling and lower diagonal negative
        assert np.allclose(G.matrix[6:9, 0:6], -e)
        assert np.allclose(G.matrix[9:12, 9:12], -mu)

    def test_asymmetric_matrix_rejected(self):
        m = np.zeros((12, 12))
        m[0, 1] = 1.0
        with pytest.raises(mat.MaterialError):
            mat.GeneralizedModulus(m)

    def test_constitutive_sign_convention(self):
        lib = mat.builtin_library()
        G = mat.build_modulus(lib["BaTiO3"])
        # uniaxial strain along the poling axis with no fields applied
        P = np.zeros(12)
        P[2] = 1e-3
        L = mat.constitutive(G, P)
        assert L[2] == pytest.approx(162.0 * 1e-3)     # stress
        # flux rows store -D; D = e.strain here, D3 = e33 * strain33
        assert -L[8] == pytest.approx(18.6 * 1e-3)


class TestBuildModulus:
    def setup_method(self):
        self.lib = mat.builtin_library()

    def test_barium_titanate_values(self):
        G = mat.build_modulus(self.lib["BaTiO3"])
        C = G.stiffness
        assert C[0, 0] == pytest.approx(166.0)
        assert C[5, 5] == pytest.approx((166.0 - 76.6) / 2)
        assert G.piezoelectric[2, 2] == pytest.approx(18.6)
        # permeability converts from data-sheet N/kA^2 by 1e3
        assert G.magnetic[0, 0] == pytest.approx(1.26e3)
        assert G.dielectric[2, 2] == pytest.approx(12.6)
        assert np.all(G.piezomagnetic == 0.0)
        assert np.all(G.electromagnetic == 0.0)

    def test_cobalt_ferrite_values(self):
        G = mat.build_modulus(self.lib["CoFe2O4"])
        assert G.piezomagnetic[2, 2] == pytest.approx(-699.7)
        assert G.piezomagnetic[2, 0] == pytest.approx(580.3)
        assert np.all(G.piezoelectric == 0.0)
        assert np.all(G.electromagnetic == 0.0)
        assert G.dielectric[0, 0] == pytest.approx(8e-2)

    def test_axial_pattern_zero_structure(self):
        G = mat.build_modulus(self.lib["BaTiO3"])
        e = G.piezoelectric
        expected_nonzero = {(0, 4), (1, 3), (2, 0), (2, 1), (2, 2)}
        nz = {tuple(idx) for idx in np.argwhere(e != 0.0)}
        assert nz == expected_nonzero

    def test_bar6m2_pattern(self):
        rec = mat.MaterialRecord("t", "electroMech", "hexBar6m2", {
            "C11": 10, "C12": 4, "C13": 3, "C33": 9, "C44": 2,
            "e22": 1.5, "q22": 0.0, "eps11": 1, "eps33": 1,
            "mu11": 1, "mu33": 1, "alpha11": 0, "alpha33": 0})
        e = mat.build_modulus(rec).piezoelectric
        expected = np.zeros((3, 6))
        expected[0, 5] = -1.5
        expected[1, 0] = -1.5
        expected[1, 1] = 1.5
        assert np.array_equal(e, expected)

    def test_trigonal_pattern(self):
        rec = mat.MaterialRecord("t", "electroMech", "trigonal3m", {
            "C11": 10, "C12": 4, "C13": 3, "C33": 9, "C44": 2,
            "e31": 0.25, "e33": 0.5, "e15": 0.75, "e22": 1.0,
            "q31": 0, "q33": 0, "q15": 0, "q22": 0,
            "eps11": 1, "eps33": 1, "mu11": 1, "mu33": 1,
            "alpha11": 0, "alpha33": 0})
        e = mat.build_modulus(rec).piezoelectric
        expected = np.array([
            [0.0, 0.0, 0.0, 0.0, 0.75, -1.0],
            [-1.0, 1.0, 0.0, 0.75, 0.0, 0.0],
            [0.25, 0.25, 0.5, 0.0, 0.0, 0.0]])
        assert np.array_equal(e, expected)

    def test_orthorhombic_pattern(self):
        G = mat.build_modulus(self.lib["orth222_demo"])
        e = G.piezoelectric
        nz = {tuple(idx) for idx in np.argwhere(e != 0.0)}
        assert nz == {(0, 3), (1, 4), (2, 5)}
        C = G.stiffness
        assert C[1, 1] == pytest.approx(140.0)
        assert C[4, 4] == pytest.approx(35.0)
        np.linalg.cholesky(C)    # stays positive definite

    def test_isotropic_helper_from_lame(self):
        rec = mat.isotropic_record("iso", 60.0, 40.0)
        G = mat.build_modulus(rec)
        C = G.stiffness
        assert C[0, 0] == pytest.approx(140.0)
        assert C[0, 1] == pytest.approx(60.0)
        assert C[3, 3] == pytest.approx(40.0)
        assert C[5, 5] == pytest.approx(40.0)
        assert np.all(G.piezoelectric == 0.0)
        assert np.all(G.piezomagnetic == 0.0)
        assert np.all(G.electromagnetic == 0.0)

    def test_missing_parameter_raises(self):
        rec = mat.MaterialRecord("broken", "electroMech", "hex6mm",
                                 {"C11": 166.0})
        with pytest.raises(mat.MaterialError, match="missing parameter"):
            mat.build_modulus(rec)

    def test_unstable_stiffness_warns(self):
        rec = mat.isotropic_record("bad", -100.0, 1.0)
        with pytest.warns(mat.StabilityWarning):
            mat.build_modulus(rec)


# The parameters of each lattice class, in the order a record is checked
# for them (the first missing one is reported).
PINNED_PARAMETERS = {
    "hex6mm": ("C11", "C12", "C13", "C33", "C44", "e31", "e33", "e15",
               "q31", "q33", "q15", "eps11", "eps33", "mu11", "mu33",
               "alpha11", "alpha33"),
    "transIso": ("C11", "C12", "C13", "C33", "C44", "e31", "e33", "e15",
                 "q31", "q33", "q15", "eps11", "eps33", "mu11", "mu33",
                 "alpha11", "alpha33"),
    "hexBar6m2": ("C11", "C12", "C13", "C33", "C44", "e22", "q22",
                  "eps11", "eps33", "mu11", "mu33", "alpha11", "alpha33"),
    "trigonal3m": ("C11", "C12", "C13", "C33", "C44", "e31", "e33", "e15",
                   "e22", "q31", "q33", "q15", "q22", "eps11", "eps33",
                   "mu11", "mu33", "alpha11", "alpha33"),
    "orth222": ("C11", "C12", "C13", "C22", "C23", "C33", "C44", "C55",
                "C66", "e14", "e25", "e36", "q14", "q25", "q36", "eps11",
                "eps22", "eps33", "mu11", "mu22", "mu33", "alpha11",
                "alpha22", "alpha33"),
}

# sha256 of the bytes of the 12x12 modulus built from `pin_record`: every
# entry, its sign bit (the -0.0 of a negated zero block) included
PINNED_MODULI = {
    "hex6mm": "411da9f8f418fe481b77b5d6d32a75f5abddcbfac7f124ed3ec66793a2d2fcae",
    "hexBar6m2": "b7434b52d8d8721801f26b6084ff118a8ba81717ffb2cb403cd869b775153b68",
    "trigonal3m": "f312bc3b4e8b0e0a244136a47fca54e4248a1cca0ccce25f7c2899dfabf4f4d2",
    "orth222": "674648da02237ad8156875037cfca4fae5441b847281d24a0a4b18c926118dbf",
    "transIso": "411da9f8f418fe481b77b5d6d32a75f5abddcbfac7f124ed3ec66793a2d2fcae",
}


def pin_record(lattice):
    """A record of `lattice` whose k-th parameter is k/8: each value is
    distinct and exact, so a parameter in a wrong place moves the bytes."""
    return mat.MaterialRecord(lattice, "fullyCoupled", lattice, {
        key: (k + 1) / 8 for k, key in enumerate(PINNED_PARAMETERS[lattice])})


class TestLatticePins:
    def test_lattice_classes_and_parameters(self):
        assert mat.LATTICE_CLASSES == (
            "hex6mm", "hexBar6m2", "trigonal3m", "orth222", "transIso")
        assert mat.REQUIRED_PARAMETERS == PINNED_PARAMETERS

    @pytest.mark.parametrize("lattice", sorted(PINNED_MODULI))
    def test_every_entry_of_each_class(self, lattice):
        # C12 > C11 in these records, so the stiffness is not definite
        with pytest.warns(mat.StabilityWarning):
            G = mat.build_modulus(pin_record(lattice))
        digest = hashlib.sha256(G.matrix.tobytes()).hexdigest()
        assert digest == PINNED_MODULI[lattice]


class TestRotateModulus:
    def setup_method(self):
        self.lib = mat.builtin_library()
        self.G = mat.build_modulus(self.lib["BaTiO3"])

    def test_identity_angles(self):
        Gr = mat.rotate_modulus(self.G, (0, 0, 0))
        assert np.allclose(Gr.matrix, self.G.matrix, atol=1e-12)

    def test_round_trip_by_inverse_rotation(self):
        for _ in range(10):
            Q = random_rotation(RNG)
            m1 = mat.rotate_modulus_matrix(self.G, Q)
            m2 = mat.rotate_modulus_matrix(m1, Q.T)
            scale = np.abs(self.G.matrix).max()
            assert np.allclose(m2, self.G.matrix, atol=1e-11 * scale)

    def test_rotation_preserves_symmetry_and_elastic_definiteness(self):
        for _ in range(100):
            Gr = mat.rotate_modulus(self.G, RNG.uniform(0, 2 * np.pi, 3))
            assert np.allclose(Gr.matrix, Gr.matrix.T, atol=1e-11)
            np.linalg.cholesky(Gr.stiffness)

    def test_isotropic_uncoupled_invariant(self):
        G = mat.build_modulus(self.lib["isotropic_reference"])
        for _ in range(10):
            Gr = mat.rotate_modulus(G, RNG.uniform(0, 2 * np.pi, 3))
            assert np.allclose(Gr.matrix, G.matrix, atol=1e-11 * 140.0)

    def test_stiffness_block_matches_direct_tensor_rotation(self):
        # independent oracle: rotate the rank-4 tensor componentwise
        angles = RNG.uniform(0, 2 * np.pi, 3)
        Q = mat.rotation_Q(angles)
        C = self.G.stiffness
        C4 = np.zeros((3, 3, 3, 3))
        for I, (i, j) in enumerate(mat.VOIGT_PAIRS):
            for J, (k, l) in enumerate(mat.VOIGT_PAIRS):
                C4[i, j, k, l] = C4[j, i, k, l] = C4[i, j, l, k] = C4[j, i, l, k] = C[I, J]
        C4r = np.einsum("ia,jb,kc,ld,abcd->ijkl", Q, Q, Q, Q, C4)
        Cr = mat.rotate_modulus(self.G, angles).stiffness
        for I, (i, j) in enumerate(mat.VOIGT_PAIRS):
            for J, (k, l) in enumerate(mat.VOIGT_PAIRS):
                assert Cr[I, J] == pytest.approx(C4r[i, j, k, l], rel=1e-10, abs=1e-8)


class TestAnisotropyIndex:
    def test_isotropic_is_zero(self):
        C = mat.build_modulus(mat.isotropic_record("i", 60.0, 40.0)).stiffness
        assert mat.anisotropy_index(C) == pytest.approx(0.0, abs=1e-12)

    def test_cubic_frozen_oracle(self):
        C = cubic_stiffness(100.0, 60.0, 60.0)
        assert mat.anisotropy_index(C) == pytest.approx(CUBIC_ANISO_ORACLE, abs=1e-12)

    def test_nonnegative_on_random_spd(self):
        for _ in range(100):
            A = RNG.standard_normal((6, 6))
            C = A @ A.T + 6.0 * np.eye(6)
            assert mat.anisotropy_index(C) >= -1e-10

    def test_rotation_invariant(self):
        C = mat.build_modulus(mat.builtin_library()["hex_high_anisotropy"]).stiffness
        a0 = mat.anisotropy_index(C)
        assert a0 > 10.0
        G = mat.GeneralizedModulus.from_blocks(
            C, np.zeros((3, 6)), np.zeros((3, 6)), np.eye(3), np.zeros((3, 3)), np.eye(3))
        Cr = mat.rotate_modulus(G, RNG.uniform(0, 2 * np.pi, 3)).stiffness
        assert mat.anisotropy_index(Cr) == pytest.approx(a0, rel=1e-10)

    def test_singular_raises(self):
        with pytest.raises(mat.MaterialError):
            mat.anisotropy_index(np.zeros((6, 6)))


class TestEnergies:
    def setup_method(self):
        A = RNG.standard_normal((12, 12))
        self.G = mat.GeneralizedModulus((A + A.T) / 2.0)
        self.P = RNG.standard_normal(12)

    def test_zero_state(self):
        assert mat.energy_quadratic(self.G, np.zeros(12)) == 0.0
        assert np.all(mat.constitutive(self.G, np.zeros(12)) == 0.0)

    def test_identity_modulus_unit_state(self):
        G = mat.GeneralizedModulus(np.eye(12))
        m = np.zeros(12)
        m[4] = 1.0
        assert mat.energy_quadratic(G, m) == pytest.approx(0.5)
        assert np.allclose(mat.constitutive(G, m), m)

    def test_flux_is_energy_gradient(self):
        # central finite-difference oracle
        L = mat.constitutive(self.G, self.P)
        h = 1e-6
        for k in range(12):
            dp = np.zeros(12)
            dp[k] = h
            num = (mat.energy_quadratic(self.G, self.P + dp)
                   - mat.energy_quadratic(self.G, self.P - dp)) / (2 * h)
            assert num == pytest.approx(L[k], rel=1e-6, abs=1e-8)


class TestInvariantEnergy:
    """Central oracle: the invariant basis equals the quadratic form."""

    def setup_method(self):
        self.lib = mat.builtin_library()

    @pytest.mark.parametrize("name", ["BaTiO3", "CoFe2O4"])
    def test_axis_aligned_equals_quadratic_form(self, name):
        rec = self.lib[name]
        G = mat.build_modulus(rec)
        co = mat.coefficients(rec)
        for _ in range(20):
            eps = random_symmetric3(RNG, 1e-3)
            E = RNG.standard_normal(3)
            H = RNG.standard_normal(3)
            P = np.concatenate([mat.strain_to_voigt(eps), E, H])
            psi_q = mat.energy_quadratic(G, P)
            psi_i = mat.energy_invariant(co, np.array([0.0, 0.0, 1.0]), eps, E, H)
            assert psi_i == pytest.approx(psi_q, rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("name", ["BaTiO3", "CoFe2O4", "hex_high_anisotropy"])
    def test_rotated_axis_equals_rotated_quadratic_form(self, name):
        rec = self.lib[name]
        G = mat.build_modulus(rec)
        co = mat.coefficients(rec)
        for _ in range(10):
            angles = RNG.uniform(0, 2 * np.pi, 3)
            Q = mat.rotation_Q(angles)
            axis = Q @ np.array([0.0, 0.0, 1.0])
            Gr = mat.rotate_modulus(G, angles)
            eps = random_symmetric3(RNG, 1e-3)
            E = RNG.standard_normal(3)
            H = RNG.standard_normal(3)
            P = np.concatenate([mat.strain_to_voigt(eps), E, H])
            psi_q = mat.energy_quadratic(Gr, P)
            psi_i = mat.energy_invariant(co, axis, eps, E, H)
            assert psi_i == pytest.approx(psi_q, rel=1e-10, abs=1e-14)

    def test_frame_indifference(self):
        rec = self.lib["BaTiO3"]
        co = mat.coefficients(rec)
        angles = RNG.uniform(0, 2 * np.pi, 3)
        Q = mat.rotation_Q(angles)
        axis = Q @ np.array([0.0, 0.0, 1.0])
        eps = random_symmetric3(RNG, 1e-3)
        E = RNG.standard_normal(3)
        H = RNG.standard_normal(3)
        a = mat.energy_invariant(co, axis, eps, E, H)
        b = mat.energy_invariant(co, np.array([0.0, 0.0, 1.0]),
                                 Q.T @ eps @ Q, Q.T @ E, Q.T @ H)
        assert a == pytest.approx(b, rel=1e-10)

    def test_zero_fields_zero_energy(self):
        co = mat.coefficients(self.lib["BaTiO3"])
        z3 = np.zeros(3)
        assert mat.energy_invariant(co, np.array([0, 0, 1.0]), np.zeros((3, 3)), z3, z3) == 0.0

    def test_non_unit_axis_rejected(self):
        co = mat.coefficients(self.lib["BaTiO3"])
        with pytest.raises(mat.MaterialError, match="unit"):
            mat.energy_invariant(co, np.array([0, 0, 2.0]),
                                 np.zeros((3, 3)), np.zeros(3), np.zeros(3))

    def test_coefficient_map_values(self):
        co = mat.coefficients(self.lib["BaTiO3"])
        assert co.lam == pytest.approx(76.6)
        assert co.mu == pytest.approx((166.0 - 76.6) / 2)
        assert co.omega1 == pytest.approx(2 * 42.9 + 76.6 - 166.0)
        assert co.omega2 == pytest.approx((166.0 + 162.0) / 2 - 2 * 42.9 - 77.5)
        assert co.omega3 == pytest.approx(77.5 - 76.6)
        assert co.beta1 == pytest.approx(4.4)
        assert co.beta2 == pytest.approx(-4.4 - 18.6 + 2 * 11.6)
        assert co.beta3 == pytest.approx(-2 * 11.6)
        # storage entries enter in assembled units: 1e3 x data-sheet value
        assert co.gamma1 == pytest.approx(-11.2 / 2)
        assert co.gamma2 == pytest.approx((11.2 - 12.6) / 2)
        assert co.xi1 == pytest.approx(-1260.0 / 2)
        assert co.xi2 == pytest.approx(0.0)

    def test_non_transverse_record_rejected(self):
        with pytest.raises(mat.MaterialError):
            mat.coefficients(self.lib["orth222_demo"])


class TestLibrary:
    def test_builtin_has_reference_materials(self):
        lib = mat.builtin_library()
        assert {"BaTiO3", "CoFe2O4", "hex_high_anisotropy",
                "trigonal_demo", "orth222_demo", "isotropic_reference"} <= set(lib)
        for rec in lib.values():
            mat.build_modulus(rec)     # complete and buildable

    def test_roundtrip_through_text(self):
        lib = mat.builtin_library()
        again = mat.parse_library(mat.format_library(lib))
        assert set(again) == set(lib)
        for name in lib:
            assert again[name].mode == lib[name].mode
            assert again[name].lattice == lib[name].lattice
            assert dict(again[name].parameters) == dict(lib[name].parameters)

    def test_missing_header_rejected(self):
        with pytest.raises(mat.MaterialError, match="library"):
            mat.parse_library("[BaTiO3]\nmode = fullyCoupled\n")

    def test_wrong_version_rejected(self):
        text = "[library]\nformat = polyvem-materials\nversion = 99\n"
        with pytest.raises(mat.MaterialError, match="version"):
            mat.parse_library(text)

    def test_bad_number_rejected(self):
        text = ("[library]\nformat = polyvem-materials\nversion = 1\n"
                "[x]\nmode = fullyCoupled\nlattice = hex6mm\nC11 = abc\n")
        with pytest.raises(mat.MaterialError, match="not a number"):
            mat.parse_library(text)

    def test_unknown_mode_rejected(self):
        text = ("[library]\nformat = polyvem-materials\nversion = 1\n"
                "[x]\nmode = nope\nlattice = hex6mm\n")
        with pytest.raises(mat.MaterialError, match="mode"):
            mat.parse_library(text)

    @pytest.mark.parametrize("edit,message", [
        (lambda params: {**params, "C99": 1.0}, "'C99' is not one of"),
        (lambda params: {k: v for k, v in params.items() if k != "C44"},
         "missing parameter 'C44'"),
        (lambda params: {**params, "C11": float("nan")}, "'C11' is not finite"),
        (lambda params: {**params, "e33": float("inf")}, "'e33' is not finite"),
    ])
    def test_parameter_set_and_values_checked(self, edit, message):
        rec = mat.builtin_library()["BaTiO3"]
        bad = mat.MaterialRecord("x", rec.mode, rec.lattice,
                                 edit(dict(rec.parameters)))
        with pytest.raises(mat.MaterialError, match=r"material 'x'.*" + message):
            mat.parse_library(mat.format_library({"x": bad}))

    @pytest.mark.parametrize("edit,key,message", [
        (lambda k, v: None if k == "mode" else v, None, "missing 'mode'"),
        (lambda k, v: None if k == "lattice" else v, None,
         "missing 'lattice'"),
        (lambda k, v: "abc" if k == "C11" else v, "C11", "not a number"),
        (lambda k, v: "nope" if k == "mode" else v, "mode", "unknown mode"),
        (lambda k, v: "cubic" if k == "lattice" else v, "lattice",
         "unknown lattice"),
        (lambda k, v: None if k == "C44" else v, None,
         "missing parameter 'C44'"),
        (lambda k, v: "nan" if k == "C11" else v, "C11", "'C11' is not finite"),
        (lambda k, v: "-inf" if k == "e33" else v, "e33",
         "'e33' is not finite"),
    ])
    def test_errors_name_their_line(self, tmp_path, capsys, edit, key,
                                    message):
        # a comment and a second material move [x] off the text's start
        lib = mat.builtin_library()
        text = "# test library\n" + mat.format_library(
            {"ok": lib["CoFe2O4"], "x": lib["BaTiO3"]})
        lines, section = [], None
        for line in text.splitlines():
            if line.startswith("["):
                section = line
            elif section == "[x]" and " = " in line:
                k, v = line.split(" = ")
                v = edit(k, v)
                if v is None:
                    continue
                line = f"{k} = {v}"
            lines.append(line)
        expected = 1 + next(i for i, line in enumerate(lines) if (
            line == "[x]" if key is None else line.startswith(f"{key} =")
            and i > lines.index("[x]")))
        text = "\n".join(lines) + "\n"
        with pytest.raises(mat.MaterialError,
                           match=rf"^line {expected}: material 'x'.*{message}"):
            mat.parse_library(text)
        # the CLI reports it as malformed input (exit code 4)
        path = tmp_path / "bad.lib"
        path.write_text(text, encoding="utf-8")
        config = tmp_path / "c.ini"
        config.write_text(f"[materials]\nlibrary = {path}\n", encoding="utf-8")
        assert cli.main(["materials", "--config", str(config)]) == 4
        assert f"line {expected}: " in capsys.readouterr().err

    def test_mode_index_subsets(self):
        assert mat.MODE_PINDEX["fullyCoupled"] == tuple(range(12))
        assert mat.MODE_PINDEX["electroMech"] == tuple(range(9))
        assert mat.MODE_PINDEX["magnetoMech"] == tuple(range(6)) + (9, 10, 11)


# the built-in library text, line by line, for the mutation test below
BUILTIN_LINES = (importlib.resources.files("polyvem") / "data"
                 / "materials.lib").read_text().splitlines()
GARBLE = st.lists(st.sampled_from(list("[]=:;#% \t\n\x00é∞-+.eE0179xX")
                                  + ["inf", "nan", "1e999", "DEFAULT"]),
                  max_size=6).map("".join)
LINE_EDIT = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, len(BUILTIN_LINES) - 1)),
    st.tuples(st.just("duplicate"), st.integers(0, len(BUILTIN_LINES) - 1)),
    st.tuples(st.just("garble"), st.integers(0, len(BUILTIN_LINES) - 1),
              st.integers(0, 40), GARBLE),
    st.tuples(st.just("value"), st.integers(0, len(BUILTIN_LINES) - 1),
              st.one_of(GARBLE, st.sampled_from(
                  ["", "-0.0", "1_0", "0x10", "1e-400", "1e308", "True",
                   "fullyCoupled", "hex6mm", "cubic", "polyvem-materials"]))),
)


def mutate_lines(lines, edits):
    """The lines with each edit applied in turn; indices wrap around."""
    lines = list(lines)
    for kind, at, *rest in edits:
        if not lines:
            break
        at %= len(lines)
        if kind == "drop":
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, lines[at])
        elif kind == "garble":
            cut, text = rest
            lines[at] = lines[at][:cut] + text + lines[at][cut + len(text):]
        elif "=" in lines[at]:                  # replace the value
            lines[at] = lines[at].split("=", 1)[0] + "= " + rest[0]
    return lines


class TestLibraryMutations:
    @given(st.lists(LINE_EDIT, min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_mutated_builtin_text_parses_or_raises_material_error(self, edits):
        # a damaged library text yields complete records or MaterialError
        # (exit code 4 at the CLI), never another exception
        text = "\n".join(mutate_lines(BUILTIN_LINES, edits)) + "\n"
        try:
            records = mat.parse_library(text)
        except mat.MaterialError:
            return
        for name, rec in records.items():
            assert isinstance(rec, mat.MaterialRecord) and rec.name == name
            for key in mat.REQUIRED_PARAMETERS[rec.lattice]:
                assert np.isfinite(rec.require(key))
