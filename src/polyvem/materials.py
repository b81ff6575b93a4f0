"""Coupled material moduli: block matrices, lattice templates, rotations.

The constitutive state is a 12-vector P = [strain(6, engineering shear),
electric field(3), magnetic field(3)] in Voigt order (11,22,33,23,13,12).
Its work conjugate is L = [stress(6), -electric displacement(3),
-magnetic induction(3)], related by L = G.P through a symmetric 12x12
generalized modulus G assembled from six physical blocks.
"""

from __future__ import annotations

import configparser
import importlib.resources
import io
import warnings
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "VOIGT_PAIRS", "LATTICE_CLASSES", "MODES", "MODE_PINDEX",
    "PERMITTIVITY_SCALE", "PERMEABILITY_SCALE", "MAGNETOELECTRIC_SCALE",
    "MaterialError", "StabilityWarning",
    "GeneralizedModulus", "MaterialRecord", "TransverseIsoCoefficients",
    "strain_to_voigt", "voigt_to_strain", "stress_to_voigt", "voigt_to_stress",
    "bond_stress", "bond_strain",
    "build_modulus", "datasheet_matrix", "rotation_Q", "voigt_transforms",
    "rotate_modulus", "rotate_modulus_matrix", "anisotropy_index",
    "energy_quadratic", "constitutive",
    "coefficients", "energy_invariant",
    "isotropic_record", "parse_library", "format_library", "builtin_library",
]

# Voigt index pairs in the order (11, 22, 33, 23, 13, 12)
VOIGT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))

LATTICE_CLASSES = ("hex6mm", "hexBar6m2", "trigonal3m", "orth222", "transIso")
MODES = ("electroMech", "magnetoMech", "fullyCoupled")

# active rows/columns of the 12-vector P for each coupling mode
MODE_PINDEX = {
    "fullyCoupled": tuple(range(12)),
    "electroMech": tuple(range(9)),
    "magnetoMech": tuple(range(6)) + (9, 10, 11),
}

# Library files carry permittivity, permeability, and magneto-electric
# entries in data-sheet units (mC/kVm, N/kA^2, s/m). The assembled
# quadratic form keeps stiffness in GPa and the stress couplings in
# C/m^2 and N/Am; for all six blocks to share one energy unit the
# electric field must then carry GV/m and the magnetic field GA/m, which
# converts the three data-sheet blocks by the fixed factors below
# (nF/m, nN/A^2, ns/m). Fluxes stay plain: GPa, C/m^2, tesla. Mixing
# the raw data-sheet numbers in one matrix instead would overstate the
# coupling-to-storage ratios e^2/(C.eps) and q^2/(C.mu) by 1e3.
PERMITTIVITY_SCALE = 1.0e3
PERMEABILITY_SCALE = 1.0e3
MAGNETOELECTRIC_SCALE = 1.0e9


class MaterialError(ValueError):
    """Invalid material definition or library content."""


class StabilityWarning(UserWarning):
    """Emitted when a stiffness block is not positive definite."""


# ---------------------------------------------------------------------------
# Voigt conversions
# ---------------------------------------------------------------------------

def strain_to_voigt(eps: np.ndarray) -> np.ndarray:
    """3x3 symmetric strain tensor -> 6-vector with engineering shears."""
    e = np.asarray(eps, dtype=float)
    return np.array([e[0, 0], e[1, 1], e[2, 2],
                     e[1, 2] + e[2, 1], e[0, 2] + e[2, 0], e[0, 1] + e[1, 0]])


def voigt_to_strain(v: np.ndarray) -> np.ndarray:
    """6-vector with engineering shears -> 3x3 symmetric strain tensor."""
    v = np.asarray(v, dtype=float)
    return np.array([[v[0], v[5] / 2, v[4] / 2],
                     [v[5] / 2, v[1], v[3] / 2],
                     [v[4] / 2, v[3] / 2, v[2]]])


def stress_to_voigt(sig: np.ndarray) -> np.ndarray:
    """3x3 symmetric stress tensor -> plain 6-vector."""
    s = np.asarray(sig, dtype=float)
    return np.array([s[0, 0], s[1, 1], s[2, 2], s[1, 2], s[0, 2], s[0, 1]])


def voigt_to_stress(v: np.ndarray) -> np.ndarray:
    """Plain 6-vector -> 3x3 symmetric stress tensor."""
    v = np.asarray(v, dtype=float)
    return np.array([[v[0], v[5], v[4]],
                     [v[5], v[1], v[3]],
                     [v[4], v[3], v[2]]])


# ---------------------------------------------------------------------------
# Generalized modulus
# ---------------------------------------------------------------------------

class GeneralizedModulus:
    """Symmetric 12x12 coupled modulus with signed physical blocks.

    Layout (Voigt blocks)::

        [  C    -e^T  -q^T ]
        [ -e    -eps  -alf ]
        [ -q    -alf^T -mu ]

    so that L = G.P returns [stress, -D, -B] for P = [strain, E, H].
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        m = np.array(matrix, dtype=float)
        if m.shape != (12, 12):
            raise MaterialError(f"modulus must be 12x12, got {m.shape}")
        scale = max(np.abs(m).max(), 1.0)
        if np.abs(m - m.T).max() > 1e-12 * scale:
            raise MaterialError("modulus matrix is not symmetric")
        m = (m + m.T) / 2.0
        m.flags.writeable = False
        self.matrix = m

    @classmethod
    def from_blocks(cls, C, e, q, eps, alpha, mu) -> "GeneralizedModulus":
        """Assemble from the six physical blocks (unsigned conventions)."""
        C = np.asarray(C, float)
        e = np.asarray(e, float)
        q = np.asarray(q, float)
        eps = np.asarray(eps, float)
        alpha = np.asarray(alpha, float)
        mu = np.asarray(mu, float)
        m = np.zeros((12, 12))
        m[0:6, 0:6] = C
        m[6:9, 0:6] = -e
        m[0:6, 6:9] = -e.T
        m[9:12, 0:6] = -q
        m[0:6, 9:12] = -q.T
        m[6:9, 6:9] = -eps
        m[9:12, 9:12] = -mu
        m[6:9, 9:12] = -alpha
        m[9:12, 6:9] = -alpha.T
        return cls(m)

    # --- block accessors (undo the storage signs) ---
    @property
    def stiffness(self) -> np.ndarray:
        return self.matrix[0:6, 0:6]

    @property
    def piezoelectric(self) -> np.ndarray:
        return -self.matrix[6:9, 0:6]

    @property
    def piezomagnetic(self) -> np.ndarray:
        return -self.matrix[9:12, 0:6]

    @property
    def dielectric(self) -> np.ndarray:
        return -self.matrix[6:9, 6:9]

    @property
    def electromagnetic(self) -> np.ndarray:
        return -self.matrix[6:9, 9:12]

    @property
    def magnetic(self) -> np.ndarray:
        return -self.matrix[9:12, 9:12]

    def __repr__(self):
        return f"GeneralizedModulus(|G|_max={np.abs(self.matrix).max():g})"


def _as_matrix(G) -> np.ndarray:
    return G.matrix if isinstance(G, GeneralizedModulus) else np.asarray(G, float)


def datasheet_matrix(M, mode: str = "fullyCoupled") -> np.ndarray:
    """Convert an assembled-unit modulus matrix to data-sheet block units.

    Reported tables keep the material-library conventions (GPa, C/m^2,
    N/Am, mC/kVm, N/kA^2, s/m), so the permittivity, permeability, and
    electric-magnetic blocks divide by their assembly conversion
    factors. Accepts the reduced matrix of any coupling mode.
    """
    if mode not in MODES:
        raise MaterialError(f"unknown mode {mode!r}; expected one of {MODES}")
    idx = MODE_PINDEX[mode]
    M = np.array(_as_matrix(M), dtype=float)
    n = len(idx)
    if M.shape != (n, n):
        raise MaterialError(f"mode {mode!r} expects a {n}x{n} matrix, got {M.shape}")
    kinds = np.array([0 if i < 6 else (1 if i < 9 else 2) for i in idx])
    div = np.ones((n, n))
    div[np.ix_(kinds == 1, kinds == 1)] = PERMITTIVITY_SCALE
    div[np.ix_(kinds == 2, kinds == 2)] = PERMEABILITY_SCALE
    div[np.ix_(kinds == 1, kinds == 2)] = MAGNETOELECTRIC_SCALE
    div[np.ix_(kinds == 2, kinds == 1)] = MAGNETOELECTRIC_SCALE
    return M / div


# ---------------------------------------------------------------------------
# Material records and lattice templates
# ---------------------------------------------------------------------------

_HEX_C = ("C11", "C12", "C13", "C33", "C44")
_ORTH_C = ("C11", "C12", "C13", "C22", "C23", "C33", "C44", "C55", "C66")

REQUIRED_PARAMETERS = {
    "hex6mm": _HEX_C + ("e31", "e33", "e15", "q31", "q33", "q15",
                        "eps11", "eps33", "mu11", "mu33", "alpha11", "alpha33"),
    "transIso": _HEX_C + ("e31", "e33", "e15", "q31", "q33", "q15",
                          "eps11", "eps33", "mu11", "mu33", "alpha11", "alpha33"),
    "hexBar6m2": _HEX_C + ("e22", "q22",
                           "eps11", "eps33", "mu11", "mu33", "alpha11", "alpha33"),
    "trigonal3m": _HEX_C + ("e31", "e33", "e15", "e22", "q31", "q33", "q15", "q22",
                            "eps11", "eps33", "mu11", "mu33", "alpha11", "alpha33"),
    "orth222": _ORTH_C + ("e14", "e25", "e36", "q14", "q25", "q36",
                          "eps11", "eps22", "eps33", "mu11", "mu22", "mu33",
                          "alpha11", "alpha22", "alpha33"),
}


@dataclass(frozen=True)
class MaterialRecord:
    """Named single-crystal material: coupling mode, lattice class, parameters."""
    name: str
    mode: str
    lattice: str
    parameters: Mapping[str, float]

    def __post_init__(self):
        if self.mode not in MODES:
            raise MaterialError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.lattice not in LATTICE_CLASSES:
            raise MaterialError(
                f"unknown lattice class {self.lattice!r}; expected one of {LATTICE_CLASSES}")
        object.__setattr__(self, "parameters",
                           MappingProxyType(dict(self.parameters)))

    def __reduce__(self):
        # the read-only parameter view does not pickle; rebuild from a dict
        return (type(self), (self.name, self.mode, self.lattice,
                             dict(self.parameters)))

    def require(self, key: str) -> float:
        try:
            return float(self.parameters[key])
        except KeyError:
            raise MaterialError(
                f"material {self.name!r} ({self.lattice}) is missing parameter {key!r}"
            ) from None


def _hex_stiffness(p) -> np.ndarray:
    c11, c12, c13, c33, c44 = (p("C11"), p("C12"), p("C13"), p("C33"), p("C44"))
    c66 = (c11 - c12) / 2.0
    return np.array([
        [c11, c12, c13, 0.0, 0.0, 0.0],
        [c12, c11, c13, 0.0, 0.0, 0.0],
        [c13, c13, c33, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, c44, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, c44, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, c66],
    ])


def _orth_stiffness(p) -> np.ndarray:
    return np.array([
        [p("C11"), p("C12"), p("C13"), 0.0, 0.0, 0.0],
        [p("C12"), p("C22"), p("C23"), 0.0, 0.0, 0.0],
        [p("C13"), p("C23"), p("C33"), 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, p("C44"), 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, p("C55"), 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, p("C66")],
    ])


def _coupling_axial(a31, a33, a15) -> np.ndarray:
    """Axis-3 transversely isotropic 3x6 coupling pattern."""
    return np.array([
        [0.0, 0.0, 0.0, 0.0, a15, 0.0],
        [0.0, 0.0, 0.0, a15, 0.0, 0.0],
        [a31, a31, a33, 0.0, 0.0, 0.0],
    ])


def _coupling_bar6m2(a22) -> np.ndarray:
    return np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, -a22],
        [-a22, a22, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ])


def _coupling_trigonal(a31, a33, a15, a22) -> np.ndarray:
    return np.array([
        [0.0, 0.0, 0.0, 0.0, a15, -a22],
        [-a22, a22, 0.0, a15, 0.0, 0.0],
        [a31, a31, a33, 0.0, 0.0, 0.0],
    ])


def _coupling_shear(a14, a25, a36) -> np.ndarray:
    return np.array([
        [0.0, 0.0, 0.0, a14, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, a25, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, a36],
    ])


def build_modulus(record: MaterialRecord) -> GeneralizedModulus:
    """Construct the grain-local 12x12 modulus from a material record.

    The zero/nonzero pattern follows the declared lattice class exactly;
    a non positive definite stiffness block triggers a StabilityWarning.
    """
    for key in REQUIRED_PARAMETERS[record.lattice]:
        record.require(key)
    p = record.require
    lat = record.lattice
    if lat in ("hex6mm", "transIso"):
        C = _hex_stiffness(p)
        e = _coupling_axial(p("e31"), p("e33"), p("e15"))
        q = _coupling_axial(p("q31"), p("q33"), p("q15"))
        eps = np.diag([p("eps11"), p("eps11"), p("eps33")])
        mu = np.diag([p("mu11"), p("mu11"), p("mu33")])
        alpha = np.diag([p("alpha11"), p("alpha11"), p("alpha33")])
    elif lat == "hexBar6m2":
        C = _hex_stiffness(p)
        e = _coupling_bar6m2(p("e22"))
        q = _coupling_bar6m2(p("q22"))
        eps = np.diag([p("eps11"), p("eps11"), p("eps33")])
        mu = np.diag([p("mu11"), p("mu11"), p("mu33")])
        alpha = np.diag([p("alpha11"), p("alpha11"), p("alpha33")])
    elif lat == "trigonal3m":
        C = _hex_stiffness(p)
        e = _coupling_trigonal(p("e31"), p("e33"), p("e15"), p("e22"))
        q = _coupling_trigonal(p("q31"), p("q33"), p("q15"), p("q22"))
        eps = np.diag([p("eps11"), p("eps11"), p("eps33")])
        mu = np.diag([p("mu11"), p("mu11"), p("mu33")])
        alpha = np.diag([p("alpha11"), p("alpha11"), p("alpha33")])
    else:  # orth222
        C = _orth_stiffness(p)
        e = _coupling_shear(p("e14"), p("e25"), p("e36"))
        q = _coupling_shear(p("q14"), p("q25"), p("q36"))
        eps = np.diag([p("eps11"), p("eps22"), p("eps33")])
        mu = np.diag([p("mu11"), p("mu22"), p("mu33")])
        alpha = np.diag([p("alpha11"), p("alpha22"), p("alpha33")])
    eps = PERMITTIVITY_SCALE * eps
    mu = PERMEABILITY_SCALE * mu
    alpha = MAGNETOELECTRIC_SCALE * alpha
    try:
        np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        warnings.warn(
            f"material {record.name!r}: stiffness block is not positive definite",
            StabilityWarning, stacklevel=2)
    return GeneralizedModulus.from_blocks(C, e, q, eps, alpha, mu)


def isotropic_record(name: str, lam: float, shear: float, *,
                     eps: float = 1.0, mu: float = 1.0,
                     mode: str = "fullyCoupled") -> MaterialRecord:
    """Uncoupled isotropic material from Lame constants (testing helper).

    `eps` and `mu` are the assembled storage entries; the record stores
    their data-sheet equivalents so building the modulus returns them
    verbatim on the diagonal.
    """
    return MaterialRecord(name, mode, "transIso", {
        "C11": lam + 2 * shear, "C12": lam, "C13": lam,
        "C33": lam + 2 * shear, "C44": shear,
        "e31": 0.0, "e33": 0.0, "e15": 0.0,
        "q31": 0.0, "q33": 0.0, "q15": 0.0,
        "eps11": eps / PERMITTIVITY_SCALE, "eps33": eps / PERMITTIVITY_SCALE,
        "mu11": mu / PERMEABILITY_SCALE, "mu33": mu / PERMEABILITY_SCALE,
        "alpha11": 0.0, "alpha33": 0.0,
    })


# ---------------------------------------------------------------------------
# Rotations
# ---------------------------------------------------------------------------

def rotation_Q(angles: Sequence[float]) -> np.ndarray:
    """Proper rotation composed about the fixed x, then y, then z axis.

    Returns Q1(t1).Q2(t2).Q3(t3); columns are the rotated crystal axes
    expressed in the global frame.
    """
    t1, t2, t3 = (float(a) for a in angles)
    c1, s1 = np.cos(t1), np.sin(t1)
    c2, s2 = np.cos(t2), np.sin(t2)
    c3, s3 = np.cos(t3), np.sin(t3)
    q1 = np.array([[1.0, 0.0, 0.0], [0.0, c1, -s1], [0.0, s1, c1]])
    q2 = np.array([[c2, 0.0, s2], [0.0, 1.0, 0.0], [-s2, 0.0, c2]])
    q3 = np.array([[c3, -s3, 0.0], [s3, c3, 0.0], [0.0, 0.0, 1.0]])
    return q1 @ q2 @ q3


def _bond(R: np.ndarray, row_fac: float, col_div: float) -> np.ndarray:
    T = np.empty((6, 6))
    for I, (i, j) in enumerate(VOIGT_PAIRS):
        for J, (a, b) in enumerate(VOIGT_PAIRS):
            if a == b:
                base = R[i, a] * R[j, a]
            else:
                base = R[i, a] * R[j, b] + R[i, b] * R[j, a]
            if i != j:
                base *= row_fac
            if a != b:
                base /= col_div
            T[I, J] = base
    return T


def bond_stress(R: np.ndarray) -> np.ndarray:
    """6x6 Voigt map of s -> R.s.R^T for plain stress vectors."""
    return _bond(np.asarray(R, float), 1.0, 1.0)


def bond_strain(R: np.ndarray) -> np.ndarray:
    """6x6 Voigt map of e -> R.e.R^T for engineering-shear strain vectors."""
    return _bond(np.asarray(R, float), 2.0, 2.0)


def voigt_transforms(angles: Sequence[float]):
    """Voigt-space pair (T_sigma, T_eps) rotating global fields into the
    grain frame; satisfies T_sigma^T . T_eps = I (work duality)."""
    Qt = rotation_Q(angles).T
    return bond_stress(Qt), bond_strain(Qt)


def rotate_modulus_matrix(G, Q: np.ndarray) -> np.ndarray:
    """Push a grain-local 12x12 modulus to the global frame by rotation Q.

    Energy invariance gives G_global = B^T . G_local . B where B stacks
    the strain bond map and two vector rotations pulling global fields
    back to the grain frame; the congruence keeps symmetry exactly.
    """
    Gm = _as_matrix(G)
    Qt = np.asarray(Q, float).T
    Te = bond_strain(Qt)
    B = np.zeros((12, 12))
    B[0:6, 0:6] = Te
    B[6:9, 6:9] = Qt
    B[9:12, 9:12] = Qt
    return B.T @ Gm @ B


def rotate_modulus(G_l: GeneralizedModulus, angles: Sequence[float]) -> GeneralizedModulus:
    """Rotate a grain-local modulus into the global frame by Euler angles."""
    return GeneralizedModulus(rotate_modulus_matrix(G_l, rotation_Q(angles)))


# ---------------------------------------------------------------------------
# Anisotropy index
# ---------------------------------------------------------------------------

def anisotropy_index(C: np.ndarray) -> float:
    """Universal elastic anisotropy index 5 Gv/Gr + Kv/Kr - 6 (>= 0).

    Voigt bounds come from the stiffness, Reuss bounds from its inverse;
    zero exactly for isotropic stiffness.
    """
    C = np.asarray(C, dtype=float)
    if C.shape != (6, 6):
        raise MaterialError("stiffness must be 6x6")
    try:
        S = np.linalg.inv(C)
    except np.linalg.LinAlgError:
        raise MaterialError("stiffness is singular") from None
    ca = C[0, 0] + C[1, 1] + C[2, 2]
    cb = C[0, 1] + C[0, 2] + C[1, 2]
    cc = C[3, 3] + C[4, 4] + C[5, 5]
    sa = S[0, 0] + S[1, 1] + S[2, 2]
    sb = S[0, 1] + S[0, 2] + S[1, 2]
    sc = S[3, 3] + S[4, 4] + S[5, 5]
    k_voigt = (ca + 2.0 * cb) / 9.0
    g_voigt = (ca - cb + 3.0 * cc) / 15.0
    k_reuss = 1.0 / (sa + 2.0 * sb)
    g_reuss = 15.0 / (4.0 * sa - 4.0 * sb + 3.0 * sc)
    return 5.0 * g_voigt / g_reuss + k_voigt / k_reuss - 6.0


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------

def energy_quadratic(G, P: np.ndarray) -> float:
    """Energy density 0.5 P.G.P of a coupled state vector."""
    P = np.asarray(P, dtype=float)
    return 0.5 * float(P @ _as_matrix(G) @ P)


def constitutive(G, P: np.ndarray) -> np.ndarray:
    """Flux vector L = G.P = [stress, -D, -B]."""
    return _as_matrix(G) @ np.asarray(P, dtype=float)


@dataclass(frozen=True)
class TransverseIsoCoefficients:
    """Invariant-basis coefficients of a transversely isotropic grain."""
    lam: float
    mu: float
    omega1: float
    omega2: float
    omega3: float
    beta1: float
    beta2: float
    beta3: float
    kappa1: float
    kappa2: float
    kappa3: float
    gamma1: float
    gamma2: float
    xi1: float
    xi2: float


def coefficients(record: MaterialRecord) -> TransverseIsoCoefficients:
    """Map transversely isotropic parameters to invariant-basis coefficients."""
    if record.lattice not in ("hex6mm", "transIso"):
        raise MaterialError(
            f"invariant coefficients require a transversely isotropic record, "
            f"got lattice {record.lattice!r}")
    if record.parameters.get("alpha11", 0.0) or record.parameters.get("alpha33", 0.0):
        raise MaterialError(
            "invariant coefficients cover grains without direct "
            "electric-magnetic coupling; alpha must vanish")
    p = record.require
    c11, c12, c13, c33, c44 = (p("C11"), p("C12"), p("C13"), p("C33"), p("C44"))
    e31, e33, e15 = p("e31"), p("e33"), p("e15")
    q31, q33, q15 = p("q31"), p("q33"), p("q15")
    eps11 = PERMITTIVITY_SCALE * p("eps11")
    eps33 = PERMITTIVITY_SCALE * p("eps33")
    mu11 = PERMEABILITY_SCALE * p("mu11")
    mu33 = PERMEABILITY_SCALE * p("mu33")
    return TransverseIsoCoefficients(
        lam=c12,
        mu=(c11 - c12) / 2.0,
        omega1=2.0 * c44 + c12 - c11,
        omega2=(c11 + c33) / 2.0 - 2.0 * c44 - c13,
        omega3=c13 - c12,
        beta1=-e31,
        beta2=e31 - e33 + 2.0 * e15,
        beta3=-2.0 * e15,
        kappa1=-q31,
        kappa2=q31 - q33 + 2.0 * q15,
        kappa3=-2.0 * q15,
        gamma1=-eps11 / 2.0,
        gamma2=(eps11 - eps33) / 2.0,
        xi1=-mu11 / 2.0,
        xi2=(mu11 - mu33) / 2.0,
    )


def energy_invariant(coeffs: TransverseIsoCoefficients, axis: np.ndarray,
                     strain: np.ndarray, E: np.ndarray, H: np.ndarray) -> float:
    """Energy density from the invariant basis with grain axis `axis`.

    Splits into elastic, electro-mechanical, magneto-mechanical,
    dielectric, and magnetic parts; equals the quadratic form of the
    rotated modulus for the same fields (frame-indifferent by design).
    """
    a = np.asarray(axis, dtype=float)
    if abs(np.linalg.norm(a) - 1.0) > 1e-8:
        raise MaterialError("grain axis must be a unit vector")
    eps = np.asarray(strain, dtype=float)
    E = np.asarray(E, dtype=float)
    H = np.asarray(H, dtype=float)

    i1 = np.trace(eps)
    eps2 = eps @ eps
    i2 = np.trace(eps2)
    i4 = a @ eps @ a
    i5 = a @ eps2 @ a
    j1e = E @ E
    j2e = E @ a
    j1m = H @ H
    j2m = H @ a
    k1e = a @ eps @ E
    k1m = a @ eps @ H

    c = coeffs
    psi_el = c.lam / 2.0 * i1 ** 2 + c.mu * i2 + c.omega1 * i5 \
        + c.omega2 * i4 ** 2 + c.omega3 * i1 * i4
    psi_em = c.beta1 * i1 * j2e + c.beta2 * i4 * j2e + c.beta3 * k1e
    psi_mm = c.kappa1 * i1 * j2m + c.kappa2 * i4 * j2m + c.kappa3 * k1m
    psi_diel = c.gamma1 * j1e + c.gamma2 * j2e ** 2
    psi_mag = c.xi1 * j1m + c.xi2 * j2m ** 2
    return float(psi_el + psi_em + psi_mm + psi_diel + psi_mag)


# ---------------------------------------------------------------------------
# Material library (versioned key-value text)
# ---------------------------------------------------------------------------

_LIB_FORMAT = "polyvem-materials"
_LIB_VERSION = 1
_RESERVED_KEYS = ("mode", "lattice", "units")


def _line_numbers(text: str) -> dict:
    """1-based line of each section header, under (section, None), and of
    each option, under (section, key), numbered as configparser reads
    them; an indented line continues a value and is skipped."""
    where, section = {}, None
    for number, line in enumerate(io.StringIO(text), start=1):
        value = line.strip()
        if not value or value[0] in "#;" or line[0].isspace():
            continue
        header = configparser.ConfigParser.SECTCRE.match(value)
        if header:
            section = header.group("header")
            where.setdefault((section, None), number)
        else:
            option = configparser.ConfigParser.OPTCRE.match(value)
            if option and section is not None:
                where.setdefault((section, option.group("option").rstrip()),
                                 number)
    return where


def parse_library(text: str) -> dict:
    """Parse a material library; returns name -> MaterialRecord. Errors
    in a material name the line of its section or of the offending key."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise MaterialError(f"malformed material library: {exc}") from None
    if "library" not in cp:
        raise MaterialError("material library is missing its [library] header")
    head = cp["library"]
    if head.get("format") != _LIB_FORMAT:
        raise MaterialError(f"not a material library (format={head.get('format')!r})")
    version = head.get("version", "")
    if version != str(_LIB_VERSION):
        raise MaterialError(f"unsupported material library version {version!r}")
    lines = _line_numbers(text)

    def at(name, key=None):
        # a key may come from the DEFAULT section, which every section reads
        number = lines.get((name, key)) or lines.get((cp.default_section, key))
        return f"line {number}: " if number else ""

    records = {}
    for name in cp.sections():
        if name == "library":
            continue
        sec = cp[name]
        for field in ("mode", "lattice"):
            if field not in sec:
                raise MaterialError(
                    f"{at(name)}material {name!r} is missing {field!r}")
        params = {}
        for key, value in sec.items():
            if key in _RESERVED_KEYS:
                continue
            try:
                params[key] = float(value)
            except ValueError:
                raise MaterialError(
                    f"{at(name, key)}material {name!r}: parameter {key!r} is "
                    f"not a number ({value!r})") from None
        try:
            record = MaterialRecord(name, sec["mode"], sec["lattice"], params)
        except MaterialError as exc:
            key = "mode" if sec["mode"] not in MODES else "lattice"
            raise MaterialError(
                f"{at(name, key)}material {name!r}: {exc}") from None
        required = REQUIRED_PARAMETERS[record.lattice]
        for key in params:
            if key not in required:
                raise MaterialError(
                    f"{at(name, key)}material {name!r}: parameter {key!r} is "
                    f"not one of the {record.lattice} parameters")
        for key in required:
            try:
                record.require(key)
            except MaterialError as exc:
                raise MaterialError(f"{at(name)}{exc}") from None
        for key, value in params.items():
            if not np.isfinite(value):
                raise MaterialError(
                    f"{at(name, key)}material {name!r}: parameter {key!r} is "
                    f"not finite ({value!r})")
        records[name] = record
    return records


def format_library(records) -> str:
    """Serialize records to the versioned key-value library text."""
    lines = [f"[library]", f"format = {_LIB_FORMAT}", f"version = {_LIB_VERSION}", ""]
    for name in records:
        rec = records[name]
        lines.append(f"[{name}]")
        lines.append(f"mode = {rec.mode}")
        lines.append(f"lattice = {rec.lattice}")
        for key in sorted(rec.parameters):
            lines.append(f"{key} = {float(rec.parameters[key])!r}")
        lines.append("")
    return "\n".join(lines)


def builtin_library() -> dict:
    """Records shipped with the package (reference + synthetic materials)."""
    text = (importlib.resources.files("polyvem") / "data" / "materials.lib").read_text()
    return parse_library(text)
