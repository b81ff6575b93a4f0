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
from typing import Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "VOIGT_PAIRS", "Lattice", "LATTICES", "LATTICE_CLASSES",
    "REQUIRED_PARAMETERS", "MODE_POTENTIALS", "STATE_ROWS", "MODES", "MODE_PINDEX",
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

# the scalar potentials a node carries besides its displacements; every
# per-mode layout (fields, state rows, cases, labels, blocks) follows
MODE_POTENTIALS = {"electroMech": ("electric",), "magnetoMech": ("magnetic",),
                   "fullyCoupled": ("electric", "magnetic")}
# rows of each state kind in the 12-vector P
STATE_ROWS = {"strain": slice(0, 6), "electric": slice(6, 9),
              "magnetic": slice(9, 12)}

MODES = tuple(MODE_POTENTIALS)
# active rows/columns of the 12-vector P for each coupling mode
MODE_PINDEX = {mode: tuple(i for kind in ("strain", *potentials)
                           for i in range(12)[STATE_ROWS[kind]])
               for mode, potentials in MODE_POTENTIALS.items()}

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
    e, m = STATE_ROWS["electric"], STATE_ROWS["magnetic"]
    div = np.ones((12, 12))
    div[e, e] = PERMITTIVITY_SCALE
    div[m, m] = PERMEABILITY_SCALE
    div[e, m] = div[m, e] = MAGNETOELECTRIC_SCALE
    return M / div[np.ix_(idx, idx)]


# ---------------------------------------------------------------------------
# Lattice classes and material records
# ---------------------------------------------------------------------------

class Lattice(NamedTuple):
    """Where the parameters of a lattice class sit in its blocks."""
    # stiffness parameter -> the Voigt (row, column) entries of C it sets,
    # upper triangle (C is symmetric); without C66, C66 = (C11 - C12) / 2
    stiffness: Mapping[str, tuple]
    # (suffix, row, column, sign) of each entry of e and of q alike: the
    # parameter e<suffix> (q<suffix>) times sign sits at (row, column)
    coupling: tuple
    # suffix of each diagonal entry of eps, mu and alpha alike
    diagonal: tuple


_HEX_STIFFNESS = {"C11": ((0, 0), (1, 1)), "C12": ((0, 1),),
                  "C13": ((0, 2), (1, 2)), "C33": ((2, 2),),
                  "C44": ((3, 3), (4, 4))}
_AXIAL = (("31", 2, 0, 1), ("31", 2, 1, 1), ("33", 2, 2, 1),
          ("15", 0, 4, 1), ("15", 1, 3, 1))
_BAR6M2 = (("22", 0, 5, -1), ("22", 1, 0, -1), ("22", 1, 1, 1))
_HEX_DIAGONAL = ("11", "11", "33")

LATTICES = {
    "hex6mm": Lattice(_HEX_STIFFNESS, _AXIAL, _HEX_DIAGONAL),
    "hexBar6m2": Lattice(_HEX_STIFFNESS, _BAR6M2, _HEX_DIAGONAL),
    "trigonal3m": Lattice(_HEX_STIFFNESS, _AXIAL + _BAR6M2, _HEX_DIAGONAL),
    "orth222": Lattice(
        # each Cij at its own (i - 1, j - 1)
        {f"C{i + 1}{j + 1}": ((i, j),) for i, j in ((0, 0), (0, 1), (0, 2),
         (1, 1), (1, 2), (2, 2), (3, 3), (4, 4), (5, 5))},
        (("14", 0, 3, 1), ("25", 1, 4, 1), ("36", 2, 5, 1)),
        ("11", "22", "33")),
    "transIso": Lattice(_HEX_STIFFNESS, _AXIAL, _HEX_DIAGONAL),
}
LATTICE_CLASSES = tuple(LATTICES)

# the blocks a lattice's coupling and diagonal patterns fill; the
# diagonal ones convert from data-sheet units by their scale
_COUPLING_BLOCKS = ("e", "q")
_DIAGONAL_SCALES = {"eps": PERMITTIVITY_SCALE, "mu": PERMEABILITY_SCALE,
                    "alpha": MAGNETOELECTRIC_SCALE}

# the parameters of each lattice class, stiffness first, in the order a
# record is checked for them
REQUIRED_PARAMETERS = {
    name: (*row.stiffness,
           *(block + suffix for block in _COUPLING_BLOCKS
             for suffix in dict.fromkeys(s for s, *_ in row.coupling)),
           *(block + suffix for block in _DIAGONAL_SCALES
             for suffix in dict.fromkeys(row.diagonal)))
    for name, row in LATTICES.items()}


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


def build_modulus(record: MaterialRecord) -> GeneralizedModulus:
    """Construct the grain-local 12x12 modulus from a material record.

    The zero/nonzero pattern follows the declared lattice class exactly;
    a non positive definite stiffness block triggers a StabilityWarning.
    """
    p = {key: record.require(key) for key in REQUIRED_PARAMETERS[record.lattice]}
    row = LATTICES[record.lattice]
    C = np.zeros((6, 6))
    for key, entries in row.stiffness.items():
        for i, j in entries:
            C[i, j] = C[j, i] = p[key]
    if "C66" not in row.stiffness:
        C[5, 5] = (p["C11"] - p["C12"]) / 2.0
    blocks = {}
    for block in _COUPLING_BLOCKS:
        blocks[block] = np.zeros((3, 6))
        for suffix, i, j, sign in row.coupling:
            blocks[block][i, j] = sign * p[block + suffix]
    for block, scale in _DIAGONAL_SCALES.items():
        blocks[block] = scale * np.diag([p[block + s] for s in row.diagonal])
    try:
        np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        warnings.warn(
            f"material {record.name!r}: stiffness block is not positive definite",
            StabilityWarning, stacklevel=2)
    return GeneralizedModulus.from_blocks(C, **blocks)


def isotropic_record(name: str, lam: float, shear: float, *,
                     eps: float = 1.0, mu: float = 1.0,
                     mode: str = "fullyCoupled") -> MaterialRecord:
    """Uncoupled isotropic material from Lame constants (testing helper).

    `eps` and `mu` are the assembled storage entries; the record stores
    their data-sheet equivalents so building the modulus returns them
    verbatim on the diagonal.
    """
    parameters = dict.fromkeys(REQUIRED_PARAMETERS["transIso"], 0.0)
    parameters.update(
        C11=lam + 2 * shear, C12=lam, C13=lam, C33=lam + 2 * shear, C44=shear,
        eps11=eps / PERMITTIVITY_SCALE, eps33=eps / PERMITTIVITY_SCALE,
        mu11=mu / PERMEABILITY_SCALE, mu33=mu / PERMEABILITY_SCALE)
    return MaterialRecord(name, mode, "transIso", parameters)


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
