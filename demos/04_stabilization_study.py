"""Stabilization-weight study on a highly anisotropic polycrystal.

Shows the ordering that motivates the polyhedral method: against a
refined reference, one stabilized element per grain beats the coarse
linear-tet baseline, and a small weight beats the full weight.

Run:  python demos/04_stabilization_study.py   (a few seconds)
"""

import tempfile

from polyvem.homogenization import GrainLayout
from polyvem.materials import builtin_library
from polyvem.mesh import generate_voronoi, random_seeds
from polyvem.study import (DEFAULT_BETA_GRID, beta_opt, beta_sweep,
                           build_reference, method_comparison)

mesh = generate_voronoi(random_seeds(20, 1.0, 101).seeds, 1.0)
lib = builtin_library()
layout = GrainLayout.random(lib, "hex_high_anisotropy", 20, 202)
moduli = layout.moduli(lib, "electroMech")

# --- 1. a refined linear-tet reference (cached on disk) ----------------------
with tempfile.TemporaryDirectory(prefix="polyvem-ref-") as cache:
    reference = build_reference(mesh, moduli, "electroMech", levels=2,
                                cache_dir=cache)
print(f"reference: {reference.method}, {reference.n_dofs} dofs")

# --- 2. per-method percent error against it -----------------------------------
rows = method_comparison(mesh, moduli, "electroMech",
                         ("VEM-VO", "FEM-O1-coarse", "FEM-O2-coarse"),
                         reference, targets=("G", "C"))
print(f"\n{'method':16s} {'dofs':>6s} {'E_C(G) %':>9s} {'E_C(C) %':>9s}")
for r in rows:
    print(f"{r.method:16s} {r.n_dofs:6d} {r.e_c['G']:9.3f} {r.e_c['C']:9.3f}")

# --- 3. sweep the stabilization weight ------------------------------------------
curve, fem_d = beta_sweep(mesh, moduli, "electroMech", DEFAULT_BETA_GRID,
                          reference, targets=("G",))
print(f"\n{'beta':>5s} {'D_rel(G) %':>11s}")
for b, d in curve[:6]:
    print(f"{b:5.2f} {d['G']:11.4f}")
print("  ... ")
b, d = curve[-1]
print(f"{b:5.2f} {d['G']:11.4f}   <- equals coarse tets {fem_d['G']:.4f}")
print(f"\nerror-minimizing weight: {beta_opt(curve, 'G'):.2f}")
