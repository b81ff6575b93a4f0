"""Time one refined linear-tet reference on the 20-grain sample.

The sample is that of the comparison study and of the benchmark (mesh
seed 101). `electroMech` uses hex_high_anisotropy grains with
orientation seed 202; `fullyCoupled` uses the two-phase layout of a
fraction sweep at target 0.45 with fraction seed 7. The script prints
one JSON line: the reference's wall time, the process's max RSS, the
dofs and the solver counters. With a third argument it also writes the
effective matrix there, to compare two versions of the solver.

Run:  python demos/05_reference_timing.py electroMech 3 [effective.json]
      (level 3: about 40 s and 2 GB electroMech, twice that fully coupled)
"""

import json
import resource
import sys
import time

from polyvem.homogenization import GrainLayout, homogenize_fem
from polyvem.materials import builtin_library
from polyvem.mesh import generate_voronoi, random_seeds
from polyvem.study import assign_volume_fraction

mode, levels = sys.argv[1], int(sys.argv[2])
mesh = generate_voronoi(random_seeds(20, 1.0, 101).seeds, 1.0)
lib = builtin_library()
if mode == "fullyCoupled":
    layout, _, _ = assign_volume_fraction(mesh, 0.45, 7)
else:
    layout = GrainLayout.random(lib, "hex_high_anisotropy", 20, 202)
moduli = layout.moduli(lib, mode)

t0 = time.perf_counter()
result = homogenize_fem(mesh, moduli, order=1, levels=levels, mode=mode)
wall = time.perf_counter() - t0
print(json.dumps({
    "mode": mode, "levels": levels, "wall_s": round(wall, 2),
    "max_rss_mib": round(resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "n_dofs": result.n_dofs, "solver": result.solver_stats}))
if len(sys.argv) > 3:
    with open(sys.argv[3], "w", encoding="utf-8") as fh:
        json.dump(result.effective.tolist(), fh)
