"""Time one refined linear-tet reference on the 20-grain sample.

The sample is that of the comparison study and of the benchmark (mesh
seed 101). `electroMech` uses hex_high_anisotropy grains with
orientation seed 202; `fullyCoupled` uses the two-phase layout of a
fraction sweep at target 0.45 with fraction seed 7. `--grains N` takes N
grains with the same seeds instead of 20. The script prints
one JSON line: the reference's wall time, the process's max RSS, the
dofs and the solver counters. `--write FILE` writes the effective
matrix there; `--compare FILE` reads one written by another run (say,
of another version of the solver) and adds the relative Frobenius
difference of the two matrices to the line.

Run:  python demos/05_reference_timing.py electroMech 3 --write new.json
      python demos/05_reference_timing.py electroMech 3 --compare new.json
      python demos/05_reference_timing.py electroMech 3 --grains 50
      (level 3 on 2 cores, one BLAS thread: about 19-21 s and 0.94 GiB
      electroMech, 31-47 s and 1.25 GiB fully coupled; 50 grains
      electroMech about 125 s and under 3.8 GiB)
"""

import argparse
import json
import resource
import time

import numpy as np

from polyvem.homogenization import GrainLayout, homogenize_fem
from polyvem.materials import builtin_library
from polyvem.mesh import generate_voronoi, random_seeds
from polyvem.study import assign_volume_fraction

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("mode", choices=["electroMech", "magnetoMech",
                                     "fullyCoupled"])
parser.add_argument("levels", type=int)
parser.add_argument("--write", metavar="FILE",
                    help="write the effective matrix here as JSON")
parser.add_argument("--compare", metavar="FILE",
                    help="effective matrix of another run to compare with")
parser.add_argument("--grains", type=int, default=20,
                    help="number of grains (default 20)")
args = parser.parse_args()
mode, levels, grains = args.mode, args.levels, args.grains
mesh = generate_voronoi(random_seeds(grains, 1.0, 101).seeds, 1.0)
lib = builtin_library()
if mode == "fullyCoupled":
    layout, _, _ = assign_volume_fraction(mesh, 0.45, 7)
else:
    layout = GrainLayout.random(lib, "hex_high_anisotropy", grains, 202)
moduli = layout.moduli(lib, mode)

t0 = time.perf_counter()
result = homogenize_fem(mesh, moduli, order=1, levels=levels, mode=mode)
wall = time.perf_counter() - t0
line = {
    "mode": mode, "levels": levels, "grains": grains, "wall_s": round(wall, 2),
    "max_rss_mib": round(resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "n_dofs": result.n_dofs, "solver": result.solver_stats}
if args.compare:
    with open(args.compare, encoding="utf-8") as fh:
        other = np.array(json.load(fh), dtype=float)
    line["rel_diff"] = float(np.linalg.norm(result.effective - other)
                             / np.linalg.norm(other))
print(json.dumps(line))
if args.write:
    with open(args.write, "w", encoding="utf-8") as fh:
        json.dump(result.effective.tolist(), fh)
