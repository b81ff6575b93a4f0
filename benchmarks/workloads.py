"""The benchmark's workloads and the polyvem configs they generate.

Every workload is one `polyvem` CLI call per operation. The workload
seed picks the grain orientations only: the mesh seed stays fixed, so
the problem size (dofs, nnz, LU fill) and with it the time of an
operation is the same for every seed, while the moduli and every
computed number change with it. Seed 0 gives the ROADMAP baseline
sample (mesh seed 101, orientation seed 202).
"""

from __future__ import annotations

from dataclasses import dataclass

MESH_SEED = 101
ORIENTATION_SEED = 202

# environment of every process that imports polyvem: one BLAS/OpenMP
# thread, so that pool workers x threads stays within the 2 cores
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}

# section -> key -> value, shared by the two study workloads
_STUDY_SAMPLE = {
    "mesh": {"n_grains": "20"},
    "materials": {"names": "hex_high_anisotropy"},
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # polyvem subcommand
    sections: dict                # config sections; seeds and cache added
    workers: int = 1              # --workers of the CLI call
    cache: str | None = None      # None, "cold" or "warm"
    warmup: bool = True           # one untimed op before timing starts
    outputs: tuple = ()           # files every op must write

    @property
    def argv_tail(self) -> list:
        return ["--workers", str(self.workers)] if self.workers > 1 else []


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload(
        name="homogenize-vem-100",
        command="homogenize",
        sections={
            "mesh": {"n_grains": "100"},
            "materials": {"names": "BaTiO3,CoFe2O4"},
            "homogenize": {"mode": "fullyCoupled", "method": "VEM-VO",
                           "beta": "0.1"},
        },
        outputs=("result.json", "effective.csv", "provenance.json"),
    ),
    Workload(
        name="homogenize-o2-20",
        command="homogenize",
        sections={
            "mesh": {"n_grains": "20"},
            "materials": {"names": "BaTiO3,CoFe2O4"},
            "homogenize": {"mode": "fullyCoupled",
                           "method": "FEM-O2-coarse"},
        },
        outputs=("result.json", "effective.csv", "provenance.json"),
    ),
    Workload(
        name="compare-cold-20",
        command="study",
        sections={**_STUDY_SAMPLE, "study": {
            "kind": "comparison", "mode": "electroMech",
            "reference_levels": "2"}},
        cache="cold",
        # one op is about half a run; a warm-up would halve the samples
        warmup=False,
        outputs=("comparison.csv", "provenance.json"),
    ),
    Workload(
        name="sweep-beta-warm-20",
        command="study",
        sections={**_STUDY_SAMPLE, "study": {
            "kind": "beta-sweep", "mode": "electroMech",
            "reference_levels": "2", "beta_step": "0.05"}},
        workers=2,
        cache="warm",
        outputs=("beta_sweep.csv", "provenance.json"),
    ),
)}


def orientation_seed(seed: int) -> int:
    """Any integer workload seed maps to a non-negative generator seed."""
    return ORIENTATION_SEED + seed % 2**31


def config_text(sections: dict, seed: int, cache_dir: str | None) -> str:
    """Sectioned key-value config for one workload seed."""
    merged = {name: dict(body) for name, body in sections.items()}
    merged.setdefault("mesh", {})["mesh_seed"] = str(MESH_SEED)
    merged.setdefault("materials", {})["orientation_seed"] = \
        str(orientation_seed(seed))
    if cache_dir is not None:
        merged.setdefault("study", {})["cache"] = cache_dir
    lines = []
    for name, body in merged.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in body.items())
        lines.append("")
    return "\n".join(lines)


def warm_sections(workload: Workload) -> dict:
    """Config of the set-up call that fills the reference cache: a
    comparison of the same sample with the cheapest method, so the
    reference digest matches the one the workload reads."""
    study = dict(workload.sections["study"])
    study.update(kind="comparison", methods="VEM-VO")
    study.pop("beta_step", None)
    return {**workload.sections, "study": study}
