"""Command-line interface: config validation, exit codes, outputs,
determinism, and worker parallelism."""

import csv
import glob
import json
import multiprocessing
import os
import pickle
import platform
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import polyvem.assembly as pa
import polyvem.cholesky as pc
import polyvem.cli as cli
import polyvem.homogenization as ph
import polyvem.study as study
from polyvem.cli import CONFIG, ConfigError, config_digest, load_config, main
from polyvem.homogenization import (GrainLayout, homogenize_vem,
                                    result_from_json, result_to_json)
from polyvem.materials import (LATTICE_CLASSES, REQUIRED_PARAMETERS,
                               StabilityWarning, builtin_library,
                               format_library, isotropic_record)
from polyvem.mesh import generate_voronoi, random_seeds, read_mesh

from test_mesh import broken_native_texts, six_grain_texts


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


BASE = """
[run]
seed = 3

[mesh]
n_grains = {n}
mesh_seed = 11

[materials]
names = {names}
orientation_seed = 12

[homogenize]
mode = electroMech
method = VEM-VO
beta = 0.1
"""


class TestConfig:
    def test_empty_config_allowed(self):
        cfg = load_config(None)
        assert set(cfg) == {"run", "mesh", "materials", "homogenize", "study"}
        assert all(not v for v in cfg.values())

    def test_unknown_section_rejected(self, tmp_path):
        p = write_config(tmp_path / "c.ini", "[turbo]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = write_config(tmp_path / "c.ini", "[run]\nbogus = 1\n")
        with pytest.raises(ConfigError, match="unknown key 'bogus'"):
            load_config(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "ghost.ini"))

    def test_digest_is_order_independent(self):
        a = {"run": {"seed": "3", "out": "x"}, "mesh": {}}
        b = {"mesh": {}, "run": {"out": "x", "seed": "3"}}
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(
            {"run": {"seed": "4", "out": "x"}, "mesh": {}})


# (command, config section) of each route to a refinement level
REFINED_ROUTES = {
    "homogenize": ("homogenize", "[homogenize]\nmode = electroMech\n"
                   "method = FEM-O1-refined({})\n"),
    "comparison": ("study", "[study]\nkind = comparison\n"
                   "reference_levels = 1\n"
                   "methods = VEM-VO,FEM-O1-refined({})\n"),
    "reference": ("study", "[study]\nkind = comparison\n"
                  "methods = VEM-VO\nreference_levels = {}\n"),
}


class TestExitCodes:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.ini", "[run]\nbogus = 1\n")
        assert main(["mesh", "--config", p]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_value_exits_2(self, tmp_path):
        p = write_config(tmp_path / "c.ini", "[mesh]\nn_grains = soup\n")
        assert main(["mesh", "--config", p,
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["mesh", "--config", str(tmp_path / "ghost.ini")]) == 2

    def test_missing_mesh_file_exits_4(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.ini",
                         "[mesh]\nsource = file\npath = {}\n".format(
                             tmp_path / "ghost.poly"))
        assert main(["mesh", "--config", p,
                     "--out", str(tmp_path / "o")]) == 4
        assert "input error" in capsys.readouterr().err

    def test_truncated_mesh_file_exits_4(self, tmp_path, capsys):
        mesh_file = tmp_path / "m.poly"
        mesh_file.write_text("polyvem-mesh 1\n", encoding="utf-8")
        p = write_config(tmp_path / "c.ini",
                         f"[mesh]\nsource = file\npath = {mesh_file}\n")
        assert main(["mesh", "--config", p,
                     "--out", str(tmp_path / "o")]) == 4
        assert "unexpected end of file" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["cell-material-overflow",
                                      "vertex-count-overflow",
                                      "two-vertex-face", "collinear-face"])
    def test_malformed_mesh_file_exits_4(self, tmp_path, capsys, case):
        mesh_file = tmp_path / "m.poly"
        mesh_file.write_text(broken_native_texts()[case], encoding="utf-8")
        p = write_config(tmp_path / "c.ini",
                         f"[mesh]\nsource = file\npath = {mesh_file}\n")
        assert main(["mesh", "--config", p,
                     "--out", str(tmp_path / "o")]) == 4
        assert "input error" in capsys.readouterr().err

    def test_missing_library_exits_4(self, tmp_path):
        cfg = BASE.format(n=2, names="BaTiO3").replace(
            "names = BaTiO3",
            "names = BaTiO3\nlibrary = " + str(tmp_path / "ghost.lib"))
        p = write_config(tmp_path / "c.ini", cfg)
        assert main(["homogenize", "--config", p,
                     "--out", str(tmp_path / "o")]) == 4

    def test_memory_guard_exits_3(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.ini", """
[mesh]
n_grains = 4
mesh_seed = 11
[materials]
names = hex_high_anisotropy
[study]
kind = comparison
mode = electroMech
reference_levels = 9
""")
        assert main(["study", "--config", p,
                     "--out", str(tmp_path / "o")]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command,section", [
        pytest.param(command, section.format(level),
                     id=route if level == 30 else f"{route}-{level}")
        for level in (30, 5000, 10 ** 8)
        for route, (command, section) in REFINED_ROUTES.items()
        if (route, level) != ("reference", 30)])
    def test_refined_method_is_guarded(self, tmp_path, capsys, monkeypatch,
                                       command, section):
        # the guard stops the run before any refinement; without it, these
        # levels would refine until the memory runs out. Levels of 5000
        # and more must be refused without forming 8 ** level, whose
        # digits alone would fail to print
        refine = ph.refine_tet_mesh

        def refine_below_the_guard(tmesh, levels):
            assert levels < 30, "refined past the memory guard"
            return refine(tmesh, levels)

        monkeypatch.setattr(ph, "refine_tet_mesh", refine_below_the_guard)
        p = write_config(tmp_path / "c.ini",
                         "[mesh]\nn_grains = 3\nmesh_seed = 11\n" + section)
        assert main([command, "--config", p,
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "lower the refinement level" in err

    def test_failed_allocation_exits_3(self, tmp_path, capsys,
                                       monkeypatch):
        import polyvem.cli as cli

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.18 TiB for an array")
        monkeypatch.setattr(cli, "random_seeds", no_memory)
        p = write_config(tmp_path / "c.ini", BASE.format(n=3, names="BaTiO3"))
        assert main(["homogenize", "--config", p,
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == ("numerical failure: out of memory (Unable to "
                       "allocate 2.18 TiB for an array)\n")

    def test_factor_beyond_physical_memory_exits_3(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        monkeypatch.setattr(pc, "physical_memory", lambda: 1000)
        p = write_config(tmp_path / "c.ini", BASE.format(n=8, names="BaTiO3"))
        assert main(["homogenize", "--config", p,
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "physical memory" in err

    def test_cgroup_limit_below_the_stores_exits_3(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        root = tmp_path / "cgroup"
        (root / "job").mkdir(parents=True)
        (root / "job" / "memory.max").write_text("1000\n")
        (tmp_path / "self").write_text("0::/job\n")
        monkeypatch.setattr(pc, "SELF_CGROUP", str(tmp_path / "self"))
        monkeypatch.setattr(pc, "CGROUP_ROOT", str(root))
        p = write_config(tmp_path / "c.ini", BASE.format(n=8, names="BaTiO3"))
        assert main(["homogenize", "--config", p,
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "physical memory" in err

    def test_both_factor_stores_count_against_physical_memory(
            self, tmp_path, capsys, monkeypatch):
        # each store alone fits under the bound, the two together do not
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        stores = []

        class Recorded(pc.NodeCholesky):
            def __init__(self, *args):
                super().__init__(*args)
                stores.append(self._store.nbytes)
        monkeypatch.setattr(pa, "NodeCholesky", Recorded)
        p = write_config(tmp_path / "c.ini", BASE.format(n=8, names="BaTiO3"))
        assert main(["homogenize", "--config", p,
                     "--out", str(tmp_path / "o")]) == 0
        small, large = sorted(stores)
        assert small > 0
        monkeypatch.setattr(pc, "physical_memory",
                            lambda: large + small // 2)
        assert main(["homogenize", "--config", p,
                     "--out", str(tmp_path / "o2")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "physical memory" in err

    def test_unknown_material_exits_2(self, tmp_path, capsys, monkeypatch):
        import polyvem.cli as cli

        def no_mesh(cfg):
            raise AssertionError("mesh built before the names were checked")
        monkeypatch.setattr(cli, "build_mesh", no_mesh)
        base = BASE.format(n=2, names="unobtainium")
        for command, section in (
                ("homogenize", ""),
                ("study", "[study]\nkind = comparison\n"),
                ("study", "[study]\nkind = beta-sweep\n")):
            p = write_config(tmp_path / "c.ini", base + section)
            assert main([command, "--config", p,
                         "--out", str(tmp_path / "o")]) == 2
            assert "material 'unobtainium' not in library" in \
                capsys.readouterr().err

    @pytest.mark.parametrize("command,body,message", [
        ("mesh", "[study]\nbeta_step = 5\n",
         "[study] beta_step must be in [0.001, 1], got 5.0"),
        ("materials", "[homogenize]\nmethod = BEM\n",
         "[homogenize] unknown method 'BEM'"),
        ("homogenize", "[study]\nkind = interpretive-dance\n",
         "[study] unknown kind 'interpretive-dance'"),
        ("study", "[mesh]\nlloyd = x\n", "bad value for [mesh] lloyd: 'x'"),
    ], ids=["mesh-study", "materials-homogenize", "homogenize-study",
            "study-mesh"])
    def test_every_given_key_is_checked_before_any_command(
            self, tmp_path, capsys, monkeypatch, command, body, message):
        # a bad value exits 2 even in a section the command does not read
        import polyvem.cli as cli
        monkeypatch.setattr(cli, "_COMMANDS", {})
        p = write_config(tmp_path / "c.ini", body)
        assert main([command, "--config", p,
                     "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    def test_surface_check_key_is_unknown(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.ini",
                         "[homogenize]\ncheck_surface = true\n")
        assert main(["homogenize", "--config", p,
                     "--out", str(tmp_path / "o")]) == 2
        assert "unknown key 'check_surface'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,argv,body,message", [
        ("mesh", ["--seed", "-1"], "", "[run] seed must be non-negative"),
        ("mesh", [], "[mesh]\nmesh_seed = -1\n",
         "[mesh] mesh_seed must be non-negative"),
        ("homogenize", [], "[materials]\norientation_seed = -5\n",
         "[materials] orientation_seed must be non-negative"),
        ("study", [], "[study]\nkind = fraction-sweep\nfraction_seed = -2\n",
         "[study] fraction_seed must be non-negative"),
        ("homogenize", [], "[run]\nworkers = 0\n",
         "[run] workers must be at least 1, got 0"),
        ("study", [], "[run]\nworkers = -3\n",
         "[run] workers must be at least 1, got -3"),
        ("mesh", ["--workers", "0"], "",
         "[run] workers must be at least 1, got 0"),
    ])
    def test_negative_seed_exits_2_before_mesh(self, tmp_path, capsys,
                                               monkeypatch, command, argv,
                                               body, message):
        import polyvem.cli as cli

        def no_mesh(cfg):
            raise AssertionError("mesh built before the seeds were checked")
        monkeypatch.setattr(cli, "build_mesh", no_mesh)
        p = write_config(tmp_path / "c.ini", body)
        assert main([command, "--config", p, "--out", str(tmp_path / "o"),
                     *argv]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command,body,argv,message", [
        ("study", "[study]\ncache =\n", ["--out", "o"],
         "[study] cache must name a directory"),
        ("homogenize", "[run]\nout =\n", [],
         "[run] out must name a directory"),
        ("mesh", "", ["--out", ""], "[run] out must name a directory"),
    ])
    def test_empty_path_exits_2_before_mesh(self, tmp_path, capsys,
                                            monkeypatch, command, body, argv,
                                            message):
        import polyvem.cli as cli

        def no_mesh(cfg):
            raise AssertionError("mesh built before the paths were checked")
        monkeypatch.setattr(cli, "build_mesh", no_mesh)
        monkeypatch.chdir(tmp_path)
        p = write_config(tmp_path / "c.ini", body)
        assert main([command, "--config", p, *argv]) == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.ini"]

    @pytest.mark.parametrize("records,targets,message", [
        ({"BaTiO3": "BaTiO3", "hex_high_anisotropy": "hex_high_anisotropy"},
         "G", "[study] material 'CoFe2O4' not in library"),
        # both phases without piezomagnetic coupling
        ({"BaTiO3": "BaTiO3", "CoFe2O4": "hex_high_anisotropy"},
         "q", "[study] target 'q' is zero in every grain modulus"),
    ])
    def test_fraction_sweep_phases_exit_2_before_mesh(
            self, tmp_path, capsys, monkeypatch, records, targets, message):
        import polyvem.cli as cli

        def no_mesh(cfg):
            raise AssertionError("mesh built before the phases were checked")
        monkeypatch.setattr(cli, "build_mesh", no_mesh)
        builtin = builtin_library()
        lib = tmp_path / "two.lib"
        lib.write_text(format_library(
            {name: builtin[record] for name, record in records.items()}))
        p = write_config(tmp_path / "c.ini", (
            f"[materials]\nlibrary = {lib}\n"
            f"[study]\nkind = fraction-sweep\ntargets = {targets}\n"))
        assert main(["study", "--config", p,
                     "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_study_kind_exits_2(self, tmp_path):
        p = write_config(tmp_path / "c.ini",
                         "[study]\nkind = interpretive-dance\n")
        assert main(["study", "--config", p,
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command,key,value,message", [
        ("homogenize", "beta", "1.5", "beta must be in [0, 1]"),
        ("study", "beta", "-0.2", "beta must be in [0, 1]"),
        ("homogenize", "method", "VEM-XX", "unknown method 'VEM-XX'"),
        ("study", "methods", "VEM-VO,VEM-XX", "unknown method 'VEM-XX'"),
        ("study", "methods", "FEM-O1-refined(x)", "bad refinement level"),
        ("homogenize", "method", "FEM-O1-refined(²)",
         "bad refinement level"),
        # more digits than int() converts by default (4300)
        pytest.param("homogenize", "method", f"FEM-O1-refined({'9' * 5000})",
                     "bad refinement level in method",
                     id="homogenize-5000-digit-level"),
        pytest.param("study", "methods",
                     f"VEM-VO,FEM-O1-refined({'9' * 5000})",
                     "bad refinement level in method",
                     id="study-5000-digit-level"),
    ])
    def test_bad_beta_or_method_exits_2(self, tmp_path, capsys, command,
                                        key, value, message):
        section = ("[homogenize]\nmode = electroMech\n" if command == "homogenize"
                   else "[study]\nkind = comparison\nreference_levels = 1\n")
        p = write_config(tmp_path / "c.ini",
                         "[mesh]\nn_grains = 3\nmesh_seed = 11\n"
                         f"{section}{key} = {value}\n")
        assert main([command, "--config", p,
                     "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command,body,message", [
        ("homogenize", "[homogenize]\nmode = thermal\n",
         "unknown mode 'thermal'"),
        ("study", "[study]\nkind = comparison\nmode = thermal\n",
         "unknown mode 'thermal'"),
        ("study", "[study]\nkind = comparison\ntargets = G,Z\n",
         "unknown target 'Z'"),
        ("study", "[study]\nkind = comparison\nmode = electroMech\n"
         "targets = mu\n", "target 'mu' undefined"),
        ("study", "[study]\nkind = beta-sweep\nreference_levels = 0\n",
         "reference_levels must be at least 1"),
        ("study", "[study]\nkind = comparison\nmethods = ,\n",
         "methods must name at least one method"),
    ])
    def test_bad_mode_target_or_levels_exits_2_before_mesh(
            self, tmp_path, capsys, monkeypatch, command, body, message):
        import polyvem.cli as cli

        def no_mesh(cfg):
            raise AssertionError("mesh built before the config was checked")
        monkeypatch.setattr(cli, "build_mesh", no_mesh)
        p = write_config(tmp_path / "c.ini",
                         "[mesh]\nn_grains = 3\nmesh_seed = 11\n" + body)
        assert main([command, "--config", p,
                     "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["comparison", "beta-sweep"])
    def test_target_zero_in_every_grain_exits_2_before_reference(
            self, tmp_path, capsys, monkeypatch, kind):
        # hex_high_anisotropy has no piezomagnetic constants, so the
        # reference's q block would be zero
        def no_reference(*args, **kwargs):
            raise AssertionError("reference built for a zero target")
        monkeypatch.setattr("polyvem.study.build_reference", no_reference)
        cache = tmp_path / "cache"
        p = write_config(tmp_path / "c.ini", f"""
[mesh]
n_grains = 6
mesh_seed = 11
[materials]
names = hex_high_anisotropy
[study]
kind = {kind}
mode = magnetoMech
targets = G,q
reference_levels = 1
cache = {cache}
""")
        assert main(["study", "--config", p,
                     "--out", str(tmp_path / "o")]) == 2
        assert "target 'q' is zero in every grain modulus" in \
            capsys.readouterr().err
        assert not cache.exists()

    def test_product_target_is_not_checked_against_grains(self):
        # neither phase has an electromagnetic block; the composite has one
        mesh = generate_voronoi(random_seeds(4, 1.0, 11).seeds, 1.0)
        layout, _, _ = study.assign_volume_fraction(mesh, 0.5, 3)
        moduli = layout.moduli(builtin_library(), "fullyCoupled")
        assert not any(study.target_block(G, "fullyCoupled", "alpha").any()
                       for G in moduli)
        study.check_targets(moduli, "fullyCoupled", ("G", "C", "e", "q",
                                                     "alpha"))

    BAD_EDGE = "edge_length must be positive with a finite cube"

    @pytest.mark.parametrize("key,value,message", [
        ("edge_length", "-1", BAD_EDGE),
        ("edge_length", "0", BAD_EDGE),
        ("edge_length", "nan", BAD_EDGE),
        ("edge_length", "inf", BAD_EDGE),
        ("edge_length", "1e200", BAD_EDGE),
        ("edge_length", "1e100", BAD_EDGE),
        ("edge_length", "1e77", BAD_EDGE),
        ("edge_length", "1e-90", BAD_EDGE),
        ("lloyd", "-2", "lloyd must be non-negative"),
    ])
    def test_bad_mesh_value_exits_2_before_mesh(self, tmp_path, capsys,
                                                monkeypatch, key, value,
                                                message):
        import polyvem.cli as cli

        def no_mesh(*args, **kwargs):
            raise AssertionError("mesh generated before the config was checked")
        monkeypatch.setattr(cli, "generate_voronoi", no_mesh)
        p = write_config(tmp_path / "c.ini",
                         f"[mesh]\nn_grains = 3\nmesh_seed = 11\n{key} = {value}\n")
        assert main(["mesh", "--config", p, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err


class TestMeshCommand:
    def test_writes_mesh_stats_and_provenance(self, tmp_path):
        p = write_config(tmp_path / "c.ini", BASE.format(n=4, names="BaTiO3"))
        out = tmp_path / "m"
        assert main(["mesh", "--config", p, "--out", str(out)]) == 0
        stats = json.loads((out / "mesh_stats.json").read_text())
        assert stats["n_cells"] == 4
        assert stats["all_cells_watertight"] is True
        assert stats["interior_faces_conforming"] is True
        assert stats["volume_closure_rel"] < 1e-12
        prov = json.loads((out / "provenance.json").read_text())
        assert prov["command"] == "mesh"
        assert prov["mesh_digest"] == stats["mesh_digest"]
        assert "config_digest" in prov and "tolerances" in prov
        assert "time" not in json.dumps(prov).lower()

    def test_provenance_states_the_enforced_tolerances(self, tmp_path,
                                                       monkeypatch):
        p = write_config(tmp_path / "c.ini", BASE.format(n=2, names="BaTiO3"))

        def tolerances(out):
            assert main(["mesh", "--config", p, "--out", str(out)]) == 0
            return json.loads((out / "provenance.json").read_text())[
                "tolerances"]

        assert tolerances(tmp_path / "m") == {
            "stiffness_symmetry_audit_rel": 1e-12,
            "interior_solve_residual_rel": 1e-10,
            "boundary_vertex_snap_rel": 1e-9}
        monkeypatch.setattr(pa, "RESIDUAL_GATE", 1e-9)
        assert tolerances(tmp_path / "g")["interior_solve_residual_rel"] == 1e-9

    def test_mesh_file_roundtrip(self, tmp_path):
        p = write_config(tmp_path / "c.ini", BASE.format(n=4, names="BaTiO3"))
        out = tmp_path / "m"
        main(["mesh", "--config", p, "--out", str(out)])
        mesh = read_mesh((out / "mesh.poly.txt").read_text())
        assert len(mesh.cells) == 4
        reread = write_config(tmp_path / "c2.ini", """
[mesh]
source = file
path = {}
""".format(out / "mesh.poly.txt"))
        out2 = tmp_path / "m2"
        assert main(["mesh", "--config", reread, "--out", str(out2)]) == 0
        s1 = json.loads((out / "mesh_stats.json").read_text())
        s2 = json.loads((out2 / "mesh_stats.json").read_text())
        assert s1["mesh_digest"] == s2["mesh_digest"]


class TestHomogenizeCommand:
    def test_single_grain_matches_library_call(self, tmp_path):
        p = write_config(tmp_path / "c.ini", BASE.format(n=1, names="BaTiO3"))
        out = tmp_path / "h"
        assert main(["homogenize", "--config", p, "--out", str(out)]) == 0
        result = result_from_json((out / "result.json").read_text())

        mesh = generate_voronoi(random_seeds(1, 1.0, 11).seeds, 1.0)
        lib = builtin_library()
        layout = GrainLayout.random(lib, None, 1, 12,
                                    names_override=["BaTiO3"])
        direct = homogenize_vem(mesh, layout.moduli(lib, "electroMech"),
                                beta=0.1, mode="electroMech")
        assert np.allclose(result.effective, direct.effective,
                           rtol=0, atol=1e-8 * np.linalg.norm(direct.effective))

    def test_outputs_present_and_diagnostics_hold_timings(self, tmp_path):
        p = write_config(tmp_path / "c.ini", BASE.format(n=2, names="BaTiO3"))
        out = tmp_path / "h"
        main(["homogenize", "--config", p, "--out", str(out)])
        assert (out / "effective.csv").exists()
        diag = json.loads((out / "run_diagnostics.json").read_text())
        assert diag["wall_seconds"]["homogenize"] > 0
        prov = json.loads((out / "provenance.json").read_text())
        assert sorted(prov["outputs"]) == ["effective.csv", "result.json"]

    def test_result_and_provenance_share_the_config_digest(self, tmp_path):
        p = write_config(tmp_path / "c.ini", BASE.format(n=2, names="BaTiO3"))
        out = tmp_path / "h"
        assert main(["homogenize", "--config", p, "--out", str(out),
                     "--workers", "2"]) == 0
        digests = [json.loads((out / name).read_text())["config_digest"]
                   for name in ("result.json", "provenance.json")]
        assert digests[0] == digests[1]
        # --out and --workers cannot change a number, so the digest omits them
        assert digests[0] == config_digest(load_config(p))

    @pytest.mark.parametrize("method", ["VEM-VO", "FEM-O1-refined(1)"])
    @pytest.mark.parametrize("split", [False, True])
    def test_indefinite_stiffness_solves_on_the_lu(self, tmp_path,
                                                  monkeypatch, method, split):
        # an isotropic stiffness with lambda = -3, mu = 1 (eigenvalues -7
        # and 2): the LU solves it; with the split forced, the split's
        # Cholesky factor refuses K_uu and hands the block to the LU
        if split:
            monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        lib = tmp_path / "indefinite.lib"
        lib.write_text(format_library(
            {"indefinite": isotropic_record("indefinite", -3.0, 1.0)}))
        p = write_config(tmp_path / "c.ini", BASE.format(
            n=8, names=f"indefinite\nlibrary = {lib}").replace(
                "VEM-VO", method))
        out = tmp_path / "h"
        with pytest.warns(StabilityWarning, match="not positive definite"):
            assert main(["homogenize", "--config", p, "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert max(result["hill_residuals"]) <= 1e-10
        solver = json.loads((out / "run_diagnostics.json").read_text())[
            "solver"]
        assert solver["path"] == ("fallback" if split else "small")
        assert len(solver["lu_nnz"]) == 1

    def test_split_costs_stay_in_diagnostics(self, tmp_path, monkeypatch):
        # the stores' bytes and the refinement's corrections are written
        # next to the other solver counters, and nowhere else
        monkeypatch.setattr(pa, "SPLIT_MIN_DOFS", 0)
        p = write_config(tmp_path / "c.ini", BASE.format(n=8, names="BaTiO3"))
        out = tmp_path / "h"
        assert main(["homogenize", "--config", p, "--out", str(out)]) == 0
        solver = json.loads((out / "run_diagnostics.json").read_text())[
            "solver"]
        assert solver["path"] == "split"
        assert solver["factor_bytes"] == [4 * (n + 1)
                                          for n in solver["lu_nnz"]]
        assert solver["refinement_steps"] > 0
        for name in ("result.json", "effective.csv", "provenance.json"):
            text = (out / name).read_text()
            assert "factor_bytes" not in text, name
            assert "refinement_steps" not in text, name

    @pytest.mark.parametrize("kind", ["homogenize", "comparison"])
    def test_diagnostics_time_the_mesh_front_end(self, tmp_path, monkeypatch,
                                                kind):
        if kind == "homogenize":
            text = BASE.format(n=3, names="BaTiO3")
        else:
            text = STUDY_BASE.format(kind="comparison", beta_step=0.05,
                                     cache=tmp_path / "cache")
        p = write_config(tmp_path / "c.ini", text)
        command = "homogenize" if kind == "homogenize" else "study"
        build_mesh = cli.build_mesh

        def slow_build_mesh(cfg):
            time.sleep(0.1)
            return build_mesh(cfg)

        walls = []
        for name in ("a", "b"):
            assert main([command, "--config", p, "--out",
                         str(tmp_path / name)]) == 0
            walls.append(json.loads((tmp_path / name / "run_diagnostics.json")
                                    .read_text())["wall_seconds"])
            monkeypatch.setattr(cli, "build_mesh", slow_build_mesh)
        for wall in walls:
            assert 0.0 < wall["mesh"] <= wall[command]
        assert walls[1]["mesh"] >= 0.1
        outputs = json.loads((tmp_path / "a" / "provenance.json").read_text())[
            "outputs"]
        for name in outputs:              # result.json and the CSVs
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_reruns_are_byte_identical(self, tmp_path):
        p = write_config(tmp_path / "c.ini", BASE.format(n=3, names="BaTiO3"))
        o1, o2 = tmp_path / "a", tmp_path / "b"
        assert main(["homogenize", "--config", p, "--out", str(o1)]) == 0
        assert main(["homogenize", "--config", p, "--out", str(o2)]) == 0
        for name in ("result.json", "effective.csv", "provenance.json"):
            assert (o1 / name).read_bytes() == (o2 / name).read_bytes(), name


STUDY_BASE = """
[run]
seed = 3

[mesh]
n_grains = 8
mesh_seed = 11

[materials]
names = hex_high_anisotropy
orientation_seed = 12

[study]
kind = {kind}
mode = electroMech
targets = G
beta_step = {beta_step}
reference_levels = 1
cache = {cache}
"""


def shipped(task, payloads, workers):
    """In-process stand-in for `study._pool_map` that pickles every
    payload, as a pool process would receive it."""
    return [task(*pickle.loads(pickle.dumps(args))) for args in payloads]


def reference_builds(monkeypatch):
    """The levels of every refined `homogenize_fem` run from now on."""
    builds = []
    homogenize_fem = study.homogenize_fem

    def counting(*args, **kwargs):
        if kwargs.get("levels"):
            builds.append(kwargs["levels"])
        return homogenize_fem(*args, **kwargs)

    monkeypatch.setattr(study, "homogenize_fem", counting)
    return builds


class TestStudyCommand:
    def test_beta_sweep_default_grid_has_twenty_points(self, tmp_path):
        p = write_config(tmp_path / "c.ini", STUDY_BASE.format(
            kind="beta-sweep", beta_step=0.05, cache=tmp_path / "cache"))
        out = tmp_path / "s"
        assert main(["study", "--config", p, "--out", str(out)]) == 0
        rows = list(csv.reader((out / "beta_sweep.csv").read_text()
                               .strip().splitlines()))
        assert rows[0] == ["beta", "D_rel_G_pct"]
        assert len(rows) == 1 + 20 + 1  # header, curve, coarse-FEM row
        assert rows[1][0] == "0.05" and rows[20][0] == "1"
        assert rows[-1][0] == "FEM-O1-coarse"
        # stabilization-full endpoint coincides with the coarse FEM row
        assert rows[20][1] == rows[-1][1]
        # the diagnostics hold timings only; beta_opt is a result
        wall = json.loads((out / "run_diagnostics.json").read_text())[
            "wall_seconds"]
        assert list(wall) == ["mesh", "study"]
        assert isinstance(wall["study"], float)
        prov = json.loads((out / "provenance.json").read_text())
        curve = [(float(b), float(d)) for b, d in rows[1:21]]
        assert prov["beta_opt"] == min(curve, key=lambda bd: abs(bd[1]))[0]
        assert (prov["kind"], prov["mode"]) == ("beta-sweep", "electroMech")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_beta_sweep_writes_solver_counters(self, tmp_path, workers):
        p = write_config(tmp_path / "c.ini", STUDY_BASE.format(
            kind="beta-sweep", beta_step=0.25, cache=tmp_path / "cache"))
        out = tmp_path / "s"
        assert main(["study", "--config", p, "--out", str(out),
                     "--workers", workers]) == 0
        rows = list(csv.reader((out / "beta_sweep.csv").read_text()
                               .strip().splitlines()))
        solver = json.loads((out / "run_diagnostics.json").read_text())[
            "solver"]
        # one entry per CSV row (the grid points and the coarse FEM row),
        # and the reference, built here rather than read from the cache
        assert sorted(solver) == sorted([r[0] for r in rows[1:]]
                                        + ["reference"])
        for stats in solver.values():
            assert set(stats) == {"path", "cg_iterations", "lu_nnz",
                                  "refinement_steps", "factor_bytes",
                                  "max_interior_residual"}
            assert stats["path"] == "small"
            assert stats["max_interior_residual"] <= 1e-10

    def test_beta_sweep_leaves_no_worker_process(self, tmp_path,
                                                 monkeypatch):
        # two processes, this one included, whatever this host's CPU
        # count: the pool's one process is joined before the study ends
        monkeypatch.setattr(study, "usable_workers", lambda workers: workers)
        p = write_config(tmp_path / "c.ini", STUDY_BASE.format(
            kind="beta-sweep", beta_step=0.25, cache=tmp_path / "cache"))
        assert main(["study", "--config", p, "--out", str(tmp_path / "s"),
                     "--workers", "2"]) == 0
        assert multiprocessing.active_children() == []

    def test_beta_grid_stops_at_one(self, tmp_path):
        p = write_config(tmp_path / "c.ini", STUDY_BASE.format(
            kind="beta-sweep", beta_step=0.35, cache=tmp_path / "cache")
            .replace("n_grains = 8", "n_grains = 6"))
        out = tmp_path / "s"
        assert main(["study", "--config", p, "--out", str(out)]) == 0
        rows = list(csv.reader((out / "beta_sweep.csv").read_text()
                               .strip().splitlines()))
        assert [r[0] for r in rows[1:]] == ["0.35", "0.7", "FEM-O1-coarse"]
        # the coarse row is the beta = 1 blend, evaluated off the grid
        solver = json.loads((out / "run_diagnostics.json").read_text())[
            "solver"]
        assert sorted(solver) == ["0.35", "0.7", "FEM-O1-coarse", "reference"]

    @pytest.mark.parametrize("kind,beta_step,extra,message", [
        ("beta-sweep", 1.5, "", "beta_step must be in"),
        ("fraction-sweep", 0.5, "fraction_step = 0.95\n",
         "fraction_step must be in"),
    ])
    def test_bad_sweep_step_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, kind, beta_step, extra,
            message):
        import polyvem.cli as cli

        def no_mesh(cfg):
            raise AssertionError("mesh built before the steps were checked")
        monkeypatch.setattr(cli, "build_mesh", no_mesh)
        cache, out = tmp_path / "cache", tmp_path / "s"
        p = write_config(tmp_path / "c.ini", STUDY_BASE.format(
            kind=kind, beta_step=beta_step, cache=cache) + extra)
        assert main(["study", "--config", p, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not cache.exists() and not out.exists()

    def test_workers_do_not_change_bytes(self, tmp_path, monkeypatch):
        # as many workers as asked, whatever this host's CPU count
        monkeypatch.setattr(study, "usable_workers", lambda workers: workers)
        for kind, csv_name, all_workers in (
                ("beta-sweep", "beta_sweep.csv", ("2", "3")),  # 3: uneven chunks
                ("comparison", "comparison.csv", ("2", "3")),  # 2 methods
                ("fraction-sweep", "fraction_sweep.csv", ("2", "3"))):
            cfg = STUDY_BASE.format(kind=kind, beta_step=0.25,
                                    cache=tmp_path / "cache")
            if kind == "fraction-sweep":
                cfg += "fraction_step = 0.45\nfraction_seed = 9\n"
            p = write_config(tmp_path / f"{kind}.ini", cfg)
            o1 = tmp_path / kind / "w1"
            assert main(["study", "--config", p, "--out", str(o1)]) == 0
            for workers in all_workers:
                o2 = tmp_path / kind / f"w{workers}"
                assert main(["study", "--config", p, "--out", str(o2),
                             "--workers", workers]) == 0
                assert (o1 / csv_name).read_bytes() == \
                    (o2 / csv_name).read_bytes(), (kind, workers)

    @pytest.mark.parametrize("kind,references", [
        ("comparison", 1), ("beta-sweep", 1),
        ("fraction-sweep", 3)])       # 0.05, 0.5, 0.95: three layouts
    def test_one_reference_per_distinct_setup(self, tmp_path, monkeypatch,
                                             kind, references):
        # no cache: every reference a study reads is one it builds
        monkeypatch.setattr(study, "usable_workers", lambda workers: workers)
        monkeypatch.setattr(study, "_pool_map", shipped)
        builds = reference_builds(monkeypatch)
        cfg = STUDY_BASE.format(kind=kind, beta_step=0.5, cache="")
        cfg = cfg.replace("cache = \n", "fraction_step = 0.45\n")
        p = write_config(tmp_path / "c.ini", cfg)
        outs = []
        for workers in ("1", "2", "3"):
            builds.clear()
            outs.append(tmp_path / f"w{workers}")
            assert main(["study", "--config", p, "--out", str(outs[-1]),
                         "--workers", workers]) == 0
            assert builds == [1] * references, workers
        name, = (n for n in os.listdir(outs[0]) if n.endswith(".csv"))
        assert len({(out / name).read_bytes() for out in outs}) == 1

    def test_repeated_layouts_share_one_setup(self, tmp_path, monkeypatch):
        # fraction seed 9 gives this sample 7 layouts over the 10 points of
        # step 0.1; each is run once, and its rows are that run's
        monkeypatch.setattr(study, "usable_workers", lambda workers: workers)
        monkeypatch.setattr(study, "_pool_map", shipped)
        builds = reference_builds(monkeypatch)
        cfg = STUDY_BASE.format(kind="fraction-sweep", beta_step=0.5,
                                cache="")
        cfg = cfg.replace("cache = \n", "fraction_step = 0.1\n"
                                         "fraction_seed = 9\n")
        p = write_config(tmp_path / "c.ini", cfg)
        tables = []
        for workers in ("1", "2", "3"):
            builds.clear()
            out = tmp_path / f"w{workers}"
            assert main(["study", "--config", p, "--out", str(out),
                         "--workers", workers]) == 0
            assert len(builds) == 7, workers
            tables.append((out / "fraction_sweep.csv").read_bytes())
        assert tables[1] == tables[0] and tables[2] == tables[0]
        rows = list(csv.reader(tables[0].decode().splitlines()[1:]))
        assert len(rows) == 10
        # the greedy draw takes grains in one order, so a layout is its
        # number of active grains; twins differ in their target alone
        twins = {}
        for row in rows:
            twins.setdefault(row[2], []).append(row[1:])
        assert len(twins) == 7
        for rest in twins.values():
            assert all(other == rest[0] for other in rest)
        # and each layout its own numbers
        assert len({tuple(rest[0][3:]) for rest in twins.values()}) == 7

    def test_fraction_sweep_records_the_mode_it_ran_in(self, tmp_path):
        cfg = STUDY_BASE.format(kind="fraction-sweep", beta_step=0.5,
                                cache=tmp_path / "cache")
        p = write_config(tmp_path / "c.ini", cfg + "fraction_step = 0.45\n")
        out = tmp_path / "s"
        assert main(["study", "--config", p, "--out", str(out)]) == 0
        prov = json.loads((out / "provenance.json").read_text())
        # STUDY_BASE asks for electroMech, which a fraction sweep runs as
        # fullyCoupled (docs/formats.md)
        assert (prov["kind"], prov["mode"]) == ("fraction-sweep",
                                                "fullyCoupled")

    def test_truncated_cache_entry_is_recomputed(self, tmp_path):
        cache = tmp_path / "cache"
        p = write_config(tmp_path / "c.ini", STUDY_BASE.format(
            kind="beta-sweep", beta_step=0.5, cache=cache))
        o1, o2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["study", "--config", p, "--out", str(o1)]) == 0
        entry, = cache.glob("reference-*.json")
        whole = entry.read_bytes()
        entry.write_bytes(whole[:len(whole) // 2])
        assert main(["study", "--config", p, "--out", str(o2)]) == 0
        assert entry.read_bytes() == whole
        assert sorted(os.listdir(cache)) == [entry.name]
        assert (o1 / "beta_sweep.csv").read_bytes() == \
            (o2 / "beta_sweep.csv").read_bytes()

    def test_fraction_sweep_rows_and_rerun_determinism(self, tmp_path):
        cfg = STUDY_BASE.format(kind="fraction-sweep", beta_step=0.5,
                                cache=tmp_path / "cache")
        cfg = cfg.replace("mode = electroMech", "mode = fullyCoupled")
        cfg += "fraction_step = 0.45\nfraction_seed = 9\n"
        cfg = cfg.replace("names = hex_high_anisotropy", "names = BaTiO3")
        p = write_config(tmp_path / "c.ini", cfg)
        o1, o2 = tmp_path / "f1", tmp_path / "f2"
        assert main(["study", "--config", p, "--out", str(o1)]) == 0
        assert main(["study", "--config", p, "--out", str(o2),
                     "--workers", "2"]) == 0
        body = (o1 / "fraction_sweep.csv").read_text().strip().splitlines()
        rows = list(csv.reader(body))
        assert rows[0][:4] == ["fraction_target", "fraction_achieved",
                               "n_active_grains", "beta_opt"]
        assert [r[0] for r in rows[1:]] == ["0.05", "0.5", "0.95"]
        assert (o1 / "fraction_sweep.csv").read_bytes() == \
            (o2 / "fraction_sweep.csv").read_bytes()

    def test_fraction_sweep_writes_solver_counters(self, tmp_path):
        cfg = STUDY_BASE.format(kind="fraction-sweep", beta_step=0.5,
                                cache=tmp_path / "cache")
        cfg += "fraction_step = 0.45\nfraction_seed = 9\n"
        p = write_config(tmp_path / "c.ini", cfg)
        outs = tmp_path / "built", tmp_path / "cached"
        for out in outs:
            assert main(["study", "--config", p, "--out", str(out)]) == 0
        keys = {"path", "cg_iterations", "lu_nnz", "refinement_steps",
                "factor_bytes", "max_interior_residual"}
        for out, built in zip(outs, (True, False)):
            solver = json.loads((out / "run_diagnostics.json").read_text())[
                "solver"]
            # one entry per CSV row, keyed by its fraction_target
            assert sorted(solver) == ["0.05", "0.5", "0.95"]
            for row in solver.values():
                assert sorted(row) == ["0.1", "reference"]
                assert set(row["0.1"]) == keys
                assert row["0.1"]["max_interior_residual"] <= 1e-10
                assert (set(row["reference"]) == keys if built
                        else row["reference"] == {"cached": True})
        # the counters stay out of the numeric table
        first, second = ((out / "fraction_sweep.csv").read_text()
                         for out in outs)
        assert first == second
        assert first.splitlines()[0] == (
            "fraction_target,fraction_achieved,n_active_grains,beta_opt,"
            "E_C_G_pct_beta_default,D_rel_G_pct_beta_opt")

    def test_comparison_runs_all_methods(self, tmp_path):
        cfg = STUDY_BASE.format(kind="comparison", beta_step=0.05,
                                cache=tmp_path / "cache")
        cfg += "methods = VEM-VO,FEM-O1-coarse,FEM-O2-coarse\n"
        p = write_config(tmp_path / "c.ini", cfg)
        out = tmp_path / "s"
        assert main(["study", "--config", p, "--out", str(out)]) == 0
        rows = list(csv.reader((out / "comparison.csv").read_text()
                               .strip().splitlines()))
        assert [r[0] for r in rows[1:]] == ["VEM-VO", "FEM-O1-coarse",
                                            "FEM-O2-coarse"]
        assert "wall" not in rows[0]  # timings live in diagnostics only

    def test_comparison_solver_counters_stay_in_diagnostics(self, tmp_path):
        cfg = STUDY_BASE.format(kind="comparison", beta_step=0.05,
                                cache=tmp_path / "cache")
        p = write_config(tmp_path / "c.ini", cfg)
        built, cached = tmp_path / "built", tmp_path / "cached"
        assert main(["study", "--config", p, "--out", str(built)]) == 0
        assert main(["study", "--config", p, "--out", str(cached)]) == 0
        for name in ("comparison.csv", "provenance.json"):
            assert (built / name).read_bytes() == (cached / name).read_bytes()
        methods = [r[0] for r in csv.reader(
            (built / "comparison.csv").read_text().strip().splitlines()[1:])]
        solver = [json.loads((out / "run_diagnostics.json").read_text())
                  ["solver"] for out in (built, cached)]
        for stats in solver:
            assert sorted(stats) == sorted(methods + ["reference"])
            for method in methods:
                assert stats[method]["path"] == "small"
                assert stats[method]["max_interior_residual"] <= 1e-10
        assert solver[0]["reference"]["lu_nnz"]
        assert solver[1]["reference"] == {"cached": True}


class TestMaterialsCommand:
    def test_prints_table_with_anisotropy_index(self, capsys):
        assert main(["materials"]) == 0
        text = capsys.readouterr().out
        assert "BaTiO3" in text and "CoFe2O4" in text
        assert "A_U" in text
        ba = next(line for line in text.splitlines() if "BaTiO3" in line)
        assert float(ba.split()[-1]) >= 0.0

    def test_optional_out_writes_table(self, tmp_path, capsys):
        out = tmp_path / "mt"
        assert main(["materials", "--out", str(out)]) == 0
        assert (out / "materials.txt").read_text() == capsys.readouterr().out


class TestEntryPoint:
    def test_module_invocation_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "polyvem.cli", "materials"],
            capture_output=True, text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        assert proc.returncode == 0
        assert "BaTiO3" in proc.stdout

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap thresholds are glibc's")
    def test_large_arrays_stay_out_of_the_heap(self):
        """After main, a 6 MiB array gets a mapping of its own, even once a
        freed 20 MiB array has raised glibc's own threshold past it; a
        fresh process, so that no earlier main has set the thresholds."""
        code = "\n".join((
            "import numpy as np",
            "from polyvem.cli import main",
            "assert main(['materials']) == 0",
            "freed = np.ones(20 << 17)",
            "del freed",
            "a = np.ones(6 << 17)",
            "heap = [[int(x, 16) for x in line.split()[0].split('-')]",
            "        for line in open('/proc/self/maps')",
            "        if line.rstrip().endswith('[heap]')]",
            "print(any(lo <= a.ctypes.data < hi for lo, hi in heap))"))
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(root, "src")})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


# one valid config per command: every key of the schema but `out`, at
# values that keep each run to a 2-grain mesh, one refinement level and
# one process
_FUZZ_COMMON = {
    "run": {"seed": "3", "workers": "1"},
    "mesh": {"source": "generate", "path": "mesh.poly.txt", "n_grains": "2",
             "mesh_seed": "11", "edge_length": "1.0", "lloyd": "0"},
    "materials": {"library": "builtin", "names": "BaTiO3,CoFe2O4",
                  "orientation_seed": "12"},
}
_FUZZ_CONFIGS = [("homogenize", {**_FUZZ_COMMON, "homogenize": {
    "mode": "electroMech", "method": "VEM-VO", "beta": "0.1"}})] + [
    ("study", {**_FUZZ_COMMON, "study": {
        "kind": kind, "mode": "electroMech", "methods": "VEM-VO",
        "targets": "G,C", "beta": "0.1", "beta_step": "0.5",
        "fraction_step": "0.9", "fraction_seed": "4",
        "reference_levels": "1", "cache": "cache"}})
    for kind in ("comparison", "beta-sweep", "fraction-sweep")]
_FUZZ_TOKENS = ("", "nan", "inf", "-1", "0", "x", "²", "1e999", "0x10")


@st.composite
def damaged_configs(draw):
    """(command, config text): a valid config with one or two edits, each
    a value replaced by a bad token, a key other than n_grains dropped,
    an unknown key added, a section other than [mesh] emptied, or a
    section written twice (which configparser rejects)."""
    command, sections = draw(st.sampled_from(_FUZZ_CONFIGS))
    sections = [(name, dict(body)) for name, body in sections.items()]
    for action in draw(st.lists(st.sampled_from(
            ("replace", "drop", "add", "empty", "repeat")),
            min_size=1, max_size=2)):
        keys = [(body, key) for _, body in sections for key in body]
        if action == "replace":
            body, key = draw(st.sampled_from(keys))
            body[key] = draw(st.sampled_from(_FUZZ_TOKENS))
        elif action == "drop":
            body, key = draw(st.sampled_from(
                [(body, key) for body, key in keys if key != "n_grains"]))
            del body[key]
        elif action == "add":
            draw(st.sampled_from(sections))[1]["colour"] = "1"
        elif action == "empty":
            draw(st.sampled_from([body for name, body in sections
                                  if name != "mesh"])).clear()
        else:
            name, body = draw(st.sampled_from(sections))
            sections.append((name, dict(body)))
    text = "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n"
                                           for key, value in body.items())
                   for name, body in sections)
    return command, text


@st.composite
def damaged_mesh_texts(draw):
    """The six-grain native mesh text without its CHECKSUM line, with one
    or two lines dropped, repeated, or with one token replaced by a bad
    token."""
    lines = six_grain_texts()["native-no-checksum"][0].splitlines()
    for action in draw(st.lists(st.sampled_from(("drop", "repeat", "token")),
                                min_size=1, max_size=2)):
        k = draw(st.integers(0, len(lines) - 1))
        if action == "drop":
            del lines[k]
        elif action == "repeat":
            lines.insert(k, lines[k])
        else:
            tokens = lines[k].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                st.sampled_from(_FUZZ_TOKENS))
            lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


class TestDamagedConfigs:
    @settings(max_examples=40, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(damaged_configs())
    def test_damaged_config_ends_in_an_exit_code(self, tmp_path, monkeypatch,
                                                 case):
        # `out` and `cache` values become paths: keep them in tmp_path
        monkeypatch.chdir(tmp_path)
        command, text = case
        p = write_config(tmp_path / "c.ini", text)
        assert main([command, "--config", p,
                     "--out", str(tmp_path / "o")]) in (0, 2, 3, 4)

    @settings(max_examples=40, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(damaged_mesh_texts())
    def test_damaged_mesh_file_ends_in_an_exit_code(self, tmp_path, text):
        mesh_file = tmp_path / "m.poly"
        mesh_file.write_text(text, encoding="utf-8")
        p = write_config(tmp_path / "c.ini",
                         f"[mesh]\nsource = file\npath = {mesh_file}\n"
                         "[homogenize]\nmode = electroMech\n")
        assert main(["homogenize", "--config", p,
                     "--out", str(tmp_path / "o")]) in (0, 2, 3, 4)

    def test_repeated_section_exits_2(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.ini",
                         "[run]\nseed = 3\n[mesh]\n[run]\nseed = 4\n")
        assert main(["mesh", "--config", p, "--out", str(tmp_path / "o")]) == 2
        assert "section 'run' already exists" in capsys.readouterr().err


REPO = os.path.join(os.path.dirname(__file__), os.pardir)


def documented_schema() -> dict:
    """Section -> keys of the `[section] keys` block of docs/formats.md,
    with the parenthesized value hints dropped."""
    with open(os.path.join(REPO, "docs", "formats.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = "[run]" + text.split("```\n[run]", 1)[1].split("```", 1)[0]
    plain, depth = [], 0
    for ch in block:
        depth += ch == "("
        if depth == 0:
            plain.append(ch)
        depth -= ch == ")"
    return {m.group(1): {k.strip() for k in m.group(2).split(",") if k.strip()}
            for m in re.finditer(r"\[(\w+)\]([^[]*)", "".join(plain))}


def documented_lattices() -> dict:
    """Lattice class -> its parameters, from the block of docs/formats.md
    that lists them: a line that starts with a name starts a class, and
    indented lines continue it."""
    with open(os.path.join(REPO, "docs", "formats.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("```\nhex6mm", 1)[1].split("```", 1)[0]
    lattices, name = {}, None
    for line in ("hex6mm" + block).splitlines():
        words = line.split()
        if not line[:1].isspace():
            name, words = words[0], words[1:]
        lattices[name] = lattices.get(name, ()) + tuple(words)
    return lattices


def documented_result_keys() -> list:
    """Keys of the `result.json` block of docs/formats.md: the first word
    of each line."""
    with open(os.path.join(REPO, "docs", "formats.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Result JSON", 1)[1].split("```\n", 2)[1]
    return [line.split()[0] for line in block.splitlines()]


class TestDocumentedConfig:
    def test_formats_doc_lists_the_schema(self):
        assert documented_schema() == {section: set(keys) for section, keys
                                       in CONFIG.items()}

    def test_formats_doc_lists_the_lattice_parameters(self):
        documented = documented_lattices()
        assert list(documented) == list(LATTICE_CLASSES)
        assert documented == REQUIRED_PARAMETERS

    def test_formats_doc_lists_the_result_keys(self):
        mesh = generate_voronoi(random_seeds(2, 1.0, 11).seeds, 1.0)
        lib = builtin_library()
        layout = GrainLayout.random(lib, "BaTiO3", 2, 12)
        result = homogenize_vem(mesh, layout.moduli(lib, "electroMech"),
                                beta=0.1, mode="electroMech")
        assert documented_result_keys() == list(
            json.loads(result_to_json(result)))

    def test_demo_configs_load(self):
        paths = sorted(glob.glob(os.path.join(REPO, "demos", "configs",
                                              "*.ini")))
        assert paths
        for path in paths:
            load_config(path)

    def test_demo_configs_pass_every_setting_check(self, monkeypatch):
        # each config through `main` up to its command, with no mesh work:
        # a renamed key or study kind fails here before it fails a user
        ran = []
        monkeypatch.setattr(cli, "_COMMANDS", {
            name: lambda cfg, verbose, name=name: ran.append(name) or 0
            for name in cli._COMMANDS})
        paths = sorted(glob.glob(os.path.join(REPO, "demos", "configs",
                                              "*.ini")))
        commands = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                commands.append(re.search(r"polyvem (\w+) --config",
                                          fh.readline()).group(1))
            assert main([commands[-1], "--config", path]) == 0, path
        assert ran == commands
        kinds = {setting for path in paths
                 for setting in [load_config(path)["study"].get("kind")]
                 if setting}
        assert kinds == set(cli._STUDY_CSV)     # an example of every kind
