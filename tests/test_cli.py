"""Command-line interface: config validation, exit codes, outputs,
determinism, and worker parallelism."""

import csv
import glob
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from polyvem.cli import _SCHEMA, ConfigError, config_digest, load_config, main
from polyvem.homogenization import (GrainLayout, homogenize_vem,
                                    result_from_json)
from polyvem.materials import builtin_library
from polyvem.mesh import generate_voronoi, random_seeds, read_mesh

from test_mesh import broken_native_texts


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

    def test_unknown_material_exits_2(self, tmp_path):
        p = write_config(tmp_path / "c.ini", BASE.format(n=2, names="unobtainium"))
        assert main(["homogenize", "--config", p,
                     "--out", str(tmp_path / "o")]) == 2

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
        assert list(wall) == ["study"]
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
            assert set(stats) == {"path", "minres_iterations", "lu_nnz",
                                  "max_interior_residual"}
            assert stats["path"] == "small"
            assert stats["max_interior_residual"] <= 1e-10

    def test_beta_grid_stops_at_one(self, tmp_path):
        p = write_config(tmp_path / "c.ini", STUDY_BASE.format(
            kind="beta-sweep", beta_step=0.35, cache=tmp_path / "cache")
            .replace("n_grains = 8", "n_grains = 6"))
        out = tmp_path / "s"
        assert main(["study", "--config", p, "--out", str(out)]) == 0
        rows = list(csv.reader((out / "beta_sweep.csv").read_text()
                               .strip().splitlines()))
        assert [r[0] for r in rows[1:]] == ["0.35", "0.7", "FEM-O1-coarse"]

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

    def test_workers_do_not_change_bytes(self, tmp_path):
        for kind, csv_name, all_workers in (
                ("beta-sweep", "beta_sweep.csv", ("2", "3")),  # 3: uneven chunks
                ("fraction-sweep", "fraction_sweep.csv", ("2",))):
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


class TestDocumentedConfig:
    def test_formats_doc_lists_the_schema(self):
        assert documented_schema() == _SCHEMA

    def test_demo_configs_load(self):
        paths = sorted(glob.glob(os.path.join(REPO, "demos", "configs",
                                              "*.ini")))
        assert paths
        for path in paths:
            load_config(path)
