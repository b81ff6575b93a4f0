import copy
import json

import pytest

import checks
import child
from workloads import WORKLOADS

PINNED = json.loads((child.HERE / "pinned.json").read_text())["workloads"]
O2 = WORKLOADS["homogenize-o2-20"]


@pytest.fixture(scope="module")
def o2_run(tmp_path_factory):
    """One checked op of homogenize-o2-20 at seed 0 and its runner."""
    paths = child.Paths(tmp_path_factory.mktemp("work"))
    assert child.setup(O2, 0, paths) == 0
    cli = child.import_polyvem()
    runner = child.OpRunner(cli, O2, paths, PINNED[O2.name]["0"])
    return runner, runner.run()


def _perturbed(pinned, rel=1e-6):
    wrong = copy.deepcopy(pinned)
    wrong["result.json"]["effective"][0][0] *= 1.0 + rel
    return wrong


def test_seed_op_matches_pins(o2_run):
    runner, op = o2_run
    assert op["problems"] == []
    assert {"result.json", "effective.csv", "provenance.json"} <= set(op["files"])


def test_wrong_pinned_value_fails_the_op(o2_run):
    runner, _ = o2_run
    runner.pinned = _perturbed(PINNED[O2.name]["0"])
    try:
        op = runner.run()
    finally:
        runner.pinned = PINNED[O2.name]["0"]
    assert any("block C differs from pinned" in p for p in op["problems"])


def test_pins_hold_to_rel_tol_only(o2_run):
    _, op = o2_run
    pinned = PINNED[O2.name]["0"]
    assert checks.check_outputs(O2, op["files"], _perturbed(pinned, 1e-11)) == []
    assert checks.check_outputs(O2, op["files"], _perturbed(pinned, 1e-8))


def test_hill_residual_bound(o2_run):
    _, op = o2_run
    doc = json.loads(op["files"]["result.json"])
    doc["hill_residuals"][3] = 2e-10
    problems = checks.check_result("result.json", json.dumps(doc), None)
    assert problems and "Hill residual" in problems[0]


def _sweep_csv(pinned):
    cols = list(pinned["columns"])
    lines = [",".join(["beta", *cols])]
    for i, row in enumerate(pinned["rows"]):
        lines.append(",".join([row] + [f"{pinned['columns'][c][i]:.12e}"
                                       for c in cols]))
    return "\n".join(lines) + "\n"


def test_wrong_pinned_csv_column_fails():
    pinned = PINNED["sweep-beta-warm-20"]["0"]["beta_sweep.csv"]
    text = _sweep_csv(pinned)
    assert checks.check_csv("beta_sweep.csv", text, pinned) == []
    wrong = copy.deepcopy(pinned)
    col = next(iter(wrong["columns"]))
    wrong["columns"][col][5] *= 1.0 + 1e-6
    assert checks.check_csv("beta_sweep.csv", text, wrong)
    wrong["rows"] = wrong["rows"][1:]
    assert "rows" in checks.check_csv("beta_sweep.csv", text, wrong)[0]


def test_rerun_identity_ignores_diagnostics_only():
    first = {"a.csv": b"1\n", "run_diagnostics.json": b"{}"}
    same = {"a.csv": b"1\n", "run_diagnostics.json": b"{\"t\": 2}"}
    assert checks.check_identical(same, first) == []
    assert checks.check_identical({"a.csv": b"2\n"}, first)


def test_cache_rules():
    warm = WORKLOADS["sweep-beta-warm-20"]
    cold = WORKLOADS["compare-cold-20"]
    files = {"beta_sweep.csv": b"beta\n", "provenance.json": b"{}"}
    assert checks.check_outputs(warm, files, None) == []
    missed = {**files, checks.CACHE_PREFIX + "reference-x.json": b"{}"}
    assert any("cache missed" in p for p in
               checks.check_outputs(warm, missed, None))
    cold_files = {"comparison.csv": b"method\n", "provenance.json": b"{}"}
    assert any("no reference" in p for p in
               checks.check_outputs(cold, cold_files, None))


def test_count_mismatches():
    assert checks.count_mismatches({"a": 1, "b": 2}, {"a": 1, "b": 2}) == []
    assert checks.count_mismatches({"a": 1, "b": 3}, {"a": 1, "b": 2}) == ["b"]
