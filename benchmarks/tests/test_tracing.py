import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import child
import tracing
from workloads import WORKLOADS


def _square(x):
    return x * x


def test_self_time_excludes_children(tmp_path):
    tracer = tracing.Tracer(str(tmp_path))
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    inner, outer = tracer.take()
    assert (inner["name"], outer["name"]) == ("inner", "outer")
    assert inner["parent"] == outer["id"]
    assert abs(outer["self"] - (outer["dur"] - inner["dur"])) < 1e-12


def test_pool_worker_spans_reach_the_parent(tmp_path):
    global _square
    tracer = tracing.Tracer(str(tmp_path))
    original = _square
    _square = tracer.wrap(tracing.POOL_TASK, original)   # pickled by name
    try:
        with tracer.span(tracing.MAIN):
            with ProcessPoolExecutor(2, mp_context=get_context("fork")) as pool:
                assert list(pool.map(_square, range(4), timeout=60)) == \
                    [0, 1, 4, 9]
    finally:
        _square = original
    records = tracer.take()
    tasks = [r for r in records if r["name"] == tracing.POOL_TASK]
    assert len(tasks) == 4
    assert all(r["pid"] != os.getpid() and r["parent"] is None for r in tasks)
    assert not list(tmp_path.iterdir())
    main = next(r for r in records if r["name"] == tracing.MAIN)
    layers = tracing.layer_metrics(records, main["dur"], workers=2)
    assert layers["cli.pool.worker_busy_s"] > 0.0
    assert 0.0 < layers["cli.pool.utilization"] <= 1.0


def test_layer_metrics_from_records():
    def rec(name, id_, parent=None, pid=1, dur=1.0, self_=1.0, **attrs):
        return {"name": name, "pid": pid, "id": id_, "parent": parent,
                "dur": dur, "self": self_, "attrs": attrs}
    records = [
        rec("mesh.triangulate_cell", 1, 0, cell=0, tets=5),
        rec("mesh.triangulate_cell", 2, 0, cell=0, tets=5),
        rec("mesh.triangulate_cell", 3, 0, cell=1, tets=7),
        rec("assembly.factorize", 4, 0, n=10, nnz=50),
        rec("assembly.splu", 9, 4, fill=90),
        rec("assembly.factorize", 5, 0, n=30, nnz=200),
        rec("assembly.splu", 10, 5, fill=900),
        rec("homogenization.homogenize_fem", 7, 6),
        rec("study.build_reference", 6, 0),
        rec("study.build_reference", 8, 0),
        rec(tracing.MAIN, 0, dur=12.5, self_=2.5),
    ]
    m = tracing.layer_metrics(records, 12.5, workers=1)
    assert m["mesh.n_tets"] == 12 and m["mesh.triangulate_cell.calls"] == 3
    assert (m["assembly.n_dofs"], m["assembly.nnz"], m["assembly.lu_fill"]) \
        == (30, 200, 900)
    assert (m["study.cache_hits"], m["study.cache_misses"]) == (1, 1)
    assert m["trace.coverage"] == 0.8
    assert set(tracing.COUNTS) <= set(m)


def test_install_covers_import_sites_and_uninstalls(tmp_path):
    child.import_polyvem()
    import polyvem.cli
    import polyvem.homogenization as hom
    import polyvem.study as study
    import scipy.sparse.linalg as spla
    before = (hom.homogenize_vem, study.homogenize_vem, polyvem.cli._beta_point,
              hom.VemElement.__init__, spla.splu)
    uninstall, missing = tracing.install(tracing.Tracer(str(tmp_path)))
    try:
        assert missing == []
        assert study.homogenize_vem is hom.homogenize_vem
        after = (hom.homogenize_vem, study.homogenize_vem,
                 polyvem.cli._beta_point, hom.VemElement.__init__, spla.splu)
        assert all(a is not b for a, b in zip(after, before))
    finally:
        uninstall()
    assert (hom.homogenize_vem, study.homogenize_vem, polyvem.cli._beta_point,
            hom.VemElement.__init__, spla.splu) == before


def test_traced_op_is_covered_by_layer_spans(tmp_path):
    workload = WORKLOADS["homogenize-o2-20"]
    paths = child.Paths(tmp_path)
    assert child.setup(workload, 1, paths) == 0
    runner = child.OpRunner(child.import_polyvem(), workload, paths, None)
    tracer = tracing.Tracer(str(tmp_path))
    uninstall, _ = tracing.install(tracer)
    try:
        ops, layers = [], []
        for _ in range(2):
            ops.append(runner.run(tracer))
            layers.append(tracing.layer_metrics(tracer.take(),
                                                ops[-1]["wall"], 1))
    finally:
        uninstall()
    assert all(op["problems"] == [] for op in ops)
    counts = [{k: layer[k] for k in tracing.COUNTS} for layer in layers]
    assert counts[0] == counts[1]
    assert counts[0]["assembly.factorize.calls"] == 1
    assert counts[0]["assembly.lu_fill"] > counts[0]["assembly.nnz"] > 0
    assert layers[0]["trace.coverage"] >= 0.9


def test_install_reports_targets_it_cannot_find(tmp_path, monkeypatch):
    child.import_polyvem()
    monkeypatch.setattr(tracing, "FUNCTIONS", tracing.FUNCTIONS + (
        ("polyvem.mesh", "no_such_function", "mesh.no_such_function", None),))
    monkeypatch.setattr(tracing, "METHODS", tracing.METHODS + (
        ("polyvem.assembly", "SparseSystem", "no_such_method",
         "assembly.no_such_method", None),))
    uninstall, missing = tracing.install(tracing.Tracer(str(tmp_path)))
    uninstall()
    assert missing == ["polyvem.mesh.no_such_function",
                       "polyvem.assembly.SparseSystem.no_such_method"]
