"""Tests of the benchmark's own code: generator, checks, tracer and names."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import cagewarp as cw  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cagewarp import geometry, losses, optim  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _inputs(workload, tmp_path):
    """Digest of everything ``prepare`` generated."""
    w = workload(7, tmp_path)
    w.prepare()
    if workload is workloads.TransferCli:
        return workloads.digest(*(p.read_bytes() for p in w.paths.values()))
    arrays = [v for v in vars(w).values() if isinstance(v, np.ndarray)]
    for v in vars(w).values():
        for attr in ("vertices", "faces", "points"):
            if hasattr(v, attr):
                arrays.append(getattr(v, attr))
    return workloads.digest(*arrays)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    assert _inputs(cls, tmp_path / "a") == _inputs(cls, tmp_path / "b")


@pytest.mark.parametrize("name", ["deform_pair", "fit_cage", "transfer_cli"])
def test_generator_varies_with_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    a = cls(1, tmp_path / "a")
    b = cls(2, tmp_path / "b")
    a.prepare()
    b.prepare()
    if name == "transfer_cli":
        assert a.paths["shape"].read_bytes() != b.paths["shape"].read_bytes()
    elif name == "deform_pair":
        assert not np.array_equal(a.target.vertices, b.target.vertices)
    else:
        assert not np.array_equal(a.novel.points, b.novel.points)


def _span(name, start, end, parent, call=0):
    return [name, start, end, parent, call, False]


def test_self_times_on_synthetic_tree():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("b.child", 5.5, 6.0, 3),
        _span("b.child", 7.0, 8.0, 3),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 2.5, 0.5, 1.0]
    assert sum(spans.self_times(tree)) == 10.0


def test_self_times_count_overlapping_children_once():
    tree = [_span("root", 0.0, 10.0, -1), _span("x", 1.0, 5.0, 0),
            _span("y", 3.0, 7.0, 0), _span("z", 9.0, 12.0, 0)]
    # children cover 1..7 and 9..10 of the root
    assert spans.self_times(tree)[0] == pytest.approx(3.0)


def test_layer_metrics_per_step_and_repeat_fractions():
    tr = spans.Tracer(targets=[])
    tr.spans = [_span("optim.loop", 0.0, 1.0, -1),
                _span("mvc.weights", 0.1, 0.5, 0),
                _span("mvc.weights", 0.5, 0.9, 0)]
    tr.begin_call(0)
    for pts in ([1.0], [2.0], [1.0]):
        tr.note_input("kdtree", np.array(pts))
    tr.begin_call(1)  # a new call: an earlier call's input is not a repeat
    tr.note_input("kdtree", np.array([1.0]))
    m = spans.layer_metrics(tr, steps=2)
    assert m["mvc.weights_ms"] == pytest.approx(400.0)
    assert m["mvc.weights_calls"] == 1.0
    assert m["optim.loop_self_ms"] == pytest.approx(100.0)
    assert m["geometry.kdtree_rebuild_frac"] == 0.25
    assert set(m) | {"process.cpu_util", "tracing.overhead_frac"} == set(
        spans.UNITS)


def _traced(workload, tracer):
    tracer.begin_call(0)
    with tracer, tracer.span(workload.root_span):
        return workload.outcome(workload.call(workload.budget))


@pytest.mark.parametrize("name", ["fit_cage", "train_toy"])
def test_tracer_leaves_results_unchanged(name, tmp_path):
    w = workloads.WORKLOADS[name](0, tmp_path)
    w.budget = 4
    w.prepare()
    plain = w.outcome(w.call(w.budget))
    tracer = spans.Tracer()
    traced = _traced(w, tracer)
    assert traced.digest == plain.digest
    assert not tracer.absent
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"optim.loop", "autodiff.backward", "optim.adam"} <= names
    assert optim.mvc_weights is cw.mvc.mvc_weights  # patches were undone


def test_tracer_wraps_index_and_plane_fits_without_changing_values():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(50, 3)), rng.normal(size=(40, 3))
    ps = geometry.pointset_from_mesh_vertices(cw.make_box_mesh(2))
    moved = ps.points * 1.1
    plain = (losses.chamfer(a, b), losses.p2f_term(ps, moved),
             losses.normal_term(ps, moved))
    tracer = spans.Tracer()
    tracer.begin_call(0)
    with tracer:
        traced = (losses.chamfer(a, b), losses.p2f_term(ps, moved),
                  losses.normal_term(ps, moved))
    assert traced == plain
    assert losses.SpatialIndex is geometry.SpatialIndex
    m = spans.layer_metrics(tracer, steps=1)
    assert m["geometry.kdtree_builds"] == 2.0
    assert m["geometry.pca_calls"] == 2.0
    assert m["geometry.pca_repeat_frac"] == 0.5
    assert m["losses.chamfer_calls"] == 1.0


def test_tracer_tolerates_a_missing_name():
    targets = spans.TARGETS + [
        ("cagewarp.optim", "no_such_function", "optim.x", None, None),
        ("cagewarp.no_such_module", "f", "optim.y", None, None),
    ]
    tracer = spans.Tracer(targets=targets)
    with tracer:
        assert optim.mvc_weights is not cw.mvc.mvc_weights
    assert tracer.absent == ["cagewarp.optim.no_such_function",
                             "cagewarp.no_such_module.f"]
    assert optim.mvc_weights is cw.mvc.mvc_weights


def test_check_tolerates_reordering_noise_but_not_wrong_output():
    out = workloads.Outcome(steps=3, totals=np.array([3.0, 2.0, 1.0]),
                            values={"final_total": 1.0},
                            fingerprint=[0.5, -2.0, 0.0], digest="")
    ref = {"values": {"final_total": 1.0 + 1e-12},
           "fingerprint": [0.5 * (1 + 1e-12), -2.0, 1e-13]}
    assert workloads.check(out, 3, ref) == []
    assert workloads.check(out, 4, ref)
    assert workloads.check(out, 3, None)
    wrong = {"values": {"final_total": 1.001}, "fingerprint": ref["fingerprint"]}
    assert workloads.check(out, 3, wrong)
    moved = {"values": ref["values"], "fingerprint": [0.5, -2.0, 1e-3]}
    assert workloads.check(out, 3, moved)


def test_metric_names_and_benchmark_json_agree():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == spans.UNITS
    for name in [*end_to_end, *per_layer, *workloads.WORKLOADS]:
        assert NAME_RE.fullmatch(name), name
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_every_input_set_has_a_reference():
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)
    for name in workloads.WORKLOADS:
        assert sorted(map(int, reference[name])) == list(range(workloads.POOL))
