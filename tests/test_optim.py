import json
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cagewarp.autodiff as ad
from cagewarp import losses, optim, runtime
from cagewarp.geometry import (
    MeshError,
    PointSet,
    TriMesh,
    cage_around,
    make_box_mesh,
    make_template_cage,
    normalize_to_unit_box,
    sample_surface,
)
from cagewarp.losses import chamfer, mvc_penalty
from cagewarp.mvc import FLAG_EXTERIOR_OK, compute_mvc
from cagewarp.toy import SyntheticFamily, train_toy
from conftest import collapsed_face_box, finned_box
from cagewarp.optim import (
    AdamState,
    OptimizationError,
    PipelineConfig,
    adam_step,
    deform_pair,
    fit_cage,
    transfer,
)


def normalized_box(subdiv=5, scale=(0.5, 0.35, 0.25)):
    mesh, _ = normalize_to_unit_box(make_box_mesh(subdiv, scale=scale))
    return mesh


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        state = AdamState(step_size=0.1)
        params = {"x": np.array([1.0, -2.0])}
        out = adam_step(state, params, {"x": np.zeros(2)})
        assert np.array_equal(out["x"], params["x"])

    def test_quadratic_convergence(self):
        state = AdamState(step_size=0.1)
        params = {"x": np.array([1.0])}
        for _ in range(500):
            params = adam_step(state, params, {"x": 2.0 * params["x"]})
        assert abs(params["x"][0]) < 0.01

    def test_first_step_magnitude(self):
        state = AdamState(step_size=0.05)
        params = {"x": np.array([0.0, 0.0])}
        g = np.array([3.0, -0.2])
        out = adam_step(state, params, {"x": g})
        # bias-corrected first step is approximately step_size * sign(g)
        assert np.allclose(out["x"], -0.05 * np.sign(g), rtol=1e-6)

    def test_nan_gradient_aborts(self):
        state = AdamState()
        with pytest.raises(OptimizationError):
            adam_step(state, {"x": np.zeros(2)}, {"x": np.array([1.0, np.nan])})

    def test_shape_mismatch(self):
        state = AdamState()
        with pytest.raises(ValueError):
            adam_step(state, {"x": np.zeros(2)}, {"x": np.zeros(3)})

    def test_default_hyperparameters(self):
        state = AdamState()
        assert state.step_size == 5e-4
        assert (optim.ADAM_BETA1, optim.ADAM_BETA2) == (0.9, 0.999)
        assert optim.ADAM_EPS == 1e-8
        # the step size is the one hyperparameter a caller sets
        assert [f.name for f in fields(AdamState)] == ["step_size", "m", "v",
                                                       "t"]


class TestRunAdam:
    def test_step_tape_released_before_next_evaluate(self):
        # step 1's graph is gone by the time step 2 builds its own
        refs = []

        def evaluate(leaves):
            if refs:
                assert refs[-1]() is None
            x = leaves["x"] * 2.0
            refs.append(weakref.ref(x))
            return {"f": ad.sum_(x * x)}

        params, rep = optim.run_adam({"x": np.ones(3)}, {"f": 1.0}, 0.1, 3,
                                     evaluate)
        assert rep.iterations == 3 and len(refs) == 3
        assert np.all(params["x"] < 1.0)

    @pytest.mark.parametrize("step", [0.0, -1e-3, float("nan"),
                                      float("inf")])
    def test_bad_step_size_rejected(self, step):
        def evaluate(leaves):
            return {"f": ad.sum_(leaves["x"] * leaves["x"])}

        with pytest.raises(ValueError, match=f"got {step}"):
            optim.run_adam({"x": np.ones(3)}, {"f": 1.0}, step, 3, evaluate)


def _backpropagated_totals(monkeypatch):
    """The value of every total that ``run_adam`` takes from
    ``losses.weighted_total`` and backpropagates, in step order."""
    seen = []
    weighted_total = losses.weighted_total

    def spy(terms, weights):
        total = weighted_total(terms, weights)
        seen.append(np.float64(ad.val(total)))
        return total

    monkeypatch.setattr(losses, "weighted_total", spy)
    return seen


def _recorded_bits(report):
    return [np.float64(b.total).tobytes() for b in report.trace]


class TestRecordedTotal:
    """The trace records the value of the total it backpropagates, bit
    for bit: no second sum of the terms."""

    @pytest.mark.parametrize("terms, weights", [
        # a lone negative term weighted 0.0 backpropagates -0.0; a Python
        # sum starting at 0 would record +0.0
        (lambda x: {"f": ad.sum_(x * x) * -1.0}, {"f": 0.0}),
        (lambda x: {"a": 0.3, "b": ad.sum_(x * x), "c": ad.sum_(x) * 1e-17},
         {"a": 1.0, "b": 0.1, "c": 3.0}),
    ], ids=["negative_zero", "mixed"])
    def test_run_adam(self, monkeypatch, terms, weights):
        seen = _backpropagated_totals(monkeypatch)
        _, rep = optim.run_adam({"x": np.linspace(-1.0, 2.0, 4)}, weights,
                                0.1, 3, lambda leaves: terms(leaves["x"]))
        assert _recorded_bits(rep) == [v.tobytes() for v in seen]
        assert len(seen) == 3
        if weights == {"f": 0.0}:
            assert all(np.signbit(b.total) for b in rep.trace)

    def test_pipelines(self, monkeypatch):
        seen = _backpropagated_totals(monkeypatch)
        src = normalized_box(3)
        rep = deform_pair(src, src, PipelineConfig(max_iters=2,
                                                   n_eval_samples=100))[3]
        fam = SyntheticFamily()
        _, toy = train_toy(fam, fam.default_cage(), epochs=2, n_train=2,
                           alpha_shape=0.05)
        assert (_recorded_bits(rep) + _recorded_bits(toy)
                == [v.tobytes() for v in seen])


class TestPipelineConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = PipelineConfig(alpha_mvc=2.0, seed=5, align_mode="l2")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        back = PipelineConfig.from_json(path)
        assert back == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"alpha_mvcc": 1.0}')
        with pytest.raises(ValueError):
            PipelineConfig.from_json(path)

    def test_paper_schedule_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "step_size": 5e-4, "max_iters": 10000,
            "consistency_threshold": 1e-5, "clap_weight": 0.05,
        }))
        cfg = PipelineConfig.from_json(path)
        assert cfg.step_size == 5e-4 and cfg.max_iters == 10000
        assert cfg.consistency_threshold == 1e-5 and cfg.clap_weight == 0.05

    @pytest.mark.parametrize("text, message", [
        ('{"threads": 1.5}', "'threads' must be an integer or null, got 1.5"),
        ('{"max_iters": 2.5}',
         "'max_iters' must be an integer or null, got 2.5"),
        ('{"seed": 1.5}', "'seed' must be an integer, got 1.5"),
        ('{"seed": true}', "'seed' must be an integer, got True"),
        ('{"seed": null}', "'seed' must be an integer, got None"),
        ('{"alpha_mvc": "1"}', "'alpha_mvc' must be a number, got '1'"),
        ('{"step_size": false}',
         "'step_size' must be a number or null, got False"),
        ('{"align_mode": 1}', "'align_mode' must be a string, got 1"),
    ])
    def test_value_of_the_wrong_type_rejected(self, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^config key {message}$"):
            PipelineConfig.from_json(path)

    @pytest.mark.parametrize("text, kind", [
        ("[]", "list"), ("3", "int"), ('"x"', "str"), ("null", "NoneType"),
    ])
    def test_non_object_file_rejected(self, tmp_path, text, kind):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="^config file must hold a JSON "
                                             f"object, got {kind}$"):
            PipelineConfig.from_json(path)

    def test_int_for_a_float_and_null_for_an_optional_accepted(self,
                                                               tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"step_size": 1, "threads": null, "max_iters": null,'
                        ' "cage_scale": 2}')
        cfg = PipelineConfig.from_json(path)
        assert cfg.step_size == 1 and cfg.cage_scale == 2
        assert cfg.threads is None and cfg.max_iters is None

    def test_readme_config_block_matches_the_dataclass(self):
        # README's ```json block lists every key, in field order, at its
        # default; a field added or changed on one side only fails here
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("```json\n", 1)[1].split("```", 1)[0]
        text = "\n".join(line.split("//", 1)[0] for line in block.splitlines())
        documented = json.loads(text)
        assert list(documented) == [f.name for f in fields(PipelineConfig)]
        assert documented == PipelineConfig().to_dict()


_L2_MESSAGE = ("^l2 alignment needs dense correspondence: equal vertex "
               "counts and vertex-based losses$")


def _spy_on_setup(monkeypatch):
    """The list of ``deform_pair``'s setup steps called from here on: the
    cage, the samples, their k-NN tree, the vertex plane fits and Adam."""
    called = []
    for name in ("cage_around", "sample_surface", "knn_neighborhoods",
                 "pointset_from_mesh_vertices", "run_adam"):
        monkeypatch.setattr(optim, name,
                            lambda *args, _n=name, **kw: called.append(_n))
    return called


class TestDeformPair:
    def test_requires_normalized(self):
        mesh = make_box_mesh(2, scale=(0.9, 0.6, 0.4))
        with pytest.raises(ValueError):
            deform_pair(mesh, mesh, PipelineConfig(max_iters=1))

    def test_target_equals_source(self):
        src = normalized_box(5)
        cfg = PipelineConfig(seed=0, max_iters=300, plateau_window=100,
                             n_eval_samples=1000)
        cage, dcage, dmesh, rep = deform_pair(src, src, cfg)
        assert rep.trace[-1].total <= rep.trace[0].total
        got = chamfer(sample_surface(dmesh, 1000, 0).points,
                      sample_surface(src, 1000, 0).points)
        assert got <= 1e-4
        assert cage.n_vertices == 42
        assert np.array_equal(dmesh.faces, src.faces)

    def test_initial_breakdown_decomposition(self):
        src = normalized_box(5)
        cfg = PipelineConfig(seed=0, max_iters=1, n_eval_samples=200)
        cage, dcage, dmesh, rep = deform_pair(src, src, cfg)
        first = rep.trace[0]
        # zero offsets: alignment, p2f and normal all vanish; what remains
        # is the weight penalty plus the two symmetry terms
        assert first.terms["align"] == pytest.approx(0.0, abs=1e-12)
        assert first.terms["p2f"] == pytest.approx(0.0, abs=1e-12)
        assert first.terms["normal"] == pytest.approx(0.0, abs=1e-10)
        m0 = compute_mvc(
            make_template_cage("sphere42",
                               center=0.5 * (src.bbox()[0] + src.bbox()[1]),
                               scale=1.05 * 0.5 * (src.bbox()[1] - src.bbox()[0])),
            src.vertices,
        )
        assert first.terms["mvc"] == pytest.approx(
            float(mvc_penalty(m0.weights)), abs=1e-12)
        expected_total = (
            1.0 * first.terms["mvc"]
            + 0.1 * (first.terms["symmetry_shape"]
                     + first.terms["symmetry_cage"])
        )
        assert first.total == pytest.approx(expected_total, abs=1e-12)

    def test_character_mode_terms(self):
        src = normalized_box(4)
        cfg = PipelineConfig(seed=0, max_iters=5, shape_mode="character",
                             n_eval_samples=200)
        _, _, _, rep = deform_pair(src, src, cfg)
        assert set(rep.trace[0].terms) == {"mvc", "align", "p2f"}

    def test_l2_mode_needs_correspondence(self, monkeypatch):
        # a target of another vertex count fails before any setup work,
        # the source's plane fits included
        called = _spy_on_setup(monkeypatch)
        src = normalized_box(4)
        tgt = normalized_box(5)
        cfg = PipelineConfig(seed=0, max_iters=2, align_mode="l2")
        with pytest.raises(ValueError, match=_L2_MESSAGE):
            deform_pair(src, tgt, cfg)
        assert called == []

    def test_deterministic_across_threads(self):
        src = normalized_box(4)
        tgt, _ = normalize_to_unit_box(
            TriMesh(src.vertices @ np.diag([1.2, 1.0, 0.9]).T, src.faces)
        )
        traces = []
        for threads in (1, 2, 8):
            cfg = PipelineConfig(seed=0, max_iters=40, threads=threads,
                                 n_eval_samples=200)
            _, _, _, rep = deform_pair(src, tgt, cfg)
            traces.append([b.total for b in rep.trace])
        assert traces[0] == traces[1] == traces[2]

    def test_thread_cap_restored_on_return_and_raise(self):
        # a pipeline's ``threads`` caps its own run only; the caller's cap
        # holds again after it returns or raises
        src = normalized_box(3)
        shape = make_template_cage("sphere162", scale=(0.30, 0.22, 0.25))
        pts = sample_surface(shape, 40, seed=3)
        cage = make_template_cage("sphere42", scale=(0.35, 0.27, 0.30))
        lm = np.stack([np.arange(20), np.arange(20)], axis=1)
        with runtime.thread_cap(3):
            deform_pair(src, src, PipelineConfig(seed=0, max_iters=1,
                                                 threads=1,
                                                 n_eval_samples=50))
            assert runtime.thread_count() == 3
            fit_cage(cage, pts, pts, lm, PipelineConfig(max_iters=1,
                                                        threads=1))
            assert runtime.thread_count() == 3
            with pytest.raises(ValueError):
                deform_pair(src, src, PipelineConfig(max_iters=0, threads=1))
            assert runtime.thread_count() == 3
            with pytest.raises(ValueError, match="no landmarks"):
                fit_cage(cage, pts, pts, lm[:0], PipelineConfig(threads=1))
            assert runtime.thread_count() == 3

    def test_default_threads_keep_the_callers_cap(self, monkeypatch):
        # threads=None runs under the cap the caller set, not on every core
        src = normalized_box(3)
        shape = make_template_cage("sphere162", scale=(0.30, 0.22, 0.25))
        pts = sample_surface(shape, 40, seed=3)
        cage = make_template_cage("sphere42", scale=(0.35, 0.27, 0.30))
        lm = np.stack([np.arange(20), np.arange(20)], axis=1)
        seen = []
        real = optim.mvc_weights

        def spy(*args, **kwargs):
            seen.append(runtime.thread_count())
            return real(*args, **kwargs)

        monkeypatch.setattr(optim, "mvc_weights", spy)
        with runtime.thread_cap(1):
            deform_pair(src, src, PipelineConfig(seed=0, max_iters=1,
                                                 n_eval_samples=50))
            fit_cage(cage, pts, pts, lm, PipelineConfig(max_iters=1))
            assert runtime.thread_count() == 1
        assert len(seen) == 2 and set(seen) == {1}

    def test_source_vertex_on_initial_cage_vertex(self):
        # a small tetrahedron with a corner exactly on a vertex of the
        # initial cage: that row snaps at the first step and must not stop
        # the run
        box = normalized_box(4)
        lo, hi = box.bbox()
        cage0 = make_template_cage("sphere42", center=0.5 * (lo + hi),
                                   scale=0.5 * (hi - lo))
        inside = np.all((cage0.vertices > lo) & (cage0.vertices < hi), axis=1)
        corner = cage0.vertices[np.argmax(inside)]
        step = -0.02 * np.where(corner > 0.0, 1.0, -1.0)
        tet = corner + np.vstack([np.zeros(3), np.diag(step)])
        n = box.n_vertices
        src = TriMesh(np.vstack([box.vertices, tet]),
                      np.vstack([box.faces, n + np.array(
                          [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])]))
        assert np.array_equal(src.bbox()[0], lo)
        assert np.array_equal(src.bbox()[1], hi)
        tgt, _ = normalize_to_unit_box(
            TriMesh(src.vertices * [1.1, 1.0, 0.9], src.faces))
        cfg = PipelineConfig(seed=0, max_iters=6, cage_scale=1.0,
                             plateau_window=100, n_eval_samples=200)
        cage, dcage, dmesh, rep = deform_pair(src, tgt, cfg)
        assert rep.stop_reason == "max_iters"
        assert rep.iterations == 6
        assert all(np.isfinite(b.total) for b in rep.trace)
        assert np.all(np.isfinite(cage.vertices))
        assert np.all(np.isfinite(dcage.vertices))

    def test_cage_starting_inside_shape(self):
        # a cage at 0.6 of the half extents leaves source vertices outside
        # it, so they are exterior queries while the cage moves through the
        # shape
        src = normalized_box(4)
        tgt, _ = normalize_to_unit_box(
            TriMesh(src.vertices @ np.diag([1.2, 1.0, 0.9]).T, src.faces))
        cfg = PipelineConfig(seed=0, max_iters=40, cage_scale=0.6,
                             n_eval_samples=200)
        cage0 = cage_around(src, cfg.cage_template, cfg.cage_scale)
        flags = compute_mvc(cage0, src.vertices).flags
        assert np.count_nonzero(flags == FLAG_EXTERIOR_OK) > 0
        cage, dcage, dmesh, rep = deform_pair(src, tgt, cfg)
        assert rep.stop_reason == "max_iters"
        assert all(np.isfinite(b.total) for b in rep.trace)
        assert np.all(np.isfinite(cage.vertices))
        assert np.all(np.isfinite(dcage.vertices))
        assert np.all(np.isfinite(dmesh.vertices))

    def test_clap_weight_not_read(self):
        # deform_pair has no cage Laplacian term, so its clap_weight is unused
        src = normalized_box(3)
        runs = [deform_pair(src, src, PipelineConfig(max_iters=2,
                                                     clap_weight=clap))[3]
                for clap in (0.05, -1.0)]
        assert runs[0].trace_dicts() == runs[1].trace_dicts()

    @pytest.mark.parametrize("field", ["alpha_mvc", "alpha_shape"])
    def test_nan_loss_weight_rejected(self, field, monkeypatch):
        # NaN fails every comparison, so it must fail the check before a step
        def no_step(*args, **kwargs):
            raise AssertionError("deform_pair took a step")

        monkeypatch.setattr(optim, "run_adam", no_step)
        src = normalized_box(3)
        cfg = PipelineConfig(max_iters=2, **{field: float("nan")})
        with pytest.raises(ValueError, match="non-negative"):
            deform_pair(src, src, cfg)

    @pytest.mark.parametrize("field", ["alpha_mvc", "alpha_shape"])
    def test_infinite_loss_weight_rejected(self, field, monkeypatch):
        # json reads Infinity; it used to fail at step 0, non-finite total
        def no_work(*args, **kwargs):
            raise AssertionError("deform_pair built a cage")

        monkeypatch.setattr(optim, "cage_around", no_work)
        monkeypatch.setattr(optim, "run_adam", no_work)
        src = normalized_box(3)
        cfg = PipelineConfig(max_iters=2, **{field: float("inf")})
        with pytest.raises(ValueError, match=r"^loss weights must be finite, "
                           rf"got alpha_mvc=.*, alpha_shape=.*$"):
            deform_pair(src, src, cfg)

    def test_nan_plateau_tolerance_rejected(self, monkeypatch):
        # NaN fails every comparison, so the stall rule would never fire
        def no_step(*args, **kwargs):
            raise AssertionError("deform_pair took a step")

        monkeypatch.setattr(optim, "run_adam", no_step)
        src = normalized_box(3)
        cfg = PipelineConfig(max_iters=2, plateau_rel_tol=float("nan"))
        with pytest.raises(ValueError, match="plateau_rel_tol must not be NaN"):
            deform_pair(src, src, cfg)

    def test_sampled_run_finite_and_thread_invariant(self):
        src = normalized_box(3)
        tgt, _ = normalize_to_unit_box(
            TriMesh(src.vertices * [1.2, 1.0, 0.9], src.faces))
        runs = []
        for threads in (1, 2):
            with runtime.thread_cap(threads):
                cage, dcage, dmesh, rep = deform_pair(src, tgt, PipelineConfig(
                    seed=0, max_iters=3, n_sample_points=200,
                    n_eval_samples=200))
            assert rep.iterations == 3
            assert all(np.isfinite(b.total) for b in rep.trace)
            assert all(np.isfinite(v) for v in rep.final_metrics.values())
            runs.append((rep.trace_dicts(), rep.final_metrics,
                         dcage.vertices.tobytes(), dmesh.vertices.tobytes()))
        assert runs[0] == runs[1]

    def test_l2_rejected_on_the_sampled_path_before_a_step(self,
                                                           monkeypatch):
        # equal vertex counts, but the losses run on samples, not vertices:
        # it fails before the source is sampled or its k-NN tree built
        called = _spy_on_setup(monkeypatch)
        src = normalized_box(3)
        cfg = PipelineConfig(max_iters=2, align_mode="l2",
                             n_sample_points=64)
        with pytest.raises(ValueError, match=_L2_MESSAGE):
            deform_pair(src, src, cfg)
        assert called == []

    def test_step_budget_below_one_rejected(self):
        src = normalized_box(3)
        for budget in (0, -1):
            with pytest.raises(ValueError, match=f"got {budget}"):
                deform_pair(src, src, PipelineConfig(max_iters=budget))

    @pytest.mark.parametrize("key,bad", [
        ("n_eval_samples", 0), ("n_eval_samples", -5),
        ("plateau_window", 0), ("plateau_window", -1),
        ("n_sample_points", -1), ("seed", -1),
    ])
    def test_bad_count_rejected_before_a_step(self, key, bad, monkeypatch):
        # each failed late (after the run) or silently (stall after one
        # step, vertex mode) before it was checked up front
        def no_step(*args, **kwargs):
            raise AssertionError("deform_pair took a step")

        monkeypatch.setattr(optim, "run_adam", no_step)
        src = normalized_box(3)
        with pytest.raises(ValueError, match=f"{key} must be at least"):
            deform_pair(src, src, PipelineConfig(max_iters=2, **{key: bad}))

    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_too_few_samples_for_their_neighborhoods_rejected(
            self, count, monkeypatch):
        # each sample's plane fit needs 8 other samples
        def no_step(*args, **kwargs):
            raise AssertionError("deform_pair took a step")

        monkeypatch.setattr(optim, "run_adam", no_step)
        src = normalized_box(3)
        cfg = PipelineConfig(max_iters=2, n_sample_points=count)
        with pytest.raises(ValueError, match=r"^n_sample_points must be 0 or "
                           rf"more than 8 \(k=8 neighborhoods\), got {count}$"):
            deform_pair(src, src, cfg)

    def test_unknown_align_mode_rejected_before_the_cage(self, monkeypatch):
        def no_cage(*args, **kwargs):
            raise AssertionError("deform_pair built a cage")

        monkeypatch.setattr(optim, "cage_around", no_cage)
        src = normalized_box(3)
        with pytest.raises(ValueError, match="unknown align_mode 'chamfr'"):
            deform_pair(src, src, PipelineConfig(max_iters=2,
                                                 align_mode="chamfr"))

    def test_non_manifold_source_rejected_before_a_step(self, monkeypatch):
        # its metrics' Laplacian used to fail only after the whole budget
        steps = []
        run_adam = optim.run_adam

        def spy(params, weights, step_size, max_iters, evaluate, **kwargs):
            return run_adam(params, weights, step_size, max_iters,
                            lambda leaves: steps.append(1) or evaluate(leaves),
                            **kwargs)

        monkeypatch.setattr(optim, "run_adam", spy)
        src = finned_box()
        with pytest.raises(MeshError, match=r"non-manifold edges: \[\(0, 1\)\]"):
            deform_pair(src, normalized_box(3), PipelineConfig(max_iters=1))
        assert steps == []

    def test_zero_area_source_face_rejected_before_a_step(self, monkeypatch):
        # its metrics' Laplacian divided by the zero cross product and gave
        # dcotlap_x1000 = nan, after the whole budget
        steps = []
        run_adam = optim.run_adam

        def spy(params, weights, step_size, max_iters, evaluate, **kwargs):
            return run_adam(params, weights, step_size, max_iters,
                            lambda leaves: steps.append(1) or evaluate(leaves),
                            **kwargs)

        monkeypatch.setattr(optim, "run_adam", spy)
        with pytest.raises(MeshError, match=r"zero-area face 0: \[0, 1, 2\]"):
            deform_pair(collapsed_face_box(), normalized_box(3),
                        PipelineConfig(max_iters=1))
        assert steps == []

    @pytest.mark.parametrize("key, value, message", [
        ("seed", 1.5, "'seed' must be an integer, got 1.5"),
        ("n_eval_samples", 100.5,
         "'n_eval_samples' must be an integer, got 100.5"),
        ("threads", 1.5, "'threads' must be an integer or null, got 1.5"),
    ])
    def test_config_built_in_code_type_checked(self, key, value, message,
                                               monkeypatch):
        # seed and n_eval_samples failed in eval_metrics after every step;
        # threads=1.5 ran to the end
        steps = []
        monkeypatch.setattr(optim, "run_adam",
                            lambda *args, **kwargs: steps.append(1))
        src = normalized_box(3)
        with pytest.raises(ValueError, match=f"^config key {message}$"):
            deform_pair(src, src, PipelineConfig(max_iters=3, **{key: value}))
        assert steps == []

    @pytest.mark.parametrize("key, value, message", [
        ("seed", 1.5, "'seed' must be an integer, got 1.5"),
        ("threads", 1.5, "'threads' must be an integer or null, got 1.5"),
        ("align_mode", 1, "'align_mode' must be a string, got 1"),
    ])
    def test_config_assignment_type_checked(self, key, value, message,
                                            monkeypatch):
        # cfg.seed = 1.5 after construction used to take every step and
        # fail in eval_metrics; the assignment itself now fails
        steps = []
        monkeypatch.setattr(optim, "run_adam",
                            lambda *args, **kwargs: steps.append(1))
        src = normalized_box(3)
        cfg = PipelineConfig(max_iters=3)
        with pytest.raises(ValueError, match=f"^config key {message}$"):
            setattr(cfg, key, value)
            deform_pair(src, src, cfg)
        assert steps == []
        assert getattr(cfg, key) == getattr(PipelineConfig(), key)

    def test_config_assignment_keeps_good_values_and_names_unknown_keys(
            self):
        cfg = PipelineConfig()
        cfg.seed, cfg.threads, cfg.step_size = np.int64(4), None, 0.5
        assert (cfg.seed, cfg.threads, cfg.step_size) == (4, None, 0.5)
        with pytest.raises(AttributeError, match="unknown config key 'sed'"):
            cfg.sed = 1

    @pytest.mark.parametrize("bad", [-1, np.int64(-7)])
    def test_negative_seed_rejected_however_it_is_set(self, bad, tmp_path):
        # numpy's generators raised "expected non-negative integer" where a
        # command first sampled, without naming the key
        message = f"^seed must be at least 0, got {int(bad)}$"
        with pytest.raises(ValueError, match=message):
            PipelineConfig(seed=bad)
        cfg = PipelineConfig(seed=3)
        with pytest.raises(ValueError, match=message):
            cfg.seed = bad
        assert cfg.seed == 3
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": int(bad)}))
        with pytest.raises(ValueError, match=message):
            PipelineConfig.from_json(path)
        assert PipelineConfig(seed=0).seed == 0

    def test_config_takes_numpy_integers_but_not_bools(self):
        cfg = PipelineConfig(seed=np.int64(3), threads=np.int32(1),
                             max_iters=np.uint8(2), step_size=np.float32(0.5))
        assert (cfg.seed, cfg.threads, cfg.max_iters) == (3, 1, 2)
        for bad in (True, np.True_):
            with pytest.raises(ValueError, match="'seed' must be an integer"):
                PipelineConfig(seed=bad)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_cage_scale_rejected_before_a_step(self, scale,
                                                          monkeypatch):
        # a NaN or infinite scale would make a cage of NaN or inf vertices
        def no_step(*args, **kwargs):
            raise AssertionError("deform_pair took a step")

        monkeypatch.setattr(optim, "run_adam", no_step)
        src = normalized_box(3)
        with pytest.raises(ValueError, match="cage scale .* finite"):
            deform_pair(src, src, PipelineConfig(max_iters=2,
                                                 cage_scale=scale))

    def test_step_size_zero_or_below_rejected(self):
        # 0 is not read as "use the default step"
        src = normalized_box(3)
        for step in (0.0, -2e-3):
            with pytest.raises(ValueError, match=f"step size .* got {step}"):
                deform_pair(src, src, PipelineConfig(step_size=step,
                                                     max_iters=2))

    def test_target_tree_built_once(self, monkeypatch):
        # the target's k-d tree is built once per run and no tree is built
        # twice over the same points within a step
        built = []
        index = losses.SpatialIndex

        def counting_index(points):
            built.append(np.asarray(points).tobytes())
            return index(points)

        monkeypatch.setattr(losses, "SpatialIndex", counting_index)
        src = normalized_box(3)
        tgt, _ = normalize_to_unit_box(
            TriMesh(src.vertices * [1.2, 1.0, 0.9], src.faces))
        cfg = PipelineConfig(seed=0, max_iters=3, n_eval_samples=100)
        deform_pair(src, tgt, cfg)
        # 1 target tree; per step one over the deformed points (shared by
        # the alignment and the shape symmetry), one over their reflection
        # and two for the cage symmetry; 2 in the final evaluation
        assert built.count(tgt.vertices.tobytes()) == 1
        assert len(built) == 1 + 3 * 4 + 2
        assert len(set(built)) == len(built)

    def test_stall_checked_after_update(self):
        # the plateau test runs after the Adam step, so the stopped run has
        # taken as many steps as it has trace entries
        src = normalized_box(3)
        tgt, _ = normalize_to_unit_box(
            TriMesh(src.vertices * [1.2, 1.0, 0.9], src.faces))
        cfg = PipelineConfig(seed=0, plateau_window=3, plateau_rel_tol=1.0,
                             n_eval_samples=200)
        cage, dcage, _, rep = deform_pair(src, tgt, cfg)
        assert rep.stop_reason == "stall"
        assert rep.iterations == 4
        cfg = PipelineConfig(seed=0, max_iters=4, n_eval_samples=200)
        cage4, dcage4, _, rep4 = deform_pair(src, tgt, cfg)
        assert rep4.stop_reason == "max_iters"
        assert np.array_equal(cage.vertices, cage4.vertices)
        assert np.array_equal(dcage.vertices, dcage4.vertices)

    def test_degenerate_cage_keeps_partial_report(self, monkeypatch):
        monkeypatch.setattr(optim, "DEGENERATE_CAGE_AREA", 1e3)
        src = normalized_box(3)
        with pytest.raises(OptimizationError) as err:
            deform_pair(src, src, PipelineConfig(seed=0, max_iters=5))
        rep = err.value.report
        assert rep.stop_reason == "degenerate_cage"
        assert rep.iterations == 1
        assert rep.wall_time > 0.0

    def test_divergence_guard(self):
        # a near-zero initial residual with an oversized step makes the loss
        # overshoot 1000x its starting value, tripping the abort
        shape = make_template_cage("sphere162", scale=(0.30, 0.22, 0.25))
        pts = sample_surface(shape, 100, seed=3)
        cage = make_template_cage("sphere42", scale=(0.35, 0.27, 0.30))
        novel = PointSet(points=pts.points + 1e-6)
        lm = np.stack([np.arange(60), np.arange(60)], axis=1)
        cfg = PipelineConfig(seed=0, step_size=0.5, max_iters=50,
                             consistency_threshold=1e-300)
        with pytest.raises(OptimizationError) as err:
            fit_cage(cage, pts, novel, lm, cfg)
        assert err.value.report.stop_reason == "diverged"
        assert err.value.report.wall_time > 0.0


class TestFitCage:
    def _shape_and_cage(self):
        shape = make_template_cage("sphere162", scale=(0.30, 0.22, 0.25))
        pts = sample_surface(shape, 150, seed=3)
        cage = make_template_cage("sphere42", scale=(0.35, 0.27, 0.30))
        return pts, cage

    def test_identity_stops_at_threshold(self):
        pts, cage = self._shape_and_cage()
        lm = np.stack([np.arange(100), np.arange(100)], axis=1)
        fitted, rep = fit_cage(cage, pts, pts, lm, PipelineConfig(seed=0))
        assert rep.stop_reason == "threshold"
        assert rep.trace[-1].terms["consistency"] < 1e-5
        rms = np.sqrt(np.mean(np.sum(
            (fitted.vertices - cage.vertices) ** 2, axis=1)))
        assert rms < 1e-3

    def test_translated_shape_recovered(self):
        pts, cage = self._shape_and_cage()
        t = np.array([0.02, -0.015, 0.01])
        novel = PointSet(points=pts.points + t)
        lm = np.stack([np.arange(83), np.arange(83)], axis=1)
        # residual at the analytic solution is an exact zero of the objective
        rows_src = compute_mvc(cage, pts.points[:83]).weights
        shifted = TriMesh(cage.vertices + t, cage.faces)
        rows_at_solution = compute_mvc(shifted, novel.points[:83]).weights
        assert float(np.sum((rows_src - rows_at_solution) ** 2)) < 1e-18

        fitted, rep = fit_cage(cage, pts, novel, lm, PipelineConfig(seed=0))
        assert rep.stop_reason == "threshold"
        rms = np.sqrt(np.mean(np.sum(
            (fitted.vertices - (cage.vertices + t)) ** 2, axis=1)))
        assert rms < 1e-2

    def test_dissimilar_shapes_83_landmarks_decreasing(self):
        rng = np.random.default_rng(4)
        shape_a = make_template_cage("sphere162", scale=(0.30, 0.22, 0.25))
        pts_a = sample_surface(shape_a, 120, seed=5)
        # a genuinely different second shape: bent and rescaled ellipsoid
        verts_b = shape_a.vertices @ np.diag([0.8, 1.3, 1.1])
        verts_b[:, 1] += 0.3 * verts_b[:, 0] ** 2
        pts_b = sample_surface(TriMesh(verts_b, shape_a.faces), 120, seed=6)
        cage = make_template_cage("sphere42", scale=(0.4, 0.4, 0.4))
        lm = np.stack([np.arange(83), np.arange(83)], axis=1)
        cfg = PipelineConfig(seed=0, max_iters=400)
        fitted, rep = fit_cage(cage, pts_a, pts_b, lm, cfg)
        cons = [b.terms["consistency"] for b in rep.trace]
        checkpoints = [cons[i] for i in
                       np.linspace(0, len(cons) - 1, 10).astype(int)]
        assert all(a > b for a, b in zip(checkpoints, checkpoints[1:]))
        assert cons[-1] < cons[0]

    def test_landmark_index_validation(self):
        pts, cage = self._shape_and_cage()
        with pytest.raises(IndexError):
            fit_cage(cage, pts, pts, np.array([[0, 9999]]), PipelineConfig())

    def test_no_landmarks_rejected(self):
        pts, cage = self._shape_and_cage()
        with pytest.raises(ValueError, match="no landmarks"):
            fit_cage(cage, pts, pts, np.zeros((0, 2), dtype=np.int64),
                     PipelineConfig())

    @pytest.mark.parametrize("clap", [-1.0, float("nan")])
    def test_negative_clap_weight_rejected(self, clap):
        pts, cage = self._shape_and_cage()
        lm = np.stack([np.arange(10), np.arange(10)], axis=1)
        with pytest.raises(ValueError, match="clap_weight"):
            fit_cage(cage, pts, pts, lm,
                     PipelineConfig(clap_weight=clap, max_iters=1))

    def test_infinite_clap_weight_rejected_before_a_step(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("fit_cage took a step")

        monkeypatch.setattr(optim, "run_adam", no_step)
        pts, cage = self._shape_and_cage()
        lm = np.stack([np.arange(10), np.arange(10)], axis=1)
        with pytest.raises(ValueError,
                           match=r"^clap_weight must be finite, got inf$"):
            fit_cage(cage, pts, pts, lm,
                     PipelineConfig(clap_weight=float("inf"), max_iters=1))

    def test_nan_consistency_threshold_rejected(self, monkeypatch):
        # NaN fails every comparison, so the early stop would never fire
        def no_step(*args, **kwargs):
            raise AssertionError("fit_cage took a step")

        monkeypatch.setattr(optim, "run_adam", no_step)
        pts, cage = self._shape_and_cage()
        lm = np.stack([np.arange(10), np.arange(10)], axis=1)
        cfg = PipelineConfig(max_iters=2, consistency_threshold=float("nan"))
        with pytest.raises(ValueError,
                           match="consistency_threshold must not be NaN"):
            fit_cage(cage, pts, pts, lm, cfg)

    def test_early_stop_honors_threshold_exactly(self):
        pts, cage = self._shape_and_cage()
        lm = np.stack([np.arange(50), np.arange(50)], axis=1)
        cfg = PipelineConfig(seed=0, max_iters=37)
        fitted, rep = fit_cage(cage, pts, PointSet(points=pts.points + 0.05),
                               lm, cfg)
        last = rep.trace[-1].terms["consistency"]
        assert (last < cfg.consistency_threshold) or (rep.iterations == 37)


    def test_non_finite_gradient_keeps_partial_report(self, monkeypatch):
        # a regularizer whose value is finite (0) but whose gradient is NaN
        def nan_gradient(cage, verts):
            return ad.Var._make(
                0.0, (verts,),
                (lambda g: np.full(verts.value.shape, np.nan),), "nan_gradient")

        monkeypatch.setattr(losses, "cage_laplacian_loss", nan_gradient)
        pts, cage = self._shape_and_cage()
        lm = np.stack([np.arange(40), np.arange(40)], axis=1)
        novel = PointSet(points=pts.points + 0.01)
        with pytest.raises(OptimizationError) as err:
            fit_cage(cage, pts, novel, lm, PipelineConfig(seed=0, max_iters=5))
        rep = err.value.report
        assert rep is not None
        assert rep.stop_reason == "non_finite"
        assert rep.iterations == 1
        assert rep.wall_time > 0.0


    def test_step_budget_below_one_rejected(self):
        pts, cage = self._shape_and_cage()
        lm = np.stack([np.arange(40), np.arange(40)], axis=1)
        for budget in (0, -1):
            with pytest.raises(ValueError, match=f"got {budget}"):
                fit_cage(cage, pts, pts, lm, PipelineConfig(max_iters=budget))

    def test_step_size_zero_or_below_rejected(self):
        pts, cage = self._shape_and_cage()
        lm = np.stack([np.arange(40), np.arange(40)], axis=1)
        for step in (0.0, -5e-4, float("nan")):
            with pytest.raises(ValueError, match=f"step size .* got {step}"):
                fit_cage(cage, pts, pts, lm,
                         PipelineConfig(step_size=step, max_iters=2))

    def test_zero_area_template_face_rejected_before_a_step(self,
                                                            monkeypatch):
        # the step-0 Laplacian loss was NaN: "non-finite total loss"
        steps = []
        monkeypatch.setattr(optim, "run_adam",
                            lambda *args, **kwargs: steps.append(1))
        pts, cage = self._shape_and_cage()
        v = cage.vertices.copy()
        a, b, c = cage.faces[0]
        v[c] = v[b]
        lm = np.stack([np.arange(40), np.arange(40)], axis=1)
        with pytest.raises(MeshError,
                           match=rf"zero-area face 0: \[{a}, {b}, {c}\]"):
            fit_cage(TriMesh(v, cage.faces), pts, pts, lm,
                     PipelineConfig(max_iters=2))
        assert steps == []

    def test_template_laplacian_built_once(self, monkeypatch):
        calls = []
        build = losses.cot_laplacian

        def counting_build(mesh):
            calls.append(mesh)
            return build(mesh)

        monkeypatch.setattr(losses, "cot_laplacian", counting_build)
        pts, cage = self._shape_and_cage()
        lm = np.stack([np.arange(40), np.arange(40)], axis=1)
        _, rep = fit_cage(cage, pts, PointSet(points=pts.points + 0.01), lm,
                          PipelineConfig(seed=0, max_iters=6,
                                         consistency_threshold=0.0))
        assert rep.iterations == 6
        assert len(calls) == 1

    def test_threshold_checked_before_update(self):
        # a run that stops on the threshold after k evaluations has taken
        # k - 1 steps: the check runs before the Adam step
        pts, cage = self._shape_and_cage()
        lm = np.stack([np.arange(50), np.arange(50)], axis=1)
        novel = PointSet(points=pts.points + 0.01)
        _, free = fit_cage(cage, pts, novel, lm, PipelineConfig(
            seed=0, max_iters=10, consistency_threshold=0.0))
        cons = [b.terms["consistency"] for b in free.trace]
        threshold = np.nextafter(cons[5], np.inf)
        k = next(i for i, c in enumerate(cons) if c < threshold) + 1
        assert k >= 2
        fitted, rep = fit_cage(cage, pts, novel, lm, PipelineConfig(
            seed=0, max_iters=10, consistency_threshold=threshold))
        assert rep.stop_reason == "threshold"
        assert rep.iterations == k
        before, rep_before = fit_cage(cage, pts, novel, lm, PipelineConfig(
            seed=0, max_iters=k - 1, consistency_threshold=0.0))
        assert rep_before.iterations == k - 1
        assert np.array_equal(fitted.vertices, before.vertices)


class TestTransfer:
    def test_zero_offsets_identity(self, octa):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.4, 0.4, size=(25, 3))
        out = transfer(octa, np.zeros((6, 3)), pts)
        assert np.abs(out.points - pts).max() < 1e-7

    def test_constant_offsets_translate(self, octa):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-0.4, 0.4, size=(25, 3))
        t = np.array([0.5, -1.0, 0.25])
        out = transfer(octa, np.tile(t, (6, 1)), pts)
        assert np.abs(out.points - (pts + t)).max() < 1e-9

    def test_offset_count_mismatch(self, octa):
        with pytest.raises(ValueError):
            transfer(octa, np.zeros((5, 3)), np.zeros((2, 3)))

    def test_translation_commutes(self, octa):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-0.4, 0.4, size=(20, 3))
        offsets = 0.1 * rng.normal(size=(6, 3))
        t = np.array([0.7, -0.2, 1.1])
        base = transfer(octa, offsets, pts)
        moved = transfer(TriMesh(octa.vertices + t, octa.faces), offsets,
                         pts + t)
        assert np.abs(moved.points - (base.points + t)).max() < 1e-9

    def test_self_transfer_consistency(self):
        src = normalized_box(4)
        cfg = PipelineConfig(seed=0, max_iters=30, n_eval_samples=200)
        tgt, _ = normalize_to_unit_box(
            TriMesh(src.vertices @ np.diag([1.3, 1.0, 0.8]).T, src.faces)
        )
        cage, dcage, dmesh, _ = deform_pair(src, tgt, cfg)
        offsets = dcage.vertices - cage.vertices
        replay = transfer(cage, offsets, src.vertices)
        assert np.abs(replay.points - dmesh.vertices).max() < 1e-6


class TestTapeNodes:
    """The nodes each step's backward pass reaches, a cost guard: a term or
    an op added to a step's tape fails here.  The counts do not depend on
    the input sizes; the benchmark's inputs give the same 93, 13 and 21
    (``autodiff.tape_nodes``).  ``deform_pair``'s negative-weight penalty
    is one node (``losses.mvc_penalty``); as a 4-node chain it made 96."""

    @pytest.fixture
    def nodes(self, monkeypatch):
        counts = []
        backward = ad.Var.backward

        def counting(var):
            counts.append(len(var._topo_order()))
            return backward(var)

        monkeypatch.setattr(ad.Var, "backward", counting)
        return counts

    def test_deform_pair(self, nodes):
        src = normalized_box(3)
        tgt = normalized_box(3, scale=(0.45, 0.4, 0.3))
        deform_pair(src, tgt, PipelineConfig(max_iters=2, n_eval_samples=100))
        assert nodes == [93, 93]

    def test_fit_cage(self, nodes):
        cage = make_template_cage("sphere42", scale=(0.8, 0.8, 0.8))
        pts = np.random.default_rng(0).uniform(-0.3, 0.3, size=(12, 3))
        lm = np.stack([np.arange(12), np.arange(12)], axis=1)
        fit_cage(cage, PointSet(points=pts), PointSet(points=pts * 1.1), lm,
                 PipelineConfig(max_iters=2))
        assert nodes == [13, 13]

    def test_train_toy(self, nodes):
        fam = SyntheticFamily()
        train_toy(fam, fam.default_cage(), epochs=2, n_train=2)
        assert nodes == [21, 21]
