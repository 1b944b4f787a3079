import json

import numpy as np
import pytest

import cagewarp.autodiff as ad
from cagewarp import losses, optim
from cagewarp.geometry import (
    PointSet,
    TriMesh,
    make_box_mesh,
    make_template_cage,
    normalize_to_unit_box,
    sample_surface,
)
from cagewarp.losses import chamfer, l2_corresponded, mvc_penalty, symmetry_loss
from cagewarp.mvc import compute_mvc
from cagewarp.optim import (
    AdamState,
    OptimizationError,
    PipelineConfig,
    adam_step,
    deform_pair,
    fit_cage,
    transfer,
    transfer_mesh,
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
        assert state.beta1 == 0.9 and state.beta2 == 0.999
        assert state.eps == 1e-8


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
        assert first.terms["mvc"] == pytest.approx(float(mvc_penalty(m0)),
                                                   abs=1e-12)
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

    def test_l2_mode_needs_correspondence(self):
        src = normalized_box(4)
        tgt = normalized_box(5)
        cfg = PipelineConfig(seed=0, max_iters=2, align_mode="l2")
        with pytest.raises(ValueError):
            deform_pair(src, tgt, cfg)

    def test_deterministic_across_threads(self):
        src = normalized_box(4)
        tgt, _ = normalize_to_unit_box(
            TriMesh(src.vertices @ np.diag([1.2, 1.0, 0.9]).T, src.faces)
        )
        traces = []
        for threads in (1, 8):
            cfg = PipelineConfig(seed=0, max_iters=40, threads=threads,
                                 n_eval_samples=200)
            _, _, _, rep = deform_pair(src, tgt, cfg)
            traces.append([b.total for b in rep.trace])
        assert traces[0] == traces[1]

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

    def test_step_budget_below_one_rejected(self):
        src = normalized_box(3)
        for budget in (0, -1):
            with pytest.raises(ValueError, match=f"got {budget}"):
                deform_pair(src, src, PipelineConfig(max_iters=budget))

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
            return ad.sum_(ad.sqrt(verts * 0.0))

        monkeypatch.setattr(losses, "cage_laplacian_loss", nan_gradient)
        pts, cage = self._shape_and_cage()
        lm = np.stack([np.arange(40), np.arange(40)], axis=1)
        novel = PointSet(points=pts.points + 0.01)
        with pytest.raises(OptimizationError) as err, \
                np.errstate(divide="ignore", invalid="ignore"):
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
        replay = transfer_mesh(cage, offsets, src)
        assert np.abs(replay.vertices - dmesh.vertices).max() < 1e-6
