import numpy as np
import pytest

import cagewarp.autodiff as ad
from cagewarp import losses, toy
from cagewarp.geometry import TriMesh
from cagewarp.gradients import central_fd, relative_errors
from cagewarp.losses import l2_corresponded
from cagewarp.mvc import compute_mvc
from cagewarp.optim import OptimizationError
from cagewarp.toy import (
    OffsetPredictor,
    SyntheticFamily,
    eval_toy,
    forward_offsets,
    train_toy,
)


class TestFamily:
    def test_members_share_connectivity(self):
        fam = SyntheticFamily()
        a = fam.member((0.7, 1.2, 1.0))
        b = fam.member((1.4, 0.6, 0.8))
        assert np.array_equal(a.faces, b.faces)
        assert a.n_vertices == 162

    def test_source_is_unit_scales(self):
        fam = SyntheticFamily()
        assert np.array_equal(fam.source_mesh().vertices,
                              fam.base_mesh.vertices)

    def test_scales_validated(self):
        fam = SyntheticFamily()
        with pytest.raises(ValueError):
            fam.member((0.1, 1.0, 1.0))

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
    def test_non_finite_scales_rejected(self, scale):
        # NaN fails both bound comparisons; it used to give NaN vertices
        with pytest.raises(ValueError, match=r"^scales outside \[0.5, 1.5\]$"):
            SyntheticFamily().member((1.0, scale, 1.0))

    def test_descriptor_sampling_in_range(self):
        fam = SyntheticFamily()
        d = fam.sample_descriptors(50, np.random.default_rng(0))
        assert d.shape == (50, 3)
        assert d.min() >= 0.5 and d.max() <= 1.5

    def test_box_family(self):
        fam = SyntheticFamily(kind="box")
        assert fam.source_mesh().is_closed_oriented()
        cage = fam.default_cage()
        m = compute_mvc(cage, fam.source_mesh().vertices)
        assert m.weights.min() >= -1e-9  # cage contains the source

    def test_default_cage_contains_ellipsoid(self):
        fam = SyntheticFamily()
        cage = fam.default_cage()
        m = compute_mvc(cage, fam.source_mesh().vertices)
        assert m.weights.min() >= -1e-9


class TestPredictor:
    def test_zero_init_is_identity(self):
        p = OffsetPredictor.init(3, 42, seed=0)
        assert np.array_equal(p.predict((1.0, 1.0, 1.0)), np.zeros((42, 3)))

    def test_json_roundtrip(self, tmp_path):
        fam = SyntheticFamily()
        p = OffsetPredictor.init(3, 42, seed=1, cage=fam.default_cage())
        p.w2[:] = np.random.default_rng(2).normal(size=p.w2.shape)
        path = tmp_path / "pred.json"
        p.to_json(path)
        back = OffsetPredictor.from_json(path)
        assert np.array_equal(back.w1, p.w1)
        assert np.array_equal(back.w2, p.w2)
        assert np.array_equal(back.cage.vertices, p.cage.vertices)
        d = (0.8, 1.1, 1.3)
        assert np.array_equal(back.predict(d), p.predict(d))


class TestTraining:
    def test_single_target_source_converges_to_zero(self):
        fam = SyntheticFamily(scale_range=(1.0, 1.0))
        cage = fam.default_cage()
        pred, rep = train_toy(fam, cage, epochs=400, seed=0, n_train=4)
        res = eval_toy(pred, fam, n_holdout=3, seed=99, n_cd_samples=200)
        assert res["mean_l2"] < 1e-5

    def test_penalty_zero_throughout_with_contained_convex_cage(self):
        fam = SyntheticFamily()
        cage = fam.default_cage()
        pred, rep = train_toy(fam, cage, epochs=50, seed=0, n_train=6)
        assert all(b.terms["mvc"] == 0.0 for b in rep.trace)

    def test_bitwise_reproducible(self):
        fam = SyntheticFamily()
        cage = fam.default_cage()
        p1, r1 = train_toy(fam, cage, epochs=120, seed=7, n_train=6)
        p2, r2 = train_toy(fam, cage, epochs=120, seed=7, n_train=6)
        assert np.array_equal(p1.w1, p2.w1) and np.array_equal(p1.w2, p2.w2)
        assert np.array_equal(p1.b1, p2.b1) and np.array_equal(p1.b2, p2.b2)
        assert [b.total for b in r1.trace] == [b.total for b in r2.trace]

    def test_analytic_cage_solution_near_zero_loss(self):
        # targets are axis scalings of the source; scaling the cage the same
        # way reproduces them through the interpolation exactly
        fam = SyntheticFamily()
        cage = fam.default_cage()
        base = fam.source_mesh()
        phi = compute_mvc(cage, base.vertices).weights
        rng = np.random.default_rng(3)
        for s in fam.sample_descriptors(5, rng):
            target = fam.member(s)
            deformed = phi @ (cage.vertices * s)
            assert l2_corresponded(deformed, target.vertices) < 1e-6

    def test_shape_term_optional(self):
        fam = SyntheticFamily()
        cage = fam.default_cage()
        pred, rep = train_toy(fam, cage, epochs=10, seed=0, n_train=3,
                              alpha_shape=0.05)
        assert "p2f" in rep.trace[0].terms
        assert rep.trace[0].weights == {"mvc": 1.0, "align": 1.0, "p2f": 0.05}
        _, rep = train_toy(fam, cage, epochs=1, seed=0, n_train=3)
        assert rep.trace[0].weights == {"mvc": 1.0, "align": 1.0}

    @pytest.mark.parametrize("alpha_shape", [-0.05, np.nan])
    def test_bad_shape_weight_rejected_before_any_work(self, monkeypatch,
                                                       alpha_shape):
        def no_work(*args, **kwargs):
            raise AssertionError("train_toy computed coordinates")

        monkeypatch.setattr(toy, "compute_mvc", no_work)
        fam = SyntheticFamily()
        with pytest.raises(ValueError, match="non-negative, got .*"
                           f"alpha_shape={alpha_shape}"):
            train_toy(fam, fam.default_cage(), epochs=5, n_train=2,
                      alpha_shape=alpha_shape)

    def test_infinite_shape_weight_rejected_before_any_work(self,
                                                            monkeypatch):
        # it used to fail at step 0 with a non-finite total loss
        def no_work(*args, **kwargs):
            raise AssertionError("train_toy computed coordinates")

        monkeypatch.setattr(toy, "compute_mvc", no_work)
        fam = SyntheticFamily()
        with pytest.raises(ValueError, match="^loss weights must be finite, "
                           "got alpha_mvc=1.0, alpha_shape=inf$"):
            train_toy(fam, fam.default_cage(), epochs=5, n_train=2,
                      alpha_shape=np.inf)

    @pytest.mark.parametrize("n_train", [0, -1])
    def test_empty_training_set_rejected_before_any_work(self, monkeypatch,
                                                         n_train):
        def no_work(*args, **kwargs):
            raise AssertionError("train_toy computed coordinates")

        monkeypatch.setattr(toy, "compute_mvc", no_work)
        fam = SyntheticFamily()
        with pytest.raises(ValueError, match="^n_train must be at least 1, "
                           f"got {n_train}$"):
            train_toy(fam, fam.default_cage(), epochs=5, n_train=n_train)

    def test_step_budget_below_one_rejected(self, monkeypatch):
        # rejected before any work, with run_adam's message
        def no_work(*args, **kwargs):
            raise AssertionError("train_toy computed coordinates")

        monkeypatch.setattr(toy, "compute_mvc", no_work)
        fam = SyntheticFamily()
        for epochs in (0, -1):
            with pytest.raises(ValueError, match="^step budget must be at "
                               f"least 1, got {epochs}$"):
                train_toy(fam, fam.default_cage(), epochs=epochs, n_train=2)

    @pytest.mark.parametrize("scale", [0.0, np.nan])
    def test_non_finite_keeps_partial_report(self, monkeypatch, scale):
        # scale 0: a finite (0) shape term whose gradient is NaN, raised by
        # the Adam step; scale NaN: a non-finite loss
        def bad_p2f(source, verts):
            return ad.Var._make(
                scale, (verts,),
                (lambda g: np.full(verts.value.shape, np.nan),), "bad_p2f")

        monkeypatch.setattr(losses, "p2f_term", bad_p2f)
        fam = SyntheticFamily()
        with pytest.raises(OptimizationError) as err:
            train_toy(fam, fam.default_cage(), epochs=5, n_train=2,
                      alpha_shape=0.05)
        rep = err.value.report
        assert rep is not None
        assert rep.stop_reason == "non_finite"
        assert rep.iterations == 1
        assert rep.wall_time > 0.0


class TestParameterGradients:
    def test_backprop_matches_fd_on_tiny_setup(self, octa):
        # 6-vertex cage, 10-point shape, random parameters
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.4, 0.4, size=(10, 3))
        phi = compute_mvc(octa, pts).weights
        targets = pts * np.array([1.2, 0.9, 1.1])
        desc = rng.uniform(0.5, 1.5, size=(4, 3))
        hidden = 5
        theta0 = {
            "w1": rng.normal(scale=0.5, size=(hidden, 3)),
            "b1": rng.normal(scale=0.1, size=hidden),
            "w2": rng.normal(scale=0.05, size=(6 * 3, hidden)),
            "b2": rng.normal(scale=0.05, size=6 * 3),
        }

        def loss_from(params):
            offsets = forward_offsets(params, desc)
            deformed = ad.matmul(phi, octa.vertices + offsets)
            d = deformed - targets[None]
            return ad.mean_(ad.sum_(d * d, axis=-1))

        for name in theta0:
            pvars = {k: (ad.Var(v) if k == name else v)
                     for k, v in theta0.items()}
            out = loss_from(pvars)
            out.backward()
            analytic = pvars[name].grad

            def value_fn(x, name=name):
                params = dict(theta0)
                params[name] = x
                return float(ad.val(loss_from(params)))

            fd = central_fd(value_fn, theta0[name], step=1e-6)
            assert relative_errors(analytic, fd).max() < 1e-3, name


class TestEvalToy:
    def test_zero_init_equals_baseline_exactly(self):
        fam = SyntheticFamily()
        cage = fam.default_cage()
        pred = OffsetPredictor.init(3, cage.n_vertices, seed=0, cage=cage)
        res = eval_toy(pred, fam, n_holdout=5, seed=123, n_cd_samples=200)
        assert res["mean_l2"] == res["baseline_mean_l2"]
        assert res["l2_ratio"] == 1.0

    def test_trained_beats_baseline(self):
        fam = SyntheticFamily()
        cage = fam.default_cage()
        pred, _ = train_toy(fam, cage, epochs=800, seed=0)
        res = eval_toy(pred, fam, n_holdout=8, seed=55, n_cd_samples=200)
        assert res["l2_ratio"] <= 0.5
        assert np.isfinite(list(res.values())).all()

    def test_chamfer_matches_eval_metrics_without_a_laplacian(
            self, monkeypatch):
        # eval_toy reads only the chamfer of eval_metrics, so it builds no
        # cotangent Laplacian and gives eval_metrics' cd_x100 bits
        fam = SyntheticFamily()
        cage = fam.default_cage()
        pred = OffsetPredictor.init(3, cage.n_vertices, seed=0, cage=cage)
        pred.w2 = np.random.default_rng(2).normal(scale=0.01,
                                                  size=pred.w2.shape)
        built = []
        cot_laplacian = losses.cot_laplacian
        monkeypatch.setattr(losses, "cot_laplacian",
                            lambda mesh: built.append(mesh)
                            or cot_laplacian(mesh))
        res = eval_toy(pred, fam, n_holdout=4, seed=7, n_cd_samples=300)
        assert built == []
        base = fam.source_mesh()
        phi = compute_mvc(cage, base.vertices).weights
        rng = np.random.default_rng(7)
        cds, cds_base = [], []
        for s in fam.sample_descriptors(4, rng):
            target = fam.member(s)
            for verts, out in ((cage.vertices + pred.predict(s), cds),
                               (cage.vertices, cds_base)):
                mesh = TriMesh(phi @ verts, base.faces)
                out.append(losses.eval_metrics(mesh, target, base, 300,
                                               7)["cd_x100"])
        assert len(built) == 8
        assert res["mean_cd_x100"] == float(np.mean(cds))
        assert res["baseline_mean_cd_x100"] == float(np.mean(cds_base))

    def test_samples_and_trees_built_once_per_mesh(self, monkeypatch):
        # one tree over the baseline's samples, and per member one over the
        # target's and one over the deformed mesh's; the same bits as one
        # sampled_chamfer_x100 per (mesh, target) pair
        fam = SyntheticFamily()
        cage = fam.default_cage()
        pred = OffsetPredictor.init(3, cage.n_vertices, seed=0, cage=cage)
        pred.w2 = np.random.default_rng(3).normal(scale=0.01,
                                                  size=pred.w2.shape)
        base = fam.source_mesh()
        phi = compute_mvc(cage, base.vertices).weights
        want = {"l2": [], "l2_base": [], "cd": [], "cd_base": []}
        for s in fam.sample_descriptors(3, np.random.default_rng(9)):
            target = fam.member(s)
            for verts, key in ((cage.vertices + pred.predict(s), ""),
                               (cage.vertices, "_base")):
                mesh = TriMesh(phi @ verts, base.faces)
                want["l2" + key].append(float(l2_corresponded(
                    mesh, target.vertices)))
                want["cd" + key].append(losses.sampled_chamfer_x100(
                    mesh, target, 250, 9))
        built = []
        index = losses.SpatialIndex
        monkeypatch.setattr(losses, "SpatialIndex",
                            lambda pts: built.append(len(pts)) or index(pts))
        res = eval_toy(pred, fam, n_holdout=3, seed=9, n_cd_samples=250)
        assert built == [250] * 7
        mean_l2 = float(np.mean(want["l2"]))
        assert res == {
            "n_holdout": 3, "seed": 9, "mean_l2": mean_l2,
            "max_l2": float(np.max(want["l2"])),
            "baseline_mean_l2": float(np.mean(want["l2_base"])),
            "l2_ratio": mean_l2 / float(np.mean(want["l2_base"])),
            "mean_cd_x100": float(np.mean(want["cd"])),
            "baseline_mean_cd_x100": float(np.mean(want["cd_base"])),
        }

    def test_empty_holdout_rejected(self):
        fam = SyntheticFamily()
        cage = fam.default_cage()
        pred = OffsetPredictor.init(3, cage.n_vertices, seed=0, cage=cage)
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"n_holdout .* got {n}"):
                eval_toy(pred, fam, n_holdout=n)

    def test_requires_cage(self):
        pred = OffsetPredictor.init(3, 42, seed=0)
        with pytest.raises(ValueError):
            eval_toy(pred, SyntheticFamily(), n_holdout=2, seed=0)
