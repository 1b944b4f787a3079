import numpy as np
import pytest

import cagewarp.autodiff as ad
from cagewarp.geometry import TriMesh
from cagewarp.gradients import (
    GRADCHECK_OPS,
    builtin_check,
    central_fd,
    check_gradients,
    grad_source_cage,
    random_cage,
    random_queries,
    relative_errors,
)
from cagewarp.mvc import compute_mvc, vertex_tolerance
from cagewarp import gradients, losses


class TestGradDeformed:
    """The deformed-cage gradient: ``value_and_grad`` through the weights."""

    def test_single_point_closed_form(self, octa):
        p = np.array([[0.2, -0.1, 0.3]])
        m = compute_mvc(octa, p)
        target = np.array([0.5, 0.5, -0.5])
        v0 = octa.vertices * 1.1

        def loss(dp):
            d = dp[0] - target
            return ad.sum_(d * d)

        _, g = ad.value_and_grad(lambda v: loss(ad.matmul(m.weights, v)),
                                 v0)
        p_def = m.weights @ v0
        expected = 2.0 * m.weights[0][:, None] * (p_def[0] - target)[None, :]
        assert np.allclose(g, expected, atol=1e-12)

    def test_constant_loss_zero_gradient(self, octa):
        p = np.array([[0.2, -0.1, 0.3]])
        m = compute_mvc(octa, p)

        def loss(dp):
            return ad.sum_(dp * 0.0) + 5.0

        value, g = ad.value_and_grad(
            lambda v: loss(ad.matmul(m.weights, v)), octa.vertices)
        assert np.array_equal(g, np.zeros_like(octa.vertices))
        assert value == pytest.approx(5.0)

    def test_linearity_in_deformed_cage(self, octa):
        # the Jacobian action is independent of where it is evaluated
        rng = np.random.default_rng(0)
        pts = random_queries(rng, 6)
        m = compute_mvc(octa, pts)
        gbar = rng.normal(size=(6, 3))

        def loss(dp):
            return ad.sum_(dp * gbar)

        _, g1 = ad.value_and_grad(lambda v: loss(ad.matmul(m.weights, v)),
                                  octa.vertices)
        _, g2 = ad.value_and_grad(lambda v: loss(ad.matmul(m.weights, v)),
                                  octa.vertices * 3.0 + 1.0)
        assert np.allclose(g1, g2, atol=1e-12)

    def test_fd_suite(self):
        r = builtin_check("deformed", n_configs=10, seed=3)
        assert r.passed, r.max_rel_err


class TestGradSourceCage:
    def test_symmetric_stationary(self, tetra):
        # at the centroid of a regular tetrahedron, sum_j (phi_j - 1/4)^2 is
        # stationary by symmetry
        def downstream(phi):
            d = phi - 0.25
            return ad.sum_(d * d)

        _, g, _ = grad_source_cage(tetra, np.zeros((1, 3)), downstream)
        assert np.abs(g).max() < 1e-12

    def test_partition_constant_zero_gradient(self):
        rng = np.random.default_rng(1)
        cage = random_cage(rng)
        pts = random_queries(rng, 7)

        def downstream(phi):
            return ad.sum_(phi)

        value, g, _ = grad_source_cage(cage, pts, downstream)
        assert value == pytest.approx(len(pts))
        assert np.abs(g).max() < 1e-9

    def test_fd_suite(self):
        r = builtin_check("source", n_configs=10, seed=4)
        assert r.passed, r.max_rel_err

    def test_excluded_rows_counted_and_silent(self, octa):
        eps_v = vertex_tolerance(octa.vertices)
        pts = np.vstack([
            octa.vertices[0] + np.array([5.0 * eps_v, 0.0, 0.0]),
            np.array([0.1, 0.05, -0.2]),
        ])

        def downstream(phi):
            return ad.sum_(phi * phi)

        _, g, excluded_rows = grad_source_cage(octa, pts, downstream)
        assert excluded_rows == 1
        # gradient equals the one from the regular row alone
        _, g2, _ = grad_source_cage(octa, pts[1:], downstream)
        assert np.allclose(g, g2, atol=1e-12)


class TestHarness:
    def test_corrupted_gradient_fails(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(4, 3))

        def value_fn(x):
            return float(np.sum(np.tanh(x) * x))

        _, good = ad.value_and_grad(lambda v: ad.sum_(ad.tanh(v) * v), x0)
        rep_good = check_gradients(
            "demo", [(value_fn, (good, x0))], fd_step=1e-6, rtol=1e-5
        )
        assert rep_good.passed
        rep_bad = check_gradients(
            "demo", [(value_fn, (good * 1.01, x0))], fd_step=1e-6, rtol=1e-5
        )
        assert not rep_bad.passed

    def test_non_finite_error_fails_and_reads_nan(self):
        x0 = np.ones(3)

        def nan_fn(x):
            return float("nan")

        def square(x):
            return float(x @ x)

        # a NaN value, a NaN analytic gradient, and a NaN after or before a
        # finite error: each fails, whatever the order of the configurations
        for configs in (
            [(nan_fn, (np.ones(3), x0))],
            [(square, (np.full(3, np.nan), x0))],
            [(square, (2 * x0, x0)), (nan_fn, (np.ones(3), x0))],
            [(nan_fn, (np.ones(3), x0)), (square, (2 * x0, x0))],
        ):
            rep = check_gradients("demo", configs, fd_step=1e-6, rtol=1e-5)
            assert not rep.passed
            assert np.isnan(rep.max_rel_err)
            assert rep.n_configs == len(configs)

    def test_no_configuration_rejected(self):
        with pytest.raises(ValueError, match="no configuration"):
            check_gradients("demo", [], fd_step=1e-6, rtol=1e-5)
        for n in (0, -3):
            with pytest.raises(ValueError, match="no configuration"):
                builtin_check("l2", n_configs=n)

    def test_unknown_op_named_before_any_configuration(self):
        for n in (0, 1):
            with pytest.raises(ValueError, match="unknown gradcheck op"):
                builtin_check("nope", n_configs=n)

    def test_ops_in_report_order(self):
        # `gradcheck --op all` reports the ops in this order
        assert GRADCHECK_OPS == ("deformed", "source", "chamfer", "l2",
                                 "mvc_penalty", "p2f", "normal", "symmetry",
                                 "consistency", "cage_laplacian")
        source = [op for op, (group, _) in gradients._CHECKS.items()
                  if group == "source"]
        assert source == ["source", "mvc_penalty", "consistency"]

    def test_relative_error_floor(self):
        a = np.array([0.0, 1.0])
        f = np.array([1e-12, 1.0])
        err = relative_errors(a, f)
        assert err[0] < 1e-3 and err[1] == 0.0

    def test_central_fd_quadratic_exact(self):
        x0 = np.array([1.0, -2.0])
        fd = central_fd(lambda x: float(x @ x), x0, step=1e-3)
        assert np.allclose(fd, 2 * x0, atol=1e-9)

    def test_report_dict_schema(self):
        r = builtin_check("l2", n_configs=2, seed=0)
        d = r.to_dict()
        assert set(d) == {"op", "n_configs", "max_rel_err", "pass", "rtol",
                          "fd_step"}

    @pytest.mark.parametrize("op", GRADCHECK_OPS)
    def test_all_ops_pass_small(self, op):
        r = builtin_check(op, n_configs=3, seed=11)
        assert r.passed, (op, r.max_rel_err)
        # the source group differentiates through the weights themselves
        source = gradients._CHECKS[op][0] == "source"
        assert (r.fd_step, r.rtol) == ((1e-6, 1e-3) if source
                                       else (1e-5, 1e-4))
