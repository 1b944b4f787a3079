import tracemalloc

import numpy as np
import pytest

import cagewarp.autodiff as ad
from cagewarp import losses
from cagewarp.geometry import (
    MeshError,
    PointSet,
    SpatialIndex,
    TriMesh,
    knn_neighborhoods,
    make_box_mesh,
    make_template_cage,
    normalize_to_unit_box,
    one_ring_neighborhoods,
    pad_neighborhoods,
    pca_frames,
)
from cagewarp.losses import (
    CageLaplacian,
    LossBreakdown,
    cage_laplacian_loss,
    chamfer,
    eval_metrics,
    l2_corresponded,
    mvc_consistency,
    mvc_penalty,
    normal_term,
    p2f_term,
    shape_terms,
    symmetry_term,
    term_weights,
    total_terms,
    weighted_total,
)
from cagewarp.mvc import compute_mvc
import loss_chains as chains
from conftest import collapsed_face_box, random_rotation


def value(term) -> float:
    return float(ad.val(term))


def framed_cloud(rng, n=15, k=6) -> PointSet:
    pts = rng.normal(size=(n, 3))
    return PointSet(points=pts, neighborhoods=knn_neighborhoods(pts, k=k))


class TestChamfer:
    def test_identical_zero(self):
        pts = np.random.default_rng(0).normal(size=(20, 3))
        assert chamfer(pts, pts) == 0.0

    def test_two_point_closed_form(self):
        a = np.zeros((1, 3))
        b = np.array([[1.0, 0.0, 0.0]])
        assert chamfer(a, b) == pytest.approx(2.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(30, 3))
        b = rng.normal(size=(25, 3))
        d2 = np.sum((a[:, None] - b[None]) ** 2, axis=2)
        brute = d2.min(axis=1).mean() + d2.min(axis=0).mean()
        assert chamfer(a, b) == pytest.approx(brute, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(12, 3)), rng.normal(size=(9, 3))
        assert chamfer(a, b) == chamfer(b, a)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            chamfer(np.zeros((0, 3)), np.zeros((3, 3)))

    def test_prebuilt_indexes_give_the_same_value(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(30, 3)), rng.normal(size=(25, 3))
        want = chamfer(a, b)
        assert chamfer(a, b, index_a=SpatialIndex(a)) == want
        assert chamfer(a, b, index_b=SpatialIndex(b)) == want
        assert chamfer(a, b, SpatialIndex(a), SpatialIndex(b)) == want


def assert_node_matches_chain(node, chain, args, op):
    """``node(*args)``, one tape node named ``op``, against the generic
    ``chain`` it stands for, behind a scaled downstream loss.  ``args`` are
    (array, taped) pairs.  The value (on the tape and off it) and every
    gradient entry must be equal to the bit, signed zeros too."""
    got = []
    for loss_fn in (node, chain):
        xs = [ad.Var(a) if taped else a for a, taped in args]
        loss = loss_fn(*xs) * 2.5
        loss.backward()
        got.append((np.asarray(loss.value).tobytes(),
                    [x.grad.view(np.uint64) for x in xs if ad.is_var(x)]))
    (node_value, node_grads), (chain_value, chain_grads) = got
    taped = [ad.Var(a) if t else a for a, t in args]
    out = node(*taped)
    assert out.op == op
    assert [id(p) for p in out._parents] == [
        id(x) for x in taped if ad.is_var(x)]
    plain = [a for a, _ in args]
    assert (np.asarray(node(*plain)).tobytes()
            == np.asarray(chain(*plain)).tobytes())
    assert node_value == chain_value
    assert len(node_grads) == len(chain_grads) > 0
    for g_node, g_chain in zip(node_grads, chain_grads):
        assert np.array_equal(g_node, g_chain)


class TestL2:
    def test_identical(self):
        pts = np.random.default_rng(3).normal(size=(8, 3))
        assert l2_corresponded(pts, pts) == 0.0

    def test_unit_shift(self):
        pts = np.random.default_rng(4).normal(size=(8, 3))
        assert l2_corresponded(pts, pts + [0, 0, 1]) == pytest.approx(1.0)

    def test_two_points_arithmetic(self):
        a = np.array([[0.0, 0, 0], [0.0, 0, 0]])
        b = np.array([[3.0, 0, 0], [0.0, 4, 0]])
        assert l2_corresponded(a, b) == pytest.approx(12.5)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            l2_corresponded(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            l2_corresponded(np.zeros((2, 4, 3)), np.zeros((2, 3, 3)))

    def test_batch_is_mean_over_every_point(self):
        rng = np.random.default_rng(14)
        a, b = rng.normal(size=(4, 6, 3)), rng.normal(size=(4, 6, 3))
        whole = l2_corresponded(a.reshape(-1, 3), b.reshape(-1, 3))
        assert l2_corresponded(a, b) == whole

    @pytest.mark.parametrize("taped", ["a", "b", "both"])
    @pytest.mark.parametrize("shape", [(11, 3), (4, 9, 3)],
                             ids=["points", "batch"])
    def test_node_matches_generic_chain(self, shape, taped):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=shape), rng.normal(size=shape)
        b[0] = a[0]                     # a zero difference
        assert_node_matches_chain(
            l2_corresponded, chains.l2_corresponded,
            [(a, taped in ("a", "both")), (b, taped in ("b", "both"))],
            "l2_corresponded")


class TestMvcPenalty:
    def test_nonnegative_zero(self):
        w = np.random.default_rng(5).uniform(0, 1, size=(6, 4))
        assert mvc_penalty(w) == 0.0

    def test_single_negative_entry(self):
        w = np.array([[1.5, -0.5], [0.3, 0.7]])
        assert mvc_penalty(w) == pytest.approx(0.0625)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(7, 5))
        acc = 0.0
        for i in range(7):
            for j in range(5):
                acc += min(w[i, j], 0.0) ** 2
        assert mvc_penalty(w) == pytest.approx(acc / 35.0, abs=1e-14)

    def test_accepts_matrix(self):
        w = np.array([[-0.1, 1.1]])
        assert mvc_penalty(w) == pytest.approx(0.01 / 2)

    def test_zero_iff_no_negative(self):
        w = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert mvc_penalty(w) == 0.0
        w2 = w.copy()
        w2[0, 1] = -1e-7
        assert mvc_penalty(w2) > 0.0

    @staticmethod
    def _signed(shape, seed):
        # negative, +0.0, -0.0 and positive entries on every row
        w = np.random.default_rng(seed).normal(size=shape)
        w[:, 1], w[:, 2] = 0.0, -0.0
        return w

    @pytest.mark.parametrize("second_consumer", [False, True])
    @pytest.mark.parametrize("chain", ["two_minimums", "one_minimum"])
    def test_node_matches_generic_chain(self, chain, second_consumer):
        # one tape node against the generic chain it stands for, behind a
        # scaled downstream loss: the value and every gradient entry to the
        # bit (signed zeros too), also when phi has a second consumer
        w0 = self._signed((9, 7), seed=8)
        n = float(w0.size)

        def generic(x):
            if chain == "two_minimums":
                return chains.ordered_sum(ad.minimum(x, 0.0)
                                          * ad.minimum(x, 0.0)) / n
            neg = ad.minimum(x, 0.0)
            return chains.ordered_sum(neg * neg) / n

        got = []
        for penalty in (mvc_penalty, generic):
            x = ad.Var(w0)
            loss = penalty(x) * 2.5
            if second_consumer:
                loss = loss + ad.sum_(x * 0.25)
            loss.backward()
            got.append((np.asarray(loss.value), x.grad))
        (node_value, node_grad), (chain_value, chain_grad) = got
        assert mvc_penalty(ad.Var(w0)).op == "mvc_penalty"
        assert mvc_penalty(w0) == float(ad.val(generic(w0)))
        assert node_value.tobytes() == chain_value.tobytes()
        assert np.array_equal(node_grad.view(np.uint64),
                              chain_grad.view(np.uint64))
        if not second_consumer:
            assert np.all(node_grad[:, 1:3].view(np.uint64) == 0)   # +0.0

    def test_backward_allocates_about_one_weight_array(self):
        # a count guard: the node's VJP rebuilds min(phi, 0) in the array it
        # returns, so its backward on deform_pair's (866, 162) phi allocates
        # one (N, C) array (1.07 MiB) and two boolean masks (1/8 each).  The
        # 4-node chain it replaced allocated about four
        w0 = self._signed((866, 162), seed=9)
        x = ad.Var(w0)
        loss = mvc_penalty(x) * 2.5
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * w0.nbytes


class TestP2f:
    def test_rigid_motion_zero(self):
        rng = np.random.default_rng(7)
        before = framed_cloud(rng)
        rot = random_rotation(rng)
        after = PointSet(points=before.points @ rot.T + rng.normal(size=3))
        assert value(p2f_term(before, after.points)) < 1e-9

    def test_lifted_point_contribution(self):
        pts = np.array(
            [[0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]],
            dtype=float,
        )
        # neighborhoods of points 1..4 avoid point 0, so only point 0's
        # plane distance changes when it is lifted off the plane
        neigh = pad_neighborhoods(
            [np.array([1, 2, 3, 4])] + [np.array([1, 2, 3, 4])] * 4)
        before = PointSet(points=pts, neighborhoods=neigh)
        h = 0.25
        lifted = pts.copy()
        lifted[0, 2] = h
        got = float(ad.val(p2f_term(before, lifted)))
        assert got * len(pts) == pytest.approx(h * h, abs=1e-12)

    def test_matches_from_scratch_oracle(self):
        rng = np.random.default_rng(8)
        before = framed_cloud(rng, n=18, k=7)
        after_pts = before.points + 0.2 * rng.normal(size=before.points.shape)
        got = float(ad.val(p2f_term(before, after_pts)))
        # oracle: refit every plane from scratch with the same neighborhoods
        acc = 0.0
        idx, _, counts = before.neighborhoods
        for i in range(len(before)):
            q = after_pts[idx[i, :int(counts[i])]]
            c = q.mean(axis=0)
            cov = (q - c).T @ (q - c) / len(q)
            n = np.linalg.eigh(cov)[1][:, 0]
            d_after = abs(n @ (after_pts[i] - c))
            acc += (before.pca_offsets[i] - d_after) ** 2
        assert got == pytest.approx(acc / len(before), abs=1e-12)

    def test_missing_frames(self):
        with pytest.raises(ValueError):
            p2f_term(PointSet(points=np.zeros((3, 3))), np.zeros((3, 3)))


class TestNormalLoss:
    def test_identity_zero(self):
        rng = np.random.default_rng(9)
        before = framed_cloud(rng)
        assert value(normal_term(before, before.points)) < 1e-12

    def test_ninety_degree_rotation_contributes_one(self):
        pts = np.array(
            [[0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]],
            dtype=float,
        )
        neigh = pad_neighborhoods(
            [np.array([1, 2, 3, 4])] + [np.array([0, 1, 2, 3])] * 4)
        before = PointSet(points=pts, neighborhoods=neigh)
        rot = np.array([[1.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])  # 90 deg about x
        after = pts @ rot.T
        per_point = float(ad.val(normal_term(before, after)))
        # all five planes rotate by 90 degrees: mean(1 - cos 90) = 1
        assert per_point == pytest.approx(1.0, abs=1e-9)

    def test_common_rigid_motion_invariant_with_flip_rule(self):
        # moving the before/after pair rigidly together leaves the loss
        # unchanged; the flip rule keeps the pairing stable under the
        # arbitrary sign conventions of the refit normals
        rng = np.random.default_rng(10)
        for _ in range(5):
            pts = rng.normal(size=(15, 3))
            neigh = knn_neighborhoods(pts, k=6)
            before = PointSet(points=pts, neighborhoods=neigh)
            after = pts + 0.15 * rng.normal(size=pts.shape)
            base = float(ad.val(normal_term(before, after)))
            rot = random_rotation(rng)
            shift = rng.normal(size=3)
            before_m = PointSet(points=pts @ rot.T + shift,
                                neighborhoods=neigh)
            moved = float(ad.val(normal_term(before_m, after @ rot.T + shift)))
            assert abs(moved - base) < 1e-9

    def test_p2f_common_rigid_motion_invariant(self):
        rng = np.random.default_rng(22)
        pts = rng.normal(size=(15, 3))
        neigh = knn_neighborhoods(pts, k=6)
        before = PointSet(points=pts, neighborhoods=neigh)
        after = pts + 0.15 * rng.normal(size=pts.shape)
        base = float(ad.val(p2f_term(before, after)))
        rot = random_rotation(rng)
        shift = rng.normal(size=3)
        before_m = PointSet(points=pts @ rot.T + shift, neighborhoods=neigh)
        moved = float(ad.val(p2f_term(before_m, after @ rot.T + shift)))
        assert abs(moved - base) < 1e-9


class TestSymmetry:
    def test_symmetric_pair(self):
        pts = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        assert value(symmetry_term(pts)) == 0.0

    def test_single_point_arithmetic(self):
        assert value(symmetry_term(np.array([[1.0, 0, 0]]))) == \
            pytest.approx(8.0)

    def test_plane_points_zero(self):
        pts = np.random.default_rng(11).normal(size=(10, 3))
        pts[:, 0] = 0.0
        assert value(symmetry_term(pts)) == 0.0

    def test_reflection_invariant(self):
        pts = np.random.default_rng(12).normal(size=(15, 3))
        mirrored = pts * np.array([-1.0, 1.0, 1.0])
        assert value(symmetry_term(pts)) == value(symmetry_term(mirrored))


def breakdown(terms, weights) -> LossBreakdown:
    """The terms, their weights and their ``weighted_total``."""
    return LossBreakdown(terms, weights, float(weighted_total(terms, weights)))


def shape_breakdown(before, after, cage_after, mode) -> LossBreakdown:
    terms = shape_terms(before, after, cage_after, mode)
    return breakdown(terms, {k: 1.0 for k in terms})


class TestShapeLoss:
    def test_identity_symmetric_man_made_zero(self):
        mesh = make_box_mesh(3, scale=(0.5, 0.4, 0.3))
        before = PointSet(
            points=mesh.vertices.copy(),
            neighborhoods=one_ring_neighborhoods(mesh),
        )
        cage = make_template_cage("sphere42", scale=(0.6, 0.5, 0.4))
        b = shape_breakdown(before, before.points, cage.vertices, "man_made")
        assert b.total < 1e-9

    def test_character_mode_ignores_symmetry(self):
        rng = np.random.default_rng(13)
        before = framed_cloud(rng)
        b = shape_breakdown(before, before.points, np.zeros((4, 3)),
                            "character")
        assert set(b.terms) == {"p2f"}
        assert b.total < 1e-12

    def test_man_made_total_is_term_sum(self):
        rng = np.random.default_rng(14)
        before = framed_cloud(rng)
        after = before.points + 0.1 * rng.normal(size=before.points.shape)
        cage = rng.normal(size=(8, 3))
        b = shape_breakdown(before, after, cage, "man_made")
        assert b.total == pytest.approx(sum(b.terms.values()), abs=1e-12)
        indep = (value(p2f_term(before, after))
                 + value(normal_term(before, after))
                 + value(symmetry_term(after)) + value(symmetry_term(cage)))
        assert b.total == pytest.approx(indep, abs=1e-12)

    def test_unknown_mode_rejected_before_any_work(self, monkeypatch):
        # term_weights' check and message, before the plane fit runs
        fits = []
        monkeypatch.setattr(losses, "pca_frames",
                            lambda *a: fits.append(a) or pca_frames(*a))
        before = framed_cloud(np.random.default_rng(15))
        with pytest.raises(ValueError, match="unknown shape_mode 'freeform'"):
            shape_terms(before, before.points, np.zeros((4, 3)), "freeform")
        assert fits == []
        shape_terms(before, before.points, np.zeros((4, 3)), "character")
        assert len(fits) == 1


def total_breakdown(source, deformed, target, m, cage_deformed, align_mode,
                    alpha_mvc=1.0, alpha_shape=0.1,
                    shape_mode="man_made") -> LossBreakdown:
    terms = total_terms(source, deformed, target, m, cage_deformed,
                        shape_mode, align_mode)
    return breakdown(terms, term_weights(alpha_mvc, alpha_shape, shape_mode))


class TestTotalLoss:
    def _setup(self, rng):
        # cage radius exceeds the box corner radius, so all weights are
        # non-negative and the penalty term starts at zero
        cage = make_template_cage("sphere42", scale=(0.8, 0.8, 0.8))
        mesh = make_box_mesh(2, scale=(0.45, 0.4, 0.35))
        source = PointSet(
            points=mesh.vertices.copy(),
            neighborhoods=one_ring_neighborhoods(mesh),
        )
        m = compute_mvc(cage, source.points).weights
        return cage, source, m

    def test_identity_zero(self):
        rng = np.random.default_rng(15)
        cage, source, m = self._setup(rng)
        b = total_breakdown(source, source.points, source.points, m,
                            cage.vertices, "chamfer")
        assert b.total < 1e-9

    def test_single_term(self):
        w = np.array([[1.2, -0.3], [0.5, 0.6]])
        b = breakdown({"mvc": mvc_penalty(w)}, {"mvc": 1.0})
        assert b.total == pytest.approx(float(mvc_penalty(w)))

    def test_alpha_scaling(self):
        rng = np.random.default_rng(16)
        cage, source, m = self._setup(rng)
        target = source.points + 0.05
        b1 = total_breakdown(source, source.points, target, m,
                             cage.vertices, "chamfer", alpha_mvc=1.0)
        b10 = total_breakdown(source, source.points, target, m,
                              cage.vertices, "chamfer", alpha_mvc=10.0)
        assert b10.weights["mvc"] == 10.0
        assert (b10.total - b1.total) == pytest.approx(
            9.0 * b1.terms["mvc"], abs=1e-12
        )

    def test_weighted_sum_identity(self):
        rng = np.random.default_rng(17)
        cage, source, m = self._setup(rng)
        target = source.points + 0.02 * rng.normal(size=source.points.shape)
        b = total_breakdown(source, source.points + 0.01, target, m,
                            cage.vertices, "chamfer")
        weighted = sum(b.weights[k] * b.terms[k] for k in b.terms)
        assert b.total == pytest.approx(weighted, abs=1e-12)

    def test_l2_mode(self):
        rng = np.random.default_rng(18)
        cage, source, m = self._setup(rng)
        target = source.points + [0, 0, 0.1]
        b = total_breakdown(source, source.points, target, m,
                            cage.vertices, "l2", shape_mode="character")
        assert b.terms["align"] == pytest.approx(0.01)

    def test_invalid_weights(self):
        with pytest.raises(ValueError, match="non-negative, got "
                           "alpha_mvc=-1.0, alpha_shape=0.1"):
            term_weights(-1.0, 0.1, "man_made")
        for nan_pair in ((float("nan"), 0.1), (1.0, float("nan"))):
            with pytest.raises(ValueError, match="non-negative"):
                term_weights(*nan_pair, "man_made")
        with pytest.raises(ValueError, match="^loss weights must be finite, "
                           "got alpha_mvc=inf, alpha_shape=0.1$"):
            term_weights(float("inf"), 0.1, "character")
        with pytest.raises(ValueError, match="^loss weights must be finite, "
                           "got alpha_mvc=1.0, alpha_shape=inf$"):
            term_weights(1.0, float("inf"), "man_made")
        with pytest.raises(ValueError, match="unknown shape_mode 'freeform'"):
            term_weights(1.0, 0.1, "freeform")


class TestConsistency:
    def test_identical_zero(self):
        rows = np.random.default_rng(19).normal(size=(5, 7))
        assert mvc_consistency(rows, rows) == 0.0

    def test_arithmetic(self):
        a = np.zeros((1, 4))
        b = np.zeros((1, 4))
        b[0, 0] = 0.1
        b[0, 2] = -0.1
        assert mvc_consistency(a, b) == pytest.approx(0.02)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(20)
        a, b = rng.normal(size=(6, 9)), rng.normal(size=(6, 9))
        acc = 0.0
        for i in range(6):
            for j in range(9):
                acc += (a[i, j] - b[i, j]) ** 2
        assert mvc_consistency(a, b) == pytest.approx(acc, abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mvc_consistency(np.zeros((2, 3)), np.zeros((3, 3)))

    @pytest.mark.parametrize("taped", ["a", "b", "both"])
    def test_node_matches_generic_chain(self, taped):
        rng = np.random.default_rng(22)
        a, b = rng.uniform(0, 0.2, size=(8, 12)), rng.normal(size=(8, 12))
        b[:, 3] = a[:, 3]               # zero differences
        assert_node_matches_chain(
            mvc_consistency, chains.mvc_consistency,
            [(a, taped in ("a", "both")), (b, taped in ("b", "both"))],
            "mvc_consistency")


class TestCageLaplacianLoss:
    def test_identity_zero(self, octa):
        assert cage_laplacian_loss(CageLaplacian(octa), octa.vertices) == 0.0

    def test_translation_zero(self, octa):
        moved = octa.vertices + np.array([0.4, -0.3, 0.2])
        assert cage_laplacian_loss(CageLaplacian(octa), moved) < 1e-24

    def test_matches_independent_recomputation(self, octa):
        rng = np.random.default_rng(21)
        after = octa.vertices + 0.15 * rng.normal(size=(6, 3))
        got = cage_laplacian_loss(CageLaplacian(octa), after)
        from cagewarp.geometry import cot_laplacian

        lap = cot_laplacian(octa).toarray()
        n1 = np.linalg.norm(lap @ octa.vertices, axis=1)
        n2 = np.linalg.norm(lap @ after, axis=1)
        assert got == pytest.approx(np.sum((n1 - n2) ** 2), abs=1e-12)

    def test_connectivity_mismatch(self, octa):
        with pytest.raises(ValueError):
            cage_laplacian_loss(CageLaplacian(octa), octa.vertices[:4])

    @pytest.mark.parametrize("cage", ["octa", "sphere42"])
    def test_node_matches_generic_chain(self, octa, cage):
        if cage == "octa":
            mesh = octa
            after = octa.vertices.copy()
            # vertex 0 at the centre of its four neighbours: L v is 0 there,
            # so the norm's zero-length rule decides its gradient
            after[0] = 0.0
            after[1] += np.random.default_rng(23).normal(scale=0.1, size=3)
        else:
            mesh = make_template_cage("sphere42", scale=(0.8, 0.8, 0.8))
            after = mesh.vertices + np.random.default_rng(24).normal(
                scale=0.05, size=mesh.vertices.shape)
        ref = CageLaplacian(mesh)
        if cage == "octa":
            assert np.array_equal(ref.lap[0] @ after, np.zeros(3))
        assert_node_matches_chain(
            lambda v: cage_laplacian_loss(ref, v),
            lambda v: chains.cage_laplacian_loss(ref, v),
            [(after, True)], "cage_laplacian_loss")

    def test_zero_laplacian_vertex_gradient_is_finite(self, octa):
        after = octa.vertices.copy()
        after[0] = 0.0
        x = ad.Var(after)
        cage_laplacian_loss(CageLaplacian(octa), x).backward()
        assert np.all(np.isfinite(x.grad))


class TestEvalMetrics:
    def test_deformed_equals_target(self):
        mesh, _ = normalize_to_unit_box(make_box_mesh(3, scale=(1, 0.7, 0.4)))
        other = TriMesh(mesh.vertices * 0.9, mesh.faces)
        r = eval_metrics(other, other, mesh, n_samples=500, seed=3)
        assert r["cd_x100"] == 0.0

    def test_all_identical_zero(self):
        mesh, _ = normalize_to_unit_box(make_box_mesh(3, scale=(1, 0.7, 0.4)))
        r = eval_metrics(mesh, mesh, mesh, n_samples=500, seed=0)
        assert r["cd_x100"] == 0.0
        assert r["dcotlap_x1000"] == pytest.approx(0.0, abs=1e-9)

    def test_translation_invariance_of_laplacian_metric(self):
        mesh, _ = normalize_to_unit_box(make_box_mesh(3, scale=(1, 0.7, 0.4)))
        moved = TriMesh(mesh.vertices + [0.2, 0.1, -0.3], mesh.faces)
        r = eval_metrics(moved, mesh, mesh, n_samples=500, seed=1)
        assert r["dcotlap_x1000"] == pytest.approx(0.0, abs=1e-6)

    def test_connectivity_mismatch(self):
        mesh, _ = normalize_to_unit_box(make_box_mesh(2))
        other, _ = normalize_to_unit_box(make_box_mesh(3))
        with pytest.raises(ValueError):
            eval_metrics(other, mesh, mesh, n_samples=100, seed=0)

    def test_zero_area_source_face_rejected(self):
        # the Laplacian divided by the zero cross product: dcotlap_x1000 nan
        mesh = collapsed_face_box()
        with pytest.raises(MeshError, match="zero-area face 0"):
            eval_metrics(mesh, mesh, mesh, n_samples=100, seed=0)

    def test_report_fields(self):
        mesh, _ = normalize_to_unit_box(make_box_mesh(2))
        r = eval_metrics(mesh, mesh, mesh, n_samples=200, seed=7)
        assert set(r) == {"cd_x100", "dcotlap_x1000", "n_samples", "seed"}
        assert r["n_samples"] == 200 and r["seed"] == 7
