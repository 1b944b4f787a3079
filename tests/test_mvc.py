import struct

import numpy as np
import pytest

import cagewarp.autodiff as ad
from cagewarp import meshio
from cagewarp.geometry import TriMesh, make_box_mesh, make_template_cage
from cagewarp.mvc import (
    FLAG_EXTERIOR_OK,
    FLAG_INTERIOR,
    FLAG_ON_FACE,
    FLAG_ON_VERTEX,
    MvcError,
    compute_mvc,
    deform,
    mvc_weights,
    vertex_tolerance,
)
from conftest import random_rotation
from mc_oracle import mvc_ray_oracle


def random_star_cage(rng, jitter=0.25):
    base = make_template_cage("sphere42")
    radii = 1.0 + rng.uniform(-jitter, jitter, size=(base.n_vertices, 1))
    return TriMesh(base.vertices * radii, base.faces)


class TestBasicProperties:
    def test_tetra_centroid(self, tetra):
        m = compute_mvc(tetra, np.zeros((1, 3)))
        assert np.allclose(m.weights, 0.25, atol=1e-12)
        assert m.flags[0] == FLAG_INTERIOR

    def test_vertex_indicator_exact(self, tetra):
        m = compute_mvc(tetra, tetra.vertices[2:3])
        expected = np.zeros(4)
        expected[2] = 1.0
        assert np.array_equal(m.weights[0], expected)
        assert m.flags[0] == FLAG_ON_VERTEX

    def test_partition_and_linear_precision(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            cage = random_star_cage(rng)
            lo, hi = cage.bbox()
            span = hi - lo
            pts = rng.uniform(lo - 0.5 * span, hi + 0.5 * span, size=(200, 3))
            m = compute_mvc(cage, pts)
            assert np.abs(m.weights.sum(axis=1) - 1.0).max() < 1e-9
            recon = m.weights @ cage.vertices
            diagonal = np.linalg.norm(span)
            assert np.abs(recon - pts).max() < 1e-7 * diagonal

    def test_open_cage_rejected(self, tetra):
        open_cage = TriMesh(tetra.vertices, tetra.faces[:3])
        with pytest.raises(Exception):
            compute_mvc(open_cage, np.zeros((1, 3)))

    def test_interpolation_monotonic_convergence(self, tetra):
        direction = np.array([0.3, -0.2, 0.1])
        direction /= np.linalg.norm(direction)
        devs = []
        for dist in (1e-3, 1e-5, 1e-7):
            p = tetra.vertices[1] + dist * direction
            m = compute_mvc(tetra, p[None])
            devs.append(abs(m.weights[0, 1] - 1.0))
        assert devs[0] > devs[1] > devs[2]

    def test_rotation_equivariance(self, octa):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.4, 0.4, size=(20, 3))
        m0 = compute_mvc(octa, pts)
        rot = random_rotation(rng)
        m1 = compute_mvc(TriMesh(octa.vertices @ rot.T, octa.faces),
                         pts @ rot.T)
        assert np.abs(m0.weights - m1.weights).max() < 1e-9

    def test_scale_invariance(self, octa):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-0.4, 0.4, size=(20, 3))
        m0 = compute_mvc(octa, pts)
        s = 37.5
        m1 = compute_mvc(TriMesh(octa.vertices * s, octa.faces), pts * s)
        assert np.abs(m0.weights - m1.weights).max() < 1e-9

    def test_nonnegative_inside_convex(self):
        rng = np.random.default_rng(9)
        for cage in (make_template_cage("sphere42"), make_box_mesh(2)):
            pts = rng.uniform(-0.28, 0.28, size=(100, 3))
            m = compute_mvc(cage, pts)
            assert m.weights.min() >= -1e-9

    def test_exterior_flagged_and_valid(self, octa):
        m = compute_mvc(octa, np.array([[2.0, 0.3, -0.4]]))
        assert m.flags[0] == FLAG_EXTERIOR_OK
        assert m.weights.min() < 0
        assert abs(m.weights.sum(axis=1)[0] - 1.0) < 1e-9


class TestRobustQueries:
    def test_on_face_point(self, octa):
        p = octa.vertices[octa.faces[0]].mean(axis=0, keepdims=True)
        m = compute_mvc(octa, p)
        assert m.flags[0] == FLAG_ON_FACE
        assert abs(m.weights.sum(axis=1)[0] - 1.0) < 1e-12
        assert np.abs(m.weights @ octa.vertices - p).max() < 1e-12
        # only that face's vertices carry weight
        other = np.setdiff1d(np.arange(6), octa.faces[0])
        assert np.abs(m.weights[0, other]).max() == 0.0

    def test_on_edge_point(self, octa):
        p = 0.5 * (octa.vertices[0] + octa.vertices[2])
        m = compute_mvc(octa, p[None])
        assert np.isfinite(m.weights).all()
        assert abs(m.weights.sum(axis=1)[0] - 1.0) < 1e-12
        # asin conditioning near a half-turn bounds accuracy at ~sqrt(eps)
        assert np.abs(m.weights @ octa.vertices - p).max() < 1e-7

    def test_near_tolerance_queries_finite(self, octa):
        eps_v = vertex_tolerance(octa.vertices)
        probes = np.stack([
            octa.vertices[0] + 0.5 * eps_v,          # inside snap radius
            octa.vertices[0] + np.array([3 * eps_v, 0, 0]),
            octa.vertices[octa.faces[0]].mean(axis=0) * (1 + 1e-9),
        ])
        m = compute_mvc(octa, probes)
        assert np.isfinite(m.weights).all()
        assert np.abs(m.weights.sum(axis=1) - 1.0).max() < 1e-9

    def test_coincident_with_vertex_is_indicator(self, octa):
        m = compute_mvc(octa, octa.vertices[4:5])
        e = np.zeros(6)
        e[4] = 1.0
        assert np.array_equal(m.weights[0], e)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_row_rejected(self, octa, bad):
        # the kernel gave this row NaN weights, flagged exterior
        pts = np.zeros((4, 3))
        pts[2, 1] = bad
        with pytest.raises(MvcError, match=r"^non-finite query row 2: "):
            compute_mvc(octa, pts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cage_vertex_rejected(self, octa, bad):
        v = octa.vertices.copy()
        v[3, 0] = bad
        with pytest.raises(MvcError, match=r"^non-finite cage vertex 3: "):
            compute_mvc(TriMesh(v, octa.faces), np.zeros((2, 3)))


class TestOracle:
    def test_ray_oracle_agreement_small(self, tetra, octa):
        rng = np.random.default_rng(11)
        for cage in (tetra, octa):
            for _ in range(2):
                w = rng.dirichlet(np.full(cage.n_vertices, 2.0))
                p = 0.8 * (w @ cage.vertices)
                analytic = compute_mvc(cage, p[None]).weights[0]
                mc = mvc_ray_oracle(cage, p, n_rays=200_000, seed=5)
                assert np.abs(analytic - mc).max() < 5e-3


class TestDeform:
    def test_identity(self, octa):
        rng = np.random.default_rng(12)
        pts = rng.uniform(-0.4, 0.4, size=(30, 3))
        m = compute_mvc(octa, pts)
        out = deform(m.weights, octa.vertices)
        assert np.abs(out - pts).max() < 1e-7

    def test_translation(self, octa):
        rng = np.random.default_rng(13)
        pts = rng.uniform(-0.4, 0.4, size=(30, 3))
        m = compute_mvc(octa, pts)
        t = np.array([0.3, -1.2, 2.5])
        out = deform(m.weights, octa.vertices + t)
        assert np.abs(out - (pts + t)).max() < 1e-9

    def test_affine_reproduction(self, octa):
        rng = np.random.default_rng(14)
        pts = rng.uniform(-0.4, 0.4, size=(30, 3))
        m = compute_mvc(octa, pts)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        out = deform(m.weights, octa.vertices @ a.T + b)
        assert np.abs(out - (pts @ a.T + b)).max() < 1e-7

    def test_dimension_mismatch(self, octa):
        m = compute_mvc(octa, np.zeros((1, 3)))
        with pytest.raises(ValueError):
            deform(m.weights, octa.vertices[:4])

    def test_non_finite_vertex_rejected_by_first_row(self, octa):
        # without the check every deformed row came back NaN, with no error
        m = compute_mvc(octa, np.zeros((3, 3)))
        verts = octa.vertices.copy()
        verts[2, 0], verts[5, 2] = -np.inf, np.nan
        with pytest.raises(MvcError, match=r"^non-finite deformed cage "
                           r"vertex 2: \[-inf, 1\.0, 0\.0\]$"):
            deform(m.weights, verts)


class TestTolerances:
    def test_vertex_tolerance_is_relative_to_the_diagonal(self, octa):
        v = octa.vertices
        diagonal = np.linalg.norm(v.max(axis=0) - v.min(axis=0))
        assert vertex_tolerance(v) == 1e-8 * diagonal
        big = vertex_tolerance(octa.vertices * 10)
        assert big == pytest.approx(10 * vertex_tolerance(octa.vertices))

    def test_snaps_by_the_diameter_of_the_given_cage(self, octa):
        # vertex 5 pushed out from z = -1 to -4 makes the diagonal 1.66x
        # longer without moving vertex 0 or changing the topology
        stretched = octa.vertices.copy()
        stretched[5, 2] = -4.0
        assert vertex_tolerance(stretched) > 1.5 * vertex_tolerance(
            octa.vertices)
        p = octa.vertices[0] - [1.5 * vertex_tolerance(octa.vertices), 0, 0]
        for cage, snapped in ((octa.vertices, False), (stretched, True)):
            for given in (cage, ad.Var(cage)):
                phi, flags = mvc_weights(given, octa.faces, p[None])
                assert (flags[0] == FLAG_ON_VERTEX) == snapped
                assert (ad.val(phi)[0, 0] == 1.0) == snapped

    def test_tolerances_are_not_arguments(self, octa):
        # a positional tolerance or config must fail, not be read as a flag
        with pytest.raises(TypeError):
            mvc_weights(octa.vertices, octa.faces, np.zeros((1, 3)), 1e-8)
        with pytest.raises(TypeError):
            compute_mvc(octa, np.zeros((1, 3)), None)


class TestSerialization:
    def test_binary_roundtrip(self, octa, tmp_path):
        rng = np.random.default_rng(15)
        pts = rng.uniform(-0.4, 0.4, size=(9, 3))
        m = compute_mvc(octa, pts)
        path = tmp_path / "w.bin"
        meshio.save_weights(m.weights, path)
        back = meshio.load_weights(path)
        assert np.array_equal(back, m.weights)
        raw = path.read_bytes()
        assert raw[:8] == b"MVCMAT01"
        rows = int.from_bytes(raw[8:16], "little")
        cols = int.from_bytes(raw[16:24], "little")
        assert (rows, cols) == (9, 6)
        assert len(raw) == 24 + rows * cols * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError):
            meshio.load_weights(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"MVCMAT01" + b"\x00\x00")
        with pytest.raises(ValueError, match="truncated MVC matrix file"):
            meshio.load_weights(path)

    @pytest.mark.parametrize("rows,cols", [(10**12, 10), (2**62, 2**62)])
    def test_header_larger_than_file(self, tmp_path, rows, cols):
        path = tmp_path / "huge.bin"
        path.write_bytes(b"MVCMAT01" + struct.pack("<qq", rows, cols)
                         + np.zeros(6).tobytes())
        with pytest.raises(ValueError, match="truncated MVC matrix file"):
            meshio.load_weights(path)

    def test_bytes_past_payload(self, tmp_path):
        # a (2, 3) header with its 6 doubles and 8 bytes more
        path = tmp_path / "long.bin"
        path.write_bytes(b"MVCMAT01" + struct.pack("<qq", 2, 3)
                         + np.zeros(6).tobytes() + b"\x00" * 8)
        with pytest.raises(ValueError, match="8 bytes past its"):
            meshio.load_weights(path)

    @pytest.mark.parametrize("rows,cols", [(-1, 6), (-2, -3)])
    def test_negative_dimensions(self, tmp_path, rows, cols):
        path = tmp_path / "neg.bin"
        path.write_bytes(b"MVCMAT01" + struct.pack("<qq", rows, cols)
                         + np.zeros(6).tobytes())
        with pytest.raises(ValueError, match="negative MVC matrix dimensions"):
            meshio.load_weights(path)

    def test_csv_export(self, octa, tmp_path):
        m = compute_mvc(octa, np.zeros((1, 3)))
        path = tmp_path / "w.csv"
        meshio.save_weights(m.weights, path)
        vals = np.loadtxt(path, delimiter=",")
        assert np.allclose(vals, m.weights[0])


class TestKernelGradientPath:
    def test_var_output_matches_primal(self, octa):
        rng = np.random.default_rng(16)
        pts = rng.uniform(-0.4, 0.4, size=(12, 3))
        primal, _ = mvc_weights(octa.vertices, octa.faces, pts)
        via_var, _ = mvc_weights(ad.Var(octa.vertices), octa.faces, pts)
        assert np.array_equal(primal, ad.val(via_var))

    def test_jacobian_vs_fd_entries(self, octa):
        rng = np.random.default_rng(17)
        pts = rng.uniform(-0.35, 0.35, size=(4, 3))
        r = rng.normal(size=(4, 6))

        def downstream(x):
            phi, _ = mvc_weights(x, octa.faces, pts, with_flags=False)
            return ad.sum_(phi * r)

        _, grad = ad.value_and_grad(downstream, octa.vertices)
        h = 1e-6
        for (i, j) in [(0, 0), (3, 1), (5, 2)]:
            vp, vm = octa.vertices.copy(), octa.vertices.copy()
            vp[i, j] += h
            vm[i, j] -= h
            fp = float(np.sum(np.asarray(
                mvc_weights(vp, octa.faces, pts)[0]) * r))
            fm = float(np.sum(np.asarray(
                mvc_weights(vm, octa.faces, pts)[0]) * r))
            fd = (fp - fm) / (2 * h)
            assert abs(grad[i, j] - fd) <= 1e-4 * max(1.0, abs(fd))
