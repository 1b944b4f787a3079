import dataclasses
import warnings

import numpy as np
import pytest

from cagewarp.geometry import (
    MeshError,
    PointSet,
    SpatialIndex,
    TriMesh,
    cage_around,
    cot_laplacian,
    knn_neighborhoods,
    make_box_mesh,
    make_template_cage,
    normalize_to_unit_box,
    one_ring_neighborhoods,
    pad_neighborhoods,
    pca_frames,
    sample_surface,
)
from cagewarp import meshio
from conftest import collapsed_face_box, random_rotation


class TestTriMesh:
    def test_index_out_of_range(self):
        with pytest.raises(MeshError):
            TriMesh(np.zeros((4, 3)), np.array([[0, 1, 9]]))

    def test_edge_pairing_closed(self, tetra):
        assert tetra.is_closed_oriented()
        assert make_box_mesh(3).is_closed_oriented()
        assert make_template_cage("sphere162").is_closed_oriented()

    def test_open_mesh_detected(self, tetra):
        open_mesh = TriMesh(tetra.vertices, tetra.faces[:3])
        assert not open_mesh.is_closed_oriented()

    def test_flipped_face_detected(self, tetra):
        faces = tetra.faces.copy()
        faces[0] = faces[0][::-1]
        assert not TriMesh(tetra.vertices, faces).is_closed_oriented()

    def test_duplicated_face_detected(self, tetra):
        faces = np.vstack([tetra.faces, tetra.faces[:1]])
        assert not TriMesh(tetra.vertices, faces).is_closed_oriented()

    def test_missing_twin_edge_detected(self):
        # every directed edge appears once, but 0->1 and 1->2 of the
        # first face have no reverse in the (open) strip
        faces = np.array([[0, 1, 2], [0, 2, 3]])
        assert not TriMesh(np.eye(4, 3), faces).is_closed_oriented()
        # two closed tetrahedra glued into one mesh stay closed
        two = np.vstack([np.eye(4, 3), np.eye(4, 3) + 2.0])
        tetra = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
        assert TriMesh(two, np.vstack([tetra, tetra + 4])).is_closed_oriented()


class TestObjIO:
    def test_tetra_roundtrip(self, tetra, tmp_path):
        path = tmp_path / "tetra.obj"
        meshio.save_mesh(tetra, path)
        back = meshio.load_mesh(path)
        assert np.array_equal(back.vertices, tetra.vertices)
        assert np.array_equal(back.faces, tetra.faces)
        assert back.n_vertices == 4 and back.n_faces == 4

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 9\n")
        with pytest.raises(meshio.ParseError):
            meshio.load_mesh(path)

    def test_malformed_vertex(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 zero 0\n")
        with pytest.raises(meshio.ParseError):
            meshio.load_mesh(path)

    def test_quad_rejected_then_triangulated(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
        )
        with pytest.raises(meshio.ParseError):
            meshio.load_mesh(path)
        mesh = meshio.load_mesh(path, triangulate_quads=True)
        assert mesh.n_faces == 2

    def test_point_cloud_obj(self, tmp_path):
        path = tmp_path / "cloud.obj"
        meshio.save_mesh(TriMesh(np.random.default_rng(0).normal(size=(5, 3)),
                                 np.zeros((0, 3), dtype=np.int64)), path)
        back = meshio.load_mesh(path)
        assert back.n_vertices == 5 and back.n_faces == 0

    def test_degenerate_face_rejected(self, tmp_path):
        path = tmp_path / "deg.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n")
        with pytest.raises(MeshError):
            meshio.load_mesh(path)

    def test_cube_closed_oriented(self):
        cube = make_box_mesh(1)
        assert cube.n_vertices == 8 and cube.n_faces == 12
        assert cube.is_closed_oriented()

    def test_sphere_template_roundtrip(self, tmp_path):
        cage = make_template_cage("sphere42", center=(0.1, -0.2, 0.3),
                                  scale=(1.0, 2.0, 0.5))
        path = tmp_path / "cage.obj"
        meshio.save_mesh(cage, path)
        back = meshio.load_mesh(path)
        assert np.array_equal(back.vertices, cage.vertices)
        assert np.array_equal(back.faces, cage.faces)

    def test_faces_with_slashes(self, tmp_path):
        path = tmp_path / "slash.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2/2 3//3\n"
        )
        mesh = meshio.load_mesh(path)
        assert mesh.n_faces == 1

    def test_points_csv_roundtrip(self, tmp_path):
        pts = PointSet(points=np.random.default_rng(1).normal(size=(7, 3)))
        path = tmp_path / "pts.csv"
        meshio.save_points(pts, path)
        back = meshio.load_points(path)
        assert np.array_equal(back, pts.points)


class TestNormalize:
    def test_cube_example(self):
        cube = make_box_mesh(1, center=(1.0, 1.0, 1.0), scale=(1.0, 1.0, 1.0))
        # corners at (0,0,0)-(2,2,2)
        out, t = normalize_to_unit_box(cube)
        lo, hi = out.bbox()
        assert np.allclose(lo, -0.5) and np.allclose(hi, 0.5)
        assert t.scale == pytest.approx(0.5)

    def test_idempotent(self):
        mesh = make_box_mesh(2, scale=(0.5, 0.3, 0.1))
        once, _ = normalize_to_unit_box(mesh)
        twice, t2 = normalize_to_unit_box(once)
        assert np.abs(twice.vertices - once.vertices).max() < 1e-12
        assert abs(t2.scale - 1.0) < 1e-12
        assert np.abs(t2.translation).max() < 1e-12

    def test_aspect_preserved(self):
        mesh = make_box_mesh(1, scale=(2.0, 1.0, 0.5))  # sides 4 x 2 x 1
        out, _ = normalize_to_unit_box(mesh)
        lo, hi = out.bbox()
        assert np.allclose(hi - lo, [1.0, 0.5, 0.25])

    def test_transform_maps_input_to_output(self):
        mesh = make_box_mesh(1, center=(3.0, -2.0, 1.0), scale=(2.0, 1.0, 0.5))
        out, t = normalize_to_unit_box(mesh)
        assert np.abs(t.apply(mesh.vertices) - out.vertices).max() == 0.0
        inv = t.inverse()
        assert np.abs(inv.apply(out.vertices) - mesh.vertices).max() < 1e-12

    def test_empty_mesh(self):
        with pytest.raises(MeshError):
            normalize_to_unit_box(TriMesh(np.zeros((0, 3)),
                                          np.zeros((0, 3), dtype=np.int64)))


class TestSampling:
    def test_unit_square_centroid(self):
        # two triangles forming the unit square in z=0
        mesh = TriMesh(
            np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float),
            np.array([[0, 1, 2], [0, 2, 3]]),
        )
        pts = sample_surface(mesh, 100_000, seed=0)
        assert np.abs(pts.mean(axis=0)[:2] - 0.5).max() < 0.01

    def test_deterministic(self):
        mesh = TriMesh(
            np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
            np.array([[0, 1, 2]]),
        )
        a = sample_surface(mesh, 1, seed=7)
        b = sample_surface(mesh, 1, seed=7)
        assert np.array_equal(a, b)

    def test_area_proportional_selection(self):
        # two triangles with areas 1 and 3; frequencies ~ 0.25 / 0.75
        mesh = TriMesh(
            np.array(
                [[0, 0, 0], [2, 0, 0], [0, 1, 0], [10, 0, 0], [10, 6, 0],
                 [9, 0, 0]],
                dtype=float,
            ),
            np.array([[0, 1, 2], [3, 4, 5]]),
        )
        areas = mesh.face_areas()
        assert np.allclose(areas, [1.0, 3.0])
        pts = sample_surface(mesh, 100_000, seed=1)
        frac_small = np.mean(pts[:, 0] < 3.0)
        assert abs(frac_small - 0.25) < 0.02

    def test_zero_area(self):
        mesh = TriMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(MeshError):
            sample_surface(mesh, 10, seed=0)


def plane_fit_oracle(points, nb, i):
    """One point's plane fit, straight from its neighborhood covariance."""
    q = points[nb]
    centroid = q.mean(axis=0)
    cov = (q - centroid).T @ (q - centroid) / len(q)
    n = np.linalg.eigh(cov)[1][:, 0]
    n = n * next((np.sign(c) for c in n[::-1] if c != 0.0), 1.0)  # +z, +y, +x
    return n, float(abs(n @ (points[i] - centroid)))


def first_frame(ps):
    """Row 0 of ``pca_frames``: (normal, centroid, offset)."""
    normals, centroids, offsets, _ = pca_frames(ps.points, ps.neighborhoods)
    return normals[0], centroids[0], offsets[0]


def test_cage_around_flat_mesh_names_each_flat_axis():
    # a degenerate triangle along x has zero extent along y and z
    line = TriMesh([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
                   [[0, 1, 2]])
    with pytest.raises(MeshError, match="zero extent along y, z$"):
        cage_around(line, "sphere42", 1.05)


class TestPcaFrame:
    def _planar_set(self):
        pts = np.array(
            [[0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]],
            dtype=float,
        )
        neigh = [np.array([1, 2, 3, 4])] + [np.array([0, 1, 2])] * 4
        return PointSet(points=pts, neighborhoods=pad_neighborhoods(neigh))

    @pytest.mark.parametrize("name", ["points", "neighborhoods",
                                      "pca_normals"])
    def test_fields_cannot_be_assigned(self, name):
        # the plane fits are made from the points where the set is built,
        # so a new value for any field would leave them stale
        ps = self._planar_set()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ps, name, getattr(ps, name))

    def test_planar_neighbors(self):
        ps = self._planar_set()
        n, c, d = first_frame(ps)
        assert np.allclose(n, [0, 0, 1])
        assert np.allclose(c, 0)
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_lifted_point_offset(self):
        h = 0.37
        ps = self._planar_set()
        pts = ps.points.copy()
        pts[0, 2] = h
        ps = PointSet(points=pts, neighborhoods=ps.neighborhoods)
        n, c, d = first_frame(ps)
        assert d == pytest.approx(h, abs=1e-12)

    def test_noisy_plane_normal(self):
        rng = np.random.default_rng(5)
        true_n = np.array([0.0, 0.0, 1.0])
        rot = random_rotation(rng)
        true_n = rot @ true_n
        base = rng.uniform(-1, 1, size=(40, 2))
        pts3 = np.column_stack([base, rng.normal(scale=0.01, size=40)]) @ rot.T
        ps = PointSet(points=pts3,
                      neighborhoods=pad_neighborhoods([np.arange(1, 40)] * 40))
        n, _, _ = first_frame(ps)
        angle = np.degrees(np.arccos(min(1.0, abs(n @ true_n))))
        assert angle < 2.0

    def test_too_few_neighbors(self):
        with pytest.raises(ValueError):
            ps = PointSet(
                points=np.zeros((3, 3)),
                neighborhoods=pad_neighborhoods([np.array([1, 2])] * 3))
            first_frame(ps)

    def test_collinear_degenerate_deterministic(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], dtype=float)
        ps = PointSet(points=pts,
                      neighborhoods=pad_neighborhoods([np.array([1, 2, 3])] * 4))
        n1, _, _ = first_frame(ps)
        n2, _, _ = first_frame(ps)
        assert np.array_equal(n1, n2)
        assert abs(np.linalg.norm(n1) - 1.0) < 1e-12
        assert abs(n1 @ np.array([1.0, 0, 0])) < 1e-12  # orthogonal to line

    def test_offset_rigid_invariant(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(12, 3))
        neigh = pad_neighborhoods(
            [np.delete(np.arange(12), i)[:6] for i in range(12)])
        ps = PointSet(points=pts, neighborhoods=neigh)
        rot = random_rotation(rng)
        shift = rng.normal(size=3)
        ps2 = PointSet(points=pts @ rot.T + shift, neighborhoods=neigh)
        assert np.abs(ps.pca_offsets - ps2.pca_offsets).max() < 1e-9

    def test_batch_matches_single(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(10, 3))
        neigh = knn_neighborhoods(pts, k=5)
        ps = PointSet(points=pts, neighborhoods=neigh)
        idx, _, counts = neigh
        for i in range(10):
            n, d = plane_fit_oracle(pts, idx[i, :int(counts[i])], i)
            assert np.allclose(n, ps.pca_normals[i], atol=1e-12)
            assert d == pytest.approx(ps.pca_offsets[i], abs=1e-12)

    def test_neighborhoods_packed_once(self):
        mesh = make_box_mesh(3)
        neigh = one_ring_neighborhoods(mesh)
        ps = PointSet(points=mesh.vertices, neighborhoods=neigh)
        assert ps.neighborhoods is neigh
        normals, _, offsets, _ = pca_frames(ps.points, neigh)
        assert np.array_equal(normals, ps.pca_normals)
        assert np.array_equal(offsets, ps.pca_offsets)

    def test_padded_too_few_neighbors(self):
        padded = pad_neighborhoods([np.array([1, 2, 3])] * 2
                                   + [np.array([0, 1])] * 2)
        with pytest.raises(ValueError, match="point 2 has fewer than 3"):
            pca_frames(np.zeros((4, 3)), padded)

    def test_invariant_offsets_nonnegative(self):
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(30, 3))
        ps = PointSet(points=pts, neighborhoods=knn_neighborhoods(pts, k=8))
        assert np.all(ps.pca_offsets >= 0)
        assert np.abs(np.linalg.norm(ps.pca_normals, axis=1) - 1).max() < 1e-6


def csr_laplacian_oracle(mesh):
    """The cotangent Laplacian as scipy builds it: every corner's half
    cotangent as two coo entries, summed into csr, plus diags(-row sums)."""
    from scipy import sparse

    v, f, n = mesh.vertices, mesh.faces, mesh.n_vertices
    rows, cols, vals = [], [], []
    for k in range(3):
        i, j, o = f[:, (k + 1) % 3], f[:, (k + 2) % 3], f[:, k]
        e1, e2 = v[i] - v[o], v[j] - v[o]
        w = 0.5 * ((e1 * e2).sum(axis=1)
                   / np.linalg.norm(np.cross(e1, e2), axis=1))
        rows.extend((i, j))
        cols.extend((j, i))
        vals.extend((w, w))
    lap = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    return (lap + sparse.diags(-np.asarray(lap.sum(axis=1)).ravel())).tocsr()


_ORACLE_MESHES = {
    "sphere42": lambda: make_template_cage("sphere42"),
    "sphere162": lambda: make_template_cage("sphere162"),
    "box12": lambda: make_box_mesh(12),
    "box24": lambda: make_box_mesh(24),
}


class TestCotLaplacian:
    def _assert_scipy_bits(self, mesh):
        want, lap = csr_laplacian_oracle(mesh), cot_laplacian(mesh)
        dense = lap.toarray()
        assert dense.tobytes() == want.toarray().tobytes()
        assert np.array_equal(np.signbit(dense), np.signbit(want.toarray()))
        got = lap.tocsr()
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        rng = np.random.default_rng(mesh.n_vertices)
        for x in (mesh.vertices, rng.normal(size=(mesh.n_vertices, 3)),
                  mesh.vertices[:, 1], rng.normal(size=mesh.n_vertices)):
            assert (got @ x).tobytes() == (want @ x).tobytes()

    @pytest.mark.parametrize("jitter", [0.0, 0.01])
    @pytest.mark.parametrize("name", sorted(_ORACLE_MESHES))
    def test_bits_match_scipy(self, name, jitter):
        mesh = _ORACLE_MESHES[name]()
        rng = np.random.default_rng(7)
        self._assert_scipy_bits(TriMesh(
            mesh.vertices + jitter * rng.normal(size=mesh.vertices.shape),
            mesh.faces))

    def test_bits_match_scipy_on_the_fixtures(self, tetra, octa):
        self._assert_scipy_bits(tetra)
        self._assert_scipy_bits(octa)
        # an open mesh (edges of one face) and a vertex in no face (no row)
        self._assert_scipy_bits(TriMesh(octa.vertices, octa.faces[:5]))
        self._assert_scipy_bits(TriMesh(
            np.vstack([tetra.vertices, [[3.0, 0.0, 0.0]]]), tetra.faces))

    def test_zero_entries_dropped(self):
        # the flat sides of a box give right angles: cot 90 = 0 exactly
        box = make_box_mesh(3)
        lap = cot_laplacian(box)
        assert np.all(lap.values != 0.0)
        assert len(lap.values) == csr_laplacian_oracle(box).nnz
        # fewer than one entry per vertex and two per edge
        assert len(lap.values) < box.n_vertices + 3 * box.n_faces

    def test_zero_area_face_rejected_naming_it(self):
        mesh = collapsed_face_box()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match=r"^zero-area face 0: \[0, 1, 2\]$"):
                cot_laplacian(mesh)

    def test_tetra_symmetry_and_nullspace(self, tetra):
        lap = cot_laplacian(tetra).toarray()
        off = lap[~np.eye(4, dtype=bool)]
        assert np.abs(off - off[0]).max() < 1e-12  # all equal by symmetry
        assert np.abs(lap @ np.ones(4)).max() < 1e-10
        assert np.abs(lap - lap.T).max() < 1e-12

    def test_flat_interior_vertex(self):
        # regular planar fan: interior vertex of a flat mesh
        k = 6
        ang = np.linspace(0, 2 * np.pi, k, endpoint=False)
        verts = np.vstack([[0, 0, 0], np.column_stack(
            [np.cos(ang), np.sin(ang), np.zeros(k)])])
        faces = np.array([[0, 1 + i, 1 + (i + 1) % k] for i in range(k)])
        mesh = TriMesh(verts, faces)
        lap = cot_laplacian(mesh).toarray()
        assert np.abs((lap @ verts)[0]).max() < 1e-8

    def test_against_per_angle_oracle(self, octa):
        rng = np.random.default_rng(3)
        mesh = TriMesh(octa.vertices + rng.normal(scale=0.1, size=(6, 3)),
                       octa.faces)
        lap = cot_laplacian(mesh).toarray()
        # oracle: accumulate every angle's cotangent into both edge entries
        n = mesh.n_vertices
        oracle = np.zeros((n, n))
        for a, b, c in mesh.faces:
            for (i, j, o) in ((b, c, a), (c, a, b), (a, b, c)):
                e1 = mesh.vertices[i] - mesh.vertices[o]
                e2 = mesh.vertices[j] - mesh.vertices[o]
                cot = e1 @ e2 / np.linalg.norm(np.cross(e1, e2))
                oracle[i, j] += 0.5 * cot
                oracle[j, i] += 0.5 * cot
        np.fill_diagonal(oracle, -oracle.sum(axis=1))
        assert np.abs(lap - oracle).max() < 1e-12

    def test_nonmanifold_rejected(self):
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]],
            dtype=float,
        )
        faces = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
        with pytest.raises(MeshError, match=r"non-manifold edges: \[\(0, 1\)\]"):
            cot_laplacian(TriMesh(verts, faces))

    def test_nullspace_random_mesh(self):
        cage = make_template_cage("sphere42")
        lap = cot_laplacian(cage).tocsr()
        assert np.abs(lap @ np.ones(cage.n_vertices)).max() < 1e-10


class TestTemplateCage:
    def test_sphere42_counts_and_radius(self):
        cage = make_template_cage("sphere42")
        assert cage.n_vertices == 42 and cage.n_faces == 80
        assert np.abs(np.linalg.norm(cage.vertices, axis=1) - 1).max() < 1e-9
        assert cage.is_closed_oriented()

    def test_sphere162_counts(self):
        cage = make_template_cage("sphere162")
        assert cage.n_vertices == 162 and cage.n_faces == 320
        assert cage.is_closed_oriented()

    def test_anisotropic_scale_bbox(self):
        cage = make_template_cage("sphere42", scale=(2.0, 1.0, 1.0))
        lo, hi = cage.bbox()
        assert np.allclose(hi - lo, [4.0, 2.0, 2.0], atol=1e-9)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            make_template_cage("sphere13")
        with pytest.raises(ValueError):
            make_template_cage("sphere42", scale=(0.0, 1.0, 1.0))

    @pytest.mark.parametrize("scale, center", [
        ((1.0, np.nan, 1.0), (0.0, 0.0, 0.0)),
        (np.inf, (0.0, 0.0, 0.0)),
        ((1.0, 1.0, 1.0), (0.0, np.nan, 0.0)),
        ((1.0, 1.0, 1.0), (-np.inf, 0.0, 0.0)),
    ], ids=["nan-scale", "inf-scale", "nan-center", "inf-center"])
    def test_non_finite_scale_or_center_rejected(self, scale, center):
        # nan <= 0 is false, so a positivity check alone lets NaN through
        with pytest.raises(ValueError, match="must be .*finite.*, got"):
            make_template_cage("sphere42", center=center, scale=scale)


class TestSpatialIndex:
    def test_matches_linear_scan(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(50, 3))
        queries = rng.normal(size=(20, 3))
        idx = SpatialIndex(pts)
        d, i = idx.query(queries)
        brute = np.linalg.norm(queries[:, None, :] - pts[None], axis=2)
        assert np.array_equal(i, brute.argmin(axis=1))
        assert np.allclose(d, brute.min(axis=1))
        # k nearest, nearest first
        d, i = idx.query(queries, k=4)
        assert np.array_equal(i, np.argsort(brute, axis=1)[:, :4])
        assert np.allclose(d, np.sort(brute, axis=1)[:, :4])

    def test_empty(self):
        with pytest.raises(ValueError):
            SpatialIndex(np.zeros((0, 3)))


def _packed_equal(got, want):
    return all(np.array_equal(g, w) and g.dtype == w.dtype
               for g, w in zip(got, want))


class TestNeighborhoods:
    def test_one_ring_tetra(self, tetra):
        rings = one_ring_neighborhoods(tetra)
        assert np.all(rings.counts == 3) and np.all(rings.mask == 1.0)
        for i in range(4):
            assert np.array_equal(rings.idx[i], np.delete(np.arange(4), i))

    @pytest.mark.parametrize("mesh", ["box", "sphere42", "isolated"])
    def test_one_ring_matches_per_vertex_sets(self, mesh):
        if mesh == "box":
            m = make_box_mesh(3)
        elif mesh == "sphere42":
            m = make_template_cage("sphere42")
        else:
            # vertex 5 is in no face, vertex 4 in one
            m = TriMesh(np.random.default_rng(0).normal(size=(6, 3)),
                        np.array([[0, 1, 2], [0, 2, 3], [1, 3, 4]]))
        ring = [set() for _ in range(m.n_vertices)]
        for a, b, c in m.faces:
            ring[a].update((b, c))
            ring[b].update((a, c))
            ring[c].update((a, b))
        want = pad_neighborhoods([np.array(sorted(r), dtype=np.int64)
                                  for r in ring])
        assert _packed_equal(one_ring_neighborhoods(m), want)

    def test_knn_excludes_self(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(20, 3))
        neigh = knn_neighborhoods(pts, k=8)
        assert neigh.idx.shape == (20, 8) and np.all(neigh.counts == 8)
        for i, nb in enumerate(neigh.idx):
            assert i not in nb

    @pytest.mark.parametrize("copies", [1, 3, 12])
    def test_knn_matches_per_point_lists(self, copies):
        # with 12 copies of a point, more than k + 1 neighbors sit at
        # distance 0 and the query may leave a point out of its own row
        from scipy.spatial import cKDTree

        pts = np.repeat(np.random.default_rng(6).normal(size=(30, 3)),
                        copies, axis=0)
        k = 8
        _, idx = cKDTree(pts).query(pts, k=k + 1)
        want = pad_neighborhoods([np.sort(idx[i][idx[i] != i][:k])
                                  for i in range(len(pts))])
        assert _packed_equal(knn_neighborhoods(pts, k=k), want)

    def test_pad_keeps_order_and_lengths(self):
        got = pad_neighborhoods([[3, 1, 2], np.array([], dtype=np.int64),
                                 np.array([4, 0])])
        assert np.array_equal(got.idx, [[3, 1, 2], [0, 0, 0], [4, 0, 0]])
        assert np.array_equal(got.mask, [[1, 1, 1], [0, 0, 0], [1, 1, 0]])
        assert np.array_equal(got.counts, [3.0, 0.0, 2.0])
        assert (got.idx.dtype, got.mask.dtype, got.counts.dtype) == (
            np.int64, np.float64, np.float64)

    def test_point_set_takes_only_packed_neighborhoods(self):
        pts = np.zeros((3, 3))
        with pytest.raises(TypeError, match="pad_neighborhoods"):
            PointSet(points=pts, neighborhoods=[np.array([1, 2])] * 3)
        with pytest.raises(ValueError, match="neighborhood count"):
            PointSet(points=pts,
                     neighborhoods=pad_neighborhoods([np.array([1, 2])] * 2))
