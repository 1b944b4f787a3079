"""Triangle meshes, sampled point sets and their local differential data.

Meshes are plain indexed triangle lists.  Point sets optionally carry
per-point neighborhoods (mesh one-rings or k-NN) together with the fitted
local plane of each neighborhood: a unit normal and the point-to-plane
distance.  The plane quantities are the rigid-invariant features consumed
by the shape-preservation losses.  Neighborhoods have one form, the packed
``PaddedNeighborhoods`` arrays that ``pca_frames`` reads; the one-ring and
k-NN builders return it directly, and ``pad_neighborhoods`` packs any other
lists.

Everything here is immutable after construction and safe to share across
threads; a ``PointSet`` is frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import runtime

DEGENERATE_FACE_AREA = 1e-12
KDTREE_BLOCK = 1024       # query rows per k-d tree block
_COLLINEAR_RTOL = 1e-10


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


@dataclass(eq=False)
class TriMesh:
    """Indexed triangle mesh; also used for cages.

    vertices: (V, 3) float positions.
    faces: (F, 3) integer vertex indices, consistently oriented for cages.
    """

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if self.faces.size:
            if self.faces.min() < 0 or self.faces.max() >= len(self.vertices):
                raise MeshError(
                    f"face index out of range [0, {len(self.vertices)})"
                )

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def face_areas(self) -> np.ndarray:
        v = self.vertices
        e1 = v[self.faces[:, 1]] - v[self.faces[:, 0]]
        e2 = v[self.faces[:, 2]] - v[self.faces[:, 0]]
        return 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        if not len(self.vertices):
            raise MeshError("empty mesh has no bounding box")
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def is_closed_oriented(self) -> bool:
        """True when every undirected edge appears exactly once per direction."""
        a, b = _face_edges(self.faces)
        n = self.n_vertices
        keys = np.sort(a * n + b)
        # once per direction: no directed edge repeats, and the reversed
        # edges are the same set
        return bool(np.all(keys[1:] != keys[:-1])
                    and np.array_equal(keys, np.sort(b * n + a)))

    def with_vertices(self, vertices: np.ndarray) -> "TriMesh":
        return TriMesh(np.asarray(vertices, dtype=np.float64), self.faces.copy())


def _face_edges(faces):
    """(tail, head) of each face's three edges a->b, b->c, c->a."""
    return faces.ravel(), faces[:, [1, 2, 0]].ravel()


def validate_cage(mesh: TriMesh) -> None:
    """Raise unless the mesh is a usable cage (closed, consistently oriented)."""
    if mesh.n_faces == 0:
        raise MeshError("cage has no faces")
    if not mesh.is_closed_oriented():
        raise MeshError("cage must be closed and consistently oriented")


def check_laplacian_mesh(mesh: TriMesh) -> np.ndarray:
    """Raise MeshError unless ``mesh`` has a finite cotangent Laplacian.

    No edge may have more than two incident faces, and no face a corner
    whose cross product is zero (a face of zero area).  Returns the half
    cotangent of every corner, (3, F): corner k of a face weighs its
    opposite edge (f[k + 1], f[k + 2]).
    """
    n = mesh.n_vertices
    a, b = _face_edges(mesh.faces)
    edges, uses = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                            return_counts=True)
    bad = [divmod(int(e), n) for e in edges[uses > 2][:5]]
    if bad:
        raise MeshError(f"non-manifold edges: {bad}")
    corners = np.take(mesh.vertices, mesh.faces.T, axis=0)   # (3, F, 3)
    e1 = corners[[1, 2, 0]] - corners
    e2 = corners[[2, 0, 1]] - corners
    cross = np.linalg.norm(np.cross(e1, e2), axis=2)
    flat = np.flatnonzero((cross == 0.0).any(axis=0))
    if flat.size:
        raise MeshError(f"zero-area face {flat[0]}: "
                        f"{mesh.faces[flat[0]].tolist()}")
    return 0.5 * ((e1 * e2).sum(axis=2) / cross)


class PaddedNeighborhoods(NamedTuple):
    """Ragged neighbor lists packed into rectangular arrays."""

    idx: np.ndarray      # (N, K) neighbor indices, 0 past each list's end
    mask: np.ndarray     # (N, K) 1.0 on the entries of the list
    counts: np.ndarray   # (N,) list lengths


@dataclass(frozen=True, eq=False)
class PointSet:
    """Sampled or vertex positions with optional per-point plane fits.

    ``neighborhoods`` are packed (``PaddedNeighborhoods``); pack plain
    neighbor lists with ``pad_neighborhoods``.  A set built with
    neighborhoods fits each point's plane (``pca_frames``) where it is
    built: ``pca_normals`` (N, 3) and ``pca_offsets`` (N,), None without
    neighborhoods.  A set is frozen, so its fits stay those of its points.
    """

    points: np.ndarray
    neighborhoods: PaddedNeighborhoods | None = None
    pca_normals: np.ndarray | None = field(init=False, default=None)
    pca_offsets: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(
            self.points, dtype=np.float64).reshape(-1, 3))
        if self.neighborhoods is not None:
            if not isinstance(self.neighborhoods, PaddedNeighborhoods):
                raise TypeError("neighborhoods must be PaddedNeighborhoods; "
                                "pack neighbor lists with pad_neighborhoods")
            if len(self.neighborhoods.idx) != len(self.points):
                raise ValueError("neighborhood count must match point count")
            normals, _, offsets, _ = pca_frames(self.points, self.neighborhoods)
            object.__setattr__(self, "pca_normals", normals)
            object.__setattr__(self, "pca_offsets", offsets)

    def __len__(self) -> int:
        return len(self.points)


def as_positions(x):
    """(N, 3) positions of a PointSet, TriMesh, autodiff Var or array.

    A Var is returned as it is, so the positions stay on the tape.
    """
    if isinstance(x, PointSet):
        return x.points
    if isinstance(x, TriMesh):
        return x.vertices
    if ad.is_var(x):
        return x
    return np.asarray(x, dtype=np.float64).reshape(-1, 3)


@dataclass(eq=False)
class Transform:
    """Uniform scale followed by translation: x -> scale * x + translation."""

    scale: float
    translation: np.ndarray

    def apply(self, points: np.ndarray) -> np.ndarray:
        return self.scale * np.asarray(points, dtype=np.float64) + self.translation

    def inverse(self) -> "Transform":
        return Transform(1.0 / self.scale, -self.translation / self.scale)


def normalize_to_unit_box(mesh: TriMesh) -> tuple[TriMesh, Transform]:
    """Center at the origin and scale the longest bbox side to length 1."""
    if not len(mesh.vertices):
        raise MeshError("cannot normalize an empty mesh")
    lo, hi = mesh.bbox()
    side = float((hi - lo).max())
    if side == 0.0:
        raise MeshError("mesh has zero extent")
    scale = 1.0 / side
    center = 0.5 * (lo + hi)
    t = Transform(scale, -center * scale)
    return mesh.with_vertices(t.apply(mesh.vertices)), t


def sample_surface(mesh: TriMesh, n: int, seed: int) -> np.ndarray:
    """(n, 3) area-uniform surface samples, deterministic per seed."""
    areas = mesh.face_areas()
    total = areas.sum()
    if mesh.n_faces == 0 or total <= 0.0:
        raise MeshError("mesh has zero total area")
    rng = np.random.default_rng(seed)
    fidx = rng.choice(mesh.n_faces, size=n, p=areas / total)
    r1 = np.sqrt(rng.random(n))
    r2 = rng.random(n)
    a = 1.0 - r1
    b = r1 * (1.0 - r2)
    c = r1 * r2
    tri = mesh.vertices[mesh.faces[fidx]]
    return a[:, None] * tri[:, 0] + b[:, None] * tri[:, 1] + c[:, None] * tri[:, 2]


class SpatialIndex:
    """Exact nearest-neighbor queries; the package's one k-d tree builder."""

    def __init__(self, points: np.ndarray):
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if not len(pts):
            raise ValueError("cannot index an empty point set")
        # scipy.spatial takes ~0.2 s to import, so only a tree builder does
        from scipy.spatial import cKDTree

        self._tree = cKDTree(pts)

    def query(self, q: np.ndarray, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """(distances, indices) of each query row's ``k`` nearest points.

        The rows run in blocks of ``KDTREE_BLOCK`` on ``runtime.map_ordered``,
        so a query of one block runs on the calling thread.
        """
        q = np.asarray(q, dtype=np.float64).reshape(-1, 3)
        # no rows make one empty block, which keeps the result's shapes
        blocks = [q[i:i + KDTREE_BLOCK]
                  for i in range(0, max(len(q), 1), KDTREE_BLOCK)]
        d, i = zip(*runtime.map_ordered(
            lambda b: self._tree.query(b, k=k, workers=1), blocks))
        return np.concatenate(d), np.concatenate(i)


# -- neighborhoods ---------------------------------------------------------


def one_ring_neighborhoods(mesh: TriMesh) -> PaddedNeighborhoods:
    """Per-vertex sorted one-ring neighbor indices (center excluded)."""
    a, b = _face_edges(mesh.faces)
    n = mesh.n_vertices
    # both directions of every edge, as sorted unique center * n + neighbor
    keys = np.unique(np.concatenate((a * n + b, b * n + a)))
    center, nb = np.divmod(keys, n)
    return _pack(center, nb, np.bincount(center, minlength=n))


def knn_neighborhoods(points: np.ndarray, k: int = 8) -> PaddedNeighborhoods:
    """k nearest neighbors of each point, excluding the point itself."""
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) <= k:
        raise ValueError(f"need more than {k} points for k={k} neighborhoods")
    _, idx = SpatialIndex(pts).query(pts, k=k + 1)
    n = len(pts)
    # drop each point itself, or, where a duplicate point hid it from the
    # query, the farthest of the k + 1
    keep = idx != np.arange(n)[:, None]
    keep[keep.all(axis=1), -1] = False
    nb = np.sort(idx[keep].reshape(n, k).astype(np.int64), axis=1)
    return PaddedNeighborhoods(nb, np.ones((n, k)), np.full(n, float(k)))


def pad_neighborhoods(neigh: list) -> PaddedNeighborhoods:
    """Pack ragged neighbor lists into (index, mask, count) arrays."""
    counts = np.array([len(nb) for nb in neigh], dtype=np.int64)
    flat = np.concatenate([np.asarray(nb, dtype=np.int64).reshape(-1)
                           for nb in neigh])
    return _pack(np.repeat(np.arange(len(neigh)), counts), flat, counts)


def _pack(rows, cols, counts) -> PaddedNeighborhoods:
    """Packed lists in which list rows[j] holds cols[j], in the order given.

    ``rows`` is ascending, with counts[i] entries equal to i.
    """
    pos = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    idx = np.zeros((len(counts), counts.max(initial=0)), dtype=np.int64)
    mask = np.zeros(idx.shape)
    idx[rows, pos] = cols
    mask[rows, pos] = 1.0
    return PaddedNeighborhoods(idx, mask, counts.astype(np.float64))


# -- local plane fits -------------------------------------------------------


def _canonical_normal_signs(normals: np.ndarray) -> np.ndarray:
    """+1/-1 making each normal point toward +z (ties: +y, then +x)."""
    s = np.sign(normals[:, 2])
    tie = s == 0.0
    s[tie] = np.sign(normals[tie, 1])
    tie = s == 0.0
    s[tie] = np.sign(normals[tie, 0])
    s[s == 0.0] = 1.0
    return s


def pca_frames(positions, neighborhoods: PaddedNeighborhoods):
    """Plane fits of every point's neighborhood.

    positions may be an ndarray or an autodiff Var; the returned normals and
    offsets are of the same kind.  ``neighborhoods`` are the packed neighbor
    lists (``PointSet.neighborhoods``).  Returns (normals, centroids,
    offsets, degenerate) where ``degenerate`` marks collinear neighborhoods
    whose normal was chosen as a fixed vector orthogonal to the line
    (constant, no gradient).
    """
    idx, mask, counts = neighborhoods
    short = np.nonzero(counts < 3)[0]
    if short.size:
        raise ValueError(f"point {short[0]} has fewer than 3 neighbors")
    q = positions[idx]  # (N, K, 3)
    m3 = mask[:, :, None]
    centroid = ad.sum_(q * m3, axis=1) / counts[:, None]
    centered = (q - ad.reshape(centroid, (len(counts), 1, 3))) * m3
    cov = ad.matmul(ad.swapaxes(centered, -1, -2), centered) / counts[:, None, None]

    cov_p = ad.val(cov)
    lam, vec = np.linalg.eigh(cov_p)
    degenerate = lam[:, 1] <= _COLLINEAR_RTOL * np.maximum(lam[:, 2], 1e-30)

    normals = ad.smallest_eigvec(cov, (lam, vec))
    signs = _canonical_normal_signs(ad.val(normals))
    normals = normals * signs[:, None]

    if degenerate.any():
        fixed = ad.val(normals).copy()
        for i in np.nonzero(degenerate)[0]:
            # the line's cross product with its smallest-component axis
            line = vec[i, :, 2]
            axis = np.zeros(3)
            axis[int(np.argmin(np.abs(line)))] = 1.0
            n = np.cross(line, axis)
            n = n / np.linalg.norm(n)
            fixed[i] = n * _canonical_normal_signs(n[None, :])[0]
        normals = ad.where(degenerate[:, None], fixed, normals)

    offsets = ad.absolute(ad.dot_last(normals, positions - centroid))
    return normals, centroid, offsets, degenerate


def pointset_from_mesh_vertices(mesh: TriMesh) -> PointSet:
    """Mesh vertices as a PointSet with one-ring neighborhoods and frames."""
    return PointSet(points=mesh.vertices.copy(),
                    neighborhoods=one_ring_neighborhoods(mesh))


# -- cotangent Laplacian ----------------------------------------------------


class Laplacian:
    """An n x n sparse matrix: ``toarray()`` and ``tocsr()``.

    ``keys`` (row * n + column, increasing) and ``values`` are its nonzero
    entries in the order of a CSR matrix.
    """

    def __init__(self, n, keys, values):
        self.shape = (n, n)
        self.keys, self.values = keys, values

    def toarray(self) -> np.ndarray:
        n = self.shape[0]
        dense = np.zeros(n * n)
        dense[self.keys] = self.values
        return dense.reshape(n, n)

    def tocsr(self):
        """scipy's CSR matrix of the entries (imports ``scipy.sparse``)."""
        from scipy.sparse import csr_matrix

        n = self.shape[0]
        indptr = np.searchsorted(self.keys, np.arange(n + 1) * n)
        return csr_matrix((self.values, self.keys % n, indptr), shape=(n, n))


def cot_laplacian(mesh: TriMesh) -> Laplacian:
    """Cotangent-weighted Laplacian (off-diag (cot a + cot b)/2, zero row sums).

    Raises MeshError where ``check_laplacian_mesh`` does.  The entries have
    the bits of scipy's ``coo_matrix(...).tocsr() + diags(-row sums)``:
    the half cotangents of an edge's faces added, each diagonal entry 0.0
    minus the ``np.add.reduceat`` of its row's off-diagonal entries in
    column order (how ``csr.sum(axis=1)`` adds), and every entry that comes
    out exactly zero dropped.
    """
    w = check_laplacian_mesh(mesh).ravel()
    n, f = mesh.n_vertices, mesh.faces.T
    i, j = f[[1, 2, 0]].ravel(), f[[2, 0, 1]].ravel()
    keys = np.concatenate([i * n + j, j * n + i])
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], np.concatenate([w, w])[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    keys, values = keys[first], np.add.reduceat(values, first)
    rows = keys // n
    first = np.flatnonzero(np.diff(rows, prepend=-1))
    diag = 0.0 - np.add.reduceat(values, first)
    # two sorted runs: a stable sort merges them
    keys = np.concatenate([keys, rows[first] * (n + 1)])
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], np.concatenate([values, diag])[order]
    nonzero = values != 0.0
    return Laplacian(n, keys[nonzero], values[nonzero])


# -- template cages ----------------------------------------------------------

_PHI = (1.0 + np.sqrt(5.0)) / 2.0

_ICO_VERTS = np.array(
    [
        [-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
        [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
        [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1],
    ],
    dtype=np.float64,
)

_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)


def _subdivide_project(verts: np.ndarray, faces: np.ndarray):
    """One 4:1 subdivision with all vertices projected to the unit sphere."""
    verts = list(verts)
    midpoint: dict[tuple[int, int], int] = {}

    def mid(a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        if key not in midpoint:
            m = 0.5 * (verts[a] + verts[b])
            verts.append(m / np.linalg.norm(m))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    new_faces = []
    for a, b, c in faces:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        new_faces.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return np.array(verts), np.array(new_faces, dtype=np.int64)


def make_template_cage(kind: str, center=(0.0, 0.0, 0.0), scale=(1.0, 1.0, 1.0)) -> TriMesh:
    """Subdivided icosahedral sphere cage: 'sphere42' or 'sphere162'."""
    levels = {"sphere42": 1, "sphere162": 2}
    if kind not in levels:
        raise ValueError(f"unknown cage template {kind!r}")
    scale = np.asarray(scale, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    if not (np.all(scale > 0) and np.isfinite(np.append(scale, center)).all()):
        raise ValueError("cage scale must be positive and finite and its "
                         f"center finite, got scale {scale.tolist()}, "
                         f"center {center.tolist()}")
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
    faces = _ICO_FACES
    for _ in range(levels[kind]):
        verts, faces = _subdivide_project(verts, faces)
    verts = verts * scale + center
    return TriMesh(verts, faces)


def cage_around(mesh: TriMesh, kind: str, margin: float) -> TriMesh:
    """Template cage at the mesh's bbox center, ``margin`` x its half extents.

    Raises MeshError, naming the axes, where the mesh has zero extent along
    an axis: a cage scaled by that extent is flat and encloses nothing.
    """
    lo, hi = mesh.bbox()
    flat = np.flatnonzero(hi == lo)
    if flat.size:
        raise MeshError("cannot build a cage around a mesh with zero extent "
                        f"along {', '.join('xyz'[i] for i in flat)}")
    return make_template_cage(kind, center=0.5 * (lo + hi),
                              scale=margin * 0.5 * (hi - lo))


def make_box_mesh(subdiv: int = 4, center=(0.0, 0.0, 0.0), scale=(1.0, 1.0, 1.0)) -> TriMesh:
    """Axis-aligned box with each side an (subdiv x subdiv) triangle grid.

    Vertex count is 6*subdiv^2 + 2; the surface is closed and consistently
    oriented (outward normals).
    """
    if subdiv < 1:
        raise ValueError("subdiv must be >= 1")
    n = subdiv
    coords = np.linspace(-1.0, 1.0, n + 1)
    vert_id: dict[tuple, int] = {}
    verts: list[tuple] = []

    def vid(p: tuple) -> int:
        if p not in vert_id:
            vert_id[p] = len(verts)
            verts.append(p)
        return vert_id[p]

    faces = []
    # (axis, sign): the face plane; (u, v) the in-plane axes ordered so that
    # u x v points outward.
    sides = [
        (0, 1.0, 1, 2), (0, -1.0, 2, 1),
        (1, 1.0, 2, 0), (1, -1.0, 0, 2),
        (2, 1.0, 0, 1), (2, -1.0, 1, 0),
    ]
    for axis, sign, ua, va in sides:
        for i in range(n):
            for j in range(n):
                quad = []
                for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1)):
                    p = [0.0, 0.0, 0.0]
                    p[axis] = sign
                    p[ua] = coords[i + di]
                    p[va] = coords[j + dj]
                    quad.append(vid(tuple(p)))
                a, b, c, d = quad
                faces.append((a, b, c))
                faces.append((a, c, d))
    v = np.array(verts, dtype=np.float64) * np.asarray(scale, dtype=np.float64)
    v = v + np.asarray(center, dtype=np.float64)
    return TriMesh(v, np.array(faces, dtype=np.int64))
