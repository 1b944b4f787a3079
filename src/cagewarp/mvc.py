"""Mean value coordinates of points with respect to a closed triangle cage.

The weights are accumulated per cage triangle from the spherical triangle
the face cuts out of the unit sphere around the query point:

    u_j = (v_j - p) / d_j,  d_j = |v_j - p|
    theta_i = 2 asin(|u_{i+1} - u_{i-1}| / 2)      (arc lengths)
    h = (theta_1 + theta_2 + theta_3) / 2
    pi - h < eps_plane   ->  p lies on the triangle: its 2D barycentric
                             weights sin(theta_i) d_{i-1} d_{i+1} make up
                             the whole row
    c_i = 2 sin(h) sin(h - theta_i) / (sin theta_{i+1} sin theta_{i-1}) - 1
    s_i = sign(det[u_1, u_2, u_3]) sqrt(1 - c_i^2)
    min_i |s_i| <= eps_plane  ->  p lies in the triangle's plane outside
                                  it: the face contributes nothing
    w_i = (theta_i - c_{i+1} theta_{i-1} - c_{i-1} theta_{i+1})
          / (d_i sin theta_{i+1} s_{i-1})

followed by normalization to unit sum.  Queries within eps_vertex of a cage
vertex get that vertex's exact indicator row.  Exterior queries are allowed
and produce (partially negative) valid weights.

One vectorised pass evaluates these formulas over blocks of query rows.
The block size follows the face count: 16 * max(1, 15360 // (3 F 16))
rows, so every (3, F, rows) temporary stays at or under 120 KiB, below
glibc's 128 KiB mmap threshold (larger temporaries go back to the OS when
freed and page-fault again at the next allocation).  A 320-face cage runs
16-row blocks, an 80-face one 64-row blocks.  Arc lengths and their sines
are taken once per cage edge, and the per-corner terms are added into
their cage columns with ``np.bincount``, which sums in a fixed order: a
row's weights are the same bits whatever block it falls in and however
many threads run.  The cage topology (edges, corner-to-edge map, scatter
indices) depends only on the faces and is cached per connectivity; only
the face planes are rebuilt from the vertices on each call.

Passing the cage vertices as an autodiff Var makes phi a single tape node.
Its VJP is the hand-derived adjoint of the formulas above and of the row
normalization, evaluated block by block from the intermediates each block
kept (so a taped call holds O(rows x faces) until its backward pass), and
returns d loss / d cage vertices directly.  The rows' contributions to that
gradient are summed in 16-row chunks, in row order, whatever the block
size, so the gradient bits do not depend on it either.  All branch masks are
decided on primal values; masked-out lanes and guarded denominators pass
no gradient, so no NaN/Inf can leak into values or gradients.

Row flags (``compute_mvc``) come from the same pass: the winding number
sums each face's solid angle 2 atan2(det[u_0, u_1, u_2], 1 + u_0.u_1 +
u_1.u_2 + u_2.u_0), and on-vertex and on-face rows are the rows the
snapping and 2D branches took.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .geometry import PointSet, TriMesh, as_positions, validate_cage

FLAG_INTERIOR = 0
FLAG_ON_VERTEX = 1
FLAG_ON_FACE = 2
FLAG_EXTERIOR_OK = 3

_MAGIC = b"MVCMAT01"
_DENOM_TINY = 1e-300
_ASIN_CLAMP = 1.0 - 1e-12   # asin's derivative is taken inside +-1

# Row granularity of the kernel: blocks are a multiple of it, and the cage
# gradient sums the rows in chunks of it.  A block takes as many chunks as
# keep a (3, F, rows) temporary within _BLOCK_ENTRIES float64s (120 KiB).
_BLOCK_ROWS = 16
_BLOCK_ENTRIES = 15360
_CORNERS = np.arange(3)
_NEXT = np.array([1, 2, 0])   # corner k -> k + 1
_PREV = np.array([2, 0, 1])   # corner k -> k + 2


class MvcError(Exception):
    """Numerically pathological coordinate computation."""


@dataclass
class MvcConfig:
    """Robustness thresholds.

    eps_vertex: queries closer than this to a cage vertex snap to its
    indicator row; default 1e-8 times the cage bounding-box diagonal.
    eps_plane: degeneracy threshold for the spherical-triangle branches.
    """

    eps_vertex: float | None = None
    eps_plane: float = 1e-7

    def __post_init__(self):
        if self.eps_vertex is not None and self.eps_vertex <= 0:
            raise ValueError("eps_vertex must be positive")
        if self.eps_plane <= 0:
            raise ValueError("eps_plane must be positive")

    def resolved_eps_vertex(self, cage: TriMesh) -> float:
        if self.eps_vertex is not None:
            return self.eps_vertex
        return 1e-8 * cage.diameter()


@dataclass
class MvcMatrix:
    """Dense weights, rows = query points, columns = cage vertices."""

    weights: np.ndarray
    flags: np.ndarray | None = None

    @property
    def n_points(self) -> int:
        return self.weights.shape[0]

    @property
    def n_cage_vertices(self) -> int:
        return self.weights.shape[1]

    def row_sums(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    def save_binary(self, path) -> None:
        """magic, int64 LE rows, int64 LE cols, then row-major float64 LE."""
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<qq", *self.weights.shape))
            fh.write(self.weights.astype("<f8").tobytes(order="C"))

    @classmethod
    def load_binary(cls, path) -> "MvcMatrix":
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != _MAGIC:
                raise ValueError(f"not an MVC matrix file (magic {magic!r})")
            header = fh.read(16)
            if len(header) < 16:
                raise ValueError("truncated MVC matrix file")
            rows, cols = struct.unpack("<qq", header)
            if rows < 0 or cols < 0:
                raise ValueError(
                    f"negative MVC matrix dimensions ({rows}, {cols})")
            data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
            if data.size != rows * cols:
                raise ValueError("truncated MVC matrix file")
        return cls(weights=data.reshape(rows, cols).astype(np.float64))

    def save_csv(self, path) -> None:
        np.savetxt(path, self.weights, delimiter=",", fmt="%.17g")


def mvc_weights(cage_vertices, faces: np.ndarray, points: np.ndarray,
                eps_vertex: float, eps_plane: float,
                with_aux: bool = False, with_flags: bool = True):
    """Raw weight rows for ``points``; generic over ndarray/Var cage vertices.

    Returns (phi, flags) or (phi, flags, aux) where aux carries the primal
    per-row distances to branch boundaries used for gradient exclusion.
    ``with_flags=False`` skips the interior/exterior classification (flags
    None), which optimization loops that recompute weights every iteration
    do not need.  With a Var cage, phi is one tape node whose VJP returns
    d phi / d cage in closed form.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if n == 0:
        raise MvcError("no query points")
    taped = ad.is_var(cage_vertices)
    geo = _CageGeometry(ad.val(cage_vertices), faces)
    block = _block_rows(len(geo.faces))

    w_sum = np.empty((n, geo.n_vertices))
    row_near = np.empty(n, dtype=bool)
    nearest = np.empty(n, dtype=np.int64)
    flags = np.empty(n, dtype=np.uint8) if with_flags else None
    aux = {"min_vertex_dist": np.empty(n), "plane_margin": np.empty(n)}
    blocks = []
    for lo in range(0, n, block):
        rows = slice(lo, lo + block)
        blk = _Block(geo, pts[rows], eps_vertex, eps_plane, with_flags)
        w_sum[rows] = blk.w_sum.T
        row_near[rows] = blk.row_near
        if blk.row_near.any():
            nearest[rows] = blk.nearest
        aux["min_vertex_dist"][rows] = blk.min_vertex_dist
        aux["plane_margin"][rows] = blk.plane_margin
        if with_flags:
            flags[rows] = blk.flags
        if taped:
            blocks.append(blk)
        del blk   # an untaped block is freed before the next one is built

    totals = w_sum.sum(axis=1)
    regular = ~row_near
    if np.any(np.abs(totals[regular]) < 1e-14):
        bad_rows = np.nonzero(regular & (np.abs(totals) < 1e-14))[0]
        raise MvcError(
            f"zero total weight for query rows {bad_rows[:5].tolist()}"
        )
    totals = np.where(row_near, 1.0, totals)
    phi = w_sum / totals[:, None]
    if row_near.any():
        r = np.nonzero(row_near)[0]
        phi[r] = 0.0
        phi[r, nearest[r]] = 1.0

    if taped:
        phi = _tape_node(cage_vertices, phi, totals, row_near, blocks, block)
    if not with_aux:
        return phi, flags
    return phi, flags, aux


def _block_rows(n_faces):
    """Query rows per block for a cage of ``n_faces`` faces."""
    return _BLOCK_ROWS * max(1, _BLOCK_ENTRIES // (3 * n_faces * _BLOCK_ROWS))


def _tape_node(cage_var, phi, totals, row_near, blocks, block):
    """``phi`` as one tape node over the cage, with the blocks' VJPs."""

    def vjp(g):
        # phi = w_sum / total on regular rows; snapped rows are constant
        g_sum = (g - (g * phi).sum(axis=1, keepdims=True)) / totals[:, None]
        g_sum[row_near] = 0.0
        grad = np.zeros_like(cage_var.value)
        for i, blk in enumerate(blocks):
            blk.vjp(g_sum[i * block:(i + 1) * block], grad)
        return grad

    return ad.Var._make(phi, (cage_var,), (vjp,), "mvc_weights")


class _CageTopology:
    """Cage data that depends only on the faces; shared and read-only."""

    def __init__(self, n_vertices, faces):
        self.faces = faces
        self.ft = faces.T                                       # (3, F)
        # the edge opposite each corner, as an index into unique edges
        a, b = self.ft[_NEXT], self.ft[_PREV]
        keys = np.minimum(a, b) * n_vertices + np.maximum(a, b)
        uniq, corner_edge = np.unique(keys, return_inverse=True)
        self.corner_edge = corner_edge.reshape(3, -1)
        self.edge_a, self.edge_b = np.divmod(uniq, n_vertices)
        for arr in (self.corner_edge, self.edge_a, self.edge_b):
            arr.flags.writeable = False
        self._scatter = {}

    def scatter_index(self, n):
        """Flat (target * n + row) indices for ``np.bincount`` at n rows."""
        if n not in self._scatter:
            rows = np.arange(n)
            index = tuple(
                (t[..., None] * n + rows).ravel()
                for t in (self.ft, self.corner_edge, self.edge_a, self.edge_b)
            )
            for arr in index:
                arr.flags.writeable = False
            self._scatter[n] = index
        return self._scatter[n]


@functools.lru_cache(maxsize=16)
def _topology(n_vertices, face_bytes):
    faces = np.frombuffer(face_bytes, dtype=np.int64).reshape(-1, 3)
    return _CageTopology(n_vertices, faces)


class _CageGeometry:
    """Per-call cage data shared by all blocks: cached topology, face planes."""

    def __init__(self, cage, faces):
        faces = np.ascontiguousarray(faces, dtype=np.int64)
        topo = _topology(len(cage), faces.tobytes())
        self.cage, self.faces, self.n_vertices = cage, topo.faces, len(cage)
        self.ft, self.corner_edge = topo.ft, topo.corner_edge
        self.edge_a, self.edge_b = topo.edge_a, topo.edge_b
        self.scatter_index = topo.scatter_index
        v0, v1, v2 = cage[faces[:, 0]], cage[faces[:, 1]], cage[faces[:, 2]]
        # det[v0 - p, v1 - p, v2 - p] = det[v0, v1, v2] - p . area_normal
        self.area_normal = np.cross(v1 - v0, v2 - v0)
        self.det0 = np.einsum("fi,fi->f", v0, np.cross(v1, v2))
        fn_len = np.linalg.norm(self.area_normal, axis=1, keepdims=True)
        self.unit_normal = self.area_normal / np.where(
            fn_len < _DENOM_TINY, 1.0, fn_len)


class _Block:
    """Forward pass over one block of query rows, and its VJP.

    Arrays are laid out (corner, face, row), (edge, row) or (vertex, row),
    with vectors carrying a leading component axis; corner k's neighbours
    are k+1 (_NEXT) and k+2 (_PREV).  Every value of a row depends on that
    row alone, and sums into cage columns go through ``np.bincount``, which
    adds in input order, so a row's weights do not depend on its block.
    The block keeps the intermediates its VJP reads.
    """

    def __init__(self, geo, pts, eps_vertex, eps_plane, with_flags):
        self.geo, self.eps_plane = geo, eps_plane
        ft, ce = geo.ft, geo.corner_edge
        diff = geo.cage.T[:, :, None] - pts.T[:, None, :]       # (3, C, n)
        d = np.sqrt(diff[0] * diff[0] + diff[1] * diff[1]
                    + diff[2] * diff[2])
        self.min_vertex_dist = d.min(axis=0)
        self.row_near = self.min_vertex_dist < eps_vertex
        if self.row_near.any():
            self.nearest = d.argmin(axis=0)
            # snapped rows end up as indicator rows and pass no gradient,
            # so their snapped distances may read 1.0 from here on
            d[d < eps_vertex] = 1.0
        self.d = d
        self.u = u = diff / d

        # arc theta = 2 asin(|u_a - u_b| / 2) of each edge seen from p
        chord = u[:, geo.edge_a] - u[:, geo.edge_b]             # (3, E, n)
        chord2 = chord[0] * chord[0] + chord[1] * chord[1] + chord[2] * chord[2]
        length = np.sqrt(chord2)
        theta_e = 2.0 * np.arcsin(np.clip(length / 2.0, -1.0, 1.0))
        self.chord, self.length = chord, length
        self.theta = theta = theta_e[ce]                        # (3, F, n)
        self.sin_t = sin_t = np.sin(theta_e)[ce]
        self.dk = dk = d[ft]
        self.h = h = (theta[0] + theta[1] + theta[2]) / 2.0     # (F, n)

        # A nearly full half-turn of arc marks p as on (or extremely close
        # to) the face; asin conditioning limits how sharply that can be
        # resolved, so candidates are confirmed against the actual plane
        # distance before the exact-2D replacement fires.  Points that are
        # merely near the plane keep the (accurate) general accumulation.
        on_face = (np.pi - h) < eps_plane
        if on_face.any():
            fi, ri = np.nonzero(on_face)
            dplane = np.abs(np.einsum(
                "ki,ki->k", pts[ri] - geo.cage[geo.faces[fi, 0]],
                geo.unit_normal[fi]))
            on_face[fi, ri] = dplane <= eps_vertex

        an = geo.area_normal
        det = geo.det0[:, None] - (an[:, 0:1] * pts[:, 0] + an[:, 1:2] * pts[:, 1]
                                   + an[:, 2:3] * pts[:, 2])    # (F, n)
        self.det_sign = det_sign = np.sign(det)                 # primal
        self.two_sin_h = two_sin_h = 2.0 * np.sin(h)
        self.sin_hm = sin_hm = np.sin(h - theta)
        self.denom_c, self.denom_c_bad = denom_c, _ = _guard(
            sin_t[_NEXT] * sin_t[_PREV])
        self.cc = cc = np.clip(two_sin_h * sin_hm / denom_c - 1.0, -1.0, 1.0)
        self.q = q = 1.0 - cc * cc
        self.s = s = det_sign * np.sqrt(np.maximum(q, 0.0))
        s_min = np.abs(s).min(axis=0)                           # (F, n)
        self.dead = dead = (s_min <= eps_plane) | on_face
        num = theta - cc[_NEXT] * theta[_PREV] - cc[_PREV] * theta[_NEXT]
        self.denom, self.denom_bad = denom, _ = _guard(
            dk * sin_t[_NEXT] * s[_PREV], dead)
        self.w = w = num / denom
        w[:, dead] = 0.0
        w_sum = np.bincount(geo.scatter_index(len(pts))[0], w.ravel(),
                            minlength=d.size).reshape(d.shape)

        # rows on a face: that face's exact 2D barycentric weights only
        self.on_rows = np.zeros(0, dtype=np.int64)
        if on_face.any():
            self.on_rows = np.nonzero(on_face.any(axis=0) & ~self.row_near)[0]
        if self.on_rows.size:
            r, k = self.on_rows, _CORNERS[:, None]
            f = self.fsel = np.argmax(on_face[:, r], axis=0)
            w_sum[:, r] = 0.0
            w_sum[ft[:, f], r] = (sin_t[k, f, r] * dk[(k + 1) % 3, f, r]
                                  * dk[(k + 2) % 3, f, r])
        self.w_sum = w_sum                                      # (C, n)
        self.plane_margin = np.minimum(np.abs(np.pi - h).min(axis=0),
                                       s_min.min(axis=0))
        if with_flags:
            self.flags = self._flags(chord2, det)

    def _flags(self, chord2, det):
        """Per-row flags; interior/exterior decided by the winding number."""
        # solid angle of each face: 2 atan2(det[u0,u1,u2], 1 + sum u_a.u_b),
        # with u_a.u_b = 1 - |u_a - u_b|^2 / 2 for unit vectors
        ce, dk = self.geo.corner_edge, self.dk
        dots = 4.0 - 0.5 * (chord2[ce[0]] + chord2[ce[1]] + chord2[ce[2]])
        omega = 2.0 * np.arctan2(det / (dk[0] * dk[1] * dk[2]), dots)
        solid = np.ascontiguousarray(omega.T).sum(axis=1)
        flags = np.full(len(solid), FLAG_EXTERIOR_OK, dtype=np.uint8)
        flags[np.abs(solid) > 2.0 * np.pi] = FLAG_INTERIOR
        flags[self.on_rows] = FLAG_ON_FACE
        flags[self.row_near] = FLAG_ON_VERTEX
        return flags

    def vjp(self, g_sum, grad):
        """Add the cage gradient (C, 3) from the gradient (n, C) of the raw
        rows into ``grad``, one _BLOCK_ROWS-row chunk at a time.

        The adjoint of the forward pass, branch by branch: masked lanes and
        guarded denominators pass no gradient, clip passes it strictly
        inside (-1, 1), asin's derivative is taken at an argument clamped
        to 1 - 1e-12, and a zero-length norm has gradient 0.
        """
        geo, ft = self.geo, self.geo.ft
        to_vertex, to_edge, from_a, from_b = geo.scatter_index(len(g_sum))
        theta, sin_t, dk, cc, s = (
            self.theta, self.sin_t, self.dk, self.cc, self.s)

        g = g_sum.T.copy()                                      # (C, n)
        g_sin = np.zeros_like(theta)
        g_dk = np.zeros_like(dk)
        if self.on_rows.size:
            r, f = self.on_rows, self.fsel
            g_on = g[ft[:, f], r]                               # (3, r)
            for k in range(3):
                k1, k2 = (k + 1) % 3, (k + 2) % 3
                g_sin[k, f, r] += g_on[k] * dk[k1, f, r] * dk[k2, f, r]
                g_dk[k1, f, r] += g_on[k] * sin_t[k, f, r] * dk[k2, f, r]
                g_dk[k2, f, r] += g_on[k] * sin_t[k, f, r] * dk[k1, f, r]
            g[:, r] = 0.0                   # the general sum is replaced

        # w = num / denom off the dead lanes
        g_w = g[ft]                                             # (3, F, n)
        g_w[:, self.dead] = 0.0
        g_num = g_w / self.denom
        g_den = -g_num * self.w
        g_den[self.denom_bad] = 0.0
        # num_k = theta_k - c_{k+1} theta_{k+2} - c_{k+2} theta_{k+1}
        g_theta = (g_num - g_num[_NEXT] * cc[_PREV]
                   - g_num[_PREV] * cc[_NEXT])
        g_c = -g_num[_PREV] * theta[_NEXT] - g_num[_NEXT] * theta[_PREV]
        # denom_k = d_k sin(theta_{k+1}) s_{k+2}
        g_dd = g_den * dk
        g_dk += g_den * sin_t[_NEXT] * s[_PREV]
        g_sin += g_dd[_PREV] * s[_NEXT]
        g_s = g_dd[_NEXT] * sin_t[_PREV]
        # s_k = sign(det) sqrt(q_k), q_k = 1 - c_k^2, off the q_bad lanes
        q_bad = self.q < self.eps_plane * self.eps_plane
        g_q = g_s * self.det_sign / (
            2.0 * np.sqrt(np.where(q_bad, 1.0, self.q)))
        g_q[q_bad] = 0.0
        g_c -= 2.0 * cc * g_q
        # c_k = clip(2 sin(h) sin(h - theta_k) / denom_c_k - 1), where the
        # unclipped lanes have 2 sin(h) sin(h - theta_k) / denom_c_k = c_k + 1
        g_c[np.abs(cc) >= 1.0] = 0.0
        g_a = g_c / self.denom_c
        g_denc = -g_a * (cc + 1.0)
        g_denc[self.denom_c_bad] = 0.0
        # cos(theta) = 1 - 2 sin^2(theta / 2); h - theta_k by addition
        half = np.minimum(self.length / 2.0, 1.0)
        cos_t = (1.0 - 2.0 * half * half)[geo.corner_edge]
        cos_h = np.cos(self.h)
        g_hm = g_a * self.two_sin_h * (
            cos_h * cos_t + (self.two_sin_h / 2.0) * sin_t)
        g_h = 2.0 * (g_a * self.sin_hm).sum(axis=0) * cos_h + g_hm.sum(axis=0)
        # denom_c_k = sin(theta_{k+1}) sin(theta_{k+2})
        g_sin += g_denc[_PREV] * sin_t[_NEXT] + g_denc[_NEXT] * sin_t[_PREV]
        g_theta += g_sin * cos_t - g_hm + g_h / 2.0

        # theta = 2 asin(|chord| / 2), summed from corners onto edges
        length = self.length
        g_theta_e = np.bincount(to_edge, g_theta.ravel(),
                                minlength=length.size).reshape(length.shape)
        x = np.minimum(half, _ASIN_CLAMP)
        g_len = g_theta_e / (np.sqrt(1.0 - x * x)
                             * np.where(length == 0.0, 1.0, length))
        u, d = self.u, self.d
        g_u = np.stack([
            np.bincount(from_a, gl.ravel(), minlength=d.size)
            - np.bincount(from_b, gl.ravel(), minlength=d.size)
            for gl in self.chord * g_len
        ]).reshape(u.shape)
        g_d = np.bincount(to_vertex, g_dk.ravel(),
                          minlength=d.size).reshape(d.shape)
        # u = diff / d, d = |diff|, on the rows that were not snapped
        g_d -= (g_u * u).sum(axis=0) / d
        g_diff = g_u / d + u * g_d
        for lo in range(0, g_diff.shape[2], _BLOCK_ROWS):
            grad += g_diff[:, :, lo:lo + _BLOCK_ROWS].sum(axis=2).T


def _guard(x, bad=None):
    """Set the tiny (or ``bad``) entries of the temporary ``x`` to 1.0.

    Returns ``x`` and the mask of the entries that were set.
    """
    tiny = np.abs(x) < _DENOM_TINY
    bad = tiny if bad is None else bad | tiny
    x[bad] = 1.0
    return x, bad


def compute_mvc(cage: TriMesh, points, cfg: MvcConfig | None = None) -> MvcMatrix:
    """Mean value coordinates of ``points`` with respect to ``cage``."""
    cfg = cfg or MvcConfig()
    validate_cage(cage)
    pts = as_positions(points)
    phi, flags = mvc_weights(
        cage.vertices,
        cage.faces,
        pts,
        eps_vertex=cfg.resolved_eps_vertex(cage),
        eps_plane=cfg.eps_plane,
    )
    return MvcMatrix(weights=np.asarray(phi), flags=flags)


def deform(points, mvc: MvcMatrix, deformed_cage_vertices) -> PointSet:
    """Interpolate new cage vertex positions: p_i' = sum_j phi_ji v_j'."""
    verts = np.asarray(deformed_cage_vertices, dtype=np.float64).reshape(-1, 3)
    if verts.shape[0] != mvc.n_cage_vertices:
        raise ValueError(
            f"cage vertex count {verts.shape[0]} does not match "
            f"{mvc.n_cage_vertices} weight columns"
        )
    pts = as_positions(points)
    if len(pts) != mvc.n_points:
        raise ValueError("point count does not match weight rows")
    return PointSet(points=mvc.weights @ verts)
