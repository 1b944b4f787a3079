"""Mean value coordinates of points with respect to a closed triangle cage.

The weights are accumulated per cage triangle from the spherical triangle
the face cuts out of the unit sphere around the query point:

    u_j = (v_j - p) / d_j,  d_j = |v_j - p|
    theta_i = 2 asin(|u_{i+1} - u_{i-1}| / 2)      (arc lengths)
    h = (theta_1 + theta_2 + theta_3) / 2
    pi - h < EPS_PLANE   ->  p lies on the triangle: its 2D barycentric
                             weights sin(theta_i) d_{i-1} d_{i+1} make up
                             the whole row
    c_i = 2 sin(h) sin(h - theta_i) / (sin theta_{i+1} sin theta_{i-1}) - 1
    s_i = sign(det[u_1, u_2, u_3]) sqrt(1 - c_i^2)
    min_i |s_i| <= EPS_PLANE  ->  p lies in the triangle's plane outside
                                  it: the face contributes nothing
    w_i = (theta_i - c_{i+1} theta_{i-1} - c_{i-1} theta_{i+1})
          / (d_i sin theta_{i+1} s_{i-1})

followed by normalization to unit sum.  Queries within eps_vertex of a cage
vertex get that vertex's exact indicator row, where eps_vertex =
EPS_VERTEX_REL x the bounding-box diagonal of the cage the call is given
(``vertex_tolerance``).  Exterior queries are allowed and produce
(partially negative) valid weights.  Neither tolerance is a parameter.

One vectorised pass evaluates these formulas over blocks of query rows.
The block size follows the face count: 16 * max(1, 46080 // (3 F 16))
rows, so a (3, F, rows) array, the largest a block builds, stays within
360 KiB.  A 320-face cage runs 48-row blocks, an 80-face one 192-row
blocks.  That size was measured against peak memory, since
every thread holds one block's scratch: on 2 threads, 64-row blocks ran
``cagewarp transfer`` on a 320-face cage 5-10% faster than 48-row ones,
but its peak RSS rose ~3 MiB further, to ~5% above the single-threaded
16-row kernel's.
Arc lengths and their sines are taken once per cage edge and gathered
once per face corner.  The per-corner terms are added into their cage
columns by numpy scatters: every column adds its terms into 0.0 in
increasing input order, the order ``np.bincount`` adds in, so a row's
weights are the same bits whatever block it falls in.  The cage topology
(edges, corner-to-edge map, scatters) depends only on the faces and is
cached per connectivity; only the face planes are rebuilt from the
vertices on each call.

The blocks of a call run on up to ``runtime.thread_count()`` threads (the
calling thread and pool threads; ``--threads 1`` runs them inline), and
each block writes its rows straight into the call's output arrays.  A
block's temporaries live in its thread's workspace: named slots allocated
once and written with ``out=``, instead of fresh arrays per operation.
Fresh arrays over glibc's 128 KiB mmap threshold go back to the OS when
freed and page-fault again at the next allocation, which made threads
over such blocks slower than one thread.  The results do not depend on
the thread count: every value of a row comes from that row alone, and
what is summed across blocks is summed on the calling thread in row order.

Passing the cage vertices as an autodiff Var makes phi a single tape node.
Its VJP is the hand-derived adjoint of the formulas above and of the row
normalization, evaluated block by block, on the same threads, from what
each block kept (~50 KB a row on a 320-face cage, held until the backward
pass), and returns d loss / d cage vertices directly.  Each block sums its
rows' contributions to that gradient in 16-row chunks, and the calling
thread adds the chunk sums in row order, so the gradient bits depend on
neither the block size nor the thread count.  All branch masks are
decided on primal values; masked-out lanes and guarded denominators pass
no gradient, so no NaN/Inf can leak into values or gradients.

Row flags (``compute_mvc``) come from the same pass: the winding number
sums each face's solid angle 2 atan2(det[u_0, u_1, u_2], 1 + u_0.u_1 +
u_1.u_2 + u_2.u_0), and on-vertex and on-face rows are the rows the
snapping and 2D branches took.  The winding number costs ~8% of an
untaped pass, so callers that read only the weights pass
``with_flags=False``.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import runtime
from .geometry import PointSet, TriMesh, as_positions, validate_cage

FLAG_INTERIOR = 0
FLAG_ON_VERTEX = 1
FLAG_ON_FACE = 2
FLAG_EXTERIOR_OK = 3

# The two robustness tolerances of the weights.  A query closer than
# vertex_tolerance(cage) to a cage vertex snaps to that vertex's indicator
# row; EPS_PLANE bounds the degenerate spherical-triangle branches.  The
# vertex tolerance follows the cage of each call, so a cage that moves or
# scales carries its own.
EPS_PLANE = 1e-7
EPS_VERTEX_REL = 1e-8

_MAGIC = b"MVCMAT01"
_DENOM_TINY = 1e-300
_ASIN_CLAMP = 1.0 - 1e-12   # asin's derivative is taken inside +-1

# Row granularity of the kernel: blocks are a multiple of it, and the cage
# gradient sums the rows in chunks of it.  A block takes as many chunks as
# keep a (3, F, rows) array within _BLOCK_ENTRIES float64s (360 KiB).
_BLOCK_ROWS = 16
_BLOCK_ENTRIES = 46080
_NEXT = np.array([1, 2, 0])   # corner k -> k + 1
_PREV = np.array([2, 0, 1])   # corner k -> k + 2


class MvcError(Exception):
    """Numerically pathological coordinate computation."""


def vertex_tolerance(vertices) -> float:
    """Snap distance of a cage: EPS_VERTEX_REL x its bounding-box diagonal."""
    v = np.asarray(vertices, dtype=np.float64)
    diagonal = np.linalg.norm(v.max(axis=0) - v.min(axis=0))
    return EPS_VERTEX_REL * float(diagonal)


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
            size = rows * cols * 8
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if size > left:
                raise ValueError("truncated MVC matrix file")
            if size < left:
                raise ValueError(
                    f"MVC matrix file has {left - size} bytes past its "
                    f"({rows}, {cols}) payload")
            data = np.frombuffer(fh.read(size), dtype="<f8")
        return cls(weights=data.reshape(rows, cols).astype(np.float64))

    def save_csv(self, path) -> None:
        np.savetxt(path, self.weights, delimiter=",", fmt="%.17g")


def mvc_weights(cage_vertices, faces: np.ndarray, points: np.ndarray, *,
                with_aux: bool = False, with_flags: bool = True):
    """Raw weight rows for ``points``; generic over ndarray/Var cage vertices.

    Returns (phi, flags) or (phi, flags, aux) where aux carries the primal
    per-row distances to branch boundaries used for gradient exclusion.
    ``with_flags=False`` skips the interior/exterior classification (flags
    None), which optimization loops that recompute weights every iteration
    do not need.  With a Var cage, phi is one tape node whose VJP returns
    d phi / d cage in closed form.  Queries snap to a cage vertex within
    ``vertex_tolerance(cage_vertices)``.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if n == 0:
        raise MvcError("no query points")
    taped = ad.is_var(cage_vertices)
    geo = _CageGeometry(ad.val(cage_vertices), faces)
    eps_vertex = vertex_tolerance(geo.cage)
    block = _block_rows(len(geo.topo.faces))
    out = _Rows(n, geo.n_vertices, with_flags)

    def run(lo):
        # the block writes its rows into ``out``; an untaped one dies here
        blk = _Block(geo, pts, slice(lo, lo + block), eps_vertex, out,
                     taped)
        return blk if taped else None

    blocks = runtime.map_ordered(run, range(0, n, block))

    w_sum, row_near, nearest = out.w_sum, out.row_near, out.nearest
    totals = w_sum.sum(axis=1)
    regular = ~row_near
    if np.any(np.abs(totals[regular]) < 1e-14):
        bad_rows = np.nonzero(regular & (np.abs(totals) < 1e-14))[0]
        raise MvcError(
            f"zero total weight for query rows {bad_rows[:5].tolist()}"
        )
    totals = np.where(row_near, 1.0, totals)
    w_sum /= totals[:, None]
    phi = w_sum
    if row_near.any():
        r = np.nonzero(row_near)[0]
        phi[r] = 0.0
        phi[r, nearest[r]] = 1.0

    if taped:
        phi = _tape_node(cage_vertices, phi, totals, row_near, blocks)
    if not with_aux:
        return phi, out.flags
    aux = {"min_vertex_dist": out.min_vertex_dist,
           "plane_margin": out.plane_margin}
    return phi, out.flags, aux


def _block_rows(n_faces):
    """Query rows per block for a cage of ``n_faces`` faces."""
    return _BLOCK_ROWS * max(1, _BLOCK_ENTRIES // (3 * n_faces * _BLOCK_ROWS))


def _tape_node(cage_var, phi, totals, row_near, blocks):
    """``phi`` as one tape node over the cage, with the blocks' VJPs."""

    def vjp(g):
        # phi = w_sum / total on regular rows; snapped rows are constant
        g_sum = (g - (g * phi).sum(axis=1, keepdims=True)) / totals[:, None]
        g_sum[row_near] = 0.0
        grad = np.zeros_like(cage_var.value)
        # the blocks' chunk sums are added here, in row order
        for parts in runtime.map_ordered(
                lambda blk: blk.vjp(g_sum[blk.rows]), blocks):
            for part in parts:
                grad += part.T
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
        # the scatters of (corner, face) and edge rows into their vertices
        # and edges
        self.to_vertex = _Scatter(self.ft.ravel(), n_vertices)
        self.to_edge = _Scatter(self.corner_edge.ravel(), len(uniq))
        self.from_a = _Scatter(self.edge_a, n_vertices)
        self.from_b = _Scatter(self.edge_b, n_vertices)


class _Scatter:
    """Adds each row j of a (J, n) array into row target[j] of an output.

    Every target adds its rows into 0.0 in increasing j, the order
    ``np.bincount`` adds in, so the sums (signed zeros included) are the
    same bits whatever the column count.  The targets are ranked by row
    count, most first; slot p holds the p-th row of each of the first t_p
    ranked targets, and the source rows are gathered once in (slot, rank)
    order.  A call adds slot p into the first t_p rows of a zeroed
    accumulator, then gathers the accumulator back into target order.
    Where the ranking leaves every target in place (the edges of a closed
    cage, two corners each), the output is the accumulator.
    """

    def __init__(self, target, n_targets):
        counts = np.bincount(target, minlength=n_targets)
        rank = np.argsort(-counts, kind="stable")     # rank -> target
        first = np.cumsum(counts) - counts
        by_target = np.argsort(target, kind="stable")
        ranked = counts[rank]
        self.slots, index, lo = [], [], 0
        for p in range(int(ranked.max(initial=0))):
            t = int(np.count_nonzero(ranked > p))
            index.append(by_target[first[rank[:t]] + p])
            self.slots.append((lo, lo + t))
            lo += t
        self.index = np.concatenate(index or [np.zeros(0, np.intp)])
        self.n_hit = self.slots[0][1] if self.slots else 0
        back = np.argsort(rank)                        # target -> rank
        in_place = np.array_equal(back, np.arange(n_targets))
        self.back = None if in_place else back
        self.n_targets = n_targets

    def __call__(self, ws, x, out):
        """The sums of ``x`` per target, written into ``out``."""
        n, t0 = x.shape[1], self.n_hit
        src = _gather(x, self.index, ws.take("sc_src", (len(self.index), n)))
        acc = out if self.back is None else ws.take(
            "sc_acc", (self.n_targets, n))
        acc[t0:] = 0.0                          # targets with no rows
        # slot 0 adds into 0.0; x + 0.0 has the bits of 0.0 + x
        np.add(src[:t0], 0.0, out=acc[:t0])
        for lo, hi in self.slots[1:]:
            np.add(acc[:hi - lo], src[lo:hi], out=acc[:hi - lo])
        if self.back is None:
            return out
        return _gather(acc, self.back, out)


@functools.lru_cache(maxsize=16)
def _topology(n_vertices, face_bytes):
    faces = np.frombuffer(face_bytes, dtype=np.int64).reshape(-1, 3)
    return _CageTopology(n_vertices, faces)


class _CageGeometry:
    """Per-call cage data shared by all blocks: the cached topology
    (``topo``) and the face planes."""

    def __init__(self, cage, faces):
        faces = np.ascontiguousarray(faces, dtype=np.int64)
        self.topo = _topology(len(cage), faces.tobytes())
        self.cage, self.n_vertices = cage, len(cage)
        v0, v1, v2 = cage[faces[:, 0]], cage[faces[:, 1]], cage[faces[:, 2]]
        # det[v0 - p, v1 - p, v2 - p] = det[v0, v1, v2] - p . area_normal
        self.area_normal = np.cross(v1 - v0, v2 - v0)
        self.det0 = np.einsum("fi,fi->f", v0, np.cross(v1, v2))
        fn_len = np.linalg.norm(self.area_normal, axis=1, keepdims=True)
        self.unit_normal = self.area_normal / np.where(
            fn_len < _DENOM_TINY, 1.0, fn_len)


class _Rows:
    """Per-row outputs of one call; each block writes its own rows."""

    def __init__(self, n, n_vertices, with_flags):
        self.w_sum = np.empty((n, n_vertices))
        self.row_near = np.empty(n, dtype=bool)
        self.nearest = np.empty(n, dtype=np.int64)
        self.flags = np.empty(n, dtype=np.uint8) if with_flags else None
        self.min_vertex_dist = np.empty(n)
        self.plane_margin = np.empty(n)


class _Workspace(threading.local):
    """One thread's scratch buffers for block temporaries.

    A named slot is allocated once and handed out again, as a view of its
    first entries, to every later block on this thread, so a block's
    temporaries are written with ``out=`` instead of being allocated and
    freed per operation.  The slots serve one cage size (vertex and face
    counts) at a time; a call on another size drops them, so a thread holds
    at most one block's worth of scratch.
    """

    def __init__(self):
        self.key, self.slots = None, {}

    def use(self, key):
        if key != self.key:
            self.key, self.slots = key, {}
        return self

    def take(self, name, shape, dtype=np.float64):
        size = math.prod(shape)
        buf = self.slots.get(name)
        if buf is None or buf.size < size:
            buf = self.slots[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


_scratch = _Workspace()


def _fresh(name, shape, dtype=np.float64):
    """A new array, for what a taped block keeps for its VJP."""
    return np.empty(shape, dtype)


def _gather(x, index, out):
    """``x[index]`` along axis 0, written into ``out``."""
    return np.take(x, index, axis=0, out=out, mode="clip")


class _Block:
    """Forward pass over one block of query rows, and its VJP.

    Arrays are laid out (corner, face, row), (edge, row) or (vertex, row),
    with vectors carrying a leading component axis; corner k's neighbours
    are k+1 (_NEXT) and k+2 (_PREV).  Every value of a row depends on that
    row alone, and the scatters into cage columns add in input order, so a
    row's weights do not depend on its block.

    Temporaries live in the thread's workspace slots, named by the shape
    they hold: f1 (F, n), f3 (3, F, n), e1 (E, n), c1 (C, n), c3 (3, C, n),
    and m1 / m3 for boolean masks of (F, n) / (3, F, n); the scatters
    gather into sc_src and accumulate in sc_acc.  A taped block keeps, in
    arrays of its own, only what its VJP cannot cheaply rebuild: the
    distances, unit vectors, per-edge arcs and their sines, h, sin(h -
    theta), c, s, the raw weights and the branch masks.  The per-corner
    gathers and the products and guards built from these are rebuilt in
    the VJP by the same operations, so they carry the same bits.
    """

    def __init__(self, geo, pts, rows, eps_vertex, out, taped):
        self.geo, self.rows = geo, rows
        topo = geo.topo
        ft, ce = topo.ft, topo.corner_edge
        pts = pts[rows]
        n, nv, nf = len(pts), geo.n_vertices, len(ft[0])
        ne = len(topo.edge_a)
        f1, f3, e1, c1 = (nf, n), (3, nf, n), (ne, n), (nv, n)
        ws = _scratch.use((nv, nf))
        # untaped, the kept arrays are workspace slots too; a slot name that
        # repeats below reuses a slot whose old contents are dead by then
        keep = _fresh if taped else ws.take
        tf, mask = ws.take("f1a", f1), ws.take("m1c", f1, bool)

        u = keep("c3a", (3,) + c1)    # v - p here, made unit below
        np.subtract(geo.cage.T[:, :, None], pts.T[:, None, :], out=u)
        d = keep("c1a", c1)
        tc = ws.take("c1b", c1)
        np.multiply(u[0], u[0], out=d)
        for i in (1, 2):
            np.add(d, np.multiply(u[i], u[i], out=tc), out=d)
        np.sqrt(d, out=d)
        near = out.row_near[rows]
        np.less(np.min(d, axis=0, out=out.min_vertex_dist[rows]), eps_vertex,
                out=near)
        if near.any():
            out.nearest[rows] = d.argmin(axis=0)
            # snapped rows end up as indicator rows and pass no gradient,
            # so their snapped distances may read 1.0 from here on
            d[d < eps_vertex] = 1.0
        np.divide(u, d, out=u)

        # arc theta = 2 asin(|u_a - u_b| / 2) of each edge seen from p,
        # one chord component at a time
        chord2 = ws.take("e1a", e1)
        ci, te = ws.take("e1b", e1), ws.take("e1c", e1)
        for i in range(3):
            _gather(u[i], topo.edge_a, ci)
            np.subtract(ci, _gather(u[i], topo.edge_b, te), out=ci)
            if i == 0:
                np.multiply(ci, ci, out=chord2)
            else:
                np.add(chord2, np.multiply(ci, ci, out=te), out=chord2)
        length = keep("e1b", e1)
        np.sqrt(chord2, out=length)
        np.divide(length, 2.0, out=te)
        np.arcsin(np.clip(te, -1.0, 1.0, out=te), out=te)
        theta_e = keep("e1c", e1)
        np.multiply(2.0, te, out=theta_e)
        sin_e = keep("e1d", e1)
        np.sin(theta_e, out=sin_e)
        # each corner's arc and its sine (those of the opposite edge) are
        # gathered once; t0, t1, t2 are (F, n) scratch
        theta = _gather(theta_e, ce, ws.take("f3d", f3))
        sin_t = _gather(sin_e, ce, ws.take("f3e", f3))
        t0, t1, t2 = (ws.take(name, f1) for name in ("f1f", "f1g", "f1h"))
        h = keep("f1b", f1)
        np.add(np.add(theta[0], theta[1], out=h), theta[2], out=h)
        np.divide(h, 2.0, out=h)

        # A nearly full half-turn of arc marks p as on (or extremely close
        # to) the face; asin conditioning limits how sharply that can be
        # resolved, so candidates are confirmed against the actual plane
        # distance before the exact-2D replacement fires.  Points that are
        # merely near the plane keep the (accurate) general accumulation.
        on_face = np.less(np.subtract(np.pi, h, out=tf), EPS_PLANE,
                          out=ws.take("m1a", f1, bool))
        if on_face.any():
            fi, ri = np.nonzero(on_face)
            dplane = np.abs(np.einsum(
                "ki,ki->k", pts[ri] - geo.cage[topo.faces[fi, 0]],
                geo.unit_normal[fi]))
            on_face[fi, ri] = dplane <= eps_vertex

        # det[u_0, u_1, u_2] d_0 d_1 d_2 = det0 - p . area_normal
        an = geo.area_normal
        det = ws.take("f1c", f1)
        np.multiply(an[:, 0:1], pts[:, 0], out=det)
        for i in (1, 2):
            np.add(det, np.multiply(an[:, i:i + 1], pts[:, i], out=tf),
                   out=det)
        np.subtract(geo.det0[:, None], det, out=det)
        det_sign = np.sign(det, out=ws.take("f1d", f1))         # primal
        two_sin_h = ws.take("f1e", f1)
        np.multiply(2.0, np.sin(h, out=two_sin_h), out=two_sin_h)
        # untaped, c_k overwrites sin(h - theta_k) once it is read
        sin_hm, cc, s = keep("f3a", f3), keep("f3a", f3), keep("f3b", f3)
        for k in range(3):
            nk, pk = _NEXT[k], _PREV[k]
            np.sin(np.subtract(h, theta[k], out=sin_hm[k]), out=sin_hm[k])
            denom_c = np.multiply(sin_t[nk], sin_t[pk], out=t0)
            _guard(denom_c, t1, mask)
            np.multiply(two_sin_h, sin_hm[k], out=cc[k])
            np.divide(cc[k], denom_c, out=cc[k])
            np.clip(np.subtract(cc[k], 1.0, out=cc[k]), -1.0, 1.0, out=cc[k])
            q = np.multiply(cc[k], cc[k], out=t0)
            np.subtract(1.0, q, out=q)
            np.sqrt(np.maximum(q, 0.0, out=s[k]), out=s[k])
            np.multiply(det_sign, s[k], out=s[k])
        s_min = np.abs(s[0], out=two_sin_h)
        for k in (1, 2):
            np.minimum(s_min, np.abs(s[k], out=t0), out=s_min)
        np.minimum(np.abs(np.subtract(np.pi, h, out=tf), out=tf).min(axis=0),
                   s_min.min(axis=0), out=out.plane_margin[rows])
        dead = keep("m1b", f1, bool)
        np.logical_or(np.less_equal(s_min, EPS_PLANE, out=dead), on_face,
                      out=dead)
        w = keep("f3c", f3)
        for k in range(3):
            nk, pk = _NEXT[k], _PREV[k]
            # num_k = theta_k - c_{k+1} theta_{k+2} - c_{k+2} theta_{k+1}
            num = np.subtract(theta[k], np.multiply(cc[nk], theta[pk], out=t0),
                              out=t0)
            np.subtract(num, np.multiply(cc[pk], theta[nk], out=t1), out=num)
            # denom_k = d_k sin(theta_{k+1}) s_{k+2}
            denom = np.multiply(_gather(d, ft[k], t1), sin_t[nk], out=t1)
            np.multiply(denom, s[pk], out=denom)
            _guard(denom, t2, mask, dead)
            np.divide(num, denom, out=w[k])
            np.copyto(w[k], 0.0, where=dead)
        w_sum = topo.to_vertex(ws, w.reshape(3 * nf, n),
                               ws.take("c1b", c1))                    # (C, n)

        # rows on a face: that face's exact 2D barycentric weights only
        on_rows = np.zeros(0, dtype=np.int64)
        if on_face.any():
            on_rows = np.nonzero(on_face.any(axis=0) & ~near)[0]
        if on_rows.size:
            r = on_rows
            f = self.fsel = np.argmax(on_face[:, r], axis=0)
            d_on = d[ft[:, f], r]
            w_sum[:, r] = 0.0
            w_sum[ft[:, f], r] = sin_e[ce[:, f], r] * d_on[_NEXT] * d_on[_PREV]
        out.w_sum[rows] = w_sum.T
        if out.flags is not None:
            out.flags[rows] = _flags(ws, geo, chord2, det, d, on_rows, near)
        if taped:
            self.d, self.u, self.length, self.theta_e, self.sin_e = (
                d, u, length, theta_e, sin_e)
            self.h, self.sin_hm, self.cc, self.s, self.w = h, sin_hm, cc, s, w
            self.dead, self.det_sign = dead, det_sign.astype(np.int8)
            self.on_rows = on_rows

    def vjp(self, g_sum):
        """The cage gradient (C, 3) from the gradient (n, C) of the raw rows,
        as its transposed partial sums over _BLOCK_ROWS-row chunks.

        The adjoint of the forward pass, branch by branch: masked lanes and
        guarded denominators pass no gradient, clip passes it strictly
        inside (-1, 1), asin's derivative is taken at an argument clamped
        to 1 - 1e-12, and a zero-length norm has gradient 0.
        """
        geo, topo = self.geo, self.geo.topo
        ft, ce = topo.ft, topo.corner_edge
        n, nv, nf = len(g_sum), geo.n_vertices, len(ft[0])
        ne = len(topo.edge_a)
        f1, f3, e1, c1 = (nf, n), (3, nf, n), (ne, n), (nv, n)
        ws = _scratch.use((nv, nf))
        cc, s, dead = self.cc, self.s, self.dead
        tf, tf2, mask = ws.take("f1a", f1), ws.take("f1c", f1), ws.take(
            "m3", f3, bool)
        theta = _gather(self.theta_e, ce, ws.take("f3b", f3))
        sin_t = _gather(self.sin_e, ce, ws.take("f3c", f3))
        dk = _gather(self.d, ft, ws.take("f3d", f3))

        g = ws.take("c1a", c1)
        np.copyto(g, g_sum.T)
        g_sin = ws.take("f3e", f3)
        g_sin.fill(0.0)
        g_dk = ws.take("f3f", f3)
        g_dk.fill(0.0)
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
        g_num = _gather(g, ft, ws.take("f3g", f3))
        np.copyto(g_num, 0.0, where=dead)
        denom = ws.take("f3h", f3)
        for k in range(3):
            np.multiply(dk[k], sin_t[_NEXT[k]], out=denom[k])
            np.multiply(denom[k], s[_PREV[k]], out=denom[k])
        denom_bad = _guard(denom, ws.take("f3a", f3), mask, dead)
        np.divide(g_num, denom, out=g_num)
        g_den = np.negative(g_num, out=denom)
        np.multiply(g_den, self.w, out=g_den)
        np.copyto(g_den, 0.0, where=denom_bad)
        # num_k = theta_k - c_{k+1} theta_{k+2} - c_{k+2} theta_{k+1}
        g_theta, g_c = ws.take("f3a", f3), ws.take("f3i", f3)
        for k in range(3):
            nk, pk = _NEXT[k], _PREV[k]
            np.subtract(g_num[k], np.multiply(g_num[nk], cc[pk], out=tf),
                        out=g_theta[k])
            np.subtract(g_theta[k], np.multiply(g_num[pk], cc[nk], out=tf),
                        out=g_theta[k])
            np.multiply(np.negative(g_num[pk], out=g_c[k]), theta[nk],
                        out=g_c[k])
            np.subtract(g_c[k], np.multiply(g_num[nk], theta[pk], out=tf),
                        out=g_c[k])
        # denom_k = d_k sin(theta_{k+1}) s_{k+2}
        g_dd = np.multiply(g_den, dk, out=g_num)
        for k in range(3):
            nk, pk = _NEXT[k], _PREV[k]
            np.multiply(np.multiply(g_den[k], sin_t[nk], out=tf), s[pk],
                        out=tf)
            np.add(g_dk[k], tf, out=g_dk[k])
            np.add(g_sin[k], np.multiply(g_dd[pk], s[nk], out=tf),
                   out=g_sin[k])
        g_s = denom
        for k in range(3):
            np.multiply(g_dd[_NEXT[k]], sin_t[_PREV[k]], out=g_s[k])
        # s_k = sign(det) sqrt(q_k), q_k = 1 - c_k^2, off the q_bad lanes
        q = np.multiply(cc, cc, out=g_dd)
        np.subtract(1.0, q, out=q)
        q_bad = np.less(q, EPS_PLANE * EPS_PLANE, out=mask)
        np.copyto(q, 1.0, where=q_bad)
        np.multiply(2.0, np.sqrt(q, out=q), out=q)
        g_q = np.multiply(g_s, self.det_sign, out=g_s)
        np.divide(g_q, q, out=g_q)
        np.copyto(g_q, 0.0, where=q_bad)
        np.multiply(np.multiply(2.0, cc, out=q), g_q, out=q)
        np.subtract(g_c, q, out=g_c)
        # c_k = clip(2 sin(h) sin(h - theta_k) / denom_c_k - 1), where the
        # unclipped lanes have 2 sin(h) sin(h - theta_k) / denom_c_k = c_k + 1
        np.copyto(g_c, 0.0, where=np.greater_equal(np.abs(cc, out=q), 1.0,
                                                   out=mask))
        denom_c = g_q
        for k in range(3):
            np.multiply(sin_t[_NEXT[k]], sin_t[_PREV[k]], out=denom_c[k])
        denom_c_bad = _guard(denom_c, q, mask)
        g_a = np.divide(g_c, denom_c, out=g_c)
        g_denc = np.negative(g_a, out=denom_c)
        np.multiply(g_denc, np.add(cc, 1.0, out=q), out=g_denc)
        np.copyto(g_denc, 0.0, where=denom_c_bad)
        # cos(theta) = 1 - 2 sin^2(theta / 2); h - theta_k by addition
        half = ws.take("e1a", e1)
        np.minimum(np.divide(self.length, 2.0, out=half), 1.0, out=half)
        te = ws.take("e1b", e1)
        np.multiply(np.multiply(2.0, half, out=te), half, out=te)
        cos_t = _gather(np.subtract(1.0, te, out=te), ce, q)
        cos_h = np.cos(self.h, out=ws.take("f1d", f1))
        two_sin_h = ws.take("f1e", f1)
        np.multiply(2.0, np.sin(self.h, out=two_sin_h), out=two_sin_h)
        g_hm, x = ws.take("f3j", f3), ws.take("f3k", f3)
        np.multiply(cos_h, cos_t, out=x)
        np.add(x, np.multiply(np.divide(two_sin_h, 2.0, out=tf), sin_t,
                              out=g_hm), out=x)
        np.multiply(np.multiply(g_a, two_sin_h, out=g_hm), x, out=g_hm)
        g_h = ws.take("f1f", f1)
        np.sum(np.multiply(g_a, self.sin_hm, out=x), axis=0, out=g_h)
        np.multiply(np.multiply(2.0, g_h, out=g_h), cos_h, out=g_h)
        np.add(g_h, np.sum(g_hm, axis=0, out=tf), out=g_h)
        # denom_c_k = sin(theta_{k+1}) sin(theta_{k+2})
        for k in range(3):
            nk, pk = _NEXT[k], _PREV[k]
            np.multiply(g_denc[pk], sin_t[nk], out=tf)
            np.add(tf, np.multiply(g_denc[nk], sin_t[pk], out=tf2), out=tf)
            np.add(g_sin[k], tf, out=g_sin[k])
        np.subtract(np.multiply(g_sin, cos_t, out=x), g_hm, out=x)
        np.add(x, np.divide(g_h, 2.0, out=tf), out=x)
        np.add(g_theta, x, out=g_theta)

        # theta = 2 asin(|chord| / 2), summed from corners onto edges
        length = self.length
        g_len = topo.to_edge(ws, g_theta.reshape(3 * nf, n),
                             ws.take("e1d", e1))                      # (E, n)
        x = np.minimum(half, _ASIN_CLAMP, out=te)
        np.sqrt(np.subtract(1.0, np.multiply(x, x, out=x), out=x), out=x)
        safe = ws.take("e1c", e1)
        np.copyto(safe, length)
        np.copyto(safe, 1.0, where=length == 0.0)
        np.divide(g_len, np.multiply(x, safe, out=x), out=g_len)
        u, d = self.u, self.d
        g_u, g_ub = ws.take("c3a", (3,) + c1), ws.take("c1b", c1)
        ci = safe
        for i in range(3):
            _gather(u[i], topo.edge_a, ci)
            np.subtract(ci, _gather(u[i], topo.edge_b, te), out=ci)
            np.multiply(ci, g_len, out=ci)
            topo.from_a(ws, ci, g_u[i])
            np.subtract(g_u[i], topo.from_b(ws, ci, g_ub), out=g_u[i])
        t = ws.take("c3b", (3,) + c1)
        # g is dead since g_num was gathered from it
        g_d = topo.to_vertex(ws, g_dk.reshape(3 * nf, n), g)          # (C, n)
        # u = diff / d, d = |diff|, on the rows that were not snapped
        tc = np.sum(np.multiply(g_u, u, out=t), axis=0, out=ws.take("c1b", c1))
        np.subtract(g_d, np.divide(tc, d, out=tc), out=g_d)
        g_diff = np.divide(g_u, d, out=g_u)
        np.add(g_diff, np.multiply(u, g_d, out=t), out=g_diff)
        return [g_diff[:, :, lo:lo + _BLOCK_ROWS].sum(axis=2)
                for lo in range(0, n, _BLOCK_ROWS)]


def _flags(ws, geo, chord2, det, d, on_rows, near):
    """Per-row flags; interior/exterior decided by the winding number."""
    # solid angle of each face: 2 atan2(det[u0,u1,u2], 1 + sum u_a.u_b),
    # with u_a.u_b = 1 - |u_a - u_b|^2 / 2 for unit vectors; the scratch
    # is slots of the forward's temporaries that are dead by now
    ce, ft, f1 = geo.topo.corner_edge, geo.topo.ft, det.shape
    dots, tf, t0 = ws.take("f1e", f1), ws.take("f1a", f1), ws.take("f1f", f1)
    _gather(chord2, ce[0], dots)
    for k in (1, 2):
        np.add(dots, _gather(chord2, ce[k], tf), out=dots)
    np.subtract(4.0, np.multiply(0.5, dots, out=dots), out=dots)
    np.multiply(_gather(d, ft[0], tf), _gather(d, ft[1], t0), out=tf)
    np.multiply(tf, _gather(d, ft[2], t0), out=tf)
    omega = np.arctan2(np.divide(det, tf, out=tf), dots, out=tf)
    np.multiply(2.0, omega, out=omega)
    by_row = ws.take("f1b", omega.shape[::-1])   # rows contiguous for the sum
    np.copyto(by_row, omega.T)
    solid = by_row.sum(axis=1)
    flags = np.full(len(solid), FLAG_EXTERIOR_OK, dtype=np.uint8)
    flags[np.abs(solid) > 2.0 * np.pi] = FLAG_INTERIOR
    flags[on_rows] = FLAG_ON_FACE
    flags[near] = FLAG_ON_VERTEX
    return flags


def _guard(x, tmp, mask, bad=None):
    """Set the tiny (or ``bad``) entries of the temporary ``x`` to 1.0.

    ``tmp`` and ``mask`` are scratch of x's shape.  Returns ``mask``, which
    holds the entries that were set.
    """
    np.less(np.abs(x, out=tmp), _DENOM_TINY, out=mask)
    if bad is not None:
        np.logical_or(mask, bad, out=mask)
    np.copyto(x, 1.0, where=mask)
    return mask


def compute_mvc(cage: TriMesh, points, *,
                with_flags: bool = True) -> MvcMatrix:
    """Mean value coordinates of ``points`` with respect to ``cage``.

    ``with_flags=False`` skips the row classification (``flags`` None), for
    callers that read only the weights.
    """
    validate_cage(cage)
    phi, flags = mvc_weights(cage.vertices, cage.faces, as_positions(points),
                             with_flags=with_flags)
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
