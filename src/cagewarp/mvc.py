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
vertex get that vertex's exact indicator row, written by the block that
snaps them, where eps_vertex = EPS_VERTEX_REL x the bounding-box diagonal
of the cage the call is given (``vertex_tolerance``).  Exterior queries
are allowed and produce (partially negative) valid weights.  Neither
tolerance is a parameter.  Rows within EXCLUSION_FACTOR (10) x either
tolerance of its boundary sit in the exclusion band, where the gradient
is undefined; the kernel marks them on request.

One vectorised pass evaluates these formulas over blocks of query rows,
with one numpy call per formula over all three corners (or all three
vector components): per-corner arrays are stored cyclically as (5, F,
rows), corners 0, 1, 2, 0, 1, so the neighbours k+1 and k+2 are slices.
The block size follows the face count: 16 * max(1, 614400 // (5 F 8 16))
rows, so a (5, F, rows) float64 array, the largest a block builds, stays
within 600 KiB.  A 320-face cage runs 48-row blocks, an 80-face one
192-row blocks.  That size was measured against peak memory, since every
thread holds one block's scratch: on a 320-face cage a thread's slots
hold 4.0 MiB after an untaped call and 6.3 MiB after a taped forward and
VJP, within the 4.15 and 6.48 MiB a test holds them to.  On 2 threads,
48-row blocks ran a taped forward and VJP of 866 rows on a 320-face cage
faster than 32-row ones, although a (5, F, 32) array fits a 2 MiB L2
cache three times over: fewer blocks make fewer numpy calls, and each
call holds the interpreter lock.
Arc lengths and their sines are taken once per cage edge and gathered
once per face corner.  The per-corner terms are added into their cage
columns by ``Scatter``, the kernel's one scatter-add: every column adds
its terms into 0.0 in increasing input order, the order ``np.bincount``
adds in, so a row's weights are the same bits whatever block it falls
in; its gather slot is also the slot of the kernel's corner sines.  The
cage topology (edges, corner-to-edge map, scatters) depends only on the
faces and is cached per connectivity; only the face planes are rebuilt
from the vertices on each call.

The blocks of a call run on up to ``runtime.thread_count()`` threads (the
calling thread and pool threads; ``--threads 1`` runs them inline), and
each block writes its rows straight into the call's output arrays.  A
block's temporaries live in its thread's ``runtime.Workspace``: named slots
allocated once and written with ``out=``, instead of fresh arrays per
operation, through views made once per block shape.
Fresh arrays over glibc's 128 KiB mmap threshold go back to the OS when
freed and page-fault again at the next allocation, which made threads
over such blocks slower than one thread.  The results do not depend on
the thread count: every value of a row comes from that row alone, and
what is summed across blocks is summed on the calling thread in row order.

Passing the cage vertices as an autodiff Var makes phi a single tape node.
Its VJP is the hand-derived adjoint of the formulas above and of the row
normalization, evaluated block by block, on the same threads, from what
each block kept (~20 KB a row on a 320-face cage, held until the backward
pass), and returns d loss / d cage vertices directly.  Each block sums its
rows' contributions to that gradient in 16-row chunks, and the calling
thread adds the chunk sums in row order, so the gradient bits depend on
neither the block size nor the thread count.  The node's VJP holds the
rows without a gradient with one mask: the snapped rows, and the band's
rows when the call marks the band.  All branch masks are decided on
primal values; masked-out lanes and guarded denominators pass no
gradient, so no NaN/Inf can leak into values or gradients.

Row flags (``compute_mvc``) come from the same pass: the winding number
sums each face's solid angle 2 atan2(det[u_0, u_1, u_2], 1 + u_0.u_1 +
u_1.u_2 + u_2.u_0), and on-vertex and on-face rows are the rows the
snapping and 2D branches took.  The winding number costs ~8% of an
untaped pass, so callers that read only the weights pass
``with_flags=False``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import runtime
from .geometry import TriMesh, as_positions, validate_cage

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
EXCLUSION_FACTOR = 10.0

_DENOM_TINY = 1e-300
_ASIN_CLAMP = 1.0 - 1e-12   # asin's derivative is taken inside +-1

# Row granularity of the kernel: blocks are a multiple of it, and the cage
# gradient sums the rows in chunks of it.  A block takes as many chunks as
# keep its largest array, a cyclic (5, F, rows) float64 one, within
# _BLOCK_BYTES.
_BLOCK_ROWS = 16
_BLOCK_BYTES = 600 * 1024
_NEXT = np.array([1, 2, 0])   # corner k -> k + 1
_PREV = np.array([2, 0, 1])   # corner k -> k + 2
_CYCLE = np.array([0, 1, 2, 0, 1])   # corners k, k + 1, k + 2 as slices


class MvcError(Exception):
    """Numerically pathological coordinate computation."""


def vertex_tolerance(vertices) -> float:
    """Snap distance of a cage: EPS_VERTEX_REL x its bounding-box diagonal."""
    v = np.asarray(vertices, dtype=np.float64)
    diagonal = np.linalg.norm(v.max(axis=0) - v.min(axis=0))
    return EPS_VERTEX_REL * float(diagonal)


@dataclass(eq=False)
class MvcMatrix:
    """Weights (rows = query points, columns = cage vertices) and row flags."""

    weights: np.ndarray
    flags: np.ndarray | None = None


def mvc_weights(cage_vertices, faces: np.ndarray, points: np.ndarray, *,
                exclude_band: bool = False, with_flags: bool = True):
    """Raw weight rows for ``points``; generic over ndarray/Var cage vertices.

    Returns (phi, flags), or (phi, flags, band) with ``exclude_band``:
    ``band`` marks the rows closer than 10 eps_vertex to a cage vertex or
    with min(|pi - h|, |s|) below 10 EPS_PLANE on a face (10 is
    EXCLUSION_FACTOR), whose gradient is undefined; on a tape phi's node
    holds them constant, as it holds the snapped rows.
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
    block = _block_rows(geo.topo.n_faces)
    out = _Rows(n, geo.n_vertices, with_flags, exclude_band)

    def run(lo):
        # the block writes its rows into ``out``; an untaped one dies here
        blk = _Block(geo, pts, slice(lo, lo + block), eps_vertex, out,
                     taped)
        return blk if taped else None

    blocks = runtime.map_ordered(run, range(0, n, block))

    # a snapped row is its vertex's indicator row, whose total is 1.0
    phi, row_near, band = out.w_sum, out.row_near, out.band
    totals = phi.sum(axis=1)
    regular = ~row_near
    if np.any(np.abs(totals[regular]) < 1e-14):
        bad_rows = np.nonzero(regular & (np.abs(totals) < 1e-14))[0]
        raise MvcError(
            f"zero total weight for query rows {bad_rows[:5].tolist()}"
        )
    phi /= totals[:, None]

    if taped:
        held = row_near if band is None else row_near | band
        phi = _tape_node(cage_vertices, phi, totals, held, blocks)
    if band is None:
        return phi, out.flags
    return phi, out.flags, band


def _block_rows(n_faces):
    """Query rows per block for a cage of ``n_faces`` faces."""
    return _BLOCK_ROWS * max(
        1, _BLOCK_BYTES // (5 * n_faces * 8 * _BLOCK_ROWS))


def _tape_node(cage_var, phi, totals, held, blocks):
    """``phi`` as one tape node over the cage, with the blocks' VJPs; the
    ``held`` rows (snapped, or in the exclusion band) pass no gradient."""

    def vjp(g):
        # phi = w_sum / total; g_sum = (g - rowsum(g * phi)) / total,
        # built in one (N, C) array
        g_sum = np.multiply(g, phi)
        dot = g_sum.sum(axis=1, keepdims=True)
        np.divide(np.subtract(g, dot, out=g_sum), totals[:, None], out=g_sum)
        g_sum[held] = 0.0
        grad = np.zeros_like(cage_var.value)
        # the blocks' chunk sums are added here, in row order; np.add.reduce
        # and np.sum over the stacked chunks do not add in row order (over
        # the chunks' own layout numpy sums them pairwise)
        for parts in runtime.map_ordered(
                lambda blk: blk.vjp(g_sum[blk.rows]), blocks):
            for part in parts:
                grad += part
        return grad

    return ad.Var._make(phi, (cage_var,), (vjp,), "mvc_weights")


class Scatter:
    """Adds each row j of a (..., J, n) array into row target[j] of a
    (..., T, n) output, for every index of the leading axes at once.

    Every target adds its rows into 0.0 in increasing j, the order
    ``np.bincount`` and a CSR product add in, so the sums (signed zeros
    included) are the same bits whatever the column count.  The targets
    are ranked by row count, most first; slot p holds the p-th row of each
    of the first t_p ranked targets, and the source rows are gathered once
    in (slot, rank) order.  A call adds slot p into the first t_p rows of a
    zeroed accumulator, then gathers the accumulator back into target
    order.  Where the ranking leaves every target in place (the edges of a
    closed cage, two corners each), the output is the accumulator.  The
    temporaries are slots of the ``runtime.Workspace`` a call is given (an
    accumulator per rank, so neither grows the other's); a caller may keep
    its own in ``GATHER_SLOT`` where they are dead.
    """

    GATHER_SLOT = "sc_src"

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

    def _scratch(self, ws, shape):
        """The gathered rows, and unless in place the accumulator's views
        (``_steps``)."""
        lead, n = shape[:-2], shape[-1]
        src = ws.take(self.GATHER_SLOT, lead + (len(self.index), n))
        if self.back is None:
            return src, None
        return src, self._steps(ws.take(
            f"sc_acc{len(lead)}", lead + (self.n_targets, n)), src)

    def _steps(self, acc, src):
        """``acc``, its rows that no source row adds into, and the
        (accumulator, source) views of each slot."""
        return acc, acc[..., self.n_hit:, :], [
            (acc[..., :hi - lo, :], src[..., lo:hi, :])
            for lo, hi in self.slots]

    def __call__(self, ws, x, out):
        """The sums of ``x`` per target, written into ``out``."""
        src, steps = ws.views(self._scratch, x.shape)
        x.take(self.index, axis=-2, out=src, mode="clip")
        acc, idle, slots = steps or self._steps(out, src)
        idle.fill(0.0)                          # targets with no rows
        if slots:
            # slot 0 adds into 0.0; x + 0.0 has the bits of 0.0 + x
            part, rows = slots[0]
            np.add(rows, 0.0, out=part)
        for part, rows in slots[1:]:
            np.add(part, rows, out=part)
        if self.back is None:
            return out
        return acc.take(self.back, axis=-2, out=out, mode="clip")


class _CageTopology:
    """Cage data that depends only on the faces; shared and read-only."""

    def __init__(self, n_vertices, faces):
        self.faces = faces
        self.n_faces = len(faces)
        self.ft = np.ascontiguousarray(faces.T)                 # (3, F)
        # the edge opposite each corner, as an index into unique edges
        a, b = self.ft[_NEXT], self.ft[_PREV]
        keys = np.minimum(a, b) * n_vertices + np.maximum(a, b)
        uniq, corner_edge = np.unique(keys, return_inverse=True)
        self.corner_edge = corner_edge.reshape(3, -1)
        # corners k, k + 1, k + 2 as the row slices [0:3], [1:4], [2:5]
        self.ce5 = self.corner_edge[_CYCLE]
        self.edge_a, self.edge_b = np.divmod(uniq, n_vertices)
        self.n_edges = len(uniq)
        for arr in (self.ft, self.corner_edge, self.ce5, self.edge_a,
                    self.edge_b):
            arr.flags.writeable = False
        # the scatters of (corner, face) and edge rows into their vertices
        # and edges
        self.to_vertex = Scatter(self.ft.ravel(), n_vertices)
        self.to_edge = Scatter(self.corner_edge.ravel(), len(uniq))
        self.from_a = Scatter(self.edge_a, n_vertices)
        self.from_b = Scatter(self.edge_b, n_vertices)


@functools.lru_cache(maxsize=16)
def _topology(n_vertices, face_bytes):
    faces = np.frombuffer(face_bytes, dtype=np.int64).reshape(-1, 3)
    return _CageTopology(n_vertices, faces)


class _CageGeometry:
    """Per-call cage data shared by all blocks: the cached topology
    (``topo``), the vertices and the face planes (unit normals only once
    a block reads them)."""

    def __init__(self, cage, faces):
        faces = np.ascontiguousarray(faces, dtype=np.int64)
        topo = self.topo = _topology(len(cage), faces.tobytes())
        self.cage, self.n_vertices = cage, len(cage)
        # corner positions with components 0, 1, 2, 0, 1, so that the
        # components k + 1 and k + 2 of a cross product are slices
        v0, v1, v2 = cage[:, _CYCLE].take(topo.ft, axis=0)      # (F, 5)
        e1, e2 = v1 - v0, v2 - v0
        # det[v0 - p, v1 - p, v2 - p] = det0 - p . area_normal; the
        # products are np.cross's, its (F, 3) C-ordered results are what
        # np.einsum adds in its order
        self.area_normal = (e1[:, 1:4] * e2[:, 2:5]
                            - e1[:, 2:5] * e2[:, 1:4])
        self.det0 = np.einsum(
            "fi,fi->f", cage.take(topo.ft[0], axis=0),
            v1[:, 1:4] * v2[:, 2:5] - v1[:, 2:5] * v2[:, 1:4])
        # by component, for broadcasting against a block's (3, 1, n) points
        self.cage_t = cage.T[:, :, None]                    # (3, C, 1)
        self.normal_t = self.area_normal.T[:, :, None]      # (3, F, 1)
        self.det0_t = self.det0[:, None]                    # (F, 1)

    @functools.cached_property
    def unit_normal(self):
        """Unit face normals, made when a block finds a row on a face."""
        sq = self.area_normal * self.area_normal
        fn_len = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])[:, None]
        return self.area_normal / np.where(fn_len < _DENOM_TINY, 1.0, fn_len)


class _Rows:
    """Per-row outputs of one call; each block writes its own rows."""

    def __init__(self, n, n_vertices, with_flags, with_band):
        self.w_sum = np.empty((n, n_vertices))
        self.row_near = np.empty(n, dtype=bool)
        self.flags = np.empty(n, dtype=np.uint8) if with_flags else None
        self.band = np.empty(n, dtype=bool) if with_band else None


_scratch = runtime.Workspace()


class _Kept:
    """What a taped block keeps for its VJP, in arrays of its own: the
    distances, the edges' chord lengths and arc sines, 2 sin(h), sin(h -
    theta), the dead mask and sign(det).  All but sign(det) are names of
    ``_ForwardViews`` that an untaped block takes as slots.  The VJP
    rebuilds the arcs, h, c, s and the raw weights from these."""

    def __init__(self, nv, nf, ne, n):
        f1, e1 = (nf, n), (ne, n)
        self.d = np.empty((nv, n))
        self.length, self.sin_e = np.empty(e1), np.empty(e1)
        self.two_sin_h = np.empty(f1)
        self.dead = np.empty(f1, dtype=bool)
        self.det_sign = np.empty(f1, dtype=np.int8)
        self.sin_hm = np.empty((3, nf, n))


class _ForwardViews:
    """The forward's workspace views for one block shape.

    Untaped, the arrays a taped block keeps (``_Kept``) are slots too.  c
    and the raw weights are slots either way: a taped block's VJP rebuilds
    them.  A slot named twice holds values whose lifetimes do not overlap;
    the comment on each says when the earlier one is dead.
    """

    def __init__(self, ws, nv, nf, ne, n, taped):
        f1, f3, f5 = (nf, n), (3, nf, n), (5, nf, n)
        e1, e3, c1, c3 = (ne, n), (3, ne, n), (nv, n), (3, nv, n)
        take = ws.take      # each slot's largest view first
        # corner arcs; before them u * u and chord components
        self.theta5 = take("f5a", f5)
        self.sq, self.ua = take("f5a", c3), take("f5a", e3)
        # corner sines, then a temporary; before them chord components.
        # The scatters gather into this slot too, where it is dead
        self.sin5 = take(Scatter.GATHER_SLOT, f5)
        self.ub = take(Scatter.GATHER_SLOT, e3)
        self.tmp3b = take(Scatter.GATHER_SLOT, f3)     # once sin5 is dead
        # components of p . area_normal, then c
        self.cc5, self.prod3 = take("f5c", f5), take("f5c", f3)
        self.denom_c = self.num = take("f3a", f3)
        self.tmp3 = self.denom = take("f3b", f3)
        self.mask3 = take("m3", f3, bool)
        self.chord2 = take("e1a", e1)
        self.tf, self.det = take("f1a", f1), take("f1c", f1)
        self.det_sign = take("f1d", f1)
        self.s_min = take("f1e", f1)
        self.u = take("c3a", c3)
        self.on_face = take("m1a", f1, bool)
        self.w_sum = take("c1b", c1)
        # the edge arcs (untaped, in place of the chord lengths) and h; s
        # until num overwrites it, once the denominators have read it
        self.theta_e, self.h = take("e1b", e1), take("f1b", f1)
        self.s = take("f3a", f3)
        # the winding number's, once the weights are summed
        self.dots3, self.d3 = take("f5a", f3), take("f3b", f3)
        self.dots, self.by_row = take("f1e", f1), take("f1b", (n, nf))
        self.w = self.theta5[:3]            # once num is computed
        if not taped:
            self.d = take("c1a", c1)
            self.two_sin_h = self.s_min     # s_min is taken once c is
            self.length = self.theta_e
            self.sin_e = take("e1c", e1)
            self.sin_hm = self.cc5[:3]      # c overwrites it once read
            self.dead = take("m1b", f1, bool)


class _VjpViews:
    """The VJP's workspace views for one block shape (see ``_Block``)."""

    def __init__(self, ws, nv, nf, ne, n):
        f1, f3, f5 = (nf, n), (3, nf, n), (5, nf, n)
        e1, e3, c1, c3 = (ne, n), (3, ne, n), (nv, n), (3, nv, n)
        take = ws.take      # each slot's largest view first
        # corner arcs, then g_sin, then the chord components, then u * g
        self.theta5, self.g_sin = take("f5a", f5), take("f5a", f3)
        self.ua, self.c3t = take("f5a", e3), take("f5a", c3)
        # corner sines, then chord components; the scatters gather into
        # this slot too, where it is dead
        self.sin5 = take(Scatter.GATHER_SLOT, f5)
        self.ub = take(Scatter.GATHER_SLOT, e3)
        self.cc5, self.g_dk = take("f5c", f5), take("f5c", f3)
        self.gn5 = take("f5d", f5)          # g_num, then g_dd, then g_denc
        # s (as s_{k+2}) until s_{k+1} is gathered, then q and cos(theta)
        self.s = self.q = take("f3a", f3)
        # denom_c of c's first rebuild, then denom, g_den, g_s, g_q and
        # g_hm, one after another
        self.denom = take("f3b", f3)
        # a temporary; w, and denom_c of c's second rebuild until g_a
        self.tmp3 = take("f3c", f3)
        self.g_theta = take("f3d", f3)
        self.g_c = take("f3e", f3)      # a temporary of w before g_c
        self.mask3 = take("m3", f3, bool)
        self.mask3b = take("m3b", f3, bool)     # denom_c's guard
        self.half, self.te = take("e1a", e1), take("e1b", e1)
        self.safe, self.g_len = take("e1c", e1), take("e1d", e1)
        self.g_h, self.tf = take("f1a", f1), take("f1b", f1)
        self.cos_h, self.u = take("f1c", f1), take("c3c", c3)
        self.g, self.tc = take("c1a", c1), take("c1b", c1)
        self.g_u, self.g_ub = take("c3a", c3), take("c3b", c3)


def _sum3(x, out):
    """``(x[0] + x[1]) + x[2]`` of a (3, ...) array, in one call: the sum
    starts from -0.0, so signed zeros come out as from the two adds."""
    return np.add.reduce(x, axis=0, out=out, initial=-0.0)


class _Block:
    """Forward pass over one block of query rows, and its VJP.

    Arrays are laid out (corner, face, row), (edge, row) or (vertex, row),
    with vectors carrying a leading component axis.  Per-corner arrays
    whose neighbours are read are stored cyclically as (5, F, n), corners
    0, 1, 2, 0, 1, so that corners k, k+1 and k+2 of all three k are the
    slices [0:3], [1:4] and [2:5], and each formula over the three corners
    (or the three vector components) is one numpy call.  Elementwise
    operations give the same bits batched as per corner, and every sum
    keeps its order, so a row's values are those of a per-corner loop.
    Every value of a row depends on that row alone, and the scatters into
    cage columns add in input order, so a row's weights do not depend on
    its block.

    Temporaries live in the thread's workspace, resolved once per block
    shape (``_ForwardViews``, ``_VjpViews``).  Slots are named by the
    largest shape they hold: f5 (5, F, n), f3 (3, F, n), f1 (F, n), e1 (E,
    n), c1 (C, n), c3 (3, C, n), and m1 / m3 for boolean masks of (F, n) /
    (3, F, n); an f5 slot also holds the (3, E, n) chord components and
    the (3, C, n) squares of u.  The scatters gather into
    ``Scatter.GATHER_SLOT``, the slot of the corner sines, at points where
    it is dead.  A taped block keeps, in arrays of its own (``_Kept``),
    only what its VJP cannot cheaply rebuild: the distances, the edges'
    chord lengths and arc sines, 2 sin(h), sin(h - theta), the dead mask
    and sign(det).  The VJP rebuilds the rest by the forward's own
    operations (``_corner_c``, ``_corner_s``, ``_denominators`` and
    ``_raw_weights`` serve both), so it carries the same bits: the arcs
    from the chord lengths, h from the arcs, c from 2 sin(h), sin(h -
    theta) and the corner sines, s (as s_{k+2}, the order the denominators
    read) from c and sign(det), the raw weights from c, the arcs and the
    denominators, and the unit vectors, the per-corner gathers and the
    products and guards built from these.  c is rebuilt twice, since g_dk
    takes its slot before the q path reads it; the second rebuild reuses
    the first's guard mask, and its guarded denominator serves the c
    adjoint.
    """

    def __init__(self, geo, pts, rows, eps_vertex, out, taped):
        self.geo, self.rows = geo, rows
        topo = geo.topo
        ft = topo.ft
        pts = pts[rows]
        n, nf = len(pts), topo.n_faces
        ws = _scratch.use((geo.n_vertices, nf))
        v = ws.views(_ForwardViews, geo.n_vertices, nf, topo.n_edges, n,
                     taped)
        k = _Kept(geo.n_vertices, nf, topo.n_edges, n) if taped else v
        p3 = pts.T[:, None, :]                                  # (3, 1, n)

        u, d = v.u, k.d                 # v - p here, made unit below
        np.subtract(geo.cage_t, p3, out=u)
        np.sqrt(_sum3(np.multiply(u, u, out=v.sq), d), out=d)
        near = out.row_near[rows]
        d_min = d.min(axis=0)
        np.less(d_min, eps_vertex, out=near)
        nearest = None
        if near.any():
            nearest = d.argmin(axis=0)
            # snapped rows are written as indicator rows below and pass no
            # gradient, so their snapped distances may read 1.0 from here on
            d[d < eps_vertex] = 1.0
        np.divide(u, d, out=u)

        # arc theta = 2 asin(|u_a - u_b| / 2) of each edge seen from p
        chord = np.subtract(
            u.take(topo.edge_a, axis=1, out=v.ua, mode="clip"),
            u.take(topo.edge_b, axis=1, out=v.ub, mode="clip"), out=v.ua)
        chord2 = _sum3(np.multiply(chord, chord, out=chord), v.chord2)
        length, theta_e, sin_e = k.length, v.theta_e, k.sin_e
        np.sqrt(chord2, out=length)
        # the half chord is >= 0, so its clip to [-1, 1] is a minimum
        np.minimum(np.divide(length, 2.0, out=theta_e), 1.0, out=theta_e)
        np.arcsin(theta_e, out=theta_e)
        np.multiply(2.0, theta_e, out=theta_e)
        np.sin(theta_e, out=sin_e)
        # each corner's arc and its sine (those of the opposite edge)
        theta = theta_e.take(topo.ce5, axis=0, out=v.theta5, mode="clip")
        sin_t = sin_e.take(topo.ce5, axis=0, out=v.sin5, mode="clip")
        h = v.h
        np.divide(_sum3(theta[:3], h), 2.0, out=h)

        # A nearly full half-turn of arc marks p as on (or extremely close
        # to) the face; asin conditioning limits how sharply that can be
        # resolved, so candidates are confirmed against the actual plane
        # distance before the exact-2D replacement fires.  Points that are
        # merely near the plane keep the (accurate) general accumulation.
        tf = np.subtract(np.pi, h, out=v.tf)
        on_face = np.less(tf, EPS_PLANE, out=v.on_face)
        if on_face.any():
            fi, ri = np.nonzero(on_face)
            dplane = np.abs(np.einsum(
                "ki,ki->k", pts[ri] - geo.cage[topo.faces[fi, 0]],
                geo.unit_normal[fi]))
            on_face[fi, ri] = dplane <= eps_vertex

        # det[u_0, u_1, u_2] d_0 d_1 d_2 = det0 - p . area_normal
        det = _sum3(np.multiply(geo.normal_t, p3, out=v.prod3), v.det)
        np.subtract(geo.det0_t, det, out=det)
        det_sign = np.sign(det, out=v.det_sign)                 # primal
        two_sin_h = np.multiply(2.0, np.sin(h, out=k.two_sin_h),
                                out=k.two_sin_h)
        sin_hm, cc = k.sin_hm, v.cc5
        np.sin(np.subtract(h, theta[:3], out=sin_hm), out=sin_hm)
        denom_c = np.multiply(sin_t[1:4], sin_t[2:5], out=v.denom_c)
        _guard(denom_c, v.tmp3, v.mask3)
        _corner_c(two_sin_h, sin_hm, denom_c, cc[:3])
        np.copyto(cc[3:], cc[:2])
        s = _corner_s(cc, det_sign, v.s)
        s_min = np.minimum.reduce(np.abs(s, out=v.tmp3), axis=0,
                                  out=v.s_min)
        if out.band is not None:
            margin = np.minimum(np.abs(tf, out=tf).min(axis=0),
                                s_min.min(axis=0))
            out.band[rows] = ((d_min < EXCLUSION_FACTOR * eps_vertex)
                              | (margin < EXCLUSION_FACTOR * EPS_PLANE))
        dead = k.dead
        np.logical_or(np.less_equal(s_min, EPS_PLANE, out=dead), on_face,
                      out=dead)
        _denominators(d, ft, sin_t, s, dead, v.denom, v.tmp3b, v.mask3)
        w = _raw_weights(cc, theta, v.denom, v.num, v.tmp3b, v.w)
        np.copyto(w, 0.0, where=dead)
        w_sum = topo.to_vertex(ws, w.reshape(3 * nf, n), v.w_sum)  # (C, n)

        # rows on a face: that face's exact 2D barycentric weights only
        on_rows = np.zeros(0, dtype=np.int64)
        if on_face.any():
            on_rows = np.nonzero(on_face.any(axis=0) & ~near)[0]
        if on_rows.size:
            r, ce = on_rows, topo.corner_edge
            f = self.fsel = np.argmax(on_face[:, r], axis=0)
            d_on = d[ft[:, f], r]
            w_sum[:, r] = 0.0
            w_sum[ft[:, f], r] = sin_e[ce[:, f], r] * d_on[_NEXT] * d_on[_PREV]
        # snapped rows: their nearest vertex's indicator row
        if nearest is not None:
            r = np.nonzero(near)[0]
            w_sum[:, r] = 0.0
            w_sum[nearest[r], r] = 1.0
        out.w_sum[rows] = w_sum.T
        if out.flags is not None:
            out.flags[rows] = _flags(v, topo, chord2, det, d, on_rows, near)
        if taped:
            np.copyto(k.det_sign, det_sign, casting="unsafe")
            self.kept, self.on_rows, self.p3 = k, on_rows, p3

    def vjp(self, g_sum):
        """The cage gradient from the gradient (n, C) of the raw rows, as
        its (C, 3) partial sums over _BLOCK_ROWS-row chunks.

        The adjoint of the forward pass, branch by branch: masked lanes and
        guarded denominators pass no gradient, clip passes it strictly
        inside (-1, 1), asin's derivative is taken at an argument clamped
        to 1 - 1e-12, and a zero-length norm has gradient 0.
        """
        geo, topo, k = self.geo, self.geo.topo, self.kept
        ft = topo.ft
        n, nv, nf = len(g_sum), geo.n_vertices, topo.n_faces
        ws = _scratch.use((nv, nf))
        v = ws.views(_VjpViews, nv, nf, topo.n_edges, n)
        dead, two_sin_h = k.dead, k.two_sin_h
        # the arcs, h, c and s again, by the forward's operations: theta = 2
        # asin(min(length / 2, 1)), h = the corner arcs' sum / 2, read only
        # as cos(h), c from 2 sin(h) and sin(h - theta), and s[k] = s_{k+2}
        half = np.minimum(np.divide(k.length, 2.0, out=v.half), 1.0,
                          out=v.half)
        theta_e = np.multiply(2.0, np.arcsin(half, out=v.te), out=v.te)
        theta = theta_e.take(topo.ce5, axis=0, out=v.theta5, mode="clip")
        sin_t = k.sin_e.take(topo.ce5, axis=0, out=v.sin5, mode="clip")
        cos_h = np.divide(_sum3(theta[:3], v.cos_h), 2.0, out=v.cos_h)
        np.cos(cos_h, out=cos_h)
        t, mask, gn, cc = v.tmp3, v.mask3, v.gn5, v.cc5
        denom_c = np.multiply(sin_t[1:4], sin_t[2:5], out=v.denom)
        denom_c_bad = _guard(denom_c, t, v.mask3b)
        _corner_c(two_sin_h, k.sin_hm, denom_c, cc[:3])
        np.copyto(cc[3:], cc[:2])
        s = _corner_s(cc, k.det_sign, v.s)

        g = v.g
        np.copyto(g, g_sum.T)
        if self.on_rows.size:
            r, f = self.on_rows, self.fsel
            g_on = g[ft[:, f], r]                               # (3, r)
            g[:, r] = 0.0                   # the general sum is replaced

        # w = num / denom off the dead lanes; w again, read only here and
        # not zeroed on the dead lanes, where g_den is zeroed
        g_num = g.take(ft, axis=0, out=gn[:3], mode="clip")
        np.copyto(g_num, 0.0, where=dead)
        denom = v.denom
        denom_bad = _denominators(k.d, ft, sin_t, s, dead, denom, t, mask)
        w = _raw_weights(cc, theta, denom, t, v.g_c, t)
        np.divide(g_num, denom, out=g_num)
        np.copyto(gn[3:], gn[:2])
        g_den = np.negative(g_num, out=denom)
        np.multiply(g_den, w, out=g_den)
        np.copyto(g_den, 0.0, where=denom_bad)
        # num_k = theta_k - c_{k+1} theta_{k+2} - c_{k+2} theta_{k+1}
        g_theta, g_c = v.g_theta, v.g_c
        np.subtract(g_num, np.multiply(gn[1:4], cc[2:5], out=t), out=g_theta)
        np.subtract(g_theta, np.multiply(gn[2:5], cc[1:4], out=t),
                    out=g_theta)
        np.multiply(np.negative(gn[2:5], out=g_c), theta[1:4], out=g_c)
        np.subtract(g_c, np.multiply(gn[1:4], theta[2:5], out=t), out=g_c)
        # the gradients of sin(theta) and d per corner start here, where
        # theta and c are dead, with the 2D weights of the rows on a face
        g_sin, g_dk = v.g_sin, v.g_dk
        g_sin.fill(0.0)
        g_dk.fill(0.0)
        if self.on_rows.size:
            # each (corner, face, row) once per update, so the sums into
            # g_dk's two terms come out as in a loop over the corners
            d_on = k.d[ft[:, f], r]                             # (3, r)
            g_on_sin = g_on * sin_t[:3, f, r]
            g_sin[:, f, r] += g_on * d_on[_NEXT] * d_on[_PREV]
            g_dk[_NEXT[:, None], f, r] += g_on_sin * d_on[_PREV]
            g_dk[_PREV[:, None], f, r] += g_on_sin * d_on[_NEXT]
        # denom_k = d_k sin(theta_{k+1}) s_{k+2}; d per corner again
        dk = k.d.take(ft, axis=0, out=t, mode="clip")
        np.multiply(g_den, dk, out=g_num)                  # g_dd, cyclic
        np.copyto(gn[3:], gn[:2])
        np.multiply(np.multiply(g_den, sin_t[1:4], out=t), s, out=t)
        np.add(g_dk, t, out=g_dk)
        s_next = s.take(_PREV, axis=0, out=t, mode="clip")
        np.add(g_sin, np.multiply(gn[2:5], s_next, out=t), out=g_sin)
        g_s = np.multiply(gn[1:4], sin_t[2:5], out=g_den)
        # c again, into g_dd's slot (cc5 is g_dk's now), with the guard
        # mask of the first rebuild; its denominator is the c adjoint's
        c, denom_c = gn[:3], np.multiply(sin_t[1:4], sin_t[2:5], out=t)
        np.copyto(denom_c, 1.0, where=denom_c_bad)
        _corner_c(two_sin_h, k.sin_hm, denom_c, c)
        # s_k = sign(det) sqrt(q_k), q_k = 1 - c_k^2, off the q_bad lanes
        q = np.multiply(c, c, out=v.q)
        np.subtract(1.0, q, out=q)
        q_bad = np.less(q, EPS_PLANE * EPS_PLANE, out=mask)
        np.copyto(q, 1.0, where=q_bad)
        np.multiply(2.0, np.sqrt(q, out=q), out=q)
        g_q = np.multiply(g_s, k.det_sign, out=g_s)
        np.divide(g_q, q, out=g_q)
        np.copyto(g_q, 0.0, where=q_bad)
        np.multiply(np.multiply(2.0, c, out=q), g_q, out=q)
        np.subtract(g_c, q, out=g_c)
        # c_k = clip(2 sin(h) sin(h - theta_k) / denom_c_k - 1), where the
        # unclipped lanes have 2 sin(h) sin(h - theta_k) / denom_c_k = c_k + 1
        np.copyto(g_c, 0.0, where=np.greater_equal(np.abs(c, out=q), 1.0,
                                                   out=mask))
        g_a = np.divide(g_c, denom_c, out=g_c)
        c1 = np.add(c, 1.0, out=q)      # before g_denc overwrites c
        g_denc = np.negative(g_a, out=gn[:3])
        np.multiply(g_denc, c1, out=g_denc)
        np.copyto(g_denc, 0.0, where=denom_c_bad)
        np.copyto(gn[3:], gn[:2])
        # cos(theta) = 1 - 2 sin^2(theta / 2); h - theta_k by addition
        te = np.multiply(np.multiply(2.0, half, out=v.te), half, out=v.te)
        cos_t = np.subtract(1.0, te, out=te).take(topo.corner_edge, axis=0,
                                                  out=q, mode="clip")
        tf, x, g_hm = v.tf, t, g_q
        np.multiply(cos_h, cos_t, out=x)
        np.add(x, np.multiply(np.divide(two_sin_h, 2.0, out=tf), sin_t[:3],
                              out=g_hm), out=x)
        np.multiply(np.multiply(g_a, two_sin_h, out=g_hm), x, out=g_hm)
        g_h = np.sum(np.multiply(g_a, k.sin_hm, out=x), axis=0, out=v.g_h)
        np.multiply(np.multiply(2.0, g_h, out=g_h), cos_h, out=g_h)
        np.add(g_h, np.sum(g_hm, axis=0, out=tf), out=g_h)
        # denom_c_k = sin(theta_{k+1}) sin(theta_{k+2}); g_a is dead
        np.multiply(gn[2:5], sin_t[1:4], out=t)
        np.add(t, np.multiply(gn[1:4], sin_t[2:5], out=g_c), out=t)
        np.add(g_sin, t, out=g_sin)
        np.subtract(np.multiply(g_sin, cos_t, out=x), g_hm, out=x)
        np.add(x, np.divide(g_h, 2.0, out=tf), out=x)
        np.add(g_theta, x, out=g_theta)

        # theta = 2 asin(|chord| / 2), summed from corners onto edges
        length = k.length
        g_len = topo.to_edge(ws, g_theta.reshape(3 * nf, n), v.g_len)
        x = np.minimum(half, _ASIN_CLAMP, out=te)
        np.sqrt(np.subtract(1.0, np.multiply(x, x, out=x), out=x), out=x)
        safe = v.safe
        np.copyto(safe, length)
        np.copyto(safe, 1.0, where=length == 0.0)
        np.divide(g_len, np.multiply(x, safe, out=x), out=g_len)
        # u = (v - p) / d again, with the snapped distances of the forward
        d = k.d
        u = np.divide(np.subtract(geo.cage_t, self.p3, out=v.u), d, out=v.u)
        chord = np.subtract(
            u.take(topo.edge_a, axis=1, out=v.ua, mode="clip"),
            u.take(topo.edge_b, axis=1, out=v.ub, mode="clip"), out=v.ua)
        np.multiply(chord, g_len, out=chord)
        g_u = topo.from_a(ws, chord, v.g_u)                      # (3, C, n)
        np.subtract(g_u, topo.from_b(ws, chord, v.g_ub), out=g_u)
        # g is dead since g_num was gathered from it
        g_d = topo.to_vertex(ws, g_dk.reshape(3 * nf, n), g)          # (C, n)
        # u = diff / d, d = |diff|, on the rows that were not snapped
        tc = np.sum(np.multiply(g_u, u, out=v.c3t), axis=0, out=v.tc)
        np.subtract(g_d, np.divide(tc, d, out=tc), out=g_d)
        g_diff = np.divide(g_u, d, out=g_u)
        np.add(g_diff, np.multiply(u, g_d, out=v.c3t), out=g_diff)
        # the sums of each _BLOCK_ROWS-row chunk, and of the shorter last
        m = n // _BLOCK_ROWS
        lead = m * _BLOCK_ROWS
        parts = list(g_diff[:, :, :lead].reshape(3, nv, m, _BLOCK_ROWS)
                     .sum(axis=3).T)
        if lead < n:
            parts.append(g_diff[:, :, lead:].sum(axis=2).T)
        return parts


def _flags(v, topo, chord2, det, d, on_rows, near):
    """Per-row flags; interior/exterior decided by the winding number."""
    # solid angle of each face: 2 atan2(det[u0,u1,u2], 1 + sum u_a.u_b),
    # with u_a.u_b = 1 - |u_a - u_b|^2 / 2 for unit vectors; the scratch
    # is slots of the forward's temporaries that are dead by now
    dots = _sum3(chord2.take(topo.corner_edge, axis=0, out=v.dots3,
                             mode="clip"), v.dots)
    np.subtract(4.0, np.multiply(0.5, dots, out=dots), out=dots)
    tf = np.multiply.reduce(d.take(topo.ft, axis=0, out=v.d3, mode="clip"),
                            axis=0, out=v.tf)
    omega = np.arctan2(np.divide(det, tf, out=tf), dots, out=tf)
    np.multiply(2.0, omega, out=omega)
    by_row = v.by_row                   # rows contiguous for the sum
    np.copyto(by_row, omega.T)
    solid = by_row.sum(axis=1)
    flags = np.full(len(solid), FLAG_EXTERIOR_OK, dtype=np.uint8)
    flags[np.abs(solid) > 2.0 * np.pi] = FLAG_INTERIOR
    flags[on_rows] = FLAG_ON_FACE
    flags[near] = FLAG_ON_VERTEX
    return flags


def _corner_c(two_sin_h, sin_hm, denom_c, c):
    """c_k = clip(2 sin(h) sin(h - theta_k) / denom_c_k - 1, -1, 1) into
    ``c``, from denom_c_k = sin(theta_{k+1}) sin(theta_{k+2}), guarded."""
    np.divide(np.multiply(two_sin_h, sin_hm, out=c), denom_c, out=c)
    return np.subtract(c, 1.0, out=c).clip(-1.0, 1.0, out=c)


def _corner_s(cc, det_sign, s):
    """s[k] = s_{k+2} = sign(det) sqrt(1 - c_{k+2}^2) from the cyclic c,
    in the order the denominators read it."""
    np.multiply(cc[2:5], cc[2:5], out=s)
    np.subtract(1.0, s, out=s)
    np.sqrt(np.maximum(s, 0.0, out=s), out=s)
    return np.multiply(det_sign, s, out=s)


def _denominators(d, ft, sin_t, s, dead, denom, tmp, mask):
    """denom_k = d_k sin(theta_{k+1}) s_{k+2} into ``denom``, guarded on
    tiny and dead lanes; returns the guard's mask."""
    d.take(ft, axis=0, out=denom, mode="clip")
    np.multiply(np.multiply(denom, sin_t[1:4], out=denom), s, out=denom)
    return _guard(denom, tmp, mask, dead)


def _raw_weights(cc, theta, denom, num, tmp, w):
    """w_k = num_k / denom_k into ``w``, with num_k = theta_k - c_{k+1}
    theta_{k+2} - c_{k+2} theta_{k+1} built in ``num`` (``tmp`` is
    scratch); the dead lanes are the caller's."""
    np.multiply(cc[1:4], theta[2:5], out=num)
    np.subtract(theta[:3], num, out=num)
    np.subtract(num, np.multiply(cc[2:5], theta[1:4], out=tmp), out=num)
    return np.divide(num, denom, out=w)


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
    """Mean value coordinates of ``points`` with respect to ``cage``; a
    non-finite cage vertex or query row raises MvcError.

    ``with_flags=False`` skips the row classification (``flags`` None), for
    callers that read only the weights.
    """
    validate_cage(cage)
    pts = as_positions(points)
    for what, x in (("cage vertex", cage.vertices), ("query row", pts)):
        bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
        if bad.size:
            raise MvcError(f"non-finite {what} {bad[0]}: {x[bad[0]].tolist()}")
    phi, flags = mvc_weights(cage.vertices, cage.faces, pts,
                             with_flags=with_flags)
    return MvcMatrix(weights=np.asarray(phi), flags=flags)


def deform(weights: np.ndarray, deformed_cage_vertices) -> np.ndarray:
    """Deformed positions p_i' = sum_j phi_ij v_j', one per row of the
    (N, C) weights phi; a non-finite deformed cage vertex raises MvcError."""
    verts = np.asarray(deformed_cage_vertices, dtype=np.float64).reshape(-1, 3)
    if verts.shape[0] != weights.shape[1]:
        raise ValueError(
            f"cage vertex count {verts.shape[0]} does not match "
            f"{weights.shape[1]} weight columns"
        )
    bad = np.flatnonzero(~np.isfinite(verts).all(axis=1))
    if bad.size:
        raise MvcError(f"non-finite deformed cage vertex {bad[0]}: "
                       f"{verts[bad[0]].tolist()}")
    return weights @ verts
