"""The MVC kernel's block as per-corner loops: the reference the batched
``cagewarp.mvc._Block`` must match bit for bit.

This is the kernel's forward pass and VJP as they were written before each
loop over the three corners (or the three vector components) became one
numpy call: ``PerCornerBlock`` runs every elementwise operation once per
corner, on (F, n) slices, and every sum in the same order as the batched
block.  A test swaps it in for ``mvc._Block`` and compares the outputs.
"""

import numpy as np

from cagewarp import mvc, runtime
from cagewarp.mvc import EPS_PLANE, EXCLUSION_FACTOR, FLAG_EXTERIOR_OK
from cagewarp.mvc import FLAG_INTERIOR
from cagewarp.mvc import FLAG_ON_FACE, FLAG_ON_VERTEX

_BLOCK_ROWS = mvc._BLOCK_ROWS
_DENOM_TINY = mvc._DENOM_TINY
_ASIN_CLAMP = mvc._ASIN_CLAMP
_NEXT = np.array([1, 2, 0])   # corner k -> k + 1
_PREV = np.array([2, 0, 1])   # corner k -> k + 2

_scratch = runtime.Workspace()


def _fresh(name, shape, dtype=np.float64):
    """A new array, for what a taped block keeps for its VJP."""
    return np.empty(shape, dtype)


def _gather(x, index, out):
    """``x[index]`` along axis 0, written into ``out``."""
    return np.take(x, index, axis=0, out=out, mode="clip")


class PerCornerBlock:
    """Forward pass over one block of query rows, and its VJP, corner by
    corner; ``mvc._Block``'s interface.

    Arrays are laid out (corner, face, row), (edge, row) or (vertex, row),
    with vectors carrying a leading component axis; corner k's neighbours
    are k+1 (_NEXT) and k+2 (_PREV).  Every value of a row depends on that
    row alone, and the scatters into cage columns add in input order, so a
    row's weights do not depend on its block.

    Temporaries live in the thread's workspace slots, named by the shape
    they hold: f1 (F, n), f3 (3, F, n), e1 (E, n), c1 (C, n), c3 (3, C, n),
    and m1 / m3 for boolean masks of (F, n) / (3, F, n); the scatters
    gather into sc_src and accumulate in sc_acc0 or sc_acc1.  A taped block
    keeps, in arrays of its own, only what its VJP cannot cheaply rebuild: the
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
        d_min = np.min(d, axis=0)
        np.less(d_min, eps_vertex, out=near)
        nearest = None
        if near.any():
            nearest = d.argmin(axis=0)
            # snapped rows are written as indicator rows below and pass no
            # gradient, so their snapped distances may read 1.0 from here on
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
        if out.band is not None:
            margin = np.minimum(
                np.abs(np.subtract(np.pi, h, out=tf), out=tf).min(axis=0),
                s_min.min(axis=0))
            out.band[rows] = ((d_min < EXCLUSION_FACTOR * eps_vertex)
                              | (margin < EXCLUSION_FACTOR * EPS_PLANE))
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
        # snapped rows: their nearest vertex's indicator row
        if nearest is not None:
            r = np.nonzero(near)[0]
            w_sum[:, r] = 0.0
            w_sum[nearest[r], r] = 1.0
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
        """The cage gradient from the gradient (n, C) of the raw rows, as
        its (C, 3) partial sums over _BLOCK_ROWS-row chunks.

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
        return [g_diff[:, :, lo:lo + _BLOCK_ROWS].sum(axis=2).T
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
