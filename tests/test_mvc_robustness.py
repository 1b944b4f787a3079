"""Property sweeps of the coordinate kernel at its branch boundaries.

Queries sit exactly on cage vertices, edges and faces of a sphere42 cage,
just outside the vertex-snap radius and just outside the kernel's 10x
exclusion band, which ``grad_source_cage`` holds constant.  Weights must
be finite with unit row sums, source-cage gradients finite with and
without the exclusion mask, and, outside the band, equal to central
differences.
"""

import cProfile
import pstats
import tracemalloc
import weakref

import numpy as np
import pytest

import cagewarp.autodiff as ad
import per_corner_mvc
from cagewarp.geometry import TriMesh, make_template_cage
from cagewarp.gradients import grad_source_cage
from cagewarp import mvc, runtime
from cagewarp.mvc import (
    EPS_PLANE,
    EXCLUSION_FACTOR,
    FLAG_EXTERIOR_OK,
    FLAG_INTERIOR,
    FLAG_ON_FACE,
    FLAG_ON_VERTEX,
    Scatter,
    mvc_weights,
    vertex_tolerance,
)


@pytest.fixture(scope="module")
def cage():
    return make_template_cage("sphere42", scale=(1.0, 0.8, 0.9))


def _edges(cage):
    f = cage.faces
    e = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1)
    return np.unique(e, axis=0)


def _inward(cage, idx):
    """Unit directions from cage vertices ``idx`` towards the centroid."""
    d = cage.vertices.mean(axis=0) - cage.vertices[idx]
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _face_normals(cage):
    v = cage.vertices[cage.faces]
    n = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    return n / np.linalg.norm(n, axis=1, keepdims=True)


def _sweep(cage):
    """Named query sets at and around every kind of branch boundary."""
    rng = np.random.default_rng(42)
    v, f = cage.vertices, cage.faces
    eps_v = vertex_tolerance(cage.vertices)
    e = _edges(cage)[::4]
    t = rng.uniform(0.1, 0.9, size=(len(e), 1))
    bary = rng.dirichlet([2.0, 2.0, 2.0], size=len(f))
    vid = np.arange(0, len(v), 3)
    return {
        "on_vertex": v[vid],
        "on_edge": (1.0 - t) * v[e[:, 0]] + t * v[e[:, 1]],
        "on_face": np.einsum("fk,fki->fi", bary, v[f]),
        "outside_eps_vertex": v[vid] + 1.5 * eps_v * _inward(cage, vid),
        "outside_exclusion_vertex": (
            v[vid] + 1.5 * EXCLUSION_FACTOR * eps_v * _inward(cage, vid)),
    }


def _downstream(n, c, seed=0):
    r = np.random.default_rng(seed).normal(size=(n, c))

    def loss(phi):
        return ad.sum_(phi * r)

    return loss, r


@pytest.mark.parametrize("kind", [
    "on_vertex", "on_edge", "on_face", "outside_eps_vertex",
    "outside_exclusion_vertex",
])
def test_weights_and_gradients_finite(cage, kind):
    pts = _sweep(cage)[kind]
    phi, flags = mvc_weights(cage.vertices, cage.faces, pts)
    assert np.all(np.isfinite(phi))
    assert np.abs(phi.sum(axis=1) - 1.0).max() <= 1e-12
    if kind == "on_vertex":
        assert np.all(flags == FLAG_ON_VERTEX)
    elif kind in ("on_edge", "on_face"):
        assert np.all(flags == FLAG_ON_FACE)

    loss, _ = _downstream(len(pts), cage.n_vertices)
    _, g, _ = grad_source_cage(cage, pts, loss)  # raises if non-finite
    assert np.all(np.isfinite(g))

    # the path the pipelines take: no exclusion mask around the kernel
    cage_var = ad.Var(cage.vertices)
    phi_var, _ = mvc_weights(cage_var, cage.faces, pts, with_flags=False)
    ad.sum_(loss(phi_var) + phi_var * phi_var).backward()
    assert cage_var.grad is not None
    assert np.all(np.isfinite(cage_var.grad))


def _fd_agrees(cage, pts, step, rtol):
    """Kernel gradient of a random linear loss against central differences."""
    loss, r = _downstream(len(pts), cage.n_vertices, seed=1)
    _, analytic, excluded_rows = grad_source_cage(cage, pts, loss)
    assert excluded_rows == 0

    def value(x):
        phi, _ = mvc_weights(x, cage.faces, pts, with_flags=False)
        return float(np.sum(phi * r))

    fd = np.zeros_like(cage.vertices)
    for idx in np.ndindex(*fd.shape):
        xp, xm = cage.vertices.copy(), cage.vertices.copy()
        xp[idx] += step
        xm[idx] -= step
        fd[idx] = (value(xp) - value(xm)) / (2.0 * step)
    err = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
    assert err <= rtol, err


def test_fd_just_outside_vertex_exclusion(cage):
    pts = _sweep(cage)["outside_exclusion_vertex"][:4]
    dist = 1.5 * EXCLUSION_FACTOR * vertex_tolerance(cage.vertices)
    # the step must stay well inside the distance to the nearby vertex
    _fd_agrees(cage, pts, step=1e-3 * dist, rtol=1e-5)


def test_fd_just_outside_plane_exclusion(cage):
    # face centres moved inwards until the row just leaves the band: the
    # first of the offsets outside it, the one before it inside
    f = cage.faces[::10]
    centres = cage.vertices[f].mean(axis=1)
    normals = _face_normals(cage)[::10]
    offsets = np.geomspace(1e-9, 1e-3, 61)
    pts, used = [], []
    for c, n in zip(centres, normals):
        rows = c - offsets[:, None] * n
        _, _, band = mvc_weights(cage.vertices, cage.faces, rows,
                                 exclude_band=True)
        i = int(np.argmin(band))
        assert i > 0 and band[i - 1] and not band[i]
        pts.append(rows[i])
        used.append(offsets[i])
    # the weights are smooth over a band of width ~delta around the query,
    # and rounding near h = pi makes smaller steps noisier
    _fd_agrees(cage, np.array(pts), step=0.1 * min(used), rtol=1e-5)


def _plane_margin(cage, p):
    """min(|pi - h|, |s|) of query ``p`` over the faces of ``cage``, by
    the formulas of the ``mvc`` docstring."""
    u = cage.vertices[cage.faces] - p                          # (F, 3, 3)
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    chord = np.linalg.norm(u[:, [1, 2, 0]] - u[:, [2, 0, 1]], axis=2)
    theta = 2.0 * np.arcsin(np.minimum(chord / 2.0, 1.0))
    h = theta.sum(axis=1) / 2.0
    sin_t = np.sin(theta)
    c = np.clip(2.0 * np.sin(h)[:, None] * np.sin(h[:, None] - theta)
                / (sin_t[:, [1, 2, 0]] * sin_t[:, [2, 0, 1]]) - 1.0,
                -1.0, 1.0)
    return min(np.abs(np.pi - h).min(), np.sqrt(1.0 - c * c).min())


def _offset_to_margin(cage, centre, normal, target):
    """The inward offset from a face centre at which ``_plane_margin``
    reaches ``target``, by bisection (the margin grows with the offset)."""
    lo, hi = 1e-9, 1e-2
    for _ in range(60):
        mid = np.sqrt(lo * hi)
        if _plane_margin(cage, centre - mid * normal) < target:
            lo = mid
        else:
            hi = mid
    return hi


def test_band_marks_rows_within_ten_tolerances(cage):
    # rows at 0.5x and 1.5x of each band: 10 eps_vertex of distance to a
    # cage vertex, and 10 EPS_PLANE of plane margin near a face centre.
    # All are regular interior rows; the band holds exactly the 0.5x ones
    v = cage.vertices
    vid = np.arange(0, len(v), 5)
    eps_v = vertex_tolerance(v)
    centres = v[cage.faces[::10]].mean(axis=1)
    normals = _face_normals(cage)[::10]
    rows, inside = [], []
    for k in (0.5, 1.5):
        step = k * EXCLUSION_FACTOR * eps_v
        rows += list(v[vid] + step * _inward(cage, vid))
        target = k * EXCLUSION_FACTOR * EPS_PLANE
        rows += [c - _offset_to_margin(cage, c, n, target) * n
                 for c, n in zip(centres, normals)]
        inside += [k < 1.0] * (len(vid) + len(centres))
    pts = np.array(rows)
    _, flags, band = mvc_weights(v, cage.faces, pts, exclude_band=True)
    assert band.tolist() == inside
    assert np.all(flags == FLAG_INTERIOR)
    loss, r = _downstream(len(pts), cage.n_vertices, seed=2)
    _, g, excluded_rows = grad_source_cage(cage, pts, loss)
    assert excluded_rows == band.sum() == len(pts) // 2
    # the band's rows pass no gradient: the rows outside it give it alone
    keep = ~band

    def outside(x):
        phi, _ = mvc_weights(x, cage.faces, pts[keep], with_flags=False)
        return ad.sum_(phi * r[keep])

    _, want = ad.value_and_grad(outside, v)
    assert np.allclose(g, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def _boundary_queries(cage, n, block, seed):
    """n queries with snapped and on-face rows on both sides of every
    boundary of ``block``-row blocks."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    pts *= rng.uniform(0.2, 1.3, size=(n, 1)) / np.linalg.norm(
        pts, axis=1, keepdims=True)
    v, f = cage.vertices, cage.faces
    n_edges = (n - 1) // block
    on_face = np.einsum("fk,fki->fi",
                        rng.dirichlet([1.0] * 3, size=2 * n_edges + 2),
                        v[f[:2 * n_edges + 2]])
    for b in range(1, n_edges + 1):
        edge = b * block
        pts[edge - 2] = v[b]
        pts[edge - 1] = on_face[2 * b]
        pts[edge] = v[b + 10]
        pts[edge + 1] = on_face[2 * b + 1]
    return pts


def test_rows_do_not_depend_on_block(cage):
    # N is not a multiple of the block size, and snapped and on-face rows
    # sit on both sides of every block boundary
    block = mvc._block_rows(cage.n_faces)
    n = 3 * block + 5
    pts = _boundary_queries(cage, n, block, seed=7)
    v, f = cage.vertices, cage.faces
    phi, flags = mvc_weights(v, f, pts)
    assert np.sum(flags == FLAG_ON_VERTEX) == 6
    assert np.sum(flags == FLAG_ON_FACE) == 6
    for i in range(n):
        row, flag = mvc_weights(v, f, pts[i:i + 1])
        assert np.array_equal(phi[i], row[0]), i
        assert flags[i] == flag[0], i


def _kernel_outputs(cage, pts):
    """Weights, flags, the exclusion band and the taped cage gradient of a
    linear loss."""
    phi, flags, band = mvc_weights(cage.vertices, cage.faces, pts,
                                   exclude_band=True)
    cage_var = ad.Var(cage.vertices)
    phi_var, _ = mvc_weights(cage_var, cage.faces, pts, with_flags=False)
    loss, _ = _downstream(len(pts), cage.n_vertices, seed=3)
    loss(phi_var).backward()
    return phi, flags, band, cage_var.grad


@pytest.mark.parametrize("kind, n", [("sphere42", 2 * 64 + 5),
                                     ("sphere162", 2 * 16 + 5)])
def test_face_count_blocks_match_16_row_blocks(kind, n, monkeypatch):
    # one block sized from the face count gives the bits of 16-row blocks,
    # with snapped and on-face rows on both sides of every 16-row boundary:
    # the forward is row-local and the gradient sums 16-row chunks in order
    cage = make_template_cage(kind, scale=(1.0, 0.8, 0.9))
    assert mvc._block_rows(cage.n_faces) == {"sphere42": 192,
                                             "sphere162": 48}[kind]
    pts = _boundary_queries(cage, n, 16, seed=11)
    phi, flags, band, grad = _kernel_outputs(cage, pts)
    monkeypatch.setattr(mvc, "_block_rows", lambda n_faces: 16)
    phi16, flags16, band16, grad16 = _kernel_outputs(cage, pts)
    assert np.array_equal(phi, phi16)
    assert np.array_equal(flags, flags16)
    assert np.array_equal(band, band16)
    assert np.all(np.isfinite(grad))
    assert np.array_equal(grad, grad16)


@pytest.mark.parametrize("kind", ["sphere162", "sphere42"])
def test_threads_do_not_change_kernel_bits(kind, monkeypatch):
    # four blocks, with snapped and on-face rows on both sides of every
    # block boundary, run on 1, 2 and 8 threads, and as 16-row blocks
    cage = make_template_cage(kind, scale=(1.0, 0.8, 0.9))
    block = mvc._block_rows(cage.n_faces)
    pts = _boundary_queries(cage, 3 * block + 5, block, seed=13)
    runs = []
    for threads in (1, 2, 8):
        with runtime.thread_cap(threads):
            runs.append(_kernel_outputs(cage, pts))
    monkeypatch.setattr(mvc, "_block_rows", lambda n_faces: 16)
    runs.append(_kernel_outputs(cage, pts))
    phi, flags, band, grad = runs[0]
    assert np.sum(flags == FLAG_ON_VERTEX) == 6
    assert np.sum(flags == FLAG_ON_FACE) == 6
    assert np.all(np.isfinite(grad))
    for phi_t, flags_t, band_t, grad_t in runs[1:]:
        assert np.array_equal(phi, phi_t)
        assert np.array_equal(flags, flags_t)
        assert np.array_equal(band, band_t)
        assert np.array_equal(grad, grad_t)


def _bincount_sums(target, n_targets, x):
    """Rows of ``x`` summed per target by ``np.bincount``."""
    n = x.shape[1]
    index = (target[:, None] * n + np.arange(n)).ravel()
    return np.bincount(index, x.ravel(),
                       minlength=n_targets * n).reshape(-1, n)


class _BincountScatter:
    """``mvc.Scatter``'s interface, summed by ``np.bincount``."""

    GATHER_SLOT = Scatter.GATHER_SLOT
    made = 0

    def __init__(self, target, n_targets):
        self.target, self.n_targets = target, n_targets
        _BincountScatter.made += 1

    def __call__(self, ws, x, out):
        for i in np.ndindex(x.shape[:-2]):
            out[i] = _bincount_sums(self.target, self.n_targets, x[i])
        return out


@pytest.mark.parametrize("n_targets, n_rows, pairs", [
    (1, 1, False), (7, 40, False), (162, 960, False), (40, 12, False),
    (480, 960, True)])
@pytest.mark.parametrize("cols", ["one", "3n", "-0.0"])
def test_scatter_matches_bincount(n_targets, n_rows, pairs, cols):
    # random targets, some with no rows at all (as from_a and from_b have),
    # or two rows each (as to_edge has, which accumulates in place); every
    # target adds its rows into 0.0 in increasing j, like np.bincount
    rng = np.random.default_rng(n_targets * 1000 + n_rows)
    if pairs:
        target = rng.permutation(np.repeat(np.arange(n_targets), 2))
    else:
        hit = rng.choice(n_targets, size=max(1, n_targets - n_targets // 4),
                         replace=False)
        target = rng.choice(hit, size=n_rows)
    n = {"one": 1, "3n": 3 * 17, "-0.0": 5}[cols]
    x = (np.full((n_rows, n), -0.0) if cols == "-0.0"
         else rng.normal(size=(n_rows, n)) * 10.0 ** rng.integers(
             -8, 9, size=(n_rows, 1)))
    scatter = Scatter(target, n_targets)
    if pairs:
        assert scatter.back is None
    ws = runtime.Workspace()
    out = np.full((n_targets, n), np.nan)
    got = scatter(ws, x, out)
    want = _bincount_sums(target, n_targets, x)
    assert got is out
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    if cols == "-0.0":
        assert not np.signbit(got).any()
    # the workspace's buffers are reused, and a smaller call reads none of
    # the larger one's leftovers
    again = scatter(ws, x[:, :1].copy(), np.empty((n_targets, 1)))
    assert np.array_equal(again.view(np.int64), want[:, :1].view(np.int64))


@pytest.mark.parametrize("kind", ["sphere162", "sphere42"])
def test_numpy_scatters_match_bincount(kind, monkeypatch):
    # the kernel's numpy scatters add in the order np.bincount adds in:
    # weights, flags, band and the taped cage gradient are the same bits,
    # with snapped and on-face rows on every block boundary
    cage = make_template_cage(kind, scale=(1.0, 0.8, 0.9))
    block = mvc._block_rows(cage.n_faces)
    pts = _boundary_queries(cage, 3 * block + 5, block, seed=19)
    runs = {}
    try:
        for scatter in ("numpy", "bincount"):
            mvc._topology.cache_clear()
            if scatter == "bincount":
                # the name _CageTopology reads; the swap must take effect
                monkeypatch.setattr(mvc, "Scatter", _BincountScatter)
                monkeypatch.setattr(_BincountScatter, "made", 0)
            for threads in (1, 2, 8):
                with runtime.thread_cap(threads):
                    runs[scatter, threads] = _kernel_outputs(cage, pts)
            if scatter == "bincount":
                # to_vertex, to_edge, from_a and from_b of the one topology
                assert _BincountScatter.made == 4
    finally:
        monkeypatch.undo()
        mvc._topology.cache_clear()
    phi, flags, band, grad = runs["bincount", 1]
    assert np.sum(flags == FLAG_ON_VERTEX) == 6
    assert np.sum(flags == FLAG_ON_FACE) == 6
    assert np.all(np.isfinite(grad))
    for phi_t, flags_t, band_t, grad_t in runs.values():
        assert np.array_equal(phi, phi_t)
        assert np.array_equal(flags, flags_t)
        assert np.array_equal(band, band_t)
        assert np.array_equal(grad, grad_t)


def test_only_taped_calls_keep_blocks(cage, monkeypatch):
    # an untaped block is freed on the thread that built it; a taped call's
    # blocks live as long as its tape node
    made = []
    init = mvc._Block.__init__

    def tracked(self, *args):
        init(self, *args)
        made.append(weakref.ref(self))

    monkeypatch.setattr(mvc._Block, "__init__", tracked)
    block = mvc._block_rows(cage.n_faces)
    pts = _boundary_queries(cage, 3 * block + 5, block, seed=17)
    with runtime.thread_cap(2):
        mvc_weights(cage.vertices, cage.faces, pts)
        assert len(made) == 4
        assert all(ref() is None for ref in made)
        phi, _ = mvc_weights(ad.Var(cage.vertices), cage.faces, pts,
                             with_flags=False)
    assert len(made) == 8
    assert all(ref() is not None for ref in made[4:])
    del phi
    assert all(ref() is None for ref in made)


@pytest.mark.parametrize("n_faces, rows", [(8, 1920), (80, 192), (81, 176),
                                           (320, 48), (500, 16), (5120, 16)])
def test_block_rows_follow_face_count(n_faces, rows):
    assert mvc._block_rows(n_faces) == rows
    # a cyclic (5, F, rows) array stays within 600 KiB unless rows is minimal
    assert 5 * n_faces * rows * 8 <= 600 * 1024 or rows == 16


@pytest.mark.parametrize("pairs", [False, True])
def test_scatter_adds_each_leading_slice(pairs):
    # the VJP scatters the three components of a (3, J, n) array in one
    # call; each (J, n) slice gets the bits np.bincount gives it alone
    rng = np.random.default_rng(31)
    if pairs:
        target = rng.permutation(np.repeat(np.arange(60), 2))
    else:
        target = rng.choice(40, size=120)
    scatter = Scatter(target, 60 if pairs else 42)
    x = rng.normal(size=(3, 120, 7))
    x[1, ::5] = -0.0
    out = np.full((3, scatter.n_targets, 7), np.nan)
    got = scatter(runtime.Workspace(), x, out)
    assert got is out
    for i in range(3):
        want = _bincount_sums(target, scatter.n_targets, x[i])
        assert np.array_equal(got[i].view(np.int64), want.view(np.int64))


def _plane_cages():
    rng = np.random.default_rng(29)
    s42, s162 = (make_template_cage(k) for k in ("sphere42", "sphere162"))
    jittered = s162.vertices + rng.normal(scale=0.03,
                                          size=s162.vertices.shape)
    # face 0's third corner moved to within 1e-9 of its first edge
    near = s42.vertices.copy()
    a, b, c = s42.faces[0]
    mid = 0.5 * (near[a] + near[b])
    near[c] = mid + 1e-9 * (near[c] - mid)
    return {"sphere42": (s42.vertices, s42.faces),
            "sphere162": (s162.vertices, s162.faces),
            "jittered": (jittered, s162.faces),
            "near_degenerate": (near, s42.faces)}


@pytest.mark.parametrize("kind", ["sphere42", "sphere162", "jittered",
                                  "near_degenerate"])
def test_face_planes_match_cross_product_oracle(kind):
    # the planes are built by component arithmetic: the bits of np.cross,
    # of np.einsum over np.cross and of np.linalg.norm
    v, f = _plane_cages()[kind]
    geo = mvc._CageGeometry(v, f)
    v0, v1, v2 = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    area_normal = np.cross(v1 - v0, v2 - v0)
    det0 = np.einsum("fi,fi->f", v0, np.cross(v1, v2))
    fn_len = np.linalg.norm(area_normal, axis=1, keepdims=True)
    unit_normal = area_normal / np.where(fn_len < 1e-300, 1.0, fn_len)
    for got, want in ((geo.area_normal, area_normal), (geo.det0, det0),
                      (geo.unit_normal, unit_normal)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_workspace_views_follow_a_grown_slot():
    ws = runtime.Workspace()

    def build(w, n):
        return w.take("a", (n,))

    small = ws.views(build, 2)
    assert ws.views(build, 2) is small
    big = ws.views(build, 8)
    again = ws.views(build, 2)
    assert again is not small and np.shares_memory(again, big)


def test_no_cached_view_survives_a_resize(monkeypatch):
    # one thread, one workspace, calls that change cage size and row count
    # (growing and shrinking the slots), taped and untaped: each gives the
    # bits of the same call on a fresh workspace
    cages = {k: make_template_cage(k, scale=(1.0, 0.8, 0.9))
             for k in ("sphere42", "sphere162")}
    calls = []
    for kind, rows in [("sphere42", 1), ("sphere42", 48), ("sphere162", 1),
                       ("sphere162", "2b+5"), ("sphere162", 48),
                       ("sphere42", "2b+5"), ("sphere42", 1),
                       ("sphere162", 1)]:
        cage = cages[kind]
        if rows == "2b+5":
            rows = 2 * mvc._block_rows(cage.n_faces) + 5
        calls.append((cage, _boundary_queries(cage, rows, 16, seed=rows)))
    with runtime.thread_cap(1):
        monkeypatch.setattr(mvc, "_scratch", runtime.Workspace())
        got = [_kernel_outputs(cage, pts) for cage, pts in calls]
        for (cage, pts), run in zip(calls, got):
            monkeypatch.setattr(mvc, "_scratch", runtime.Workspace())
            want = _kernel_outputs(cage, pts)
            for a, b in zip(run, want):
                assert np.array_equal(a, b)


def test_scratch_at_320_faces_stays_within_budget(monkeypatch):
    # a thread's slots on a 320-face cage, whose blocks hold cyclic (5, F,
    # n) corner arrays, stay within what blocks of the same size held with
    # (3, F, n) ones: 4.15 MiB after an untaped call and 6.48 MiB after a
    # taped forward and VJP
    cage = make_template_cage("sphere162", scale=(1.0, 0.8, 0.9))
    pts = _boundary_queries(cage, 2 * mvc._block_rows(cage.n_faces) + 5,
                            16, seed=37)
    ws = runtime.Workspace()
    monkeypatch.setattr(mvc, "_scratch", ws)
    with runtime.thread_cap(1):
        mvc_weights(cage.vertices, cage.faces, pts)
        untaped = sum(b.nbytes for b in ws.slots.values())
        _kernel_outputs(cage, pts)
        taped = sum(b.nbytes for b in ws.slots.values())
    assert untaped <= 4.15 * 2 ** 20
    assert taped <= 6.48 * 2 ** 20


class _PoisonedWorkspace(runtime.Workspace):
    """A workspace whose slots hold NaN (True in bool slots) whenever a
    block's forward or VJP takes it, and when a slot is made or grown."""

    def use(self, key):
        super().use(key)
        for buf in self.slots.values():
            _poison(buf)
        return self

    def take(self, name, shape, dtype=np.float64):
        old = self.slots.get(name)
        view = super().take(name, shape, dtype)
        if self.slots[name] is not old:
            _poison(self.slots[name])
        return view


def _poison(buf):
    buf.fill(True if buf.dtype == bool else np.nan)


def _mixed_queries(cage, seed):
    """360 random rows with 6 rows each on a vertex, on a face and outside
    the cage, shuffled over the blocks."""
    rng = np.random.default_rng(seed)
    v, f = cage.vertices, cage.faces
    on_face = np.einsum("fk,fki->fi", rng.dirichlet([2.0] * 3, size=6),
                        v[f[::max(1, len(f) // 6)][:6]])
    outside = rng.normal(size=(6, 3))
    outside *= 1.6 / np.linalg.norm(outside, axis=1, keepdims=True)
    pts = np.concatenate([rng.uniform(-0.6, 0.6, size=(360, 3)), v[::7][:6],
                          on_face, outside])
    return pts[rng.permutation(len(pts))]


def _slot_outputs(cage, pts):
    """Bytes of every kernel output: taped and untaped, with and without
    flags, and the taped cage gradient of a linear loss."""
    loss, _ = _downstream(len(pts), cage.n_vertices, seed=7)
    got = {}
    for with_flags in (True, False):
        phi, flags = mvc_weights(cage.vertices, cage.faces, pts,
                                 with_flags=with_flags)
        cage_var = ad.Var(cage.vertices)
        phi_var, flags_t = mvc_weights(cage_var, cage.faces, pts,
                                       with_flags=with_flags)
        loss(phi_var).backward()
        got.update({(with_flags, "weights"): phi, (with_flags, "flags"): flags,
                    (with_flags, "taped weights"): phi_var.value,
                    (with_flags, "taped flags"): flags_t,
                    (with_flags, "gradient"): cage_var.grad})
    return {k: None if a is None else a.tobytes() for k, a in got.items()}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", ["sphere42", "sphere162"])
def test_no_stale_slot_is_read(kind, threads, monkeypatch):
    # every slot holds NaN when a block's forward or VJP starts, so a read
    # of a slot before this block wrote it shows up whatever the block
    # layout: the outputs keep their bits
    cage = make_template_cage(kind, scale=(1.0, 0.8, 0.9))
    pts = _mixed_queries(cage, seed=53)
    with runtime.thread_cap(threads):
        monkeypatch.setattr(mvc, "_scratch", runtime.Workspace())
        clean = _slot_outputs(cage, pts)
        monkeypatch.setattr(mvc, "_scratch", _PoisonedWorkspace())
        poisoned = _slot_outputs(cage, pts)
    flags = np.frombuffer(clean[True, "flags"], dtype=np.uint8)
    assert {FLAG_INTERIOR, FLAG_ON_VERTEX, FLAG_ON_FACE,
            FLAG_EXTERIOR_OK} <= set(flags.tolist())
    assert len(pts) > mvc._block_rows(cage.n_faces)
    assert [k for k in clean if clean[k] != poisoned[k]] == []


def _recorded_kept(monkeypatch):
    """The list that every ``mvc._Kept`` made from here on is appended to."""
    kept = []

    class Recorded(mvc._Kept):
        def __init__(self, *shape):
            super().__init__(*shape)
            kept.append(self)

    monkeypatch.setattr(mvc, "_Kept", Recorded)
    return kept


@pytest.mark.parametrize("kind, per_row", [("sphere162", 19_536),
                                           ("sphere42", 4_896)])
def test_taped_rows_keep_their_bytes(kind, per_row, monkeypatch):
    # what a taped block keeps for its VJP, per query row: d, the chord
    # lengths and arc sines, 2 sin(h), sin(h - theta) and the dead mask
    # (19,536 bytes at 320 faces, 4,896 at 80), plus sign(det), one int8 a
    # face.  The margin, 2%, is less than one more (F, rows) float64 array
    # would add (13%)
    kept = _recorded_kept(monkeypatch)
    cage = make_template_cage(kind)
    n = 2 * mvc._block_rows(cage.n_faces) + 5
    pts = np.random.default_rng(17).uniform(-0.5, 0.5, size=(n, 3))
    with runtime.thread_cap(1):
        mvc_weights(ad.Var(cage.vertices), cage.faces, pts, with_flags=False)
    assert len(kept) == 3
    kept_bytes = sum(a.nbytes for k in kept for a in vars(k).values())
    assert kept_bytes / n <= 1.02 * (per_row + cage.n_faces)


def test_taped_call_traced_peak(monkeypatch):
    # a warmed taped forward and VJP of 866 rows on a 320-face cage, on one
    # thread: the peak that tracemalloc traces holds the kept arrays (16
    # MiB), phi and the downstream loss's arrays.  Measured 21.07 MiB; one
    # more (N, C) array (1.07 MiB) alive at the peak fails, as when the
    # backward pass kept its dead gradients or the VJP built g_sum in
    # separate arrays (22.94 MiB)
    cage = make_template_cage("sphere162")
    rng = np.random.default_rng(19)
    pts = rng.uniform(-0.5, 0.5, size=(866, 3))
    loss, _ = _downstream(len(pts), cage.n_vertices, seed=23)
    monkeypatch.setattr(mvc, "_scratch", runtime.Workspace())

    def call():
        cage_var = ad.Var(cage.vertices)
        phi, _ = mvc_weights(cage_var, cage.faces, pts, with_flags=False)
        loss(phi).backward()

    with runtime.thread_cap(1):
        call()                          # the workspace's slots
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 22.0 * 2 ** 20


@pytest.mark.parametrize("with_flags", [True, False])
def test_untaped_call_traced_peak(with_flags, monkeypatch):
    # a warmed untaped call of 866 rows on a 320-face cage, on one thread,
    # allocates little beyond its output (1.07 MiB): its temporaries live
    # in the workspace's slots.  Measured 1.22 MiB with or without flags;
    # one fresh (3, F, rows) temporary per block would add 0.35 MiB
    cage = make_template_cage("sphere162")
    pts = np.random.default_rng(19).uniform(-0.5, 0.5, size=(866, 3))
    monkeypatch.setattr(mvc, "_scratch", runtime.Workspace())

    def call():
        mvc_weights(cage.vertices, cage.faces, pts, with_flags=with_flags)

    with runtime.thread_cap(1):
        call()                          # the workspace's slots
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 1.30 * 2 ** 20


# Python-level calls that cProfile counts in one warmed kernel call on one
# thread: untaped with flags, untaped without, and the taped forward
# (without flags) plus its VJP.  cProfile sees Python frames and C
# functions and methods (``take``, views, reductions called as methods),
# not ufunc calls, so the count covers the gathers and the interpreter
# work around the arithmetic, not the arithmetic.  The counts are held
# exactly: a change that lowers one pins its new value here.
_KERNEL_CALLS = {("sphere162", 866): (1320, 1053, 3115),
                 ("sphere42", 48): (132, 117, 249)}


@pytest.mark.parametrize("kind, rows", sorted(_KERNEL_CALLS))
def test_kernel_call_counts(kind, rows, monkeypatch):
    # cProfile sees only the calling thread, so every block runs on it
    cage = make_template_cage(kind)
    pts = np.random.default_rng(19).uniform(-0.5, 0.5, size=(rows, 3))
    g = np.random.default_rng(23).normal(size=(rows, cage.n_vertices))
    monkeypatch.setattr(mvc, "_scratch", runtime.Workspace())

    def taped():
        phi, _ = mvc_weights(ad.Var(cage.vertices), cage.faces, pts,
                             with_flags=False)
        phi._vjps[0](g)

    def calls(fn):
        # the first call makes the slots and views; the second, like the
        # third, builds none
        fn()
        counts = []
        for _ in range(2):
            prof = cProfile.Profile()
            prof.runcall(fn)
            counts.append(pstats.Stats(prof).total_calls)
        assert counts[0] == counts[1]
        return counts[1]

    with runtime.thread_cap(1):
        got = tuple(calls(fn) for fn in (
            lambda: mvc_weights(cage.vertices, cage.faces, pts),
            lambda: mvc_weights(cage.vertices, cage.faces, pts,
                                with_flags=False),
            taped))
    assert got == _KERNEL_CALLS[kind, rows]


def _in_plane_outside(cage, pts, block, seed):
    """Rows of ``pts`` moved into a face's plane outside that face, away
    from the block boundaries; returns (rows, faces)."""
    rows = np.concatenate([np.arange(lo + 5, lo + block - 5, 7)
                           for lo in range(0, len(pts) - block + 1, block)])
    faces = np.random.default_rng(seed).choice(cage.n_faces, size=len(rows),
                                               replace=False)
    a, b, c = (cage.vertices[cage.faces[faces, i]] for i in range(3))
    pts[rows] = a + 2.0 * (b - a) + 1.5 * (c - a)
    return rows, faces


@pytest.mark.parametrize("kind", ["sphere162", "sphere42", "jittered"])
def test_batched_block_matches_per_corner_loops(kind, monkeypatch):
    # the block's batched numpy calls against the per-corner loops they
    # replaced: weights, flags, band and the taped cage gradient, with
    # snapped and on-face rows on every block boundary, and rows in a
    # face's plane outside it, whose lane of that face is dead (s = 0 or
    # tiny, with c clipped to +-1), to the bit
    cage = (make_template_cage(kind, scale=(1.0, 0.8, 0.9))
            if kind != "jittered" else
            TriMesh(*_plane_cages()["jittered"]))
    block = mvc._block_rows(cage.n_faces)
    pts = _boundary_queries(cage, 2 * block + 5, block, seed=41)
    rows, faces = _in_plane_outside(cage, pts, block, seed=43)
    kept = _recorded_kept(monkeypatch)
    per_corner = []

    class Recorded(per_corner_mvc.PerCornerBlock):
        def __init__(self, *args):
            super().__init__(*args)
            if args[-1]:                # taped: it keeps c
                per_corner.append(self)

    with runtime.thread_cap(1):
        batched = _kernel_outputs(cage, pts)
        blocks = kept[:3]               # the taped call's
        flagged = _taped_flagged_grad(cage, pts)
        monkeypatch.setattr(mvc, "_Block", Recorded)
        loops = _kernel_outputs(cage, pts)
        assert np.array_equal(flagged, _taped_flagged_grad(cage, pts))
    phi, flags, band, grad = batched
    assert np.sum(flags == FLAG_ON_VERTEX) == 4
    assert np.sum(flags == FLAG_ON_FACE) == 4
    dead = np.concatenate([k.dead for k in blocks], axis=1)
    # the batched blocks keep no c; the per-corner ones of the same rows do
    c = np.concatenate([b.cc for b in per_corner[:3]], axis=2)
    assert np.all(dead[faces, rows])
    assert np.any(np.abs(c[:, faces, rows]) == 1.0)
    for a, b in zip((phi, flags, band, grad), loops):
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


def _taped_flagged_grad(cage, pts):
    """The cage gradient of a taped call that also classifies its rows."""
    cage_var = ad.Var(cage.vertices)
    phi_var, _ = mvc_weights(cage_var, cage.faces, pts)
    loss, _ = _downstream(len(pts), cage.n_vertices, seed=5)
    loss(phi_var).backward()
    return cage_var.grad
