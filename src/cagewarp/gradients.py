"""Derivatives of the deformation with respect to cage geometry.

Two argument groups exist:

* the deformed cage vertices, which enter linearly through
  p' = sum_j phi_j v_j', and
* the source cage vertices, which enter nonlinearly through the weights
  phi themselves.

Both are obtained by reverse accumulation over the autodiff tape: the first
as ``ad.value_and_grad(lambda v: loss(ad.matmul(m.weights, v)), v0)``, the
second by ``grad_source_cage``, which asks the kernel to hold the rows in
its exclusion band (on a branch boundary) constant and counts them.  The
weights enter the tape as one node whose VJP is the closed-form adjoint of
the coordinate formulas (see ``mvc``), so the source-cage gradient costs
one pass over the kept per-block values rather than a walk over
per-operation temporaries.  A finite-difference harness cross-checks any
gradient implementation against central differences.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import losses
from .geometry import (
    _ICO_FACES,
    _ICO_VERTS,
    PointSet,
    TriMesh,
    as_positions,
    attach_pca_frames,
    knn_neighborhoods,
    validate_cage,
)
from .mvc import compute_mvc, mvc_weights


def grad_source_cage(cage: TriMesh, points, downstream):
    """The gradient of ``downstream(phi)`` with respect to the source cage.

    Returns (value, gradient, excluded_rows), the gradient one row per cage
    vertex.  The rows in the kernel's exclusion band (``mvc_weights(...,
    exclude_band=True)``) sit on a branch boundary of the weights; their
    gradient is undefined, so they are held constant (zero gradient) and
    counted in ``excluded_rows``.  Raises ``FloatingPointError`` on a
    non-finite gradient entry.
    """
    validate_cage(cage)
    band = None

    def loss(cage_vertices):
        nonlocal band
        phi, _, band = mvc_weights(cage_vertices, cage.faces,
                                   as_positions(points), exclude_band=True,
                                   with_flags=False)
        return downstream(phi)

    value, g = ad.value_and_grad(loss, cage.vertices)
    if not np.all(np.isfinite(g)):
        raise FloatingPointError("non-finite gradient entries")
    return value, g, int(band.sum())


@dataclass
class GradCheckReport:
    """Outcome of analytic-vs-central-difference comparisons."""

    op: str
    n_configs: int
    max_rel_err: float
    passed: bool
    rtol: float
    fd_step: float

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "n_configs": self.n_configs,
            "max_rel_err": self.max_rel_err,
            "pass": self.passed,
            "rtol": self.rtol,
            "fd_step": self.fd_step,
        }


def central_fd(value_fn, x0: np.ndarray, step: float) -> np.ndarray:
    """Central finite differences of a scalar function, per coordinate."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    flat = g.ravel()
    base = x0.ravel()
    for k in range(base.size):
        xp = base.copy()
        xm = base.copy()
        xp[k] += step
        xm[k] -= step
        fp = value_fn(xp.reshape(x0.shape))
        fm = value_fn(xm.reshape(x0.shape))
        flat[k] = (fp - fm) / (2.0 * step)
    return g


def relative_errors(analytic: np.ndarray, fd: np.ndarray) -> np.ndarray:
    denom = np.maximum.reduce(
        [np.abs(analytic), np.abs(fd), np.full_like(fd, 1e-8)]
    )
    return np.abs(analytic - fd) / denom


def check_gradients(op_name: str, configs, fd_step: float,
                    rtol: float) -> GradCheckReport:
    """Run analytic-vs-FD comparisons over configurations.

    Each configuration is a pair (value_fn, grad_and_x0) where grad_and_x0
    supplies (analytic gradient ndarray, evaluation point ndarray); value_fn
    maps a point of the same shape to a float.  A non-finite error in any
    configuration fails the check and is reported as NaN.  Raises
    ``ValueError`` when ``configs`` is empty.
    """
    max_err = 0.0
    n_configs = 0
    for value_fn, (analytic, x0) in configs:
        fd = central_fd(value_fn, x0, fd_step)
        err = float(relative_errors(np.asarray(analytic), fd).max())
        max_err = max(max_err, err) if np.isfinite(err) else np.nan
        n_configs += 1
    if not n_configs:
        raise ValueError(f"gradient check of {op_name!r} received no "
                         "configuration")
    return GradCheckReport(
        op=op_name,
        n_configs=n_configs,
        max_rel_err=max_err,
        passed=max_err <= rtol,
        rtol=rtol,
        fd_step=fd_step,
    )


# -- builtin randomized configurations ---------------------------------------

CAGE_JITTER = 0.15   # random_cage radii lie in [1 - CAGE_JITTER, 1 + CAGE_JITTER]

# (central-difference step, relative-error bound) per op group: the source
# group differentiates through the weights themselves
_GROUP_STEPS = {"source": (1e-6, 1e-3), "deformed": (1e-5, 1e-4)}


def random_cage(rng: np.random.Generator) -> TriMesh:
    """Jittered icosahedron: 12 vertices, always closed and oriented."""
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
    radii = 1.0 + rng.uniform(-CAGE_JITTER, CAGE_JITTER, size=(len(verts), 1))
    return TriMesh(verts * radii, _ICO_FACES.copy())


def random_queries(rng: np.random.Generator, n: int,
                   r_lo: float = 0.2, r_hi: float = 0.6) -> np.ndarray:
    """Random points well inside a unit-radius cage."""
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return d * rng.uniform(r_lo, r_hi, size=(n, 1))


def _config(fn, x0: np.ndarray, analytic: np.ndarray | None = None):
    """(value_fn, (analytic, x0)) of ``fn``, a scalar function generic over
    arrays and Vars; the analytic gradient is its tape gradient unless
    given."""
    if analytic is None:
        _, analytic = ad.value_and_grad(fn, x0)
    return (lambda x: float(ad.val(fn(x)))), (analytic, x0)


def _source(downstream, n_points=8, r_lo: float = 0.2, r_hi: float = 0.6):
    """(group, config builder) of d f(phi) / d source cage, where
    ``f = downstream(rng)`` draws before the cage and the queries.  The
    analytic gradient is ``grad_source_cage``'s, so that is what is checked."""

    def config(rng):
        f = downstream(rng)
        while True:
            cage = random_cage(rng)
            pts = random_queries(rng, n_points, r_lo=r_lo, r_hi=r_hi)
            _, g, excluded_rows = grad_source_cage(cage, pts, f)
            if excluded_rows == 0:
                break
        return _config(
            lambda x: f(mvc_weights(x, cage.faces, pts, with_flags=False)[0]),
            cage.vertices.copy(), analytic=g)

    return "source", config


def _deformed(loss_builder, n_points=10):
    """(group, config builder) of a loss of the deformed points, where
    ``loss_builder(rng, pts)`` draws after the cage and the queries."""

    def config(rng):
        cage = random_cage(rng)
        pts = random_queries(rng, n_points)
        weights = compute_mvc(cage, pts, with_flags=False).weights
        loss = loss_builder(rng, pts)
        v0 = cage.vertices + rng.normal(scale=0.05, size=cage.vertices.shape)
        return _config(lambda v: loss(ad.matmul(weights, v)), v0)

    return "deformed", config


def _cage_laplacian_config(rng):
    cage = random_cage(rng)
    loss = functools.partial(losses.cage_laplacian_loss,
                             losses.CageLaplacian(cage))
    v0 = cage.vertices + rng.normal(scale=0.05, size=cage.vertices.shape)
    return _config(loss, v0)


def _linear_and_negative_squares(rng):
    r = rng.normal(size=(8, 12))
    return lambda phi: ad.sum_(phi * r) + ad.sum_(
        ad.minimum(phi, 0.0) * ad.minimum(phi, 0.0))


def _consistency_to_random_rows(rng):
    rows = rng.uniform(0, 0.2, size=(8, 12))
    return lambda phi: losses.mvc_consistency(rows, phi)


def _weighted_squares(rng, pts):
    t = rng.normal(size=pts.shape)
    a = rng.uniform(0.5, 2.0, size=(len(pts), 1)).ravel()
    return lambda p: ad.sum_(ad.sum_((p - t) * (p - t), axis=-1) * a)


def _chamfer_to_random_points(rng, pts):
    t = random_queries(rng, len(pts) + 3)
    return lambda p: losses.chamfer(p, t)


def _l2_to_moved_points(rng, pts):
    t = pts + rng.normal(scale=0.1, size=pts.shape)
    return lambda p: losses.l2_corresponded(p, t)


def _plane_term(term, rng, pts):
    """``term`` against the queries' k-NN plane fits."""
    before = attach_pca_frames(PointSet(
        points=pts.copy(), neighborhoods=knn_neighborhoods(pts, k=5)))
    return lambda p: term(before, p)


# op -> (group, config builder), in report order.  A builder draws one
# (value_fn, (analytic, x0)) configuration from the check's generator.
_CHECKS = {
    "deformed": _deformed(_weighted_squares),
    "source": _source(_linear_and_negative_squares),
    "chamfer": _deformed(_chamfer_to_random_points),
    "l2": _deformed(_l2_to_moved_points),
    # exterior queries so negative entries (and a live gradient) exist
    "mvc_penalty": _source(lambda rng: losses.mvc_penalty,
                           r_lo=1.2, r_hi=1.5),
    "p2f": _deformed(functools.partial(_plane_term, losses.p2f_term),
                     n_points=12),
    "normal": _deformed(functools.partial(_plane_term, losses.normal_term),
                        n_points=12),
    "symmetry": _deformed(lambda rng, pts: losses.symmetry_term),
    "consistency": _source(_consistency_to_random_rows),
    "cage_laplacian": ("deformed", _cage_laplacian_config),
}
GRADCHECK_OPS = tuple(_CHECKS)
SOURCE_OPS = tuple(op for op, (group, _) in _CHECKS.items()
                   if group == "source")


def builtin_check(op: str, n_configs: int = 10,
                  seed: int = 0) -> GradCheckReport:
    """Randomized FD check of one named operation or loss."""
    if op not in _CHECKS:
        raise ValueError(f"unknown gradcheck op {op!r}")
    group, config = _CHECKS[op]
    fd_step, rtol = _GROUP_STEPS[group]
    rng = np.random.default_rng(seed)
    configs = [config(rng) for _ in range(n_configs)]
    return check_gradients(op, configs, fd_step=fd_step, rtol=rtol)
