"""Accuracy of ``compute_mvc`` near the cage, against a long-double
evaluation of the same Ju et al. formula (``longdouble_mvc.py``).

Each class is a fixed set of queries on a sphere cage: inside it, at a
fixed distance inside a face, an edge or a vertex, and outside it.  The
error of a row is its largest entry error relative to its largest weight.
Each bound is the largest error measured over both cages at the time the
guard was written, rounded up in its first digit: a change that makes the
weights less accurate near the cage fails here.  The error grows about as
1/distance^2 toward a face or an edge: the kernel's s = sqrt(1 - c^2)
cancels as c -> +-1.
"""

import numpy as np
import pytest

from cagewarp.geometry import make_template_cage
from cagewarp.mvc import FLAG_EXTERIOR_OK, FLAG_INTERIOR, compute_mvc
from longdouble_mvc import mvc_longdouble

N_QUERIES = 20

# class -> (largest relative row error, flag of every row)
BOUNDS = {
    "interior": (4e-14, FLAG_INTERIOR),
    "face_1e-2": (6e-15, FLAG_INTERIOR),
    "face_1e-4": (6e-11, FLAG_INTERIOR),
    "face_1e-6": (6e-7, FLAG_INTERIOR),
    "edge_1e-4": (4e-11, FLAG_INTERIOR),
    "edge_1e-6": (4e-7, FLAG_INTERIOR),
    "vertex_1e-6": (4e-16, FLAG_INTERIOR),
    "exterior": (9e-11, FLAG_EXTERIOR_OK),
}

pytestmark = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63,
    reason="the long-double reference needs a 64-bit mantissa (x86-64 "
           f"extended precision); np.longdouble has "
           f"{np.finfo(np.longdouble).nmant} fraction bits here")


def _directions(rng, n):
    d = rng.normal(size=(n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def queries(cage, name, seed=0):
    """The fixed query set of one class on ``cage`` (a sphere around the
    origin)."""
    rng = np.random.default_rng(seed)
    v, f = cage.vertices, cage.faces
    kind, _, dist = name.partition("_")
    dist = float(dist) if dist else 0.0
    if kind == "interior":
        return _directions(rng, N_QUERIES) * rng.uniform(
            0.0, 0.7, size=(N_QUERIES, 1))
    if kind == "exterior":
        return _directions(rng, N_QUERIES) * rng.uniform(
            1.5, 3.0, size=(N_QUERIES, 1))
    if kind == "face":
        tri = v[f[rng.choice(len(f), N_QUERIES, replace=False)]]
        bary = rng.dirichlet([3.0, 3.0, 3.0], size=N_QUERIES)
        on = np.einsum("qk,qki->qi", bary, tri)
        n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        n *= np.sign(np.einsum("qi,qi->q", n, on))[:, None]   # outward
        return on - dist * n
    if kind == "edge":
        tri = f[rng.choice(len(f), N_QUERIES, replace=False)]
        k = rng.integers(0, 3, size=N_QUERIES)
        a = v[tri[np.arange(N_QUERIES), k]]
        b = v[tri[np.arange(N_QUERIES), (k + 1) % 3]]
        on = a + rng.uniform(0.25, 0.75, size=(N_QUERIES, 1)) * (b - a)
        return on - dist * on / np.linalg.norm(on, axis=1, keepdims=True)
    if kind == "vertex":
        at = v[rng.choice(len(v), N_QUERIES, replace=False)]
        return at - dist * at / np.linalg.norm(at, axis=1, keepdims=True)
    raise ValueError(name)


def row_errors(cage, pts):
    """Each row's largest entry error over its largest reference weight,
    the rows' flags and the reference's largest linear-precision residual
    |sum_j phi_j v_j - p|."""
    m = compute_mvc(cage, pts)
    errors, residual = [], 0.0
    for row, p in zip(m.weights, pts):
        ref = mvc_longdouble(cage.vertices, cage.faces, p)
        errors.append(float(np.max(np.abs(row - ref)) / np.max(np.abs(ref))))
        got = ref @ cage.vertices.astype(np.longdouble)
        residual = max(residual, float(np.abs(got - p).max()))
    return np.array(errors), m.flags, residual


@pytest.mark.parametrize("name", list(BOUNDS))
@pytest.mark.parametrize("kind", ["sphere42", "sphere162"])
def test_error_within_bound(kind, name):
    cage = make_template_cage(kind)
    bound, flag = BOUNDS[name]
    errors, flags, residual = row_errors(cage, queries(cage, name))
    assert np.all(flags == flag)
    assert errors.max() <= bound, (kind, name, errors.max())
    # the reference is ~2^11 times more accurate than the kernel it judges
    assert residual < bound / 500, (kind, name, residual)
