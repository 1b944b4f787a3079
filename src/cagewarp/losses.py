"""Scalar objectives and evaluation metrics.

Every loss is written against the generic autodiff dispatch, so the same
function returns a float on ndarray input and a differentiable Var when any
differentiable argument is a Var.  Nearest-neighbor assignments, sign
flips and other combinatorial choices are made on primal values.

Conventions pinned here:

* chamfer reduces with the mean of squared distances, summed over both
  directions (resolution-independent weighting);
* post-deformation plane fits reuse the source neighborhoods with the
  deformed positions;
* the normal loss flips the deformed normal when it opposes the source
  normal, so it measures unsigned plane rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .geometry import (
    PointSet,
    SpatialIndex,
    TriMesh,
    as_positions,
    cot_laplacian,
    normalize_to_unit_box,
    pca_frames,
    sample_surface,
)

_REFLECT_X = np.array([-1.0, 1.0, 1.0])


@dataclass
class LossBreakdown:
    """Named raw term values, their weights, and the weighted total."""

    terms: dict
    weights: dict
    total: float


# -- alignment ---------------------------------------------------------------


def chamfer(a, b, index_a=None, index_b=None):
    """Symmetric mean squared nearest-neighbor distance.

    ``index_a`` / ``index_b`` are optional ``SpatialIndex`` trees already
    built over the positions of ``a`` / ``b``; the others are built here.
    """
    pa, pb = as_positions(a), as_positions(b)
    av, bv = ad.val(pa), ad.val(pb)
    if len(av) == 0 or len(bv) == 0:
        raise ValueError("chamfer distance of an empty point set")
    if index_b is None:
        index_b = SpatialIndex(bv)
    if index_a is None:
        index_a = SpatialIndex(av)
    idx_ab = index_b.query(av)[1]
    idx_ba = index_a.query(bv)[1]
    d_ab = pa - pb[idx_ab]
    d_ba = pb - pa[idx_ba]
    return (ad.mean_(ad.sum_(d_ab * d_ab, axis=-1))
            + ad.mean_(ad.sum_(d_ba * d_ba, axis=-1)))


def _batch_positions(x):
    """``as_positions``, except that an array of more than two axes keeps
    its (..., 3) shape: a batch of point sets."""
    if isinstance(x, np.ndarray) and x.ndim > 2:
        return x.astype(np.float64, copy=False)
    return as_positions(x)


def _squares_vjp(d, divisor, negate):
    """The gradient the generic chain ``sum(d * d) / divisor`` (no division
    for None) hands the minuend of d, or with ``negate`` its subtrahend,
    with the chain's bits: the product's two halves, (g / divisor) * d, are
    added."""

    def vjp(g):
        h = np.multiply(g if divisor is None else g / divisor, d)
        h += h
        return np.negative(h, out=h) if negate else h

    return vjp


def l2_corresponded(a, b):
    """Mean squared distance between index-corresponding points.

    ``a`` and ``b`` are positions of one shape (..., 3), a batch of point
    sets too.  With either on the tape it is one tape node with the bits of
    the generic chain ``mean_(sum_(d * d, axis=-1))`` of d = a - b.
    """
    pa, pb = _batch_positions(a), _batch_positions(b)
    av, bv = ad.val(pa), ad.val(pb)
    if av.shape != bv.shape:
        raise ValueError("corresponded point sets must have equal size")
    d = av - bv
    per_point = np.sum(d * d, axis=-1)
    count = float(per_point.size)
    value = np.sum(per_point) / count
    return ad.Var._make(value, (pa, pb), (_squares_vjp(d, count, False),
                                          _squares_vjp(d, count, True)),
                        "l2_corresponded")


# -- cage weight regularization ----------------------------------------------


def mvc_penalty(weights):
    """Mean squared magnitude of negative coordinate entries.

    The squares are summed one at a time in row-major order (see
    ``ad.ordered_sum``), so the value equals the double loop over rows and
    columns bit for bit instead of depending on numpy's pairwise blocking.
    With a Var it is one tape node whose VJP rebuilds min(phi, 0) from phi
    and keeps no array of its own.  It gives the bits of the generic chain
    ``ordered_sum(neg * neg) / count``: the product's two halves, g / count
    * neg, are added, and the lanes where phi < 0 fails pass +0.0.
    """
    wv = ad.val(weights)
    count = float(wv.shape[0] * wv.shape[1])
    neg = np.minimum(wv, 0.0)
    value = ad.ordered_sum(neg * neg) / count

    def vjp(g, phi=wv):
        t = np.minimum(phi, 0.0)
        np.multiply(g / count, t, out=t)
        t += t
        np.copyto(t, 0.0, where=~(phi < 0.0))
        return t

    return ad.Var._make(value, (weights,), (vjp,), "mvc_penalty")


# -- shape preservation --------------------------------------------------------


def _require_frames(ps: PointSet, who: str) -> None:
    if not isinstance(ps, PointSet) or ps.neighborhoods is None:
        raise ValueError(f"{who} must be a PointSet with neighborhoods")


def p2f_term(before: PointSet, after_positions):
    """Mean squared change of the point-to-plane distances (generic)."""
    _require_frames(before, "before")
    _, _, off_after, _ = pca_frames(after_positions, before.neighborhoods)
    d = before.pca_offsets - off_after
    return ad.mean_(d * d)


def normal_term(before: PointSet, after_positions):
    """Mean (1 - n . n') over paired plane normals (generic)."""
    _require_frames(before, "before")
    n_after, _, _, _ = pca_frames(after_positions, before.neighborhoods)
    flip = np.sign(
        np.einsum("ij,ij->i", before.pca_normals, ad.val(n_after))
    )
    flip[flip == 0.0] = 1.0
    return ad.mean_(1.0 - ad.dot_last(before.pca_normals, n_after * flip[:, None]))


def symmetry_term(points, index=None):
    """Chamfer distance to the reflection across x = 0 (generic).

    ``index`` is an optional ``SpatialIndex`` already built over the points.
    """
    p = as_positions(points)
    return chamfer(p, p * _REFLECT_X, index_a=index)


def shape_terms(before: PointSet, after_positions, cage_after_positions,
                mode: str, after_index=None) -> dict:
    """Raw shape-preservation terms for the given mode (generic values).

    ``after_index`` is an optional ``SpatialIndex`` over ``after_positions``.
    """
    _check_shape_mode(mode)
    terms = {"p2f": p2f_term(before, after_positions)}
    if mode == "man_made":
        terms["normal"] = normal_term(before, after_positions)
        terms["symmetry_shape"] = symmetry_term(after_positions, after_index)
        terms["symmetry_cage"] = symmetry_term(cage_after_positions)
    return terms


def _check_shape_mode(mode: str) -> None:
    if mode not in ("man_made", "character"):
        raise ValueError(f"unknown shape_mode {mode!r}")


# -- combined objective ---------------------------------------------------------


def term_weights(alpha_mvc: float, alpha_shape: float,
                 shape_mode: str) -> dict:
    """Each raw term's weight; the one check of the loss settings (a
    negative, NaN or infinite weight, or an unknown shape mode, fails)."""
    got = f"got alpha_mvc={alpha_mvc}, alpha_shape={alpha_shape}"
    if not (alpha_mvc >= 0 and alpha_shape >= 0):
        raise ValueError(f"loss weights must be non-negative, {got}")
    if max(alpha_mvc, alpha_shape) == np.inf:
        raise ValueError(f"loss weights must be finite, {got}")
    _check_shape_mode(shape_mode)
    w = {
        "mvc": alpha_mvc,
        "align": 1.0,
        "p2f": alpha_shape,
    }
    if shape_mode == "man_made":
        w["normal"] = alpha_shape
        w["symmetry_shape"] = alpha_shape
        w["symmetry_cage"] = alpha_shape
    return w


def total_terms(source: PointSet, deformed_positions, target, phi,
                cage_deformed_positions, shape_mode: str,
                align_mode: str, target_index=None) -> dict:
    """All raw loss terms of the combined objective (generic values).

    ``target_index`` is an optional ``SpatialIndex`` over the target points,
    built once by a caller that evaluates the objective many times.
    """
    deformed_index = None
    if align_mode == "chamfer":
        if shape_mode == "man_made":
            # the alignment and the shape symmetry query the same tree
            deformed_index = SpatialIndex(
                ad.val(as_positions(deformed_positions)))
        align = chamfer(deformed_positions, target, index_a=deformed_index,
                        index_b=target_index)
    elif align_mode == "l2":
        align = l2_corresponded(deformed_positions, target)
    else:
        raise ValueError(f"unknown align_mode {align_mode!r}")
    terms = {"mvc": mvc_penalty(phi), "align": align}
    terms.update(
        shape_terms(source, deformed_positions, cage_deformed_positions,
                    shape_mode, deformed_index)
    )
    return terms


def weighted_total(terms: dict, weights: dict):
    """Weighted sum of raw terms (generic; Var if any term is a Var)."""
    total = None
    for name, value in terms.items():
        contrib = value * weights[name]
        total = contrib if total is None else total + contrib
    return total


# -- cage fitting -----------------------------------------------------------------


def mvc_consistency(rows_a, rows_b):
    """Sum of squared differences between corresponding weight rows.

    Summed in row-major order, one entry at a time, so the value equals the
    double loop over rows and columns bit for bit (numpy's pairwise sum
    differs from it by a few ulp).  With either block on the tape it is one
    tape node with the bits of the generic chain ``ordered_sum(d * d)`` of
    d = rows_a - rows_b.
    """
    av, bv = ad.val(rows_a), ad.val(rows_b)
    if av.shape != bv.shape:
        raise ValueError("weight row blocks must have equal shape")
    d = av - bv
    value = ad.ordered_sum(d * d)
    return ad.Var._make(value, (rows_a, rows_b), (_squares_vjp(d, None, False),
                                                  _squares_vjp(d, None, True)),
                        "mvc_consistency")


class CageLaplacian:
    """Dense cotangent Laplacian L of an undeformed cage and |L v0| per vertex.

    Built once per cage and passed to ``cage_laplacian_loss``, so a loop over
    one template does not rebuild L every step.
    """

    def __init__(self, cage: TriMesh):
        self.lap = cot_laplacian(cage).toarray()
        self.mag = np.linalg.norm(self.lap @ cage.vertices, axis=1)
        self.shape = cage.vertices.shape


def cage_laplacian_loss(ref: CageLaplacian, cage_after_vertices):
    """Sum of squared changes of per-vertex Laplacian magnitudes.

    ``ref`` is the ``CageLaplacian`` of the undeformed cage; its cotangent
    weights serve both evaluations.  The per-vertex squares are summed in
    vertex order, one at a time, so the value equals the loop over vertices
    bit for bit.  With the vertices on the tape it is one tape node with the
    bits of the generic chain ``ordered_sum(d * d)`` of d = |L v| - |L v0|;
    a vertex whose |L v| is 0 passes a gradient of 0 (a subgradient of the
    norm) instead of 0/0.
    """
    after = cage_after_vertices
    xv = ad.val(after)
    if xv.shape != ref.shape:
        raise ValueError("cage connectivity mismatch")
    lv = np.matmul(ref.lap, xv)
    mag = np.sqrt(np.sum(np.square(lv), axis=-1))
    d = mag - ref.mag
    value = ad.ordered_sum(d * d)
    halves = _squares_vjp(d, None, False)

    def vjp(g):
        g_lv = halves(g)[:, None] * lv / np.where(mag == 0.0, 1.0, mag)[:, None]
        return np.matmul(np.swapaxes(ref.lap, -1, -2), g_lv)

    return ad.Var._make(value, (after,), (vjp,), "cage_laplacian_loss")


# -- evaluation metrics --------------------------------------------------------------


def unit_box_samples(mesh: TriMesh, n_samples: int, seed: int) -> np.ndarray:
    """``n_samples`` area-uniform samples (``seed``) of the mesh normalized
    to the unit box on its own: the points ``sampled_chamfer_x100``
    compares."""
    mesh_n, _ = normalize_to_unit_box(mesh)
    return sample_surface(mesh_n, n_samples, seed)


def sampled_chamfer_x100(a: TriMesh, b: TriMesh, n_samples: int = 5000,
                         seed: int = 0) -> float:
    """100 x the chamfer distance between the ``unit_box_samples`` of each
    mesh."""
    cd = float(chamfer(unit_box_samples(a, n_samples, seed),
                       unit_box_samples(b, n_samples, seed)))
    return cd * 100.0


def eval_metrics(deformed: TriMesh, target: TriMesh, source: TriMesh,
                 n_samples: int = 5000, seed: int = 0) -> dict:
    """Alignment (chamfer x100) and detail distortion (Laplacian delta x1000).

    Both metrics are evaluated on unit-box-normalized geometry: the chamfer
    distance of ``sampled_chamfer_x100`` between the deformed and target
    meshes, and the mean per-vertex change of the source-connectivity
    cotangent Laplacian applied to the source vs. the deformed vertices,
    with the deformed mesh expressed in the source's normalized frame.
    """
    if deformed.faces.shape != source.faces.shape or not np.array_equal(
        deformed.faces, source.faces
    ):
        raise ValueError("deformed and source must share connectivity")
    cd_x100 = sampled_chamfer_x100(deformed, target, n_samples, seed)
    source_n, t_src = normalize_to_unit_box(source)
    deformed_in_src = t_src.apply(deformed.vertices)
    lap = cot_laplacian(source_n).tocsr()
    delta = np.linalg.norm(
        lap @ source_n.vertices - lap @ deformed_in_src, axis=1
    ).mean()
    return {
        "cd_x100": cd_x100,
        "dcotlap_x1000": float(delta) * 1000.0,
        "n_samples": int(n_samples),
        "seed": int(seed),
    }
