"""The loss terms as generic autodiff chains: the references the one-node
losses of ``cagewarp.losses`` must match bit for bit.

Each function is a loss as it was written before it became one tape node:
a chain of generic ops, one node per op.  ``norm`` and the taped
``ordered_sum`` are the autodiff ops those chains used; the library has no
other caller of them, so they live here.  A test runs a loss and its chain
behind the same downstream graph and compares the value and every gradient
entry.
"""

import numpy as np

import cagewarp.autodiff as ad


def ordered_sum(x):
    """``ad.ordered_sum`` with a tape node: its gradient is the same
    broadcast as ``sum_``'s."""
    if not ad.is_var(x):
        return ad.ordered_sum(x)

    def vjp(g, shape=x.value.shape):
        return np.broadcast_to(g, shape).copy()

    return ad.Var._make(ad.ordered_sum(x.value), (x,), (vjp,), "ordered_sum")


def norm(x):
    """Euclidean norm along the last axis; its gradient at zero is 0."""
    xv = ad.val(x)
    out = np.sqrt(np.sum(np.square(xv), axis=-1))
    if not ad.is_var(x):
        return out

    def vjp(g, xv=xv, o=out[..., None]):
        # x / |x| has no limit at 0; take 0 there (a subgradient) instead of
        # 0/0 = NaN, which a later mask would turn into 0 * NaN = NaN.
        return g[..., None] * xv / np.where(o == 0.0, 1.0, o)

    return ad.Var._make(out, (x,), (vjp,), "norm")


def l2_corresponded(a, b):
    """Mean squared distance of (..., 3) positions: five nodes."""
    d = a - b
    return ad.mean_(ad.sum_(d * d, axis=-1))


def mvc_consistency(rows_a, rows_b):
    """Loop-order sum of squared row differences: three nodes."""
    d = rows_a - rows_b
    return ordered_sum(d * d)


def cage_laplacian_loss(ref, cage_after_vertices):
    """Loop-order sum of squared |L v| changes: five nodes."""
    mag_after = norm(ad.matmul(ref.lap, cage_after_vertices))
    d = mag_after - ref.mag
    return ordered_sum(d * d)

