"""Reverse-mode automatic differentiation over numpy arrays.

A ``Var`` wraps an ndarray and records, for every derived value, its parent
variables plus one vector-Jacobian closure per parent (no forward closures:
a recorded graph is differentiated, never re-evaluated).  ``backward()``
walks the recorded graph once in reverse topological order with a fixed
traversal, so gradient accumulation is deterministic regardless of how the
graph was built.  It drops an interior node's gradient as soon as its VJPs
have handed it on, so after the pass only leaves (nodes without parents)
hold a ``.grad``; the tape's dead gradients are freed while it runs.

The module holds only the ops the pipelines and losses use (arithmetic,
indexing, ``sum_``, ``mean_``, ``matmul``, ``dot_last``, ``where``,
``minimum``, ``absolute``, ``tanh``, shape ops and ``smallest_eigvec``),
each with only the arguments they pass: ``sum_`` takes an axis, ``mean_``
reduces everything.  ``ordered_sum`` is the one function that takes only
arrays: a loop-order total for losses that record themselves.  The mean
value coordinate kernel is a single node with a hand-written VJP
(``mvc.py``), and so are the penalty, corresponded L2, consistency and
cage-Laplacian losses (``losses.py``).

All data-dependent decisions (branch masks, nearest-neighbor picks, sign
choices) are made on primal values; the recorded partials are those of the
branch actually taken.  Every public function in this module also accepts
plain ndarrays, in which case it evaluates with numpy and records nothing —
numeric kernels can therefore be written once and run in either mode.  Each
op has one body: it computes its value from ``val(...)`` of its inputs and
hands it to ``Var._make``, which returns the plain value when no input is a
``Var`` and a tape node otherwise.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


class Var:
    """Array node on the differentiation tape."""

    # Make numpy defer to our __r*__ operators instead of broadcasting
    # elementwise over the Var object.
    __array_ufunc__ = None
    __slots__ = ("value", "grad", "_parents", "_vjps", "op", "__weakref__")

    def __init__(self, value, parents=(), vjps=(), op="leaf"):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjps = vjps
        self.op = op

    def __repr__(self):
        return f"Var(op={self.op}, shape={self.value.shape})"

    # -- graph construction helpers -------------------------------------

    @staticmethod
    def _make(value, parents, vjps, op):
        """``value`` as a node over its Var parents, or ``value`` itself
        when no parent is a Var: the one place that decides whether a
        result is recorded.  Constants are dropped from the graph."""
        keep = [(p, v) for p, v in zip(parents, vjps) if isinstance(p, Var)]
        if not keep:
            return value
        return Var(
            value,
            parents=tuple(p for p, _ in keep),
            vjps=tuple(v for _, v in keep),
            op=op,
        )

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        ov = val(other)
        out = self.value + ov
        return Var._make(
            out,
            (self, other),
            (
                lambda g, s=self.value.shape: _unbroadcast(g, s),
                lambda g, s=np.shape(ov): _unbroadcast(g, s),
            ),
            "add",
        )

    __radd__ = __add__

    def __sub__(self, other):
        ov = val(other)
        return Var._make(
            self.value - ov,
            (self, other),
            (
                lambda g, s=self.value.shape: _unbroadcast(g, s),
                lambda g, s=np.shape(ov): _unbroadcast(-g, s),
            ),
            "sub",
        )

    def __rsub__(self, other):
        ov = val(other)
        return Var._make(
            ov - self.value,
            (self,),
            (lambda g, s=self.value.shape: _unbroadcast(-g, s),),
            "rsub",
        )

    def __mul__(self, other):
        ov = val(other)
        return Var._make(
            self.value * ov,
            (self, other),
            (
                lambda g, o=ov, s=self.value.shape: _unbroadcast(g * o, s),
                lambda g, o=self.value, s=np.shape(ov): _unbroadcast(g * o, s),
            ),
            "mul",
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        ov = val(other)
        out = self.value / ov
        return Var._make(
            out,
            (self, other),
            (
                lambda g, o=ov, s=self.value.shape: _unbroadcast(g / o, s),
                lambda g, a=self.value, o=ov, s=np.shape(ov): _unbroadcast(
                    -g * a / (o * o), s
                ),
            ),
            "div",
        )

    def __getitem__(self, key):
        out = self.value[key]

        def vjp(g, k=key, shape=self.value.shape):
            acc = np.zeros(shape, dtype=np.float64)
            np.add.at(acc, k, g)
            return acc

        return Var._make(out, (self,), (vjp,), "getitem")

    # -- backward pass -----------------------------------------------------

    def backward(self):
        """Accumulate gradients of this scalar into every reachable leaf.

        An interior node's ``.grad`` is set to None once its VJPs have
        handed it to its parents, so only leaves keep theirs.
        """
        if self.value.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo = self._topo_order()
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            g = node.grad
            if g is None or not node._parents:
                continue
            node.grad = None        # handed on below; only leaves keep one
            for parent, vjp in zip(node._parents, node._vjps):
                if parent.grad is None:
                    parent.grad = vjp(g)
                else:
                    parent.grad = parent.grad + vjp(g)

    def _topo_order(self):
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        return order


# -- generic helpers ------------------------------------------------------


def val(x):
    """Primal ndarray of ``x`` (identity for non-Var input)."""
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def value_and_grad(fn, x0: np.ndarray):
    """Evaluate a scalar-producing fn at x0 and return (value, gradient)."""
    x = Var(np.asarray(x0, dtype=np.float64))
    out = fn(x)
    out.backward()
    g = x.grad if x.grad is not None else np.zeros_like(x.value)
    return float(val(out)), g


def is_var(x) -> bool:
    return isinstance(x, Var)


# -- elementwise functions (Var or ndarray in, same kind out) -------------


def tanh(x):
    out = np.tanh(val(x))
    return Var._make(
        out,
        (x,),
        (lambda g, o=out: g * (1.0 - o * o),),
        "tanh",
    )


def absolute(x):
    xv = val(x)
    return Var._make(
        np.abs(xv),
        (x,),
        (lambda g, xv=xv: g * np.sign(xv),),
        "abs",
    )


def minimum(x, c):
    """Elementwise min against a constant; gradient flows where x < c."""
    xv = val(x)
    return Var._make(
        np.minimum(xv, c),
        (x,),
        (lambda g, xv=xv: np.where(xv < c, g, 0.0),),
        "minimum",
    )


def where(cond, a, b):
    """Select by a primal boolean mask; gradients flow to the taken side."""
    cond = np.asarray(cond, dtype=bool)
    av, bv = val(a), val(b)
    out = np.where(cond, av, bv)
    return Var._make(
        out,
        (a, b),
        (
            lambda g, c=cond, s=np.shape(av): _unbroadcast(
                np.where(c, g, 0.0), s
            ),
            lambda g, c=cond, s=np.shape(bv): _unbroadcast(
                np.where(c, 0.0, g), s
            ),
        ),
        "where",
    )


def sum_(x, axis=None):
    xv = val(x)
    out = np.sum(xv, axis=axis)

    def vjp(g, shape=xv.shape, ax=axis):
        if ax is not None:
            g = np.expand_dims(g, ax)
        return np.broadcast_to(g, shape).copy()

    return Var._make(
        out,
        (x,),
        (vjp,),
        "sum",
    )


def ordered_sum(x):
    """Sum of all entries of an array, added one at a time in row-major
    order.

    ``sum_`` uses numpy's pairwise summation, whose result depends on the
    block structure of the reduction.  This reduction instead equals the
    plain loop ``acc = 0.0; for v in x.ravel(): acc += v`` bit for bit, so a
    loss defined by that loop reproduces it exactly.  It records nothing:
    the losses that use it are tape nodes with their own VJPs.
    """
    a = np.ravel(np.asarray(x, dtype=np.float64))
    return np.cumsum(a)[-1] if a.size else np.float64(0.0)


def mean_(x):
    """Mean of all entries."""
    return sum_(x) / float(val(x).size)


def matmul(a, b):
    av, bv = val(a), val(b)
    out = np.matmul(av, bv)

    def vjp_a(g, bvv=bv, s=np.shape(av)):
        return _unbroadcast(np.matmul(g, np.swapaxes(bvv, -1, -2)), s)

    def vjp_b(g, avv=av, s=np.shape(bv)):
        return _unbroadcast(np.matmul(np.swapaxes(avv, -1, -2), g), s)

    return Var._make(out, (a, b), (vjp_a, vjp_b), "matmul")


def dot_last(a, b):
    """Inner product along the last axis (fused)."""
    av, bv = val(a), val(b)
    out = np.einsum("...i,...i->...", av, bv)
    return Var._make(
        out,
        (a, b),
        (
            lambda g, o=bv, s=np.shape(av): _unbroadcast(g[..., None] * o, s),
            lambda g, o=av, s=np.shape(bv): _unbroadcast(g[..., None] * o, s),
        ),
        "dot_last",
    )


def reshape(x, shape):
    xv = val(x)
    return Var._make(
        np.reshape(xv, shape),
        (x,),
        (lambda g, s=xv.shape: np.reshape(g, s),),
        "reshape",
    )


def swapaxes(x, a, b):
    return Var._make(
        np.swapaxes(val(x), a, b),
        (x,),
        (lambda g, aa=a, bb=b: np.swapaxes(g, aa, bb),),
        "swapaxes",
    )


def smallest_eigvec(c, eig):
    """Unit eigenvector of the smallest eigenvalue of symmetric (...,3,3).

    ``eig`` is the ``(lam, vec)`` that ``numpy.linalg.eigh`` returned for
    ``val(c)``; the caller has it, since it also reads the eigenvalues.  The
    sign of the returned vector is whatever ``numpy.linalg.eigh`` produces;
    callers fix signs with a primal rule.  The backward pass uses the
    standard eigenvector perturbation series and requires the smallest
    eigenvalue to be simple; gaps are floored at 1e-12 to avoid blow-up at
    (excluded) degenerate inputs.
    """
    lam, vec = eig
    v0 = vec[..., 0]

    def vjp(g, lam=lam, vec=vec, cv=val(c)):
        out = np.zeros_like(cv)
        v0 = vec[..., 0]
        for k in (1, 2):
            gap = lam[..., 0] - lam[..., k]
            gap = np.where(np.abs(gap) < 1e-12, -1e-12, gap)
            coef = np.einsum("...i,...i->...", g, vec[..., k]) / gap
            outer = np.einsum("...a,...b->...ab", vec[..., k], v0)
            out += coef[..., None, None] * outer
        return 0.5 * (out + np.swapaxes(out, -1, -2))

    return Var._make(
        v0,
        (c,),
        (vjp,),
        "smallest_eigvec",
    )
