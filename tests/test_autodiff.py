import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import cagewarp.autodiff as ad
from cagewarp.geometry import TriMesh
from cagewarp.mvc import mvc_weights

from conftest import OCTA_FACES, OCTA_VERTS


def fd_grad(fn, x0, h=1e-6):
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    for k in range(x0.size):
        xp, xm = x0.ravel().copy(), x0.ravel().copy()
        xp[k] += h
        xm[k] -= h
        g.ravel()[k] = (fn(xp.reshape(x0.shape)) - fn(xm.reshape(x0.shape))) / (2 * h)
    return g


def check(fn, x0, h=1e-6, rtol=1e-6):
    value, grad = ad.value_and_grad(lambda v: fn(v), x0)
    fd = fd_grad(lambda x: float(ad.val(fn(ad.Var(x)))), x0, h=h)
    denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-6)
    assert (np.abs(grad - fd) / denom).max() < rtol * 100


RNG = np.random.default_rng(0)


@pytest.mark.parametrize("fn", [
    lambda x: ad.sum_(x * x * 3.0 - x / 2.0 + 1.0),
    lambda x: ad.sum_(ad.norm(x * x + 1.0)),
    lambda x: ad.sum_(ad.tanh(x) * x),
    lambda x: ad.sum_(ad.tanh(x) * ad.tanh(x) * ad.tanh(x)),
    lambda x: ad.sum_(ad.absolute(x) * x * x),
    lambda x: ad.sum_(ad.minimum(x, 0.3)),
    lambda x: ad.sum_(ad.norm(x)),
    lambda x: ad.sum_(ad.dot_last(x, x * 2.0)),
    lambda x: ad.mean_(x) / ad.sum_(x * x + 2.0),
    lambda x: ad.sum_((2.0 - x) * (x - 0.5)),
])
def test_elementwise_ops_fd(fn):
    x0 = RNG.normal(size=(5, 3))
    check(fn, x0)


def test_where_gradient_routing():
    x0 = RNG.normal(size=(6,))
    mask = x0 > 0

    def fn(x):
        return ad.sum_(ad.where(mask, x * 2.0, x * -3.0))

    _, g = ad.value_and_grad(fn, x0)
    assert np.array_equal(g, np.where(mask, 2.0, -3.0))


def test_matmul_batched_fd():
    a0 = RNG.normal(size=(4, 5))
    b = RNG.normal(size=(3, 5, 2))

    def fn(a):
        m = ad.matmul(a, b)
        return ad.sum_(m * m)

    check(fn, a0)


def test_getitem_fancy_and_basic():
    x0 = RNG.normal(size=(5, 4))

    def fn(x):
        a = x[1:4, :2]
        b = x[np.array([0, 0, 4]), np.array([1, 1, 3])]
        return ad.sum_(a * a) + ad.sum_(b * 3.0)

    check(fn, x0)


@pytest.mark.parametrize("key", [2, (slice(1, 4), 0), (Ellipsis, 1),
                                 (None, slice(None, 2))],
                         ids=["int", "slice-int", "ellipsis", "newaxis"])
def test_getitem_basic_key_gradient_lands_in_place(key):
    x0 = RNG.normal(size=(5, 4))
    w = RNG.normal(size=x0[key].shape)
    _, g = ad.value_and_grad(lambda x: ad.sum_(x[key] * w), x0)
    want = np.zeros_like(x0)
    want[key] = w
    assert np.array_equal(g, want)


def test_smallest_eigvec_fd():
    x0 = RNG.normal(size=(4, 8, 3))
    t = RNG.normal(size=(4, 3))
    base = None

    def raw(x):
        c = x - x.mean(axis=1, keepdims=True)
        cov = np.matmul(np.swapaxes(c, -1, -2), c)
        return np.linalg.eigh(cov)[1][..., 0]

    base = raw(x0)

    def fn_var(x):
        # centred as pca_frames centres, with eigh's result passed in
        centroid = ad.sum_(x, axis=1) / 8.0
        c = x - ad.reshape(centroid, (4, 1, 3))
        cov = ad.matmul(ad.swapaxes(c, -1, -2), c)
        v = ad.smallest_eigvec(cov, np.linalg.eigh(ad.val(cov)))
        # fix sign against the base primal so FD is smooth
        s = np.sign(np.einsum("ij,ij->i", ad.val(v), base))[:, None]
        return ad.sum_(v * s * t)

    def fn_np(x):
        v = raw(x)
        s = np.sign(np.einsum("ij,ij->i", v, base))[:, None]
        return float(np.sum(v * s * t))

    _, grad = ad.value_and_grad(fn_var, x0)
    fd = fd_grad(fn_np, x0)
    denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-6)
    assert (np.abs(grad - fd) / denom).max() < 1e-4


def test_backward_requires_scalar():
    x = ad.Var(np.ones((2, 2)))
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_backward_deterministic():
    x0 = RNG.normal(size=(10, 3))

    def fn(x):
        a = ad.tanh(x) * x
        b = ad.reshape(ad.norm(x * x + 1.0), (10, 1))
        return ad.sum_(a / b + a * b)

    _, g1 = ad.value_and_grad(fn, x0)
    _, g2 = ad.value_and_grad(fn, x0)
    assert np.array_equal(g1, g2)


def test_forward_mode_agreement():
    # reverse-accumulated gradient contracted with a direction equals the
    # forward directional derivative estimated to first order
    rng = np.random.default_rng(42)
    for _ in range(5):
        x0 = rng.normal(size=(4, 3))
        direction = rng.normal(size=(4, 3))

        def fn(x):
            return ad.sum_(ad.tanh(x)
                           * ad.reshape(ad.norm(x * x + 0.5), (4, 1)))

        _, g = ad.value_and_grad(fn, x0)
        h = 1e-7

        def value(x):
            return float(ad.val(fn(ad.Var(x))))

        dd_fd = (value(x0 + h * direction) - value(x0 - h * direction)) / (2 * h)
        assert abs(np.sum(g * direction) - dd_fd) < 1e-6 * max(1.0, abs(dd_fd))


def test_unbroadcast_shapes():
    a0 = RNG.normal(size=(4, 1, 3))
    b = RNG.normal(size=(2, 3))

    def fn(a):
        return ad.sum_((a + b) * (a * b))

    check(fn, a0)


def test_numpy_does_not_absorb_var():
    x = ad.Var(np.ones((2, 3)))
    y = np.ones((2, 3)) + x
    assert isinstance(y, ad.Var)
    z = np.ones((2, 3)) * x
    assert isinstance(z, ad.Var)
    w = np.ones((2, 3)) - x
    assert isinstance(w, ad.Var)


def test_norm_grad_zero_at_zero_row():
    x0 = RNG.normal(size=(5, 3))
    x0[2] = 0.0
    weights = np.arange(1.0, 6.0)
    _, g = ad.value_and_grad(lambda x: ad.sum_(ad.norm(x) * weights), x0)
    assert np.all(np.isfinite(g))
    assert np.array_equal(g[2], np.zeros(3))
    rows = [0, 1, 3, 4]
    expected = weights[rows, None] * x0[rows] / np.linalg.norm(
        x0[rows], axis=1, keepdims=True)
    assert np.allclose(g[rows], expected, rtol=1e-14, atol=0.0)


def test_norm_grad_zero_column():
    # a zero column of x is a zero row of its transpose
    x0 = RNG.normal(size=(4, 3))
    x0[:, 1] = 0.0
    _, g = ad.value_and_grad(
        lambda x: ad.sum_(ad.norm(ad.swapaxes(x, 0, 1)) * 2.0), x0)
    assert np.all(np.isfinite(g))
    assert np.array_equal(g[:, 1], np.zeros(4))


def test_norm_grad_zero_survives_mask():
    # a masked-out zero norm must contribute 0, not 0 * NaN
    x0 = RNG.normal(size=(4, 3))
    x0[0] = 0.0
    mask = np.array([True, False, False, False])

    def fn(x):
        d = ad.norm(x)
        return ad.sum_(x[:, 0] / ad.where(mask, 1.0, d))

    _, g = ad.value_and_grad(fn, x0)
    assert np.all(np.isfinite(g))


def test_mvc_weights_grad_finite_on_cage_vertex():
    # the path deform_pair takes: no exclusion mask around mvc_weights
    cage = TriMesh(OCTA_VERTS.copy(), OCTA_FACES.copy())
    pts = np.vstack([OCTA_VERTS[0], [0.1, 0.05, -0.2], OCTA_VERTS[3]])
    r = np.random.default_rng(3).normal(size=(3, 6))
    cage_var = ad.Var(cage.vertices)
    phi, _ = mvc_weights(cage_var, cage.faces, pts, with_flags=False)
    ad.sum_(phi * r + phi * phi).backward()
    assert cage_var.grad is not None
    assert np.all(np.isfinite(cage_var.grad))


def test_ordered_sum_matches_loop():
    x0 = np.random.default_rng(11).normal(size=(37, 29)) * 10.0
    acc = 0.0
    for v in x0.ravel():
        acc += v
    assert ad.ordered_sum(x0) == acc
    assert float(ad.ordered_sum(x0.T)) == float(ad.ordered_sum(x0.T.copy()))
    assert ad.ordered_sum(np.zeros((0, 3))) == 0.0

    x = ad.Var(x0)
    y = ad.ordered_sum(x * x)
    acc = 0.0
    for v in x0.ravel():
        acc += v * v
    assert float(y.value) == acc
    y.backward()
    assert np.array_equal(x.grad, 2.0 * x0)


def test_every_public_function_has_a_library_caller():
    # the module holds only what the pipelines run: each public function is
    # called as ad.<name> somewhere else in the package, and each of its
    # defaulted parameters is passed a value other than its default there
    package = Path(ad.__file__).parent
    sources = [p.read_text() for p in sorted(package.glob("*.py"))
               if p.name != "autodiff.py"]
    text = "".join(sources)
    public = {name: obj for name, obj in vars(ad).items()
              if inspect.isfunction(obj) and obj.__module__ == ad.__name__
              and not name.startswith("_")}
    missing = [name for name in public
               if not re.search(rf"\bad\.{re.escape(name)}\b", text)]
    assert public and not missing
    calls = [node for source in sources for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "ad"]
    unused = []
    for name, fn in public.items():
        params = inspect.signature(fn).parameters.values()
        for i, param in enumerate(params):
            if param.default is inspect.Parameter.empty:
                continue
            passed = [c.args[i] for c in calls
                      if c.func.attr == name and len(c.args) > i]
            passed += [k.value for c in calls if c.func.attr == name
                       for k in c.keywords if k.arg == param.name]
            if not any(_literal(v) != param.default for v in passed):
                unused.append(f"{name}({param.name})")
    assert unused == []


def _literal(node):
    """The value of a literal argument such as ``-1``; a non-literal one
    reads as a fresh object, equal to no default."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return object()


def _keeping_backward(root):
    """Every node's gradient by ``backward``'s traversal and sums, with no
    gradient released: {id(node): gradient}."""
    grads = {id(root): np.ones_like(root.value)}
    for node in reversed(root._topo_order()):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, vjp in zip(node._parents, node._vjps):
            contrib = vjp(g)
            key = id(parent)
            grads[key] = contrib if key not in grads else grads[key] + contrib
    return grads


def test_backward_keeps_only_leaf_gradients():
    # a = x + y hands its gradient to x and to y as one object; x then gets
    # more terms from the nodes after it.  The leaves end with the bits of a
    # traversal that keeps every gradient, and no interior node keeps one
    rng = np.random.default_rng(31)
    x0, y0 = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    mask = rng.uniform(size=(5, 3)) < 0.5
    x, y = ad.Var(x0), ad.Var(y0)
    a = x + y
    probe = np.ones((5, 3))
    assert a._vjps[0](probe) is a._vjps[1](probe)
    u = a * a
    loss = (ad.ordered_sum(ad.where(mask, u, ad.tanh(a) * x)) * 1.5
            + ad.sum_(x * y))
    want = _keeping_backward(loss)
    loss.backward()
    nodes = loss._topo_order()
    leaves = [n for n in nodes if not n._parents]
    assert {id(n) for n in leaves} == {id(x), id(y)}
    for leaf in leaves:
        assert np.array_equal(leaf.grad.view(np.uint64),
                              want[id(leaf)].view(np.uint64))
    assert all(n.grad is None for n in nodes if n._parents)
