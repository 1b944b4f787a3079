import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import cagewarp.autodiff as ad
from cagewarp import losses
from cagewarp.geometry import TriMesh, make_template_cage
from cagewarp.losses import l2_corresponded
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
X_FIXED = np.random.default_rng(1).normal(size=(5, 3))


@pytest.mark.parametrize("fn", [
    lambda x: ad.sum_(x * x * 3.0 - x / 2.0 + 1.0),
    lambda x: l2_corresponded(x * x + 1.0, x),
    lambda x: ad.sum_(ad.tanh(x) * x),
    lambda x: ad.sum_(ad.tanh(x) * ad.tanh(x) * ad.tanh(x)),
    lambda x: ad.sum_(ad.absolute(x) * x * x),
    lambda x: ad.sum_(ad.minimum(x, 0.3)),
    lambda x: l2_corresponded(X_FIXED, ad.tanh(x)),
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


_A = np.random.default_rng(5).normal(size=(6, 3))
_B = np.random.default_rng(6).normal(size=(6, 3))
_MASK = np.random.default_rng(7).uniform(size=(6, 3)) < 0.5
_COV = np.matmul(np.swapaxes(_A.reshape(2, 3, 3), -1, -2), _A.reshape(2, 3, 3))
_CAGE = make_template_cage("sphere42")
_CAGE_LAP = losses.CageLaplacian(_CAGE)
_MOVED = _CAGE.vertices + np.random.default_rng(8).normal(
    scale=0.05, size=_CAGE.vertices.shape)

# every public op and one-node loss: (name, call, array arguments); the call
# takes the array arguments, plain or as Vars
PLAIN_CALLS = [
    ("tanh", ad.tanh, (_A,)),
    ("absolute", ad.absolute, (_A,)),
    ("minimum", lambda x: ad.minimum(x, 0.1), (_A,)),
    ("where", lambda a, b: ad.where(_MASK, a, b), (_A, _B)),
    ("sum_", lambda x: ad.sum_(x, axis=-1), (_A,)),
    ("mean_", ad.mean_, (_A,)),
    ("matmul", ad.matmul, (_A, _B.T)),
    ("dot_last", ad.dot_last, (_A, _B)),
    ("reshape", lambda x: ad.reshape(x, (3, 6)), (_A,)),
    ("swapaxes", lambda x: ad.swapaxes(x, 0, 1), (_A,)),
    ("smallest_eigvec",
     lambda c: ad.smallest_eigvec(c, np.linalg.eigh(_COV)), (_COV,)),
    ("l2_corresponded", losses.l2_corresponded, (_A, _B)),
    ("mvc_penalty", losses.mvc_penalty, (_A,)),
    ("mvc_consistency", losses.mvc_consistency, (_A, _B)),
    ("cage_laplacian_loss",
     lambda v: losses.cage_laplacian_loss(_CAGE_LAP, v), (_MOVED,)),
]


def test_plain_calls_cover_every_public_op():
    # val, is_var and value_and_grad are not ops; ordered_sum takes arrays
    public = {name for name, obj in vars(ad).items()
              if inspect.isfunction(obj) and obj.__module__ == ad.__name__
              and not name.startswith("_")}
    ops = public - {"val", "is_var", "value_and_grad", "ordered_sum"}
    assert ops <= {name for name, _, _ in PLAIN_CALLS}


@pytest.mark.parametrize("name, call, args", PLAIN_CALLS,
                         ids=[c[0] for c in PLAIN_CALLS])
def test_plain_call_records_nothing_and_keeps_the_taped_bits(name, call,
                                                              args):
    plain = call(*args)
    taped = call(*(ad.Var(a) for a in args))
    assert not ad.is_var(plain)
    assert ad.is_var(taped)
    want = taped.value
    got = np.asarray(plain)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_make_without_a_var_parent_returns_the_value():
    value = np.arange(3.0)
    out = ad.Var._make(value, (np.ones(3), 2.0), (None, None), "add")
    assert out is value


def test_backward_requires_scalar():
    x = ad.Var(np.ones((2, 2)))
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_backward_deterministic():
    x0 = RNG.normal(size=(10, 3))

    def fn(x):
        a = ad.tanh(x) * x
        b = ad.reshape(ad.sum_(x * x + 1.0, axis=-1), (10, 1))
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
                           * ad.reshape(ad.sum_(x * x + 0.5, axis=-1), (4, 1)))

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
    loss = (ad.sum_(ad.where(mask, u, ad.tanh(a) * x)) * 1.5
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
