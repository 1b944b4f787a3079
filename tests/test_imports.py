"""What a fresh process imports: scipy only for a k-d tree.

Importing ``scipy.spatial`` (with ``scipy.sparse``, ``scipy.linalg`` and
``scipy.special``) costs a cold process ~0.4 s and ~15 MiB.
The cotangent Laplacian is built in numpy, so ``transfer``,
``compute-mvc``, the ``train_toy`` pipeline, ``fit_cage`` and its command,
and the cage Laplacian gradient check load no scipy at all.  Each check
runs in a new interpreter, since this test process has long loaded scipy.

What each module imports of the package follows its layer (``LAYERS``).
The public names also resolve once, and the public dataclasses compare.
"""

import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import json
import sys

loaded = {}


def note(stage):
    loaded[stage] = sorted({m for m in ("scipy", "scipy.sparse",
                                        "scipy.spatial") if m in sys.modules})


import cagewarp.cli  # noqa: E402
note("import cagewarp.cli")

import numpy as np  # noqa: E402

import cagewarp as cw  # noqa: E402
from cagewarp import cli, geometry, meshio  # noqa: E402

work = sys.argv[1]
shape = cw.make_box_mesh(4)
cage = cw.make_template_cage("sphere42", scale=1.5)
meshio.save_mesh(shape, f"{work}/shape.obj")
meshio.save_mesh(cage, f"{work}/cage.obj")
meshio.save_offsets(np.full(cage.vertices.shape, 0.01), f"{work}/off.csv")
rc = cli.main(["transfer", "--cage", f"{work}/cage.obj", "--offsets",
               f"{work}/off.csv", "--shape", f"{work}/shape.obj",
               "--out", f"{work}/out"])
assert rc == 0, rc
note("transfer")

rc = cli.main(["compute-mvc", "--cage", f"{work}/cage.obj", "--shape",
               f"{work}/shape.obj", "--out", f"{work}/mvc"])
assert rc == 0, rc
note("compute-mvc")

family = cw.SyntheticFamily(kind="ellipsoid")
_, report = cw.train_toy(family, family.default_cage(), epochs=2, seed=0)
assert report.iterations == 2, report.iterations
note("train_toy")

pts = cw.PointSet(points=shape.vertices)
lm = np.stack([np.arange(20), np.arange(20)], axis=1)
cfg = cw.PipelineConfig(max_iters=2, consistency_threshold=0.0)
_, report = cw.fit_cage(cage, pts, pts, lm, cfg)
assert report.iterations == 2, report.iterations
note("fit_cage")

from cagewarp.gradients import builtin_check  # noqa: E402

check = builtin_check("cage_laplacian", n_configs=1)
assert check.passed, check
note("gradcheck cage_laplacian")

meshio.save_points(pts, f"{work}/pts.csv")
meshio.save_landmarks(lm, f"{work}/lm.csv")
with open(f"{work}/fit.json", "w") as fh:
    json.dump({"max_iters": 2, "consistency_threshold": 0.0}, fh)
rc = cli.main(["fit-cage", "--template", f"{work}/cage.obj",
               "--source-shape", f"{work}/pts.csv",
               "--novel-shape", f"{work}/pts.csv",
               "--landmarks", f"{work}/lm.csv",
               "--config", f"{work}/fit.json", "--out", f"{work}/fit"])
assert rc == 0, rc
note("cagewarp fit-cage")

import spans  # noqa: E402
import workloads  # noqa: E402


def traced(name):
    w = workloads.WORKLOADS[name](0, work)
    w.budget = 2
    w.prepare()
    tracer = spans.Tracer()
    tracer.begin_call(0)
    with tracer, tracer.span(w.root_span):
        w.call(w.budget)
    builds = sum(s[spans.NAME] == "geometry.kdtree_build"
                 for s in tracer.spans)
    return {"absent": tracer.absent, "kdtree_builds": builds}


fit_trace = traced("fit_cage")
note("traced fit_cage")

geometry.SpatialIndex(shape.vertices)
note("SpatialIndex")

deform_trace = traced("deform_pair")
print(json.dumps({"loaded": loaded, "fit_cage": fit_trace,
                  "deform_pair": deform_trace}))
"""


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    """The scipy modules loaded after each stage of SCRIPT, and its traces."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "benchmarks")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    run = subprocess.run([sys.executable, "-c", SCRIPT,
                          str(tmp_path_factory.mktemp("imports"))],
                         capture_output=True, text=True, env=env,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.strip().splitlines()[-1])


def test_no_scipy_without_a_tree(stages):
    loaded = stages["loaded"]
    for stage in ("import cagewarp.cli", "transfer", "compute-mvc",
                  "train_toy", "fit_cage", "gradcheck cage_laplacian",
                  "cagewarp fit-cage", "traced fit_cage"):
        assert loaded[stage] == [], stage


def test_scipy_spatial_loads_only_with_the_first_tree(stages):
    got = stages
    spatial = {stage: "scipy.spatial" in mods
               for stage, mods in got["loaded"].items()}
    assert spatial == {
        "import cagewarp.cli": False,
        "transfer": False,
        "compute-mvc": False,
        "train_toy": False,
        "fit_cage": False,
        "gradcheck cage_laplacian": False,
        "cagewarp fit-cage": False,
        "traced fit_cage": False,
        "SpatialIndex": True,
    }
    # every name the benchmark tracer patches is still there to patch
    assert got["fit_cage"] == {"absent": [], "kdtree_builds": 0}
    assert got["deform_pair"]["absent"] == []
    assert got["deform_pair"]["kdtree_builds"] > 0


def test_public_names_resolve_once_in_order():
    import cagewarp

    names = cagewarp.__all__
    assert all(hasattr(cagewarp, n) for n in names)
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_public_dataclasses_compare_without_raising():
    # a generated __eq__ compares array fields inside a tuple, which
    # raises "truth value of an array ... is ambiguous" for two alike, so
    # those that hold arrays compare by identity
    import numpy as np

    import cagewarp as cw

    builders = {
        "AdamState": lambda: cw.AdamState(m={"a": np.zeros(3)},
                                          v={"a": np.ones(3)}),
        "LossBreakdown": lambda: cw.LossBreakdown({"a": 1.0}, {"a": 2.0},
                                                  2.0),
        "MvcMatrix": lambda: cw.MvcMatrix(np.eye(3), np.zeros(3, dtype=int)),
        "OffsetPredictor": lambda: cw.OffsetPredictor.init(3, 4),
        "OptimReport": cw.OptimReport,
        "PipelineConfig": cw.PipelineConfig,
        "PointSet": lambda: cw.PointSet(points=np.eye(3)),
        "SyntheticFamily": cw.SyntheticFamily,
        "Transform": lambda: cw.Transform(2.0, np.ones(3)),
        "TriMesh": lambda: cw.make_box_mesh(2),
    }
    by_identity = {"AdamState", "MvcMatrix", "OffsetPredictor", "PointSet",
                   "Transform", "TriMesh"}
    assert set(builders) == {n for n in cw.__all__
                             if dataclasses.is_dataclass(getattr(cw, n))}
    for name, build in builders.items():
        a, b = build(), build()
        assert a == a, name
        # a family holds a TriMesh, so two alike are not equal
        alike_equal = name not in by_identity | {"SyntheticFamily"}
        assert (a == b) is alike_equal, name
        if name in by_identity:
            assert len({a, b}) == 2, name


PRIVATE_NUMPY = re.compile(r"\b(?:np|numpy)\.(?:_core|core)\b")


def test_no_private_numpy_namespace():
    # numpy>=1.24's public names only: numpy.core became the private
    # numpy._core in numpy 2, so neither may be reached from the package
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted((ROOT / "src" / "cagewarp").glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if PRIVATE_NUMPY.search(line)]
    assert hits == []
    for line in ("from numpy._core import umath", "np._core.umath.clip",
                 "import numpy.core.multiarray", "np.core.numeric"):
        assert PRIVATE_NUMPY.search(line), line


# The package's layers, lowest first: a module imports only from its own
# layer or those below it.
LAYERS = (("runtime", "autodiff"), ("geometry",), ("mvc", "losses", "meshio"),
          ("optim", "gradients"), ("toy",), ("cli",))
LAYER = {module: i for i, layer in enumerate(LAYERS) for module in layer}
PACKAGE = ROOT / "src" / "cagewarp"


def package_imports(source):
    """The package modules that ``from .`` imports in ``source`` name.
    ``from . import __version__`` reads the package's version string and
    names no module."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = ([node.module.split(".")[0]] if node.module
                     else [alias.name for alias in node.names])
            found.update(n for n in names if n != "__version__")
    return found


@pytest.fixture(scope="module")
def imports():
    """module -> the package modules it imports, for every module but
    ``__init__``."""
    return {path.stem: package_imports(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))
            if path.stem != "__init__"}


def test_every_module_has_a_layer(imports):
    assert set(imports) == set(LAYER)
    assert set().union(*imports.values()) <= set(LAYER)


def test_no_module_imports_from_a_layer_above(imports):
    upward = sorted((module, name) for module, names in imports.items()
                    for name in names if LAYER[name] > LAYER[module])
    assert upward == []


@pytest.mark.parametrize("module, forbidden", [
    # losses take weight arrays, not the kernel
    ("losses", "mvc"),
    # the kernel's scatter and scratch live below it, in geometry and
    # runtime
    ("geometry", "mvc"),
])
def test_module_does_not_import(imports, module, forbidden):
    assert forbidden not in imports[module]


def test_kernel_opens_no_file():
    # the weight-matrix files are meshio's
    tree = ast.parse((PACKAGE / "mvc.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    called = {getattr(node.func, "id", None) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    assert not imported & {"os", "struct"}
    assert "open" not in called


def bare_pointsets(source):
    """Lines of the ``PointSet(`` calls in ``source`` that pass no
    ``neighborhoods=``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "PointSet"
            and "neighborhoods" not in {k.arg for k in node.keywords}]


def test_every_pointset_carries_neighborhoods():
    # positions travel as (N, 3) arrays; a PointSet is a point set with
    # neighborhoods, and then plane fits, for the shape losses
    bare = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
            for line in bare_pointsets(path.read_text())]
    assert bare == []
    assert bare_pointsets("PointSet(points=p)\n"
                          "g.PointSet(points=p, neighborhoods=n)\n"
                          "g.PointSet(p)\n") == [1, 3]


def var_tests(source):
    """Qualified names of the functions in ``source`` that test whether
    something is a Var: with ``isinstance(..., Var)`` or ``is_var(...)``."""
    found = set()

    def called(node):
        return getattr(node.func, "id", getattr(node.func, "attr", None))

    def tests_var(node):
        if called(node) == "is_var":
            return True
        return called(node) == "isinstance" and len(node.args) == 2 and any(
            getattr(n, "id", getattr(n, "attr", None)) == "Var"
            for n in ast.walk(node.args[1]))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and tests_var(child):
                found.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_only_make_val_and_is_var_test_for_a_var():
    # each op and one-node loss has one body; whether its result is
    # recorded is decided in Var._make alone
    allowed = {"Var._make", "val", "is_var"}
    found = {module: var_tests((PACKAGE / f"{module}.py").read_text())
             for module in ("autodiff", "losses")}
    assert found == {"autodiff": allowed, "losses": set()}
    assert var_tests("def f(x):\n    return ad.is_var(x)\n"
                     "class A:\n    def g(self, y):\n"
                     "        h = lambda: isinstance(y, (int, ad.Var))\n"
                     "        return isinstance(y, int)\n") == {"f", "A.g"}


def test_package_imports_reads_every_form():
    source = """
from . import autodiff as ad
from . import __version__, meshio
from .geometry import TriMesh
from .mvc.sub import x
import numpy


def f():
    from .optim import run_adam
"""
    assert package_imports(source) == {"autodiff", "meshio", "geometry",
                                       "mvc", "optim"}
