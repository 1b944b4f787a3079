"""Seeded inputs, calls and output checks of the four benchmark workloads.

Each workload is one closed-loop caller of a public cagewarp entry point:
``prepare`` builds its inputs from the input index, ``call`` makes one call
with a fixed step budget (this is what the benchmark times) and ``outcome``
turns the call's result into the values the checks compare.

The seed picks one of ``POOL`` input sets (``seed % POOL``).  Every input
set has reference values in ``reference.json``, so every call, whatever the
seed, is checked against stored numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cagewarp as cw
from cagewarp import cli, meshio

POOL = 32

# Checked values may drift by this share, so a kernel that reorders
# floating-point work (weights within ~1e-12) still passes; a wrong result
# does not.  Output coordinates are compared on the unit-box scale.
RTOL = 1e-6

_TAGS = {"deform_pair": 1, "fit_cage": 2, "train_toy": 3, "transfer_cli": 4}


@dataclass
class Outcome:
    """What one call produced, reduced to the values the checks use."""

    steps: int
    totals: np.ndarray
    values: dict
    fingerprint: list
    digest: str


def fingerprint(vertices) -> list:
    """Column sums, sum of squares and five spread rows of an (N, 3) array."""
    v = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    n = len(v)
    rows = [0, n // 4, n // 2, (3 * n) // 4, n - 1]
    return ([float(x) for x in v.sum(axis=0)] + [float((v * v).sum())]
            + [float(x) for x in v[rows].ravel()])


def digest(*arrays) -> str:
    """Hash of the exact bytes of the given arrays and strings."""
    h = hashlib.sha256()
    for a in arrays:
        if isinstance(a, (str, bytes)):
            h.update(a.encode() if isinstance(a, str) else a)
        else:
            a = np.ascontiguousarray(a)
            h.update(str((a.dtype.str, a.shape)).encode())
            h.update(a.tobytes())
    return h.hexdigest()


def _rng(name: str, index: int) -> np.random.Generator:
    return np.random.default_rng([_TAGS[name], index])


def _inradius(cage: cw.TriMesh) -> float:
    """Distance from the origin to the nearest face plane of a cage."""
    v = cage.vertices[cage.faces]
    n = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    return float(np.abs(np.einsum("fi,fi->f", n, v[:, 0])).min())


def _enclosing_cage(kind: str, half_extent: float) -> cw.TriMesh:
    """Template cage around the origin that contains a box of that half extent."""
    r = 1.05 * math.sqrt(3.0) * half_extent / _inradius(cw.make_template_cage(kind))
    return cw.make_template_cage(kind, scale=(r, r, r))


def _trace_totals(report) -> np.ndarray:
    return np.array([b.total for b in report.trace], dtype=np.float64)


class DeformPair:
    """``deform_pair`` on box(12) against a seeded scale-and-bend of it."""

    name = "deform_pair"
    root_span = "optim.loop"
    budget = 2
    rtol = RTOL

    def __init__(self, index: int, workdir: Path):
        self.index = index

    def prepare(self) -> None:
        rng = _rng(self.name, self.index)
        source, _ = cw.normalize_to_unit_box(cw.make_box_mesh(12))
        v = source.vertices * rng.uniform(0.7, 1.3, size=3)
        v[:, 2] += rng.uniform(-0.4, 0.4) * v[:, 0] ** 2
        self.source = source
        self.target, _ = cw.normalize_to_unit_box(
            cw.TriMesh(v, source.faces.copy()))

    def call(self, budget: int):
        cfg = cw.PipelineConfig(
            cage_template="sphere162", shape_mode="man_made",
            max_iters=budget, plateau_window=budget, seed=self.index,
        )
        return cw.deform_pair(self.source, self.target, cfg)

    def outcome(self, result) -> Outcome:
        _, deformed_cage, deformed, report = result
        totals = _trace_totals(report)
        m = report.final_metrics
        return Outcome(
            steps=report.iterations, totals=totals,
            values={"final_total": m["final_total"], "cd_x100": m["cd_x100"],
                    "dcotlap_x1000": m["dcotlap_x1000"]},
            fingerprint=fingerprint(deformed.vertices),
            digest=digest(totals, deformed.vertices, deformed_cage.vertices,
                          json.dumps(m, sort_keys=True)),
        )


class FitCage:
    """``fit_cage`` of a sphere42 template from box(12) to a warped copy."""

    name = "fit_cage"
    root_span = "optim.loop"
    budget = 100
    rtol = RTOL
    n_landmarks = 48

    def __init__(self, index: int, workdir: Path):
        self.index = index

    def prepare(self) -> None:
        rng = _rng(self.name, self.index)
        box = cw.make_box_mesh(12)
        v = box.vertices
        novel = (v * rng.uniform(0.85, 1.15, size=3)
                 + 0.05 * np.sin(np.pi * v[:, [1, 2, 0]]))
        idx = rng.choice(len(v), size=self.n_landmarks, replace=False)
        self.template = _enclosing_cage("sphere42", 1.0)
        self.source = cw.PointSet(points=v.copy())
        self.novel = cw.PointSet(points=novel)
        self.landmarks = np.stack([idx, idx], axis=1)

    def call(self, budget: int):
        # threshold 0: the early stop never fires, every call runs its budget
        cfg = cw.PipelineConfig(max_iters=budget, consistency_threshold=0.0,
                                seed=self.index)
        return cw.fit_cage(self.template, self.source, self.novel,
                           self.landmarks, cfg)

    def outcome(self, result) -> Outcome:
        fitted, report = result
        totals = _trace_totals(report)
        return Outcome(
            steps=report.iterations, totals=totals,
            values={"final_total": float(totals[-1]),
                    "consistency": report.final_metrics["consistency"]},
            fingerprint=fingerprint(fitted.vertices),
            digest=digest(totals, fitted.vertices),
        )


class TrainToy:
    """``train_toy`` on the ellipsoid family with its default sphere42 cage."""

    name = "train_toy"
    root_span = "optim.loop"
    budget = 300
    # Adam on this over-parameterized perceptron amplifies a 1e-12 change of
    # the weights to ~3e-4 in the final loss and ~2e-4 in the predicted
    # offsets, so a tight check here would reject any reordered kernel.
    rtol = 2e-2
    probe = np.array([1.2, 0.8, 1.0])

    def __init__(self, index: int, workdir: Path):
        self.index = index

    def prepare(self) -> None:
        self.family = cw.SyntheticFamily(kind="ellipsoid")
        self.cage = self.family.default_cage()

    def call(self, budget: int):
        return cw.train_toy(self.family, self.cage, epochs=budget,
                            seed=self.index)

    def outcome(self, result) -> Outcome:
        predictor, report = result
        totals = _trace_totals(report)
        params = predictor.params()
        return Outcome(
            steps=report.iterations, totals=totals,
            values={"final_total": report.final_metrics["train_total"]},
            fingerprint=fingerprint(predictor.predict(self.probe)),
            digest=digest(totals, *(params[k] for k in sorted(params))),
        )


class TransferCli:
    """``cagewarp transfer`` in-process on generated OBJ and CSV files."""

    name = "transfer_cli"
    root_span = "cli.main"
    budget = 1
    rtol = RTOL

    def __init__(self, index: int, workdir: Path):
        self.index = index
        self.dir = Path(workdir)

    def prepare(self) -> None:
        rng = _rng(self.name, self.index)
        self.dir.mkdir(parents=True, exist_ok=True)
        shape = cw.make_box_mesh(24, scale=rng.uniform(0.8, 1.2, size=3))
        cage = _enclosing_cage("sphere162", 1.2)
        offsets = rng.normal(scale=0.05, size=cage.vertices.shape)
        self.paths = {"cage": self.dir / "cage.obj",
                      "offsets": self.dir / "offsets.csv",
                      "shape": self.dir / "shape.obj"}
        meshio.save_mesh(cage, self.paths["cage"])
        meshio.save_offsets(offsets, self.paths["offsets"])
        meshio.save_mesh(shape, self.paths["shape"])
        self.out = self.dir / "out"

    def call(self, budget: int):
        argv = ["transfer", "--cage", str(self.paths["cage"]),
                "--offsets", str(self.paths["offsets"]),
                "--shape", str(self.paths["shape"]), "--out", str(self.out)]
        rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"cagewarp transfer exited with {rc}")
        return rc

    def outcome(self, result) -> Outcome:
        obj = (self.out / "deformed.obj").read_bytes()
        with open(self.out / "report.json") as fh:
            metrics = json.load(fh)["metrics"]
        deformed = meshio.load_mesh(self.out / "deformed.obj")
        return Outcome(
            steps=1, totals=np.zeros(0),
            values={"offset_norm_max": metrics["offset_norm_max"],
                    "n_vertices": float(metrics["n_vertices"])},
            fingerprint=fingerprint(deformed.vertices),
            digest=digest(obj, json.dumps(metrics, sort_keys=True)),
        )


WORKLOADS = {w.name: w for w in (DeformPair, FitCage, TrainToy, TransferCli)}


def _close(got: float, want: float, rtol: float, scale: float = 0.0) -> bool:
    return abs(got - want) <= rtol * (abs(want) + scale)


def check_sanity(out: Outcome, budget: int) -> list:
    """Problems that need no reference: step count and the loss trace."""
    problems = []
    if out.steps != budget:
        problems.append(f"took {out.steps} steps, budget {budget}")
    if not np.all(np.isfinite(out.totals)):
        problems.append("non-finite loss in the trace")
    if len(out.totals) > 1 and not out.totals[-1] < out.totals[0]:
        problems.append("loss did not decrease")
    return problems


def check(out: Outcome, budget: int, reference: dict | None,
          rtol: float = RTOL) -> list:
    """Problems with one call's outcome; an empty list means it passed."""
    problems = check_sanity(out, budget)
    if reference is None:
        return problems + ["no reference values for this input"]
    for key, want in reference["values"].items():
        got = out.values.get(key)
        if got is None or not _close(got, want, rtol):
            problems.append(f"{key} = {got!r}, reference {want!r}")
    fp = reference["fingerprint"]
    if len(fp) != len(out.fingerprint) or not all(
            _close(g, w, rtol, scale=1.0) for g, w in zip(out.fingerprint, fp)):
        problems.append("output vertices differ from the reference")
    return problems
