"""Desk-scale end-to-end training of a cage offset predictor.

A tiny two-layer perceptron maps a 3-vector shape descriptor (the axis
scales of a synthetic box/ellipsoid family) to per-vertex offsets of a
static source cage.  Training minimizes the combined objective with dense
correspondences, and the gradients flow through the offsets and the fixed
coordinate weights back into the perceptron parameters — the same
mechanism a full deformation network would use, at a size where everything
is checkable by finite differences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import losses
from .geometry import (
    TriMesh,
    make_box_mesh,
    make_template_cage,
    pointset_from_mesh_vertices,
)
from .mvc import compute_mvc, deform
from .optim import run_adam
from .optim import adam_step  # noqa: F401 (benchmarks/spans.py patches it here)

BASE_HALF_EXTENT = 0.25   # half extent of every family's base mesh
HIDDEN = 32               # hidden units of the offset predictor
STEP_SIZE = 5e-3          # train_toy's Adam step


@dataclass
class SyntheticFamily:
    """Meshes sharing one connectivity, parameterized by per-axis scales.

    Every member is the base mesh with its vertices multiplied by the
    descriptor (s_x, s_y, s_z); the canonical source member has scales
    (1, 1, 1).
    """

    kind: str = "ellipsoid"
    scale_range: tuple = (0.5, 1.5)
    base_mesh: TriMesh = field(init=False)

    def __post_init__(self):
        if self.kind == "ellipsoid":
            self.base_mesh = make_template_cage(
                "sphere162", scale=(BASE_HALF_EXTENT,) * 3
            )
        elif self.kind == "box":
            self.base_mesh = make_box_mesh(
                4, scale=(BASE_HALF_EXTENT,) * 3
            )
        else:
            raise ValueError(f"unknown family kind {self.kind!r}")

    @property
    def descriptor_dim(self) -> int:
        return 3

    def source_mesh(self) -> TriMesh:
        return self.member(np.ones(3))

    def member(self, scales) -> TriMesh:
        s = np.asarray(scales, dtype=np.float64)
        lo, hi = self.scale_range
        # NaN fails both comparisons, so the test is for being inside
        if not np.all((s >= lo) & (s <= hi)):
            raise ValueError(f"scales outside [{lo}, {hi}]")
        return TriMesh(self.base_mesh.vertices * s,
                       self.base_mesh.faces.copy())

    def sample_descriptors(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lo, hi = self.scale_range
        return rng.uniform(lo, hi, size=(n, 3))

    def default_cage(self, margin: float = 1.05) -> TriMesh:
        """Convex cage containing the source member.

        The sphere template's faces sag inside its nominal radius, so the
        scale is divided by the template inradius (the distance from the
        center to the nearest face plane) to guarantee containment.
        """
        template = make_template_cage("sphere42")
        v = template.vertices[template.faces]
        n = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        inradius = float(np.abs(np.einsum("fi,fi->f", n, v[:, 0])).min())
        r = margin * BASE_HALF_EXTENT / inradius
        if self.kind == "box":
            r *= np.sqrt(3.0)  # circumscribe the corners
        return make_template_cage("sphere42", scale=(r, r, r))


@dataclass(eq=False)
class OffsetPredictor:
    """descriptor -> (|C|, 3) cage offsets via a tanh two-layer perceptron.

    The output layer is zero-initialized, so an untrained predictor is
    exactly the identity deformation.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    cage: TriMesh | None = None

    @classmethod
    def init(cls, descriptor_dim: int, n_cage_vertices: int, seed: int = 0,
             cage: TriMesh | None = None) -> "OffsetPredictor":
        rng = np.random.default_rng(seed)
        return cls(
            w1=rng.normal(scale=0.5, size=(HIDDEN, descriptor_dim)),
            b1=np.zeros(HIDDEN),
            w2=np.zeros((n_cage_vertices * 3, HIDDEN)),
            b2=np.zeros(n_cage_vertices * 3),
            cage=cage,
        )

    @property
    def n_cage_vertices(self) -> int:
        return self.b2.size // 3

    def params(self) -> dict:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def replace_params(self, params: dict) -> None:
        self.w1, self.b1 = params["w1"], params["b1"]
        self.w2, self.b2 = params["w2"], params["b2"]

    def predict(self, descriptor) -> np.ndarray:
        d = np.asarray(descriptor, dtype=np.float64).reshape(1, -1)
        return forward_offsets(self.params(), d)[0]

    def to_json(self, path) -> None:
        blob = {
            "hidden": int(self.b1.size),
            "descriptor_dim": int(self.w1.shape[1]),
            "n_cage_vertices": int(self.n_cage_vertices),
            "w1": self.w1.ravel().tolist(),
            "b1": self.b1.tolist(),
            "w2": self.w2.ravel().tolist(),
            "b2": self.b2.tolist(),
        }
        if self.cage is not None:
            blob["cage_vertices"] = self.cage.vertices.ravel().tolist()
            blob["cage_faces"] = self.cage.faces.ravel().tolist()
        with open(path, "w") as fh:
            json.dump(blob, fh)

    @classmethod
    def from_json(cls, path) -> "OffsetPredictor":
        with open(path, "r") as fh:
            blob = json.load(fh)
        h, m = blob["hidden"], blob["descriptor_dim"]
        c = blob["n_cage_vertices"]
        cage = None
        if "cage_vertices" in blob:
            cage = TriMesh(
                np.array(blob["cage_vertices"]).reshape(-1, 3),
                np.array(blob["cage_faces"], dtype=np.int64).reshape(-1, 3),
            )
        return cls(
            w1=np.array(blob["w1"]).reshape(h, m),
            b1=np.array(blob["b1"]),
            w2=np.array(blob["w2"]).reshape(c * 3, h),
            b2=np.array(blob["b2"]),
            cage=cage,
        )


def forward_offsets(params: dict, descriptors: np.ndarray):
    """Batched perceptron forward pass; generic over ndarray/Var params."""
    w1, b1, w2, b2 = params["w1"], params["b1"], params["w2"], params["b2"]
    hidden = ad.tanh(ad.matmul(descriptors, ad.swapaxes(w1, 0, 1)) + b1)
    flat = ad.matmul(hidden, ad.swapaxes(w2, 0, 1)) + b2        # (B, C*3)
    b = descriptors.shape[0]
    return ad.reshape(flat, (b, ad.val(flat).shape[1] // 3, 3))


def train_toy(family: SyntheticFamily, source_cage: TriMesh,
              epochs: int = 5000, seed: int = 0, n_train: int = 24,
              alpha_shape: float = 0.0):
    """Fit the offset predictor to the family end to end.

    The source mesh and cage are static, so the coordinate weights and their
    penalty (weight 1) are computed once; alignment is the mean corresponded
    squared distance over the training members, plus ``alpha_shape`` times a
    point-to-plane term when positive.  Returns (predictor, report).
    """
    if n_train < 1:
        raise ValueError(f"n_train must be at least 1, got {n_train}")
    wmap = losses.term_weights(1.0, alpha_shape, "character")
    if alpha_shape == 0:
        del wmap["p2f"]
    rng = np.random.default_rng(seed)
    base = family.source_mesh()
    phi = compute_mvc(source_cage, base.vertices,
                      with_flags=False).weights                 # (N, C)
    penalty_const = float(losses.mvc_penalty(phi))

    descriptors = family.sample_descriptors(n_train, rng)       # (B, 3)
    targets = np.stack(
        [family.member(s).vertices for s in descriptors]
    )                                                           # (B, N, 3)

    if "p2f" in wmap:
        source_ps = pointset_from_mesh_vertices(base)

    predictor = OffsetPredictor.init(
        family.descriptor_dim, source_cage.n_vertices,
        seed=seed, cage=source_cage,
    )

    def evaluate(pvars):
        offsets = forward_offsets(pvars, descriptors)           # (B, C, 3)
        deformed = ad.matmul(phi, source_cage.vertices + offsets)  # (B, N, 3)
        terms = {
            "mvc": penalty_const,
            "align": losses.l2_corresponded(deformed, targets),
        }
        if "p2f" in wmap:
            p2f_sum = None
            for bidx in range(len(descriptors)):
                t = losses.p2f_term(source_ps, deformed[bidx])
                p2f_sum = t if p2f_sum is None else p2f_sum + t
            terms["p2f"] = p2f_sum / float(len(descriptors))
        return terms

    params, report = run_adam(predictor.params(), wmap, STEP_SIZE, epochs,
                              evaluate)
    predictor.replace_params(params)
    report.final_metrics = {
        "train_total": report.trace[-1].total,
        "epochs": epochs,
    }
    return predictor, report


def check_holdout(n_holdout: int) -> None:
    """Reject a held-out set too small to evaluate."""
    if n_holdout < 1:
        raise ValueError(f"n_holdout must be at least 1, got {n_holdout}")


def eval_toy(predictor: OffsetPredictor, family: SyntheticFamily,
             n_holdout: int = 20, seed: int = 1000,
             n_cd_samples: int = 1000) -> dict:
    """Held-out alignment of the predictor vs the zero-offset baseline."""
    check_holdout(n_holdout)
    if predictor.cage is None:
        raise ValueError("predictor carries no cage")
    rng = np.random.default_rng(seed)
    base = family.source_mesh()
    w = compute_mvc(predictor.cage, base.vertices, with_flags=False).weights
    cage_v = predictor.cage.vertices
    bmesh = TriMesh(deform(w, cage_v), base.faces)  # identity deformation

    # the baseline's samples and each target's are sampled and indexed once
    bpts = losses.unit_box_samples(bmesh, n_cd_samples, seed)
    bindex = losses.SpatialIndex(bpts)

    descriptors = family.sample_descriptors(n_holdout, rng)
    l2s, l2s_base, cds, cds_base = [], [], [], []
    for s in descriptors:
        target = family.member(s)
        tpts = losses.unit_box_samples(target, n_cd_samples, seed)
        tindex = losses.SpatialIndex(tpts)
        dmesh = TriMesh(deform(w, cage_v + predictor.predict(s)), base.faces)
        dpts = losses.unit_box_samples(dmesh, n_cd_samples, seed)
        l2s.append(float(losses.l2_corresponded(dmesh, target.vertices)))
        l2s_base.append(float(losses.l2_corresponded(bmesh, target.vertices)))
        # the x100 of sampled_chamfer_x100, on the prebuilt trees
        cds.append(float(losses.chamfer(dpts, tpts, index_b=tindex)) * 100.0)
        cds_base.append(float(losses.chamfer(bpts, tpts, index_a=bindex,
                                             index_b=tindex)) * 100.0)
    mean_l2 = float(np.mean(l2s))
    mean_l2_base = float(np.mean(l2s_base))
    return {
        "n_holdout": int(n_holdout),
        "seed": int(seed),
        "mean_l2": mean_l2,
        "max_l2": float(np.max(l2s)),
        "baseline_mean_l2": mean_l2_base,
        "l2_ratio": mean_l2 / mean_l2_base if mean_l2_base > 0 else 0.0,
        "mean_cd_x100": float(np.mean(cds)),
        "baseline_mean_cd_x100": float(np.mean(cds_base)),
    }
