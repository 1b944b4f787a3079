"""Adam, the one optimization driver, and the cage optimization pipelines.

``run_adam`` is the loop every gradient-descent pipeline runs: leaf Vars,
the weighted loss and its trace, backward, Adam, stop reasons and wall
time.  A pipeline supplies only its loss and its stop checks:

* deform_pair — joint optimization of a source cage and its offsets so the
  cage-deformed source matches a target (cage-parameterized non-rigid
  registration of a single pair);
* fit_cage — re-fit a template cage to a novel shape by matching the mean
  value coordinate rows of sparse landmark correspondences, regularized by
  the cage's cotangent Laplacian;
* transfer — apply stored cage offsets to a fitted cage and deform a novel
  shape through it (no optimization).

``toy.train_toy`` runs the same driver.  All pipelines are deterministic for
a fixed seed, and no result bit depends on the thread cap
(``PipelineConfig.threads``; None keeps the caller's cap).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import losses, runtime
from .geometry import (
    PointSet,
    TriMesh,
    as_positions,
    attach_pca_frames,
    cage_around,
    check_laplacian_mesh,
    knn_neighborhoods,
    pointset_from_mesh_vertices,
    sample_surface,
)
from .losses import LossBreakdown
from .mvc import compute_mvc, deform, mvc_weights

DEFORM_STEP_SIZE = 2e-3
DEFORM_MAX_ITERS = 3000
FIT_STEP_SIZE = 5e-4
FIT_MAX_ITERS = 10_000
DEGENERATE_CAGE_AREA = 1e-10
SAMPLE_KNN = 8          # neighbors of each sampled loss point's plane fit
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# what a config value of each field type may be, bools excepted:
# (description, types)
_FIELD_TYPES = {
    "int": ("an integer", (int, np.integer)),
    "float": ("a number", (int, float, np.integer, np.floating)),
    "str": ("a string", str),
}


class OptimizationError(Exception):
    """Aborted optimization; carries its stop reason and the partial report."""

    def __init__(self, message, report=None, reason="non_finite"):
        super().__init__(message)
        self.report = report
        self.reason = reason


@dataclass
class AdamState:
    """Adam accumulator state for a named parameter group."""

    step_size: float = 5e-4
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(state: AdamState, params: dict, grads: dict) -> dict:
    """One bias-corrected Adam update; returns the new parameter dict."""
    state.t += 1
    out = {}
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        if not np.all(np.isfinite(g)):
            raise OptimizationError(f"non-finite gradient for {name!r}")
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p)
            v = np.zeros_like(p)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - ADAM_BETA1**state.t)
        v_hat = v / (1.0 - ADAM_BETA2**state.t)
        out[name] = p - state.step_size * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return out


@dataclass
class OptimReport:
    """Loss trace and outcome of one optimization run."""

    trace: list = field(default_factory=list)
    stop_reason: str = ""
    wall_time: float = 0.0
    final_metrics: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return len(self.trace)

    def trace_dicts(self) -> list:
        return [
            {"terms": b.terms, "weights": b.weights, "total": b.total}
            for b in self.trace
        ]


def run_adam(params: dict, weights: dict, step_size: float, max_iters: int,
             evaluate, before_update=None, after_update=None):
    """Minimize a weighted loss over ``params`` with Adam.

    Every iteration wraps each parameter in a leaf Var, calls
    ``evaluate(leaves) -> terms``, weighs the terms by ``weights`` (fixed
    for the run) with ``losses.weighted_total``, records the terms and that
    total's value in the report's trace, backpropagates the total (a
    parameter the loss does not reach gets a zero gradient) and takes one
    Adam step.  ``before_update(report)`` runs once the loss is recorded
    and ``after_update(report, params)`` after the step; either returns a
    stop reason to end the run, or raises ``OptimizationError`` to abort
    it.  A non-finite loss or gradient aborts with reason ``non_finite``.
    Every abort carries the report with its stop reason and wall time.
    Each step's tape is released after its Adam update, before the next
    ``evaluate`` builds another.  Returns (params, report).
    """
    if max_iters < 1:
        raise ValueError(f"step budget must be at least 1, got {max_iters}")
    if not (np.isfinite(step_size) and step_size > 0):
        raise ValueError(
            f"step size must be positive and finite, got {step_size}")
    weights = dict(weights)
    state = AdamState(step_size=step_size)
    report = OptimReport()
    t0 = time.perf_counter()
    stop = None
    try:
        for _ in range(max_iters):
            leaves = {k: ad.Var(v) for k, v in params.items()}
            terms = evaluate(leaves)
            total = losses.weighted_total(terms, weights)
            report.trace.append(LossBreakdown(
                {k: float(ad.val(v)) for k, v in terms.items()}, weights,
                float(ad.val(total))))
            if not np.isfinite(report.trace[-1].total):
                raise OptimizationError("non-finite total loss")
            if before_update is not None:
                stop = before_update(report)
                if stop:
                    break

            total.backward()
            grads = {k: v.grad if v.grad is not None
                     else np.zeros_like(params[k])
                     for k, v in leaves.items()}
            params = adam_step(state, params, grads)
            del total, terms, leaves, grads

            if after_update is not None:
                stop = after_update(report, params)
                if stop:
                    break
    except OptimizationError as exc:
        exc.report = report
        report.stop_reason = exc.reason
        report.wall_time = time.perf_counter() - t0
        raise
    report.stop_reason = stop or "max_iters"
    report.wall_time = time.perf_counter() - t0
    return params, report


@dataclass
class PipelineConfig:
    """Run configuration; JSON keys map 1:1 to these fields."""

    alpha_mvc: float = 1.0
    alpha_shape: float = 0.1
    shape_mode: str = "man_made"
    align_mode: str = "chamfer"
    step_size: float | None = None
    max_iters: int | None = None
    consistency_threshold: float = 1e-5
    clap_weight: float = 0.05
    seed: int = 0
    cage_template: str = "sphere42"
    cage_scale: float = 1.05
    threads: int | None = None
    n_sample_points: int = 0
    n_eval_samples: int = 5000
    plateau_window: int = 200
    plateau_rel_tol: float = 1e-6

    def __setattr__(self, name, value):
        # construction assigns every field through here too, so a value of
        # the wrong type fails, naming its key, however it was set
        spec = self.__dataclass_fields__.get(name)
        if spec is None:
            raise AttributeError(f"unknown config key {name!r}")
        kind, _, nullable = spec.type.partition(" | ")
        what, types = _FIELD_TYPES[kind]
        if not (value is None and nullable) and (
                isinstance(value, bool) or not isinstance(value, types)):
            raise ValueError(
                f"config key {name!r} must be {what}"
                f"{' or null' if nullable else ''}, got {value!r}")
        # numpy's generators take no negative seed, and would say so only
        # where a command first samples
        if name == "seed" and value < 0:
            raise ValueError(f"seed must be at least 0, got {value}")
        super().__setattr__(name, value)

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        with open(path, "r") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object, got "
                             f"{type(data).__name__}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)


# the least value of each count key
_MINIMUMS = {"n_sample_points": 0, "n_eval_samples": 1, "plateau_window": 1}


def check_minimums(cfg: PipelineConfig, *keys: str) -> None:
    """Reject any of the count ``keys`` below its least value, naming it."""
    for key in keys:
        if not getattr(cfg, key) >= _MINIMUMS[key]:
            raise ValueError(f"{key} must be at least {_MINIMUMS[key]}, "
                             f"got {getattr(cfg, key)}")


def _check_normalized(mesh: TriMesh, name: str, tol: float = 1e-6) -> None:
    lo, hi = mesh.bbox()
    side = (hi - lo).max()
    center = 0.5 * (lo + hi)
    if abs(side - 1.0) > tol or np.abs(center).max() > tol:
        raise ValueError(
            f"{name} must be normalized to the unit box "
            f"(max side {side:.6g}, center offset {np.abs(center).max():.3g})"
        )


def _loss_pointset(source: TriMesh, cfg: PipelineConfig) -> PointSet:
    """Point set the losses are evaluated on, with plane fits attached."""
    if cfg.n_sample_points > 0:
        ps = sample_surface(source, cfg.n_sample_points, cfg.seed)
        ps = PointSet(points=ps.points,
                      neighborhoods=knn_neighborhoods(ps.points, k=SAMPLE_KNN))
        return attach_pca_frames(ps)
    return pointset_from_mesh_vertices(source)


def _target_points(target: TriMesh, cfg: PipelineConfig) -> np.ndarray:
    if cfg.n_sample_points > 0:
        return sample_surface(target, cfg.n_sample_points, cfg.seed).points
    return target.vertices.copy()


def deform_pair(source: TriMesh, target: TriMesh,
                cfg: PipelineConfig | None = None):
    """Optimize a cage and offsets so the deformed source matches the target.

    Returns (source_cage, deformed_cage, deformed_mesh, report).  The cage
    vertices and the offsets are optimized jointly: the weights phi are
    recomputed from the current source cage every iteration and their
    negative part is penalized, while the alignment and shape terms act on
    the offset cage.
    """
    cfg = cfg or PipelineConfig()
    wmap = losses.term_weights(cfg.alpha_mvc, cfg.alpha_shape, cfg.shape_mode)
    check_minimums(cfg, "n_sample_points", "n_eval_samples", "plateau_window")
    if 0 < cfg.n_sample_points <= SAMPLE_KNN:
        raise ValueError(f"n_sample_points must be 0 or more than {SAMPLE_KNN}"
                         f" (k={SAMPLE_KNN} neighborhoods), got "
                         f"{cfg.n_sample_points}")
    # NaN fails every comparison, so it would switch the stall rule off
    if np.isnan(cfg.plateau_rel_tol):
        raise ValueError("plateau_rel_tol must not be NaN")
    if cfg.align_mode not in ("chamfer", "l2"):
        raise ValueError(f"unknown align_mode {cfg.align_mode!r}")
    if cfg.align_mode == "l2" and (target.n_vertices != source.n_vertices
                                   or cfg.n_sample_points > 0):
        raise ValueError(
            "l2 alignment needs dense correspondence: equal vertex "
            "counts and vertex-based losses"
        )
    with runtime.thread_cap(cfg.threads):
        _check_normalized(source, "source mesh")
        _check_normalized(target, "target mesh")
        # else eval_metrics' source Laplacian raises only after the last step
        check_laplacian_mesh(source)

        cage0 = cage_around(source, cfg.cage_template, cfg.cage_scale)
        cage_faces = cage0.faces

        source_ps = _loss_pointset(source, cfg)
        target_pts = _target_points(target, cfg)
        target_index = (losses.SpatialIndex(target_pts)
                        if cfg.align_mode == "chamfer" else None)

        def evaluate(leaves):
            cage_var = leaves["cage"]
            phi, _ = mvc_weights(cage_var, cage_faces, source_ps.points,
                                 with_flags=False)
            deformed_cage = cage_var + leaves["offsets"]
            deformed_pts = ad.matmul(phi, deformed_cage)
            return losses.total_terms(
                source_ps, deformed_pts, target_pts, phi, deformed_cage,
                cfg.shape_mode, cfg.align_mode, target_index,
            )

        def after_update(report, params):
            for verts in (params["cage"], params["cage"] + params["offsets"]):
                if np.any(TriMesh(verts, cage_faces).face_areas()
                          < DEGENERATE_CAGE_AREA):
                    raise OptimizationError("cage face collapsed",
                                            reason="degenerate_cage")
            w = cfg.plateau_window
            if len(report.trace) > w:
                prev = report.trace[-w - 1].total
                cur = report.trace[-1].total
                if (prev - cur) / max(abs(prev), 1e-12) < cfg.plateau_rel_tol:
                    return "stall"
            return None

        params, report = run_adam(
            {"cage": cage0.vertices.copy(),
             "offsets": np.zeros_like(cage0.vertices)},
            wmap,
            DEFORM_STEP_SIZE if cfg.step_size is None else cfg.step_size,
            DEFORM_MAX_ITERS if cfg.max_iters is None else cfg.max_iters,
            evaluate, after_update=after_update,
        )
        cage = TriMesh(params["cage"], cage_faces)
        deformed_cage = TriMesh(params["cage"] + params["offsets"], cage_faces)
        deformed = transfer(cage, params["offsets"], source.vertices)
        deformed_mesh = TriMesh(deformed.points, source.faces.copy())
        report.final_metrics = losses.eval_metrics(
            deformed_mesh, target, source,
            n_samples=cfg.n_eval_samples, seed=cfg.seed,
        )
        report.final_metrics["final_total"] = report.trace[-1].total
        return cage, deformed_cage, deformed_mesh, report


def fit_cage(template_cage: TriMesh, source_shape: PointSet,
             novel_shape: PointSet, landmarks: np.ndarray,
             cfg: PipelineConfig | None = None):
    """Fit the template cage to a novel shape via landmark MVC consistency.

    Minimizes the sum of squared differences between the template's weight
    rows at source landmarks and the moving cage's rows at the corresponding
    novel-shape landmarks, plus ``clap_weight`` times the cage Laplacian
    magnitude change.  Adam with the configured step size, stopping early
    once the consistency term drops below ``consistency_threshold``.
    """
    cfg = cfg or PipelineConfig()
    if not cfg.clap_weight >= 0:
        raise ValueError(
            f"clap_weight must be non-negative, got {cfg.clap_weight}")
    if cfg.clap_weight == np.inf:
        raise ValueError(f"clap_weight must be finite, got {cfg.clap_weight}")
    # NaN fails every comparison, so it would switch the early stop off
    if np.isnan(cfg.consistency_threshold):
        raise ValueError("consistency_threshold must not be NaN")
    with runtime.thread_cap(cfg.threads):
        landmarks = np.asarray(landmarks, dtype=np.int64).reshape(-1, 2)
        if not len(landmarks):
            raise ValueError("no landmarks: fit_cage needs at least one "
                             "source,novel index pair")
        src_pts = as_positions(source_shape)
        dst_pts = as_positions(novel_shape)
        if landmarks[:, 0].max() >= len(src_pts) or landmarks[:, 0].min() < 0:
            raise IndexError("source landmark index out of range")
        if landmarks[:, 1].max() >= len(dst_pts) or landmarks[:, 1].min() < 0:
            raise IndexError("novel landmark index out of range")

        template_rows = compute_mvc(
            template_cage, src_pts[landmarks[:, 0]], with_flags=False
        ).weights
        query_pts = dst_pts[landmarks[:, 1]]
        template_lap = losses.CageLaplacian(template_cage)

        def evaluate(leaves):
            phi, _ = mvc_weights(leaves["cage"], template_cage.faces,
                                 query_pts, with_flags=False)
            # looked up through the module so tests can replace the regularizer
            return {
                "consistency": losses.mvc_consistency(template_rows, phi),
                "clap": losses.cage_laplacian_loss(template_lap, leaves["cage"]),
            }

        def before_update(report):
            initial_total = report.trace[0].total
            if report.trace[-1].total > 1e3 * max(initial_total, 1e-12):
                raise OptimizationError("loss diverged beyond 1000x initial",
                                        reason="diverged")
            if report.trace[-1].terms["consistency"] < cfg.consistency_threshold:
                return "threshold"
            return None

        params, report = run_adam(
            {"cage": template_cage.vertices.copy()},
            {"consistency": 1.0, "clap": cfg.clap_weight},
            FIT_STEP_SIZE if cfg.step_size is None else cfg.step_size,
            FIT_MAX_ITERS if cfg.max_iters is None else cfg.max_iters,
            evaluate, before_update=before_update,
        )
        report.final_metrics = {
            "consistency": report.trace[-1].terms["consistency"],
            "iterations": report.iterations,
        }
        fitted = TriMesh(params["cage"], template_cage.faces.copy())
        return fitted, report


def transfer(fitted_cage: TriMesh, stored_cage_offsets: np.ndarray,
             novel_shape) -> PointSet:
    """Deform a novel shape by offsetting its fitted cage."""
    offsets = np.asarray(stored_cage_offsets, dtype=np.float64).reshape(-1, 3)
    if offsets.shape[0] != fitted_cage.n_vertices:
        raise ValueError(
            f"offset count {offsets.shape[0]} does not match cage vertex "
            f"count {fitted_cage.n_vertices}"
        )
    m = compute_mvc(fitted_cage, novel_shape, with_flags=False)
    return deform(novel_shape, m, fitted_cage.vertices + offsets)
