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
a fixed seed; internal parallelism is limited to exact nearest-neighbor
queries, so results do not depend on the thread cap.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import losses, runtime
from .geometry import PointSet, TriMesh, make_template_cage, one_ring_neighborhoods, attach_pca_frames, knn_neighborhoods
from .losses import LossBreakdown, LossWeights
from .mvc import MvcConfig, MvcMatrix, compute_mvc, mvc_weights

DEFORM_STEP_SIZE = 2e-3
DEFORM_MAX_ITERS = 3000
FIT_STEP_SIZE = 5e-4
FIT_MAX_ITERS = 10_000
DEGENERATE_CAGE_AREA = 1e-10


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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - state.beta1**state.t)
        v_hat = v / (1.0 - state.beta2**state.t)
        out[name] = p - state.step_size * m_hat / (np.sqrt(v_hat) + state.eps)
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


def run_adam(params: dict, step_size: float, max_iters: int, evaluate,
             before_update=None, after_update=None):
    """Minimize a weighted loss over ``params`` with Adam.

    Every iteration wraps each parameter in a leaf Var, calls
    ``evaluate(leaves) -> (terms, wmap)``, records the weighted total in the
    report's trace, backpropagates it (a parameter the loss does not reach
    gets a zero gradient) and takes one Adam step.  ``before_update(report)``
    runs once the loss is recorded and ``after_update(report, params)`` after
    the step; either returns a stop reason to end the run, or raises
    ``OptimizationError`` to abort it.  A non-finite loss or gradient aborts
    with reason ``non_finite``.  Every abort carries the report with its
    stop reason and wall time.  Returns (params, report).
    """
    if max_iters < 1:
        raise ValueError(f"step budget must be at least 1, got {max_iters}")
    state = AdamState(step_size=step_size)
    report = OptimReport()
    t0 = time.perf_counter()
    stop = None
    try:
        for _ in range(max_iters):
            leaves = {k: ad.Var(v) for k, v in params.items()}
            terms, wmap = evaluate(leaves)
            total = losses.weighted_total(terms, wmap)
            breakdown = LossBreakdown.from_terms(terms, wmap)
            report.trace.append(breakdown)
            if not np.isfinite(breakdown.total):
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

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        with open(path, "r") as fh:
            data = json.load(fh)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)

    def loss_weights(self) -> LossWeights:
        return LossWeights(
            alpha_mvc=self.alpha_mvc,
            alpha_shape=self.alpha_shape,
            shape_mode=self.shape_mode,
            clap_weight=self.clap_weight,
        )


def _check_normalized(mesh: TriMesh, name: str, tol: float = 1e-6) -> None:
    lo, hi = mesh.bbox()
    side = (hi - lo).max()
    center = 0.5 * (lo + hi)
    if abs(side - 1.0) > tol or np.abs(center).max() > tol:
        raise ValueError(
            f"{name} must be normalized to the unit box "
            f"(max side {side:.6g}, center offset {np.abs(center).max():.3g})"
        )


def _initial_cage(source: TriMesh, cfg: PipelineConfig) -> TriMesh:
    lo, hi = source.bbox()
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return make_template_cage(
        cfg.cage_template, center=center, scale=cfg.cage_scale * half
    )


def _loss_pointset(source: TriMesh, cfg: PipelineConfig) -> PointSet:
    """Point set the losses are evaluated on, with plane fits attached."""
    if cfg.n_sample_points > 0:
        from .geometry import sample_surface

        ps = sample_surface(source, cfg.n_sample_points, cfg.seed)
        ps = PointSet(points=ps.points,
                      neighborhoods=knn_neighborhoods(ps.points, k=8))
        return attach_pca_frames(ps)
    ps = PointSet(points=source.vertices.copy(),
                  neighborhoods=one_ring_neighborhoods(source))
    return attach_pca_frames(ps)


def _target_points(target: TriMesh, source_ps: PointSet,
                   cfg: PipelineConfig) -> np.ndarray:
    if cfg.align_mode == "l2":
        if target.n_vertices != len(source_ps) or cfg.n_sample_points > 0:
            raise ValueError(
                "l2 alignment needs dense correspondence: equal vertex "
                "counts and vertex-based losses"
            )
        return target.vertices.copy()
    if cfg.n_sample_points > 0:
        from .geometry import sample_surface

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
    runtime.set_threads(cfg.threads)
    _check_normalized(source, "source mesh")
    _check_normalized(target, "target mesh")

    cage0 = _initial_cage(source, cfg)
    cage_faces = cage0.faces
    mvc_cfg = MvcConfig()
    eps_vertex = mvc_cfg.resolved_eps_vertex(cage0)

    source_ps = _loss_pointset(source, cfg)
    target_pts = _target_points(target, source_ps, cfg)
    weights = cfg.loss_weights()
    wmap = losses.term_weights(weights)

    def evaluate(leaves):
        cage_var = leaves["cage"]
        phi, _ = mvc_weights(
            cage_var, cage_faces, source_ps.points,
            eps_vertex=eps_vertex, eps_plane=mvc_cfg.eps_plane,
            with_flags=False,
        )
        deformed_cage = cage_var + leaves["offsets"]
        deformed_pts = ad.matmul(phi, deformed_cage)
        terms = losses.total_terms(
            source_ps, deformed_pts, target_pts, phi, deformed_cage,
            weights, cfg.align_mode,
        )
        return terms, wmap

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
        cfg.step_size or DEFORM_STEP_SIZE,
        DEFORM_MAX_ITERS if cfg.max_iters is None else cfg.max_iters,
        evaluate, after_update=after_update,
    )
    cage = TriMesh(params["cage"], cage_faces)
    deformed_cage = TriMesh(params["cage"] + params["offsets"], cage_faces)
    vert_mvc = compute_mvc(cage, source.vertices, mvc_cfg)
    deformed_mesh = TriMesh(vert_mvc.weights @ deformed_cage.vertices,
                            source.faces.copy())
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
    runtime.set_threads(cfg.threads)
    landmarks = np.asarray(landmarks, dtype=np.int64).reshape(-1, 2)
    src_pts = source_shape.points if isinstance(source_shape, PointSet) \
        else np.asarray(source_shape, dtype=np.float64)
    dst_pts = novel_shape.points if isinstance(novel_shape, PointSet) \
        else np.asarray(novel_shape, dtype=np.float64)
    if landmarks[:, 0].max() >= len(src_pts) or landmarks[:, 0].min() < 0:
        raise IndexError("source landmark index out of range")
    if landmarks[:, 1].max() >= len(dst_pts) or landmarks[:, 1].min() < 0:
        raise IndexError("novel landmark index out of range")

    mvc_cfg = MvcConfig()
    eps_vertex = mvc_cfg.resolved_eps_vertex(template_cage)
    template_rows = compute_mvc(
        template_cage, src_pts[landmarks[:, 0]], mvc_cfg
    ).weights
    query_pts = dst_pts[landmarks[:, 1]]

    wmap = {"consistency": 1.0, "clap": cfg.clap_weight}

    def evaluate(leaves):
        phi, _ = mvc_weights(
            leaves["cage"], template_cage.faces, query_pts,
            eps_vertex=eps_vertex, eps_plane=mvc_cfg.eps_plane,
            with_flags=False,
        )
        # looked up through the module so tests can replace the regularizer
        terms = {
            "consistency": losses.mvc_consistency(template_rows, phi),
            "clap": losses.cage_laplacian_loss(template_cage, leaves["cage"]),
        }
        return terms, wmap

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
        cfg.step_size or FIT_STEP_SIZE,
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
    pts = novel_shape.points if isinstance(novel_shape, PointSet) \
        else np.asarray(novel_shape, dtype=np.float64).reshape(-1, 3)
    m = compute_mvc(fitted_cage, pts)
    deformed = m.weights @ (fitted_cage.vertices + offsets)
    return PointSet(points=deformed)


def transfer_mesh(fitted_cage: TriMesh, stored_cage_offsets: np.ndarray,
                  novel_mesh: TriMesh) -> TriMesh:
    out = transfer(fitted_cage, stored_cage_offsets, novel_mesh.vertices)
    return TriMesh(out.points, novel_mesh.faces.copy())
