"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and prints
a single PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import numpy as np
import pytest

import cagewarp.autodiff as ad
from cagewarp.geometry import (
    PointSet,
    TriMesh,
    make_box_mesh,
    make_template_cage,
    normalize_to_unit_box,
    sample_surface,
)
from cagewarp.gradients import builtin_check, grad_source_cage
from cagewarp.losses import (
    CageLaplacian,
    cage_laplacian_loss,
    eval_metrics,
    mvc_consistency,
    mvc_penalty,
    weighted_total,
)
from cagewarp.mvc import compute_mvc, vertex_tolerance
from cagewarp.optim import (
    FIT_MAX_ITERS,
    FIT_STEP_SIZE,
    PipelineConfig,
    deform_pair,
    fit_cage,
)
from cagewarp.toy import SyntheticFamily, eval_toy, train_toy
from conftest import OCTA_FACES, OCTA_VERTS, TETRA_FACES, TETRA_VERTS
from mc_oracle import mvc_ray_oracle


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def jittered_sphere_cage(rng, jitter=0.25) -> TriMesh:
    base = make_template_cage("sphere42")
    radii = 1.0 + rng.uniform(-jitter, jitter, size=(base.n_vertices, 1))
    return TriMesh(base.vertices * radii, base.faces)


def test_criterion_1_mvc_correctness():
    rng = np.random.default_rng(101)
    worst_partition = 0.0
    worst_linear = 0.0
    indicator_exact = True
    for _ in range(5):
        cage = jittered_sphere_cage(rng)
        lo, hi = cage.bbox()
        span = hi - lo
        pts = rng.uniform(lo - 0.5 * span, hi + 0.5 * span, size=(1000, 3))
        m = compute_mvc(cage, pts)
        worst_partition = max(
            worst_partition, float(np.abs(m.weights.sum(axis=1) - 1.0).max()))
        diagonal = np.linalg.norm(span)
        lp = np.abs(m.weights @ cage.vertices - pts).max() / diagonal
        worst_linear = max(worst_linear, float(lp))
        for j in rng.choice(cage.n_vertices, size=3, replace=False):
            row = compute_mvc(cage, cage.vertices[j][None]).weights[0]
            e = np.zeros(cage.n_vertices)
            e[j] = 1.0
            indicator_exact &= bool(np.array_equal(row, e))
    ok = worst_partition < 1e-9 and worst_linear < 1e-7 and indicator_exact
    report(1, ok,
           f"partition {worst_partition:.2e} < 1e-9, linear precision "
           f"{worst_linear:.2e} < 1e-7*diameter, vertex rows exact: "
           f"{indicator_exact}")


def test_criterion_2_monte_carlo_oracle():
    rng = np.random.default_rng(202)
    cages = [
        TriMesh(TETRA_VERTS.copy(), TETRA_FACES.copy()),
        TriMesh(OCTA_VERTS.copy(), OCTA_FACES.copy()),
        make_template_cage("sphere42"),
    ]
    counts = (7, 7, 6)
    worst = 0.0
    for cage, n_q in zip(cages, counts):
        for k in range(n_q):
            bary = rng.dirichlet(np.full(cage.n_vertices, 2.0))
            p = 0.75 * (bary @ cage.vertices)
            analytic = compute_mvc(cage, p[None]).weights[0]
            mc = mvc_ray_oracle(cage, p, n_rays=1_000_000,
                                seed=int(rng.integers(1 << 31)))
            worst = max(worst, float(np.abs(analytic - mc).max()))
    report(2, worst < 2e-3,
           f"max |analytic - ray oracle| = {worst:.2e} < 2e-3 "
           f"(20 interior queries, 3 convex cages, 1e6 rays each)")


def test_criterion_3_differentiability():
    deformed_group = ("deformed", "chamfer", "l2", "p2f", "normal",
                      "symmetry", "cage_laplacian")
    source_group = ("source", "mvc_penalty", "consistency")
    results = []
    for op in deformed_group:
        r = builtin_check(op, n_configs=10, seed=31)
        results.append((op, r.max_rel_err, r.rtol, r.passed))
    for op in source_group:
        r = builtin_check(op, n_configs=10, seed=32)
        results.append((op, r.max_rel_err, r.rtol, r.passed))
    ok = all(p for (_, _, _, p) in results)
    worst = max(e / t for (_, e, t, _) in results)
    report(3, ok,
           f"{len(results)} ops x 10 configs pass central-FD checks "
           f"(worst err/rtol ratio {worst:.2e}); deformed group rtol 1e-4, "
           f"source group rtol 1e-3")


def test_criterion_4_affine_reproduction():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(5):
        cage = jittered_sphere_cage(rng, jitter=0.2)
        pts = rng.uniform(-0.55, 0.55, size=(300, 3))
        m = compute_mvc(cage, pts)
        a = rng.normal(size=(3, 3)) + np.eye(3)
        b = rng.normal(size=3)
        got = m.weights @ (cage.vertices @ a.T + b)
        expect = pts @ a.T + b
        worst = max(worst, float(np.abs(got - expect).max()))
    report(4, worst < 1e-7,
           f"max |deformed - affine(points)| = {worst:.2e} < 1e-7 "
           f"(5 random cages, 300 points, random affine maps)")


def test_criterion_5_per_pair_pipeline():
    src, _ = normalize_to_unit_box(make_box_mesh(9, scale=(0.5, 0.35, 0.25)))
    assert src.n_vertices == 488  # the ~500-vertex instance
    scaled = TriMesh(src.vertices @ np.diag([1.5, 1.0, 0.8]).T, src.faces)
    tgt, t_tgt = normalize_to_unit_box(scaled)

    # existence first: the analytically constructed cage solution
    a = t_tgt.scale * np.diag([1.5, 1.0, 0.8])
    b = t_tgt.translation
    lo, hi = src.bbox()
    cage0 = make_template_cage("sphere42", center=0.5 * (lo + hi),
                               scale=1.05 * 0.5 * (hi - lo))
    m = compute_mvc(cage0, src.vertices)
    analytic = TriMesh(m.weights @ (cage0.vertices @ a.T + b), src.faces)
    cd_analytic = eval_metrics(analytic, tgt, src, n_samples=5000,
                               seed=0)["cd_x100"]

    cfg = PipelineConfig(seed=0)  # default budget: 3000 iterations
    cage, dcage, dmesh, rep = deform_pair(src, tgt, cfg)
    cd_opt = rep.final_metrics["cd_x100"]
    ok = (cd_analytic <= 1e-3 and cd_opt <= 0.5
          and rep.iterations <= 3000
          and np.isfinite(rep.final_metrics["dcotlap_x1000"]))
    report(5, ok,
           f"analytic cage CD*100 = {cd_analytic:.2e} <= 1e-3; optimized "
           f"CD*100 = {cd_opt:.3f} <= 0.5 in {rep.iterations} <= 3000 iters")


def test_criterion_6_cage_fitting_schedule():
    # pinned hyperparameters
    cfg = PipelineConfig()
    schedule_ok = (FIT_STEP_SIZE == 5e-4 and FIT_MAX_ITERS == 10_000
                   and cfg.consistency_threshold == 1e-5
                   and cfg.clap_weight == 0.05)

    shape = make_template_cage("sphere162", scale=(0.60, 0.44, 0.50))
    src_pts = sample_surface(shape, 200, seed=3)
    cage = make_template_cage("sphere42", scale=(0.70, 0.54, 0.60))
    t = np.array([0.08, -0.05, 0.03])
    novel = PointSet(points=src_pts + t)
    landmarks = np.stack([np.arange(83), np.arange(83)], axis=1)

    # analytic zero before optimizing
    rows_src = compute_mvc(cage, src_pts[:83]).weights
    rows_shift = compute_mvc(TriMesh(cage.vertices + t, cage.faces),
                             novel.points[:83]).weights
    residual = float(np.sum((rows_src - rows_shift) ** 2))

    fitted, rep = fit_cage(cage, src_pts, novel, landmarks,
                           PipelineConfig(seed=0))
    rms = float(np.sqrt(np.mean(np.sum(
        (fitted.vertices - (cage.vertices + t)) ** 2, axis=1))))
    ok = (schedule_ok and residual < 1e-9
          and rep.stop_reason == "threshold"
          and rep.trace[-1].terms["consistency"] < 1e-5
          and rms < 1e-2)
    report(6, ok,
           f"schedule 5e-4/1e4/1e-5/0.05 pinned; analytic residual "
           f"{residual:.1e}; stop={rep.stop_reason} after {rep.iterations} "
           f"iters; recovered cage RMS {rms:.2e} < 1e-2")


def test_criterion_7_loss_arithmetic():
    rng = np.random.default_rng(707)

    # the pipelines' weighted total equals the independently summed terms
    total_ok = True
    for _ in range(20):
        terms = {f"t{i}": rng.normal() for i in range(5)}
        weights = {f"t{i}": rng.uniform(0, 2) for i in range(5)}
        total = float(weighted_total(terms, weights))
        indep = sum(weights[k] * terms[k] for k in terms)
        total_ok &= abs(total - indep) < 1e-12

    # negative-weight penalty vs double loop
    penalty_ok = True
    for _ in range(10):
        w = rng.normal(size=(9, 7))
        acc = 0.0
        for i in range(9):
            for j in range(7):
                acc += min(w[i, j], 0.0) ** 2
        brute = acc / 63.0
        penalty_ok &= abs(float(mvc_penalty(w)) - brute) < 1e-14

    # landmark row consistency vs double loop
    cons_ok = True
    for _ in range(10):
        a, b2 = rng.normal(size=(8, 6)), rng.normal(size=(8, 6))
        brute = 0.0
        for i in range(8):
            for j in range(6):
                brute += (a[i, j] - b2[i, j]) ** 2
        cons_ok &= abs(float(mvc_consistency(a, b2)) - brute) < 1e-14

    # cage Laplacian magnitude change vs direct recomputation
    clap_ok = True
    octa = TriMesh(OCTA_VERTS.copy(), OCTA_FACES.copy())
    from cagewarp.geometry import cot_laplacian

    lap = cot_laplacian(octa).toarray()
    ref = CageLaplacian(octa)
    for _ in range(10):
        after = octa.vertices + 0.2 * rng.normal(size=(6, 3))
        n1 = np.linalg.norm(lap @ octa.vertices, axis=1)
        n2 = np.linalg.norm(lap @ after, axis=1)
        brute = float(np.sum((n1 - n2) ** 2))
        clap_ok &= abs(float(cage_laplacian_loss(ref, after)) - brute) < 1e-14

    ok = total_ok and penalty_ok and cons_ok and clap_ok
    report(7, ok,
           f"weighted total within 1e-12: {total_ok}; penalty/consistency/"
           f"laplacian match double-loop oracles within 1e-14: "
           f"{penalty_ok}/{cons_ok}/{clap_ok}")


def test_criterion_8_toy_training():
    fam = SyntheticFamily()
    cage = fam.default_cage()
    pred1, rep1 = train_toy(fam, cage, epochs=2000, seed=0)
    res = eval_toy(pred1, fam, n_holdout=20, seed=1000)
    improvement = 1.0 - res["l2_ratio"]

    pred2, rep2 = train_toy(fam, cage, epochs=2000, seed=0)
    bitwise = (np.array_equal(pred1.w1, pred2.w1)
               and np.array_equal(pred1.b1, pred2.b1)
               and np.array_equal(pred1.w2, pred2.w2)
               and np.array_equal(pred1.b2, pred2.b2)
               and [b.total for b in rep1.trace]
               == [b.total for b in rep2.trace])
    ok = improvement >= 0.5 and bitwise
    report(8, ok,
           f"held-out L2 improvement {100 * improvement:.1f}% >= 50% over "
           f"zero-offset baseline (20 descriptors); bitwise reproducible: "
           f"{bitwise}")


def test_criterion_9_thread_determinism():
    src, _ = normalize_to_unit_box(make_box_mesh(4, scale=(0.5, 0.35, 0.25)))
    tgt, _ = normalize_to_unit_box(
        TriMesh(src.vertices @ np.diag([1.3, 1.0, 0.85]).T, src.faces)
    )
    deform_traces = []
    for threads in (1, 8):
        cfg = PipelineConfig(seed=0, max_iters=50, threads=threads,
                             n_eval_samples=500)
        _, _, _, rep = deform_pair(src, tgt, cfg)
        deform_traces.append([b.total for b in rep.trace])

    shape = make_template_cage("sphere162", scale=(0.3, 0.22, 0.25))
    pts = sample_surface(shape, 120, seed=3)
    cage = make_template_cage("sphere42", scale=(0.35, 0.27, 0.3))
    novel = PointSet(points=pts + np.array([0.02, -0.01, 0.015]))
    lm = np.stack([np.arange(83), np.arange(83)], axis=1)
    fit_traces = []
    for threads in (1, 8):
        cfg = PipelineConfig(seed=0, max_iters=150, threads=threads)
        _, rep = fit_cage(cage, pts, novel, lm, cfg)
        fit_traces.append([b.total for b in rep.trace])

    ok = (deform_traces[0] == deform_traces[1]
          and fit_traces[0] == fit_traces[1])
    report(9, ok,
           "deform and fit-cage loss traces identical to the last ulp for "
           "--threads 1 vs --threads 8")


def test_criterion_10_eps_robustness():
    octa = TriMesh(OCTA_VERTS.copy(), OCTA_FACES.copy())
    eps_v = vertex_tolerance(octa.vertices)
    face_pt = octa.vertices[octa.faces[0]].mean(axis=0)
    edge_pt = 0.5 * (octa.vertices[0] + octa.vertices[2])
    probes = np.vstack([
        octa.vertices[0],                                   # exactly on vertex
        octa.vertices[0] + 0.5 * eps_v,                     # inside snap
        octa.vertices[0] + np.array([2.0, 0, 0]) * eps_v,   # just outside snap
        face_pt,                                            # exactly on face
        face_pt * (1.0 - 1e-9),                             # near face
        edge_pt,                                            # exactly on edge
        edge_pt * (1.0 + 1e-10),                            # near edge
    ])
    m = compute_mvc(octa, probes)
    finite = bool(np.isfinite(m.weights).all())
    partition = float(np.abs(m.weights.sum(axis=1) - 1.0).max())

    mixed = np.vstack([probes[:3], np.array([[0.1, 0.05, -0.2]])])

    def downstream(phi):
        return ad.sum_(phi * phi)

    _, g, excluded_rows = grad_source_cage(octa, mixed, downstream)
    grad_finite = bool(np.all(np.isfinite(g)))
    ok = (finite and partition < 1e-9 and excluded_rows == 3
          and grad_finite)
    report(10, ok,
           f"eps-near queries finite with partition error {partition:.1e} "
           f"< 1e-9; gradcheck excluded and counted {excluded_rows}/3 "
           f"boundary rows, remaining gradient finite")
