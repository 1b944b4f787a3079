"""Command-line interface.

Every command writes into --out: its artifact files, a report.json whose
"metrics" section is byte-stable for identical inputs/config/seed (wall
time and other run-specific data live under "provenance"), and a
manifest.json recording the command, the config snapshot, input file
hashes and output paths.  The manifest is written when the run starts and
finished when it ends: "completed" with its outputs, or "failed" with the
error.

Log verbosity comes from the CAGEWARP_LOG environment variable
(error | info | debug).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, meshio, optim, runtime
from .geometry import TriMesh, cage_around, normalize_to_unit_box
from .gradients import GRADCHECK_OPS, builtin_check
from .losses import eval_metrics
from .mvc import (
    FLAG_EXTERIOR_OK,
    FLAG_ON_FACE,
    FLAG_ON_VERTEX,
    compute_mvc,
)
from .optim import PipelineConfig, deform_pair, fit_cage, transfer
from .toy import SyntheticFamily, check_holdout, eval_toy, train_toy

log = logging.getLogger("cagewarp")


def _setup_logging() -> None:
    level = os.environ.get("CAGEWARP_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    if level not in levels:
        raise ValueError(f"CAGEWARP_LOG must be one of {sorted(levels)}")
    logging.basicConfig(level=levels[level],
                        format="%(levelname)s %(name)s: %(message)s")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig.from_json(args.config) if args.config \
        else PipelineConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.threads is not None:
        cfg.threads = args.threads
    return cfg


class RunManifest:
    """Start/finish bookkeeping for one command invocation."""

    def __init__(self, out_dir: Path, command: str, cfg: PipelineConfig,
                 inputs: dict):
        self.path = out_dir / "manifest.json"
        self.data = {
            "command": command,
            "config": cfg.to_dict(),
            "seed": cfg.seed,
            "version": __version__,
            "inputs": {name: {"path": str(p), "sha256": _sha256(p)}
                       for name, p in inputs.items()},
            "outputs": [],
            "status": "running",
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        self._write()

    def _write(self) -> None:
        with open(self.path, "w") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)

    def finish(self, status: str, **fields) -> None:
        self.data.update(fields, status=status, finished=time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
        self._write()


def _write_report(out_dir: Path, metrics: dict, wall_time: float) -> Path:
    """``report.json``: the metrics, and in ``provenance`` the wall time, the
    version, the thread count the command ran under and numpy's OpenBLAS
    thread count under it (None where no OpenBLAS was found)."""
    path = out_dir / "report.json"
    payload = {
        "metrics": metrics,
        "provenance": {"wall_time_s": wall_time, "version": __version__,
                       "threads": runtime.thread_count(),
                       "blas_threads": runtime.blas_threads()},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path


def _run(args) -> None:
    """Run one command with the bookkeeping every command shares.

    The command returns (outputs, metrics).  Its wall time is the time from
    the start manifest to its return, setup and final evaluation included.
    A command that raises marks its manifest failed and writes no report; a
    gradient check that failed raises only after its report and completed
    manifest are written.  The command runs under the config's thread cap
    (None keeps the caller's), and the caller's cap is restored when it
    returns.
    """
    cfg = _load_config(args)
    with runtime.thread_cap(cfg.threads):
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest(
            out, args.command, cfg,
            {name: getattr(args, name) for name in args.inputs})
        t0 = time.perf_counter()
        try:
            outputs, metrics = args.func(args, cfg, out)
        except BaseException as exc:
            manifest.finish("failed", error=str(exc))
            raise
        wall_time = time.perf_counter() - t0
        outputs.append(_write_report(out, metrics, wall_time))
        manifest.finish("completed", outputs=[str(p) for p in outputs])
    if metrics.get("pass") is False:
        raise RuntimeError("gradient check failed")


def _optim_metrics(report) -> dict:
    return {
        "final": report.final_metrics,
        "iterations": report.iterations,
        "stop_reason": report.stop_reason,
        "trace": report.trace_dicts(),
    }


def cmd_make_cage(args, cfg, out):
    cage = cage_around(meshio.load_mesh(args.input), args.kind,
                       cfg.cage_scale)
    cage_path = out / "cage.obj"
    meshio.save_mesh(cage, cage_path)
    log.info("wrote %s", cage_path)
    return [cage_path], {
        "kind": args.kind,
        "n_vertices": cage.n_vertices,
        "n_faces": cage.n_faces,
        "cage_scale": cfg.cage_scale,
    }


def cmd_compute_mvc(args, cfg, out):
    cage = meshio.load_mesh(args.cage)
    shape = meshio.load_points(args.shape)
    m = compute_mvc(cage, shape)
    w = m.weights
    outputs = []
    for fmt, name in (("bin", "mvc.bin"), ("csv", "mvc.csv")):
        if args.format in (fmt, "both"):
            meshio.save_weights(w, out / name)
            outputs.append(out / name)
    return outputs, {
        "rows": w.shape[0],
        "cols": w.shape[1],
        "max_row_sum_error": float(np.abs(w.sum(axis=1) - 1.0).max()),
        "n_on_vertex": int((m.flags == FLAG_ON_VERTEX).sum()),
        "n_on_face": int((m.flags == FLAG_ON_FACE).sum()),
        "n_exterior": int((m.flags == FLAG_EXTERIOR_OK).sum()),
    }


def cmd_deform(args, cfg, out):
    source, _ = normalize_to_unit_box(meshio.load_mesh(args.source))
    target, _ = normalize_to_unit_box(meshio.load_mesh(args.target))
    cage, deformed_cage, deformed, report = deform_pair(source, target, cfg)
    outputs = []
    for name, mesh in (("cage.obj", cage), ("deformed_cage.obj", deformed_cage),
                       ("deformed.obj", deformed)):
        p = out / name
        meshio.save_mesh(mesh, p)
        outputs.append(p)
    offsets_path = out / "cage_offsets.csv"
    meshio.save_offsets(deformed_cage.vertices - cage.vertices, offsets_path)
    outputs.append(offsets_path)
    return outputs, _optim_metrics(report)


def cmd_fit_cage(args, cfg, out):
    template = meshio.load_mesh(args.template)
    source_shape = meshio.load_points(args.source_shape)
    novel_shape = meshio.load_points(args.novel_shape)
    landmarks = meshio.load_landmarks(args.landmarks)
    fitted, report = fit_cage(template, source_shape, novel_shape,
                              landmarks, cfg)
    cage_path = out / "fitted_cage.obj"
    meshio.save_mesh(fitted, cage_path)
    return [cage_path], _optim_metrics(report)


def cmd_transfer(args, cfg, out):
    cage = meshio.load_mesh(args.cage)
    offsets = meshio.load_offsets(args.offsets)
    novel = meshio.load_mesh(args.shape)
    deformed = TriMesh(transfer(cage, offsets, novel.vertices),
                       novel.faces.copy())
    out_path = out / "deformed.obj"
    meshio.save_mesh(deformed, out_path)
    return [out_path], {
        "n_vertices": deformed.n_vertices,
        "offset_norm_max": float(np.linalg.norm(offsets, axis=1).max()),
    }


def cmd_eval(args, cfg, out):
    optim.check_minimums(cfg, "n_eval_samples")
    metrics = eval_metrics(
        meshio.load_mesh(args.deformed),
        meshio.load_mesh(args.target),
        meshio.load_mesh(args.source),
        n_samples=cfg.n_eval_samples,
        seed=cfg.seed,
    )
    return [], metrics


def cmd_gradcheck(args, cfg, out):
    ops = GRADCHECK_OPS if args.op == "all" else (args.op,)
    checks = [builtin_check(op, n_configs=args.n_configs, seed=cfg.seed)
              for op in ops]
    return [], {
        "checks": [c.to_dict() for c in checks],
        "pass": all(c.passed for c in checks),
    }


def cmd_train_toy(args, cfg, out):
    check_holdout(args.holdout)
    family = SyntheticFamily(kind=args.family)
    cage = family.default_cage(margin=cfg.cage_scale)
    predictor, report = train_toy(family, cage, epochs=args.epochs,
                                  seed=cfg.seed)
    eval_report = eval_toy(predictor, family, n_holdout=args.holdout,
                           seed=cfg.seed + 1000)
    predictor_path = out / "predictor.json"
    predictor.to_json(predictor_path)
    return [predictor_path], {
        "train_total": report.final_metrics["train_total"],
        "epochs": args.epochs,
        "eval": eval_report,
    }


def _add_common(sp) -> None:
    sp.add_argument("--config", default=None, help="pipeline config JSON")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--threads", type=int, default=None,
                    help="cap internal parallelism (1 = serial)")
    sp.add_argument("--out", default="cagewarp_out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cagewarp",
        description="Cage-based shape deformation with mean value coordinates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-cage", help="template cage around a mesh")
    p.add_argument("--input", required=True, help="mesh the cage encloses")
    p.add_argument("--kind", default="sphere42",
                   choices=("sphere42", "sphere162"))
    _add_common(p)
    p.set_defaults(func=cmd_make_cage, inputs=("input",))

    p = sub.add_parser("compute-mvc", help="coordinates of a shape in a cage")
    p.add_argument("--cage", required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--format", default="bin", choices=("bin", "csv", "both"))
    _add_common(p)
    p.set_defaults(func=cmd_compute_mvc, inputs=("cage", "shape"))

    p = sub.add_parser("deform", help="fit a cage deformation to a target")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_deform, inputs=("source", "target"))

    p = sub.add_parser("fit-cage", help="fit a template cage to a new shape")
    p.add_argument("--template", required=True)
    p.add_argument("--source-shape", required=True)
    p.add_argument("--novel-shape", required=True)
    p.add_argument("--landmarks", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_fit_cage, inputs=(
        "template", "source_shape", "novel_shape", "landmarks"))

    p = sub.add_parser("transfer", help="apply cage offsets to a novel shape")
    p.add_argument("--cage", required=True)
    p.add_argument("--offsets", required=True)
    p.add_argument("--shape", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_transfer, inputs=("cage", "offsets", "shape"))

    p = sub.add_parser("eval", help="alignment and distortion metrics")
    p.add_argument("--deformed", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--source", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_eval, inputs=("deformed", "target", "source"))

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--op", default="all", choices=("all",) + GRADCHECK_OPS)
    p.add_argument("--n-configs", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_gradcheck, inputs=())

    p = sub.add_parser("train-toy", help="train the toy offset predictor")
    p.add_argument("--epochs", type=int, default=5000)
    p.add_argument("--family", default="ellipsoid",
                   choices=("ellipsoid", "box"))
    p.add_argument("--holdout", type=int, default=20)
    _add_common(p)
    p.set_defaults(func=cmd_train_toy, inputs=())
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _run(args)
    except Exception as exc:  # surface one-line diagnostics, nonzero exit
        print(f"cagewarp {args.command}: error: {exc}", file=sys.stderr)
        log.debug("traceback", exc_info=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
