"""Cage-based 3D shape deformation with differentiable mean value coordinates."""

__version__ = "0.1.0"

from .geometry import (
    MeshError,
    PointSet,
    SpatialIndex,
    Transform,
    TriMesh,
    cot_laplacian,
    make_box_mesh,
    make_template_cage,
    normalize_to_unit_box,
    sample_surface,
)
from .gradients import check_gradients, grad_source_cage
from .losses import (
    LossBreakdown,
    cage_laplacian_loss,
    chamfer,
    eval_metrics,
    l2_corresponded,
    mvc_consistency,
    mvc_penalty,
)
from .meshio import load_mesh, load_points, save_mesh, save_points
from .mvc import MvcError, MvcMatrix, compute_mvc, deform
from .optim import (
    AdamState,
    OptimReport,
    OptimizationError,
    PipelineConfig,
    adam_step,
    deform_pair,
    fit_cage,
    transfer,
)
from .toy import OffsetPredictor, SyntheticFamily, eval_toy, train_toy

__all__ = [
    "AdamState",
    "LossBreakdown",
    "MeshError",
    "MvcError",
    "MvcMatrix",
    "OffsetPredictor",
    "OptimReport",
    "OptimizationError",
    "PipelineConfig",
    "PointSet",
    "SpatialIndex",
    "SyntheticFamily",
    "Transform",
    "TriMesh",
    "adam_step",
    "cage_laplacian_loss",
    "chamfer",
    "check_gradients",
    "compute_mvc",
    "cot_laplacian",
    "deform",
    "deform_pair",
    "eval_metrics",
    "eval_toy",
    "fit_cage",
    "grad_source_cage",
    "l2_corresponded",
    "load_mesh",
    "load_points",
    "make_box_mesh",
    "make_template_cage",
    "mvc_consistency",
    "mvc_penalty",
    "normalize_to_unit_box",
    "sample_surface",
    "save_mesh",
    "save_points",
    "train_toy",
    "transfer",
]
