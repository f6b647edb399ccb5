"""Template-based localization relative to orchard-row centerlines.

Builds a 3D occupancy-frequency template of a row from posed point
clouds, scores pose hypotheses against it as a likelihood field, and
estimates the vehicle's lateral offset and heading by Monte Carlo
sampling, with a synthetic orchard simulator and evaluation harness.
"""

__version__ = "0.1.0"

from .geometry import (
    Box3,
    Plane,
    PointCloud,
    Pose6D,
    PreprocessConfig,
    RigidTransform,
    cutoff_filter,
    invert,
    make_pose_transform,
    preprocess,
    ransac_ground_plane,
    rotation_from_euler,
    transform_cloud,
    voxel_downsample,
)
from .mcl import (
    MclConfig,
    OdometryDelta,
    ParticleSet,
    PoseEstimate,
    PoseProposal,
    UniformPrior,
    localize_grid,
    localize_pf,
    localize_uniform,
)
from .template import (
    GroundTruthPose,
    Template,
    TemplateConfig,
    build_template,
    load_template,
    save_template,
)

__all__ = [
    "Box3",
    "GroundTruthPose",
    "MclConfig",
    "OdometryDelta",
    "ParticleSet",
    "Plane",
    "PointCloud",
    "Pose6D",
    "PoseEstimate",
    "PoseProposal",
    "PreprocessConfig",
    "RigidTransform",
    "Template",
    "TemplateConfig",
    "UniformPrior",
    "build_template",
    "cutoff_filter",
    "invert",
    "load_template",
    "localize_grid",
    "localize_pf",
    "localize_uniform",
    "make_pose_transform",
    "preprocess",
    "ransac_ground_plane",
    "rotation_from_euler",
    "save_template",
    "transform_cloud",
    "voxel_downsample",
]
