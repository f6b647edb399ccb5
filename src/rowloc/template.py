"""The row-sensing template: a 3D grid of voxel occupancy frequencies.

The template encodes the expected sensor measurement when the sensor sits
on the row centerline, aligned with it.  Voxels inside the grid but
outside the in-row region hold a fixed "no information" frequency.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .geometry import (
    Box3,
    DegenerateInputError,
    PointCloud,
    PreprocessConfig,
    cutoff_filter,
    group_rows,
    make_pose_transform,
    preprocess,
    transform_cloud,
)

TEMPLATE_MAGIC = b"RSTP"
TEMPLATE_VERSION = 1
# fixed header: magic, version, resolution, template and row boxes (6 f64
# each), no_info f64, n_frames u32, dims 3*u32; the f32 grid follows
TEMPLATE_HEADER = struct.Struct("<4sId6d6ddI3I")

DEFAULT_TEMPLATE_RANGE = Box3.from_ranges((0.0, 20.0), (-5.0, 5.0), (0.0, 4.0))


class TemplateFormatError(ValueError):
    """Malformed or inconsistent template file."""


def default_row_range(row_spacing: float, template_range: Box3 = DEFAULT_TEMPLATE_RANGE) -> Box3:
    """In-row region: template x/z extent, y limited to half the row spacing."""
    half = row_spacing / 2.0
    lo = template_range.min_corner.copy()
    hi = template_range.max_corner.copy()
    lo[1], hi[1] = -half, half
    return Box3(lo, hi)


@dataclass(frozen=True)
class TemplateConfig:
    """Grid geometry and fill policy for a template.

    no_info_frequency=None means "derive at build time": half the
    geometric mean of occupied in-row voxel frequencies, clamped to
    [1e-3, 0.5].
    """

    resolution: float = 0.1
    template_range: Box3 = DEFAULT_TEMPLATE_RANGE
    row_range: Box3 | None = None
    no_info_frequency: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.resolution) and self.resolution > 0):
            raise ValueError(f"resolution must be finite and positive, got {self.resolution}")
        if self.row_range is None:
            object.__setattr__(self, "row_range", default_row_range(3.0, self.template_range))
        for name in ("template_range", "row_range"):
            box = getattr(self, name)
            if not (np.all(np.isfinite(box.min_corner)) and np.all(np.isfinite(box.max_corner))):
                raise ValueError(f"{name} corners must be finite, got {box}")
        if not self.template_range.contains_box(self.row_range):
            raise ValueError("row_range must lie inside template_range")
        if self.no_info_frequency is not None and not 0.0 <= self.no_info_frequency <= 1.0:
            raise ValueError(f"no_info_frequency must be in [0, 1], got {self.no_info_frequency}")

    @property
    def dims(self) -> tuple[int, int, int]:
        d = np.ceil(self.template_range.extent / self.resolution - 1e-9).astype(int)
        return (max(int(d[0]), 1), max(int(d[1]), 1), max(int(d[2]), 1))

    def voxel_index(self, points: np.ndarray, axes=(0, 1, 2)) -> tuple[np.ndarray, np.ndarray]:
        """(voxel indices, inside-template_range mask) of float64 {T} points.

        `points` is (N, len(axes)); column k is the coordinate on axis
        axes[k].  Indices are floored and clamped into the grid, so a point
        on the upper face lands in the last voxel; outside points get
        clamped indices and False in the mask.
        """
        axes = list(axes)
        pts = np.asarray(points, dtype=np.float64).reshape(-1, len(axes))
        lo = self.template_range.min_corner[axes]
        hi = self.template_range.max_corner[axes]
        inside = np.all((pts >= lo) & (pts <= hi), axis=1)
        idx = np.floor((pts - lo) / self.resolution).astype(np.int64)
        np.clip(idx, 0, np.array(self.dims)[axes] - 1, out=idx)
        return idx, inside

    def in_row_mask(self) -> np.ndarray:
        """Boolean grid of voxels whose center lies inside row_range."""
        nx, ny, nz = self.dims
        res = self.resolution
        lo = self.template_range.min_corner
        cx = lo[0] + (np.arange(nx) + 0.5) * res
        cy = lo[1] + (np.arange(ny) + 0.5) * res
        cz = lo[2] + (np.arange(nz) + 0.5) * res
        row = self.row_range
        mx = (cx >= row.min_corner[0]) & (cx <= row.max_corner[0])
        my = (cy >= row.min_corner[1]) & (cy <= row.max_corner[1])
        mz = (cz >= row.min_corner[2]) & (cz <= row.max_corner[2])
        return mx[:, None, None] & my[None, :, None] & mz[None, None, :]


@dataclass(frozen=True)
class GroundTruthPose:
    """Known centerline offsets (y, theta) of a template-building frame; its
    roll, pitch and height come from the frame's ground fit."""

    y: float
    theta: float


@dataclass(frozen=True, eq=False)
class Template:
    """Built occupancy-frequency grid (x-major, then y, then z), compared by identity."""

    config: TemplateConfig
    grid: np.ndarray  # (nx, ny, nz) float32, read-only
    n_frames: int

    def __post_init__(self):
        # The grid is read-only, so derived tables cannot go stale: it is copied
        # unless C-contiguous float32 that nothing can write (a loaded file's bytes)
        grid = base = np.asarray(self.grid)
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        frozen = base is None or isinstance(base, bytes)
        if not frozen or grid.dtype != np.float32 or not grid.flags.c_contiguous:
            grid = np.array(grid, dtype=np.float32, order="C")
            grid.flags.writeable = False
        if grid.shape != self.config.dims:
            raise ValueError(f"grid shape {grid.shape} != configured dims {self.config.dims}")
        if self.config.no_info_frequency is None:
            raise ValueError("a template needs a no_info_frequency; build_template derives one")
        object.__setattr__(self, "grid", grid)

    @property
    def no_info_frequency(self) -> float:
        return self.config.no_info_frequency


def build_template(
    clouds_C: list[PointCloud],
    truths: list[GroundTruthPose],
    cfg: TemplateConfig,
    pre_cfg: PreprocessConfig = PreprocessConfig(),
) -> Template:
    """Accumulate per-frame voxel occupancy into a frequency grid.

    Per frame: preprocess, place the cloud in {T} using (roll, pitch,
    height) from the ground-plane fit, the only source of a teaching
    frame's attitude, and (y, theta) from its GroundTruthPose,
    cut to the in-row region, and mark each occupied voxel once per frame.
    The final grid is the count divided by the number of frames, with the
    out-of-row region filled with no_info_frequency.  A frame with no
    usable ground (no points, or no ground plane fit) teaches nothing and
    is left out of both; `ValueError` is raised when no frame is usable.
    """
    if len(clouds_C) != len(truths):
        raise ValueError(f"{len(clouds_C)} clouds vs {len(truths)} truth poses")
    if not clouds_C:
        raise ValueError("need at least one frame to build a template")

    counts = np.zeros(cfg.dims, dtype=np.float64)
    n = 0
    for cloud, truth in zip(clouds_C, truths):
        try:
            frame = preprocess(cloud, pre_cfg)
        except DegenerateInputError:
            continue
        n += 1
        T = make_pose_transform(truth.y, truth.theta, frame.roll, frame.pitch, frame.height)
        cloud_T = transform_cloud(T, frame.cloud_V)
        cloud_T = cutoff_filter(cloud_T, cfg.row_range)
        if len(cloud_T) == 0:
            continue
        # row_range lies inside template_range, so every point is inside
        idx, _ = cfg.voxel_index(cloud_T.points)
        idx = idx[group_rows(idx)[1]]  # each occupied voxel once
        np.add.at(counts, (idx[:, 0], idx[:, 1], idx[:, 2]), 1.0)

    if n == 0:
        raise ValueError("no teaching frame has usable ground")
    freq = counts  # finished in place: a float64 grid is 6.4 MB at the default dims
    freq /= n
    row_mask = cfg.in_row_mask()
    no_info = cfg.no_info_frequency
    if no_info is None:
        # Half the geometric mean of occupied in-row frequencies: low
        # enough that a matched point scores better than "no info", so
        # proposals cannot profit by pushing structure out of the row.
        occupied = freq[row_mask & (freq > 0)]
        geo = float(np.exp(np.log(occupied).mean())) if occupied.size else 0.02
        no_info = float(np.clip(0.5 * geo, 1e-3, 0.5))
    freq[~row_mask] = no_info
    final_cfg = replace(cfg, no_info_frequency=no_info)
    return Template(final_cfg, freq, n)


def save_template(template: Template, path) -> None:
    cfg = template.config
    with open(path, "wb") as f:
        f.write(TEMPLATE_HEADER.pack(
            TEMPLATE_MAGIC,
            TEMPLATE_VERSION,
            cfg.resolution,
            *cfg.template_range.min_corner, *cfg.template_range.max_corner,
            *cfg.row_range.min_corner, *cfg.row_range.max_corner,
            template.no_info_frequency,
            template.n_frames,
            *template.grid.shape,
        ))
        f.write(template.grid.astype("<f4").tobytes())


def load_template(path) -> Template:
    raw = Path(path).read_bytes()
    fixed = TEMPLATE_HEADER
    if len(raw) < fixed.size:
        raise TemplateFormatError(f"{path}: truncated header ({len(raw)} bytes)")
    fields = fixed.unpack_from(raw, 0)
    magic, version = fields[0], fields[1]
    if magic != TEMPLATE_MAGIC:
        raise TemplateFormatError(f"{path}: bad magic {magic!r}")
    if version != TEMPLATE_VERSION:
        raise TemplateFormatError(f"{path}: unsupported version {version}")
    resolution = fields[2]
    no_info = fields[15]
    n_frames = fields[16]
    dims = fields[17:20]
    try:
        cfg = TemplateConfig(
            resolution=resolution,
            template_range=Box3(np.array(fields[3:6]), np.array(fields[6:9])),
            row_range=Box3(np.array(fields[9:12]), np.array(fields[12:15])),
            no_info_frequency=no_info,
        )
    except ValueError as e:
        raise TemplateFormatError(f"{path}: {e}") from e
    if cfg.dims != tuple(dims):
        raise TemplateFormatError(f"{path}: header dims {dims} inconsistent with extent {cfg.dims}")
    count = dims[0] * dims[1] * dims[2]
    expected = fixed.size + count * 4
    if len(raw) != expected:
        raise TemplateFormatError(f"{path}: expected {expected} bytes, got {len(raw)}")
    grid = np.frombuffer(raw, dtype="<f4", offset=fixed.size).reshape(dims)
    # frequencies; NaN fails both comparisons
    if not (grid.min() >= 0.0 and grid.max() <= 1.0):
        raise TemplateFormatError(f"{path}: grid holds values outside [0, 1]")
    return Template(cfg, grid, n_frames)
