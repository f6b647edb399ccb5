"""The row-sensing template: a 3D grid of voxel occupancy frequencies.

The template encodes the expected sensor measurement when the sensor sits
on the row centerline, aligned with it.  Voxels inside the grid but
outside the in-row region hold a fixed "no information" frequency.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .geometry import (
    Box3,
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
        if self.resolution <= 0:
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        if self.row_range is None:
            object.__setattr__(self, "row_range", default_row_range(3.0, self.template_range))
        if not self.template_range.contains_box(self.row_range):
            raise ValueError("row_range must lie inside template_range")
        if self.no_info_frequency is not None and not 0.0 <= self.no_info_frequency <= 1.0:
            raise ValueError(f"no_info_frequency must be in [0, 1], got {self.no_info_frequency}")

    @property
    def dims(self) -> tuple[int, int, int]:
        d = np.ceil(self.template_range.extent / self.resolution - 1e-9).astype(int)
        return (max(int(d[0]), 1), max(int(d[1]), 1), max(int(d[2]), 1))


@dataclass(frozen=True)
class GroundTruthPose:
    """Known centerline offsets for a template-building frame."""

    y: float
    theta: float
    roll: float | None = None
    pitch: float | None = None
    z: float | None = None


@dataclass(frozen=True)
class Template:
    """Built occupancy-frequency grid (x-major, then y, then z)."""

    config: TemplateConfig
    grid: np.ndarray  # (nx, ny, nz) float32, read-only
    n_frames: int
    # per-p_floor log tables, filled by the sensor model (measurement.py)
    _log_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # The grid is read-only so tables derived from it cannot go stale:
        # a writeable (or non-float32, non-contiguous) array is copied, a
        # read-only one such as a loaded file's buffer is taken as is.
        grid = np.asarray(self.grid)
        if grid.flags.writeable or grid.dtype != np.float32 or not grid.flags.c_contiguous:
            grid = np.array(grid, dtype=np.float32, order="C")
            grid.flags.writeable = False
        if grid.shape != self.config.dims:
            raise ValueError(f"grid shape {grid.shape} != configured dims {self.config.dims}")
        object.__setattr__(self, "grid", grid)

    @property
    def no_info_frequency(self) -> float:
        assert self.config.no_info_frequency is not None
        return self.config.no_info_frequency

    def voxel_indices(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(indices, inside-mask) for an (N, 3) array of {T} points.

        Upper-boundary points clamp into the last voxel; indices of
        outside points are clamped but flagged False in the mask.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        box = self.config.template_range
        inside = np.all((pts >= box.min_corner) & (pts <= box.max_corner), axis=1)
        idx = np.floor((pts - box.min_corner) / self.config.resolution).astype(np.int64)
        np.clip(idx, 0, np.array(self.config.dims) - 1, out=idx)
        return idx, inside

    def lookup(self, points: np.ndarray) -> np.ndarray:
        """Per-point frequency; outside the grid returns no_info_frequency."""
        idx, inside = self.voxel_indices(points)
        out = np.full(idx.shape[0], self.no_info_frequency, dtype=np.float64)
        if np.any(inside):
            ii = idx[inside]
            out[inside] = self.grid[ii[:, 0], ii[:, 1], ii[:, 2]]
        return out

    def in_row_mask(self) -> np.ndarray:
        """Boolean grid of voxels whose center lies inside row_range."""
        cfg = self.config
        nx, ny, nz = cfg.dims
        res = cfg.resolution
        lo = cfg.template_range.min_corner
        cx = lo[0] + (np.arange(nx) + 0.5) * res
        cy = lo[1] + (np.arange(ny) + 0.5) * res
        cz = lo[2] + (np.arange(nz) + 0.5) * res
        row = cfg.row_range
        mx = (cx >= row.min_corner[0]) & (cx <= row.max_corner[0])
        my = (cy >= row.min_corner[1]) & (cy <= row.max_corner[1])
        mz = (cz >= row.min_corner[2]) & (cz <= row.max_corner[2])
        return mx[:, None, None] & my[None, :, None] & mz[None, None, :]


def build_template(
    clouds_C: list[PointCloud],
    truths: list[GroundTruthPose],
    cfg: TemplateConfig,
    pre_cfg: PreprocessConfig = PreprocessConfig(),
) -> Template:
    """Accumulate per-frame voxel occupancy into a frequency grid.

    Per frame: preprocess, place the cloud in {T} using (roll, pitch,
    height) from the ground-plane fit and (y, theta) from ground truth,
    cut to the in-row region, and mark each occupied voxel once per frame.
    The final grid is the count divided by the number of frames, with the
    out-of-row region filled with no_info_frequency.
    """
    if len(clouds_C) != len(truths):
        raise ValueError(f"{len(clouds_C)} clouds vs {len(truths)} truth poses")
    if not clouds_C:
        raise ValueError("need at least one frame to build a template")

    dims = cfg.dims
    counts = np.zeros(dims, dtype=np.float64)
    empty = np.zeros(dims, dtype=np.float32)
    empty.flags.writeable = False  # no copy: the probe only supplies voxel geometry
    probe = Template(replace(cfg, no_info_frequency=0.0), empty, 0)
    n = len(clouds_C)
    for cloud, truth in zip(clouds_C, truths):
        frame = preprocess(cloud, pre_cfg)
        roll = truth.roll if truth.roll is not None else frame.roll
        pitch = truth.pitch if truth.pitch is not None else frame.pitch
        z = truth.z if truth.z is not None else frame.height
        T = make_pose_transform(truth.y, truth.theta, roll, pitch, z)
        cloud_T = transform_cloud(T, frame.cloud_V, frame="T")
        cloud_T = cutoff_filter(cloud_T, cfg.row_range)
        if len(cloud_T) == 0:
            continue
        idx, inside = probe.voxel_indices(cloud_T.points)
        idx = idx[inside]
        idx = idx[group_rows(idx)[1]]  # each occupied voxel once
        np.add.at(counts, (idx[:, 0], idx[:, 1], idx[:, 2]), 1.0)

    freq = counts / float(n)
    row_mask = probe.in_row_mask()
    no_info = cfg.no_info_frequency
    if no_info is None:
        # Half the geometric mean of occupied in-row frequencies: low
        # enough that a matched point scores better than "no info", so
        # proposals cannot profit by pushing structure out of the row.
        occupied = freq[row_mask & (freq > 0)]
        geo = float(np.exp(np.log(occupied).mean())) if occupied.size else 0.02
        no_info = float(np.clip(0.5 * geo, 1e-3, 0.5))
    freq = np.where(row_mask, freq, no_info)
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
    trange = Box3(np.array(fields[3:6]), np.array(fields[6:9]))
    rrange = Box3(np.array(fields[9:12]), np.array(fields[12:15]))
    no_info = fields[15]
    n_frames = fields[16]
    dims = fields[17:20]
    cfg = TemplateConfig(
        resolution=resolution,
        template_range=trange,
        row_range=rrange,
        no_info_frequency=no_info,
    )
    if cfg.dims != tuple(dims):
        raise TemplateFormatError(f"{path}: header dims {dims} inconsistent with extent {cfg.dims}")
    count = dims[0] * dims[1] * dims[2]
    expected = fixed.size + count * 4
    if len(raw) != expected:
        raise TemplateFormatError(f"{path}: expected {expected} bytes, got {len(raw)}")
    grid = np.frombuffer(raw, dtype="<f4", offset=fixed.size).reshape(dims)
    return Template(cfg, grid, n_frames)
