"""Point-cloud row-following baselines used for head-to-head comparison.

baseline1: fit the ground plane, project non-ground points to it, split
by side, RANSAC-fit one line per side, and average the two lines into a
centerline.

baseline2: split by side, hypothesize parallel line pairs from random
point draws, keep the pair with minimum mean squared inlier distance;
optionally refine the lateral offset with a point-density histogram.

Both operate per frame with no temporal filtering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    PointCloud,
    PreprocessConfig,
    finite_points,
    preprocess,
    rotation_from_euler,
)


class SideMissingError(RuntimeError):
    """One row side has too few points to fit a line."""


@dataclass(frozen=True)
class BaselineParams:
    pre_cfg: PreprocessConfig = PreprocessConfig()
    ground_z_max: float = 0.15  # leveled points below this are ground
    ransac_iters: int = 200
    line_inlier_tol: float = 0.1
    n_pair_hypotheses: int = 500
    min_side_points: int = 8
    min_inlier_fraction: float = 0.3
    density_bin: float = 0.05


@dataclass(frozen=True)
class Line2:
    """2D line through `point` with unit `direction` (dx >= 0)."""

    point: np.ndarray  # (2,)
    direction: np.ndarray  # (2,)

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=np.float64).reshape(2)
        d = d / np.linalg.norm(d)
        if d[0] < 0:
            d = -d
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "point", np.asarray(self.point, dtype=np.float64).reshape(2))

    @property
    def normal(self) -> np.ndarray:
        d = self.direction
        return np.array([-d[1], d[0]])

    @property
    def offset(self) -> float:
        """c in the line equation n . p = c."""
        return float(self.normal @ self.point)

    def distance(self, points: np.ndarray) -> np.ndarray:
        return np.atleast_2d(points) @ self.normal - self.offset


@dataclass(frozen=True)
class RowLinePair:
    left: Line2
    right: Line2
    parallel: bool = True

    def __post_init__(self):
        if self.parallel:
            dl, dr = self.left.direction, self.right.direction
            cross = abs(float(dl[0] * dr[1] - dl[1] * dr[0]))
            if cross > 1e-9:
                raise ValueError(f"pair flagged parallel but directions differ by {cross}")


def _level_and_project(cloud_C: PointCloud, params: BaselineParams, raw: bool = False):
    """Ground-plane fit, leveling, and 2D projection of non-ground points.

    raw=True projects the full-resolution cloud (leveling still comes
    from the downsampled fit); density-based refinement needs the true
    point density, which voxel downsampling deliberately flattens.
    """
    frame = preprocess(cloud_C, params.pre_cfg)
    R = rotation_from_euler(frame.roll, frame.pitch, 0.0).rotation
    if raw:
        pts = params.pre_cfg.extrinsic.apply(finite_points(cloud_C).points)
    else:
        pts = frame.cloud_V.points
    leveled = pts @ R.T
    leveled[:, 2] += frame.height
    non_ground = leveled[leveled[:, 2] > params.ground_z_max]
    return non_ground[:, :2]


def _split_sides(xy: np.ndarray, params: BaselineParams):
    left = xy[xy[:, 1] > 0]
    right = xy[xy[:, 1] <= 0]
    if left.shape[0] < params.min_side_points or right.shape[0] < params.min_side_points:
        raise SideMissingError(
            f"side point counts {left.shape[0]}/{right.shape[0]} "
            f"below minimum {params.min_side_points}"
        )
    return left, right


def _refit_line(points: np.ndarray) -> Line2:
    centroid = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - centroid, full_matrices=False)
    return Line2(centroid, vt[0])


def _ransac_line(points: np.ndarray, params: BaselineParams, rng) -> Line2:
    n = points.shape[0]
    if n < 2:
        raise SideMissingError(f"need >= 2 points for a line, got {n}")
    best_count, best_inliers = -1, None
    pairs = rng.integers(0, n, size=(params.ransac_iters, 2))
    for i, j in pairs:
        if i == j:
            continue
        d = points[j] - points[i]
        if np.linalg.norm(d) < 1e-9:
            continue
        line = Line2(points[i], d)
        dist = np.abs(line.distance(points))
        count = int(np.count_nonzero(dist <= params.line_inlier_tol))
        if count > best_count:
            best_count = count
            best_inliers = dist <= params.line_inlier_tol
    if best_inliers is None or best_count < 2:
        raise SideMissingError("no valid line hypothesis found")
    return _refit_line(points[best_inliers])


def _centerline_to_pose(direction: np.ndarray, offset: float) -> tuple[float, float]:
    """(y, theta) of the vehicle given the centerline n . p = offset."""
    theta = -math.atan2(direction[1], direction[0])
    return -offset, theta


def baseline1(cloud_C: PointCloud, params: BaselineParams = BaselineParams(), seed: int = 0):
    """Twin RANSAC row lines after ground-plane projection -> (y, theta)."""
    rng = np.random.default_rng(seed)
    xy = _level_and_project(cloud_C, params)
    left_pts, right_pts = _split_sides(xy, params)
    left = _ransac_line(left_pts, params, rng)
    right = _ransac_line(right_pts, params, rng)
    direction = left.direction + right.direction
    direction /= np.linalg.norm(direction)
    normal = np.array([-direction[1], direction[0]])
    offset = 0.5 * (float(normal @ left.point) + float(normal @ right.point))
    y, theta = _centerline_to_pose(direction, offset)
    return y, theta


def baseline2(cloud_C: PointCloud, params: BaselineParams = BaselineParams(), seed: int = 0):
    """Parallel-line-pair fit -> (y, theta, RowLinePair)."""
    rng = np.random.default_rng(seed)
    xy = _level_and_project(cloud_C, params)
    left_pts, right_pts = _split_sides(xy, params)

    best = None
    best_score = math.inf
    for it in range(params.n_pair_hypotheses):
        # alternate which side supplies the direction
        src, other = (left_pts, right_pts) if it % 2 == 0 else (right_pts, left_pts)
        i, j = rng.integers(0, src.shape[0], 2)
        k = rng.integers(0, other.shape[0])
        d = src[j] - src[i]
        if np.linalg.norm(d) < 1e-9:
            continue
        line_a = Line2(src[i], d)
        line_b = Line2(other[k], d)
        if it % 2 == 0:
            left_line, right_line = line_a, line_b
        else:
            left_line, right_line = line_b, line_a
        score = 0.0
        ok = True
        for line, pts in ((left_line, left_pts), (right_line, right_pts)):
            dist = line.distance(pts)
            inl = np.abs(dist) <= params.line_inlier_tol
            if np.count_nonzero(inl) < params.min_inlier_fraction * pts.shape[0]:
                ok = False
                break
            score += float(np.mean(dist[inl] ** 2))
        if ok and score < best_score:
            best_score = score
            best = RowLinePair(left_line, right_line)
    if best is None:
        raise SideMissingError("no parallel line pair satisfied the inlier floor")

    direction = best.left.direction
    offset = 0.5 * (best.left.offset + best.right.offset)
    y, theta = _centerline_to_pose(direction, offset)
    return y, theta, best


def baseline2_refine_offset(
    cloud_C: PointCloud, pair: RowLinePair, params: BaselineParams = BaselineParams()
) -> float:
    """Density-refined lateral offset: snap each line to its distance-histogram peak."""
    xy = _level_and_project(cloud_C, params, raw=True)
    if xy.shape[0] == 0:
        raise SideMissingError("no points to build a density histogram from")
    dist_left = pair.left.distance(xy)
    dist_right = pair.right.distance(xy)
    near_left = np.abs(dist_left) <= np.abs(dist_right)

    offsets = []
    for line, dist, mask in (
        (pair.left, dist_left, near_left),
        (pair.right, dist_right, ~near_left),
    ):
        d = dist[mask]
        d = d[np.abs(d) <= 1.0]
        if d.size == 0:
            raise SideMissingError("empty density histogram for one row side")
        bins = np.arange(-1.0, 1.0 + params.density_bin, params.density_bin)
        hist, edges = np.histogram(d, bins=bins)
        peak = int(np.argmax(hist))
        delta = 0.5 * (edges[peak] + edges[peak + 1])
        offsets.append(line.offset + delta)
    return -0.5 * (offsets[0] + offsets[1])
