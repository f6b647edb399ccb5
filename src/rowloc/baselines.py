"""Point-cloud row-following baselines used for head-to-head comparison.

baseline1: fit the ground plane, project non-ground points to it, split
by side, RANSAC-fit one line per side, and average the two lines into a
centerline.

baseline2: split by side, hypothesize parallel line pairs from random
point draws, keep the pair with minimum mean squared inlier distance;
optionally refine the lateral offset with a point-density histogram.

Both operate per frame with no temporal filtering.  Their hypothesis
loops are scored in blocks with array operations and re-decided by the
per-hypothesis code near every threshold (see _hypotheses.py), so they
choose the same hypothesis as a loop over one hypothesis at a time.
baseline1's line fits share the ground fit's search,
`_hypotheses.first_max_inliers`; baseline2's minimum-score pair search
has its own screen (`_pair_screen`).  Their draw counts and baseline2's
inlier floor are the module constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _hypotheses as hyp
from .geometry import (
    PointCloud,
    PreprocessConfig,
    preprocess,
    rotation_from_euler,
    voxelizable_points,
)


# leveled points at or below this height (m) are ground
GROUND_Z_MAX = 0.15
# a side with fewer non-ground points has no row line
MIN_SIDE_POINTS = 8
# the density histogram's bin width (m); its bins span +-1 m about each line
DENSITY_BIN = 0.05
_DENSITY_BINS = np.arange(-1.0, 1.0 + DENSITY_BIN, DENSITY_BIN)
# 2-point hypotheses of each of baseline1's line fits
LINE_ITERS = 200
# baseline2's pair hypotheses, and the fraction of each side's points a
# pair's line must hold within line_inlier_tol
PAIR_ITERS = 500
MIN_INLIER_FRACTION = 0.3


class SideMissingError(RuntimeError):
    """One row side has too few points to fit a line."""


@dataclass(frozen=True)
class BaselineParams:
    pre_cfg: PreprocessConfig = PreprocessConfig()
    line_inlier_tol: float = 0.1


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
    """Two parallel row lines."""

    left: Line2
    right: Line2

    def __post_init__(self):
        dl, dr = self.left.direction, self.right.direction
        cross = abs(float(dl[0] * dr[1] - dl[1] * dr[0]))
        if cross > 1e-9:
            raise ValueError(f"row lines are not parallel: directions differ by {cross}")


def _level_and_project(cloud_C: PointCloud, params: BaselineParams, raw: bool = False):
    """Ground-plane fit, leveling, and 2D projection of non-ground points.

    raw=True projects the full-resolution cloud (leveling still comes
    from the downsampled fit); density-based refinement needs the true
    point density, which voxel downsampling deliberately flattens.
    """
    frame = preprocess(cloud_C, params.pre_cfg)
    R = rotation_from_euler(frame.roll, frame.pitch, 0.0).rotation
    if raw:
        pts = voxelizable_points(cloud_C, params.pre_cfg.leaf_size).points
    else:
        pts = frame.cloud_V.points
    leveled = pts @ R.T
    leveled[:, 2] += frame.height
    non_ground = leveled[leveled[:, 2] > GROUND_Z_MAX]
    return non_ground[:, :2]


def _split_sides(xy: np.ndarray):
    left = xy[xy[:, 1] > 0]
    right = xy[xy[:, 1] <= 0]
    if left.shape[0] < MIN_SIDE_POINTS or right.shape[0] < MIN_SIDE_POINTS:
        raise SideMissingError(
            f"side point counts {left.shape[0]}/{right.shape[0]} "
            f"below minimum {MIN_SIDE_POINTS}"
        )
    return left, right


def _refit_line(points: np.ndarray) -> Line2:
    centroid = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - centroid, full_matrices=False)
    return Line2(centroid, vt[0])


def _line_hypothesis(points: np.ndarray, i: int, j: int, tol: float):
    """Inlier mask of the line through points[i] and points[j], or None if
    the pair is degenerate: the per-hypothesis reference."""
    if i == j:
        return None
    d = points[j] - points[i]
    if np.linalg.norm(d) < 1e-9:
        return None
    line = Line2(points[i], d)
    return np.abs(line.distance(points)) <= tol


def _best_line_hypothesis(points: np.ndarray, pairs: np.ndarray, tol: float) -> tuple[int, int]:
    """(index, inlier count) of the first pair with the most inliers, as a
    loop over _line_hypothesis picks it; (-1, -1) if every pair is degenerate.

    A pair whose direction norm is within the screen margin of the 1e-9
    cut, i == j among them, is re-decided by the scalar code."""

    def exact(k):
        mask = _line_hypothesis(points, pairs[k, 0], pairs[k, 1], tol)
        return -1 if mask is None else int(np.count_nonzero(mask))

    i, j = pairs[:, 0], pairs[:, 1]
    d = points[j] - points[i]
    norm = np.sqrt(np.einsum("ij,ij->i", d, d))
    normal = np.column_stack([-d[:, 1], d[:, 0]]) / np.where(norm > 0.0, norm, 1.0)[:, None]
    lines = np.column_stack([normal, -np.einsum("ij,ij->i", normal, points[i])])
    unsure = norm <= 1e-9 + hyp.SCREEN_EPS
    return hyp.first_max_inliers(points, lines, unsure, tol, exact)


def _ransac_line(points: np.ndarray, tol: float, rng) -> Line2:
    """RANSAC line over LINE_ITERS 2-point hypotheses, refit to the best
    one's inliers.

    Exactness: the hypotheses are screened in blocks; any with a point
    distance within 1e-9 of tol, or a direction norm within 1e-9 of the
    1e-9 cut, is re-decided by `_line_hypothesis`, and the first pair with
    the largest exact count wins.  The line is the one a loop over the
    pairs one at a time returns, bit for bit.  The points must be finite,
    as every leveled, projected cloud is.
    """
    n = points.shape[0]
    if n < 2:
        raise SideMissingError(f"need >= 2 points for a line, got {n}")
    pairs = rng.integers(0, n, size=(LINE_ITERS, 2))
    best_k, best_count = _best_line_hypothesis(points, pairs, tol)
    if best_k < 0 or best_count < 2:
        raise SideMissingError("no valid line hypothesis found")
    return _refit_line(points[_line_hypothesis(points, pairs[best_k, 0], pairs[best_k, 1], tol)])


def _centerline_to_pose(direction: np.ndarray, offset: float) -> tuple[float, float]:
    """(y, theta) of the vehicle given the centerline n . p = offset."""
    theta = -math.atan2(direction[1], direction[0])
    return -offset, theta


def baseline1(cloud_C: PointCloud, params: BaselineParams = BaselineParams(), seed: int = 0):
    """Twin RANSAC row lines after ground-plane projection -> (y, theta)."""
    rng = np.random.default_rng(seed)
    xy = _level_and_project(cloud_C, params)
    left_pts, right_pts = _split_sides(xy)
    left = _ransac_line(left_pts, params.line_inlier_tol, rng)
    right = _ransac_line(right_pts, params.line_inlier_tol, rng)
    direction = left.direction + right.direction
    direction /= np.linalg.norm(direction)
    normal = np.array([-direction[1], direction[0]])
    offset = 0.5 * (float(normal @ left.point) + float(normal @ right.point))
    y, theta = _centerline_to_pose(direction, offset)
    return y, theta


def _pair_draws(rng, n_left: int, n_right: int, n: int) -> np.ndarray:
    """(i, j, k) of n pair hypotheses: i and j on the side giving the
    direction (left on even iterations, right on odd), k on the other side.

    One draw with per-element bounds gives the same numbers, from the same
    generator stream, as the per-iteration calls
    `rng.integers(0, n_src, 2); rng.integers(0, n_other)`.
    """
    highs = np.empty((n, 3), dtype=np.int64)
    highs[0::2] = (n_left, n_left, n_right)
    highs[1::2] = (n_right, n_right, n_left)
    return rng.integers(0, highs)


def _pair_hypothesis(left_pts, right_pts, it: int, i: int, j: int, k: int, tol: float,
                     floor: float):
    """(score, pair) of pair hypothesis `it`, or None if it is degenerate or
    a side holds fewer than `floor` of its points within `tol`: the
    per-hypothesis reference.  The score is NaN when a side has no inliers
    and the floor is 0."""
    # alternate which side supplies the direction
    src, other = (left_pts, right_pts) if it % 2 == 0 else (right_pts, left_pts)
    d = src[j] - src[i]
    if np.linalg.norm(d) < 1e-9:
        return None
    line_a = Line2(src[i], d)
    line_b = Line2(other[k], d)
    left_line, right_line = (line_a, line_b) if it % 2 == 0 else (line_b, line_a)
    score = 0.0
    for line, pts in ((left_line, left_pts), (right_line, right_pts)):
        dist = line.distance(pts)
        inl = np.abs(dist) <= tol
        if np.count_nonzero(inl) < floor * pts.shape[0]:
            return None
        score += float(np.mean(dist[inl] ** 2))
    return score, RowLinePair(left_line, right_line)


def _pair_screen(left_pts, right_pts, draws: np.ndarray, tol: float, floor: float,
                 margin: float):
    """Screened score of every pair hypothesis (inf: rejected), and a mask of
    the hypotheses the screen cannot decide."""
    n_left = left_pts.shape[0]
    both = np.concatenate([left_pts, right_pts])
    sides = [(left_pts.shape[0], hyp.homogeneous(left_pts)),
             (right_pts.shape[0], hyp.homogeneous(right_pts))]
    n = draws.shape[0]
    scores = np.empty(n)
    unsure = np.empty(n, dtype=bool)
    for a in range(0, n, hyp.BLOCK):
        b = min(a + hyp.BLOCK, n)
        even = np.arange(a, b) % 2 == 0
        src = np.where(even, 0, n_left)  # offsets of each side's rows in `both`
        other = np.where(even, n_left, 0)
        p_i = both[draws[a:b, 0] + src]
        p_k = both[draws[a:b, 2] + other]
        d = both[draws[a:b, 1] + src] - p_i
        norm = np.sqrt(np.einsum("ij,ij->i", d, d))
        normal = np.column_stack([-d[:, 1], d[:, 0]]) / np.where(norm > 0.0, norm, 1.0)[:, None]
        ok = norm > 1e-9 + hyp.SCREEN_EPS
        undecided = ~ok
        total = np.zeros(b - a)
        anchors = (np.where(even[:, None], p_i, p_k), np.where(even[:, None], p_k, p_i))
        for (n_side, side_h), anchor in zip(sides, anchors):
            offset = np.einsum("ij,ij->i", normal, anchor)
            dist = np.column_stack([normal, -offset]) @ side_h.T
            lo, hi = hyp.count_bounds(dist, tol, margin)  # dist is now |dist|
            undecided |= lo != hi
            ok &= (lo >= floor * n_side) & (lo > 0)
            dist *= dist <= tol
            total += np.einsum("ij,ij->i", dist, dist) / np.maximum(lo, 1)
        scores[a:b] = np.where(ok, total, math.inf)
        unsure[a:b] = undecided
    return scores, unsure


def _best_pair_hypothesis(left_pts, right_pts, draws: np.ndarray, tol: float, floor: float):
    """(index, pair) of the first hypothesis with the smallest score, as a
    loop over _pair_hypothesis picks it; (-1, None) if none is valid."""
    found = {}

    def exact(k):
        if k not in found:
            found[k] = _pair_hypothesis(left_pts, right_pts, k, *draws[k], tol, floor)
        hit = found[k]
        return hit[0] if hit is not None and hit[0] < math.inf else math.inf  # NaN never wins

    margin = hyp.margin(np.concatenate([left_pts, right_pts]))
    scores, unsure = _pair_screen(left_pts, right_pts, draws, tol, floor, margin)
    for u in np.flatnonzero(unsure):
        scores[u] = exact(int(u))
    best = scores.min() if scores.size else math.inf
    if best == math.inf:
        return -1, None
    # A screened score is within relative `rel` (summation order) plus
    # `slack` (distances within `margin`, inliers within the tolerance, both
    # sides) of its exact value, so only hypotheses this close to the best
    # can be the winner.
    rel = hyp.SCREEN_EPS + 2.0 * (left_pts.shape[0] + right_pts.shape[0] + 3) * np.finfo(float).eps
    slack = 2.0 * (2.0 * tol * margin + margin**2)
    near = np.flatnonzero(scores * (1.0 - rel) <= best * (1.0 + rel) + 2.0 * slack)
    k = min((int(c) for c in near), key=lambda c: (exact(c), c))
    return k, found[k][1]


def baseline2(cloud_C: PointCloud, params: BaselineParams = BaselineParams(), seed: int = 0):
    """Parallel-line-pair fit -> (y, theta, RowLinePair).

    Keeps the first of PAIR_ITERS pair hypotheses with the smallest mean
    squared inlier distance, among those whose lines each hold at least
    MIN_INLIER_FRACTION of their side's points.  Exactness: every
    hypothesis is scored in blocks with array operations, and those scores
    are a screen.  A hypothesis with a point distance within 1e-9 of
    line_inlier_tol, or a direction norm within 1e-9 of the 1e-9 cut, is
    re-decided by `_pair_hypothesis`, and so is every hypothesis whose
    score lies within relative 1e-9 (plus the distance margin's share) of
    the smallest.  The first of those with the smallest exact score wins,
    so the pair is bit-identical to the one a loop over the hypotheses one
    at a time returns.
    """
    rng = np.random.default_rng(seed)
    xy = _level_and_project(cloud_C, params)
    left_pts, right_pts = _split_sides(xy)
    draws = _pair_draws(rng, left_pts.shape[0], right_pts.shape[0], PAIR_ITERS)
    _, best = _best_pair_hypothesis(left_pts, right_pts, draws, params.line_inlier_tol,
                                    MIN_INLIER_FRACTION)
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
        hist, edges = np.histogram(d, bins=_DENSITY_BINS)
        peak = int(np.argmax(hist))
        delta = 0.5 * (edges[peak] + edges[peak + 1])
        offsets.append(line.offset + delta)
    return -0.5 * (offsets[0] + offsets[1])
