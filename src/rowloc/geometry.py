"""Coordinate frames, rigid transforms, and point-cloud preprocessing.

Frames:
    {C} camera frame; the sensor is the vehicle origin, so {C} coincides with {V}
    {V} vehicle/sensor frame
    {T} template frame: x along the row, origin on the centerline at the
        vehicle's along-row station, z = 0 on the ground
    {R} row frame: like {T} but anchored at the row start

Euler convention is Z*Y*X (yaw about z, then pitch about y, then roll
about x), shared by every module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _hypotheses as hyp


class DegenerateInputError(ValueError):
    """Raised when an input has too few / collinear points for a fit."""


class LowConfidenceFitError(RuntimeError):
    """Raised when a RANSAC fit falls below the inlier-ratio floor."""


@dataclass(frozen=True)
class PointCloud:
    """A set of 3D points (meters) tagged with a coordinate frame."""

    points: np.ndarray  # (N, 3) float64
    frame: str = "C"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {pts.shape}")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]

    def with_frame(self, frame: str) -> "PointCloud":
        return replace(self, frame=frame)


@dataclass(frozen=True)
class Pose6D:
    """Vehicle state [x, y, z, roll, pitch, yaw] in the row frame {R}."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    roll: float = 0.0
    pitch: float = 0.0
    yaw: float = 0.0

    def __post_init__(self):
        for name in ("roll", "pitch", "yaw"):
            object.__setattr__(self, name, normalize_angle(getattr(self, name)))


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) transform p' = R p + t."""

    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return pts @ self.rotation.T + self.translation

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))


@dataclass(frozen=True)
class Plane:
    """Plane in signed-distance form n . p = d with ||n|| = 1."""

    normal: np.ndarray  # (3,)
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=np.float64).reshape(3)
        norm = np.linalg.norm(n)
        if not math.isfinite(norm) or norm == 0.0:
            raise ValueError("plane normal must be nonzero and finite")
        object.__setattr__(self, "normal", n / norm)
        object.__setattr__(self, "offset", float(self.offset) / norm)

    def distance(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return pts @ self.normal - self.offset


@dataclass(frozen=True)
class Box3:
    """Axis-aligned box given by min/max corners (meters)."""

    min_corner: np.ndarray  # (3,)
    max_corner: np.ndarray  # (3,)

    def __post_init__(self):
        lo = np.asarray(self.min_corner, dtype=np.float64).reshape(3)
        hi = np.asarray(self.max_corner, dtype=np.float64).reshape(3)
        if np.any(lo > hi):
            raise ValueError(f"box min {lo} exceeds max {hi}")
        object.__setattr__(self, "min_corner", lo)
        object.__setattr__(self, "max_corner", hi)

    @staticmethod
    def from_ranges(x, y, z) -> "Box3":
        return Box3(np.array([x[0], y[0], z[0]]), np.array([x[1], y[1], z[1]]))

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return np.all((pts >= self.min_corner) & (pts <= self.max_corner), axis=1)

    def contains_box(self, other: "Box3") -> bool:
        return bool(
            np.all(other.min_corner >= self.min_corner)
            and np.all(other.max_corner <= self.max_corner)
        )

    @property
    def extent(self) -> np.ndarray:
        return self.max_corner - self.min_corner


def normalize_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    a = float(a) % (2.0 * math.pi)
    if a > math.pi:
        a -= 2.0 * math.pi
    return a


def rotation_from_euler(roll: float, pitch: float, yaw: float) -> RigidTransform:
    """Rotation-only transform, composed Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    ca, sa = math.cos(roll), math.sin(roll)
    cb, sb = math.cos(pitch), math.sin(pitch)
    ct, st = math.cos(yaw), math.sin(yaw)
    Rx = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]])
    Ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    Rz = np.array([[ct, -st, 0], [st, ct, 0], [0, 0, 1]])
    return RigidTransform(Rz @ Ry @ Rx, np.zeros(3))


def make_pose_transform(
    y: float, theta: float, alpha: float = 0.0, beta: float = 0.0, z: float = 0.0
) -> RigidTransform:
    """Vehicle-to-template transform for a pose hypothesis.

    Returns [R(alpha, beta, theta) | (0, y, z)]: applying it maps points
    measured in {V} into {T}.  The x-translation is zero by construction
    (the template frame shares the vehicle's along-row station).  Its
    inverse maps {T} back into {V}.
    """
    R = rotation_from_euler(alpha, beta, theta).rotation
    return RigidTransform(R, np.array([0.0, y, z]))


def transform_cloud(T: RigidTransform, cloud: PointCloud, frame: str | None = None) -> PointCloud:
    """Map every point p -> R p + t, preserving order."""
    return PointCloud(T.apply(cloud.points), frame if frame is not None else cloud.frame)


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Transform equivalent to applying b first, then a."""
    return RigidTransform(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def invert(T: RigidTransform) -> RigidTransform:
    Rt = T.rotation.T
    return RigidTransform(Rt, -Rt @ T.translation)


def cutoff_filter(cloud: PointCloud, box: Box3) -> PointCloud:
    """Keep exactly the points with min <= p <= max per axis."""
    if len(cloud) == 0:
        return cloud
    return PointCloud(cloud.points[box.contains(cloud.points)], cloud.frame)


def group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of an (N, k) integer array.

    Returns (inverse, first): inverse[i] is the group of row i, with groups
    in the lexicographic order np.unique(rows, axis=0) gives them, and
    first[g] is the index of a row of group g.
    """
    order = np.lexsort(rows.T[::-1])  # stable, first column most significant
    ordered = rows[order]
    starts = np.ones(rows.shape[0], dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    inverse = np.empty(rows.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return inverse, order[starts]


def voxel_downsample(cloud: PointCloud, leaf: float) -> PointCloud:
    """One centroid per occupied cell of a uniform grid anchored at the origin.

    Centroids come in lexicographic cell order; each cell's points are
    summed in input order.
    """
    if leaf <= 0:
        raise ValueError(f"leaf size must be positive, got {leaf}")
    pts = cloud.points
    if pts.shape[0] == 0:
        return cloud
    inverse, first = group_rows(np.floor(pts / leaf).astype(np.int64))
    n_cells = first.shape[0]
    sums = np.column_stack(
        [np.bincount(inverse, weights=pts[:, c], minlength=n_cells) for c in range(3)]
    )
    return PointCloud(sums / np.bincount(inverse)[:, None], cloud.frame)


def _plane_from_points(p0, p1, p2) -> Plane | None:
    n = np.cross(p1 - p0, p2 - p0)
    norm = np.linalg.norm(n)
    if norm < 1e-12:
        return None
    n = n / norm
    return Plane(n, float(n @ p0))


def _lsq_plane(points: np.ndarray) -> Plane:
    centroid = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - centroid, full_matrices=False)
    n = vt[-1]
    return Plane(n, float(n @ centroid))


def plane_to_attitude(plane: Plane) -> tuple[float, float, float]:
    """Roll, pitch, and sensor height implied by a ground plane in {V}.

    The normal is first flipped to point toward the sensor +z.  With the
    Z*Y*X convention the up direction seen from the vehicle is
    (-sin(pitch), sin(roll) cos(pitch), cos(roll) cos(pitch)).
    """
    n = plane.normal
    d = plane.offset
    if n[2] < 0:
        n, d = -n, -d
    pitch = math.asin(max(-1.0, min(1.0, -n[0])))
    roll = math.atan2(n[1], n[2])
    height = -d  # sensor sits at the origin of {V}
    return roll, pitch, height


def _plane_hypothesis(pts: np.ndarray, i: np.ndarray, min_nz: float, inlier_tol: float):
    """(plane, inlier count) of the 3-point hypothesis pts[i], or None if it
    is degenerate or tilted past min_nz: the per-hypothesis reference."""
    plane = _plane_from_points(pts[i[0]], pts[i[1]], pts[i[2]])
    if plane is None or abs(plane.normal[2]) < min_nz:
        return None
    return plane, int(np.count_nonzero(np.abs(plane.distance(pts)) <= inlier_tol))


def _best_plane_hypothesis(
    pts: np.ndarray, idx: np.ndarray, min_nz: float, inlier_tol: float
) -> tuple[int, int]:
    """(index, inlier count) of the first hypothesis in idx with the most
    inliers, as a loop over _plane_hypothesis picks it; (-1, -1) if none is
    admissible."""

    def exact(k):
        found = _plane_hypothesis(pts, idx[k], min_nz, inlier_tol)
        return -1 if found is None else found[1]

    if not np.isfinite(pts).all():  # no screen: decide each one as the loop did
        return hyp.first_max(idx.shape[0], lambda a, b: hyp.unknown(b - a), exact)
    margin = hyp.margin(pts)
    eps = hyp.SCREEN_EPS
    pts_h = hyp.homogeneous(pts)

    def screen(a, b):
        p = pts[idx[a:b]]  # (m, 3 points, 3)
        u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        n = u[:, [1, 2, 0]] * v[:, [2, 0, 1]] - u[:, [2, 0, 1]] * v[:, [1, 2, 0]]  # u x v
        norm = np.sqrt(np.einsum("ij,ij->i", n, n))
        n /= np.where(norm > 0.0, norm, 1.0)[:, None]
        dist = np.column_stack([n, -np.einsum("ij,ij->i", n, p[:, 0])]) @ pts_h.T
        lo, hi = hyp.count_bounds(dist, inlier_tol, margin)
        nz = np.abs(n[:, 2])
        unsure = ~np.isfinite(norm) | (norm <= 1e-12 + eps) | (np.abs(nz - min_nz) <= eps)
        tilted = (nz < min_nz) & ~unsure
        lo[tilted | unsure] = -1
        hi[tilted] = -1
        return lo, hi

    return hyp.first_max(idx.shape[0], screen, exact)


def ransac_ground_plane(
    cloud: PointCloud,
    iters: int = 200,
    inlier_tol: float = 0.05,
    seed: int = 0,
    min_inlier_ratio: float = 0.0,
    max_tilt: float = 0.6,
) -> tuple[Plane, float, float, float]:
    """Fit the ground plane by RANSAC and recover (roll, pitch, height).

    Keeps the 3-point hypothesis with the most inliers (ties: first
    found), then refits by least squares over its inliers.  Hypotheses
    tilted more than max_tilt radians from the sensor z-axis are
    rejected so dense canopy walls cannot masquerade as the ground.

    Exactness: hypotheses are scored in blocks with array operations, and
    those counts are only a screen.  A hypothesis with a point distance,
    |n_z| or cross-product norm within 1e-9 of its threshold is re-decided
    by the per-hypothesis code (`_plane_hypothesis`), and the winner is the
    first index with the largest exact count.  The chosen plane, and so the
    result, is bit-identical to a loop over the hypotheses one at a time.
    """
    pts = cloud.points
    n_pts = pts.shape[0]
    if n_pts < 3 or iters < 1:
        raise DegenerateInputError(f"need >= 3 points and >= 1 iteration, got {n_pts}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n_pts, size=(iters, 3))
    min_nz = math.cos(max_tilt)
    best_k, best_count = _best_plane_hypothesis(pts, idx, min_nz, inlier_tol)
    if best_k < 0:
        raise DegenerateInputError("no admissible (near-horizontal) plane hypothesis found")
    if best_count < min_inlier_ratio * n_pts:
        raise LowConfidenceFitError(
            f"best plane has {best_count}/{n_pts} inliers, "
            f"below floor {min_inlier_ratio:.2f}"
        )
    best_plane, _ = _plane_hypothesis(pts, idx[best_k], min_nz, inlier_tol)
    inliers = pts[np.abs(best_plane.distance(pts)) <= inlier_tol]
    plane = _lsq_plane(inliers)
    if plane.normal[2] < 0:
        plane = Plane(-plane.normal, -plane.offset)
    roll, pitch, height = plane_to_attitude(plane)
    return plane, roll, pitch, height


@dataclass(frozen=True)
class PreprocessConfig:
    """Knobs for the downsample + ground-plane pipeline."""

    leaf_size: float = 0.05
    ransac_iters: int = 200
    ransac_inlier_tol: float = 0.05
    ransac_seed: int = 0
    min_inlier_ratio: float = 0.0


@dataclass(frozen=True)
class PreprocessedFrame:
    """Downsampled cloud in {V} plus the RANSAC attitude estimates."""

    cloud_V: PointCloud
    roll: float
    pitch: float
    height: float


def finite_points(cloud: PointCloud) -> PointCloud:
    """The cloud without rows holding a NaN or infinite coordinate.

    Returns the cloud itself when every point is finite.
    """
    finite = np.isfinite(cloud.points)
    if finite.all():  # the common case; a whole-array test is ~20x cheaper
        return cloud
    return PointCloud(cloud.points[finite.all(axis=1)], cloud.frame)


def preprocess(cloud_C: PointCloud, cfg: PreprocessConfig = PreprocessConfig()) -> PreprocessedFrame:
    """Drop non-finite points, downsample, tag the cloud {V} (it coincides
    with {C}), and estimate (roll, pitch, height)."""
    cloud_V = voxel_downsample(finite_points(cloud_C), cfg.leaf_size).with_frame("V")
    _, roll, pitch, height = ransac_ground_plane(
        cloud_V,
        iters=cfg.ransac_iters,
        inlier_tol=cfg.ransac_inlier_tol,
        seed=cfg.ransac_seed,
        min_inlier_ratio=cfg.min_inlier_ratio,
    )
    return PreprocessedFrame(cloud_V, roll, pitch, height)
