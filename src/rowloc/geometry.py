"""Coordinate frames, rigid transforms, and point-cloud preprocessing.

Frames:
    {C} camera frame; the sensor is the vehicle origin, so {C} coincides with {V}
    {V} vehicle/sensor frame
    {T} template frame: x along the row, origin on the centerline at the
        vehicle's along-row station, z = 0 on the ground
    {R} row frame: like {T} but anchored at the row start

A `PointCloud` carries no frame: the suffix of the name it is bound to
says which (`cloud_C`, `cloud_V`, `cloud_T`).

Euler convention is Z*Y*X (yaw about z, then pitch about y, then roll
about x), shared by every module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _hypotheses as hyp

# ransac_ground_plane's hypothesis count, generator seed, and largest tilt
# (rad) of an admissible plane from the sensor z-axis
GROUND_ITERS = 200
GROUND_SEED = 0
GROUND_MAX_TILT = 0.6


class DegenerateInputError(ValueError):
    """Raised when an input has too few / collinear points for a fit."""


class LowConfidenceFitError(RuntimeError):
    """Nothing raises this: `ransac_ground_plane` has no inlier floor.

    It stays only because `perfbench/workloads.py` imports it, and goes
    with that import.
    """


@dataclass(frozen=True)
class PointCloud:
    """A set of 3D points (meters), in the frame its name's suffix says."""

    points: np.ndarray  # (N, 3) float64

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {pts.shape}")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]


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


def transform_cloud(T: RigidTransform, cloud: PointCloud) -> PointCloud:
    """Map every point p -> R p + t, preserving order: the cloud in T's
    target frame, which the caller's name for the result says."""
    return PointCloud(T.apply(cloud.points))


def invert(T: RigidTransform) -> RigidTransform:
    Rt = T.rotation.T
    return RigidTransform(Rt, -Rt @ T.translation)


def cutoff_filter(cloud: PointCloud, box: Box3) -> PointCloud:
    """Keep exactly the points with min <= p <= max per axis."""
    if len(cloud) == 0:
        return cloud
    return PointCloud(cloud.points[box.contains(cloud.points)])


def _packed_key(rows: np.ndarray) -> np.ndarray | None:
    """One int64 per row of an (N, k) int64 array, ordered as the rows
    are lexicographically; None if N = 0 or the columns' spans multiply
    past int64.

    Each column is offset by its minimum and the columns are read as the
    digits of a mixed-radix number whose radices are the column spans.
    """
    if rows.shape[0] == 0:
        return None
    lo = rows.min(axis=0)
    spans = [h - l + 1 for h, l in zip(rows.max(axis=0).tolist(), lo.tolist())]
    if math.prod(spans) > np.iinfo(np.int64).max:
        return None
    # every partial key is below the product of the spans read so far, so
    # no step overflows (a column minus its minimum fits: its span does)
    key = rows[:, 0] - lo[0]
    for c in range(1, rows.shape[1]):
        key *= spans[c]
        key += rows[:, c] - lo[c]
    return key


def group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of an (N, k) int64 array.

    Returns (inverse, first): inverse[i] is the group of row i, with groups
    in the lexicographic order np.unique(rows, axis=0) gives them, and
    first[g] is the index of the first row of group g.

    np.unique groups the rows' packed int64 keys (`_packed_key`), which
    order as the rows do; rows too wide to pack are grouped whole.
    """
    key = _packed_key(rows)
    if key is None:
        _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        return inverse.reshape(-1), first
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return inverse, first


def _check_leaf(leaf: float) -> None:
    if not (math.isfinite(leaf) and leaf > 0):
        raise ValueError(f"leaf size must be finite and positive, got {leaf}")


def voxel_downsample(cloud: PointCloud, leaf: float) -> PointCloud:
    """One centroid per occupied cell of a uniform grid anchored at the origin.

    Centroids come in lexicographic cell order; each cell's points are
    summed in input order.
    """
    _check_leaf(leaf)
    pts = cloud.points
    if pts.shape[0] == 0:
        return cloud
    inverse, first = group_rows(np.floor(pts / leaf).astype(np.int64))
    n_cells = first.shape[0]
    sums = np.column_stack(
        [np.bincount(inverse, weights=pts[:, c], minlength=n_cells) for c in range(3)]
    )
    return PointCloud(sums / np.bincount(inverse)[:, None])


def _plane_from_points(p0, p1, p2) -> Plane | None:
    # u x v in np.cross's own operation order, on floats: the same bits in
    # a fraction of np.cross's time
    (u0, u1, u2), (v0, v1, v2) = (p1 - p0).tolist(), (p2 - p0).tolist()
    n = np.array([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0])
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
    admissible.  pts must be finite.

    Every hypothesis's normal is computed up front, and one that is surely
    tilted past min_nz is dropped before any point distance is computed:
    the loop rejects it whatever its count.  The rest keep their order, so
    the first largest count is the loop's.  A hypothesis within the screen
    margin of a threshold stays in, to be re-decided by the scalar code.
    """
    p = pts[idx]  # (hypotheses, 3 points, 3)
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    n = u[:, [1, 2, 0]] * v[:, [2, 0, 1]] - u[:, [2, 0, 1]] * v[:, [1, 2, 0]]  # u x v
    norm = np.sqrt(np.einsum("ij,ij->i", n, n))
    n /= np.where(norm > 0.0, norm, 1.0)[:, None]
    eps = hyp.SCREEN_EPS
    nz = np.abs(n[:, 2])
    unsure = ~np.isfinite(norm) | (norm <= 1e-12 + eps) | (np.abs(nz - min_nz) <= eps)
    kept = np.flatnonzero((nz >= min_nz) | unsure)
    planes = np.column_stack([n, -np.einsum("ij,ij->i", n, p[:, 0])])[kept]

    def exact(k):
        found = _plane_hypothesis(pts, idx[kept[k]], min_nz, inlier_tol)
        return -1 if found is None else found[1]

    k, count = hyp.first_max_inliers(pts, planes, unsure[kept], inlier_tol, exact)
    return (int(kept[k]) if k >= 0 else -1), count


def ransac_ground_plane(
    cloud: PointCloud, inlier_tol: float = 0.05
) -> tuple[Plane, float, float, float]:
    """Fit the ground plane by RANSAC and recover (roll, pitch, height).

    Draws GROUND_ITERS 3-point hypotheses from a generator seeded with
    GROUND_SEED, so the fit is deterministic.  Keeps the hypothesis with the
    most inliers (ties: first found), then refits by least squares over its
    inliers.  Hypotheses tilted more than GROUND_MAX_TILT radians from the
    sensor z-axis are rejected so dense canopy walls cannot masquerade as
    the ground.  A cloud with a non-finite point raises DegenerateInputError
    (`preprocess` drops such points first).

    Exactness: the normals of all hypotheses are computed at once, and a
    tilted one is rejected before any point distance is computed.  The
    others are scored in blocks by `_hypotheses.first_max_inliers`, whose
    counts are only a screen.  A hypothesis with a point distance, |n_z| or
    cross-product norm within 1e-9 of its threshold is re-decided by the
    per-hypothesis code (`_plane_hypothesis`), and the winner is the first
    index with the largest exact count.  The chosen plane, and so the
    result, is bit-identical to a loop over the hypotheses one at a time.
    """
    pts = cloud.points
    n_pts = pts.shape[0]
    if n_pts < 3:
        raise DegenerateInputError(f"need >= 3 points, got {n_pts}")
    if not np.isfinite(pts).all():
        raise DegenerateInputError("cloud has a non-finite point")
    idx = np.random.default_rng(GROUND_SEED).integers(0, n_pts, size=(GROUND_ITERS, 3))
    min_nz = math.cos(GROUND_MAX_TILT)
    best_k, _ = _best_plane_hypothesis(pts, idx, min_nz, inlier_tol)
    if best_k < 0:
        raise DegenerateInputError("no admissible (near-horizontal) plane hypothesis found")
    best_plane, _ = _plane_hypothesis(pts, idx[best_k], min_nz, inlier_tol)
    inliers = pts[np.abs(best_plane.distance(pts)) <= inlier_tol]
    plane = _lsq_plane(inliers)
    if plane.normal[2] < 0:
        plane = Plane(-plane.normal, -plane.offset)
    roll, pitch, height = plane_to_attitude(plane)
    return plane, roll, pitch, height


@dataclass(frozen=True)
class PreprocessConfig:
    """The downsampling leaf (m) of the preprocessing pipeline.

    The ground fit is `ransac_ground_plane` with its fixed draws
    (GROUND_ITERS hypotheses from GROUND_SEED) and its 0.05 m inlier band.
    So `preprocess` is deterministic.
    """

    leaf_size: float = 0.05

    def __post_init__(self):
        _check_leaf(self.leaf_size)


@dataclass(frozen=True)
class PreprocessedFrame:
    """Downsampled cloud in {V} plus the RANSAC attitude estimates."""

    cloud_V: PointCloud
    roll: float
    pitch: float
    height: float


def voxelizable_points(cloud: PointCloud, leaf: float) -> PointCloud:
    """The cloud without the rows a grid of `leaf` cells cannot index: a
    NaN or infinite coordinate, or one 2**62 cells or more from the
    origin, whose int64 cell index could overflow.

    Returns the cloud itself when every point is kept.
    """
    pts = cloud.points
    bound = leaf * 2.0**62
    # the common case, tested without a temporary; a NaN fails both tests
    if pts.size == 0 or (-bound < pts.min() and pts.max() < bound):
        return cloud
    return PointCloud(pts[np.all(np.abs(pts) < bound, axis=1)])


# preprocess's last successful call: ((cfg, points bytes), frame).  The points
# are (N, 3) float64, so their bytes fix their shape.
_last_call = None


def preprocess(cloud_C: PointCloud, cfg: PreprocessConfig = PreprocessConfig()) -> PreprocessedFrame:
    """Drop the points no voxel grid can index (`voxelizable_points`),
    downsample into {V} (it coincides with {C}), and estimate
    (roll, pitch, height).

    The last successful call is remembered: a call with an equal config and
    points equal byte for byte (so +0.0 and -0.0 differ, and a NaN matches
    only its own payload) returns that same frame, whose points are
    read-only.  `preprocess` is deterministic, so the frame is the one a
    fresh call would give; estimators that share a frame (the methods of
    eval-compare, run frame by frame) preprocess it once.  A call that
    raises is not remembered, and the memo is replaced as one tuple, so
    threads may share it.
    """
    global _last_call
    key = (cfg, cloud_C.points.tobytes())
    last = _last_call
    if last is not None and last[0] == key:
        return last[1]
    kept = voxelizable_points(cloud_C, cfg.leaf_size)
    cloud_V = voxel_downsample(kept, cfg.leaf_size)
    _, roll, pitch, height = ransac_ground_plane(cloud_V)
    cloud_V.points.flags.writeable = False  # a fresh array: voxel_downsample built it
    frame = PreprocessedFrame(cloud_V, roll, pitch, height)
    _last_call = (key, frame)
    return frame
