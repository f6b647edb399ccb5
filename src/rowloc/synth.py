"""Synthetic orchard scenes and sensor simulation.

The world model is a tagged point set in the row frame {R}: two canopy
rows (trellised "wall" slabs or per-tree ellipsoidal "blobs") plus a
ground plane.  A simulated ranging sensor with a rectangular FOV and
range-proportional depth noise samples it; degradation operators
reproduce missing-tree, row-end, and curved-row conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import PointCloud, Pose6D, rotation_from_euler
from .mcl import OdometryDelta

TAG_GROUND = 0
TAG_LEFT = 1
TAG_RIGHT = 2

# the ground extends this far (m) beyond each row line
GROUND_MARGIN = 2.0
# unit trees: 1 m canopy units per row side, at 0 <= x < UNITS_PER_SIDE
UNITS_PER_SIDE = 20


@dataclass(frozen=True)
class OrchardSpec:
    """Parametric row geometry and canopy statistics."""

    row_spacing: float = 3.0
    plant_spacing: float = 1.8
    row_length: float = 90.0
    profile: str = "wall"  # "wall" (trellised slab) or "blob" (per-tree ellipsoid)
    canopy_height: float = 2.2
    canopy_thickness: float = 0.4
    blob_radii: tuple[float, float, float] = (1.2, 1.0, 1.0)
    trunk_height: float = 0.8
    foliage_density: float = 40.0  # points/m^2 (wall) or points/m^3 (blob)
    # wall canopy is denser near each plant head: density along the row is
    # proportional to 1 + clump_amplitude * cos(2 pi (x - head) / spacing)
    clump_amplitude: float = 0.8
    ground_density: float = 8.0  # points/m^2

    def __post_init__(self):
        if self.row_spacing <= 0 or self.plant_spacing <= 0 or self.row_length <= 0:
            raise ValueError("spacings and length must be positive")
        if self.foliage_density < 0 or self.ground_density < 0:
            raise ValueError("densities must be nonnegative")
        if self.profile not in ("wall", "blob"):
            raise ValueError(f"unknown canopy profile {self.profile!r}")
        if not 0.0 <= self.clump_amplitude <= 1.0:
            raise ValueError(f"clump_amplitude must be in [0, 1], got {self.clump_amplitude}")


def vineyard_preset(**overrides) -> OrchardSpec:
    """Trellised rows: 3 m spacing, 2.2 m walls, plants every 1.8 m."""
    return replace(OrchardSpec(), **overrides)


def apricot_preset(**overrides) -> OrchardSpec:
    """Irregular blob canopies: 5 m spacing, trees every 2.5 m, 50 m rows."""
    base = OrchardSpec(
        row_spacing=5.0,
        plant_spacing=2.5,
        row_length=50.0,
        profile="blob",
        canopy_height=3.0,
        blob_radii=(1.2, 1.0, 1.0),
        trunk_height=0.8,
        foliage_density=14.0,
    )
    return replace(base, **overrides)


@dataclass(frozen=True)
class SensorSpec:
    """Forward-looking ranging sensor with a rectangular FOV."""

    hfov: float = math.radians(90.0)
    vfov: float = math.radians(60.0)
    max_range: float = 20.0
    noise_coeff: float = 0.02 / 3.0  # sigma(d) = noise_coeff * d^2 ...
    noise_cap_fraction: float = 0.04  # ... capped at this fraction of d
    mount_height: float = 1.0

    def __post_init__(self):
        if not 0 < self.hfov < math.pi or not 0 < self.vfov < math.pi:
            raise ValueError("FOV angles must be in (0, pi)")
        if self.max_range <= 0:
            raise ValueError("max range must be positive")

    def sigma(self, distances: np.ndarray) -> np.ndarray:
        d = np.asarray(distances, dtype=np.float64)
        return np.minimum(self.noise_coeff * d * d, self.noise_cap_fraction * d)


@dataclass(frozen=True)
class TrajectorySpec:
    """Sinusoidal sweep along the row at constant speed."""

    speed: float = 1.0
    frame_rate: float = 15.0
    amplitude: float = 0.3
    wavelength: float = 20.0
    vehicle_half_width: float = 0.4

    def __post_init__(self):
        if self.speed <= 0 or self.frame_rate <= 0 or self.wavelength <= 0:
            raise ValueError("speed, frame rate and wavelength must be positive")


@dataclass(frozen=True)
class OrchardScene:
    """Tagged master point set in {R}."""

    spec: OrchardSpec
    points: np.ndarray  # (N, 3)
    tags: np.ndarray  # (N,) TAG_* values
    plant_index: np.ndarray  # (N,) int, -1 for ground

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=np.float64).reshape(-1, 3))


def _clumped_unit(rng: np.random.Generator, n: int, amplitude: float) -> np.ndarray:
    """Samples in [0, 1] with density 1 + amplitude * cos(2 pi (u - 0.5)).

    Rejection sampling; amplitude 0 reduces to a uniform draw.
    """
    if amplitude == 0.0:
        return rng.uniform(0.0, 1.0, n)
    out = np.empty(n)
    filled = 0
    while filled < n:
        m = 2 * (n - filled) + 8
        u = rng.uniform(0.0, 1.0, m)
        accept = rng.uniform(0.0, 1.0, m) * (1.0 + amplitude) <= 1.0 + amplitude * np.cos(
            2.0 * math.pi * (u - 0.5)
        )
        got = u[accept][: n - filled]
        out[filled : filled + got.size] = got
        filled += got.size
    return out


def _trunk(rng, spec: OrchardSpec, cx: float, cy: float, per_m: float, z_min: float):
    """A trunk column at (cx, cy): a Poisson count of about per_m points per
    meter of trunk height per unit of foliage density (at least 1; zero
    density means no canopy and no trunk), jittered 0.03 m about the column
    and uniform in height over [z_min, trunk_height)."""
    density = max(spec.foliage_density, 1.0) if spec.foliage_density else 0.0
    nt = rng.poisson(density * per_m * spec.trunk_height)
    return np.column_stack(
        [
            np.full(nt, cx) + rng.normal(0, 0.03, nt),
            np.full(nt, cy) + rng.normal(0, 0.03, nt),
            rng.uniform(z_min, spec.trunk_height, nt),
        ]
    )


def generate_scene(spec: OrchardSpec, seed: int) -> OrchardScene:
    """Sample the parametric world; deterministic per seed."""
    rng = np.random.default_rng(seed)
    chunks, tags, plants = [], [], []
    n_plants = int(math.ceil(spec.row_length / spec.plant_spacing))

    for side_tag, side_sign in ((TAG_LEFT, +1.0), (TAG_RIGHT, -1.0)):
        y_center = side_sign * spec.row_spacing / 2.0
        if spec.profile == "wall":
            for k in range(n_plants):
                x0 = k * spec.plant_spacing
                x1 = min(x0 + spec.plant_spacing, spec.row_length)
                area = (x1 - x0) * spec.canopy_height
                n = rng.poisson(spec.foliage_density * area)
                pts_list = []
                if n:
                    xs = x0 + (x1 - x0) * _clumped_unit(rng, n, spec.clump_amplitude)
                    pts_list.append(
                        np.column_stack(
                            [
                                xs,
                                y_center + rng.uniform(-0.5, 0.5, n) * spec.canopy_thickness,
                                rng.uniform(0.0, spec.canopy_height, n),
                            ]
                        )
                    )
                # trunk column at the plant head
                pts_list.append(_trunk(rng, spec, 0.5 * (x0 + x1), y_center, 0.3, 0.01))
                pts = np.vstack(pts_list)
                if pts.shape[0] == 0:
                    continue
                chunks.append(pts)
                tags.append(np.full(pts.shape[0], side_tag))
                plants.append(np.full(pts.shape[0], k))
        else:
            rx, ry, rz = spec.blob_radii
            volume = 4.0 / 3.0 * math.pi * rx * ry * rz
            for k in range(n_plants):
                cx = (k + 0.5) * spec.plant_spacing
                if cx > spec.row_length:
                    continue
                cz = spec.trunk_height + rz
                n = rng.poisson(spec.foliage_density * volume)
                if n == 0:
                    continue
                # uniform inside the unit ball, then scale per-axis
                u = rng.normal(size=(n, 3))
                u /= np.linalg.norm(u, axis=1, keepdims=True)
                r = rng.uniform(0.0, 1.0, n) ** (1.0 / 3.0)
                pts = u * r[:, None] * np.array([rx, ry, rz])
                pts += np.array([cx, y_center, cz])
                # a sparse trunk column so winter-like scenes keep structure
                pts = np.vstack([pts, _trunk(rng, spec, cx, y_center, 0.1, 0.0)])
                pts[:, 2] = np.maximum(pts[:, 2], 0.01)
                chunks.append(pts)
                tags.append(np.full(pts.shape[0], side_tag))
                plants.append(np.full(pts.shape[0], k))

    half_width = spec.row_spacing / 2.0 + GROUND_MARGIN
    area = spec.row_length * 2.0 * half_width
    n_ground = rng.poisson(spec.ground_density * area)
    ground = np.column_stack(
        [
            rng.uniform(0.0, spec.row_length, n_ground),
            rng.uniform(-half_width, half_width, n_ground),
            np.zeros(n_ground),
        ]
    )
    chunks.append(ground)
    tags.append(np.full(n_ground, TAG_GROUND))
    plants.append(np.full(n_ground, -1))

    return OrchardScene(
        spec,
        np.vstack(chunks) if chunks else np.zeros((0, 3)),
        np.concatenate(tags).astype(np.int64),
        np.concatenate(plants).astype(np.int64),
    )


def render_frame(
    scene: OrchardScene, true_pose: Pose6D, sensor: SensorSpec, seed: int
) -> PointCloud:
    """Simulate one sensor frame from a true vehicle pose in {R}.

    Keeps scene points inside the FOV cone and range, then perturbs each
    kept point along its ray by Gaussian sigma(d).
    """
    R = rotation_from_euler(true_pose.roll, true_pose.pitch, true_pose.yaw).rotation
    origin = np.array([true_pose.x, true_pose.y, true_pose.z])
    local = (scene.points - origin) @ R  # R^T applied row-wise
    x, y, z = local[:, 0], local[:, 1], local[:, 2]
    d = np.linalg.norm(local, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        keep = (
            (x > 1e-6)
            & (np.abs(np.arctan2(y, x)) <= sensor.hfov / 2.0)
            & (np.abs(np.arctan2(z, np.hypot(x, y))) <= sensor.vfov / 2.0)
            & (d <= sensor.max_range)
        )
    local = local[keep]
    d = d[keep]
    if local.shape[0] == 0:
        return PointCloud(np.zeros((0, 3)))
    rng = np.random.default_rng(seed)
    sigma = sensor.sigma(d)
    radial = rng.normal(0.0, 1.0, local.shape[0]) * sigma
    scale = 1.0 + radial / d
    return PointCloud(local * scale[:, None])


def sinusoidal_trajectory(
    traj: TrajectorySpec, row_length: float, spec: OrchardSpec, sensor: SensorSpec
) -> list[tuple[Pose6D, float]]:
    """Poses y(x) = A sin(2 pi x / wavelength), heading along the tangent."""
    if traj.amplitude >= spec.row_spacing / 2.0 - traj.vehicle_half_width:
        raise ValueError("sinusoid amplitude leaves no clearance to the rows")
    step = traj.speed / traj.frame_rate
    stations = np.arange(0.0, row_length + 1e-9, step)
    out = []
    w = 2.0 * math.pi / traj.wavelength
    for i, x in enumerate(stations):
        y = traj.amplitude * math.sin(w * x)
        theta = math.atan(traj.amplitude * w * math.cos(w * x))
        out.append((Pose6D(x=x, y=y, z=sensor.mount_height, yaw=theta), i / traj.frame_rate))
    return out


def simulate_odometry(
    poses: list[Pose6D], sigma: np.ndarray, seed: int
) -> list[OdometryDelta]:
    """Noisy vehicle-frame increments between consecutive true poses."""
    if len(poses) < 2:
        raise ValueError("need at least two poses")
    sigma = np.asarray(sigma, dtype=np.float64).reshape(3, 3)
    rng = np.random.default_rng(seed)
    out = []
    for a, b in zip(poses[:-1], poses[1:]):
        c, s = math.cos(a.yaw), math.sin(a.yaw)
        dx_r, dy_r = b.x - a.x, b.y - a.y
        du = np.array([c * dx_r + s * dy_r, -s * dx_r + c * dy_r, b.yaw - a.yaw])
        if np.any(sigma):
            du = du + rng.multivariate_normal(np.zeros(3), sigma, method="cholesky")
        out.append(OdometryDelta(du, sigma))
    return out


def unit_tree_membership(points: np.ndarray) -> np.ndarray:
    """(side, floor(x)) unit id per point in {T}; -1 for non-canopy/outside.

    Units 0..n-1 are the left side (y > 0), n..2n-1 the right side, for
    n = UNITS_PER_SIDE.  Ground points (z below 0.1 m) never belong to a
    unit.
    """
    pts = np.atleast_2d(points)
    ux = np.floor(pts[:, 0]).astype(np.int64)
    valid = (ux >= 0) & (ux < UNITS_PER_SIDE) & (pts[:, 2] > 0.1)
    side_offset = np.where(pts[:, 1] > 0, 0, UNITS_PER_SIDE)
    ids = np.where(valid, ux + side_offset, -1)
    return ids


def remove_unit_trees(cloud: PointCloud, n: int, seed: int) -> PointCloud:
    """Drop all canopy points in n randomly chosen 1 m x side units."""
    total = 2 * UNITS_PER_SIDE
    if not 0 <= n <= total:
        raise ValueError(f"n must be in [0, {total}], got {n}")
    if n == 0 or len(cloud) == 0:
        return cloud
    rng = np.random.default_rng(seed)
    removed = rng.choice(total, size=n, replace=False)
    ids = unit_tree_membership(cloud.points)
    keep = ~np.isin(ids, removed)
    return PointCloud(cloud.points[keep])


def truncate_row_end(cloud: PointCloud, d: float) -> PointCloud:
    """Remove every point beyond d meters along the template x-axis."""
    if d < 0:
        raise ValueError(f"distance must be nonnegative, got {d}")
    if len(cloud) == 0:
        return cloud
    keep = cloud.points[:, 0] <= d
    return PointCloud(cloud.points[keep])


def _bend_points(points: np.ndarray, radius: float) -> np.ndarray:
    """Map straight-row (x, y) onto an arc of the given radius.

    The station x becomes arc length along a circle curving toward +y;
    the lateral offset is preserved as a radial offset, z is unchanged.
    """
    pts = np.array(points, dtype=np.float64)
    phi = pts[:, 0] / radius
    r = radius - pts[:, 1]
    out = pts.copy()
    out[:, 0] = r * np.sin(phi)
    out[:, 1] = radius - r * np.cos(phi)
    return out


def bend_row(scene: OrchardScene, radius: float) -> OrchardScene:
    """Bend a straight scene onto a circle of the given radius."""
    if math.isinf(radius):
        return scene
    length = scene.spec.row_length
    if radius <= length / math.pi:
        raise ValueError(f"radius {radius} too small for a {length} m row")
    return replace(scene, points=_bend_points(scene.points, radius))


def bent_pose(pose: Pose6D, radius: float) -> Pose6D:
    """Vehicle pose on the bent row equivalent to a straight-row pose.

    The straight pose's x is arc length along the centerline and its y a
    lateral offset; heading picks up the local tangent direction.
    """
    if math.isinf(radius):
        return pose
    p = _bend_points(np.array([[pose.x, pose.y, pose.z]]), radius)[0]
    phi = pose.x / radius
    return replace(pose, x=p[0], y=p[1], yaw=pose.yaw + phi)
