import math

import numpy as np
import pytest

from rowloc.geometry import PointCloud, Pose6D
from rowloc.synth import (
    GROUND_MARGIN,
    TAG_GROUND,
    TAG_LEFT,
    TAG_RIGHT,
    OrchardScene,
    OrchardSpec,
    SensorSpec,
    TrajectorySpec,
    _clumped_unit,
    apricot_preset,
    bend_row,
    bent_pose,
    generate_scene,
    remove_unit_trees,
    render_frame,
    simulate_odometry,
    sinusoidal_trajectory,
    truncate_row_end,
    unit_tree_membership,
    vineyard_preset,
)


def test_vineyard_preset_geometry():
    spec = vineyard_preset()
    assert spec.row_spacing == 3.0
    assert spec.plant_spacing == 1.8
    assert spec.row_length == 90.0
    assert spec.profile == "wall"


def test_apricot_preset_geometry():
    spec = apricot_preset()
    assert spec.row_spacing == 5.0
    assert spec.plant_spacing == 2.5
    assert spec.row_length == 50.0
    assert spec.profile == "blob"


def test_spec_validation():
    with pytest.raises(ValueError):
        OrchardSpec(row_spacing=0.0)
    with pytest.raises(ValueError):
        OrchardSpec(foliage_density=-1.0)
    with pytest.raises(ValueError):
        OrchardSpec(profile="hedge")
    with pytest.raises(ValueError):
        OrchardSpec(clump_amplitude=1.5)


def test_zero_density_gives_ground_only_scene():
    spec = vineyard_preset(foliage_density=0.0, row_length=10.0)
    scene = generate_scene(spec, 0)
    assert np.all(scene.tags == TAG_GROUND)
    assert np.all(scene.points[:, 2] == 0.0)


def test_generate_scene_deterministic_and_structured():
    spec = vineyard_preset(row_length=20.0)
    a = generate_scene(spec, 5)
    b = generate_scene(spec, 5)
    np.testing.assert_array_equal(a.points, b.points)
    left = a.points[a.tags == TAG_LEFT]
    right = a.points[a.tags == TAG_RIGHT]
    assert np.all(np.abs(left[:, 1] - 1.5) <= 0.31)  # slab + trunk jitter
    assert np.all(np.abs(right[:, 1] + 1.5) <= 0.31)
    assert np.all(a.points[:, 0] >= -0.2)


def reference_generate_scene(spec, seed):
    """(points, tags, plant index) drawn as generate_scene did with a trunk
    column written out in each profile's loop: the draw order to keep."""
    rng = np.random.default_rng(seed)
    chunks, tags, plants = [], [], []
    n_plants = int(math.ceil(spec.row_length / spec.plant_spacing))
    trunk_density = max(spec.foliage_density, 1.0) if spec.foliage_density else 0.0
    for side_tag, side_sign in ((TAG_LEFT, +1.0), (TAG_RIGHT, -1.0)):
        y_center = side_sign * spec.row_spacing / 2.0
        for k in range(n_plants):
            if spec.profile == "wall":
                x0 = k * spec.plant_spacing
                x1 = min(x0 + spec.plant_spacing, spec.row_length)
                n = rng.poisson(spec.foliage_density * (x1 - x0) * spec.canopy_height)
                parts = []
                if n:
                    xs = x0 + (x1 - x0) * _clumped_unit(rng, n, spec.clump_amplitude)
                    parts.append(np.column_stack([
                        xs, y_center + rng.uniform(-0.5, 0.5, n) * spec.canopy_thickness,
                        rng.uniform(0.0, spec.canopy_height, n)]))
                nt = rng.poisson(trunk_density * 0.3 * spec.trunk_height)
                if nt:
                    cx = 0.5 * (x0 + x1)
                    parts.append(np.column_stack([
                        np.full(nt, cx) + rng.normal(0, 0.03, nt),
                        np.full(nt, y_center) + rng.normal(0, 0.03, nt),
                        rng.uniform(0.01, spec.trunk_height, nt)]))
                if not parts:
                    continue
                pts = np.vstack(parts)
            else:
                rx, ry, rz = spec.blob_radii
                cx = (k + 0.5) * spec.plant_spacing
                if cx > spec.row_length:
                    continue
                n = rng.poisson(spec.foliage_density * 4.0 / 3.0 * math.pi * rx * ry * rz)
                if n == 0:
                    continue
                u = rng.normal(size=(n, 3))
                u /= np.linalg.norm(u, axis=1, keepdims=True)
                r = rng.uniform(0.0, 1.0, n) ** (1.0 / 3.0)
                pts = u * r[:, None] * np.array([rx, ry, rz])
                pts += np.array([cx, y_center, spec.trunk_height + rz])
                nt = rng.poisson(trunk_density * 0.1 * spec.trunk_height)
                trunk = np.column_stack([
                    np.full(nt, cx) + rng.normal(0, 0.03, nt),
                    np.full(nt, y_center) + rng.normal(0, 0.03, nt),
                    rng.uniform(0.0, spec.trunk_height, nt)])
                pts = np.vstack([pts, trunk])
                pts[:, 2] = np.maximum(pts[:, 2], 0.01)
            chunks.append(pts)
            tags.append(np.full(pts.shape[0], side_tag))
            plants.append(np.full(pts.shape[0], k))
    half_width = spec.row_spacing / 2.0 + GROUND_MARGIN
    n_ground = rng.poisson(spec.ground_density * spec.row_length * 2.0 * half_width)
    chunks.append(np.column_stack([rng.uniform(0.0, spec.row_length, n_ground),
                                   rng.uniform(-half_width, half_width, n_ground),
                                   np.zeros(n_ground)]))
    tags.append(np.full(n_ground, TAG_GROUND))
    plants.append(np.full(n_ground, -1))
    return np.vstack(chunks), np.concatenate(tags), np.concatenate(plants)


@pytest.mark.parametrize("spec", [
    vineyard_preset(row_length=12.0),
    vineyard_preset(row_length=6.0, foliage_density=0.5),  # plants with no foliage or trunk
    apricot_preset(row_length=15.0),
    apricot_preset(row_length=9.0, foliage_density=0.3),
])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_generate_scene_keeps_its_draw_order(spec, seed):
    scene = generate_scene(spec, seed)
    points, tags, plants = reference_generate_scene(spec, seed)
    assert scene.points.tobytes() == points.tobytes()
    np.testing.assert_array_equal(scene.tags, tags)
    np.testing.assert_array_equal(scene.plant_index, plants)


def test_blob_scene_points_near_tree_centers():
    spec = apricot_preset(row_length=15.0)
    scene = generate_scene(spec, 7)
    canopy = scene.points[scene.tags == TAG_LEFT]
    idx = scene.plant_index[scene.tags == TAG_LEFT]
    rx, ry, rz = spec.blob_radii
    for k in np.unique(idx):
        pts = canopy[idx == k]
        cx = (k + 0.5) * spec.plant_spacing
        assert np.all(np.abs(pts[:, 0] - cx) <= rx + 0.2)


def test_clumped_sampling_matches_target_density():
    rng = np.random.default_rng(8)
    u = _clumped_unit(rng, 50_000, 0.8)
    assert np.all((u >= 0) & (u <= 1))
    # density 1 + a*cos(2 pi (u - 0.5)) has E[cos(2 pi (u - 0.5))] = a/2
    assert np.mean(np.cos(2 * math.pi * (u - 0.5))) == pytest.approx(0.4, abs=0.02)
    uniform = _clumped_unit(rng, 50_000, 0.0)
    assert np.mean(uniform) == pytest.approx(0.5, abs=0.01)


def test_render_frame_respects_fov_and_range():
    spec = vineyard_preset(row_length=20.0)
    scene = generate_scene(spec, 9)
    sensor = SensorSpec(max_range=8.0, noise_coeff=0.0)
    pose = Pose6D(x=5.0, y=0.1, z=1.0, yaw=0.05)
    cloud = render_frame(scene, pose, sensor, seed=10)
    assert len(cloud) > 0
    x, y, z = cloud.points[:, 0], cloud.points[:, 1], cloud.points[:, 2]
    assert np.all(x > 0)
    assert np.all(np.abs(np.arctan2(y, x)) <= sensor.hfov / 2 + 1e-12)
    assert np.all(np.abs(np.arctan2(z, np.hypot(x, y))) <= sensor.vfov / 2 + 1e-12)
    assert np.all(np.linalg.norm(cloud.points, axis=1) <= sensor.max_range + 1e-12)


def test_render_frame_noiseless_symmetric_scene_is_mirror_symmetric():
    half = np.array([[3.0, 1.2, 0.5], [5.0, 0.7, 1.4], [2.0, 1.4, 0.2]])
    pts = np.vstack([half, half * np.array([1, -1, 1])])
    scene = OrchardScene(
        vineyard_preset(), pts, np.full(6, TAG_LEFT), np.zeros(6, dtype=int)
    )
    cloud = render_frame(
        scene, Pose6D(z=0.0), SensorSpec(noise_coeff=0.0), seed=0
    )
    got = cloud.points[np.lexsort(cloud.points.T)]
    mirrored = cloud.points * np.array([1, -1, 1])
    mirrored = mirrored[np.lexsort(mirrored.T)]
    np.testing.assert_array_equal(got, mirrored)


def test_sigma_two_percent_at_three_meters():
    sensor = SensorSpec()
    assert sensor.sigma(3.0) == pytest.approx(0.06)
    # quadratic growth capped at 4% of distance
    assert sensor.sigma(15.0) == pytest.approx(0.04 * 15.0)
    assert sensor.sigma(20.0) == pytest.approx(0.04 * 20.0)


def test_render_frame_empty_when_everything_is_behind():
    pts = np.array([[1.0, 0.0, 1.0], [2.0, 0.5, 1.0]])
    scene = OrchardScene(vineyard_preset(), pts, np.full(2, TAG_LEFT), np.zeros(2, dtype=int))
    cloud = render_frame(scene, Pose6D(x=10.0), SensorSpec(), seed=0)
    assert len(cloud) == 0


def test_sensor_spec_validation():
    with pytest.raises(ValueError):
        SensorSpec(hfov=0.0)
    with pytest.raises(ValueError):
        SensorSpec(max_range=-1.0)


def test_trajectory_centerline_when_amplitude_zero():
    spec = vineyard_preset(row_length=10.0)
    traj = TrajectorySpec(amplitude=0.0)
    poses = sinusoidal_trajectory(traj, 10.0, spec, SensorSpec())
    assert all(p.y == 0.0 and p.yaw == 0.0 for p, _ in poses)


def test_trajectory_heading_follows_tangent():
    spec = vineyard_preset(row_length=40.0)
    traj = TrajectorySpec(amplitude=0.3, wavelength=20.0)
    poses = sinusoidal_trajectory(traj, 40.0, spec, SensorSpec())
    max_theta = max(abs(p.yaw) for p, _ in poses)
    assert max_theta == pytest.approx(math.atan(2 * math.pi * 0.3 / 20.0), abs=1e-3)
    for p, _ in poses[:100]:
        assert p.y == pytest.approx(0.3 * math.sin(2 * math.pi * p.x / 20.0), abs=1e-12)


def test_trajectory_frame_count():
    spec = vineyard_preset()
    poses = sinusoidal_trajectory(TrajectorySpec(), 90.0, spec, SensorSpec())
    # 90 m at 1 m/s and 15 Hz: 1350 steps, fencepost-counted poses
    assert len(poses) == 1351
    assert poses[1][1] - poses[0][1] == pytest.approx(1.0 / 15.0)


def test_trajectory_amplitude_clearance_enforced():
    spec = vineyard_preset()  # half spacing 1.5, half width 0.4
    with pytest.raises(ValueError):
        sinusoidal_trajectory(TrajectorySpec(amplitude=1.2), 10.0, spec, SensorSpec())


def test_odometry_zero_noise_composes_back():
    spec = vineyard_preset(row_length=20.0)
    traj = TrajectorySpec(amplitude=0.3, wavelength=10.0)
    poses = [p for p, _ in sinusoidal_trajectory(traj, 20.0, spec, SensorSpec())]
    deltas = simulate_odometry(poses, np.zeros((3, 3)), seed=0)
    x, y, th = poses[0].x, poses[0].y, poses[0].yaw
    for u, expect in zip(deltas, poses[1:]):
        dx, dy, dth = u.u
        x += dx * math.cos(th) - dy * math.sin(th)
        y += dx * math.sin(th) + dy * math.cos(th)
        th += dth
        assert x == pytest.approx(expect.x, abs=1e-9)
        assert y == pytest.approx(expect.y, abs=1e-9)
        assert th == pytest.approx(expect.yaw, abs=1e-9)


def test_odometry_single_step_forward():
    poses = [Pose6D(x=0.0), Pose6D(x=0.1)]
    (u,) = simulate_odometry(poses, np.zeros((3, 3)), seed=0)
    np.testing.assert_allclose(u.u, [0.1, 0.0, 0.0], atol=1e-12)


def test_odometry_stationary_noise_covariance():
    sigma = np.diag([0.05**2, 0.04**2, 0.02**2])
    poses = [Pose6D()] * 10_001
    deltas = simulate_odometry(poses, sigma, seed=1)
    u = np.array([d.u for d in deltas])
    sample_cov = np.cov(u.T)
    np.testing.assert_allclose(np.diag(sample_cov), np.diag(sigma), rtol=0.1)


def test_odometry_needs_two_poses():
    with pytest.raises(ValueError):
        simulate_odometry([Pose6D()], np.zeros((3, 3)), seed=0)


def _template_frame_cloud():
    """Canopy points over 20 m with ground, in {T}."""
    rng = np.random.default_rng(20)
    n = 4000
    canopy = np.column_stack(
        [
            rng.uniform(0, 20, n),
            rng.choice([-1.5, 1.5], n) + rng.normal(0, 0.1, n),
            rng.uniform(0.3, 2.2, n),
        ]
    )
    ground = np.column_stack(
        [rng.uniform(0, 20, 800), rng.uniform(-2, 2, 800), np.zeros(800)]
    )
    return PointCloud(np.vstack([canopy, ground]))


def test_remove_zero_units_is_identity():
    cloud = _template_frame_cloud()
    out = remove_unit_trees(cloud, 0, seed=1)
    np.testing.assert_array_equal(out.points, cloud.points)


def test_remove_all_units_leaves_only_ground():
    cloud = _template_frame_cloud()
    out = remove_unit_trees(cloud, 40, seed=1)
    assert np.all(out.points[:, 2] <= 0.1)
    n_ground = np.count_nonzero(cloud.points[:, 2] <= 0.1)
    assert len(out) == n_ground


def test_remove_four_units_matches_membership_oracle():
    cloud = _template_frame_cloud()
    out = remove_unit_trees(cloud, 4, seed=2)
    removed_ids = set(np.random.default_rng(2).choice(40, size=4, replace=False))
    keep = []
    for p in cloud.points:
        ux = math.floor(p[0])
        if p[2] > 0.1 and 0 <= ux < 20:
            uid = ux + (0 if p[1] > 0 else 20)
            if uid in removed_ids:
                continue
        keep.append(p)
    np.testing.assert_array_equal(out.points, np.array(keep))


def test_remove_unit_trees_range_check():
    with pytest.raises(ValueError):
        remove_unit_trees(_template_frame_cloud(), 41, seed=0)
    with pytest.raises(ValueError):
        remove_unit_trees(_template_frame_cloud(), -1, seed=0)


def test_unit_membership_ground_excluded():
    pts = np.array([[5.5, 1.0, 0.05], [5.5, 1.0, 1.0], [5.5, -1.0, 1.0], [25.0, 1.0, 1.0]])
    ids = unit_tree_membership(pts)
    assert ids.tolist() == [-1, 5, 25, -1]


def test_truncate_identity_beyond_sensor_range():
    cloud = _template_frame_cloud()
    out = truncate_row_end(cloud, 20.0)
    np.testing.assert_array_equal(out.points, cloud.points)


def test_truncate_at_zero_removes_everything_forward():
    cloud = _template_frame_cloud()
    out = truncate_row_end(cloud, 0.0)
    assert np.all(out.points[:, 0] <= 0.0)


def test_truncate_matches_membership_oracle():
    cloud = _template_frame_cloud()
    out = truncate_row_end(cloud, 5.0)
    assert len(out) == np.count_nonzero(cloud.points[:, 0] <= 5.0)
    assert np.all(out.points[:, 0] <= 5.0)
    with pytest.raises(ValueError):
        truncate_row_end(cloud, -1.0)


def _scene_of(points, row_length):
    """A scene of the given points (tagged ground) on a row of the given length."""
    n = len(points)
    return OrchardScene(vineyard_preset(row_length=row_length), points,
                        np.full(n, TAG_GROUND), np.full(n, -1))


def test_bend_infinite_radius_is_identity():
    scene = _scene_of(_template_frame_cloud().points, 20.0)
    assert bend_row(scene, math.inf) is scene


def test_bend_quarter_arc_point():
    R = 40.0
    bent = bend_row(_scene_of(np.array([[math.pi * R / 2.0, 0.0, 0.3]]), 20.0), R)
    center = np.array([0.0, R])
    assert np.linalg.norm(bent.points[0, :2] - center) == pytest.approx(R, abs=1e-9)
    np.testing.assert_allclose(bent.points[0], [R, R, 0.3], atol=1e-9)


def test_bend_preserves_arc_spacing():
    R = 135.0
    xs = np.linspace(0.0, 40.0, 200)
    pts = np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)])
    bent = bend_row(_scene_of(pts, 40.0), R).points
    chord = np.linalg.norm(np.diff(bent[:, :2], axis=0), axis=1)
    arc = 2.0 * R * np.arcsin(chord / (2.0 * R))
    np.testing.assert_allclose(arc, np.diff(xs), atol=1e-9)


def test_bend_rejects_too_small_radius():
    spec = vineyard_preset(row_length=90.0)
    scene = generate_scene(vineyard_preset(row_length=90.0, foliage_density=0.0), 0)
    with pytest.raises(ValueError):
        bend_row(scene, 20.0)


def test_bent_pose_heading_picks_up_tangent():
    R = 100.0
    pose = bent_pose(Pose6D(x=50.0, y=0.1, yaw=0.05), R)
    assert pose.yaw == pytest.approx(0.05 + 50.0 / R)
