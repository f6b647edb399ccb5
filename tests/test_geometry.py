import math
import sys
import threading

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from rowloc import geometry
from rowloc.geometry import (
    Box3,
    DegenerateInputError,
    Plane,
    PointCloud,
    PreprocessConfig,
    RigidTransform,
    cutoff_filter,
    invert,
    make_pose_transform,
    normalize_angle,
    plane_to_attitude,
    preprocess,
    ransac_ground_plane,
    rotation_from_euler,
    transform_cloud,
    voxel_downsample,
)


def test_normalize_angle_wraps_into_half_open_pi_interval():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(math.pi) == pytest.approx(math.pi)
    assert normalize_angle(-math.pi) == pytest.approx(math.pi)
    assert normalize_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert normalize_angle(2 * math.pi + 0.1) == pytest.approx(0.1)
    for a in np.linspace(-20, 20, 101):
        w = normalize_angle(a)
        assert -math.pi < w <= math.pi + 1e-12
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-12)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-12)


def test_rotation_from_euler_matches_scipy_zyx_convention():
    rng = np.random.default_rng(3)
    for _ in range(50):
        roll, pitch, yaw = rng.uniform(-math.pi, math.pi, 3)
        ours = rotation_from_euler(roll, pitch, yaw).rotation
        ref = Rotation.from_euler("ZYX", [yaw, pitch, roll]).as_matrix()
        np.testing.assert_allclose(ours, ref, atol=1e-12)


def test_rotation_matrices_are_orthonormal():
    rng = np.random.default_rng(4)
    for _ in range(20):
        R = rotation_from_euler(*rng.uniform(-3, 3, 3)).rotation
        np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0)


def test_invert_round_trip_below_1e9():
    rng = np.random.default_rng(6)
    for _ in range(20):
        T = RigidTransform(
            rotation_from_euler(*rng.uniform(-3, 3, 3)).rotation, rng.normal(size=3) * 5
        )
        pts = rng.normal(size=(100, 3)) * 10
        back = invert(T).apply(T.apply(pts))
        assert np.max(np.abs(back - pts)) < 1e-9


def test_make_pose_transform_places_vehicle_origin():
    T = make_pose_transform(0.4, 0.3, z=1.1)
    np.testing.assert_allclose(T.apply(np.zeros((1, 3)))[0], [0.0, 0.4, 1.1], atol=1e-12)
    # forward axis of the vehicle maps to the heading direction in {T}
    fwd = T.apply(np.array([[1.0, 0.0, 0.0]]))[0] - np.array([0.0, 0.4, 1.1])
    np.testing.assert_allclose(fwd, [math.cos(0.3), math.sin(0.3), 0.0], atol=1e-12)


def test_transform_cloud_preserves_order():
    pts = np.arange(12, dtype=float).reshape(4, 3)
    T = RigidTransform(np.eye(3), np.array([1.0, 0.0, 0.0]))
    out = transform_cloud(T, PointCloud(pts))
    np.testing.assert_allclose(out.points[:, 0], pts[:, 0] + 1.0)


def test_point_cloud_validation():
    assert len(PointCloud(np.zeros((0, 3)))) == 0
    assert PointCloud(np.array([]).reshape(0, 0)).points.shape == (0, 3)
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 2)))


def test_box3_validation_and_contains():
    with pytest.raises(ValueError):
        Box3(np.array([1.0, 0, 0]), np.array([0.0, 1, 1]))
    box = Box3.from_ranges((0, 2), (-1, 1), (0, 3))
    inside = box.contains(np.array([[1.0, 0.0, 1.5], [0.0, -1.0, 0.0], [2.1, 0, 0]]))
    assert inside.tolist() == [True, True, False]
    np.testing.assert_allclose(box.extent, [2, 2, 3])


def test_cutoff_filter_matches_per_point_predicate():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-3, 3, size=(500, 3))
    box = Box3.from_ranges((-1, 2), (0, 1), (-2, 0.5))
    kept = cutoff_filter(PointCloud(pts), box).points
    expected = np.array(
        [p for p in pts if all(lo <= v <= hi for v, lo, hi in zip(p, box.min_corner, box.max_corner))]
    ).reshape(-1, 3)
    np.testing.assert_array_equal(kept, expected)
    # boundary points are kept (closed box)
    edge = np.array([[-1.0, 0.0, 0.5]])
    assert len(cutoff_filter(PointCloud(edge), box)) == 1


def test_voxel_downsample_matches_hash_map_oracle():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-2, 2, size=(800, 3))
    leaf = 0.3
    got = voxel_downsample(PointCloud(pts), leaf).points

    cells = {}
    for p in pts:
        key = tuple(np.floor(p / leaf).astype(int))
        cells.setdefault(key, []).append(p)
    expected = np.array([np.mean(v, axis=0) for v in cells.values()])
    # both sides sorted canonically for comparison
    got = got[np.lexsort(got.T)]
    expected = expected[np.lexsort(expected.T)]
    np.testing.assert_allclose(got, expected, atol=1e-9)


def test_voxel_downsample_single_cell_returns_centroid():
    pts = np.array([[0.01, 0.02, 0.03], [0.04, 0.01, 0.02]])
    out = voxel_downsample(PointCloud(pts), 1.0).points
    np.testing.assert_allclose(out, pts.mean(axis=0, keepdims=True))


def test_voxel_downsample_rejects_bad_leaf():
    for leaf in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            voxel_downsample(PointCloud(np.zeros((1, 3))), leaf)
        with pytest.raises(ValueError):
            PreprocessConfig(leaf_size=leaf)


def test_plane_normalizes_and_signed_distance():
    plane = Plane(np.array([0.0, 0.0, 2.0]), 4.0)  # z = 2
    np.testing.assert_allclose(plane.normal, [0, 0, 1])
    assert plane.offset == pytest.approx(2.0)
    np.testing.assert_allclose(
        plane.distance(np.array([[0, 0, 3.0], [1, 1, 1.0]])), [1.0, -1.0]
    )
    with pytest.raises(ValueError):
        Plane(np.zeros(3), 1.0)


def test_plane_to_attitude_level_ground():
    roll, pitch, height = plane_to_attitude(Plane(np.array([0.0, 0, 1]), -1.2))
    assert roll == pytest.approx(0.0)
    assert pitch == pytest.approx(0.0)
    assert height == pytest.approx(1.2)


def test_plane_to_attitude_recovers_synthetic_tilt():
    rng = np.random.default_rng(9)
    for _ in range(30):
        roll, pitch = rng.uniform(-0.3, 0.3, 2)
        height = rng.uniform(0.5, 2.0)
        # ground plane z=0 seen from a vehicle tilted (roll, pitch) at that height
        R = rotation_from_euler(roll, pitch, 0.0).rotation
        up_in_V = R.T @ np.array([0.0, 0.0, 1.0])
        plane = Plane(up_in_V, -height)
        r, p, h = plane_to_attitude(plane)
        assert r == pytest.approx(roll, abs=1e-9)
        assert p == pytest.approx(pitch, abs=1e-9)
        assert h == pytest.approx(height, abs=1e-9)


def _tilted_ground_scene(rng, roll, pitch, height, n_ground=400, n_outlier=120):
    R = rotation_from_euler(roll, pitch, 0.0).rotation
    gx = rng.uniform(0.5, 10, n_ground)
    gy = rng.uniform(-3, 3, n_ground)
    ground_T = np.column_stack([gx, gy, np.zeros(n_ground)])
    # wall-like outliers well above the ground
    ox = rng.uniform(0.5, 10, n_outlier)
    oy = rng.choice([-1.5, 1.5], n_outlier)
    oz = rng.uniform(0.5, 2.0, n_outlier)
    out_T = np.column_stack([ox, oy, oz])
    pts_T = np.vstack([ground_T, out_T])
    pts_V = (pts_T - np.array([0.0, 0.0, height])) @ R  # inverse of leveling
    return PointCloud(pts_V)


def test_ransac_ground_plane_monte_carlo_success_rate():
    rng = np.random.default_rng(10)
    ok = 0
    for seed in range(100):
        roll, pitch = rng.uniform(-0.2, 0.2, 2)
        height = rng.uniform(0.8, 1.4)
        cloud = _tilted_ground_scene(rng, roll, pitch, height)
        _, r, p, h = ransac_ground_plane(cloud)
        if abs(r - roll) < 0.01 and abs(p - pitch) < 0.01 and abs(h - height) < 0.02:
            ok += 1
    assert ok >= 95


def test_ransac_ground_plane_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        ransac_ground_plane(PointCloud(np.zeros((2, 3))))
    collinear = np.column_stack([np.linspace(0, 1, 10), np.zeros(10), np.zeros(10)])
    with pytest.raises(DegenerateInputError):
        ransac_ground_plane(PointCloud(collinear))


def test_preprocess_pipeline_on_synthetic_frame():
    rng = np.random.default_rng(11)
    cloud = _tilted_ground_scene(rng, 0.05, -0.03, 1.0)
    frame = preprocess(cloud, PreprocessConfig(leaf_size=0.05))
    assert len(frame.cloud_V) <= len(cloud)
    assert frame.roll == pytest.approx(0.05, abs=0.01)
    assert frame.pitch == pytest.approx(-0.03, abs=0.01)
    assert frame.height == pytest.approx(1.0, abs=0.02)


# ---------------------------------------------------------------------------
# preprocess's memo of its last call


@pytest.fixture
def ransac_calls(monkeypatch):
    """The clouds geometry.ransac_ground_plane is called with, from an empty memo."""
    calls = []
    original = geometry.ransac_ground_plane
    monkeypatch.setattr(geometry, "ransac_ground_plane",
                        lambda cloud, *a, **k: calls.append(cloud) or original(cloud, *a, **k))
    monkeypatch.setattr(geometry, "_last_call", None)
    return calls


def _uncached(cloud, cfg=PreprocessConfig()):
    """preprocess(cloud, cfg) from an empty memo; the memo is left as it was."""
    saved = geometry._last_call
    geometry._last_call = None
    try:
        return preprocess(cloud, cfg)
    finally:
        geometry._last_call = saved


def _bits(frame):
    pts = frame.cloud_V.points
    return pts.shape, pts.tobytes(), np.array([frame.roll, frame.pitch, frame.height]).tobytes()


def _scene(seed=11):
    return _tilted_ground_scene(np.random.default_rng(seed), 0.05, -0.03, 1.0)


def test_preprocess_repeat_call_is_a_hit(ransac_calls):
    cloud = _scene()
    first = preprocess(cloud)
    assert preprocess(cloud) is first
    assert preprocess(PointCloud(cloud.points.copy())) is first  # equal bytes, new array
    assert len(ransac_calls) == 1


def test_preprocess_sees_an_in_place_edit(ransac_calls):
    cloud = _scene()
    before = _bits(preprocess(cloud))
    cloud.points[:, 2] -= 0.25  # the caller's array: the ground drops 0.25 m
    edited = preprocess(cloud)
    assert len(ransac_calls) == 2
    assert _bits(edited) == _bits(_uncached(cloud))
    assert _bits(edited) != before


def test_preprocess_memo_keys_on_the_config_value(ransac_calls):
    cloud = _scene()
    first = preprocess(cloud, PreprocessConfig(0.05))
    assert preprocess(cloud, PreprocessConfig(leaf_size=0.05)) is first
    assert len(ransac_calls) == 1
    coarse = preprocess(cloud, PreprocessConfig(0.2))
    assert len(ransac_calls) == 2
    assert _bits(coarse) == _bits(_uncached(cloud, PreprocessConfig(0.2)))
    assert _bits(coarse) != _bits(first)


def test_preprocess_memo_compares_bytes_not_values(ransac_calls):
    pts = _scene().points
    pos, neg, nan, other_nan = (pts.copy() for _ in range(4))
    pos[0, 1], neg[0, 1] = 0.0, -0.0
    nan[::7, 0] = np.nan
    other_nan[::7, 0] = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
    assert np.array_equal(pos, neg) and np.array_equal(nan, other_nan, equal_nan=True)
    assert pos.tobytes() != neg.tobytes() and nan.tobytes() != other_nan.tobytes()
    clouds = [PointCloud(a) for a in (pos, neg, pos, nan, other_nan, nan)]
    expected = [_bits(_uncached(c)) for c in clouds]
    ransac_calls.clear()
    assert [_bits(preprocess(c)) for c in clouds] == expected
    assert len(ransac_calls) == len(clouds)  # every call a miss


def test_preprocess_returns_read_only_points(ransac_calls):
    cloud = _scene()
    for frame in (preprocess(cloud), preprocess(cloud)):
        assert not frame.cloud_V.points.flags.writeable
        with pytest.raises(ValueError):
            frame.cloud_V.points[0, 0] = 1.0
    assert cloud.points.flags.writeable  # the caller's array is never frozen


def test_preprocess_caches_nothing_from_a_call_that_raises(ransac_calls):
    cloud = _scene()
    good = preprocess(cloud)
    collinear = PointCloud(np.column_stack([np.linspace(0, 5, 50), np.zeros(50), np.zeros(50)]))
    for _ in range(2):
        with pytest.raises(DegenerateInputError):
            preprocess(collinear)
    assert len(ransac_calls) == 3
    assert preprocess(cloud) is good  # the last successful call is still remembered
    assert len(ransac_calls) == 3


def test_preprocess_memo_shared_by_threads(ransac_calls):
    clouds = [_scene(11), _scene(12)]
    expected = [_bits(_uncached(c)) for c in clouds]
    got = [[], []]

    def run(t):
        for j in range(30):
            k = (t + j) % 2
            got[t].append((k, _bits(preprocess(clouds[k]))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    finally:
        sys.setswitchinterval(interval)
    for t in range(2):
        assert len(got[t]) == 30
        assert all(bits == expected[k] for k, bits in got[t])
