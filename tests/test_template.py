import math

import numpy as np
import pytest

from rowloc.geometry import (
    Box3,
    PointCloud,
    PreprocessConfig,
    PreprocessedFrame,
    cutoff_filter,
    make_pose_transform,
    preprocess,
    transform_cloud,
)
from rowloc.measurement import PoseScorer, log_table
from rowloc.template import (
    TEMPLATE_HEADER,
    TEMPLATE_MAGIC,
    TEMPLATE_VERSION,
    GroundTruthPose,
    Template,
    TemplateConfig,
    TemplateFormatError,
    build_template,
    default_row_range,
    load_template,
    save_template,
)
from rowloc.synth import SensorSpec, render_frame, generate_scene, vineyard_preset
from rowloc.geometry import Pose6D

from conftest import camera_cloud_at, make_wall_cloud_T

PRE = PreprocessConfig(leaf_size=0.05)


def _ground_patch():
    """Flat ground at z=0 in {T}; enough support for the RANSAC plane fit."""
    gx = np.arange(0.5, 8.0, 0.4)
    gy = np.arange(-2.0, 2.0 + 1e-9, 0.4)
    xx, yy = np.meshgrid(gx, gy, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])


def _frame_with(*points_T):
    """Camera cloud for a centered, level vehicle seeing ground + extras."""
    pts = np.vstack([_ground_patch()] + [np.atleast_2d(p) for p in points_T])
    return camera_cloud_at(PointCloud(pts, "T"), 0.0, 0.0, z=1.0)


TRUTH = GroundTruthPose(y=0.0, theta=0.0, roll=0.0, pitch=0.0, z=1.0)


def _lookup(template, points):
    """Per-point frequency, one voxel at a time; no_info outside the grid."""
    idx, inside = template.config.voxel_index(points)
    return np.array([
        float(template.grid[tuple(i)]) if ok else template.no_info_frequency
        for i, ok in zip(idx, inside)
    ])


def test_config_dims_from_extent():
    cfg = TemplateConfig(resolution=0.1)
    assert cfg.dims == (200, 100, 40)
    cfg2 = TemplateConfig(resolution=0.5)
    assert cfg2.dims == (40, 20, 8)


def test_config_validation():
    with pytest.raises(ValueError):
        TemplateConfig(resolution=0.0)
    with pytest.raises(ValueError):
        TemplateConfig(no_info_frequency=1.5)
    with pytest.raises(ValueError):
        TemplateConfig(row_range=Box3.from_ranges((0, 30), (-1, 1), (0, 2)))


@pytest.mark.parametrize("resolution", [math.nan, math.inf])
def test_config_rejects_a_non_finite_resolution(resolution):
    with pytest.raises(ValueError, match="resolution"):
        TemplateConfig(resolution=resolution)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_config_rejects_non_finite_box_corners(bad):
    # a row range given, so none is derived from the bad box
    with pytest.raises(ValueError, match="template_range corners must be finite"):
        TemplateConfig(template_range=Box3.from_ranges((0.0, bad), (-5.0, 5.0), (0.0, 4.0)),
                       row_range=Box3.from_ranges((0.0, 8.0), (-1.0, 1.0), (0.0, 2.0)))
    with pytest.raises(ValueError, match="row_range corners must be finite"):
        TemplateConfig(row_range=Box3.from_ranges((0.0, 8.0), (-1.0, bad), (0.0, 2.0)))


def test_default_row_range_limits_y_to_half_spacing():
    rr = default_row_range(3.0)
    np.testing.assert_allclose(rr.min_corner, [0.0, -1.5, 0.0])
    np.testing.assert_allclose(rr.max_corner, [20.0, 1.5, 4.0])


def test_single_point_single_frame_has_frequency_one():
    target = np.array([5.03, 0.52, 1.57])
    template = build_template([_frame_with(target)], [TRUTH], TemplateConfig(), PRE)
    idx, inside = template.config.voxel_index(target[None, :])
    assert inside[0]
    assert template.grid[tuple(idx[0])] == 1.0


def test_point_present_in_one_of_two_frames_has_frequency_half():
    target = np.array([5.03, 0.52, 1.57])
    clouds = [_frame_with(target), _frame_with()]
    template = build_template(clouds, [TRUTH, TRUTH], TemplateConfig(), PRE)
    idx, _ = template.config.voxel_index(target[None, :])
    assert template.grid[tuple(idx[0])] == 0.5


def test_frames_without_usable_ground_are_left_out():
    target = np.array([5.03, 0.52, 1.57])
    clouds = [_frame_with(target), _frame_with()]
    want = build_template(clouds, [TRUTH, TRUTH], TemplateConfig(), PRE)
    empty = PointCloud(np.empty((0, 3)), "C")
    got = build_template(clouds[:1] + [empty] + clouds[1:], [TRUTH] * 3, TemplateConfig(), PRE)
    assert got.n_frames == want.n_frames == 2
    assert got.no_info_frequency == want.no_info_frequency
    assert got.grid.tobytes() == want.grid.tobytes()
    with pytest.raises(ValueError):
        build_template([empty], [TRUTH], TemplateConfig(), PRE)


def test_frequencies_in_unit_interval_and_counts_integral():
    spec = vineyard_preset(row_length=20.0, foliage_density=10.0)
    scene = generate_scene(spec, 0)
    sensor = SensorSpec(max_range=10.0)
    clouds = [
        render_frame(scene, Pose6D(x=2.0 + 0.2 * i, z=1.0), sensor, seed=100 + i)
        for i in range(7)
    ]
    truths = [GroundTruthPose(y=0.0, theta=0.0) for _ in clouds]
    template = build_template(clouds, truths, TemplateConfig(), PRE)
    assert np.all(template.grid >= 0.0) and np.all(template.grid <= 1.0)
    row = template.config.in_row_mask()
    counts = template.grid[row].astype(np.float64) * template.n_frames
    # frequencies are stored as float32, so integrality holds to f32 precision
    assert np.max(np.abs(counts - np.round(counts))) < 1e-5
    # the entire out-of-row region holds exactly the fill value
    assert np.all(template.grid[~row] == np.float32(template.no_info_frequency))


def test_build_matches_brute_force_recount():
    spec = vineyard_preset(row_length=20.0, foliage_density=8.0)
    scene = generate_scene(spec, 3)
    sensor = SensorSpec(max_range=10.0)
    poses = [Pose6D(x=2.0 + 0.3 * i, y=0.05 * (-1) ** i, z=1.0, yaw=0.02 * i) for i in range(5)]
    clouds = [render_frame(scene, p, sensor, seed=200 + i) for i, p in enumerate(poses)]
    truths = [GroundTruthPose(y=p.y, theta=p.yaw) for p in poses]
    cfg = TemplateConfig()
    template = build_template(clouds, truths, cfg, PRE)

    # independent recount: place each frame with the truth pose, voxelize
    # with plain floor arithmetic, count each voxel at most once per frame
    counts = {}
    lo = cfg.template_range.min_corner
    for cloud, truth in zip(clouds, truths):
        frame = preprocess(cloud, PRE)
        T = make_pose_transform(truth.y, truth.theta, frame.roll, frame.pitch, frame.height)
        cloud_T = cutoff_filter(transform_cloud(T, frame.cloud_V), cfg.row_range)
        seen = set()
        for p in cloud_T.points:
            if np.all(p >= cfg.template_range.min_corner) and np.all(
                p <= cfg.template_range.max_corner
            ):
                key = tuple(
                    min(int((p[a] - lo[a]) / cfg.resolution), cfg.dims[a] - 1) for a in range(3)
                )
                seen.add(key)
        for key in seen:
            counts[key] = counts.get(key, 0) + 1

    expected = np.zeros(cfg.dims, dtype=np.float64)
    for key, c in counts.items():
        expected[key] = c / len(clouds)
    row = template.config.in_row_mask()
    np.testing.assert_allclose(template.grid[row], expected[row], atol=1e-6)


def test_wall_voxels_reach_high_frequency_over_many_frames():
    # walls at +-1.42 m sit safely inside the default +-1.5 m row region
    wall = make_wall_cloud_T(row_spacing=2.84, length=10.0, step=0.12)
    clouds = [_frame_with(wall.points) for _ in range(20)]
    template = build_template(clouds, [TRUTH] * 20, TemplateConfig(), PRE)
    probe = np.array([5.05, 1.42, 1.05])  # on the left wall
    assert _lookup(template, probe[None, :])[0] >= 0.9


def test_lookup_matches_floor_index_oracle():
    cfg = TemplateConfig(no_info_frequency=0.02)
    rng = np.random.default_rng(15)
    grid = rng.uniform(0, 1, cfg.dims).astype(np.float32)
    template = Template(cfg, grid, 10)
    pts = rng.uniform(-2, 22, size=(10_000, 3)) * np.array([1.0, 0.5, 0.25])
    idx, inside = cfg.voxel_index(pts)
    lo = cfg.template_range.min_corner
    hi = cfg.template_range.max_corner
    sample = rng.integers(0, pts.shape[0], 500)
    got = _lookup(template, pts[sample])
    for k, v in zip(sample, got):
        p = pts[k]
        if np.all(p >= lo) and np.all(p <= hi):
            want = tuple(
                min(int((p[a] - lo[a]) // cfg.resolution), cfg.dims[a] - 1) for a in range(3)
            )
            assert inside[k] and tuple(idx[k]) == want
            assert v == grid[want]
        else:
            assert not inside[k]
            assert v == 0.02
    # indices of outside points are clamped into the grid
    assert np.all(idx >= 0) and np.all(idx < np.array(cfg.dims))


def test_upper_boundary_points_clamp_into_last_voxel():
    cfg = TemplateConfig(no_info_frequency=0.0)
    grid = np.zeros(cfg.dims, dtype=np.float32)
    grid[-1, -1, -1] = 0.75
    template = Template(cfg, grid, 4)
    corner = cfg.template_range.max_corner
    idx, inside = cfg.voxel_index(corner[None, :])
    assert inside[0] and tuple(idx[0]) == tuple(d - 1 for d in cfg.dims)
    assert _lookup(template, corner[None, :])[0] == np.float32(0.75)
    # one axis alone, as the scorer indexes z
    iz, z_in = cfg.voxel_index(np.array([[corner[2]], [-0.01]]), axes=(2,))
    assert iz[:, 0].tolist() == [cfg.dims[2] - 1, 0] and z_in.tolist() == [True, False]


def test_auto_no_info_is_below_typical_occupied_frequency():
    wall = make_wall_cloud_T(length=10.0, step=0.12)
    clouds = [_frame_with(wall.points) for _ in range(10)]
    template = build_template(clouds, [TRUTH] * 10, TemplateConfig(), PRE)
    occ = template.grid[template.config.in_row_mask() & (template.grid > 0)]
    geo = np.exp(np.log(occ[occ != np.float32(template.no_info_frequency)]).mean())
    assert 1e-3 <= template.no_info_frequency <= 0.5
    assert template.no_info_frequency < geo


def test_build_validates_inputs():
    with pytest.raises(ValueError):
        build_template([], [], TemplateConfig())
    with pytest.raises(ValueError):
        build_template([_frame_with()], [], TemplateConfig())


def test_save_load_round_trip(tmp_path):
    cfg = TemplateConfig(resolution=0.25, no_info_frequency=0.05)
    rng = np.random.default_rng(16)
    grid = rng.uniform(0, 1, cfg.dims).astype(np.float32)
    template = Template(cfg, grid, 42)
    path = tmp_path / "t.rstp"
    save_template(template, path)
    back = load_template(path)
    assert back.n_frames == 42
    assert back.config.resolution == 0.25
    assert back.no_info_frequency == 0.05
    np.testing.assert_array_equal(back.grid, grid)
    np.testing.assert_array_equal(
        back.config.row_range.min_corner, cfg.row_range.min_corner
    )
    # a second save of the loaded template is byte-identical
    path2 = tmp_path / "t2.rstp"
    save_template(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_truncated_file(tmp_path):
    cfg = TemplateConfig(resolution=0.5, no_info_frequency=0.1)
    template = Template(cfg, np.zeros(cfg.dims, dtype=np.float32), 1)
    path = tmp_path / "t.rstp"
    save_template(template, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(TemplateFormatError):
        load_template(path)
    path.write_bytes(raw[:20])
    with pytest.raises(TemplateFormatError):
        load_template(path)


def test_load_rejects_bad_magic_and_version(tmp_path):
    cfg = TemplateConfig(resolution=0.5, no_info_frequency=0.1)
    template = Template(cfg, np.zeros(cfg.dims, dtype=np.float32), 1)
    path = tmp_path / "t.rstp"
    save_template(template, path)
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.rstp"
    bad.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(TemplateFormatError):
        load_template(bad)
    raw[4] = 99  # version field
    bad.write_bytes(bytes(raw))
    with pytest.raises(TemplateFormatError):
        load_template(bad)


def test_load_rejects_inconsistent_dims(tmp_path):
    cfg = TemplateConfig(resolution=0.5, no_info_frequency=0.1)
    template = Template(cfg, np.zeros(cfg.dims, dtype=np.float32), 1)
    path = tmp_path / "t.rstp"
    save_template(template, path)
    raw = bytearray(path.read_bytes())
    # dims are the last header field: 3 u32 right before the f32 payload
    import struct

    struct.pack_into("<3I", raw, 124, cfg.dims[0] + 1, cfg.dims[1], cfg.dims[2])
    path.write_bytes(bytes(raw))
    with pytest.raises(TemplateFormatError):
        load_template(path)


def _read_only_view(base):
    view = base[...]
    view.flags.writeable = False
    return view


def _read_only_over_bytearray(base):
    """Read-only arrays all down the chain, over a writeable buffer."""
    flat = np.frombuffer(base.data, dtype=np.float32)
    flat.flags.writeable = False
    return flat.reshape(base.shape)


@pytest.mark.parametrize("source", [_read_only_view, _read_only_over_bytearray])
def test_a_grid_that_its_base_can_write_is_copied(source):
    """A read-only view of memory that something else can write is not
    taken as is: writing there must change neither the grid nor the scores
    of the tables built from it."""
    cfg = TemplateConfig(resolution=0.5, no_info_frequency=0.1)
    base = np.full(cfg.dims, 0.5, dtype=np.float32)
    if source is _read_only_over_bytearray:
        base = np.frombuffer(bytearray(base.tobytes()), dtype=np.float32).reshape(cfg.dims)
    template = Template(cfg, source(base), 1)
    before = log_table(template, 1e-4).table.copy()
    base[...] = 0.9
    assert np.all(template.grid == np.float32(0.5))
    assert not np.shares_memory(template.grid, base)
    np.testing.assert_array_equal(log_table(template, 1e-4).table, before)
    frame = PreprocessedFrame(PointCloud(np.array([[5.2, 0.1, 1.2]]), "V"), 0.0, 0.0, 0.0)
    ll, _ = PoseScorer(frame, template).score(np.zeros(1), np.zeros(1))
    assert ll[0] == pytest.approx(math.log(0.5), abs=2.0**-19)


def test_a_loaded_grid_is_taken_without_a_copy(tmp_path):
    cfg = TemplateConfig(resolution=0.5, no_info_frequency=0.1)
    save_template(Template(cfg, np.full(cfg.dims, 0.5, dtype=np.float32), 1), tmp_path / "t")
    grid = load_template(tmp_path / "t").grid
    assert grid.base is not None and not grid.flags.writeable


def test_a_template_needs_a_no_info_frequency():
    cfg = TemplateConfig(resolution=0.5)
    with pytest.raises(ValueError, match="no_info_frequency"):
        Template(cfg, np.zeros(cfg.dims, dtype=np.float32), 1)


def test_grid_shape_must_match_config():
    cfg = TemplateConfig(resolution=0.5)
    with pytest.raises(ValueError):
        Template(cfg, np.zeros((3, 3, 3), dtype=np.float32), 1)


def _write_template(path, resolution=0.5, corners=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
                    dims=(2, 2, 2), grid=None):
    """A template file with the given header fields; its row range is its
    grid box and its grid `grid`, or all 0.5."""
    grid = np.full(dims, 0.5, dtype="<f4") if grid is None else np.asarray(grid, dtype="<f4")
    header = TEMPLATE_HEADER.pack(TEMPLATE_MAGIC, TEMPLATE_VERSION, resolution,
                                  *corners[0], *corners[1], *corners[0], *corners[1],
                                  0.1, 3, *dims)
    path.write_bytes(header + grid.tobytes())


# each header's dims read (1, 1, 1), as a cast of a NaN or infinite extent
# over the resolution clamps them to
@pytest.mark.parametrize("resolution", [math.nan, math.inf])
def test_load_rejects_a_non_finite_resolution(tmp_path, resolution):
    path = tmp_path / "t.rstp"
    _write_template(path, resolution=resolution, dims=(1, 1, 1))
    with pytest.raises(TemplateFormatError, match="resolution"):
        load_template(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_load_rejects_non_finite_box_corners(tmp_path, bad):
    path = tmp_path / "t.rstp"
    _write_template(path, corners=((0.0, 0.0, 0.0), (bad, 1.0, 1.0)), dims=(1, 1, 1))
    with pytest.raises(TemplateFormatError, match="corners"):
        load_template(path)


@pytest.mark.parametrize("value", [math.nan, -0.25, 1.5])
def test_load_rejects_grid_values_outside_the_unit_interval(tmp_path, value):
    path = tmp_path / "t.rstp"
    grid = np.full((2, 2, 2), 0.5)
    grid[1, 0, 1] = value
    _write_template(path, grid=grid)
    with pytest.raises(TemplateFormatError, match=r"outside \[0, 1\]"):
        load_template(path)
