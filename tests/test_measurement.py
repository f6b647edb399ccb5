import math

import numpy as np
import pytest

from rowloc.geometry import Box3, PointCloud, PreprocessConfig, PreprocessedFrame, preprocess
from rowloc.measurement import DEFAULT_P_FLOOR, PoseScorer, log_table
from rowloc.template import GroundTruthPose, Template, TemplateConfig, build_template
from rowloc.synth import SensorSpec, render_frame, generate_scene, vineyard_preset
from rowloc.geometry import Pose6D


SMALL_CFG = TemplateConfig(
    resolution=0.1,
    template_range=Box3.from_ranges((0.0, 4.0), (-2.0, 2.0), (0.0, 2.0)),
    row_range=Box3.from_ranges((0.0, 4.0), (-1.0, 1.0), (0.0, 2.0)),
    no_info_frequency=0.02,
)


def _template_with(values: dict) -> Template:
    grid = np.full(SMALL_CFG.dims, 0.02, dtype=np.float32)
    for idx, v in values.items():
        grid[idx] = v
    return Template(SMALL_CFG, grid, 10)


def _frame(points) -> PreprocessedFrame:
    return PreprocessedFrame(PointCloud(np.atleast_2d(points), "V"), 0.0, 0.0, 0.0)


def _voxel_of(p):
    lo = SMALL_CFG.template_range.min_corner
    return tuple(int((p[a] - lo[a]) / SMALL_CFG.resolution) for a in range(3))


def test_point_in_certain_voxel_scores_zero():
    p = np.array([1.23, 0.47, 0.91])
    template = _template_with({_voxel_of(p): 1.0})
    scorer = PoseScorer(_frame(p), template)
    ll, ns = scorer.score(np.array([0.0]), np.array([0.0]))
    assert ll[0] == 0.0
    assert ns[0] == 1


def test_point_in_empty_voxel_pays_the_probability_floor():
    p = np.array([1.23, 0.47, 0.91])
    template = _template_with({_voxel_of(p): 0.0})
    scorer = PoseScorer(_frame(p), template)
    ll, ns = scorer.score(np.array([0.0]), np.array([0.0]))
    assert ll[0] == pytest.approx(math.log(DEFAULT_P_FLOOR))
    assert ns[0] == 1


def test_point_outside_template_range_pays_the_no_info_penalty():
    # beyond x max, and below z = 0
    pts = np.array([[4.03, 0.47, 0.91], [1.23, 0.47, -0.02]])
    scorer = PoseScorer(_frame(pts), _template_with({}))
    ll, ns = scorer.score(np.array([0.0]), np.array([0.0]))
    assert ll[0] == 2 * scorer.log_no_info
    assert scorer.log_no_info == pytest.approx(math.log(0.02), abs=2.0**-21)
    assert ns[0] == 0


@pytest.mark.parametrize("p_floor", [math.nan, 0.0, -1.0, 2.0])
def test_a_p_floor_outside_zero_to_one_is_refused(p_floor):
    """As MclConfig refuses it, so a scorer built directly cannot return
    NaN scores or a table of -inf."""
    template = _template_with({})
    with pytest.raises(ValueError, match=r"p_floor must be in \(0, 1\]"):
        log_table(template, p_floor)
    with pytest.raises(ValueError, match=r"p_floor must be in \(0, 1\]"):
        PoseScorer(_frame([1.0, 0.0, 1.0]), template, p_floor)
    assert log_table(template, 1.0).log_floor == 0.0


def test_point_in_an_out_of_row_voxel_reads_the_grid():
    p = np.array([1.23, 1.47, 0.91])  # inside template_range, beyond the row's y = 1
    template = _template_with({_voxel_of(p): 0.5})
    scorer = PoseScorer(_frame(p), template)
    ll, ns = scorer.score(np.array([0.0]), np.array([0.0]))
    # log(0.5) rounded to a multiple of 2**-20, not the no-info log
    assert ll[0] == round(math.log(0.5) * 2**20) / 2**20
    assert ll[0] != scorer.log_no_info
    assert ns[0] == 1


def test_sum_of_per_point_logs():
    pts = np.array([[1.23, 0.47, 0.91], [2.51, -0.33, 0.55], [3.99, 0.0, 1.99]])
    freqs = [0.8, 0.25, 0.5]
    template = _template_with({_voxel_of(p): f for p, f in zip(pts, freqs)})
    scorer = PoseScorer(_frame(pts), template)
    ll, ns = scorer.score(np.array([0.0]), np.array([0.0]))
    assert ns[0] == 3
    assert ll[0] == pytest.approx(sum(np.log(np.float32(f)) for f in freqs), abs=1e-6)


def test_permutation_invariance():
    rng = np.random.default_rng(17)
    pts = rng.uniform([0.2, -1.8, 0.1], [3.8, 1.8, 1.9], size=(200, 3))
    grid = rng.uniform(0.01, 1.0, SMALL_CFG.dims).astype(np.float32)
    template = Template(SMALL_CFG, grid, 10)
    ys = rng.uniform(-0.4, 0.4, 16)
    thetas = rng.uniform(-0.3, 0.3, 16)
    base = PoseScorer(_frame(pts), template)
    ll0, ns0 = base.score(ys, thetas)
    perm = rng.permutation(pts.shape[0])
    shuf = PoseScorer(_frame(pts[perm]), template)
    ll1, ns1 = shuf.score(ys, thetas)
    np.testing.assert_allclose(ll0, ll1, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(ns0, ns1)
    assert np.all(np.isfinite(ll0))


def test_scorer_matches_float64_reference_at_zero_heading():
    """Independent per-point oracle; points are kept off voxel boundaries."""
    rng = np.random.default_rng(18)
    res = SMALL_CFG.resolution
    lo = SMALL_CFG.template_range.min_corner
    # points at voxel centers so that integer-res y shifts stay off boundaries
    idx = rng.integers([0, 5, 0], [40, 35, 20], size=(120, 3))
    pts = lo + (idx + 0.5) * res
    grid = rng.uniform(0.01, 1.0, SMALL_CFG.dims).astype(np.float32)
    template = Template(SMALL_CFG, grid, 10)
    scorer = PoseScorer(_frame(pts), template)
    ys = np.arange(-0.5, 0.5001, res)
    ll, ns = scorer.score(ys, np.zeros_like(ys))
    for k, y in enumerate(ys):
        expect = 0.0
        scored = 0
        for p in pts:
            q = p + np.array([0.0, y, 0.0])
            if np.all(q >= lo) and np.all(q <= SMALL_CFG.template_range.max_corner):
                i = tuple(
                    min(int((q[a] - lo[a]) / res), SMALL_CFG.dims[a] - 1) for a in range(3)
                )
                expect += math.log(max(float(grid[i]), DEFAULT_P_FLOOR))
                scored += 1
            else:
                expect += math.log(0.02)
        assert ns[k] == scored
        assert ll[k] == pytest.approx(expect, abs=1e-4)


def test_true_pose_beats_offset_pose_on_most_frames():
    spec = vineyard_preset(row_length=30.0, foliage_density=15.0)
    scene = generate_scene(spec, 4)
    sensor = SensorSpec(max_range=10.0)
    pre = PreprocessConfig(leaf_size=0.05)
    build_poses = [Pose6D(x=2.0 + 0.1 * i, z=1.0) for i in range(60)]
    clouds = [render_frame(scene, p, sensor, seed=300 + i) for i, p in enumerate(build_poses)]
    truths = [GroundTruthPose(y=0.0, theta=0.0) for _ in clouds]
    template = build_template(clouds, truths, TemplateConfig(), pre)

    wins = 0
    for i in range(100):
        pose = Pose6D(x=8.0 + 0.1 * i, z=1.0)
        cloud = render_frame(scene, pose, sensor, seed=900 + i)
        ll, _ = PoseScorer(preprocess(cloud, pre), template).score(
            np.array([0.0, 0.5]), np.array([0.0, 0.0]))
        if ll[0] > ll[1]:
            wins += 1
    assert wins >= 95


def test_mirror_symmetric_scene_gives_symmetric_scores():
    rng = np.random.default_rng(19)
    half = rng.uniform([0.2, 0.1, 0.1], [3.8, 1.8, 1.9], size=(80, 3))
    pts = np.vstack([half, half * np.array([1.0, -1.0, 1.0])])
    grid = rng.uniform(0.01, 1.0, SMALL_CFG.dims).astype(np.float32)
    grid = np.minimum(grid, grid[:, ::-1, :])  # mirror-symmetric in y
    template = Template(SMALL_CFG, grid, 10)
    scorer = PoseScorer(_frame(pts), template)
    ys = np.array([0.13, 0.31, -0.22])
    thetas = np.array([0.11, -0.17, 0.23])
    ll_a, _ = scorer.score(ys, thetas)
    ll_b, _ = scorer.score(-ys, -thetas)
    np.testing.assert_allclose(ll_a, ll_b, atol=1e-6)


def test_empty_measurement_contract():
    template = _template_with({})
    scorer = PoseScorer(_frame(np.zeros((0, 3))), template)
    ll, ns = scorer.score(np.array([0.0, 0.1]), np.array([0.0, 0.0]))
    assert np.all(ll == 0.0) and np.all(ns == 0)
