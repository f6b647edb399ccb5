import math

import numpy as np
import pytest

from rowloc.baselines import (
    DENSITY_BIN,
    BaselineParams,
    Line2,
    RowLinePair,
    SideMissingError,
    baseline1,
    baseline2,
    baseline2_refine_offset,
)
from rowloc.geometry import PointCloud, PreprocessConfig
from rowloc.mcl import MclConfig, localize_uniform
from rowloc.template import GroundTruthPose, TemplateConfig, build_template

from conftest import camera_cloud_at, make_wall_cloud_T

PARAMS = BaselineParams(pre_cfg=PreprocessConfig(leaf_size=0.05))


def test_line2_normalizes_direction_and_orients_forward():
    line = Line2(np.array([1.0, 2.0]), np.array([-2.0, 0.0]))
    np.testing.assert_allclose(line.direction, [1.0, 0.0])
    np.testing.assert_allclose(line.normal, [0.0, 1.0])
    assert line.offset == pytest.approx(2.0)
    np.testing.assert_allclose(line.distance(np.array([[0.0, 3.0], [5.0, 1.0]])), [1.0, -1.0])


def test_row_line_pair_parallel_invariant():
    a = Line2(np.array([0.0, 1.5]), np.array([1.0, 0.0]))
    b = Line2(np.array([0.0, -1.5]), np.array([1.0, 0.0]))
    RowLinePair(a, b)  # parallel: fine
    c = Line2(np.array([0.0, -1.5]), np.array([1.0, 0.1]))
    with pytest.raises(ValueError):
        RowLinePair(a, c)


def test_baseline1_recovers_offset_pose(wall_cloud_T):
    cloud_C = camera_cloud_at(wall_cloud_T, 0.2, 0.1)
    y, theta = baseline1(cloud_C, PARAMS, seed=0)
    assert y == pytest.approx(0.2, abs=0.01)
    assert theta == pytest.approx(0.1, abs=0.005)


def test_baseline1_centered_symmetric_scene(centered_wall_cloud_C):
    y, theta = baseline1(centered_wall_cloud_C, PARAMS, seed=1)
    assert y == pytest.approx(0.0, abs=0.01)
    assert theta == pytest.approx(0.0, abs=0.005)


def test_baseline1_deterministic(wall_cloud_T):
    cloud_C = camera_cloud_at(wall_cloud_T, -0.15, 0.05)
    assert baseline1(cloud_C, PARAMS, seed=3) == baseline1(cloud_C, PARAMS, seed=3)


def test_baseline2_recovers_offset_pose(wall_cloud_T):
    cloud_C = camera_cloud_at(wall_cloud_T, 0.2, 0.1)
    y, theta, pair = baseline2(cloud_C, PARAMS, seed=0)
    assert y == pytest.approx(0.2, abs=0.01)
    assert theta == pytest.approx(0.1, abs=0.005)
    cross = abs(
        pair.left.direction[0] * pair.right.direction[1]
        - pair.left.direction[1] * pair.right.direction[0]
    )
    assert cross < 1e-9


def test_baseline2_pair_parallel_for_random_inputs(wall_cloud_T):
    for seed in range(5):
        cloud_C = camera_cloud_at(wall_cloud_T, 0.1 * seed - 0.2, 0.03 * seed - 0.06)
        _, _, pair = baseline2(cloud_C, PARAMS, seed=seed)
        a, b = pair.left.direction, pair.right.direction
        d = abs(float(a[0] * b[1] - a[1] * b[0]))  # the 2-D cross product
        assert d < 1e-9


def test_missing_side_raises():
    # only the left wall plus ground
    rng = np.random.default_rng(21)
    n = 600
    left = np.column_stack([rng.uniform(1, 10, n), np.full(n, 1.5), rng.uniform(0.3, 2.0, n)])
    ground = np.column_stack(
        [rng.uniform(1, 10, 400), rng.uniform(-2, 2, 400), np.zeros(400)]
    )
    cloud_T = PointCloud(np.vstack([left, ground]), "T")
    cloud_C = camera_cloud_at(cloud_T, 0.0, 0.0)
    with pytest.raises(SideMissingError):
        baseline1(cloud_C, PARAMS, seed=0)
    with pytest.raises(SideMissingError):
        baseline2(cloud_C, PARAMS, seed=0)


def test_refine_is_noop_when_density_sits_on_the_lines(wall_cloud_T):
    cloud_C = camera_cloud_at(wall_cloud_T, 0.1, 0.0)
    y, _, pair = baseline2(cloud_C, PARAMS, seed=0)
    refined = baseline2_refine_offset(cloud_C, pair, PARAMS)
    assert refined == pytest.approx(y, abs=DENSITY_BIN)


def test_refine_snaps_to_dense_trunk_plane():
    # Trunk rows at +-1.5 carry most of the raw points but collapse to a
    # handful of voxels after downsampling; the diffuse canopy is shifted
    # +0.2 m in +y on both sides (wind-blown), so the line-pair fit lands
    # on the canopy and only the raw-density refinement recovers the
    # trunk-plane centerline.
    rng = np.random.default_rng(22)
    half = 1.5
    pts = []
    for sign in (+1.0, -1.0):
        for xc in np.arange(1.5, 12.0, 1.0):  # 11 discrete trunks per side
            n = 1000
            pts.append(
                np.column_stack(
                    [
                        np.full(n, xc) + rng.normal(0, 0.01, n),
                        np.full(n, sign * half) + rng.normal(0, 0.01, n),
                        rng.uniform(0.2, 0.5, n),
                    ]
                )
            )
        n_fuzz = 3000
        pts.append(
            np.column_stack(
                [
                    rng.uniform(1, 12, n_fuzz),
                    np.full(n_fuzz, sign * half + 0.2) + rng.normal(0, 0.12, n_fuzz),
                    rng.uniform(0.3, 2.0, n_fuzz),
                ]
            )
        )
    # ground dense enough that the plane fit cannot latch onto canopy
    n_ground = 4000
    ground = np.column_stack(
        [rng.uniform(1, 12, n_ground), rng.uniform(-2, 2, n_ground), np.zeros(n_ground)]
    )
    cloud_T = PointCloud(np.vstack(pts + [ground]), "T")
    true_y = 0.12
    cloud_C = camera_cloud_at(cloud_T, true_y, 0.0)
    y2, _, pair = baseline2(cloud_C, PARAMS, seed=1)
    refined = baseline2_refine_offset(cloud_C, pair, PARAMS)
    assert abs(refined - true_y) < abs(y2 - true_y)
    assert refined == pytest.approx(true_y, abs=0.06)


def _jittered_wall(seed):
    """Ideal wall with mild symmetric lateral jitter: a 2-3 voxel canopy."""
    wall = make_wall_cloud_T(row_spacing=2.84, length=15.0, step=0.12)
    rng = np.random.default_rng(seed)
    pts = wall.points.copy()
    canopy = pts[:, 2] > 0.05
    pts[canopy, 1] += rng.normal(0.0, 0.05, np.count_nonzero(canopy))
    return PointCloud(pts, "T")


def test_three_way_agreement_on_noiseless_wall_scene():
    pre = PreprocessConfig(leaf_size=0.05)
    params = BaselineParams(pre_cfg=pre)
    build_frames, truths = [], []
    for k in range(20):
        y = 0.02 * (k - 9.5)
        th = 0.008 * (k - 9.5)
        build_frames.append(camera_cloud_at(_jittered_wall(400 + k), y, th))
        truths.append(GroundTruthPose(y=y, theta=th))
    template = build_template(build_frames, truths, TemplateConfig(), pre)

    true_y, true_th = 0.12, 0.04
    cloud_C = camera_cloud_at(_jittered_wall(499), true_y, true_th)
    y1, t1 = baseline1(cloud_C, params, seed=0)
    y2, t2, _ = baseline2(cloud_C, params, seed=0)
    est = localize_uniform(cloud_C, template, MclConfig(pre_cfg=pre, n_particles=8000), seed=1)
    for y, t in ((y1, t1), (y2, t2), (est.pose.y, est.pose.theta)):
        assert y == pytest.approx(true_y, abs=0.02)
        assert t == pytest.approx(true_th, abs=0.01)
