"""PoseScorer.score equals a per-proposal brute force, bit for bit.

The scorer shares heading-only work across runs of equal headings and
packs the rest into chunks; neither may change a single log-likelihood
bit or points-scored count.  The reference below scores one proposal at
a time with the scorer's float32 arithmetic written out step by step.

Grid search scores only the y-blocks whose upper bound reaches the k-th
best cell; its estimate must equal, bit for bit, the one built from
scoring every cell.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowloc import mcl
from rowloc.geometry import Box3, PointCloud, PreprocessedFrame, rotation_from_euler
from rowloc.mcl import (
    FLAG_EMPTY_MEASUREMENT,
    MclConfig,
    UniformPrior,
    _empty_estimate,
    _make_estimate,
    localize_grid,
)
from rowloc.measurement import PoseScorer, _prunable
from rowloc.template import Template, TemplateConfig

F32 = np.float32


def reference_score(frame, template, p_floor, y, theta):
    """(log-likelihood, points scored) of one proposal."""
    cfg = template.config
    lo, hi, res = cfg.template_range.min_corner, cfg.template_range.max_corner, cfg.resolution
    nx, ny, nz = cfg.dims

    R = rotation_from_euler(frame.roll, frame.pitch, 0.0).rotation
    leveled = frame.cloud_V.points @ R.T
    qx, qy = leveled[:, 0].astype(F32), leveled[:, 1].astype(F32)
    qz = leveled[:, 2] + frame.height

    c, s = F32(np.cos(theta)), F32(np.sin(theta))
    inv_res = F32(1.0 / res)
    fx = (c * qx - s * qy - F32(lo[0])) * inv_res
    fy = (s * qx + c * qy + F32(y) - F32(lo[1])) * inv_res

    def grid_coord(v, axis):
        return F32((v - lo[axis]) / res)

    # a point is scored when it lands in template_range
    keep = (fx >= grid_coord(lo[0], 0)) & (fx <= grid_coord(hi[0], 0))
    keep &= (fy >= grid_coord(lo[1], 1)) & (fy <= grid_coord(hi[1], 1))
    keep &= (qz >= lo[2]) & (qz <= hi[2])
    on_grid = (fx >= 0) & (fx <= F32(nx)) & (fy >= 0) & (fy <= F32(ny))
    on_grid &= (qz >= lo[2]) & (qz <= hi[2])

    log_no_info = F32(math.log(max(template.no_info_frequency, p_floor)))
    logs = np.full(qx.shape[0], log_no_info, dtype=F32)
    sel = keep & on_grid
    ix = np.minimum(np.floor(fx[sel]).astype(np.int64), nx - 1)
    iy = np.minimum(np.floor(fy[sel]).astype(np.int64), ny - 1)
    iz = np.clip(np.floor((qz[sel] - lo[2]) / res).astype(np.int64), 0, nz - 1)
    iz[qz[sel] == hi[2]] = nz - 1
    freq = template.grid[ix, iy, iz].astype(np.float64)
    logs[sel] = np.log(np.maximum(freq, p_floor)).astype(F32)
    return logs.sum(dtype=np.float64), int(np.count_nonzero(keep))


# extents that are not multiples of the resolution
TEMPLATE_RANGE = Box3.from_ranges((-0.05, 4.0), (-2.07, 2.0), (0.0, 2.0))


@st.composite
def scenes(draw):
    res = draw(st.sampled_from([0.1, 0.25, 0.3]))
    cfg = TemplateConfig(
        resolution=res,
        template_range=TEMPLATE_RANGE,
        row_range=Box3.from_ranges((0.0, 4.0), (-1.0, 1.0), (0.0, 2.0)),
        no_info_frequency=draw(st.floats(1e-5, 0.5)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.uniform(0.0, 1.0, cfg.dims).astype(F32)
    grid[rng.uniform(size=cfg.dims) < 0.3] = 0.0  # empty voxels pay the floor
    template = Template(cfg, grid, 10)

    n = draw(st.one_of(st.just(0), st.integers(1, 80)))  # the empty cloud too
    pts = rng.uniform([-1.0, -3.0, -0.5], [5.0, 3.0, 2.5], size=(n, 3))
    if n and draw(st.booleans()):
        # snap some coordinates onto voxel faces and the grid's outer faces
        snap = rng.uniform(size=pts.shape) < 0.3
        pts[snap] = np.round(pts[snap] / res) * res
    tilt = draw(st.sampled_from([(0.0, 0.0, 0.0), (0.03, -0.02, 0.9)]))
    frame = PreprocessedFrame(PointCloud(pts, "V"), *tilt)

    # runs of equal headings (some past the chunk size) between distinct ones
    runs = draw(st.lists(
        st.tuples(st.integers(1, 140), st.floats(-0.8, 0.8, allow_subnormal=False)),
        min_size=1, max_size=8,
    ))
    thetas = np.concatenate([np.full(k, th) for k, th in runs])
    ys = rng.uniform(-1.0, 1.0, thetas.size)
    on_face = rng.uniform(size=ys.size) < 0.2
    ys[on_face] = np.round(ys[on_face] / res) * res
    p_floor = draw(st.sampled_from([1e-4, 1e-2]))
    return frame, template, p_floor, ys, thetas


@settings(max_examples=60, deadline=None)
@given(scenes())
def test_score_equals_per_proposal_reference(scene):
    frame, template, p_floor, ys, thetas = scene
    ll, ns = PoseScorer(frame, template, p_floor).score(ys, thetas)
    expected = [reference_score(frame, template, p_floor, y, th) for y, th in zip(ys, thetas)]
    want_ll = np.array([e[0] for e in expected])
    want_ns = np.array([e[1] for e in expected], dtype=np.int64)
    np.testing.assert_array_equal(ll.view(np.int64), want_ll.view(np.int64))
    np.testing.assert_array_equal(ns, want_ns)


def test_scorers_of_one_template_share_its_log_table():
    cfg = TemplateConfig(template_range=TEMPLATE_RANGE,
                         row_range=Box3.from_ranges((0.0, 4.0), (-1.0, 1.0), (0.0, 2.0)),
                         no_info_frequency=0.02)
    grid = np.full(cfg.dims, 0.5, dtype=F32)
    template = Template(cfg, grid, 1)
    grid[:] = 1.0  # the template holds its own copy
    frame = PreprocessedFrame(PointCloud(np.array([[1.0, 0.0, 1.0]]), "V"), 0.0, 0.0, 0.0)
    other = PreprocessedFrame(PointCloud(np.array([[2.0, 0.5, 0.3]]), "V"), 0.01, 0.0, 0.2)
    a = PoseScorer(frame, template)
    b = PoseScorer(other, template)
    c = PoseScorer(frame, template, p_floor=1e-2)
    assert a._table is b._table
    assert a._table is not c._table
    assert a._table.dtype == F32 and not a._table.flags.writeable
    assert not template.grid.flags.writeable
    assert np.all(template.grid == F32(0.5))


def exhaustive_grid_estimate(frame, template, cfg, y_step, theta_step):
    """`localize_grid`'s estimate from scoring every cell of the grid."""
    p = cfg.prior
    ys = np.arange(p.y_min, p.y_max + 1e-12, y_step)
    thetas = np.arange(p.theta_min, p.theta_max + 1e-12, theta_step)
    tt, yy = np.meshgrid(thetas, ys, indexing="ij")
    poses = np.column_stack([yy.ravel(), tt.ravel()])
    ll, ns = PoseScorer(frame, template, cfg.p_floor).score(poses[:, 0], poses[:, 1])
    if not np.any(ns):
        return _empty_estimate(cfg)
    return _make_estimate(poses, ll, ns, cfg)


def pruned_grid_estimate(frame, template, cfg, y_step, theta_step):
    """`localize_grid` on an already preprocessed frame."""
    with mock.patch.object(mcl, "preprocess", lambda cloud, pre_cfg: frame):
        return localize_grid(frame.cloud_V, template, cfg, y_step, theta_step)


def estimate_bits(est):
    floats = np.array([est.pose.y, est.pose.theta, est.std_y, est.std_theta, est.loglik])
    cov = np.asarray(est.covariance, dtype=np.float64)
    return floats.view(np.int64).tolist(), cov.view(np.int64).tolist(), est.n_points, est.flags


ROW_RANGE = Box3.from_ranges((0.0, 4.0), (-1.0, 1.0), (0.0, 2.0))


@st.composite
def grid_scenes(draw):
    res = draw(st.sampled_from([0.1, 0.25, 0.3]))
    no_info = draw(st.floats(1e-5, 0.5))
    cfg = TemplateConfig(resolution=res, template_range=TEMPLATE_RANGE, row_range=ROW_RANGE,
                         no_info_frequency=no_info)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "peaked", "constant"]))
    if kind == "constant":
        # in the box or out of it, every point reads the same log: all cells tie
        grid = np.full(cfg.dims, no_info, dtype=F32)
    else:
        grid = rng.uniform(0.0, 1.0, cfg.dims).astype(F32)
        grid[rng.uniform(size=cfg.dims) < (0.3 if kind == "random" else 0.97)] = 0.0
    template = Template(cfg, grid, 10)

    n = draw(st.one_of(st.just(1), st.integers(2, 60)))
    pts = rng.uniform([-1.0, -3.0, -0.5], [5.0, 3.0, 2.5], size=(n, 3))
    if draw(st.booleans()):
        # near the box's y faces, so blocks straddle them
        pts[:, 1] = rng.choice([-2.07, 2.0], n) + rng.uniform(-0.9, 0.9, n)
    tilt = draw(st.sampled_from([(0.0, 0.0, 0.0), (0.03, -0.02, 0.9)]))
    frame = PreprocessedFrame(PointCloud(pts, "V"), *tilt)

    y_half = draw(st.sampled_from([0.8, 0.37]))
    theta_half = draw(st.sampled_from([0.6, 0.21]))
    mcl_cfg = MclConfig(
        prior=UniformPrior(-y_half, y_half, -theta_half, theta_half),
        p_floor=draw(st.sampled_from([1e-4, 1e-2])),
    )
    y_step = draw(st.sampled_from([0.02, 0.05, 0.013]))
    theta_step = draw(st.sampled_from([0.01, 0.03, 0.1]))
    return frame, template, mcl_cfg, y_step, theta_step


@settings(max_examples=80, deadline=None)
@given(grid_scenes())
def test_pruned_grid_search_equals_exhaustive(scene):
    want = exhaustive_grid_estimate(*scene)
    got = pruned_grid_estimate(*scene)
    assert estimate_bits(got) == estimate_bits(want)


def test_grid_search_scores_every_cell_when_its_top_cells_score_no_point():
    """The cells that push the one point out of the box in x score best,
    and with 0 points; the grid is still non-empty, because the other
    headings score it."""
    cfg = TemplateConfig(template_range=TEMPLATE_RANGE, row_range=ROW_RANGE,
                         no_info_frequency=0.5)
    template = Template(cfg, np.zeros(cfg.dims, dtype=F32), 10)
    frame = PreprocessedFrame(PointCloud(np.array([[3.9, -1.0, 1.0]]), "V"), 0.0, 0.0, 0.0)
    mcl_cfg = MclConfig(prior=UniformPrior(-0.5, 0.5, 0.0, 0.6))
    want = exhaustive_grid_estimate(frame, template, mcl_cfg, 0.02, 0.01)
    assert want.n_points == 0 and FLAG_EMPTY_MEASUREMENT not in want.flags
    got = pruned_grid_estimate(frame, template, mcl_cfg, 0.02, 0.01)
    assert estimate_bits(got) == estimate_bits(want)


def test_grid_search_skips_cells_on_a_peaked_frame(monkeypatch):
    cfg = TemplateConfig(template_range=TEMPLATE_RANGE, row_range=ROW_RANGE,
                         no_info_frequency=0.02)
    grid = np.zeros(cfg.dims, dtype=F32)
    grid[:, [10, 30], :] = 0.9  # two walls
    template = Template(cfg, grid, 10)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.2, 3.8, 200)
    pts = np.column_stack([x, np.where(x > 2.0, 1.0, -1.0) + 0.05, rng.uniform(0.1, 1.9, 200)])
    frame = PreprocessedFrame(PointCloud(pts, "V"), 0.0, 0.0, 0.0)
    scored = []
    score = PoseScorer.score
    monkeypatch.setattr(PoseScorer, "score", lambda s, ys, th: scored.append(len(ys)) or score(s, ys, th))
    est = pruned_grid_estimate(frame, template, MclConfig(), 0.02, 0.01)
    assert est.n_points == 200
    assert 0 < sum(scored) < 0.5 * 81 * 121


def test_grid_top_k_rejects_descending_ys():
    # a block's bound assumes its first y is its lowest
    cfg = TemplateConfig(template_range=TEMPLATE_RANGE, row_range=ROW_RANGE,
                         no_info_frequency=0.02)
    template = Template(cfg, np.zeros(cfg.dims, dtype=F32), 1)
    frame = PreprocessedFrame(PointCloud(np.array([[1.0, 0.0, 1.0]]), "V"), 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        PoseScorer(frame, template).score_grid_top_k(np.array([0.1, 0.0]), np.array([0.0]), 1)


def test_a_block_within_the_slack_of_the_kth_best_is_scored():
    kth = -1234.5
    assert not _prunable(np.array([np.nextafter(kth, -np.inf)]), 1000, 9.2, kth)[0]


def test_a_block_whose_bound_ties_the_kth_best_is_scored():
    # a slack of 2 * 1 * 2**-52 * (1 * 2**50) = 0.5 lifts the bound to the k-th best exactly
    assert not _prunable(np.array([-1.0]), 1, 2.0**50, -0.5)[0]
    assert _prunable(np.array([-1.0]), 1, 2.0**50, np.nextafter(-0.5, 0.0))[0]
